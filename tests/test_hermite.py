"""Hermite polynomials against the explicit coefficient formula.

The normalization used throughout has leading coefficient 1/q!:

    H_q(x) = sum over 0 <= m <= q/2 of (-1)^m / (m! 2^m (q-2m)!) x^(q-2m),

which makes E[H_p(Z) H_q(Z)] = delta_pq / q! under the standard normal.
Orthogonality is checked by Gauss-Hermite quadrature, exact for
polynomials, not by sampling.
"""

import math
import tracemalloc

import numpy as np
import pytest

from wienerchaos.exceptions import ValidationError
from wienerchaos.hermite import hermite


def hermite_coeffs(q):
    """Coefficients of H_q, highest power first, for np.polyval."""
    coeffs = [0.0] * (q + 1)
    for m in range(q // 2 + 1):
        power = q - 2 * m
        coeffs[q - power] = (-1) ** m / (math.factorial(m) * 2**m * math.factorial(power))
    return coeffs


def test_first_polynomials_closed_form():
    x = np.linspace(-3, 3, 41)
    assert np.allclose(hermite(0, x), np.ones_like(x))
    assert np.allclose(hermite(1, x), x)
    assert np.allclose(hermite(2, x), (x**2 - 1) / 2)
    assert np.allclose(hermite(3, x), (x**3 - 3 * x) / 6)
    assert np.allclose(hermite(4, x), (x**4 - 6 * x**2 + 3) / 24)


def test_matches_coefficient_formula():
    rng = np.random.default_rng(10)
    x = rng.normal(size=200) * 2
    for q in range(0, 13):
        expected = np.polyval(hermite_coeffs(q), x)
        assert np.allclose(hermite(q, x), expected, rtol=1e-10, atol=1e-10), q


def test_scalar_input_returns_float():
    value = hermite(3, 1.5)
    assert isinstance(value, float)
    assert abs(value - (1.5**3 - 4.5) / 6) < 1e-14


def test_probabilists_rescaling():
    # He_q = q! H_q ties the recurrence to the classical polynomials.
    x = np.linspace(-2, 2, 17)
    for q in range(8):
        he = np.polynomial.hermite_e.hermeval(x, [0.0] * q + [1.0])
        assert np.allclose(math.factorial(q) * hermite(q, x), he, atol=1e-10)


def test_orthonormality_by_quadrature():
    # E[H_p H_q] = delta_pq / q!; hermegauss weights integrate against
    # exp(-x^2/2), so divide by sqrt(2 pi) for the Gaussian expectation.
    nodes, weights = np.polynomial.hermite_e.hermegauss(40)
    weights = weights / math.sqrt(2 * math.pi)
    for p in range(8):
        for q in range(8):
            value = float(np.sum(weights * hermite(p, nodes) * hermite(q, nodes)))
            expected = 1.0 / math.factorial(q) if p == q else 0.0
            assert abs(value - expected) < 1e-12, (p, q)


def test_hermite_returns_a_new_array():
    x = np.linspace(-1.0, 1.0, 5)
    for q in range(3):
        value = hermite(q, x)
        assert not np.shares_memory(value, x), q
        value[:] = 7.0
    assert np.array_equal(x, np.linspace(-1.0, 1.0, 5))


def test_rejects_negative_order():
    with pytest.raises(ValidationError):
        hermite(-1, 0.0)


def listed_recurrence(q, x):
    # reference: every order H_0..H_q kept in a list, as the recurrence once did
    table = [1.0, x]
    for k in range(1, q):
        table.append((x * table[-1] - table[-2]) / (k + 1))
    return table[q]


def test_hermite_equals_the_listed_recurrence():
    x = np.linspace(-6.0, 6.0, 101)
    for q in (0, 1, 2, 3, 7, 20, 60):
        assert np.array_equal(hermite(q, x), np.broadcast_to(listed_recurrence(q, x), x.shape)), q
        assert hermite(q, 0.3) == float(np.asarray(listed_recurrence(q, np.float64(0.3)))), q


def test_hermite_holds_two_orders_at_a_time():
    # the recurrence keeps only the last two orders: a 1000th order on 10^4
    # points peaks at a few arrays, not at the 1001 orders of the whole list
    x = np.linspace(-3.0, 3.0, 10_000)
    tracemalloc.start()
    try:
        value = hermite(1000, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(value, listed_recurrence(1000, x))
    assert peak < 8 * x.nbytes  # five arrays here: the result, two orders and two temporaries
