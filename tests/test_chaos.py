"""Integrals, products and squared covariances against independent oracles.

Three oracles with no code shared with the implementation; the product
expansion, the Isserlis moment and the dense forms live in tests/oracles.py:

1. Gauss-Hermite tensor-grid quadrature, exact for polynomials, validates
   the evaluation map and the isometry E[I_p(f) I_q(g)] = delta_pq p!<f,g>.
2. The pathwise identity multiply(F,G).evaluate(x) = evaluate(F,x) *
   evaluate(G,x) validates the product-formula oracle at every point, a
   much stronger statement than matching a handful of moments; it then
   cross-checks cov_squares through the expansions of both squares.
3. Closed-form Gaussian moments ((2k-1)!!, 1 + 2 rho^2, 3 rho) validate the
   brute-force Isserlis-style oracle, which then cross-checks cov_squares.
"""

import hashlib
import itertools
import math

import numpy as np
import pytest
from oracles import ChaosExpansion, isserlis_moment, multiply, to_dense

from wienerchaos import chaos
from wienerchaos.chaos import (
    ChaosElement,
    cov_squares,
    cov_squares_and_norms,
    evaluate,
    normalize,
    variance,
)
from wienerchaos.exceptions import DegenerateInputError, ResourceLimitError, ValidationError
from wienerchaos.hermite import _hermite
from wienerchaos.independence import ChaosVector
from wienerchaos.montecarlo import sample
from wienerchaos.sequences import FamilySpec, generate
from wienerchaos.tensor import HilbertSpace, SymmetricTensor, occupation


def gauss_grid(dim, nodes=10):
    """Tensor product Gauss-Hermite rule as (points, weights) for E[.]."""
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / math.sqrt(2 * math.pi)
    grids = np.meshgrid(*([x] * dim), indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    weights = np.ones(points.shape[0])
    for axis, grid in enumerate(np.meshgrid(*([w] * dim), indexing="ij")):
        weights *= grid.ravel()
    return points, weights


def rand_element(rng, space, order, nnz=3):
    entries = {}
    for _ in range(nnz):
        idx = tuple(sorted(int(i) for i in rng.integers(1, space.dimension + 1, size=order)))
        entries[idx] = float(rng.normal())
    return ChaosElement(SymmetricTensor(space, order, entries))


def test_evaluate_explicit_formulas():
    sp = HilbertSpace(3)
    x = np.random.default_rng(12).normal(size=(100, 3))
    f1 = ChaosElement(SymmetricTensor(sp, 1, {(1,): 1.0}))
    assert np.allclose(evaluate(f1, x), x[:, 0], atol=1e-14)
    f2 = ChaosElement(SymmetricTensor(sp, 2, {(1, 1): 1 / math.sqrt(2)}))
    assert np.allclose(evaluate(f2, x), (x[:, 0] ** 2 - 1) / math.sqrt(2), atol=1e-12)
    f12 = ChaosElement(SymmetricTensor(sp, 2, {(1, 2): 0.7}))
    assert np.allclose(evaluate(f12, x), 2 * 0.7 * x[:, 0] * x[:, 1], atol=1e-12)
    f3 = ChaosElement(SymmetricTensor(sp, 3, {(2, 2, 2): 0.5}))
    expected = 6 * 0.5 * (x[:, 1] ** 3 - 3 * x[:, 1]) / 6
    assert np.allclose(evaluate(f3, x), expected, atol=1e-12)


def test_evaluate_single_point_returns_float():
    sp = HilbertSpace(2)
    el = ChaosElement(SymmetricTensor(sp, 1, {(2,): 2.0}))
    value = evaluate(el, np.array([0.5, -1.0]))
    assert isinstance(value, float)
    assert abs(value - (-2.0)) < 1e-14


def test_evaluate_rejects_wrong_width():
    sp = HilbertSpace(2)
    el = ChaosElement(SymmetricTensor(sp, 1, {(1,): 1.0}))
    with pytest.raises(ValidationError):
        evaluate(el, np.zeros((5, 3)))
    with pytest.raises(ValidationError, match="expected a chaos element, got SymmetricTensor"):
        evaluate(el.kernel, np.zeros((5, 2)))
    with pytest.raises(ValidationError, match="expected a chaos element, got ChaosExpansion"):
        evaluate(multiply(el, el), np.zeros((5, 2)))


def test_evaluate_bytes_are_pinned():
    # sweep, simulate and check payloads are byte-pinned, so the evaluator's
    # IEEE operation order is too: these digests are fixed values
    sp = HilbertSpace(3)
    order3 = ChaosElement(SymmetricTensor(sp, 3, {(1, 1, 2): 0.3, (2, 3, 3): -0.7, (1, 2, 3): 0.11}))
    x = np.random.default_rng(3).normal(size=(512, 3))
    assert hashlib.sha256(evaluate(order3, x).tobytes()).hexdigest() == (
        "446fa0d14cec69f344049b8650d4745397cf7d4648c1cce8fd9db3fbad3301ce"
    )
    vector = generate(FamilySpec("vanishing_overlap", (2, 2), (1, 1)), 32)
    block = sample(7, vector.space.dimension, 100_000).block(0)
    assert hashlib.sha256(evaluate(vector.groups[0][0], block).tobytes()).hexdigest() == (
        "52f42405c4c1e50442efb1bb7bb649402faa5f01d6231a2aa4de58125a95fb88"
    )


def test_evaluate_accepts_fortran_order_input():
    rng = np.random.default_rng(9)
    sp = HilbertSpace(4)
    entries = {}
    for _ in range(5):
        entries[tuple(sorted(int(i) for i in rng.integers(1, 5, size=3)))] = float(rng.normal())
    element = ChaosElement(SymmetricTensor(sp, 3, entries))
    x = rng.normal(size=(400, 4))
    assert evaluate(element, x).tobytes() == evaluate(element, np.asfortranarray(x)).tobytes()


def per_entry_evaluate(element, x):
    # reference, read from the kernel entries and not from evaluate's layout:
    # one entry at a time, its factors left to right, each term added to the
    # running sum from 0.0 in stored entry order
    scale = float(math.factorial(element.order))
    out = np.zeros(x.shape[0])
    for index, value in element.kernel.items():
        term = scale * value
        for coord, count in occupation(index):
            term = term * _hermite(count, x[:, coord - 1])
        out = out + term
    return out


@pytest.mark.parametrize("table", [chaos._MAX_TABLE, 7, 1])
def test_evaluate_equals_the_per_entry_loop(monkeypatch, table):
    # random kernels of orders 1-5, 11 and 20 on spaces of 1 to 6
    # coordinates, with columns of exact 0.0 and +-1.0 so that H_1 and H_2
    # factors are zero and terms are signed zeros; small tables cut the rows
    # into pieces of a few rows and of one row.  Bytes must agree, so -0.0
    # and +0.0 differ.
    monkeypatch.setattr(chaos, "_MAX_TABLE", table)
    rng = np.random.default_rng(20)
    for order in (*range(1, 6), 11, 20):
        for dim in range(1, 7):
            space = HilbertSpace(dim)
            entries = {}
            for _ in range(int(rng.integers(1, 60))):
                idx = tuple(sorted(int(i) for i in rng.integers(1, dim + 1, size=order)))
                entries[idx] = float(rng.normal()) * 10.0 ** int(rng.integers(-3, 4))
            element = ChaosElement(SymmetricTensor(space, order, entries))
            x = rng.standard_normal((23, dim))
            x[:, 0] = 0.0
            if dim > 1:
                x[:, 1] = rng.choice([1.0, -1.0], size=23)
            if dim > 2:
                x[::3, 2] = rng.choice([0.0, 1.0, -1.0], size=8)
            want = per_entry_evaluate(element, x)
            assert evaluate(element, x).tobytes() == want.tobytes()
            assert np.array([evaluate(element, row) for row in x]).tobytes() == want.tobytes()
            assert evaluate(element, x[:0]).shape == (0,)
    # every term -0.0 (H_1(0) and H_2(1) are zero, the values negative): the sum still starts from +0.0
    negative = ChaosElement(SymmetricTensor(HilbertSpace(2), 2, {(1, 1): -0.25, (1, 2): -0.5}))
    x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.5, 0.0]])
    assert evaluate(negative, x).tobytes() == per_entry_evaluate(negative, x).tobytes()
    assert not np.signbit(evaluate(negative, x)[:2]).any()


def test_dense_kernel_pieces_hold_the_cap_over_entries(monkeypatch):
    # the (entries + 1) x rows terms bound a piece, not the slot count: a
    # dense order-3 kernel of 200 entries on 10 coordinates (499 slots)
    # takes _MAX_TABLE // 201 = 81 rows per piece, and every _hermite call
    # reads one piece's rows
    widths = []

    def recording(count, x):
        widths.append(x.shape[-1])
        return _hermite(count, x)

    monkeypatch.setattr(chaos, "_hermite", recording)
    rng = np.random.default_rng(27)
    indices = list(itertools.combinations_with_replacement(range(1, 11), 3))
    entries = {indices[i]: float(rng.normal()) for i in rng.choice(len(indices), 200, replace=False)}
    element = ChaosElement(SymmetricTensor(HilbertSpace(10), 3, entries))
    x = rng.standard_normal((2000, 10))
    assert evaluate(element, x).tobytes() == per_entry_evaluate(element, x).tobytes()
    assert chaos._MAX_TABLE // 201 == 81
    pieces = [81] * 24 + [2000 - 24 * 81]
    factors = len(widths) // len(pieces)
    assert widths == [rows for rows in pieces for _ in range(factors)]


def test_isometry_by_quadrature():
    rng = np.random.default_rng(13)
    for trial in range(25):
        dim = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        sp = HilbertSpace(dim)
        F = rand_element(rng, sp, p)
        G = rand_element(rng, sp, q)
        points, weights = gauss_grid(dim)
        value = float(np.sum(weights * evaluate(F, points) * evaluate(G, points)))
        from wienerchaos.tensor import inner

        expected = math.factorial(p) * inner(F.kernel, G.kernel) if p == q else 0.0
        assert abs(value - expected) < 1e-9, (dim, p, q)


def test_centering_by_quadrature():
    rng = np.random.default_rng(14)
    for trial in range(10):
        dim = int(rng.integers(1, 4))
        F = rand_element(rng, HilbertSpace(dim), int(rng.integers(1, 4)))
        points, weights = gauss_grid(dim)
        assert abs(float(np.sum(weights * evaluate(F, points)))) < 1e-10


def test_product_formula_pathwise():
    # the product-formula oracle must reproduce the pointwise product
    # exactly, not just in distribution: evaluate both sides on random inputs.
    rng = np.random.default_rng(15)
    for trial in range(30):
        dim = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        sp = HilbertSpace(dim)
        F = rand_element(rng, sp, p)
        G = rand_element(rng, sp, q)
        product = multiply(F, G)
        x = rng.normal(size=(64, dim))
        left = evaluate(F, x) * evaluate(G, x)
        right = product.evaluate(x)
        assert np.allclose(left, right, rtol=1e-9, atol=1e-9), (dim, p, q)


def test_multiply_orders_and_expectation():
    sp = HilbertSpace(2)
    F = ChaosElement(SymmetricTensor(sp, 2, {(1, 2): 1.0}))
    product = multiply(F, F)
    assert set(product.components) <= {0, 2, 4}
    assert abs(product.expectation() - variance(F)) < 1e-14


def test_expansion_validation():
    sp = HilbertSpace(2)
    t1 = SymmetricTensor(sp, 1, {(1,): 1.0})
    with pytest.raises(ValidationError):
        ChaosExpansion(sp, {2: t1})
    with pytest.raises(ValidationError):
        ChaosExpansion(HilbertSpace(3), {1: t1})


@pytest.mark.parametrize(
    "components",
    [lambda t: {1: t, "a": t}, lambda t: {1: "x"}, lambda t: {1.0: t}, lambda t: {None: t, 1: t}, lambda t: {True: t}],
    ids=["string-order", "string-tensor", "float-order", "none-order", "bool-order"],
)
def test_expansion_rejects_malformed_components(components):
    # checked before the orders are sorted or a tensor's order is read
    sp = HilbertSpace(2)
    with pytest.raises(ValidationError):
        ChaosExpansion(sp, components(SymmetricTensor(sp, 1, {(1,): 1.0})))


def test_expansion_covariance_orthogonality():
    # Orders never mix: covariance sums k!<h_k, g_k> over shared orders.
    sp = HilbertSpace(2)
    e1 = ChaosExpansion(sp, {1: SymmetricTensor(sp, 1, {(1,): 2.0})})
    e2 = ChaosExpansion(sp, {2: SymmetricTensor(sp, 2, {(1, 1): 3.0})})
    assert e1.covariance(e2) == 0.0
    assert abs(e1.variance() - 4.0) < 1e-14
    both = ChaosExpansion(sp, {1: SymmetricTensor(sp, 1, {(1,): 2.0}),
                               2: SymmetricTensor(sp, 2, {(1, 1): 3.0})})
    assert abs(both.covariance(e2) - 2 * 9.0) < 1e-14


def test_isserlis_univariate_moments():
    sp = HilbertSpace(1)
    Z = ChaosElement(SymmetricTensor(sp, 1, {(1,): 1.0}))
    double_factorial = {2: 1, 4: 3, 6: 15, 8: 105}
    for power, expected in double_factorial.items():
        assert abs(isserlis_moment([Z] * power) - expected) < 1e-10
        assert isserlis_moment([Z] * (power - 1)) == 0.0


def test_isserlis_bivariate_closed_forms():
    sp = HilbertSpace(2)
    for rho in (0.0, 0.25, 0.8):
        X = ChaosElement(SymmetricTensor(sp, 1, {(1,): 1.0}))
        entries = {(1,): rho}
        if rho < 1.0:
            entries[(2,)] = math.sqrt(1 - rho**2)
        Y = ChaosElement(SymmetricTensor(sp, 1, entries))
        assert abs(isserlis_moment([X, X, Y, Y]) - (1 + 2 * rho**2)) < 1e-12
        assert abs(isserlis_moment([X, X, X, Y]) - 3 * rho) < 1e-12


def test_isserlis_matches_quadrature():
    rng = np.random.default_rng(16)
    for trial in range(15):
        dim = int(rng.integers(1, 4))
        sp = HilbertSpace(dim)
        elements = [rand_element(rng, sp, int(rng.integers(1, 3))) for _ in range(3)]
        points, weights = gauss_grid(dim)
        product = np.ones(points.shape[0])
        for element in elements:
            product = product * evaluate(element, points)
        expected = float(np.sum(weights * product))
        assert abs(isserlis_moment(elements) - expected) < 1e-9


def test_isserlis_guards():
    sp = HilbertSpace(7)
    big_dim = ChaosElement(SymmetricTensor(sp, 1, {(7,): 1.0}))
    with pytest.raises(ResourceLimitError):
        isserlis_moment([big_dim, big_dim])
    sp2 = HilbertSpace(2)
    el = ChaosElement(SymmetricTensor(sp2, 3, {(1, 1, 1): 1.0}))
    with pytest.raises(ResourceLimitError):
        isserlis_moment([el] * 5)  # total order 15 > 12


def test_cov_squares_known_values():
    # Var(Z^2) = 2 for the first chaos; the standardized one-coordinate
    # second chaos F = (x^2 - 1)/sqrt(2) has Var(F^2) = 14 and E[F^4] = 15.
    sp = HilbertSpace(2)
    Z = ChaosElement(SymmetricTensor(sp, 1, {(1,): 1.0}))
    assert abs(cov_squares(Z, Z) - 2.0) < 1e-12
    F = ChaosElement(SymmetricTensor(sp, 2, {(1, 1): 1 / math.sqrt(2)}))
    assert abs(variance(F) - 1.0) < 1e-14
    assert abs(cov_squares(F, F) - 14.0) < 1e-12
    assert abs(isserlis_moment([F, F, F, F]) - 15.0) < 1e-10


def test_cov_squares_correlated_gaussians():
    sp = HilbertSpace(2)
    for rho in (0.1, 0.5, 0.9):
        X = ChaosElement(SymmetricTensor(sp, 1, {(1,): 1.0}))
        Y = ChaosElement(SymmetricTensor(sp, 1, {(1,): rho, (2,): math.sqrt(1 - rho**2)}))
        assert abs(cov_squares(X, Y) - 2 * rho**2) < 1e-12


def test_cov_squares_matches_isserlis():
    rng = np.random.default_rng(17)
    for trial in range(60):
        dim = int(rng.integers(2, 5))
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        sp = HilbertSpace(dim)
        try:
            F = normalize(rand_element(rng, sp, p))
            G = normalize(rand_element(rng, sp, q))
        except DegenerateInputError:
            continue
        expected = isserlis_moment([F, F, G, G]) - isserlis_moment([F, F]) * isserlis_moment([G, G])
        assert abs(cov_squares(F, G) - expected) < 1e-9


def test_squared_contraction_inequality():
    # max_r ||f (x)_r g||^2 <= Cov(F^2, G^2) on standardized pairs.  The
    # unsquared comparison fails (see the counterexample below), so the
    # squared form is the invariant the code relies on.
    rng = np.random.default_rng(18)
    for trial in range(150):
        dim = int(rng.integers(2, 5))
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        sp = HilbertSpace(dim)
        try:
            F = normalize(rand_element(rng, sp, p))
            G = normalize(rand_element(rng, sp, q))
        except DegenerateInputError:
            continue
        cov2, norms = cov_squares_and_norms(F, G)
        assert max(norms) ** 2 <= cov2 + 1e-9


def test_unsquared_comparison_has_counterexample():
    # Correlated Gaussians at rho = 0.1: max contraction norm 0.1, squared
    # covariance 0.02.  The norm itself is NOT dominated; its square is.
    sp = HilbertSpace(2)
    rho = 0.1
    X = ChaosElement(SymmetricTensor(sp, 1, {(1,): 1.0}))
    Y = ChaosElement(SymmetricTensor(sp, 1, {(1,): rho, (2,): math.sqrt(1 - rho**2)}))
    cq, norms = cov_squares_and_norms(X, Y)
    top = max(norms)
    assert top > cq
    assert top**2 <= cq + 1e-15


def test_cov_squares_nonnegative():
    rng = np.random.default_rng(19)
    for trial in range(80):
        dim = int(rng.integers(2, 5))
        sp = HilbertSpace(dim)
        F = rand_element(rng, sp, int(rng.integers(1, 4)))
        G = rand_element(rng, sp, int(rng.integers(1, 4)))
        assert cov_squares(F, G) >= -1e-12


def test_contraction_norms_length_and_zero_case():
    sp = HilbertSpace(4)
    F = ChaosElement(SymmetricTensor(sp, 3, {(1, 1, 2): 1.0}))
    G = ChaosElement(SymmetricTensor(sp, 2, {(3, 4): 1.0}))
    norms = cov_squares_and_norms(F, G)[1]
    assert len(norms) == 2
    assert norms == [0.0, 0.0]


def test_variance_and_normalize():
    sp = HilbertSpace(2)
    F = ChaosElement(SymmetricTensor(sp, 2, {(1, 2): 3.0}))
    # Var = q! ||f||^2 = 2 * (2 * 9)
    assert abs(variance(F) - 36.0) < 1e-12
    unit = normalize(F)
    assert abs(variance(unit) - 1.0) < 1e-12
    zero = ChaosElement(SymmetricTensor(sp, 1, {(1,): 0.5})).kernel.scaled(0.0)
    with pytest.raises(DegenerateInputError):
        normalize(ChaosElement(zero))


def test_normalize_leaves_a_standardized_element_alone():
    # rescaling by 1/sqrt(1 +- eps) would move last bits, so a standardized element comes back itself
    rng = np.random.default_rng(0)
    sp = HilbertSpace(6)
    for k in range(200):
        once = normalize(rand_element(rng, sp, 1 + k % 3))
        twice = normalize(once)
        assert twice is once
        assert twice.kernel.val.tobytes() == once.kernel.val.tobytes()


def test_chaos_vector_names_normalize_for_an_element_off_unit_variance():
    sp = HilbertSpace(2)
    F = ChaosElement(SymmetricTensor(sp, 2, {(1, 2): 3.0}))  # variance 36
    with pytest.raises(ValidationError, match=r"group 1 element 1 is not standardized: variance 36.*normalize\(\)"):
        ChaosVector([[F], [normalize(F)]])


def test_normalize_refuses_a_variance_that_overflows():
    # Var = ||f||^2 = 1e310 is inf in doubles, and 1/sqrt(inf) = 0 would drop every entry
    F = ChaosElement(SymmetricTensor(HilbertSpace(1), 1, {(1,): 1e155}))
    assert variance(F) == math.inf
    with pytest.raises(DegenerateInputError, match="overflows to inf"):
        normalize(F)


def test_element_needs_a_symmetric_tensor():
    with pytest.raises(ValidationError, match="kernel must be a SymmetricTensor, got dict"):
        ChaosElement({(1,): 1.0})


def test_element_rejects_order_zero():
    sp = HilbertSpace(2)
    with pytest.raises(ValidationError):
        ChaosElement(SymmetricTensor(sp, 0, {(): 1.0}))


def test_cov_squares_matches_product_formula_oracle():
    # The cross-contraction identity against the expansion of both squares
    # with the multiply oracle, on random pairs of orders up to 4 (with (4, 2) forced).
    rng = np.random.default_rng(31)
    orders = [(4, 2)] * 10 + [tuple(int(o) for o in rng.integers(1, 5, size=2)) for _ in range(50)]
    for p, q in orders:
        sp = HilbertSpace(int(rng.integers(2, 6)))
        F = rand_element(rng, sp, p, nnz=int(rng.integers(1, 6)))
        G = rand_element(rng, sp, q, nnz=int(rng.integers(1, 6)))
        expected = multiply(F, F).covariance(multiply(G, G))
        assert abs(cov_squares(F, G) - expected) <= 1e-12 * abs(expected)


def test_second_chaos_closed_form_from_dense_matrices():
    # For F = I_2(f), G = I_2(g) with kernel matrices A, B:
    # Cov(F^2, G^2) = 32 ||AB||_F^2 + 16 tr((AB)^2) + 8 (tr AB)^2,
    # ||f (x)_1 g|| = ||AB||_F and ||f (x)_2 g|| = |tr AB|.  N = 30 is past
    # the Isserlis oracle's dimension guard.
    rng = np.random.default_rng(32)
    sp = HilbertSpace(30)
    for _ in range(5):
        F = rand_element(rng, sp, 2, nnz=60)
        G = rand_element(rng, sp, 2, nnz=60)
        A, B = to_dense(F.kernel), to_dense(G.kernel)
        AB = A @ B
        frob2, tr = float(np.sum(AB * AB)), float(np.trace(AB))
        expected = 32 * frob2 + 16 * float(np.trace(AB @ AB)) + 8 * tr**2
        cov2, (one, two) = cov_squares_and_norms(F, G)
        assert abs(cov2 - expected) <= 1e-12 * expected
        assert abs(one - math.sqrt(frob2)) <= 1e-12 * math.sqrt(frob2)
        assert abs(two - abs(tr)) <= 1e-12 * abs(tr)


@pytest.mark.parametrize("s", [1e-12, 1e-8, 1e-4, 1.0, 1e3, 1e6])
def test_cov_squares_and_norms_are_homogeneous(s):
    # Cov(F^2, G^2) is of degree 4 and each contraction norm of degree 2 in
    # the kernels; no small coefficient may be truncated along the way.
    rng = np.random.default_rng(33)
    for _ in range(20):
        sp = HilbertSpace(int(rng.integers(2, 5)))
        F = rand_element(rng, sp, int(rng.integers(1, 4)))
        G = rand_element(rng, sp, int(rng.integers(1, 4)))
        Fs, Gs = ChaosElement(F.kernel.scaled(s)), ChaosElement(G.kernel.scaled(s))
        cov, norms = cov_squares_and_norms(F, G)
        cov_s, norms_s = cov_squares_and_norms(Fs, Gs)
        assert abs(cov_s - s**4 * cov) <= 1e-12 * s**4 * abs(cov)
        for scaled, norm in zip(norms_s, norms):
            assert abs(scaled - s**2 * norm) <= 1e-12 * s**2 * norm


def test_small_kernels_are_not_truncated():
    # A = s [[1,2,0],[2,0,0],[0,0,0]], B = s [[0,1,0],[1,0,1],[0,1,0]]:
    # ||AB||_F^2 = 13 s^4, tr AB = 4 s^2, tr((AB)^2) = 8 s^4, so the closed
    # form above gives 672 s^4, far below any absolute cutoff at s = 1e-8.
    sp = HilbertSpace(3)
    for s in (1e-8, 1.0):
        F = ChaosElement(SymmetricTensor(sp, 2, {(1, 1): s, (1, 2): 2 * s}))
        G = ChaosElement(SymmetricTensor(sp, 2, {(1, 2): s, (2, 3): s}))
        cov2, (one, two) = cov_squares_and_norms(F, G)
        assert abs(cov2 - 672 * s**4) <= 1e-12 * 672 * s**4
        assert abs(one - math.sqrt(13) * s**2) <= 1e-12 * s**2
        assert abs(two - 4 * s**2) <= 1e-12 * s**2
