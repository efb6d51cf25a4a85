"""Multiple Wiener-Ito integrals over a finite-dimensional Gaussian space.

An order-q element F = I_q(f) is identified by its symmetric kernel f.  On
R^N with independent standard normals x_1..x_N attached to the coordinate
basis, the integral evaluates pathwise as

    I_q(f)(x) = sum over stored indices m of q! f[m] prod_i H_{a_i}(x_i),

with a_i the occupation counts of m and H the 1/q!-normalized Hermite
polynomials.  In particular I_q(h^(x q)) = q! H_q(<h, x>) for unit h, and
E[I_p(f) I_q(g)] = delta_pq q! <f, g>.

The product of two integrals expands as

    I_p(f) I_q(g) = sum_{r=0}^{p^q} r! C(p,r) C(q,r) I_{p+q-2r}(f (x~)_r g).

Exact squared covariances come from the cross contractions f (x)_r g alone
(see cov_squares), so neither order-2p square is ever formed.  The
identity is validated in the test suite against multiply and against the
independent Isserlis-style moment oracle below rather than taken on faith.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np

from .exceptions import DegenerateInputError, ResourceLimitError, ValidationError, _integer
from .hermite import hermite_orders
from .tensor import HilbertSpace, SymmetricTensor, _float_ops, _run_starts, contract, contract_sym, inner, occupation

# Guards for the brute-force moment oracle.
ORACLE_MAX_TOTAL_ORDER = 12
ORACLE_MAX_DIMENSION = 6

# Standardization check width used by vector constructors.
STANDARDIZED_TOL = 1e-10


class ChaosElement:
    """A single integral I_q(f), q >= 1; the kernel fixes the order."""

    __slots__ = ("order", "kernel", "_prep")

    def __init__(self, kernel: SymmetricTensor):
        if not isinstance(kernel, SymmetricTensor):
            raise ValidationError(f"kernel must be a SymmetricTensor, got {type(kernel).__name__}")
        if kernel.order < 1:
            raise ValidationError("chaos elements need order >= 1; constants belong in ChaosExpansion")
        self.order = kernel.order
        self.kernel = kernel
        self._prep = None

    @property
    def space(self) -> HilbertSpace:
        return self.kernel.space

    def __repr__(self) -> str:
        return f"ChaosElement(order={self.order}, N={self.space.dimension}, nnz={len(self.kernel.val)})"

    @_float_ops
    def prepared(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Flat (coords, counts, offsets, coeffs) arrays for batch evaluation.

        For stored entry e, coeffs[e] is q! times its kernel value, and slots
        offsets[e]:offsets[e+1] of (coords, counts) hold its 0-based
        coordinates and their occupation counts.  The arrays are cached in
        one assignment; threads that call this at once may each build them,
        equal in every entry, and one copy is kept.
        """
        if self._prep is None:
            idx = self.kernel.idx
            starts = _run_starts(idx)
            self._prep = (
                idx[starts] - 1,
                np.diff(np.flatnonzero(starts), append=idx.size),
                np.concatenate(([0], np.cumsum(starts.sum(axis=1)))),
                float(math.factorial(self.order)) * self.kernel.val,
            )
        return self._prep


class ChaosExpansion:
    """Finite sum of integrals of distinct orders plus a constant term.

    components maps order k to the order-k kernel; k = 0 holds the constant
    as an order-0 tensor.  Orders absent from the map are zero.
    """

    __slots__ = ("space", "components")

    def __init__(self, space: HilbertSpace, components: dict[int, SymmetricTensor]):
        checked = {}
        for order, tensor in components.items():
            order = _integer(order, "component order")
            if not isinstance(tensor, SymmetricTensor):
                raise ValidationError(f"component at order {order} is a {type(tensor).__name__}, not a SymmetricTensor")
            if tensor.order != order:
                raise ValidationError(f"component at order {order} has tensor order {tensor.order}")
            if tensor.space != space:
                raise ValidationError("all components must share the expansion space")
            checked[order] = tensor
        self.space = space
        self.components = {order: checked[order] for order in sorted(checked) if len(checked[order].val)}

    def __repr__(self) -> str:
        return f"ChaosExpansion(N={self.space.dimension}, orders={sorted(self.components)})"

    def expectation(self) -> float:
        zero = self.components.get(0)
        return zero.entries.get((), 0.0) if zero is not None else 0.0

    def covariance(self, other: "ChaosExpansion") -> float:
        """Sum over shared orders k >= 1 of k! <h_k, g_k>."""
        if self.space != other.space:
            raise ValidationError("covariance requires expansions over the same space")
        total = 0.0
        for order in sorted(self.components.keys() & other.components.keys()):
            if order == 0:
                continue
            total += math.factorial(order) * inner(self.components[order], other.components[order])
        return total

    def variance(self) -> float:
        return self.covariance(self)


def evaluate(obj: Union[ChaosElement, ChaosExpansion], x: np.ndarray) -> Union[float, np.ndarray]:
    """Pathwise value(s) of an element or expansion.

    Each sample's value is sum over stored entries of q! f[m] prod_i
    H_{a_i}(x_i), accumulated in stored entry order with the factors taken
    left to right, so equal inputs give bitwise equal outputs.

    Parameters
    ----------
    x : ndarray
        One sample of shape (N,) for a scalar result, or a batch of shape
        (count, N) for per-sample values.
    """
    if not isinstance(obj, (ChaosElement, ChaosExpansion)):
        raise ValidationError(f"expected a chaos element or expansion, got {type(obj).__name__}")
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != obj.space.dimension:
        raise ValidationError(f"sample array shape {np.shape(x)} does not match dimension {obj.space.dimension}")
    if isinstance(obj, ChaosElement):
        values = _evaluate_prepared(*obj.prepared(), arr)
    else:
        values = np.full(arr.shape[0], obj.expectation())
        for order in sorted(obj.components):
            if order == 0:
                continue
            values = values + _evaluate_prepared(*ChaosElement(obj.components[order]).prepared(), arr)
    return float(values[0]) if single else values


def _evaluate_prepared(coords, counts, offsets, coeffs, x: np.ndarray) -> np.ndarray:
    out = np.zeros(x.shape[0])
    for e in range(coeffs.shape[0]):
        term = coeffs[e]
        for s in range(offsets[e], offsets[e + 1]):
            term = term * hermite_orders(int(counts[s]), x[:, coords[s]])[-1]
        out = out + term
    return out


def variance(element: ChaosElement) -> float:
    """Var I_q(f) = q! ||f||^2."""
    return math.factorial(element.order) * inner(element.kernel, element.kernel)


def normalize(element: ChaosElement) -> ChaosElement:
    """Rescale the kernel so the element has unit variance."""
    var = variance(element)
    if var <= 0.0:
        raise DegenerateInputError("cannot standardize an element with zero kernel")
    return ChaosElement(element.kernel.scaled(1.0 / math.sqrt(var)))


def multiply(left: ChaosElement, right: ChaosElement) -> ChaosExpansion:
    """Expand I_p(f) I_q(g) with the product formula.

    Returns the expansion sum_r r! C(p,r) C(q,r) I_{p+q-2r}(f (x~)_r g); the
    order-0 component equals delta_pq q! <f, g>.
    """
    if left.space != right.space:
        raise ValidationError("product requires elements over the same space")
    p, q = left.order, right.order
    components: dict[int, SymmetricTensor] = {}
    for r in range(min(p, q) + 1):
        coeff = math.factorial(r) * math.comb(p, r) * math.comb(q, r)
        components[p + q - 2 * r] = contract_sym(left.kernel, right.kernel, r).scaled(float(coeff))
    return ChaosExpansion(left.space, components)


def cov_squares(left: ChaosElement, right: ChaosElement) -> float:
    """Exact Cov(F^2, G^2) from the cross contractions of the two kernels.

    For F = I_p(f) and G = I_q(g),

        Cov(F^2, G^2) = sum_{r=1}^{p^q} C(p,r) C(q,r) [ p! q! ||f (x)_r g||^2
                        + r!^2 C(p,r) C(q,r) (p+q-2r)! ||f (x~)_r g||^2 ].

    It follows from E[F^2 G^2] = E[(FG)^2], the product formula for FG, and
    (p+q)! ||f (x~) g||^2 = p! q! sum_{r>=0} C(p,r) C(q,r) ||f (x)_r g||^2,
    whose r = 0 term is E[F^2] E[G^2] (Nourdin-Rosinski, Ann. Probab. 2014).
    Every term is nonnegative, which gives max_r ||f (x)_r g||^2 <=
    Cov(F^2, G^2).  One contraction per r feeds both terms; the order-2p
    square multiply(F, F) is never built.
    """
    return cov_squares_and_norms(left, right)[0]


def cov_squares_and_norms(left: ChaosElement, right: ChaosElement) -> tuple[float, list[float]]:
    """cov_squares and the norms ||f (x)_r g|| of the unsymmetrized contractions, r = 1..min(p, q).

    One contraction per r feeds both the covariance and the r-th norm.
    """
    if left.space != right.space:
        raise ValidationError("squared covariance requires elements over the same space")
    p, q = left.order, right.order
    total = 0.0
    norms = []
    for r in range(1, min(p, q) + 1):
        norm, sym = contract(left.kernel, right.kernel, r).norm_and_symmetrized()
        pairs = math.comb(p, r) * math.comb(q, r)
        total += pairs * (
            math.factorial(p) * math.factorial(q) * norm**2
            + math.factorial(r) ** 2 * pairs * math.factorial(p + q - 2 * r) * sym.norm() ** 2
        )
        norms.append(norm)
    return total, norms


# Monomial coefficients of H_a: H_a(x) = sum_m (-1)^m x^(a-2m) / (m! 2^m (a-2m)!).
def _hermite_monomials(order: int) -> dict[int, float]:
    out: dict[int, float] = {}
    for m in range(order // 2 + 1):
        power = order - 2 * m
        out[power] = (-1.0) ** m / (math.factorial(m) * 2.0**m * math.factorial(power))
    return out


def _poly_multiply_univariate(
    poly: dict[tuple[int, ...], float], axis: int, uni: dict[int, float]
) -> dict[tuple[int, ...], float]:
    out: dict[tuple[int, ...], float] = {}
    for exps, coeff in poly.items():
        for power, c in uni.items():
            key = exps[:axis] + (exps[axis] + power,) + exps[axis + 1 :]
            out[key] = out.get(key, 0.0) + coeff * c
    return out


def _element_polynomial(element: ChaosElement) -> dict[tuple[int, ...], float]:
    n = element.space.dimension
    scale = float(math.factorial(element.order))
    total: dict[tuple[int, ...], float] = {}
    for index, value in element.kernel.items():
        poly = {(0,) * n: scale * value}
        for coord, count in occupation(index):
            poly = _poly_multiply_univariate(poly, coord - 1, _hermite_monomials(count))
        for key, coeff in poly.items():
            total[key] = total.get(key, 0.0) + coeff
    return total


def isserlis_moment(elements: Sequence[ChaosElement]) -> float:
    """Brute-force E[prod_j F_j] through raw Gaussian moments.

    Each element is expanded into a polynomial in the coordinates, the
    polynomials are multiplied, and each monomial takes the product of
    univariate moments E[Z^k] (zero for odd k, (k-1)!! for even k, which is
    the pairing count of the Isserlis theorem).  Independent of the product
    formula, so the two can check each other.

    Guards: sum of orders <= ORACLE_MAX_TOTAL_ORDER and dimension
    <= ORACLE_MAX_DIMENSION; larger inputs raise ResourceLimitError.
    """
    if not elements:
        raise ValidationError("isserlis_moment requires at least one element")
    space = elements[0].space
    if any(e.space != space for e in elements):
        raise ValidationError("all elements must share one space")
    total_order = sum(e.order for e in elements)
    if total_order > ORACLE_MAX_TOTAL_ORDER:
        raise ResourceLimitError(
            f"total order {total_order} exceeds the oracle guard {ORACLE_MAX_TOTAL_ORDER}"
        )
    if space.dimension > ORACLE_MAX_DIMENSION:
        raise ResourceLimitError(
            f"dimension {space.dimension} exceeds the oracle guard {ORACLE_MAX_DIMENSION}"
        )
    product: dict[tuple[int, ...], float] = {(0,) * space.dimension: 1.0}
    for element in elements:
        poly = _element_polynomial(element)
        out: dict[tuple[int, ...], float] = {}
        for e1, c1 in product.items():
            for e2, c2 in poly.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0.0) + c1 * c2
        product = out
    total = 0.0
    for exps in sorted(product):
        coeff = product[exps]
        moment = 1.0
        for e in exps:
            if e % 2 == 1:
                moment = 0.0
                break
            moment *= float(math.factorial(e) // (2 ** (e // 2) * math.factorial(e // 2)))
        total += coeff * moment
    return total
