"""Reference implementations that the tests check the package against.

None of the commands, the exact path or the sampled path uses them, so they
live with the tests, and they read only public wienerchaos names:

- ChaosExpansion and multiply expand a product of two integrals with the
  product formula, order by order (evaluated pathwise with evaluate);
- isserlis_moment computes E[prod_j F_j] by brute force through raw
  Gaussian moments, sharing no code with the contraction calculus;
- to_dense materializes a sparse tensor as its full N**q array.
"""

import collections
import itertools
import math

import numpy as np

from wienerchaos import (
    ChaosElement,
    RawTensor,
    ResourceLimitError,
    SymmetricTensor,
    ValidationError,
    contract,
    evaluate,
    inner,
    symmetrize,
)

# Guards for the brute-force moment oracle.
ORACLE_MAX_TOTAL_ORDER = 12
ORACLE_MAX_DIMENSION = 6

# Largest dense form to_dense builds, in entries of the full N**q array.
DENSE_LIMIT = 1 << 24


class ChaosExpansion:
    """A finite sum of integrals of distinct orders: components[k] is the order-k kernel, k = 0 the constant."""

    def __init__(self, space, components):
        # checked before the orders are sorted or a tensor's order is read
        for order, tensor in components.items():
            if isinstance(order, bool) or not isinstance(order, (int, np.integer)):
                raise ValidationError(f"component order must be an integer, got {order!r}")
            if not isinstance(tensor, SymmetricTensor):
                raise ValidationError(f"component at order {order} is a {type(tensor).__name__}, not a SymmetricTensor")
            if tensor.order != order or tensor.space != space:
                raise ValidationError(f"component at order {order} has another order or space than the expansion")
        self.space = space
        self.components = {order: components[order] for order in sorted(components) if len(components[order].val)}

    def expectation(self):
        zero = self.components.get(0)
        return zero.entries.get((), 0.0) if zero is not None else 0.0

    def covariance(self, other):
        """Sum over shared orders k >= 1 of k! <h_k, g_k>."""
        shared = sorted((self.components.keys() & other.components.keys()) - {0})
        return sum(math.factorial(k) * inner(self.components[k], other.components[k]) for k in shared)

    def variance(self):
        return self.covariance(self)

    def evaluate(self, x):
        """Per-sample values on a batch x of shape (count, N): the constant plus each component's integral."""
        values = np.full(len(x), self.expectation())
        for order, kernel in self.components.items():
            if order:
                values = values + evaluate(ChaosElement(kernel), x)
        return values


def multiply(left, right):
    """I_p(f) I_q(g) = sum_r r! C(p,r) C(q,r) I_{p+q-2r}(f (x~)_r g); the order-0 part is delta_pq q! <f, g>."""
    if left.space != right.space:
        raise ValidationError("product requires elements over the same space")
    p, q = left.order, right.order
    components = {}
    for r in range(min(p, q) + 1):
        coeff = math.factorial(r) * math.comb(p, r) * math.comb(q, r)
        components[p + q - 2 * r] = symmetrize(contract(left.kernel, right.kernel, r)).scaled(float(coeff))
    return ChaosExpansion(left.space, components)


def _hermite_monomials(order):
    """Monomial coefficients of H_a: H_a(x) = sum_m (-1)^m x^(a-2m) / (m! 2^m (a-2m)!)."""
    return {
        order - 2 * m: (-1.0) ** m / (math.factorial(m) * 2.0**m * math.factorial(order - 2 * m))
        for m in range(order // 2 + 1)
    }


def _poly_product(left, right):
    """Product of two polynomials held as {exponent tuple: coefficient}."""
    out = collections.defaultdict(float)
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            out[tuple(a + b for a, b in zip(e1, e2))] += c1 * c2
    return out


def _element_polynomial(element):
    """I_q(f) as a polynomial in the coordinates: sum over entries of q! f[m] prod_i H_{a_i}(x_i)."""
    n = element.space.dimension
    total = collections.defaultdict(float)
    for index, value in element.kernel.items():
        poly = {(0,) * n: math.factorial(element.order) * value}
        for coord, count in collections.Counter(index).items():
            monomials = _hermite_monomials(count).items()
            poly = _poly_product(poly, {tuple(k * (i == coord) for i in range(1, n + 1)): c for k, c in monomials})
        for key, coeff in poly.items():
            total[key] += coeff
    return total


def isserlis_moment(elements):
    """Brute-force E[prod_j F_j] through raw Gaussian moments.

    Each element is expanded into a polynomial in the coordinates, the
    polynomials are multiplied, and each monomial takes the product of
    univariate moments E[Z^k] (zero for odd k, (k-1)!! for even k, which is
    the pairing count of the Isserlis theorem).  Guards: sum of orders <=
    ORACLE_MAX_TOTAL_ORDER and dimension <= ORACLE_MAX_DIMENSION; larger
    inputs raise ResourceLimitError.
    """
    if not elements:
        raise ValidationError("isserlis_moment requires at least one element")
    space = elements[0].space
    if any(e.space != space for e in elements):
        raise ValidationError("all elements must share one space")
    total_order = sum(e.order for e in elements)
    if total_order > ORACLE_MAX_TOTAL_ORDER:
        raise ResourceLimitError(f"total order {total_order} exceeds the oracle guard {ORACLE_MAX_TOTAL_ORDER}")
    if space.dimension > ORACLE_MAX_DIMENSION:
        raise ResourceLimitError(f"dimension {space.dimension} exceeds the oracle guard {ORACLE_MAX_DIMENSION}")
    product = {(0,) * space.dimension: 1.0}
    for element in elements:
        product = _poly_product(product, _element_polynomial(element))
    total = 0.0
    for exps in sorted(product):
        if all(e % 2 == 0 for e in exps):  # E[Z^e] = (e - 1)!!
            total += product[exps] * math.prod(float(math.prod(range(e - 1, 0, -2))) for e in exps)
    return total


def to_dense(tensor):
    """The full N**q array of a SymmetricTensor or RawTensor, each entry copied to every arrangement of its index."""
    n, order = tensor.space.dimension, tensor.order
    if n**order > DENSE_LIMIT:
        raise ResourceLimitError(f"dense form of size {n}**{order} exceeds the limit")
    out = np.zeros((n,) * order)
    for key, value in tensor.entries.items():
        sides = key if isinstance(tensor, RawTensor) else (key,)
        for parts in itertools.product(*(set(itertools.permutations(side)) for side in sides)):
            out[tuple(i - 1 for part in parts for i in part)] = value
    return out
