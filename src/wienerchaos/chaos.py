"""Multiple Wiener-Ito integrals over a finite-dimensional Gaussian space.

An order-q element F = I_q(f) is identified by its symmetric kernel f.  On
R^N with independent standard normals x_1..x_N attached to the coordinate
basis, the integral evaluates pathwise as

    I_q(f)(x) = sum over stored indices m of q! f[m] prod_i H_{a_i}(x_i),

with a_i the occupation counts of m and H the 1/q!-normalized Hermite
polynomials.  In particular I_q(h^(x q)) = q! H_q(<h, x>) for unit h, and
E[I_p(f) I_q(g)] = delta_pq q! <f, g>.

Exact squared covariances come from the cross contractions f (x)_r g alone
(see cov_squares), so neither order-2p square is ever formed.  The test
suite checks the identity against the product-formula expansion and a
brute-force Isserlis moment, both kept with the tests (tests/oracles.py).
"""

from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np

from .exceptions import DegenerateInputError, ValidationError, _expect
from .hermite import _hermite
from .tensor import HilbertSpace, SymmetricTensor, _float_ops, _run_starts, contract, inner

# Largest |Var - 1| that normalize leaves alone and ChaosVector accepts.
STANDARDIZED_TOL = 1e-10

# Largest (entries + 1) x rows terms array evaluate holds for one piece of sample rows, in doubles
# (128 KiB): a piece has _MAX_TABLE // (entries + 1) rows, and more entries go a row at a time.
_MAX_TABLE = 1 << 14


class ChaosElement:
    """A single integral I_q(f), q >= 1; the kernel fixes the order.  Caches its variance and one evaluation layout."""

    __slots__ = ("order", "kernel", "_layout", "_var")

    def __init__(self, kernel: SymmetricTensor):
        if not isinstance(kernel, SymmetricTensor):
            raise ValidationError(f"kernel must be a SymmetricTensor, got {type(kernel).__name__}")
        if kernel.order < 1:
            raise ValidationError("chaos elements need order >= 1; an order-0 kernel is a constant")
        self.order = kernel.order
        self.kernel = kernel
        self._layout = self._var = None

    @property
    def space(self) -> HilbertSpace:
        return self.kernel.space

    def __repr__(self) -> str:
        return f"ChaosElement(order={self.order}, N={self.space.dimension}, nnz={len(self.kernel.val)})"

    @_float_ops
    def _evaluation_layout(self) -> tuple[np.ndarray, list]:
        """(coeffs, factors) for evaluate, built from the kernel rows once.

        coeffs[e] is q! times stored entry e's value.  A slot is a run of equal coordinates in an entry's
        index.  One factor (0-based coordinates, count, term rows) per slot position and occupation count,
        ordered by position and then count, takes each entry's factors left to right; entry e is term row
        e + 1, and consecutive rows are a slice.  The layout is cached in one assignment; threads that
        build it at once build equal copies, and one is kept.
        """
        if self._layout is None:
            starts = _run_starts(self.kernel.idx)
            counts = np.diff(np.flatnonzero(starts), append=starts.size)
            # factors counted by np.bincount: the first np.unique call in a process raises peak RSS by 1.6 MB
            key = (np.cumsum(starts, axis=1)[starts] - 1) * (self.order + 1) + counts
            slot = np.argsort(key, kind="stable")  # by factor, each factor's slots in entry order
            entry, coords = np.nonzero(starts)[0][slot] + 1, self.kernel.idx[starts][slot] - 1
            sizes = np.bincount(key)
            bounds = np.cumsum(sizes[sizes > 0]).tolist()
            factors = []
            for factor, low, high in zip(np.flatnonzero(sizes).tolist(), [0, *bounds], bounds):
                rows = entry[low:high]
                if rows[-1] - rows[0] == high - low - 1:  # consecutive, as in every diagonal kernel
                    rows = slice(rows[0], rows[-1] + 1)
                factors.append((coords[low:high], factor % (self.order + 1), rows))
            self._layout = float(math.factorial(self.order)) * self.kernel.val, factors
        return self._layout


def evaluate(element: ChaosElement, x: np.ndarray) -> Union[float, np.ndarray]:
    """Pathwise value(s) of an element: all entries at once, on row pieces of at most _MAX_TABLE terms.

    Each sample's value is sum over stored entries of q! f[m] prod_i H_{a_i}(x_i).  Every piece reads
    the element's one cached layout (_evaluation_layout): it fills the (entries + 1) x rows terms with
    the coefficients under a row 0 of 0.0, multiplies each factor's Hermite values into that factor's
    rows, and adds the terms in one axis-0 reduction.  That reduction adds rows in order, so each
    sample is 0.0 + t_0 + t_1 + ... in stored entry order and equal inputs give bitwise equal
    outputs; a spare zero column keeps a one-row piece from being summed pairwise.

    Parameters
    ----------
    x : ndarray
        One sample of shape (N,) for a scalar result, or a batch of shape
        (count, N) for per-sample values.
    """
    _expect(ChaosElement, "a chaos element", element)
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != element.space.dimension:
        raise ValidationError(f"sample array shape {np.shape(x)} does not match dimension {element.space.dimension}")
    coeffs, factors = element._evaluation_layout()
    out = np.empty(arr.shape[0])
    step = max(1, _MAX_TABLE // (coeffs.size + 1))
    for start in range(0, arr.shape[0], step):
        piece = arr[start : start + step]
        rows = len(piece)
        terms = np.zeros((coeffs.size + 1, rows + 1))
        terms[1:, :rows] = coeffs[:, None]
        for columns, count, term_rows in factors:
            terms[term_rows, :rows] *= _hermite(count, piece.T[columns])
        out[start : start + rows] = np.add.reduce(terms, axis=0)[:rows]
    return float(out[0]) if single else out


def variance(element: ChaosElement) -> float:
    """Var I_q(f) = q! ||f||^2, computed on the first call and kept on the element."""
    if element._var is None:
        element._var = math.factorial(element.order) * inner(element.kernel, element.kernel)
    return element._var


def normalize(element: ChaosElement) -> ChaosElement:
    """The element itself if |Var - 1| <= STANDARDIZED_TOL, so its bits stay; else rescaled by 1/sqrt(Var).

    A zero variance, or one that overflows to inf (1/sqrt(inf) = 0), raises DegenerateInputError.
    """
    var = variance(element)
    if var <= 0.0:
        raise DegenerateInputError("kernel has zero norm")
    if not math.isfinite(var):
        raise DegenerateInputError(f"kernel variance overflows to {var}")
    return element if abs(var - 1.0) <= STANDARDIZED_TOL else ChaosElement(element.kernel.scaled(1.0 / math.sqrt(var)))


def cov_squares(left: ChaosElement, right: ChaosElement) -> float:
    """Exact Cov(F^2, G^2) from the cross contractions of the two kernels.

    For F = I_p(f) and G = I_q(g),

        Cov(F^2, G^2) = sum_{r=1}^{p^q} C(p,r) C(q,r) [ p! q! ||f (x)_r g||^2
                        + r!^2 C(p,r) C(q,r) (p+q-2r)! ||f (x~)_r g||^2 ].

    It follows from E[F^2 G^2] = E[(FG)^2], the product formula
    FG = sum_{r=0}^{p^q} r! C(p,r) C(q,r) I_{p+q-2r}(f (x~)_r g), and
    (p+q)! ||f (x~) g||^2 = p! q! sum_{r>=0} C(p,r) C(q,r) ||f (x)_r g||^2,
    whose r = 0 term is E[F^2] E[G^2] (Nourdin-Rosinski, Ann. Probab. 2014).
    Every term is nonnegative, which gives max_r ||f (x)_r g||^2 <=
    Cov(F^2, G^2).  One contraction per r feeds both terms; no order-2p
    square F^2 is ever expanded.
    """
    return cov_squares_and_norms(left, right)[0]


def cov_squares_and_norms(left: ChaosElement, right: ChaosElement) -> tuple[float, list[float]]:
    """cov_squares and the norms ||f (x)_r g|| of the unsymmetrized contractions, r = 1..min(p, q).

    One contraction per r feeds both the covariance and the r-th norm.
    """
    _expect(ChaosElement, "a chaos element", left, right)
    if left.space != right.space:
        raise ValidationError("squared covariance requires elements over the same space")
    norms, sym_norms = [], []
    for r in range(1, min(left.order, right.order) + 1):
        norm, sym = contract(left.kernel, right.kernel, r).norm_and_symmetrized()
        norms.append(norm)
        sym_norms.append(sym.norm())
    return _cov_from_norms(left.order, right.order, norms, sym_norms), norms


def _cov_from_norms(p: int, q: int, norms: Sequence[float], sym_norms: Sequence[float]) -> float:
    """The cov_squares sum from ||f (x)_r g|| and ||f (x~)_r g||, r = 1..min(p, q), added from 0.0 in r order."""
    total = 0.0
    for r, (norm, sym_norm) in enumerate(zip(norms, sym_norms), 1):
        pairs = math.comb(p, r) * math.comb(q, r)
        total += pairs * (
            math.factorial(p) * math.factorial(q) * norm**2
            + math.factorial(r) ** 2 * pairs * math.factorial(p + q - 2 * r) * sym_norm**2
        )
    return total
