"""Dependence diagnostics for vectors of chaotic components.

The exact side computes every pairwise Cov(F_i^2, F_j^2) and every cross
contraction norm; the vanishing of either family across groups is the
asymptotic-independence criterion, and the two witness scales are tied by

    max_r ||f (x)_r g||^2  <=  Cov(F^2, G^2),

which follows termwise from the cross-contraction identity for the
covariance (see chaos.cov_squares): every term there is a nonnegative
multiple of ||f (x)_r g||^2 or ||f (x~)_r g||^2 with r >= 1, and the exact
side never forms a square F_i^2.  The empirical side estimates the
factorization gap |E prod psi_j(block_j) - prod E psi_j(block_j)| over a
dictionary of test functions with certified derivative bounds, and the
ratio probe divides the gap by the dictionary norms times the summed
square roots of the cross squared covariances to watch for an unbounded
constant.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
import zlib
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import montecarlo
from .chaos import (
    STANDARDIZED_TOL,
    ChaosElement,
    _cov_from_norms,
    evaluate,
    variance,
)
from .exceptions import DegenerateInputError, ResourceLimitError, ValidationError, _integer, _real
from .tensor import _pair_norms

# Statistical floor: below this many samples the block machinery is noise.
MIN_SAMPLES = 10_000

# Largest number of dictionary tuples (one test function per group) a gap
# estimate may range over; the default dictionary gives 7**d.
MAX_TUPLES = 1 << 16

# Largest product of head rows and the last stack one block reduction
# holds at a time, in doubles (512 KiB): the four-group default dictionary
# at B = 3,906 reduces as fast in 512 KiB products as in whole slabs, and
# every worker thread holds one.
_MAX_PRODUCT = 1 << 16


class ChaosVector:
    """Groups of standardized chaos elements, ordered by decreasing order.

    Parameters
    ----------
    groups : sequence of sequences of ChaosElement
        Each inner group shares a single chaos order and every element must
        be standardized to unit variance within STANDARDIZED_TOL.  Groups
        are sorted by decreasing order at construction (stable for ties).
    """

    __slots__ = ("space", "groups", "orders", "sizes")

    def __init__(self, groups: Sequence[Sequence[ChaosElement]]):
        packed = []
        for g, group in enumerate(groups):
            if not isinstance(group, Sequence):
                raise ValidationError(f"group {g + 1} is not a sequence of ChaosElement: {group!r}")
            for e, element in enumerate(group):
                if not isinstance(element, ChaosElement):
                    raise ValidationError(f"group {g + 1} element {e + 1} is not a ChaosElement: {element!r}")
            packed.append(tuple(group))
        if not packed or any(not group for group in packed):
            raise ValidationError("a chaos vector needs at least one non-empty group")
        space = packed[0][0].space
        for g, group in enumerate(packed):
            orders = {element.order for element in group}
            if len(orders) != 1:
                raise ValidationError(f"group {g + 1} mixes chaos orders {sorted(orders)}")
            for e, element in enumerate(group):
                if element.space != space:
                    raise ValidationError(f"group {g + 1} element {e + 1} lives on a different space")
                var = variance(element)
                if abs(var - 1.0) > STANDARDIZED_TOL:
                    raise ValidationError(
                        f"group {g + 1} element {e + 1} is not standardized: variance {var!r}; normalize() rescales it"
                    )
        packed.sort(key=lambda group: -group[0].order)
        self.space = space
        self.groups = tuple(packed)
        self.orders = tuple(group[0].order for group in packed)
        self.sizes = tuple(len(group) for group in packed)

    @property
    def d(self) -> int:
        return len(self.groups)

    @property
    def elements(self) -> tuple[ChaosElement, ...]:
        return tuple(element for group in self.groups for element in group)

    @property
    def group_index(self) -> tuple[int, ...]:
        """For each flat element position, the 0-based group it belongs to."""
        return tuple(g for g, group in enumerate(self.groups) for _ in group)

    def __repr__(self) -> str:
        return f"ChaosVector(orders={self.orders}, sizes={self.sizes}, N={self.space.dimension})"


class TestFunction:
    """Smooth bounded test function with certified sup bounds.

    Parameters
    ----------
    name : str
    fn : callable
        Vectorized map from ndarray to ndarray.  empirical_dependence calls
        it concurrently from worker threads, so it must be thread-safe and
        pure: its result depends on its argument alone.
    sup : float
        Certified bound on |fn|.
    deriv_bound : callable
        deriv_bound(k) returns a certified bound on the k-th derivative's
        sup norm, k >= 1.  Bounds need not be tight, only valid.

    Every bound, sup and each value deriv_bound returns, must be a finite
    real >= 0; anything else raises ValidationError when it is read.
    """

    __slots__ = ("name", "fn", "sup", "_deriv_bound")

    def __init__(self, name: str, fn: Callable[[np.ndarray], np.ndarray], sup: float, deriv_bound):
        self.name = name
        self.fn = fn
        self.sup = _bound(sup, f"test function {name!r}: sup")
        self._deriv_bound = deriv_bound

    def deriv_bound(self, k: int) -> float:
        k = _integer(k, "derivative order", 1)
        return _bound(self._deriv_bound(k), f"test function {self.name!r}: derivative bound {k}")

    def norm(self, q: int) -> float:
        """sup |f| plus the derivative sup bounds up to total order q."""
        q = _integer(q, "norm order")
        return self.sup + sum(self.deriv_bound(k) for k in range(1, q + 1))

    def __repr__(self) -> str:
        return f"TestFunction({self.name!r})"


def _bound(value, what: str) -> float:
    bound = _real(value)
    if 0.0 <= bound <= sys.float_info.max:  # false for nan
        return bound
    raise ValidationError(f"{what} must be a finite real >= 0, got {value!r}")


def _tanh_deriv_bound(k: int) -> float:
    # d^k/dx^k tanh = p_k(tanh) with p_1 = 1 - t^2, p_{j+1} = p_j'(t) (1 - t^2);
    # |tanh| <= 1 bounds |p_k| by the sum of absolute coefficients.
    poly = {0: 1.0, 2: -1.0}
    for _ in range(k - 1):
        deriv = {power - 1: power * coeff for power, coeff in poly.items() if power > 0}
        poly = {}
        for power, coeff in deriv.items():
            poly[power] = poly.get(power, 0.0) + coeff
            poly[power + 2] = poly.get(power + 2, 0.0) - coeff
    return sum(abs(c) for c in poly.values())


def default_dictionary() -> list[TestFunction]:
    """cos and sin at frequencies 1/2, 1, 2, plus tanh.

    |d^k/dx^k cos(w x)| <= w^k and likewise for sin, so the dictionary has
    closed-form derivative bounds at every order.
    """
    out: list[TestFunction] = []
    for omega in (0.5, 1.0, 2.0):
        out.append(
            TestFunction(
                f"cos{omega:g}",
                lambda x, w=omega: np.cos(w * x),
                1.0,
                lambda k, w=omega: w**k,
            )
        )
        out.append(
            TestFunction(
                f"sin{omega:g}",
                lambda x, w=omega: np.sin(w * x),
                1.0,
                lambda k, w=omega: w**k,
            )
        )
    out.append(TestFunction("tanh", np.tanh, 1.0, _tanh_deriv_bound))
    return out


@dataclass(frozen=True)
class PairRow:
    """Exact diagnostics for one unordered element pair (1-based flat ids)."""

    i: int
    j: int
    cross: bool
    cov2: float
    norms: tuple[float, ...]
    max_norm: float
    argmax_r: int


@dataclass(frozen=True)
class EmpiricalDependence:
    """Largest factorization gap over dictionary tuples, with its stderr.

    orders, sizes and fingerprint are the sampled vector's.  rows holds
    (labels, |gap|, stderr) per tuple; budgets holds, per row, the dictionary
    factors of its ratio budget (see ratio), the last group's first.
    """

    gap: float
    stderr: float
    labels: tuple[str, ...]
    samples: int
    seed: int
    n_blocks: int
    orders: tuple[int, ...]
    sizes: tuple[int, ...]
    fingerprint: str
    rows: tuple[tuple[tuple[str, ...], float, float], ...]
    budgets: tuple[tuple[float, ...], ...]

    def ratio(self, report: IndependenceReport) -> float:
        """Empirical gap over its theoretical budget, maximized over tuples.

        The budget for a tuple is ||psi_d'||_inf ||psi_d||_inf^(m_d - 1) for
        the last group d, times ||psi_j||_(q_1)^m_j for each other group j
        (m_j the group sizes, ||psi||_(q_1) = TestFunction.norm(q_1)), times
        the sum over cross-group element pairs of sqrt(Cov(F_i^2, F_j^2)).
        The dictionary factors are kept in budgets, in that order.  The square
        root is the scale on which the covariance controls contraction norms
        (see the module docstring), so boundedness of this ratio along a
        family is the content of the existential constant in the
        factorization bound.  Used only to check boundedness; the value
        itself estimates no sharp constant.

        The exact side comes from report.pairs, the empirical side from
        this result, so no sample is drawn and no contraction runs.  Raises
        ValidationError for a report of another vector (other orders or
        sizes, or another fingerprint), and DegenerateInputError when every
        cross pair has zero squared covariance or a tuple's budget is zero.
        """
        if (report.orders, report.sizes) != (self.orders, self.sizes):
            raise ValidationError(
                f"report of orders {report.orders} and sizes {report.sizes} does not match "
                f"the sampled vector's orders {self.orders} and sizes {self.sizes}"
            )
        if report.fingerprint != self.fingerprint:
            raise ValidationError(
                f"report of vector {report.fingerprint} does not match the sampled vector {self.fingerprint}"
            )
        cov_root_sum = _cross_cov_root_sum(report.pairs)
        ratios = (gap / _budget(labels, f, cov_root_sum) for (labels, gap, _), f in zip(self.rows, self.budgets))
        return max([0.0, *ratios])  # a running max from 0.0, in tuple order


@dataclass(frozen=True)
class IndependenceReport:
    """Exact criterion verdicts, witnesses and the pair rows behind them; fingerprint is the vector's."""

    tol: float
    orders: tuple[int, ...]
    sizes: tuple[int, ...]
    fingerprint: str
    pairs: tuple[PairRow, ...]
    cov_pass: bool
    contraction_pass: bool
    witness_cov: float
    witness_cov_pair: tuple[int, int]
    witness_norm: float
    witness_norm_pair: tuple[int, int]
    witness_norm_r: int


def _fingerprint(vector: ChaosVector) -> str:
    """CRC-32, as 8 hex digits, of the group layout and entry counts, then of each element's index and value arrays.

    zlib comes loaded with numpy; hashlib's sha256 would add its OpenSSL
    import, 3-9 ms and 3.7 MB, to every process that builds a report.
    """
    layout = (vector.space.dimension, vector.orders, vector.sizes, [len(e.kernel.val) for e in vector.elements])
    crc = zlib.crc32(repr(layout).encode())
    for element in vector.elements:
        crc = zlib.crc32(np.ascontiguousarray(element.kernel.idx), crc)
        crc = zlib.crc32(np.ascontiguousarray(element.kernel.val), crc)
    return f"{crc:08x}"


def criterion_check(vector: ChaosVector, tol: float = 1e-6) -> IndependenceReport:
    """Exact check of the two equivalent vanishing conditions at width tol.

    Condition one: every cross-group Cov(F_i^2, F_j^2) < tol.  Condition
    two: every cross-group ||f_i (x)_r f_j|| < tol for all r.  Witnesses
    are the largest cross-group values with the pair (and r) attaining
    them.  The report's pairs hold one PairRow per unordered element pair,
    the upper triangle of the Cov(F_i^2, F_j^2) matrix in row order,
    diagonal included; only rows with cross=True feed the verdicts.  One
    contraction join per r over all pairs (tensor._pair_norms) feeds every
    pair's cov2 and norms, bit for bit those of cov_squares_and_norms.
    """
    if vector.d < 2:
        raise ValidationError("criterion checks need at least two groups")
    width = _real(tol)  # a float: a float32 tol would round every comparison to float32
    if not width > 0.0:  # false for nan
        raise ValidationError(f"tolerance must be a positive real, got {tol!r}")
    elements = vector.elements
    group_of = vector.group_index
    kernels = [element.kernel for element in elements]
    by_r = [[norms.tolist() for norms in _pair_norms(kernels, r)] for r in range(1, vector.orders[0] + 1)]
    rows = []
    for pair, (i, j) in enumerate(itertools.combinations_with_replacement(range(len(elements)), 2)):
        p, q = elements[i].order, elements[j].order
        norms = [raw[pair] for raw, _ in by_r[: min(p, q)]]
        cov2 = _cov_from_norms(p, q, norms, [sym[pair] for _, sym in by_r[: min(p, q)]])
        rows.append(
            PairRow(
                i=i + 1,
                j=j + 1,
                cross=group_of[i] != group_of[j],
                cov2=cov2,
                norms=tuple(norms),
                max_norm=max(norms),
                argmax_r=norms.index(max(norms)) + 1,
            )
        )
    cross = [row for row in rows if row.cross]
    witness_cov = max(cross, key=lambda row: row.cov2)
    witness_norm = max(cross, key=lambda row: row.max_norm)
    return IndependenceReport(
        tol=width,
        orders=vector.orders,
        sizes=vector.sizes,
        fingerprint=_fingerprint(vector),
        pairs=tuple(rows),
        cov_pass=all(row.cov2 < width for row in cross),
        contraction_pass=all(row.max_norm < width for row in cross),
        witness_cov=witness_cov.cov2,
        witness_cov_pair=(witness_cov.i, witness_cov.j),
        witness_norm=witness_norm.max_norm,
        witness_norm_pair=(witness_norm.i, witness_norm.j),
        witness_norm_r=witness_norm.argmax_r,
    )


def _head_products(stacks: Sequence[np.ndarray]) -> Iterator[np.ndarray]:
    """Left-to-right products of the stacks, one (|stacks[-1]|, block) slab at a time.

    Each slab is one row of the product of stacks[:-1] times the whole
    last stack, and the slabs' rows follow itertools.product order.  One
    stack is its own single slab.
    """
    if len(stacks) == 1:
        yield stacks[0]
        return
    for prefix in _head_products(stacks[:-1]):
        for row in prefix:
            yield row * stacks[-1]


def _block_gaps(stacks: Sequence[np.ndarray]) -> np.ndarray:
    """Mean of the product minus product of the means, for every tuple of one block.

    stacks[g] holds group g's dictionary values as (|dict_g|, block) rows.
    The head products come in slabs (see _head_products).  Each slab is cut
    into chunks whose product with the last stack holds at most
    _MAX_PRODUCT doubles (row chunks of the slab, and of the last stack
    too when one slab row times it is larger), and each chunk costs one
    multiply and one row sum written straight into the table of sums,
    which is divided by the block size once.  A four-group block of the
    default dictionary makes about 470 numpy calls rather than 1,100; with
    two worker threads, each call drops and retakes the GIL.  Products are
    formed left to right, every sum is numpy's pairwise sum along one
    contiguous row, and no BLAS routine is called, so the bits equal a
    tuple-by-tuple loop and do not depend on the thread count.
    """
    *heads, last = stacks
    size = last.shape[1]
    rows = max(1, _MAX_PRODUCT // last.size)
    columns = max(1, _MAX_PRODUCT // size)
    sums = np.empty((math.prod(len(head) for head in heads), len(last)))
    start = 0
    for slab in _head_products(heads):
        for i in range(0, len(slab), rows):
            chunk = slab[i : i + rows, None]
            for j in range(0, len(last), columns):
                out = sums[start + i : start + i + len(chunk), j : j + columns]
                np.add.reduce(chunk * last[j : j + columns], axis=2, out=out)
        start += len(slab)
    sums /= size
    mean_factored = functools.reduce(np.multiply.outer, [stack.mean(axis=1) for stack in stacks])
    sums -= mean_factored.reshape(sums.shape)
    return sums.ravel()


def _plan(vector: ChaosVector, functions: Sequence[Sequence[TestFunction]] | None, samples: int) -> tuple:
    """Check the probe's input; return the per-group dictionaries and each tuple's labels and budget factors.

    Tuples run in itertools.product order.  Reading the factors reads every
    bound, so all of the input is checked before the first draw.
    """
    if vector.d < 2:
        raise ValidationError("dependence gaps need at least two groups")
    _integer(samples, "samples", MIN_SAMPLES)
    dictionaries = [default_dictionary() for _ in vector.groups] if functions is None else functions
    if not isinstance(dictionaries, Sequence) or len(dictionaries) != vector.d:
        raise ValidationError(f"functions must hold one dictionary per group ({vector.d}), got {functions!r}")
    for g, dictionary in enumerate(dictionaries):
        valid = isinstance(dictionary, Sequence) and all(isinstance(f, TestFunction) for f in dictionary)
        if not valid or not dictionary:
            raise ValidationError(f"group {g + 1} needs a non-empty sequence of TestFunction, got {dictionary!r}")
    n_tuples = math.prod(len(d) for d in dictionaries)
    if n_tuples > MAX_TUPLES:
        raise ResourceLimitError(f"{n_tuples} dictionary tuples exceed the limit MAX_TUPLES = {MAX_TUPLES}")
    q1 = vector.orders[0]
    deriv_last = [f.deriv_bound(1) * f.sup ** (vector.sizes[-1] - 1) for f in dictionaries[-1]]
    norms = [[f.norm(q1) ** m for f in dictionary] for dictionary, m in zip(dictionaries[:-1], vector.sizes)]
    labels = list(itertools.product(*[[f.name for f in dictionary] for dictionary in dictionaries]))
    factors = [(last, *heads) for *heads, last in itertools.product(*norms, deriv_last)]
    return dictionaries, labels, factors


def _budget(labels: tuple[str, ...], factors: tuple[float, ...], cov_root_sum: float) -> float:
    """One tuple's ratio budget; a zero budget leaves the ratio undefined and raises."""
    budget = math.prod(factors[1:], start=factors[0] * cov_root_sum)  # in order, left to right
    if budget == 0.0:
        raise DegenerateInputError(f"tuple ({', '.join(labels)}) has a zero budget; the ratio is undefined")
    return budget


def empirical_dependence(
    vector: ChaosVector,
    functions: Sequence[Sequence[TestFunction]] | None = None,
    samples: int = 100_000,
    seed: int = 0,
) -> EmpiricalDependence:
    """Largest empirical factorization gap over dictionary tuples.

    functions is None (the default dictionary) or one dictionary per group.
    For each tuple of test functions (one per group, applied coordinatewise
    and multiplied within a group) the gap |E prod - prod E| is estimated
    by block means over montecarlo.DEFAULT_BLOCKS full blocks, and the
    tuple with the largest absolute gap is reported together with its
    standard error.  The result also carries each tuple's budget factors,
    so EmpiricalDependence.ratio needs no second sampling pass.

    Blocks are evaluated, and the test functions applied, on the worker
    threads of SampleBatch.map_blocks, so each TestFunction.fn must be
    thread-safe and pure, and return one value per sample.  The results
    are reduced in block order, and no output depends on the number of
    workers.

    Requires samples >= MIN_SAMPLES; estimates below that floor are noise
    and are rejected rather than returned.  A malformed dictionary or a
    test-function bound that is not a finite real >= 0 raises
    ValidationError, and more than MAX_TUPLES tuples raise
    ResourceLimitError, before any sample is drawn.
    """
    dictionaries, labels, budgets = _plan(vector, functions, samples)
    # samples >= MIN_SAMPLES: exactly DEFAULT_BLOCKS full blocks of >= 156 samples
    batch = montecarlo.sample(seed, vector.space.dimension, samples)
    n_blocks = batch.n_full_blocks

    def stack(element_values: np.ndarray, dictionary: Sequence[TestFunction]) -> np.ndarray:
        # a function of its own, so the per-function rows are freed before
        # the reduction runs
        per_function = []
        for function in dictionary:
            values = [function.fn(x) for x in element_values]
            if any(np.shape(v) != (batch.block_size,) for v in values):
                raise ValidationError(f"test function {function.name!r} must return one value per sample row")
            per_function.append(functools.reduce(operator.mul, values))  # left to right
        return np.stack(per_function)

    def block_gaps(index: int) -> np.ndarray:
        # every element's values over the block, a piece of normals at a time
        values = np.hstack([[evaluate(e, piece) for e in vector.elements] for piece in batch.pieces(index)])
        groups = np.split(values, np.cumsum(vector.sizes)[:-1])
        return _block_gaps([stack(group, dictionary) for group, dictionary in zip(groups, dictionaries)])

    # (tuples x blocks), C order: each tuple's block statistics are one
    # contiguous row, so the reductions below sum them pairwise
    stats = np.empty((len(labels), n_blocks))
    for b, column in enumerate(batch.map_blocks(block_gaps, stop=n_blocks)):
        stats[:, b] = column
    gaps = np.abs(stats.mean(axis=1))
    stderrs = stats.std(axis=1, ddof=1) / math.sqrt(n_blocks)
    rows = tuple(zip(labels, gaps.tolist(), stderrs.tolist()))
    best = max(rows, key=lambda row: row[1])  # the first of equal gaps
    return EmpiricalDependence(
        gap=best[1],
        stderr=best[2],
        labels=best[0],
        samples=batch.count,
        seed=batch.seed,
        n_blocks=n_blocks,
        orders=vector.orders,
        sizes=vector.sizes,
        fingerprint=_fingerprint(vector),
        rows=rows,
        budgets=tuple(budgets),
    )


def _cross_cov_root_sum(pairs: Sequence[PairRow]) -> float:
    """Sum of sqrt(cov2) over the cross pairs, in pair order; 0.0, when every cross pair is 0.0, raises."""
    total = 0.0
    for row in pairs:
        if row.cross:
            total += math.sqrt(row.cov2)
    if total == 0.0:
        raise DegenerateInputError(
            "every cross pair has squared covariance 0.0; the ratio is undefined on exactly independent input"
        )
    return total
