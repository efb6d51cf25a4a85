"""Sparse symmetric tensors over finite-dimensional real Hilbert spaces.

A symmetric order-q tensor stores one row per orbit: `idx` (nnz x q ints)
holds the sorted 1-based multi-indices, repeats allowed, in lexicographic
order, and `val` (float64) their coefficients.  `entries` and `items()` are
a read-only {index: value} view of the same rows, built on first use.  The
orbit size q!/prod(a_i!) (a_i the occupation counts) enters every norm and
inner product.  Operations drop exact zeros only, never small values, so
results scale homogeneously with their inputs.  No dense N**q array is ever
built; the dense forms the tests compare against live in tests/oracles.py.

Every sum adds its terms left to right from 0.0, as `total += term` does:
norms and inner products in row order, each contraction row in the order of
the f entries behind its terms.  np.cumsum and np.bincount add that way;
np.sum adds pairwise and would move bits.  Orbit sizes are exact integers,
rounded to float once per term.

Entries are checked once, where they enter: _checked_rows checks the keys and
values of the public constructors, of symmetrize on a mapping and of the
loaders as whole arrays, and the index of a lookup t[index].  Results built inside the package skip it; every
tensor still gets sorted rows, finite values and no exact zeros.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence, Union

import numpy as np

from .exceptions import InvalidKernelError, ResourceLimitError, ValidationError, _expect, _integer, _real, _reals

# Exact integer multiplicity arithmetic is guaranteed up to this order.
MAX_ORDER = 20

# Rows one contraction join may hold; a larger join raises ResourceLimitError before it is built.
_JOIN_LIMIT = 1 << 22

# Rows a batch of element pairs is packed under in _pair_norms; a larger pair is joined alone.
_JOIN_CHUNK = 1 << 16

Index = tuple[int, ...]

# Array arithmetic as quiet as Python floats: overflow gives inf, inf - inf nan; the finite check reports them.
_float_ops = np.errstate(over="ignore", invalid="ignore")


@dataclass(frozen=True)
class HilbertSpace:
    """Real Hilbert space R^N with the orthonormal coordinate basis."""

    dimension: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "dimension", _integer(self.dimension, "space dimension", 1))
        if self.dimension >= 2**63:
            raise ResourceLimitError(f"space dimension {self.dimension} leaves the int64 range of index rows")


def occupation(index: Index) -> tuple[tuple[int, int], ...]:
    """Return ((coordinate, count), ...) pairs of a sorted multi-index."""
    return tuple((coord, len(list(run))) for coord, run in itertools.groupby(index))


def multiplicity(index: Index) -> int:
    """Number of distinct arrangements of a multi-index, q!/prod(a_i!), in whatever order it is given."""
    count = math.factorial(len(index))
    for _, a in occupation(sorted(index)):
        count //= math.factorial(a)
    return count


def _check_order(*orders) -> tuple[int, ...]:
    """The orders as ints, each in 0..MAX_ORDER."""
    orders = tuple(_integer(order, "order") for order in orders)
    for order in orders:
        if order > MAX_ORDER:
            raise ResourceLimitError(f"order {order} exceeds the exact-arithmetic limit {MAX_ORDER}")
    return orders


def _checked_rows(sides, values, orders, dimension, names=("index",), ascending=True, where=None):
    """Check entries from outside the package as whole arrays; return their rows sorted, with float64 values.

    sides[s][k] is entry k's index on side s (`names[s]`, length `orders[s]`), a list or tuple as given,
    and values[k] its value; `dimension` is a HilbertSpace's, so in-range coordinates fit int64.  The
    rules, in order: each index holds ints, not bools, has its side's length, lies in 1..dimension and
    ascends (unless `ascending` is False); each value is a real number, not a bool, finite as a float; no
    row repeats an earlier one.  The first offending entry raises for the first rule it breaks:
    ValidationError, or InvalidKernelError "{where}: entry k: ..." from a document.  Later rules see an
    entry that broke an earlier one through a stand-in, so only the first rule it breaks is reported.
    """
    orders = _check_order(*orders)
    count = len(values)
    broken = []  # (entries that break a rule, its message for entry k), in rule order

    def side_rows(name, given, order):
        side = given
        if not (set(map(type, side)) <= {list, tuple} and set(map(type, itertools.chain(*side))) <= {int}):
            typed = [isinstance(i, (list, tuple)) and all(isinstance(c, int) and type(c) is not bool for c in i)
                     for i in side]
            broken.append((np.logical_not(typed), lambda k: f"{name} {given[k]!r} must be a tuple of integers"))
            side = [i if ok else () for i, ok in zip(side, typed)]
        wrong = np.fromiter(map(len, side), dtype=np.intp, count=count) != order
        broken.append((wrong, lambda k: f"{name} {given[k]!r} has length {len(given[k])}, expected {order}"))
        if wrong.any():
            side = [i if len(i) == order else (1,) * order for i in side]
        inside = [c if 0 < c <= dimension else 0 for c in itertools.chain(*side)]  # 0 also stands for c beyond int64
        rows = np.array(inside, dtype=np.int64).reshape(count, order)
        broken.append(((rows == 0).any(axis=1), lambda k: f"{name} {given[k]!r} leaves the range 1..{dimension}"))
        if ascending:
            unsorted = (rows[:, 1:] < rows[:, :-1]).any(axis=1)
            broken.append((unsorted, lambda k: f"{name} {given[k]!r} is not sorted ascending"))
        return rows

    def shown(k):
        return ", ".join(f"{name} {side[k]!r}" for name, side in zip(names, sides))

    rows = np.hstack([side_rows(*side) for side in zip(names, sides, orders)])
    fast = set(map(type, values)) <= {float}
    val = np.array(values, dtype=np.float64) if fast else np.fromiter(map(_real, values), np.float64, count)
    broken.append((~np.isfinite(val), lambda k: f"{shown(k)} has value {values[k]!r}, not a finite number"))
    order = np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(count)  # stable: a row's first entry comes first
    repeated = np.zeros(count, dtype=bool)
    repeated[order[1:][(rows[order[1:]] == rows[order[:-1]]).all(axis=1)]] = True
    broken.append((repeated, lambda k: f"duplicate {shown(k)}"))
    bad = np.logical_or.reduce([failing for failing, _ in broken])
    if bad.any():
        k = int(np.argmax(bad))
        message = next(message for failing, message in broken if failing[k])(k)
        if where is None:
            raise ValidationError(message)
        raise InvalidKernelError(f"{where}: entry {k + 1}: {message}")
    return rows[order], val[order]


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an int array in lexicographic order, and the position of each row among them."""
    count, width = rows.shape
    order = np.lexsort(rows.T[::-1]) if width else np.arange(count)
    ordered = rows[order]
    first = np.ones(count, dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(count, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


def _run_starts(idx: np.ndarray, widths: tuple[int, ...] = ()) -> np.ndarray:
    """True where a coordinate opens a run of equal ones in its row; each block of `widths` opens a run."""
    starts = np.ones(idx.shape, dtype=bool)
    starts[:, 1:] = idx[:, 1:] != idx[:, :-1]
    cuts = np.cumsum(widths[:-1], dtype=np.intp)
    starts[:, cuts[cuts < idx.shape[1]]] = True
    return starts


def _multiplicities(idx: np.ndarray, widths: tuple[int, ...]) -> np.ndarray:
    """Per row, the product of multiplicity(block) over the blocks of `widths`: exact, then rounded once.

    A 0 coordinate pads its block and is not counted, so rows of several block widths can share
    one call.  Rows with the same runs and pads share the product, so it is taken once per pattern.
    """
    patterns, which = _unique_rows(_run_starts(idx, widths).view(np.int8) + 2 * (idx == 0).view(np.int8))
    exact = []
    for pattern in patterns.tolist():
        blocks = [pattern[end - width : end] for width, end in zip(widths, itertools.accumulate(widths))]
        top = math.prod(math.factorial(sum(p < 2 for p in block)) for block in blocks)
        # the k-th coordinate of a run divides by k, so a run of a coordinates divides by a!
        ranks = itertools.accumulate([p for p in pattern if p < 2], lambda run, opens: 1 if opens else run + 1)
        exact.append(float(top // math.prod(ranks)))
    return np.array(exact, dtype=np.float64)[which]


def _running_total(terms: np.ndarray) -> float:
    """0.0 + terms[0] + terms[1] + ..., added left to right."""
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


class _Table:
    """Rows of indices and their values, shared by SymmetricTensor and RawTensor."""

    __slots__ = ("space", "idx", "val", "_view")
    _ORDERS: tuple[str, ...]

    def _set(self, space: HilbertSpace, orders: tuple[int, ...], idx: np.ndarray, val: np.ndarray):
        """Store distinct rows given in lexicographic order; values must be finite, exact zeros are dropped."""
        orders = _check_order(*orders)
        self.space, self._view = space, None
        for name, order in zip(self._ORDERS, orders):
            setattr(self, name, order)
        val = np.asarray(val, dtype=np.float64)
        bad = ~np.isfinite(val)
        if bad.any():
            k = int(np.argmax(bad))
            raise ValidationError(f"entry {self._key(idx[k].tolist())!r} has non-finite value {float(val[k])!r}")
        keep = val != 0.0
        self.idx, self.val = idx[keep], val[keep]
        self.idx.flags.writeable = self.val.flags.writeable = False
        return self

    @classmethod
    def _of(cls, space: HilbertSpace, orders: tuple[int, ...], idx: np.ndarray, val: np.ndarray):
        """A result built from valid rows, distinct and in lexicographic order: they are not checked again."""
        return cls.__new__(cls)._set(space, orders, idx, val)

    @property
    def entries(self) -> Mapping:
        """Read-only {key: value} view of the rows, in lexicographic key order."""
        if self._view is None:
            self._view = dict(zip(map(self._key, self.idx.tolist()), self.val.tolist()))
        return MappingProxyType(self._view)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and self.space == other.space
            and all(getattr(self, name) == getattr(other, name) for name in self._ORDERS)
            and np.array_equal(self.idx, other.idx)
            and np.array_equal(self.val, other.val)
        )


class SymmetricTensor(_Table):
    """Sparse symmetric tensor of fixed order over a HilbertSpace.

    Parameters
    ----------
    space : HilbertSpace
    order : int
        Tensor order q, 0 <= q <= MAX_ORDER.  Order 0 is a scalar with the
        single key ().
    entries : mapping
        Sorted multi-index (1-based tuple of length q) -> coefficient.
        Exact zeros are dropped; unsorted or out-of-range indices and
        values that are bools or not finite real numbers raise ValidationError.
    """

    __slots__ = ("order",)
    _ORDERS = ("order",)

    def __init__(self, space: HilbertSpace, order: int, entries: Mapping[Index, float]):
        self._set(space, (order,), *_checked_rows([list(entries)], list(entries.values()), (order,), space.dimension))

    _key = staticmethod(tuple)

    def items(self) -> Iterator[tuple[Index, float]]:
        """Entries in lexicographic index order."""
        return iter(self.entries.items())

    def __getitem__(self, index: Index) -> float:
        """The value at an index in any order; an index the constructor refuses raises ValidationError."""
        _checked_rows([[index]], [0.0], (self.order,), self.space.dimension, ascending=False)
        return self.entries.get(tuple(sorted(index)), 0.0)

    def __repr__(self) -> str:
        return f"SymmetricTensor(N={self.space.dimension}, order={self.order}, nnz={len(self.val)})"

    @_float_ops
    def scaled(self, factor: float) -> "SymmetricTensor":
        """The tensor times a finite real factor (a non-bool numbers.Real); anything else raises ValidationError."""
        value = _real(factor)
        if not math.isfinite(value):
            raise ValidationError(f"scale factor must be a finite real, got {factor!r}")
        return SymmetricTensor._of(self.space, (self.order,), self.idx, value * self.val)

    def __add__(self, other: "SymmetricTensor") -> "SymmetricTensor":
        if not isinstance(other, SymmetricTensor):
            return NotImplemented
        if self.space != other.space or self.order != other.order:
            raise ValidationError("tensor addition requires equal space and order")
        keys, group = _unique_rows(np.concatenate([self.idx, other.idx]))
        sums = np.bincount(group, weights=np.concatenate([self.val, other.val]), minlength=len(keys))
        return SymmetricTensor._of(self.space, (self.order,), keys, sums)

    def norm(self) -> float:
        return math.sqrt(inner(self, self))


class RawTensor(_Table):
    """Unsymmetrized contraction output of order left_order + right_order.

    The value at a full multi-index depends only on the multiset of its
    first left_order coordinates and the multiset of the rest, so entries
    are keyed by the pair (sorted left index, sorted right index); an `idx`
    row holds the left index, then the right one.  Each side follows the
    SymmetricTensor rules for its order, index and values.
    """

    __slots__ = ("left_order", "right_order")
    _ORDERS = ("left_order", "right_order")

    def __init__(
        self, space: HilbertSpace, left_order: int, right_order: int, entries: Mapping[tuple[Index, Index], float]
    ):
        orders, keys = (left_order, right_order), list(entries)
        paired = next((k for k, key in enumerate(keys) if not isinstance(key, tuple) or len(key) != 2), len(keys))
        sides = [[key[s] for key in keys[:paired]] for s in (0, 1)]
        values = list(entries.values())[:paired]
        rows = _checked_rows(sides, values, orders, space.dimension, ("left index", "right index"))
        if paired < len(keys):  # the entries before it were checked first
            raise ValidationError(f"raw key {keys[paired]!r} must be a (left, right) pair of indices")
        self._set(space, orders, *rows)

    def _key(self, row: list) -> tuple[Index, Index]:
        return tuple(row[: self.left_order]), tuple(row[self.left_order :])

    @property
    def order(self) -> int:
        return self.left_order + self.right_order

    def __repr__(self) -> str:
        orders = f"({self.left_order},{self.right_order})"
        return f"RawTensor(N={self.space.dimension}, orders={orders}, nnz={len(self.val)})"

    def _weights(self) -> np.ndarray:
        """multiplicity(left) * multiplicity(right) * value per row."""
        return _multiplicities(self.idx, (self.left_order, self.right_order)) * self.val

    @_float_ops
    def norm(self) -> float:
        return math.sqrt(_running_total(self._weights() * self.val))

    @_float_ops
    def norm_and_symmetrized(self) -> tuple[float, SymmetricTensor]:
        """(norm(), symmetrize(self)), computing the multiplicities once for both."""
        weights = self._weights()
        return math.sqrt(_running_total(weights * self.val)), _orbit_average(self.space, self.order, self.idx, weights)


RawLike = Union[SymmetricTensor, RawTensor, Mapping, np.ndarray]


def symmetrize(raw: RawLike, space: HilbertSpace | None = None, order: int | None = None) -> SymmetricTensor:
    """Symmetrize a raw tensor: average the value over all slot permutations.

    Parameters
    ----------
    raw : SymmetricTensor, RawTensor, mapping, or ndarray
        A mapping uses full (possibly unsorted) 1-based index tuples as keys
        and requires `space`; an ndarray of shape (N,)*q is read with 0-based
        positions.  Entries absent from a sparse input are zero.  Array
        entries follow the mapping rule: a bool, complex or object dtype
        raises ValidationError.

    Returns
    -------
    SymmetricTensor
        For a sorted representative s the result is the mean of the raw
        values over the distinct arrangements of s, i.e. the orbit sum
        divided by the orbit size.
    """
    if isinstance(raw, SymmetricTensor):
        return SymmetricTensor._of(raw.space, (raw.order,), raw.idx, raw.val)
    if isinstance(raw, RawTensor):
        return raw.norm_and_symmetrized()[1]
    if isinstance(raw, np.ndarray):
        raw = _reals(raw, "array entries")
        if space is None:
            if raw.ndim == 0:
                raise ValidationError("scalar array input requires an explicit space")
            space = HilbertSpace(raw.shape[0])
        if any(s != space.dimension for s in raw.shape):
            raise ValidationError(f"array shape {raw.shape} is not (N,)*q for N={space.dimension}")
        # nonzero positions come in C order, which is the sorted key order
        return _orbit_average(space, raw.ndim, np.argwhere(raw) + 1, raw[raw != 0])
    if isinstance(raw, Mapping):
        if space is None:
            raise ValidationError("mapping input requires an explicit space")
        if order is None:
            if not raw:
                raise ValidationError("cannot infer order from an empty mapping")
            order = next((len(key) for key in raw if isinstance(key, tuple)), 0)
        rows = _checked_rows([list(raw)], list(raw.values()), (order,), space.dimension, ("raw index",), False)
        return _orbit_average(space, order, *rows)
    raise ValidationError(f"cannot symmetrize object of type {type(raw).__name__}")


def _orbit_average(space: HilbertSpace, order: int, idx: np.ndarray, values: np.ndarray) -> SymmetricTensor:
    """Sum each full-index row's value onto its sorted row, in row order, divided by each orbit size."""
    keys, group = _unique_rows(np.sort(idx, axis=1))
    sums = np.bincount(group, weights=values, minlength=len(keys))
    return SymmetricTensor._of(space, (order,), keys, sums / _multiplicities(keys, (order,)))


@_float_ops
def inner(f: SymmetricTensor, g: SymmetricTensor) -> float:
    """Hilbert-Schmidt inner product <f, g> of two equal-order tensors.

    Computed as sum over shared sorted indices of orbit_size * f * g, which
    equals the dense sum over all N**q positions.
    """
    _expect(SymmetricTensor, "a SymmetricTensor", f, g)
    if f.space != g.space:
        raise ValidationError("inner product requires tensors over the same space")
    if f.order != g.order:
        raise ValidationError(f"inner product requires equal orders, got {f.order} and {g.order}")
    if f is g:  # every row is shared, in order
        return _running_total(_multiplicities(f.idx, (f.order,)) * f.val * f.val)
    _, group = _unique_rows(np.concatenate([f.idx, g.idx]))
    _, at_f, at_g = np.intersect1d(group[: len(f.val)], group[len(f.val) :], assume_unique=True, return_indices=True)
    return _running_total(_multiplicities(f.idx[at_f], (f.order,)) * f.val[at_f] * g.val[at_g])


def _cuts(idx: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, sub, rest) cuts, one per distinct size-r sub-multiset of each sorted index row, in row order.

    Rows with the same runs share their cuts: the first k_i coordinates of each run i, sum k_i = r.
    """
    q = idx.shape[1]
    patterns, which = _unique_rows(_run_starts(idx).view(np.int8))
    entry, sub, rest = [np.zeros(0, np.intp)], [np.zeros((0, r), np.int64)], [np.zeros((0, q - r), np.int64)]
    for p, pattern in enumerate(patterns.tolist()):
        runs = [range(a, b) for a, b in itertools.pairwise([j for j in range(q) if pattern[j]] + [q])]
        rows = np.flatnonzero(which == p)
        for take in itertools.product(*(range(len(run) + 1) for run in runs)):
            if sum(take) == r:
                picked = [j for run, k in zip(runs, take) for j in run[:k]]
                entry.append(rows)
                sub.append(idx[rows][:, picked])
                rest.append(idx[rows][:, [j for j in range(q) if j not in picked]])
    order = np.argsort(np.concatenate(entry), kind="stable")
    return tuple(np.concatenate(part)[order] for part in (entry, sub, rest))


@_float_ops
def contract(f: SymmetricTensor, g: SymmetricTensor, r: int) -> RawTensor:
    """Contraction f (x)_r g over the last r slots of each factor.

    For basis coordinates, (f (x)_r g)(i, j) = sum over s in [N]^r of
    f(i, s) g(j, s).  The result has order p + q - 2r and is symmetric in
    the i block and in the j block separately, but not jointly, so it is
    returned unsymmetrized as a RawTensor.

    Each f and g entry is cut once per distinct size-r sub-multiset; cuts with
    equal subs join, and multiplicity(sub) * f * g adds to row (rest_f, rest_g)
    in f-entry order.  A join of more than _JOIN_LIMIT rows raises
    ResourceLimitError before it is built.

    Parameters
    ----------
    f, g : SymmetricTensor
        Orders p and q over the same space.
    r : int
        Number of contracted slots, 0 <= r <= min(p, q).  r = 0 is the
        tensor product; r = p = q is the inner product as an order-0 tensor.
    """
    _expect(SymmetricTensor, "a SymmetricTensor", f, g)
    if f.space != g.space:
        raise ValidationError("contraction requires tensors over the same space")
    r = _integer(r, "contraction rank", 0, min(f.order, g.order))
    entry_f, sub_f, rest_f = _cuts(f.idx, r)
    entry_g, sub_g, rest_g = _cuts(g.idx, r)
    subs, group = _unique_rows(np.concatenate([sub_f, sub_g]))
    group_f, group_g = group[: len(entry_f)], group[len(entry_f) :]
    by_group = np.argsort(group_g, kind="stable")  # g cuts by sub, each in entry order
    low = np.searchsorted(group_g[by_group], group_f, "left")
    left, right = _expand(low, np.searchsorted(group_g[by_group], group_f, "right") - low, by_group)
    weight = _multiplicities(subs, (r,))[group_f] * f.val[entry_f]
    keys, out = _unique_rows(np.hstack([rest_f[left], rest_g[right]]))
    sums = np.bincount(out, weights=weight[left] * g.val[entry_g[right]], minlength=len(keys))
    return RawTensor._of(f.space, (f.order - r, g.order - r), keys, sums)


def _expand(low: np.ndarray, count: np.ndarray, by: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(left, right) rows of a join: left k meets by[low[k] : low[k] + count[k]], in that order.

    The row count is known before any row is built: more than _JOIN_LIMIT raise ResourceLimitError.
    """
    rows = int(count.sum())
    if rows > _JOIN_LIMIT:
        raise ResourceLimitError(f"a contraction join of {rows} rows exceeds the limit {_JOIN_LIMIT}")
    left = np.repeat(np.arange(len(count)), count)
    return left, by[np.arange(rows) - np.repeat(np.cumsum(count) - count - low, count)]


def _cut_table(kernels: Sequence[SymmetricTensor], r: int) -> tuple[np.ndarray, ...]:
    """(key, by, ordered, rest, weight, value) over the cuts of the kernels of order >= r, kernel by kernel.

    Each kernel's cuts come in entry order; key is sub id * len(kernels) + kernel, and by sorts
    the cuts by (sub, kernel), each in cut order, into ordered = key[by].  rest is padded with 0
    to one width: coordinates are 1-based, so padding leaves the rows of one kernel pair in
    their order.  weight is multiplicity(sub) * value, value the cut entry's.  Each run of
    kernels of one order is cut together.
    """
    width = max(t.order for t in kernels) - r
    parts = []
    for q, run in itertools.groupby(range(len(kernels)), key=lambda e: kernels[e].order):
        run = list(run)
        if q >= r:
            entry, sub, rest = _cuts(np.vstack([kernels[e].idx for e in run]), r)
            kernel = np.repeat(run, [len(kernels[e].val) for e in run])[entry]
            rest = np.hstack([rest, np.zeros((len(rest), width - q + r), np.int64)])
            parts.append((kernel, sub, rest, np.concatenate([kernels[e].val for e in run])[entry]))
    kernel, sub, rest, value = (np.concatenate(part) for part in zip(*parts))
    del parts  # free the per-run copies before the sorts below
    subs, sub = _unique_rows(sub)
    key = sub * len(kernels) + kernel
    by = np.argsort(key, kind="stable")
    return key, by, key[by], rest, _multiplicities(subs, (r,))[sub] * value, value


def _join(table: tuple, units: list, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(left, right) cut pairs of one batch join: left in cut order, each left's partners in (kernel, cut) order.

    A unit (c0, c1, j0, j1) joins the cuts c0..c1-1 of one kernel i with the cuts of the same sub
    of kernels max(i, j0)..j1-1.
    """
    key, by, ordered = table[:3]
    c0, c1, j0, j1 = (np.array(column) for column in zip(*units))
    length = c1 - c0
    cut = np.arange(length.sum()) - np.repeat(np.cumsum(length) - c1, length)
    own = key[cut] % m
    low = np.searchsorted(ordered, key[cut] - own + np.maximum(own, np.repeat(j0, length)))
    left, right = _expand(low, np.searchsorted(ordered, key[cut] - own + np.repeat(j1, length)) - low, by)
    return cut[left], right


def _joined_rows(table: tuple, units: list, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows (pair, rest_f, rest_g) of one join (see _join), in lexicographic order, and their nonzero sums.

    pair numbers the kernel pairs i <= j row by row.  A row's terms multiplicity(sub) * f * g add
    in f-entry order: each f entry gives at most one term, and left runs in cut order.
    """
    left, right = _join(table, units, m)
    key, rest, weight, value = table[0], *table[3:]
    i, j = key[left] % m, key[right] % m
    keys, group = _unique_rows(np.hstack([(i * (2 * m - i + 1) // 2 + j - i)[:, None], rest[left], rest[right]]))
    sums = np.bincount(group, weights=weight[left] * value[right], minlength=len(keys))
    return keys[sums != 0.0], sums[sums != 0.0]


def _join_chunks(table: tuple, m: int) -> list[list[tuple[int, int, int, int]]]:
    """The units of one batch join (see _joined_rows), packed into chunks of at most _JOIN_CHUNK rows.

    A kernel's cuts make one unit with all later kernels while its rows fit in _JOIN_CHUNK, else
    one unit per partner, so a pair larger than _JOIN_CHUNK is joined alone.
    """
    key, _, ordered = table[:3]
    own = key % m
    base = key - own
    ends = np.searchsorted(own, np.arange(m + 1)).tolist()
    rows = np.concatenate(([0], np.cumsum(np.searchsorted(ordered, base + m) - np.searchsorted(ordered, key))))
    units = []
    for i, c0, c1 in zip(range(m), ends, ends[1:]):
        if rows[c1] - rows[c0] <= _JOIN_CHUNK:
            units.append((c0, c1, 0, m, rows[c1] - rows[c0]))
            continue
        edges = itertools.pairwise(np.searchsorted(ordered, base[c0:c1] + j) for j in range(i, m + 1))
        units += [(c0, c1, j, j + 1, (high - low).sum()) for j, (low, high) in zip(range(i, m), edges)]
    chunks, held = [], 0
    for *unit, size in units:
        if not chunks or held and held + size > _JOIN_CHUNK:
            chunks.append([])
            held = 0
        chunks[-1].append(unit)
        held += size
    return chunks


@_float_ops
def _pair_norms(kernels: Sequence[SymmetricTensor], r: int) -> tuple[np.ndarray, np.ndarray]:
    """||f (x)_r g|| and ||f (x~)_r g|| for every pair (f, g) = (kernels[i], kernels[j]), i <= j, row by row.

    The values equal contract(f, g, r).norm_and_symmetrized() and its second part's .norm(),
    bit for bit; a pair with an order below r reads 0.0.  Each kernel is cut once, and all pairs
    join in chunks (see _join_chunks).  Each pair's totals add from 0.0 in its row order.
    """
    table = _cut_table(kernels, r)
    m, width = len(kernels), table[3].shape[1]
    pairs = m * (m + 1) // 2
    _check_order(2 * width)  # the largest symmetrized order: the top-order kernel with itself

    def chunk_norms(chunk: list) -> np.ndarray:
        keys, sums = _joined_rows(table, chunk, m)
        weights = _multiplicities(keys[:, 1:], (width, width)) * sums
        raw = np.bincount(keys[:, 0], weights=weights * sums, minlength=pairs)
        keys[:, 1:].sort(axis=1)  # each row's sorted index, after its 0s
        syms, group = _unique_rows(keys)
        del keys  # free the row table before the orbit multiplicities
        orbit = _multiplicities(syms[:, 1:], (2 * width,))
        sym = np.bincount(group, weights=weights, minlength=len(syms)) / orbit
        return np.stack([raw, np.bincount(syms[:, 0], weights=orbit * sym * sym, minlength=pairs)])

    return tuple(np.sqrt(sum(map(chunk_norms, _join_chunks(table, m)))))

