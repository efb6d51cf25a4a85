"""Sparse symmetric tensors over finite-dimensional real Hilbert spaces.

A symmetric order-q tensor is stored as a map from its sorted multi-index
(1-based, ascending, repeats allowed) to the coefficient at that index.
Any permutation of a stored index carries the same coefficient, so the
stored entries enumerate orbits, and the orbit size q!/prod(a_i!) (a_i the
occupation counts) enters every norm and inner-product computation.
Operations drop exact zeros only; a coefficient is never truncated for being
small, so results scale homogeneously with their inputs.

Indices are checked once, where entries enter: by _check_index in the public
constructors, in symmetrize on a mapping, and in the loaders.  Results built
inside the package skip it; every tensor still gets sorted keys, finite
values and no exact zeros.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Union

import numpy as np

from .exceptions import ResourceLimitError, ValidationError

# Exact integer multiplicity arithmetic is guaranteed up to this order.
MAX_ORDER = 20

# Dense materialization guard (entries of the full N**q array).
_DENSE_LIMIT = 1 << 24

Index = tuple[int, ...]


@dataclass(frozen=True)
class HilbertSpace:
    """Real Hilbert space R^N with the orthonormal coordinate basis."""

    dimension: int

    def __post_init__(self) -> None:
        if not isinstance(self.dimension, int) or isinstance(self.dimension, bool) or self.dimension < 1:
            raise ValidationError(f"space dimension must be a positive integer, got {self.dimension!r}")


def occupation(index: Index) -> tuple[tuple[int, int], ...]:
    """Return ((coordinate, count), ...) pairs of a sorted multi-index."""
    pairs = []
    i = 0
    while i < len(index):
        j = i
        while j < len(index) and index[j] == index[i]:
            j += 1
        pairs.append((index[i], j - i))
        i = j
    return tuple(pairs)


def multiplicity(index: Index) -> int:
    """Number of distinct arrangements of a sorted multi-index, q!/prod(a_i!)."""
    count = math.factorial(len(index))
    for _, a in occupation(index):
        count //= math.factorial(a)
    return count


def _check_order(*orders) -> None:
    for order in orders:
        if not isinstance(order, int) or isinstance(order, bool) or order < 0:
            raise ValidationError(f"order must be a non-negative integer, got {order!r}")
        if order > MAX_ORDER:
            raise ResourceLimitError(f"order {order} exceeds the exact-arithmetic limit {MAX_ORDER}")


def _check_index(index, order: int, dimension: int, name: str = "index", ascending: bool = True) -> None:
    """Check one index from outside the package: `order` ints (not bools) in
    1..dimension, ascending unless `ascending` is False.  Loaders pass the JSON
    list as read, so that their messages show the index as the file wrote it.
    """
    if not isinstance(index, (tuple, list)) or any(not isinstance(i, int) or isinstance(i, bool) for i in index):
        raise ValidationError(f"{name} {index!r} must be a tuple of integers")
    if len(index) != order:
        raise ValidationError(f"{name} {index!r} has length {len(index)}, expected {order}")
    if any(not 1 <= i <= dimension for i in index):
        raise ValidationError(f"{name} {index!r} leaves the range 1..{dimension}")
    if ascending and any(a > b for a, b in zip(index, index[1:])):
        raise ValidationError(f"{name} {index!r} is not sorted ascending")


def _check_value(key, value) -> None:
    if not isinstance(value, numbers.Real):
        raise ValidationError(f"entry {key!r} has value {value!r}, not a real number")


def _cleaned(entries: Mapping) -> dict:
    """Entries in sorted key order as finite floats, exact zeros dropped."""
    clean = {}
    for key in sorted(entries):
        value = float(entries[key])
        if not math.isfinite(value):
            raise ValidationError(f"entry {key!r} has non-finite value {value!r}")
        if value != 0.0:
            clean[key] = value
    return clean


class SymmetricTensor:
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
        values that are not finite real numbers raise ValidationError.
    """

    __slots__ = ("space", "order", "entries")

    def __init__(self, space: HilbertSpace, order: int, entries: Mapping[Index, float]):
        _check_order(order)
        for index, value in entries.items():
            _check_index(index, order, space.dimension)
            _check_value(index, value)
        self.space, self.order, self.entries = space, order, _cleaned(entries)

    @classmethod
    def _of(cls, space: HilbertSpace, order: int, entries: Mapping) -> "SymmetricTensor":
        """A result built from valid indices: the indices are not checked again."""
        _check_order(order)
        tensor = cls.__new__(cls)
        tensor.space, tensor.order, tensor.entries = space, order, _cleaned(entries)
        return tensor

    def items(self) -> Iterator[tuple[Index, float]]:
        """Entries in lexicographic index order."""
        return iter(self.entries.items())

    def __getitem__(self, index: Index) -> float:
        return self.entries.get(tuple(sorted(index)), 0.0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymmetricTensor)
            and self.space == other.space
            and self.order == other.order
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"SymmetricTensor(N={self.space.dimension}, order={self.order}, nnz={len(self.entries)})"

    def scaled(self, factor: float) -> "SymmetricTensor":
        return SymmetricTensor._of(self.space, self.order, {k: factor * v for k, v in self.entries.items()})

    def __add__(self, other: "SymmetricTensor") -> "SymmetricTensor":
        if self.space != other.space or self.order != other.order:
            raise ValidationError("tensor addition requires equal space and order")
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, 0.0) + v
        return SymmetricTensor._of(self.space, self.order, out)

    def norm(self) -> float:
        return math.sqrt(inner(self, self))

    def to_dense(self) -> np.ndarray:
        """Materialize the full N**q array (small inputs only)."""
        n = self.space.dimension
        if n**self.order > _DENSE_LIMIT:
            raise ResourceLimitError(f"dense form of size {n}**{self.order} exceeds the limit")
        out = np.zeros((n,) * self.order)
        for index, value in self.entries.items():
            for perm in _arrangements(index):
                out[tuple(i - 1 for i in perm)] = value
        return out


class RawTensor:
    """Unsymmetrized contraction output of order left_order + right_order.

    The value at a full multi-index depends only on the multiset of its
    first left_order coordinates and the multiset of the rest, so entries
    are keyed by the pair (sorted left index, sorted right index).  Each
    side follows the SymmetricTensor rules for its order, index and values.
    """

    __slots__ = ("space", "left_order", "right_order", "entries")

    def __init__(
        self, space: HilbertSpace, left_order: int, right_order: int, entries: Mapping[tuple[Index, Index], float]
    ):
        _check_order(left_order, right_order)
        for key, value in entries.items():
            if not isinstance(key, tuple) or len(key) != 2:
                raise ValidationError(f"raw key {key!r} must be a (left, right) pair of indices")
            _check_index(key[0], left_order, space.dimension, "left index")
            _check_index(key[1], right_order, space.dimension, "right index")
            _check_value(key, value)
        self.space, self.left_order, self.right_order = space, left_order, right_order
        self.entries = _cleaned(entries)

    @classmethod
    def _of(cls, space: HilbertSpace, left_order: int, right_order: int, entries: Mapping) -> "RawTensor":
        """A result built from valid index pairs: the indices are not checked again."""
        _check_order(left_order, right_order)
        raw = cls.__new__(cls)
        raw.space, raw.left_order, raw.right_order = space, left_order, right_order
        raw.entries = _cleaned(entries)
        return raw

    @property
    def order(self) -> int:
        return self.left_order + self.right_order

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RawTensor)
            and self.space == other.space
            and self.left_order == other.left_order
            and self.right_order == other.right_order
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return (
            f"RawTensor(N={self.space.dimension}, orders=({self.left_order},{self.right_order}), "
            f"nnz={len(self.entries)})"
        )

    def norm(self) -> float:
        total = 0.0
        for (left, right), value in self.entries.items():
            total += multiplicity(left) * multiplicity(right) * value * value
        return math.sqrt(total)

    def symmetrized(self) -> SymmetricTensor:
        terms = (
            (left + right, multiplicity(left) * multiplicity(right) * value)
            for (left, right), value in self.entries.items()
        )
        return _orbit_average(self.space, self.order, terms)

    def to_dense(self) -> np.ndarray:
        n = self.space.dimension
        if n**self.order > _DENSE_LIMIT:
            raise ResourceLimitError(f"dense form of size {n}**{self.order} exceeds the limit")
        out = np.zeros((n,) * self.order)
        for (left, right), value in self.entries.items():
            for lperm in _arrangements(left):
                for rperm in _arrangements(right):
                    out[tuple(i - 1 for i in lperm + rperm)] = value
        return out


RawLike = Union[SymmetricTensor, RawTensor, Mapping, np.ndarray]


def _arrangements(index: Index) -> Iterable[Index]:
    """Distinct arrangements of a sorted multi-index."""
    if not index:
        yield ()
        return
    seen_first: list[int] = []
    for pos, first in enumerate(index):
        if first in seen_first:
            continue
        seen_first.append(first)
        rest = index[:pos] + index[pos + 1 :]
        for tail in _arrangements(rest):
            yield (first,) + tail


def symmetrize(raw: RawLike, space: HilbertSpace | None = None, order: int | None = None) -> SymmetricTensor:
    """Symmetrize a raw tensor: average the value over all slot permutations.

    Parameters
    ----------
    raw : SymmetricTensor, RawTensor, mapping, or ndarray
        A mapping uses full (possibly unsorted) 1-based index tuples as keys
        and requires `space`; an ndarray of shape (N,)*q is read with 0-based
        positions.  Entries absent from a sparse input are zero.

    Returns
    -------
    SymmetricTensor
        For a sorted representative s the result is the mean of the raw
        values over the distinct arrangements of s, i.e. the orbit sum
        divided by the orbit size.
    """
    if isinstance(raw, SymmetricTensor):
        return SymmetricTensor._of(raw.space, raw.order, raw.entries)
    if isinstance(raw, RawTensor):
        return raw.symmetrized()
    if isinstance(raw, np.ndarray):
        if space is None:
            if raw.ndim == 0:
                raise ValidationError("scalar array input requires an explicit space")
            space = HilbertSpace(raw.shape[0])
        if any(s != space.dimension for s in raw.shape):
            raise ValidationError(f"array shape {raw.shape} is not (N,)*q for N={space.dimension}")
        # nonzero positions come in C order, which is the sorted key order
        positions = zip(*np.nonzero(raw)) if raw.ndim else [()]
        return _orbit_average(space, raw.ndim, ((tuple(int(i) + 1 for i in pos), raw[pos]) for pos in positions))
    if isinstance(raw, Mapping):
        if space is None:
            raise ValidationError("mapping input requires an explicit space")
        if order is None:
            if not raw:
                raise ValidationError("cannot infer order from an empty mapping")
            order = next((len(key) for key in raw if isinstance(key, tuple)), 0)
        for key, value in raw.items():
            _check_index(key, order, space.dimension, "raw index", ascending=False)
            _check_value(key, value)
        return _orbit_average(space, order, ((key, raw[key]) for key in sorted(raw)))
    raise ValidationError(f"cannot symmetrize object of type {type(raw).__name__}")


def _orbit_average(space: HilbertSpace, order: int, terms: Iterable[tuple[Index, float]]) -> SymmetricTensor:
    """Sum the (full index, value) terms onto sorted keys, divided by each orbit size."""
    acc: dict[Index, float] = {}
    for index, value in terms:
        key = tuple(sorted(index))
        acc[key] = acc.get(key, 0.0) + float(value)
    return SymmetricTensor._of(space, order, {key: acc[key] / multiplicity(key) for key in acc})


def inner(f: SymmetricTensor, g: SymmetricTensor) -> float:
    """Hilbert-Schmidt inner product <f, g> of two equal-order tensors.

    Computed as sum over shared sorted indices of orbit_size * f * g, which
    equals the dense sum over all N**q positions.
    """
    if f.space != g.space:
        raise ValidationError("inner product requires tensors over the same space")
    if f.order != g.order:
        raise ValidationError(f"inner product requires equal orders, got {f.order} and {g.order}")
    total = 0.0
    for key in sorted(f.entries.keys() & g.entries.keys()):
        total += multiplicity(key) * f.entries[key] * g.entries[key]
    return total


def _submultisets(occ: tuple[tuple[int, int], ...], r: int) -> Iterator[tuple[Index, Index]]:
    """Yield (sub, rest) sorted-index pairs over distinct size-r sub-multisets."""
    if r == 0:
        rest = []
        for coord, count in occ:
            rest.extend([coord] * count)
        yield (), tuple(rest)
        return
    if not occ:
        return
    coord, count = occ[0]
    tail = occ[1:]
    for take in range(min(count, r), -1, -1):
        for sub, rest in _submultisets(tail, r - take):
            yield (coord,) * take + sub, (coord,) * (count - take) + rest


def contract(f: SymmetricTensor, g: SymmetricTensor, r: int) -> RawTensor:
    """Contraction f (x)_r g over the last r slots of each factor.

    For basis coordinates, (f (x)_r g)(i, j) = sum over s in [N]^r of
    f(i, s) g(j, s).  The result has order p + q - 2r and is symmetric in
    the i block and in the j block separately, but not jointly, so it is
    returned unsymmetrized as a RawTensor.

    Parameters
    ----------
    f, g : SymmetricTensor
        Orders p and q over the same space.
    r : int
        Number of contracted slots, 0 <= r <= min(p, q).  r = 0 is the
        tensor product; r = p = q is the inner product as an order-0 tensor.
    """
    if f.space != g.space:
        raise ValidationError("contraction requires tensors over the same space")
    if not isinstance(r, int) or not 0 <= r <= min(f.order, g.order):
        raise ValidationError(f"contraction rank {r!r} outside 0..min({f.order}, {g.order})")
    by_sub: dict[Index, list[tuple[Index, float]]] = {}
    for kg, vg in g.items():
        for sub, rest in _submultisets(occupation(kg), r):
            by_sub.setdefault(sub, []).append((rest, vg))
    out: dict[tuple[Index, Index], float] = {}
    for kf, vf in f.items():
        for sub, rest_f in _submultisets(occupation(kf), r):
            matches = by_sub.get(sub)
            if matches is None:
                continue
            weight = multiplicity(sub) * vf
            for rest_g, vg in matches:
                key = (rest_f, rest_g)
                out[key] = out.get(key, 0.0) + weight * vg
    return RawTensor._of(f.space, f.order - r, g.order - r, out)


def contract_sym(f: SymmetricTensor, g: SymmetricTensor, r: int) -> SymmetricTensor:
    """Symmetrized contraction: symmetrize(contract(f, g, r))."""
    return contract(f, g, r).symmetrized()
