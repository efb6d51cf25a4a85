"""Deterministic kernel families indexed by n, plus kernel and vector files.

Each family produces a ChaosVector whose cross-group interaction has a
known exact profile, so asymptotic statements can be tested against closed
forms rather than against other numerics:

- ``disjoint``: every element is a normalized average of q-th tensor powers
  of basis vectors from its own coordinate block; all cross contractions
  and squared covariances are exactly zero at every n.
- ``vanishing_overlap``: same block structure plus a shared coordinate
  carrying weight delta_n = theta * n**-0.25 in every element, so each
  cross contraction norm decays like n**-0.5 and each squared covariance
  like 1/n.
- ``persistent_overlap``: a fixed shared coordinate at constant weight
  theta; nothing decays, and the n-indexed family repeats one vector.
- ``mixed_orders``: the vanishing construction with two groups of strictly
  decreasing orders, exercising unequal-order contractions.

The file formats are plain JSON with 1-based sorted multi-indices and
17-significant-digit floats, so a written kernel reloads bit-exactly.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import warnings
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from .chaos import ChaosElement, normalize, variance
from .exceptions import DegenerateInputError, InvalidKernelError, ValidationError, _integer, _real
from .independence import ChaosVector
from .tensor import HilbertSpace, RawTensor, SymmetricTensor, _checked_rows

FAMILIES = ("disjoint", "vanishing_overlap", "persistent_overlap", "mixed_orders")


@dataclass(frozen=True)
class FamilySpec:
    """Recipe for one n-indexed family of chaos vectors.

    orders[j] and sizes[j] give the chaos order and element count of group
    j; theta, a real in [0, 1] stored as a float, sets the shared-coordinate
    weight (ignored by the disjoint family).
    """

    family: str
    orders: tuple[int, ...]
    sizes: tuple[int, ...]
    theta: float = 0.5

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        orders = tuple(self.orders)
        sizes = tuple(self.sizes)
        if len(orders) < 2:
            raise ValidationError("a family needs at least two groups")
        if len(sizes) != len(orders):
            raise ValidationError(f"got {len(orders)} orders but {len(sizes)} sizes")
        orders = tuple(_integer(q, "group order", 1) for q in orders)
        if any(q1 < q2 for q1, q2 in zip(orders, orders[1:])):
            raise ValidationError(f"orders must be non-increasing, got {orders}")
        sizes = tuple(_integer(m, "group size", 1) for m in sizes)
        theta = _real(self.theta)
        if not 0.0 <= theta <= 1.0:  # false for nan
            raise ValidationError(f"theta must be a real in [0, 1], got {self.theta!r}")
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "theta", theta)
        if self.family == "mixed_orders":
            if len(orders) != 2 or orders[0] <= orders[1]:
                raise ValidationError(
                    "mixed_orders takes exactly two groups with strictly decreasing orders"
                )


def _diagonal_element(space: HilbertSpace, q: int, first: int, count: int, body: float, tip: float) -> ChaosElement:
    """body on the q-th tensor power of coordinates first..first+count-1, tip on that of the shared last one."""
    diagonal = np.append(np.arange(first, first + count, dtype=np.int64), space.dimension)
    values = np.append(np.full(count, body), tip)
    return ChaosElement(SymmetricTensor._of(space, (q,), np.repeat(diagonal[:, None], q, axis=1), values))


def _blocked_vector(spec: FamilySpec, spans: tuple[int, ...], delta: float) -> ChaosVector:
    # one block of spans[j] coordinates per group, plus one shared coordinate at the end.
    space = HilbertSpace(sum(spans) + 1)
    groups = []
    first = 1
    for j, (q, m, span) in enumerate(zip(spec.orders, spec.sizes, spans)):
        if span < m:
            raise ValidationError(f"group {j + 1} needs n >= {m} coordinates per element, got n={span}")
        width = span // m
        body = math.sqrt((1.0 - delta * delta) / (width * math.factorial(q)))
        tip = delta / math.sqrt(math.factorial(q))
        groups.append([_diagonal_element(space, q, first + k * width, width, body, tip) for k in range(m)])
        first += span
    return ChaosVector(groups)


def generate(spec: FamilySpec, n: int) -> ChaosVector:
    """Instantiate the family at index n.

    Block families use d*n + 1 coordinates (n per group plus the shared
    one); each element averages its q-th tensor powers over a slice of
    n // m_j block coordinates, so n must be at least max(sizes).  The
    persistent family's dimension is sum(sizes) + 1 independent of n.
    """
    n = _integer(n, "family index n", 1)
    if spec.family == "persistent_overlap":  # one coordinate per element
        return _blocked_vector(spec, spec.sizes, spec.theta)
    delta = 0.0 if spec.family == "disjoint" else spec.theta * n**-0.25
    return _blocked_vector(spec, (n,) * len(spec.orders), delta)


def format_float(value: float) -> str:
    """17 significant digits, which round-trip IEEE doubles exactly."""
    return format(float(value), ".17g")


# Most cells format_rows formats in one numpy pass: 2^12 cells hold 128 KiB
# of records and of keep masks, and a wider piece raised simulate's RSS.
_FORMAT_CELLS = 1 << 12

# A cell's text is cut out of a 32-byte record of four little-endian words.
# Its 17 digits sit at bytes 6..22 and again at 7..23.  A value of 1 or more
# keeps its integer digits from the first copy, a dot after them and its
# fraction from the second copy; a value below 1 keeps "0." and its zeros
# below byte 6 and its digits from the first copy.  The sign sits just before
# the text and the separator just after it, so a cell is one run of kept
# bytes.  The layout depends on the exponent k in -4..15 and the number t of
# significant digits alone: layout (k + 4) * 17 + t - 1 of _LAYOUTS.
_WORD = np.dtype("<u8")
_LAYOUTS = 20 * 17
_POW10 = 10.0 ** np.arange(23)  # exact doubles


@functools.cache
def _format_tables() -> tuple[np.ndarray, ...]:
    """(words, trailing, first, second, fixed, keep), built on first use.

    words[v] holds v's four zero-padded ASCII digits in its low bytes, and
    trailing[v] counts their trailing zeros.  Per layout, first and second
    mask the two digit copies in words 0..2 (one row per word), fixed holds
    the other bytes with a ',' separator (rows + _LAYOUTS: a newline), and keep
    marks the text of a positive value (rows + _LAYOUTS: of a negative one).
    """
    v = np.arange(10_000)
    digits = np.stack([v // 1000, v // 100 % 10, v // 10 % 10, v % 10], axis=1)
    words = (digits + ord("0")).astype(np.uint8).view("<u4").ravel().astype(_WORD)
    trailing = np.argmax(np.hstack([digits[:, ::-1] != 0, np.ones((len(v), 1), bool)]), axis=1)
    patterns = []
    for k in range(-4, 16):
        for t in range(1, 18):  # 'a' and 'b' are digits of the first and second copy, ';' the separator
            text = "-" + "a" * (k + 1) + "." + "b" * (t - k - 1) if k >= 0 else "-0." + "0" * (-k - 1) + "a" * t
            patterns.append((" " * (6 - text.index("a")) + text.rstrip(".") + ";").ljust(32))
    pattern = np.frombuffer("".join(patterns).encode("ascii"), np.uint8).reshape(-1, 32)
    masks = [np.where(pattern == ord(c), 255, 0).astype(np.uint8).view(_WORD)[:, :3].T.copy() for c in "ab"]
    fixed = np.where(np.isin(pattern, np.frombuffer(b"ab ", np.uint8)), 0, pattern)
    fixed = np.concatenate([np.where(pattern == ord(";"), ord(c), fixed) for c in ",\n"]).astype(np.uint8)
    keep = np.concatenate([(pattern != ord(" ")) & (pattern != ord("-")), pattern != ord(" ")])
    return words, trailing, *masks, fixed.view(_WORD), keep


def _significand(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(D, k): each a in [1e-4, 1e16) rounded half to even to D * 10^(k - 16), D a 17-digit integer.

    k starts at floor(log10 a) and moves until the exact product a * 10^(16 - k),
    hi + lo by Dekker's two-product (Numer. Math. 18, 1971), lies in [1e16, 1e17).
    hi is then an even integer, so hi + rint(lo) rounds half to even.  D never
    rounds up to 10^17: the largest double below each power of ten from 1e-3
    to 1e16 is more than 8e-17 of it below it, and a carry needs 5e-18.
    """
    k = np.floor(np.log10(a)).astype(np.int64)
    a1 = a * 134_217_729.0  # Veltkamp's split by 2^27 + 1: a = a1 + a2 in 26-bit halves
    a1 -= a1 - a
    a2 = a - a1
    while True:
        b = np.take(_POW10, 16 - k)
        b1 = b * 134_217_729.0
        b1 -= b1 - b
        hi = a * b
        lo = ((a1 * b1 - hi) + a1 * (b - b1) + a2 * b1) + a2 * (b - b1)
        up, down = (hi > 1e17) | (hi == 1e17) & (lo >= 0.0), (hi < 1e16) | (hi == 1e16) & (lo < 0.0)
        if not (up.any() or down.any()):
            break
        k += up.astype(np.int64) - down
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), k


def _format_piece(table: np.ndarray) -> str:
    words, trailing, first_mask, second_mask, fixed, keep = _format_tables()
    rows, columns = table.shape
    cells = table.ravel()
    magnitude = np.abs(cells)
    others = np.flatnonzero(~((magnitude >= 1e-4) & (magnitude < 1e16)))  # 0, nan, inf, or written with an exponent
    magnitude[others] = 1.0
    significand, k = _significand(magnitude)
    high = significand // 10**8
    pair = np.stack([high, significand - high * 10**8])
    lead = pair[0] // 10**8
    pair[0] -= lead * 10**8
    top = pair // 10**4  # digits 2-5 and 10-13
    bottom = pair - top * 10**4  # digits 6-9 and 14-17
    second = np.empty((3, len(cells)), _WORD)  # words 0..2 of the records with the digits at bytes 7..23
    second[0] = (lead.astype(_WORD) + ord("0")) << 56
    second[1:] = np.take(words, top) | np.take(words, bottom) << 32
    first = second >> 8  # the digits at bytes 6..22
    first[:2] |= second[1:] << 56
    zeros = np.take(trailing, top[0])
    for group in (bottom[0], top[1], bottom[1]):
        zeros = np.take(trailing, group) + (group == 0) * zeros
    layout = (k + 4) * 17 + 16 - zeros
    records = np.take(fixed, layout + np.tile(np.arange(columns) == columns - 1, rows) * _LAYOUTS, axis=0)
    first &= np.take(first_mask, layout, axis=1)
    first |= second & np.take(second_mask, layout, axis=1)
    for w in range(3):
        records[:, w] |= first[w]
    mask = np.take(keep, layout + np.signbit(cells) * _LAYOUTS, axis=0)
    records = records.view(np.uint8)
    for cell in others.tolist():  # format_float's text and the separator from byte 0
        text = format_float(cells[cell]).encode("ascii") + (b"\n" if cell % columns == columns - 1 else b",")
        records[cell, : len(text)] = np.frombuffer(text, np.uint8)
        mask[cell] = np.arange(32) < len(text)
    return records[mask].tobytes().decode("ascii")


def format_rows(table: np.ndarray) -> str:
    """CSV text of a 2-D float array: format_float's text per cell, ',' between cells, '\\n' after each row.

    A cell that "%.17g" writes without an exponent, a magnitude in [1e-4, 1e16),
    gets its 17 digits from an exact product with a power of ten and is laid
    out by numpy; every other cell is format_float's own text.  A whole float
    is the integer's text, as "%d" writes it.  Rows are formatted in pieces of
    at most _FORMAT_CELLS cells, or one row when a row is longer.
    """
    table = np.asarray(table, dtype=np.float64)
    step = max(1, _FORMAT_CELLS // max(1, table.shape[1]))
    return "".join([_format_piece(table[start : start + step]) for start in range(0, len(table), step)])


# The index sides of each entry table, with the document key of each side's order.
_SIDES = {SymmetricTensor: {"index": "order"}, RawTensor: {"left": "left_order", "right": "right_order"}}


def table_document(table: SymmetricTensor | RawTensor, meta: dict | None = None) -> str:
    """Canonical JSON text of a kernel or raw entry table (entries in order, 17-digit floats), meta first if given."""
    sides = _SIDES[type(table)]
    head = [] if meta is None else [f'  "meta": {json.dumps(meta, sort_keys=True)},']
    lines = ["{", *head, f'  "dimension": {table.space.dimension},']
    lines += [f'  "{key}": {getattr(table, key)},' for key in sides.values()]
    rows = []
    for key, value in table.entries.items():
        indices = [key] if len(sides) == 1 else key
        cells = "".join(f'"{name}": [{", ".join(map(str, index))}], ' for name, index in zip(sides, indices))
        rows.append(f'    {{{cells}"value": {format_float(value)}}}')
    lines += ['  "entries": [', ",\n".join(rows), "  ]"] if rows else ['  "entries": []']
    return "\n".join([*lines, "}"]) + "\n"


def write_atomic(text: str | Iterable[str], path: str) -> None:
    """Write text, or its chunks in order, to path via a new temporary file beside it and a rename.

    The temporary file's random name replaces no file, and no other write shares it; open's "x" mode
    gives it the mode open(path, "w") would.  A failed write, including an exception raised while
    producing a chunk, leaves neither a partial file nor the temporary file behind.
    """
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    handle = open(tmp, "x", encoding="utf-8")
    try:
        with handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _read_json(source, where: str) -> tuple[Mapping, str]:
    """The JSON object given as `source` or read from the file at that path, and the label for its messages."""
    if not isinstance(source, Mapping):
        if not isinstance(source, (str, os.PathLike)):
            raise InvalidKernelError(f"expected a JSON document or a file path, got {type(source).__name__}")
        where = str(source)
        try:
            with open(source, "r", encoding="utf-8") as handle:
                source = json.load(handle)
        except OSError as error:
            raise InvalidKernelError(f"{where}: {error}") from error
        except json.JSONDecodeError as error:
            raise InvalidKernelError(f"{where}: not valid JSON ({error})") from error
    if not isinstance(source, Mapping):
        raise InvalidKernelError(f"{where}: document must be a JSON object")
    return source, where


def _parse_table(document, where: str, kind: type):
    """Check a kernel (kind SymmetricTensor) or raw (RawTensor) document, or the file at that path, and build it.

    The entries go through the tensor module's entry check once, labelled with
    their entry number; the tensor is then built without checking them again.
    """
    sides = _SIDES[kind]
    document, where = _read_json(document, where)
    for key in ("dimension", *sides.values(), "entries"):
        if key not in document:
            raise InvalidKernelError(f"{where}: missing required key {key!r}")
    dimension = _integer(document["dimension"], f"{where}: dimension", 1, error=InvalidKernelError)
    orders = tuple(_integer(document[key], f"{where}: {key}", error=InvalidKernelError) for key in sides.values())
    raw_entries = document["entries"]
    if not isinstance(raw_entries, list):
        raise InvalidKernelError(f"{where}: entries must be a list")
    fields, shaped = frozenset((*sides, "value")), len(raw_entries)
    if not (set(map(type, raw_entries)) <= {dict} and set(map(frozenset, raw_entries)) <= {fields}):
        odd = (k for k, entry in enumerate(raw_entries) if not isinstance(entry, Mapping) or entry.keys() != fields)
        shaped = next(odd, shaped)
    entries = raw_entries[:shaped]
    indices, values = [[entry[name] for entry in entries] for name in sides], [entry["value"] for entry in entries]
    space = HilbertSpace(dimension)  # first: the rows it bounds are int64
    rows = _checked_rows(indices, values, orders, space.dimension, tuple(sides), where=where)
    if shaped < len(raw_entries):  # the entries before it were checked first
        shape = ", ".join(f'"{name}"' for name in sides) + ' and "value"'
        raise InvalidKernelError(f"{where}: entry {shaped + 1} must be an object with exactly {shape}")
    return kind._of(space, orders, *rows)


def save_kernel(tensor: SymmetricTensor, path: str) -> None:
    write_atomic(table_document(tensor), path)


def save_raw(raw: RawTensor, path: str) -> None:
    write_atomic(table_document(raw), path)


def load_raw(source: str | Mapping) -> RawTensor:
    """Read an unsymmetrized contraction from a JSON file path or document."""
    return _parse_table(source, "raw tensor", RawTensor)


def load_kernel(source: str | Mapping) -> SymmetricTensor:
    """Read a kernel from a JSON file path or an already-parsed document."""
    return _parse_table(source, "kernel", SymmetricTensor)


def vector_document(vector: ChaosVector) -> str:
    """Canonical JSON text for a chaos vector manifest with inline kernels."""
    lines = ["{", f'  "dimension": {vector.space.dimension},', '  "groups": [']
    group_blocks = []
    for group in vector.groups:
        element_blocks = []
        for element in group:
            kernel = table_document(element.kernel).rstrip("\n")
            indented = "\n".join("      " + line for line in kernel.split("\n"))
            element_blocks.append(indented)
        body = ",\n".join(element_blocks)
        group_blocks.append(
            f'    {{"order": {group[0].order}, "elements": [\n{body}\n    ]}}'
        )
    lines.append(",\n".join(group_blocks))
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def save_vector(vector: ChaosVector, path: str) -> None:
    write_atomic(vector_document(vector), path)


def load_vector(source: str | Mapping) -> ChaosVector:
    """Read a chaos vector manifest, standardizing each element with normalize.

    Elements are inline kernel documents or paths relative to the manifest file.  A standardized element
    keeps its bits, so a saved vector reloads bit-exactly; a rescale by more than 1e-6 warns of a hand edit.
    """
    document, where = _read_json(source, "vector")
    base_dir = "." if isinstance(source, Mapping) else os.path.dirname(os.path.abspath(source))
    if "groups" not in document or not isinstance(document["groups"], list) or not document["groups"]:
        raise InvalidKernelError(f"{where}: manifest needs a non-empty groups list")
    dimension = document.get("dimension")
    if dimension is not None:
        dimension = _integer(dimension, f"{where}: dimension", 1, error=InvalidKernelError)
    groups = []
    for g, group_doc in enumerate(document["groups"]):
        label = f"{where}: group {g + 1}"
        if not isinstance(group_doc, Mapping) or "order" not in group_doc or "elements" not in group_doc:
            raise InvalidKernelError(f'{label} must be an object with "order" and "elements"')
        order = _integer(group_doc["order"], f"{label}: order", 1, error=InvalidKernelError)
        element_docs = group_doc["elements"]
        if not isinstance(element_docs, list) or not element_docs:
            raise InvalidKernelError(f"{label}: elements must be a non-empty list")
        elements = []
        for e, element_doc in enumerate(element_docs):
            spot = f"{label}, element {e + 1}"
            if isinstance(element_doc, str):
                element_doc = os.path.join(base_dir, element_doc)
            elif not isinstance(element_doc, Mapping):
                raise InvalidKernelError(f"{spot}: element must be a path or an inline kernel")
            kernel = _parse_table(element_doc, spot, SymmetricTensor)
            if kernel.order != order:
                raise InvalidKernelError(
                    f"{spot}: kernel order {kernel.order} does not match group order {order}"
                )
            if dimension is not None and kernel.space.dimension != dimension:
                raise InvalidKernelError(
                    f"{spot}: kernel dimension {kernel.space.dimension} does not match manifest "
                    f"dimension {dimension}"
                )
            element = ChaosElement(kernel)
            try:
                elements.append(normalize(element))
            except DegenerateInputError as error:
                raise DegenerateInputError(f"{spot}: {error}") from None
            scale = 1.0 / math.sqrt(variance(element))
            if abs(scale - 1.0) > 1e-6:
                warnings.warn(f"{spot}: rescaled by {scale:.6g} to unit variance", stacklevel=2)
        groups.append(elements)
    return ChaosVector(groups)
