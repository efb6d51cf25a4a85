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
import json
import math
import os
import warnings
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from .chaos import STANDARDIZED_TOL, ChaosElement, variance
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


# The index sides of each entry table, with the document key of each side's order.
_SIDES = {SymmetricTensor: {"index": "order"}, RawTensor: {"left": "left_order", "right": "right_order"}}


def table_document(table: SymmetricTensor | RawTensor) -> str:
    """Canonical JSON text of a kernel or raw entry table (entries in order, 17-digit floats)."""
    sides = _SIDES[type(table)]
    lines = ["{", f'  "dimension": {table.space.dimension},']
    lines += [f'  "{key}": {getattr(table, key)},' for key in sides.values()]
    rows = []
    for key, value in table.entries.items():
        indices = [key] if len(sides) == 1 else key
        cells = "".join(f'"{name}": [{", ".join(map(str, index))}], ' for name, index in zip(sides, indices))
        rows.append(f'    {{{cells}"value": {format_float(value)}}}')
    lines += ['  "entries": [', ",\n".join(rows), "  ]"] if rows else ['  "entries": []']
    return "\n".join([*lines, "}"]) + "\n"


def write_atomic(text: str | Iterable[str], path: str) -> None:
    """Write text, or its chunks in order, to path via a temporary file and a rename.

    A failed write, including an exception raised while producing a chunk,
    leaves neither a partial file nor the temporary file behind.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
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
    """Read a chaos vector manifest, standardizing each element.

    Elements may be inline kernel documents or paths relative to the
    manifest file.  Any element whose variance is not exactly one is
    rescaled; a warning fires when the rescale factor strays from one by
    more than 1e-6, since that usually means the file was edited by hand.
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
            var = variance(element)
            if var <= 0.0:
                raise DegenerateInputError(f"{spot}: kernel has zero norm")
            # only touch kernels that actually miss the standardization
            # tolerance; rescaling by 1/sqrt(1 +- eps) would flip last bits
            # and break bit-exact round trips of already-standard files
            if abs(var - 1.0) > STANDARDIZED_TOL:
                scale = 1.0 / math.sqrt(var)
                if abs(scale - 1.0) > 1e-6:
                    warnings.warn(
                        f"{spot}: rescaled by {scale:.6g} to unit variance", stacklevel=2
                    )
                element = ChaosElement(kernel.scaled(scale))
            elements.append(element)
        groups.append(elements)
    return ChaosVector(groups)
