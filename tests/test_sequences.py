"""Kernel families: exact witness formulas, and the file formats.

For the overlap families the shared coordinate carries weight delta in
every element, the element bodies are disjoint across groups, and every
cross contraction reduces to the single shared term:

    ||f (x)_r g|| = delta_f delta_g / sqrt(q_f! q_g!)   for every r,

with Cov(F^2, G^2) = K delta^4 where K depends only on the order pair
(K = 14 for (2,2): verified here against the Isserlis oracle at small n).
With delta_n = theta n^(-1/4) these give exact -1/2 and -1 log-log slopes.
"""

import json
import math
import os
import tracemalloc
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

import wienerchaos as wc
from wienerchaos import sequences, tensor
from wienerchaos.chaos import isserlis_moment
from wienerchaos.exceptions import (
    DegenerateInputError,
    InvalidKernelError,
    ValidationError,
)
from wienerchaos.sequences import (
    FAMILIES,
    format_rows,
    load_raw,
    save_raw,
    table_document,
    vector_document,
    write_atomic,
)
from wienerchaos.tensor import HilbertSpace, RawTensor, SymmetricTensor


def cross_witnesses(vector):
    report = wc.criterion_check(vector)
    return report.witness_norm, report.witness_cov


def test_family_spec_validation():
    with pytest.raises(ValidationError):
        wc.FamilySpec("unknown", (2, 2), (1, 1))
    with pytest.raises(ValidationError):
        wc.FamilySpec("disjoint", (2,), (1,))
    with pytest.raises(ValidationError):
        wc.FamilySpec("disjoint", (2, 2), (1,))
    with pytest.raises(ValidationError):
        wc.FamilySpec("disjoint", (1, 2), (1, 1))  # orders must not increase
    with pytest.raises(ValidationError):
        wc.FamilySpec("disjoint", (2, 2), (1, 0))
    with pytest.raises(ValidationError):
        wc.FamilySpec("disjoint", (2, 2), (1, 1), theta=1.5)
    with pytest.raises(ValidationError):
        wc.FamilySpec("disjoint", (2, 2), (1, 1), theta=True)  # bools are not weights
    with pytest.raises(ValidationError):
        wc.FamilySpec("mixed_orders", (2, 2), (1, 1))  # needs q1 > q2
    with pytest.raises(ValidationError):
        wc.generate(wc.FamilySpec("disjoint", (2, 2), (1, 1)), 0)
    with pytest.raises(ValidationError):
        wc.generate(wc.FamilySpec("disjoint", (2, 2), (3, 1)), 2)  # n < group size
    assert FAMILIES == ("disjoint", "vanishing_overlap", "persistent_overlap", "mixed_orders")


BATCH_FIELDS = {"seed": 0, "dimension": 3, "count": 10_000, "block_size": 100}


@pytest.mark.parametrize(
    "build",
    [
        lambda: wc.FamilySpec("disjoint", (True, 1), (1, 1)),
        lambda: wc.FamilySpec("disjoint", (1, 1), (1, True)),
        lambda: wc.generate(wc.FamilySpec("disjoint", (2, 2), (1, 1)), True),
        lambda: wc.sample(True, 3, 10_000),
    ]
    + [lambda field=field: wc.SampleBatch(**{**BATCH_FIELDS, field: True}) for field in BATCH_FIELDS],
    ids=["order", "size", "n", "sample-seed", *(f"batch-{field}" for field in BATCH_FIELDS)],
)
def test_bools_are_not_integers(build):
    # True == 1 passes an isinstance(x, int) check; every count, order,
    # size and seed rejects it where it enters
    with pytest.raises(ValidationError):
        build()


def test_dimension_growth():
    spec = wc.FamilySpec("vanishing_overlap", (2, 2), (1, 1))
    assert wc.generate(spec, 4).space.dimension == 9  # d*n + 1
    assert wc.generate(spec, 16).space.dimension == 33
    persistent = wc.FamilySpec("persistent_overlap", (2, 2), (2, 3))
    assert wc.generate(persistent, 4).space.dimension == 6  # sum sizes + 1
    assert wc.generate(persistent, 64).space.dimension == 6


def test_all_families_standardized():
    for family in FAMILIES:
        orders = (3, 2) if family == "mixed_orders" else (2, 2)
        spec = wc.FamilySpec(family, orders, (2, 1), theta=0.7)
        v = wc.generate(spec, 8)
        for element in v.elements:
            assert abs(wc.variance(element) - 1.0) < 1e-12, family


def test_disjoint_crosses_are_bitwise_zero():
    v = wc.generate(wc.FamilySpec("disjoint", (2, 2), (2, 2)), 8)
    norm, cov = cross_witnesses(v)
    assert norm == 0.0 and cov == 0.0


def test_vanishing_overlap_exact_witnesses():
    theta = 0.5
    spec = wc.FamilySpec("vanishing_overlap", (2, 2), (1, 1), theta=theta)
    for n in (4, 16, 64):
        delta2 = theta**2 / math.sqrt(n)
        norm, cov = cross_witnesses(wc.generate(spec, n))
        assert abs(norm - delta2 / 2) < 1e-14, n
        assert abs(cov - 14 * delta2**2) < 1e-12, n


def test_exact_log_log_slopes():
    spec = wc.FamilySpec("vanishing_overlap", (2, 2), (1, 1), theta=0.5)
    ns = (4, 16, 64, 256)
    norms, covs = zip(*(cross_witnesses(wc.generate(spec, n)) for n in ns))
    slope_norm = np.polyfit(np.log(ns), np.log(norms), 1)[0]
    slope_cov = np.polyfit(np.log(ns), np.log(covs), 1)[0]
    assert abs(slope_norm + 0.5) < 1e-10
    assert abs(slope_cov + 1.0) < 1e-10


def test_persistent_overlap_constant_witnesses():
    spec = wc.FamilySpec("persistent_overlap", (2, 2), (1, 1), theta=0.5)
    base_norm, base_cov = cross_witnesses(wc.generate(spec, 1))
    assert abs(base_norm - 0.5**2 / 2) < 1e-14
    assert abs(base_cov - 14 * 0.5**4) < 1e-12
    for n in (4, 32, 256):
        norm, cov = cross_witnesses(wc.generate(spec, n))
        assert norm == base_norm and cov == base_cov


def test_mixed_orders_witnesses():
    theta = 0.5
    spec = wc.FamilySpec("mixed_orders", (3, 2), (1, 1), theta=theta)
    for n in (4, 16):
        delta2 = theta**2 / math.sqrt(n)
        norm, cov = cross_witnesses(wc.generate(spec, n))
        assert abs(norm - delta2 / math.sqrt(12)) < 1e-14
        assert abs(cov - 30 * delta2**2) < 1e-12


def test_contraction_norms_equal_for_all_r():
    # single shared coordinate: every pairing depth sees the same mass
    v = wc.generate(wc.FamilySpec("vanishing_overlap", (3, 3), (1, 1), theta=0.4), 4)
    report = wc.criterion_check(v)
    cross = [row for row in report.pairs if row.cross][0]
    assert max(cross.norms) - min(cross.norms) < 1e-15


def test_family_covariance_against_isserlis_oracle():
    # oracle guard caps dimension at 6, so compare at n = 2 (N = 5)
    for family, orders, expected_K in (
        ("vanishing_overlap", (2, 2), 14.0),
        ("mixed_orders", (3, 2), 30.0),
    ):
        spec = wc.FamilySpec(family, orders, (1, 1), theta=0.6)
        v = wc.generate(spec, 2)
        F, G = v.elements
        exact = wc.cov_squares(F, G)
        brute = isserlis_moment([F, F, G, G]) - isserlis_moment([F, F]) * isserlis_moment([G, G])
        assert abs(exact - brute) < 1e-10
        delta2 = 0.6**2 / math.sqrt(2)
        assert abs(exact - expected_K * delta2**2) < 1e-12


def test_theta_zero_reduces_to_disjoint():
    v = wc.generate(wc.FamilySpec("vanishing_overlap", (2, 2), (1, 1), theta=0.0), 4)
    norm, cov = cross_witnesses(v)
    assert norm == 0.0 and cov == 0.0


def test_theta_one_at_n_one_is_pure_shared():
    v = wc.generate(wc.FamilySpec("vanishing_overlap", (2, 2), (1, 1), theta=1.0), 1)
    for element in v.elements:
        assert set(element.kernel.entries) == {(3, 3)}
        assert abs(wc.variance(element) - 1.0) < 1e-14


def _entrywise_vector(spec, n):
    """The family built entry by entry through the public constructor: the reference for generate."""
    if spec.family == "persistent_overlap":
        shared = sum(spec.sizes) + 1
        coordinates = iter(range(1, shared))
        slices = [[[next(coordinates)] for _ in range(m)] for m in spec.sizes]
        weights = [(math.sqrt((1.0 - spec.theta**2) / math.factorial(q)), spec.theta / math.sqrt(math.factorial(q)))
                   for q in spec.orders]
    else:
        shared = len(spec.orders) * n + 1
        delta = 0.0 if spec.family == "disjoint" else spec.theta * n**-0.25
        slices = [[range(j * n + k * (n // m) + 1, j * n + (k + 1) * (n // m) + 1) for k in range(m)]
                  for j, m in enumerate(spec.sizes)]
        weights = [(math.sqrt((1.0 - delta * delta) / ((n // m) * math.factorial(q))), delta / math.sqrt(math.factorial(q)))
                   for q, m in zip(spec.orders, spec.sizes)]
    groups = []
    for q, group, (body, tip) in zip(spec.orders, slices, weights):
        elements = []
        for coordinates in group:
            entries = {(c,) * q: body for c in coordinates}
            if tip != 0.0:
                entries[(shared,) * q] = tip
            elements.append(SymmetricTensor(HilbertSpace(shared), q, entries))
        groups.append(elements)
    return groups


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize(
    "family, orders, sizes",
    [
        ("disjoint", (2, 2), (1, 2)),
        ("vanishing_overlap", (2, 2, 1), (2, 1, 3)),
        ("persistent_overlap", (3, 2), (2, 3)),
        ("mixed_orders", (3, 2), (1, 2)),
    ],
)
def test_generate_equals_the_entrywise_construction(family, orders, sizes, theta):
    spec = wc.FamilySpec(family, orders, sizes, theta=theta)
    for n in (3, 4, 17, 64):
        got = [[element.kernel for element in group] for group in wc.generate(spec, n).groups]
        assert got == _entrywise_vector(spec, n)


def test_generate_slices_block_coordinates():
    v = wc.generate(wc.FamilySpec("disjoint", (2, 2), (2, 2)), 6)
    # group 1 occupies coordinates 1..6, group 2 occupies 7..12, three per element
    supports = [sorted({i for idx in el.kernel.entries for i in idx}) for el in v.elements]
    assert supports[0] == [1, 2, 3]
    assert supports[1] == [4, 5, 6]
    assert supports[2] == [7, 8, 9]
    assert supports[3] == [10, 11, 12]


# -- file formats --


def test_kernel_round_trip_bit_exact(tmp_path):
    sp = HilbertSpace(5)
    k = SymmetricTensor(sp, 3, {(1, 2, 5): -0.12345678901234567, (2, 2, 2): 1 / 3})
    path = os.path.join(tmp_path, "k.json")
    wc.save_kernel(k, path)
    back = wc.load_kernel(path)
    assert back == k
    assert list(back.entries.values()) == list(k.entries.values())
    # canonical text is reproducible
    wc.save_kernel(back, os.path.join(tmp_path, "k2.json"))
    assert Path(path).read_text() == Path(tmp_path, "k2.json").read_text()


def test_kernel_document_is_plain_json():
    sp = HilbertSpace(2)
    k = SymmetricTensor(sp, 2, {(1, 2): 0.25})
    doc = json.loads(table_document(k))
    assert doc["dimension"] == 2
    assert doc["order"] == 2
    assert doc["entries"] == [{"index": [1, 2], "value": 0.25}]


def test_empty_kernel_document():
    sp = HilbertSpace(2)
    k = SymmetricTensor(sp, 2, {})
    assert wc.load_kernel(json.loads(table_document(k))) == k


def test_load_kernel_error_cases(tmp_path):
    def rejects(document, fragment):
        with pytest.raises(InvalidKernelError) as err:
            wc.load_kernel(document)
        assert fragment in str(err.value), str(err.value)

    rejects({"order": 1, "entries": []}, "dimension")
    rejects({"dimension": 2, "entries": []}, "order")
    rejects({"dimension": 2, "order": 1}, "entries")
    rejects({"dimension": 0, "order": 1, "entries": []}, "dimension")
    rejects({"dimension": 2, "order": -1, "entries": []}, "order")
    rejects({"dimension": 2.0, "order": 1, "entries": []}, "kernel: dimension must be an integer >= 1, got 2.0")
    (tmp_path / "list.json").write_text("[1, 2]")
    rejects(str(tmp_path / "list.json"), "list.json: document must be a JSON object")
    rejects({"dimension": 2, "order": 1, "entries": {}}, "list")
    rejects({"dimension": 2, "order": 1, "entries": [{"index": [1]}]}, "entry 1")
    rejects(
        {"dimension": 2, "order": 2, "entries": [{"index": [2, 1], "value": 1.0}]},
        "not sorted ascending",
    )
    rejects(
        {"dimension": 2, "order": 2, "entries": [{"index": [1, 3], "value": 1.0}]},
        "range 1..2",
    )
    rejects(
        {"dimension": 2, "order": 2, "entries": [{"index": [1], "value": 1.0}]},
        "length 1",
    )
    rejects(
        {"dimension": 2, "order": 1, "entries": [{"index": [1], "value": "x"}]},
        "finite",
    )
    rejects(
        {
            "dimension": 2,
            "order": 1,
            "entries": [{"index": [1], "value": 1.0}, {"index": [1], "value": 2.0}],
        },
        "duplicate",
    )
    # file-level errors carry the path
    missing = os.path.join(tmp_path, "missing.json")
    with pytest.raises(InvalidKernelError) as err:
        wc.load_kernel(missing)
    assert "missing.json" in str(err.value)
    bad = os.path.join(tmp_path, "bad.json")
    with open(bad, "w") as handle:
        handle.write("{not json")
    with pytest.raises(InvalidKernelError) as err:
        wc.load_kernel(bad)
    assert "bad.json" in str(err.value)


# Each rule of the one entry check, as (order-2 index, value) over N = 2, with the message it gives.
ENTRY_RULES = {
    "non-int": ((1, 1.5), 1.0, "must be a tuple of integers"),
    "bool-index": ((True, 2), 1.0, "must be a tuple of integers"),
    "length": ((1,), 1.0, "has length 1, expected 2"),
    "range": ((1, 3), 1.0, "leaves the range 1..2"),
    "huge-int-index": ((1, 2**70), 1.0, "leaves the range 1..2"),
    "unsorted": ((2, 1), 1.0, "not sorted ascending"),
    "string-value": ((1, 2), "x", "not a finite number"),
    "bool-value": ((1, 2), True, "not a finite number"),
    "non-finite": ((1, 2), math.inf, "not a finite number"),
    "huge-int-value": ((1, 2), 10**400, "not a finite number"),
}


@pytest.mark.parametrize("rule", ENTRY_RULES)
def test_each_entry_rule_holds_at_every_entry_point(rule):
    index, value, fragment = ENTRY_RULES[rule]
    sp = HilbertSpace(2)
    builders = [
        lambda: SymmetricTensor(sp, 2, {(1, 1): 0.5, index: value}),
        lambda: RawTensor(sp, 2, 1, {((1, 1), (1,)): 0.5, (index, (2,)): value}),
        lambda: wc.symmetrize({(1, 1): 0.5, index: value}, sp, 2),
    ]
    if rule == "unsorted":  # symmetrize takes full indices in any order
        assert builders.pop()().entries == {(1, 1): 0.5, (1, 2): 0.5}
    for build in builders:
        with pytest.raises(ValidationError, match=fragment):
            build()
    kernel = {"dimension": 2, "order": 2, "entries": [{"index": [1, 1], "value": 0.5}]}
    kernel["entries"].append({"index": list(index), "value": value})
    raw = {"dimension": 2, "left_order": 2, "right_order": 1, "entries": [{"left": [1, 1], "right": [1], "value": 0.5}]}
    raw["entries"].append({"left": list(index), "right": [2], "value": value})
    for load, document in ((wc.load_kernel, kernel), (load_raw, raw)):
        with pytest.raises(InvalidKernelError, match=f"entry 2: .*{fragment}"):
            load(document)


def test_loaders_reject_a_repeated_row():
    kernel = {"dimension": 2, "order": 2, "entries": [{"index": [1, 2], "value": v} for v in (1.0, 2.0)]}
    with pytest.raises(InvalidKernelError, match=r"kernel: entry 2: duplicate index \[1, 2\]"):
        wc.load_kernel(kernel)
    raw = {"dimension": 2, "left_order": 1, "right_order": 0,
           "entries": [{"left": [1], "right": [], "value": v} for v in (1.0, 2.0)]}
    with pytest.raises(InvalidKernelError, match=r"raw tensor: entry 2: duplicate left \[1\], right \[\]"):
        load_raw(raw)


def test_the_first_offending_entry_is_reported():
    # entry 2 is unsorted, entry 4 out of range, entry 5 repeats entry 1
    entries = [{"index": i, "value": 1.0} for i in ([1, 1], [2, 1], [1, 2], [1, 3], [1, 1])]

    def message():
        with pytest.raises(InvalidKernelError) as err:
            wc.load_kernel({"dimension": 2, "order": 2, "entries": entries})
        return str(err.value)

    assert message() == "kernel: entry 2: index [2, 1] is not sorted ascending"
    entries[3]["index"] = [3, 1]  # out of range and unsorted: the range rule comes first
    assert message() == "kernel: entry 2: index [2, 1] is not sorted ascending"
    entries[1]["index"] = [2, 2]
    assert message() == "kernel: entry 4: index [3, 1] leaves the range 1..2"
    entries[3]["index"] = [1, 2]
    assert message() == "kernel: entry 4: duplicate index [1, 2]"
    # a misshapen entry after an offending one does not hide it
    entries[1]["index"], entries[2] = [2, 1], {"index": [1, 2]}
    assert message() == "kernel: entry 2: index [2, 1] is not sorted ascending"
    entries[1]["index"] = [2, 2]
    assert message() == 'kernel: entry 3 must be an object with exactly "index" and "value"'
    with pytest.raises(ValidationError, match=r"^index \(2, 1\) is not sorted ascending$"):
        SymmetricTensor(HilbertSpace(2), 2, {(1, 1): 1.0, (2, 1): 1.0, (1, 3): 1.0})


def _first_offence(indices, values, order, dimension):
    """(entry, message fragment) of the first rule broken, entry by entry: the reference for the array check."""
    seen = set()
    for k, (index, value) in enumerate(zip(indices, values)):
        if not isinstance(index, list) or any(not isinstance(c, int) or isinstance(c, bool) for c in index):
            return k, "must be a tuple of integers"
        if len(index) != order:
            return k, "has length"
        if any(not 1 <= c <= dimension for c in index):
            return k, "leaves the range"
        if any(a > b for a, b in zip(index, index[1:])):
            return k, "is not sorted ascending"
        try:
            finite = isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            return k, "not a finite number"
        if tuple(index) in seen:
            return k, "duplicate"
        seen.add(tuple(index))
    return None


def test_the_array_check_matches_an_entry_by_entry_reference():
    rng = np.random.default_rng(12)
    odd_coordinates = [0, 4, -1, 2**70, 1.0, True, "1"]
    odd_values = [True, "x", None, math.nan, -math.inf, 10**400, [1.0]]
    for _ in range(400):
        order, dimension = int(rng.integers(0, 5)), int(rng.integers(1, 7))
        indices, values = [], []
        for _ in range(int(rng.integers(0, 7))):
            index = sorted(int(c) for c in rng.integers(1, dimension + 1, order))
            roll = rng.random()
            if roll < 0.05:
                index = index[:-1] if index else [1]
            elif roll < 0.1:
                index = [index[i] for i in rng.permutation(order)]
            elif roll < 0.15 and index:
                index[int(rng.integers(len(index)))] = odd_coordinates[int(rng.integers(len(odd_coordinates)))]
            elif roll < 0.17:
                index = "12"
            indices.append(index)
            values.append(odd_values[int(rng.integers(len(odd_values)))] if rng.random() < 0.05 else float(rng.normal()))
        document = {"dimension": dimension, "order": order,
                    "entries": [{"index": i, "value": v} for i, v in zip(indices, values)]}
        offence = _first_offence(indices, values, order, dimension)
        if offence is None:
            kernel = wc.load_kernel(document)
            assert kernel == SymmetricTensor(HilbertSpace(dimension), order, dict(zip(map(tuple, indices), values)))
            continue
        with pytest.raises(InvalidKernelError) as err:
            wc.load_kernel(document)
        k, fragment = offence
        assert str(err.value).startswith(f"kernel: entry {k + 1}: ") and fragment in str(err.value), (document, offence)


def test_raw_round_trip(tmp_path):
    sp = HilbertSpace(3)
    raw = RawTensor(sp, 2, 1, {((1, 2), (3,)): 0.5, ((1, 1), (1,)): -2.0})
    path = os.path.join(tmp_path, "raw.json")
    save_raw(raw, path)
    back = load_raw(path)
    assert back == raw
    assert table_document(back) == table_document(raw)


def test_load_raw_error_cases():
    base = {"dimension": 2, "left_order": 1, "right_order": 1}
    with pytest.raises(InvalidKernelError):
        load_raw({**base, "entries": [{"left": [1], "right": [2, 1], "value": 1.0}]})
    with pytest.raises(InvalidKernelError):
        load_raw({**base, "entries": [{"left": [3], "right": [1], "value": 1.0}]})
    with pytest.raises(InvalidKernelError):
        load_raw(
            {
                **base,
                "entries": [
                    {"left": [1], "right": [2], "value": 1.0},
                    {"left": [1], "right": [2], "value": 2.0},
                ],
            }
        )
    with pytest.raises(InvalidKernelError):
        load_raw({"dimension": 2, "left_order": 1, "entries": []})


def test_vector_round_trip(tmp_path):
    v = wc.generate(wc.FamilySpec("vanishing_overlap", (3, 2), (2, 1), theta=0.3), 4)
    path = os.path.join(tmp_path, "v.json")
    wc.save_vector(v, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # round trip must not need rescaling
        back = wc.load_vector(path)
    assert back.orders == v.orders and back.sizes == v.sizes
    for a, b in zip(v.elements, back.elements):
        assert a.kernel.entries == b.kernel.entries
    # canonical text reproducible
    assert vector_document(back) == vector_document(v)


def test_normalize_returns_a_loaded_element_itself():
    # load_vector standardizes through normalize, so a loaded manifest is already normalized
    v = wc.generate(wc.FamilySpec("vanishing_overlap", (3, 2), (2, 1), theta=0.3), 4)
    for element in wc.load_vector(json.loads(vector_document(v))).elements:
        assert wc.normalize(element) is element


def test_vector_manifest_with_element_paths(tmp_path):
    sp = HilbertSpace(2)
    wc.save_kernel(SymmetricTensor(sp, 1, {(1,): 1.0}), os.path.join(tmp_path, "a.json"))
    wc.save_kernel(SymmetricTensor(sp, 1, {(2,): 1.0}), os.path.join(tmp_path, "b.json"))
    manifest = {
        "dimension": 2,
        "groups": [
            {"order": 1, "elements": ["a.json"]},
            {"order": 1, "elements": ["b.json"]},
        ],
    }
    path = os.path.join(tmp_path, "v.json")
    with open(path, "w") as handle:
        json.dump(manifest, handle)
    v = wc.load_vector(path)
    assert v.d == 2
    assert v.elements[0].kernel.entries == {(1,): 1.0}


def test_load_vector_rescales_with_warning():
    doc = {
        "groups": [
            {"order": 1, "elements": [{"dimension": 2, "order": 1, "entries": [{"index": [1], "value": 2.0}]}]},
            {"order": 1, "elements": [{"dimension": 2, "order": 1, "entries": [{"index": [2], "value": 1.0}]}]},
        ]
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        v = wc.load_vector(doc)
    messages = [str(w.message) for w in caught]
    assert any("rescaled" in m and "group 1, element 1" in m for m in messages)
    assert abs(wc.variance(v.elements[0]) - 1.0) < 1e-14


@pytest.mark.parametrize("loader", [wc.load_kernel, load_raw, wc.load_vector])
@pytest.mark.parametrize("source", [[], [1], None, 1.5])
def test_loaders_reject_sources_that_are_neither_documents_nor_paths(loader, source):
    with pytest.raises(InvalidKernelError, match="file path"):
        loader(source)


def test_load_vector_error_cases(tmp_path):
    def rejects(document, fragment):
        with pytest.raises(InvalidKernelError) as err:
            wc.load_vector(document)
        assert fragment in str(err.value), str(err.value)

    rejects({}, "groups")
    rejects({"groups": []}, "non-empty")
    rejects({"groups": [{"elements": []}]}, "order")
    element = {"dimension": 2, "order": 1, "entries": [{"index": [1], "value": 1.0}]}
    rejects({"dimension": "2", "groups": [{"order": 1, "elements": [element]}]}, "vector: dimension must be an integer")
    rejects({"groups": [{"order": 1.0, "elements": [element]}]}, "vector: group 1: order must be an integer >= 1")
    rejects({"groups": [{"order": 1, "elements": []}]}, "non-empty")
    rejects({"groups": [{"order": 1, "elements": [7]}]}, "path or an inline kernel")
    rejects(
        {
            "dimension": 3,
            "groups": [
                {"order": 1, "elements": [{"dimension": 2, "order": 1, "entries": [{"index": [1], "value": 1.0}]}]}
            ],
        },
        "does not match manifest",
    )
    rejects(
        {
            "groups": [
                {"order": 2, "elements": [{"dimension": 2, "order": 1, "entries": [{"index": [1], "value": 1.0}]}]}
            ]
        },
        "does not match group order",
    )
    zero = {
        "groups": [
            {"order": 1, "elements": [{"dimension": 2, "order": 1, "entries": []}]},
            {"order": 1, "elements": [{"dimension": 2, "order": 1, "entries": [{"index": [2], "value": 1.0}]}]},
        ]
    }
    with pytest.raises(DegenerateInputError):
        wc.load_vector(zero)


def test_atomic_write_leaves_no_temp_file(tmp_path):
    sp = HilbertSpace(2)
    path = os.path.join(tmp_path, "k.json")
    wc.save_kernel(SymmetricTensor(sp, 1, {(1,): 1.0}), path)
    assert os.listdir(tmp_path) == ["k.json"]


def test_failed_atomic_write_removes_its_temp_file(tmp_path):
    # a lone surrogate cannot be encoded as UTF-8, so the write fails after
    # the temporary file was opened
    path = os.path.join(tmp_path, "out.csv")
    with pytest.raises(UnicodeEncodeError):
        write_atomic("abc\ud800", path)
    assert os.listdir(tmp_path) == []


def test_atomic_writes_keep_existing_files_and_the_plain_mode(tmp_path):
    # each write opens its own new temporary file: a user's `<out>.tmp` keeps
    # its bytes, a write started while another one to the same path is open
    # does not share its file, and the output gets the mode a plain
    # open(path, "w") gives, not mkstemp's 0600
    path = str(tmp_path / "out.json")
    (tmp_path / "out.json.tmp").write_bytes(b"a user's notes\n")

    def chunks():
        yield "first "
        write_atomic("second\n", path)
        yield "first\n"

    old = os.umask(0o022)
    try:
        write_atomic(chunks(), path)
        with open(tmp_path / "plain", "w"):
            pass
    finally:
        os.umask(old)
    assert (tmp_path / "out.json.tmp").read_bytes() == b"a user's notes\n"
    assert Path(path).read_text() == "first first\n"
    assert sorted(os.listdir(tmp_path)) == ["out.json", "out.json.tmp", "plain"]
    assert os.stat(path).st_mode == os.stat(tmp_path / "plain").st_mode == 0o100644


def test_seventeen_digit_floats_survive():
    values = [1 / 3, math.pi, 1e-300, -math.sqrt(2), 5.0e-324]
    sp = HilbertSpace(1)
    for value in values:
        k = SymmetricTensor(sp, 1, {(1,): value})
        back = wc.load_kernel(json.loads(table_document(k)))
        assert back.entries[(1,)] == value, value


def percent_rows(table: np.ndarray) -> str:
    """The reference: each row through one "%.17g" template, as format_float writes each cell."""
    template = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return "".join(template % tuple(row) for row in table.tolist())


def eighteenth_digit_ties(rng: np.random.Generator) -> np.ndarray:
    """Doubles whose exact decimal expansion has 18 significant digits and ends in 5."""
    values = []
    for digits in range(1, 16):  # N + j / 2^f: digits integer digits and f = 18 - digits decimals
        f = 18 - digits
        whole = rng.integers(10 ** (digits - 1), 10**digits, 40)
        values += (whole + (2 * rng.integers(0, 2 ** (f - 1), 40) + 1) / 2.0**f).tolist()
    for zeros in range(4):  # j / 2^f below 1, with `zeros` zeros after the point and f = 18 + zeros
        f = 18 + zeros
        low = int(10.0 ** -(zeros + 1) * 2**f) // 2
        values += ((2 * rng.integers(low, 2 ** (f - 1) // 10**zeros, 40) + 1) / 2.0**f).tolist()
    for value in values:
        exact = Decimal(value).as_tuple()
        assert len(exact.digits) == 18 and exact.digits[-1] == 5, value
    return np.array(values)


def formatter_cells() -> np.ndarray:
    rng = np.random.default_rng(26)
    bits = rng.integers(0, 2**64, 20_000, dtype=np.uint64, endpoint=False)
    # the same with exponents in 2^-14..2^54, where "%.17g" writes no exponent
    fixed = rng.integers(0, 2**52, 20_000, dtype=np.uint64) | (rng.integers(1009, 1077, 20_000).astype(np.uint64) << 52)
    decades = np.array([float(f"1e{e}") for e in range(-330, 311)])
    powers = np.array([10.0**e for e in range(-5, 18)] + [1e-4, 1e16])
    neighbours = np.concatenate([np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310]
    integers = [0.0, 1.0, 2.0**53, -7.0]
    cells = np.concatenate(
        [bits.view(np.float64), fixed.view(np.float64), decades, powers, neighbours, special, integers]
    )
    ties = eighteenth_digit_ties(rng)
    return np.concatenate([cells, ties, -ties, -cells[::7]])


@pytest.mark.parametrize("shape", [(1, -1), (-1, 1), (-1, 513)], ids=["one-row", "one-column", "513-columns"])
def test_format_rows_is_percent_17g_byte_for_byte(shape):
    # every cell is format_float's text, also across the exact-digit rule's
    # edges: the nearest doubles around each power of ten, ties at the 18th
    # digit, zeros, subnormals, nan and inf, and whole floats as "%d" writes them
    cells = formatter_cells()
    cells = cells[: len(cells) // 513 * 513]
    table = cells.reshape(shape)
    assert format_rows(table) == percent_rows(table)
    assert format_rows(table[:0]) == ""


def test_format_rows_peak_memory():
    # a 15,625 x 9 block is formatted 2^12 cells at a time: the peak is the
    # pieces and the text they join into, plus one piece's records, under 1 MiB
    table = np.random.default_rng(5).standard_normal((15_625, 9))
    format_rows(table[:1])  # the tables are built once per process
    tracemalloc.start()
    try:
        text = format_rows(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(text) + (1 << 20), (peak, len(text))


def _count_entry_checks(monkeypatch) -> list:
    """Record the entry count of every call of the one entry check, from the tensor module or a loader."""
    calls = []
    check = tensor._checked_rows

    def counting(sides, values, *args, **kwargs):
        calls.append(len(values))
        return check(sides, values, *args, **kwargs)

    monkeypatch.setattr(tensor, "_checked_rows", counting)
    monkeypatch.setattr(sequences, "_checked_rows", counting)
    return calls


@pytest.mark.parametrize("family, orders, n", [("vanishing_overlap", (2, 2), 256), ("mixed_orders", (3, 2), 128)])
def test_criterion_check_does_not_recheck_indices(monkeypatch, family, orders, n):
    # generated kernels are package-built, so neither generate nor the criterion checks an entry
    calls = _count_entry_checks(monkeypatch)
    wc.criterion_check(wc.generate(wc.FamilySpec(family, orders, (1, 1)), n))
    assert calls == []


def test_load_vector_checks_each_index_once(monkeypatch):
    # one whole-array check per kernel, covering each of its entries
    vector = wc.generate(wc.FamilySpec("vanishing_overlap", (2, 2), (1, 1)), 256)
    document = json.loads(vector_document(vector))
    calls = _count_entry_checks(monkeypatch)
    loaded = wc.load_vector(document)
    assert calls == [len(element.kernel.entries) for element in loaded.elements]
    assert sum(calls) == 514


def test_load_vector_computes_each_variance_once(monkeypatch):
    # the loader's rescale test and the vector's standardization check share
    # one inner(f, f) per element; a rescaled element's new kernel gets its own
    from wienerchaos import chaos

    vector = wc.generate(wc.FamilySpec("vanishing_overlap", (2, 2), (2, 1)), 16)
    document = json.loads(vector_document(vector))
    document["groups"][1]["elements"][0]["entries"][0]["value"] *= 2.0
    calls = []
    inner = chaos.inner

    def counting(f, g):
        assert f is g
        calls.append(f)
        return inner(f, g)

    monkeypatch.setattr(chaos, "inner", counting)
    with pytest.warns(UserWarning, match="group 2, element 1: rescaled"):
        loaded = wc.load_vector(document)
    # the two standard kernels, the third element's file kernel, then its rescaled kernel
    assert [id(kernel) for kernel in calls[:2] + calls[3:]] == [id(element.kernel) for element in loaded.elements]
    assert len({id(kernel) for kernel in calls}) == len(calls) == 4
