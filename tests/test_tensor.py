"""Sparse tensor calculus against dense brute-force oracles.

Every sparse operation is replayed on the dense array it represents:
symmetrization as an explicit average over axis permutations, contraction
as np.tensordot over the trailing axes.  The sparse side must match to
float accuracy entry by entry, not just in norm.  A third oracle, the
scalar dict-of-tuples calculus below, replays the array path term by term
in the same order, so there the match is exact to the bit.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from wienerchaos import FamilySpec, criterion_check, generate, tensor
from wienerchaos.exceptions import ResourceLimitError, ValidationError
from wienerchaos.tensor import (
    MAX_ORDER,
    HilbertSpace,
    RawTensor,
    SymmetricTensor,
    contract,
    contract_sym,
    inner,
    multiplicity,
    occupation,
    symmetrize,
)


def dense_symmetrize(arr):
    """Average of arr over all axis permutations."""
    order = arr.ndim
    total = np.zeros_like(arr)
    for perm in itertools.permutations(range(order)):
        total += np.transpose(arr, perm)
    return total / math.factorial(order)


def dense_contract(fd, gd, r):
    """Pair the last r axes of f with the last r axes of g."""
    if r == 0:
        return np.multiply.outer(fd, gd)
    axes_f = list(range(fd.ndim - r, fd.ndim))
    axes_g = list(range(gd.ndim - r, gd.ndim))
    return np.tensordot(fd, gd, axes=(axes_f, axes_g))


def _submultisets(occ, r):
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


def _stored(acc):
    """Sorted entries with exact zeros dropped, as the tensors keep them."""
    return {key: acc[key] for key in sorted(acc) if acc[key] != 0.0}


def dict_contract(f, g, r):
    """Entries of f (x)_r g, one Python float term at a time: f entry, sub, then g entry."""
    by_sub = {}
    for kg, vg in g.items():
        for sub, rest in _submultisets(occupation(kg), r):
            by_sub.setdefault(sub, []).append((rest, vg))
    out = {}
    for kf, vf in f.items():
        for sub, rest_f in _submultisets(occupation(kf), r):
            weight = multiplicity(sub) * vf
            for rest_g, vg in by_sub.get(sub, []):
                key = (rest_f, rest_g)
                out[key] = out.get(key, 0.0) + weight * vg
    return _stored(out)


def dict_raw_norm(entries):
    total = 0.0
    for (left, right), value in entries.items():
        total += multiplicity(left) * multiplicity(right) * value * value
    return math.sqrt(total)


def dict_symmetrized(entries):
    acc = {}
    for (left, right), value in entries.items():
        key = tuple(sorted(left + right))
        acc[key] = acc.get(key, 0.0) + multiplicity(left) * multiplicity(right) * value
    return _stored({key: value / multiplicity(key) for key, value in acc.items()})


def dict_inner(f, g):
    total = 0.0
    for key in sorted(f.entries.keys() & g.entries.keys()):
        total += multiplicity(key) * f.entries[key] * g.entries[key]
    return total


def rand_tensor(rng, space, order, nnz=4):
    entries = {}
    for _ in range(nnz):
        idx = tuple(sorted(int(i) for i in rng.integers(1, space.dimension + 1, size=order)))
        entries[idx] = float(rng.normal())
    return SymmetricTensor(space, order, entries)


def test_occupation_and_multiplicity():
    assert occupation((1, 1, 3)) == ((1, 2), (3, 1))
    assert multiplicity((1, 1, 3)) == 3
    assert multiplicity((2, 2, 2)) == 1
    assert multiplicity((1, 2, 3, 4)) == 24
    assert multiplicity(()) == 1
    # permutations of a multiset: q! / prod of count factorials
    idx = (1, 1, 2, 2, 2, 5)
    assert multiplicity(idx) == math.factorial(6) // (math.factorial(2) * math.factorial(3))


def test_constructor_validates_and_lookup_sorts():
    sp = HilbertSpace(3)
    t = SymmetricTensor(sp, 2, {(1, 2): 1.5})
    assert t[(1, 2)] == 1.5
    assert t[(2, 1)] == 1.5
    assert t[(1, 1)] == 0.0
    # keys are canonical sorted multi-indices; unsorted input is a caller bug
    with pytest.raises(ValidationError):
        SymmetricTensor(sp, 2, {(2, 1): 1.5})
    with pytest.raises(ValidationError):
        SymmetricTensor(sp, 2, {(0, 1): 1.0})
    with pytest.raises(ValidationError):
        SymmetricTensor(sp, 2, {(1, 4): 1.0})
    with pytest.raises(ValidationError):
        SymmetricTensor(sp, 2, {(1,): 1.0})
    with pytest.raises(ValidationError):
        SymmetricTensor(sp, 2, {(1, 2): float("nan")})
    with pytest.raises(ValidationError):
        HilbertSpace(0)


@pytest.mark.parametrize(
    "build",
    [
        lambda sp: SymmetricTensor(sp, 1, {(1,): 1.0, 2: 1.0}),
        lambda sp: SymmetricTensor(sp, 1, {(1,): "x"}),
        lambda sp: symmetrize({3: 2.0}, sp),
        lambda sp: RawTensor(sp, 1, 1, {((1,), (2,)): 1.0, 5: 1.0}),
        lambda sp: symmetrize(np.array(1.0)),
        lambda sp: symmetrize(np.ones((3, 2)), sp),
        lambda sp: symmetrize({(1, 2): 1.0}),
        lambda sp: symmetrize({}, sp),
        lambda sp: symmetrize([1.0, 2.0], sp),
    ],
    ids=[
        "int-key",
        "string-value",
        "symmetrize-int-key",
        "raw-int-key",
        "symmetrize-scalar-array-without-space",
        "symmetrize-non-square-array",
        "symmetrize-mapping-without-space",
        "symmetrize-empty-mapping-without-order",
        "symmetrize-list",
    ],
)
def test_malformed_entries_raise_validation_error(build):
    # checked before any key is sorted or value converted
    with pytest.raises(ValidationError):
        build(HilbertSpace(3))


def test_space_dimension_rejects_bool():
    with pytest.raises(ValidationError):
        HilbertSpace(True)


def test_space_dimension_fits_the_int64_index_rows():
    HilbertSpace(2**63 - 1)
    with pytest.raises(ResourceLimitError):
        HilbertSpace(2**63)


def test_raw_tensor_rejects_non_finite_values():
    with pytest.raises(ValidationError, match="finite"):
        RawTensor(HilbertSpace(2), 1, 1, {((1,), (2,)): float("nan")})


def test_raw_tensor_orders_follow_the_symmetric_rules():
    sp = HilbertSpace(2)
    with pytest.raises(ValidationError):
        RawTensor(sp, -1, 1, {})
    with pytest.raises(ResourceLimitError):
        RawTensor(sp, 1, 21, {})


def test_contraction_overflow_raises():
    # 1e200 * 1e200 overflows; the result is not stored as inf
    f = SymmetricTensor(HilbertSpace(1), 1, {(1,): 1e200})
    with pytest.raises(ValidationError, match="finite"):
        contract(f, f, 0)


def test_a_join_over_the_row_limit_raises_before_it_is_built():
    # two 10^4-entry kernels make a 10^8-row tensor product; the row count
    # is known from the cut counts, so nothing of that size is allocated
    space = HilbertSpace(10_000)
    f = SymmetricTensor._of(space, (1,), np.arange(1, 10_001)[:, None], np.ones(10_000))
    assert 10_000 * 10_000 > tensor._JOIN_LIMIT
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="100000000 rows"):
            contract(f, f, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_a_pair_over_the_row_limit_raises_in_the_batch_before_it_is_built():
    # every order-2 index over 170 coordinates: each coordinate is the sub
    # of 170 cuts, so a pair joins 170**3 rows at r = 1, past the limit
    space = HilbertSpace(170)
    idx = np.array([(i, j) for i in range(1, 171) for j in range(i, 171)])
    f = SymmetricTensor._of(space, (2,), idx, np.ones(len(idx)))
    assert 170**3 > tensor._JOIN_LIMIT
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=f"{170**3} rows"):
            tensor._pair_norms([f, f], 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000


def test_the_largest_tier_one_join_is_under_the_row_limit(monkeypatch):
    # the n = 65,536 witness test joins 65,537 rows per diagonal pair
    sizes = []
    expand = tensor._expand

    def recording(low, count, by):
        sizes.append(int(count.sum()))
        return expand(low, count, by)

    monkeypatch.setattr(tensor, "_expand", recording)
    v = generate(FamilySpec("vanishing_overlap", (2, 2), (1, 1), theta=0.5), 65536)
    criterion_check(v)
    assert 65537 <= max(sizes) < tensor._JOIN_LIMIT


def test_order_cap_guard():
    sp = HilbertSpace(2)
    with pytest.raises(ResourceLimitError):
        SymmetricTensor(sp, 21, {(1,) * 21: 1.0})


def test_exact_zero_dropped_but_tiny_kept():
    sp = HilbertSpace(2)
    t = SymmetricTensor(sp, 1, {(1,): 0.0, (2,): 1e-200})
    assert (1,) not in t.entries
    assert t[(2,)] == 1e-200


def test_norm_counts_multiplicity():
    sp = HilbertSpace(3)
    t = SymmetricTensor(sp, 2, {(1, 2): 0.5, (3, 3): 2.0})
    # ||t||^2 = 2 * 0.25 + 1 * 4
    assert abs(t.norm() ** 2 - 4.5) < 1e-15
    dense = t.to_dense()
    assert abs(np.sum(dense * dense) - t.norm() ** 2) < 1e-12


def test_to_dense_is_symmetric():
    rng = np.random.default_rng(0)
    sp = HilbertSpace(3)
    t = rand_tensor(rng, sp, 3)
    dense = t.to_dense()
    for perm in itertools.permutations(range(3)):
        assert np.array_equal(dense, np.transpose(dense, perm))


def test_add_and_scale():
    sp = HilbertSpace(2)
    a = SymmetricTensor(sp, 1, {(1,): 1.0})
    b = SymmetricTensor(sp, 1, {(1,): -1.0, (2,): 3.0})
    s = a + b
    assert (1,) not in s.entries
    assert s[(2,)] == 3.0
    assert a.scaled(2.0)[(1,)] == 2.0


def test_symmetrize_worked_example():
    # e1 (x) e2 symmetrizes to half the sum of both arrangements.
    sp = HilbertSpace(2)
    raw = RawTensor(sp, 1, 1, {((1,), (2,)): 1.0})
    sym = symmetrize(raw)
    assert sym.entries == {(1, 2): 0.5}
    assert abs(sym.norm() ** 2 - 0.5) < 1e-15


def test_symmetrize_matches_dense_oracle():
    rng = np.random.default_rng(1)
    for trial in range(40):
        dim = int(rng.integers(2, 4))
        left = int(rng.integers(1, 3))
        right = int(rng.integers(1, 3))
        sp = HilbertSpace(dim)
        entries = {}
        for _ in range(4):
            lidx = tuple(sorted(int(i) for i in rng.integers(1, dim + 1, size=left)))
            ridx = tuple(sorted(int(i) for i in rng.integers(1, dim + 1, size=right)))
            entries[(lidx, ridx)] = float(rng.normal())
        raw = RawTensor(sp, left, right, entries)
        expected = dense_symmetrize(raw.to_dense())
        got = symmetrize(raw).to_dense()
        assert np.allclose(got, expected, atol=1e-13)


def test_symmetrize_accepts_dense_array():
    sp = HilbertSpace(2)
    arr = np.zeros((2, 2))
    arr[0, 1] = 1.0
    sym = symmetrize(arr, sp, 2)
    assert sym.entries == {(1, 2): 0.5}


def test_symmetrize_idempotent_on_symmetric_input():
    rng = np.random.default_rng(2)
    sp = HilbertSpace(3)
    t = rand_tensor(rng, sp, 3)
    again = symmetrize(t.to_dense(), sp, 3)
    assert np.allclose(again.to_dense(), t.to_dense(), atol=1e-13)


def test_inner_matches_dense():
    rng = np.random.default_rng(3)
    sp = HilbertSpace(3)
    for trial in range(30):
        f = rand_tensor(rng, sp, 2)
        g = rand_tensor(rng, sp, 2)
        expected = float(np.sum(f.to_dense() * g.to_dense()))
        assert abs(inner(f, g) - expected) < 1e-12
    assert abs(inner(f, f) - f.norm() ** 2) < 1e-12


def test_inner_rejects_mismatched_spaces_and_orders():
    f = SymmetricTensor(HilbertSpace(2), 1, {(1,): 1.0})
    with pytest.raises(ValidationError, match="same space"):
        inner(f, SymmetricTensor(HilbertSpace(3), 1, {(1,): 1.0}))
    with pytest.raises(ValidationError, match="equal orders"):
        inner(f, SymmetricTensor(HilbertSpace(2), 2, {(1, 1): 1.0}))


def test_inner_of_a_tensor_with_itself_matches_the_general_path():
    # inner(f, f) skips the row join; a copy of f is another object, so it
    # takes the general path, and the two must agree bit for bit
    rng = np.random.default_rng(13)
    sp = HilbertSpace(5)
    for order in range(5):
        for trial in range(10):
            f = rand_tensor(rng, sp, order, nnz=int(rng.integers(1, 12)))
            copy = SymmetricTensor(sp, order, dict(f.items()))
            assert copy is not f and copy == f
            assert inner(f, f) == inner(f, copy)


def test_contract_worked_example():
    sp = HilbertSpace(3)
    f = SymmetricTensor(sp, 2, {(1, 2): 1.0})
    g = SymmetricTensor(sp, 2, {(2, 3): 1.0})
    raw = contract(f, g, 1)
    assert raw.entries == {((1,), (3,)): 1.0}
    full = contract(f, g, 2)
    # full pairing is the inner product: here the supports share only (1,2)x(2,3) -> 0
    assert raw.space == sp
    assert full.entries == {}


def test_contract_fully_paired_equals_inner():
    rng = np.random.default_rng(4)
    sp = HilbertSpace(4)
    for trial in range(20):
        q = int(rng.integers(1, 4))
        f = rand_tensor(rng, sp, q)
        g = rand_tensor(rng, sp, q)
        raw = contract(f, g, q)
        value = raw.entries.get(((), ()), 0.0)
        assert abs(value - inner(f, g)) < 1e-12


def test_contract_matches_dense_oracle():
    rng = np.random.default_rng(5)
    for trial in range(60):
        dim = int(rng.integers(2, 4))
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        r = int(rng.integers(0, min(p, q) + 1))
        sp = HilbertSpace(dim)
        f = rand_tensor(rng, sp, p)
        g = rand_tensor(rng, sp, q)
        expected = dense_contract(f.to_dense(), g.to_dense(), r)
        got = contract(f, g, r).to_dense()
        assert got.shape == expected.shape
        assert np.allclose(got, expected, atol=1e-12)


def test_contract_sym_matches_dense_oracle():
    rng = np.random.default_rng(6)
    for trial in range(40):
        dim = int(rng.integers(2, 4))
        p = int(rng.integers(1, 3))
        q = int(rng.integers(1, 3))
        r = int(rng.integers(0, min(p, q) + 1))
        sp = HilbertSpace(dim)
        f = rand_tensor(rng, sp, p)
        g = rand_tensor(rng, sp, q)
        expected = dense_symmetrize(dense_contract(f.to_dense(), g.to_dense(), r))
        got = contract_sym(f, g, r).to_dense()
        assert np.allclose(got, expected, atol=1e-12)


def test_contract_rejects_bad_r():
    sp = HilbertSpace(2)
    f = SymmetricTensor(sp, 2, {(1, 1): 1.0})
    g = SymmetricTensor(sp, 1, {(1,): 1.0})
    with pytest.raises(ValidationError):
        contract(f, g, 2)
    with pytest.raises(ValidationError):
        contract(f, g, -1)


def test_contract_rejects_space_mismatch():
    f = SymmetricTensor(HilbertSpace(2), 1, {(1,): 1.0})
    g = SymmetricTensor(HilbertSpace(3), 1, {(1,): 1.0})
    with pytest.raises(ValidationError):
        contract(f, g, 1)


def test_contraction_norm_bounded_by_product_of_norms():
    # Cauchy-Schwarz for partial pairings, checked on random sparse input.
    rng = np.random.default_rng(7)
    sp = HilbertSpace(4)
    for trial in range(50):
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        f = rand_tensor(rng, sp, p)
        g = rand_tensor(rng, sp, q)
        for r in range(1, min(p, q) + 1):
            assert contract(f, g, r).norm() <= f.norm() * g.norm() + 1e-12


def test_symmetrization_never_increases_norm():
    rng = np.random.default_rng(8)
    sp = HilbertSpace(3)
    for trial in range(30):
        p = int(rng.integers(1, 3))
        q = int(rng.integers(1, 3))
        f = rand_tensor(rng, sp, p)
        g = rand_tensor(rng, sp, q)
        raw = contract(f, g, 0)
        assert symmetrize(raw).norm() <= raw.norm() + 1e-12


def test_raw_norm_matches_dense():
    rng = np.random.default_rng(9)
    sp = HilbertSpace(3)
    for trial in range(30):
        f = rand_tensor(rng, sp, int(rng.integers(1, 3)))
        g = rand_tensor(rng, sp, int(rng.integers(1, 3)))
        raw = contract(f, g, 1) if min(f.order, g.order) >= 1 else contract(f, g, 0)
        dense = raw.to_dense()
        assert abs(raw.norm() - float(np.sqrt(np.sum(dense * dense)))) < 1e-12


def _same_entries(got, want):
    # same keys in the same order, and every value equal to the bit
    assert list(got.keys()) == list(want.keys())
    assert np.array_equal(np.array(list(got.values())).view(np.int64), np.array(list(want.values())).view(np.int64))


def test_array_calculus_matches_the_dict_oracle_bit_for_bit():
    rng = np.random.default_rng(20)
    cases = []
    for _ in range(80):
        space = HilbertSpace(int(rng.integers(1, 7)))
        orders = rng.integers(0, 5, size=2)
        cases.append([rand_tensor(rng, space, int(q), nnz=int(rng.integers(1, 9))) for q in orders])
    # at order 20 the products multiplicity(left) * multiplicity(right) pass
    # 2**53 and 2**63, so they must be exact integers rounded once
    space = HilbertSpace(6)
    cases.append([rand_tensor(rng, space, 20, nnz=3) for _ in range(2)])
    cases.append([cases[-1][0], rand_tensor(rng, space, 11, nnz=3)])
    for f, g in cases:
        if f.order == g.order:
            assert inner(f, g) == dict_inner(f, g)
            assert f.norm() == math.sqrt(dict_inner(f, f))
        for r in range(min(f.order, g.order) + 1):
            raw = contract(f, g, r)
            _same_entries(raw.entries, dict_contract(f, g, r))
            assert raw.norm() == dict_raw_norm(raw.entries)
            if raw.order > MAX_ORDER:
                with pytest.raises(ResourceLimitError):
                    raw.symmetrized()
                continue
            sym = raw.symmetrized()
            _same_entries(sym.entries, dict_symmetrized(raw.entries))
            assert raw.norm_and_symmetrized() == (raw.norm(), sym)
            assert contract_sym(f, g, r) == sym
    f, g = cases[-2]
    assert max(multiplicity(left) * multiplicity(right) for left, right in contract(f, g, 0).entries) > 2**63
