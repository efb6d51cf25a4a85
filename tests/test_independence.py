"""Dependence diagnostics: certified bounds, exact witnesses, and an
empirical gap validated against closed-form bivariate Gaussian values.

For standard normals with correlation rho,

    E[sin wX sin wY] - E[sin wX] E[sin wY] = exp(-w^2) sinh(w^2 rho),
    E[cos wX cos wY] - E[cos wX] E[cos wY] = exp(-w^2) (cosh(w^2 rho) - 1),

which gives the dictionary-gap machinery a target with no Monte Carlo on
the oracle side.
"""

import hashlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import wienerchaos as wc
from wienerchaos import independence, montecarlo
from wienerchaos.exceptions import DegenerateInputError, ResourceLimitError, ValidationError
from wienerchaos.independence import (
    MAX_TUPLES,
    MIN_SAMPLES,
    TestFunction,
    _tanh_deriv_bound,
    default_dictionary,
)


def gaussian_pair(rho, dim=2):
    sp = wc.HilbertSpace(dim)
    X = wc.ChaosElement(wc.SymmetricTensor(sp, 1, {(1,): 1.0}))
    Y = wc.ChaosElement(wc.SymmetricTensor(sp, 1, {(1,): rho, (2,): math.sqrt(1 - rho**2)}))
    return wc.ChaosVector([[X], [Y]])


def second_chaos_pair(delta, dim=3):
    # unit-variance I_2 elements overlapping only in coordinate 3
    sp = wc.HilbertSpace(dim)
    a = math.sqrt((1 - delta**2) / 2)
    b = delta / math.sqrt(2)
    F = wc.ChaosElement(wc.SymmetricTensor(sp, 2, {(1, 1): a, (3, 3): b}))
    G = wc.ChaosElement(wc.SymmetricTensor(sp, 2, {(2, 2): a, (3, 3): b}))
    return wc.ChaosVector([[F], [G]])


def test_trig_bounds_are_exact_powers():
    functions = {f.name: f for f in default_dictionary()}
    for omega in (0.5, 1.0, 2.0):
        for prefix in ("cos", "sin"):
            f = functions[f"{prefix}{omega:g}"]
            assert f.sup == 1.0
            for k in range(1, 6):
                assert abs(f.deriv_bound(k) - omega**k) < 1e-15
    assert len(functions) == 7 and "tanh" in functions


def test_tanh_bounds_are_certified():
    # the polynomial-coefficient bound must dominate a dense numerical
    # maximization of |d^k tanh| (computed by nested differentiation of
    # derivative polynomials evaluated on a grid)
    grid = np.tanh(np.linspace(-6, 6, 20001))
    poly = np.polynomial.Polynomial([1.0, 0.0, -1.0])  # 1 - t^2
    for k in range(1, 7):
        observed = float(np.max(np.abs(poly(grid))))
        assert _tanh_deriv_bound(k) >= observed - 1e-12, k
        poly = poly.deriv() * np.polynomial.Polynomial([1.0, 0.0, -1.0])
    assert _tanh_deriv_bound(1) == 2.0  # sum-abs rule; valid though not tight


def test_function_norm_accumulates_bounds():
    f = TestFunction("cos1", np.cos, 1.0, lambda k: 1.0)
    assert f.norm(0) == 1.0
    assert f.norm(3) == 4.0
    with pytest.raises(ValidationError):
        f.norm(-1)
    with pytest.raises(ValidationError):
        f.deriv_bound(0)


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, True, "1", 10**400])
def test_function_bounds_must_be_finite_and_nonnegative(bad):
    # a negative bound made bound_ratio positive and a NaN one read as 0.0;
    # both are rejected where the bound is read
    with pytest.raises(ValidationError, match="sup must be a finite real >= 0"):
        TestFunction("bad", np.cos, bad, lambda k: 1.0)
    f = TestFunction("bad", np.cos, 1.0, lambda k: bad)
    with pytest.raises(ValidationError, match="'bad': derivative bound 1 must be a finite real >= 0"):
        f.deriv_bound(1)
    with pytest.raises(ValidationError):
        f.norm(2)


@pytest.mark.parametrize("bad", [-1.0, math.nan])
def test_bad_derivative_bound_fails_before_sampling(monkeypatch, bad):
    v = second_chaos_pair(0.5)
    functions = [[TestFunction("cos1", np.cos, 1.0, lambda k: 1.0)], [TestFunction("bad", np.cos, 1.0, lambda k: bad)]]
    forbid(monkeypatch, wc.montecarlo, "sample")
    with pytest.raises(ValidationError, match="'bad'"):
        wc.empirical_dependence(v, functions, samples=20_000)
    with pytest.raises(ValidationError, match="'bad'"):
        wc.bound_ratio(v, functions, samples=20_000)


def test_zero_budget_ratio_names_the_tuple():
    # a constant test function has derivative bound 0, so its tuples have a
    # zero budget and no ratio
    v = second_chaos_pair(0.5)
    one = TestFunction("one", np.ones_like, 1.0, lambda k: 0.0)
    functions = [default_dictionary()[:1], [one]]
    with pytest.raises(DegenerateInputError, match=r"tuple \(cos0.5, one\) has a zero budget"):
        wc.bound_ratio(v, functions, samples=20_000, seed=4)


def test_zero_budget_fails_bound_ratio_before_sampling(monkeypatch):
    # bound_ratio checks every budget before the draw; a held result's
    # ratio makes the same check on the same budget function
    v = second_chaos_pair(0.5)
    functions = [default_dictionary()[:1], [TestFunction("one", np.ones_like, 1.0, lambda k: 0.0)]]
    forbid(monkeypatch, wc.montecarlo, "sample")
    with pytest.raises(DegenerateInputError, match=r"tuple \(cos0.5, one\) has a zero budget"):
        wc.bound_ratio(v, functions, samples=20_000, seed=4)
    monkeypatch.undo()
    emp = wc.empirical_dependence(v, functions, samples=20_000, seed=4)
    with pytest.raises(DegenerateInputError, match=r"tuple \(cos0.5, one\) has a zero budget"):
        emp.ratio(wc.criterion_check(v))


@pytest.mark.parametrize(
    "functions, group",
    [
        (default_dictionary()[:2], 1),  # one flat list shared by the groups
        ([default_dictionary(), [1.0]], 2),
        ([default_dictionary(), default_dictionary()[0]], 2),
        ([default_dictionary(), []], 2),
    ],
    ids=["flat", "float-member", "bare-function", "empty"],
)
def test_each_group_needs_a_sequence_of_test_functions(monkeypatch, functions, group):
    forbid(monkeypatch, wc.montecarlo, "sample")
    for probe in (wc.empirical_dependence, wc.bound_ratio):
        with pytest.raises(ValidationError, match=f"group {group} needs a non-empty sequence of TestFunction"):
            probe(second_chaos_pair(0.5), functions, samples=20_000)


def test_a_test_function_returns_one_value_per_sample():
    mean = TestFunction("mean", np.mean, 1.0, lambda k: 1.0)
    with pytest.raises(ValidationError, match="'mean' must return one value per sample row"):
        wc.empirical_dependence(second_chaos_pair(0.5), [[mean], default_dictionary()], samples=20_000)


def test_the_probe_runs_on_64_full_blocks(monkeypatch):
    # the probe takes the sampler's default plan: count = 64 b + r with
    # b = count // 64 >= 156 > r, so any samples >= MIN_SAMPLES gives exactly
    # 64 full blocks of at least 156 samples, and no block-count or
    # block-size guard could fire
    for count in [*range(MIN_SAMPLES, MIN_SAMPLES + 256), 10**6, 2**40 - 1]:
        batch = montecarlo.sample(0, 1, count)
        assert batch.n_full_blocks == montecarlo.DEFAULT_BLOCKS == 64 and batch.block_size >= 156
    plans = []
    sample = montecarlo.sample

    def default_plan(seed, dimension, count):
        batch = sample(seed, dimension, count)
        plans.append((batch.n_full_blocks, batch.block_size))
        return batch

    monkeypatch.setattr(montecarlo, "sample", default_plan)
    result = wc.empirical_dependence(gaussian_pair(0.3), samples=MIN_SAMPLES, seed=1)
    assert plans == [(64, 156)] and result.n_blocks == 64


def test_vector_sorts_groups_by_decreasing_order():
    sp = wc.HilbertSpace(3)
    one = wc.ChaosElement(wc.SymmetricTensor(sp, 1, {(1,): 1.0}))
    two = wc.ChaosElement(wc.SymmetricTensor(sp, 2, {(2, 2): 1 / math.sqrt(2)}))
    v = wc.ChaosVector([[one], [two]])
    assert v.orders == (2, 1)
    assert v.elements[0].order == 2
    assert v.group_index == (0, 1)
    assert v.d == 2 and v.sizes == (1, 1)


def test_vector_validation():
    sp = wc.HilbertSpace(3)
    unit = wc.ChaosElement(wc.SymmetricTensor(sp, 1, {(1,): 1.0}))
    offscale = wc.ChaosElement(wc.SymmetricTensor(sp, 1, {(1,): 1.1}))
    other_space = wc.ChaosElement(wc.SymmetricTensor(wc.HilbertSpace(4), 1, {(1,): 1.0}))
    two = wc.ChaosElement(wc.SymmetricTensor(sp, 2, {(1, 2): 0.5}))
    with pytest.raises(ValidationError):
        wc.ChaosVector([])
    with pytest.raises(ValidationError):
        wc.ChaosVector([[unit], []])
    with pytest.raises(ValidationError):
        wc.ChaosVector([[unit, offscale]])
    with pytest.raises(ValidationError):
        wc.ChaosVector([[unit], [other_space]])
    with pytest.raises(ValidationError):
        wc.ChaosVector([[unit, two]])  # mixed orders within a group


def test_vector_groups_are_sequences_of_chaos_elements():
    sp = wc.HilbertSpace(3)
    f = wc.ChaosElement(wc.SymmetricTensor(sp, 1, {(1,): 1.0}))
    g = wc.ChaosElement(wc.SymmetricTensor(sp, 1, {(2,): 1.0}))
    with pytest.raises(ValidationError, match="group 1 element 1 is not a ChaosElement: 1.0"):
        wc.ChaosVector([[1.0], [g]])
    with pytest.raises(ValidationError, match="group 2 element 2 is not a ChaosElement: None"):
        wc.ChaosVector([[f], [g, None]])
    with pytest.raises(ValidationError, match=r"group 1 is not a sequence of ChaosElement: ChaosElement\(order=1"):
        wc.ChaosVector([f, g])


def test_squared_cov_matrix_values():
    v = gaussian_pair(0.4)
    matrix = wc.squared_cov_matrix(v)
    assert matrix.shape == (2, 2)
    assert np.allclose(matrix, matrix.T)
    assert abs(matrix[0, 0] - 2.0) < 1e-12  # Var(Z^2)
    assert abs(matrix[0, 1] - 2 * 0.4**2) < 1e-12


def test_criterion_check_verdicts_and_witnesses():
    v = gaussian_pair(0.4)
    report = wc.criterion_check(v, tol=1e-6)
    assert not report.cov_pass and not report.contraction_pass
    assert abs(report.witness_cov - 0.32) < 1e-12
    assert abs(report.witness_norm - 0.4) < 1e-12
    assert report.witness_cov_pair == (1, 2)
    assert report.witness_norm_r == 1
    # generous tolerance flips both verdicts
    assert wc.criterion_check(v, tol=1.0).cov_pass
    # squared comparability of the two witnesses
    assert report.witness_norm**2 <= report.witness_cov + 1e-9


def test_criterion_check_rejects_single_group_and_bad_tol():
    sp = wc.HilbertSpace(2)
    unit = wc.ChaosElement(wc.SymmetricTensor(sp, 1, {(1,): 1.0}))
    v = wc.ChaosVector([[unit]])
    with pytest.raises(ValidationError):
        wc.criterion_check(v)
    with pytest.raises(ValidationError):
        wc.criterion_check(gaussian_pair(0.1), tol=0.0)


def test_report_rows_cover_matrix_and_match_witnesses():
    v = second_chaos_pair(0.5)
    report = wc.criterion_check(v)
    assert len(report.pairs) == 3  # (1,1), (1,2), (2,2)
    cross = [row for row in report.pairs if row.cross]
    assert len(cross) == 1
    assert abs(max(row.cov2 for row in cross) - report.witness_cov) < 1e-15
    assert abs(max(row.max_norm for row in cross) - report.witness_norm) < 1e-15
    # upper triangle in row order, diagonal included
    assert [(row.i, row.j, row.cross) for row in report.pairs] == [(1, 1, False), (1, 2, True), (2, 2, False)]
    for row in report.pairs:
        assert row.cov2 == report.cov_matrix[row.i - 1, row.j - 1]


def test_report_entries_essentially_nonnegative():
    rng = np.random.default_rng(23)
    for trial in range(25):
        dim = int(rng.integers(3, 6))
        sp = wc.HilbertSpace(dim)

        def rand_unit(order):
            entries = {}
            for _ in range(3):
                idx = tuple(sorted(int(i) for i in rng.integers(1, dim + 1, size=order)))
                entries[idx] = float(rng.normal())
            return wc.normalize(wc.ChaosElement(wc.SymmetricTensor(sp, order, entries)))

        try:
            v = wc.ChaosVector([[rand_unit(2)], [rand_unit(1)]])
        except DegenerateInputError:
            continue
        report = wc.criterion_check(v)
        for row in report.pairs:
            assert row.cov2 >= -1e-9
            assert row.max_norm >= 0.0


def test_empirical_gap_matches_bivariate_closed_form():
    rho = 0.6
    v = gaussian_pair(rho)
    result = wc.empirical_dependence(v, samples=60_000, seed=31)
    by_label = {labels: (gap, se) for labels, gap, se in result.rows}
    for omega in (0.5, 1.0, 2.0):
        w2 = omega**2
        exact_sin = math.exp(-w2) * math.sinh(w2 * rho)
        gap, se = by_label[(f"sin{omega:g}", f"sin{omega:g}")]
        assert abs(gap - exact_sin) < 6 * se, (omega, gap, exact_sin)
        exact_cos = math.exp(-w2) * (math.cosh(w2 * rho) - 1.0)
        gap, se = by_label[(f"cos{omega:g}", f"cos{omega:g}")]
        assert abs(gap - exact_cos) < 6 * se
    # the known maximizer at rho=0.6 is the sin pair at omega=1
    assert result.labels == ("sin1", "sin1")
    assert len(result.rows) == 49


def test_empirical_gap_null_case():
    v = gaussian_pair(0.0)
    result = wc.empirical_dependence(v, samples=40_000, seed=5)
    assert result.gap < 5 * result.stderr


def test_empirical_gap_deterministic_in_seed():
    v = second_chaos_pair(0.5)
    a = wc.empirical_dependence(v, samples=20_000, seed=8)
    b = wc.empirical_dependence(v, samples=20_000, seed=8)
    c = wc.empirical_dependence(v, samples=20_000, seed=9)
    assert a.gap == b.gap and a.stderr == b.stderr and a.labels == b.labels
    assert a.gap != c.gap
    assert a.n_blocks >= 30


def test_empirical_floor_and_dictionary_validation():
    v = gaussian_pair(0.3)
    with pytest.raises(ValidationError):
        wc.empirical_dependence(v, samples=9_999)
    with pytest.raises(ValidationError):
        wc.empirical_dependence(v, functions=[], samples=20_000)
    with pytest.raises(ValidationError):
        wc.empirical_dependence(v, functions=[[wc.default_dictionary()[0]]], samples=20_000)


def test_per_group_dictionaries():
    v = gaussian_pair(0.5)
    cos1 = [f for f in default_dictionary() if f.name == "cos1"]
    sin1 = [f for f in default_dictionary() if f.name == "sin1"]
    result = wc.empirical_dependence(v, functions=[cos1, sin1], samples=20_000, seed=2)
    assert len(result.rows) == 1
    assert result.labels == ("cos1", "sin1")
    # E[cos X sin Y] = 0 by symmetry, and E[sin Y] = 0: tiny gap
    assert result.gap < 6 * result.stderr


def test_multi_element_groups_use_products():
    # two independent Gaussians per group, cross-dependence through one
    # shared coordinate between the groups
    sp = wc.HilbertSpace(5)
    g1 = [
        wc.ChaosElement(wc.SymmetricTensor(sp, 1, {(1,): 1.0})),
        wc.ChaosElement(wc.SymmetricTensor(sp, 1, {(2,): 0.8, (5,): 0.6})),
    ]
    g2 = [
        wc.ChaosElement(wc.SymmetricTensor(sp, 1, {(3,): 1.0})),
        wc.ChaosElement(wc.SymmetricTensor(sp, 1, {(4,): 0.8, (5,): 0.6})),
    ]
    v = wc.ChaosVector([g1, g2])
    result = wc.empirical_dependence(v, samples=40_000, seed=13)
    assert result.gap > 4 * result.stderr


def test_bound_ratio_positive_and_deterministic():
    v = second_chaos_pair(0.5)
    r1 = wc.bound_ratio(v, samples=20_000, seed=4)
    r2 = wc.bound_ratio(v, samples=20_000, seed=4)
    assert r1 == r2
    assert 0.0 < r1 < 10.0


def test_bound_ratio_rejects_exact_independence():
    sp = wc.HilbertSpace(2)
    X = wc.ChaosElement(wc.SymmetricTensor(sp, 1, {(1,): 1.0}))
    Y = wc.ChaosElement(wc.SymmetricTensor(sp, 1, {(2,): 1.0}))
    v = wc.ChaosVector([[X], [Y]])
    with pytest.raises(DegenerateInputError):
        wc.bound_ratio(v, samples=20_000, seed=4)


def forbid(monkeypatch, target, attribute):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{attribute} was called")

    monkeypatch.setattr(target, attribute, forbidden)


def test_ratio_from_held_results_matches_bound_ratio(monkeypatch):
    # the ratio reuses the exact report and the sampled rows: no sample is
    # drawn and no contraction runs, and the value is bound_ratio's, bitwise
    v = wc.generate(wc.FamilySpec("vanishing_overlap", (2, 2, 1), (2, 1, 1), theta=0.5), 4)
    expected = wc.bound_ratio(v, samples=20_000, seed=6)
    report = wc.criterion_check(v)
    emp = wc.empirical_dependence(v, samples=20_000, seed=6)
    forbid(monkeypatch, wc.montecarlo, "sample")
    forbid(monkeypatch, wc.chaos, "contract")
    got = emp.ratio(report)
    assert repr(got) == repr(expected)
    assert len(emp.budgets) == len(emp.rows)


def test_ratio_rejects_a_report_of_another_vector():
    # the budget's covariances must come from the vector that was sampled:
    # a report of other orders, or of the same orders in other sizes, raises
    v = wc.generate(wc.FamilySpec("vanishing_overlap", (2, 2), (1, 1), theta=0.5), 4)
    emp = wc.empirical_dependence(v, samples=20_000, seed=6)
    assert (emp.orders, emp.sizes) == ((2, 2), (1, 1))
    others = {
        r"orders \(2, 2, 2\) and sizes \(1, 1, 1\)": wc.FamilySpec("persistent_overlap", (2, 2, 2), (1, 1, 1)),
        r"orders \(2, 2\) and sizes \(2, 1\)": wc.FamilySpec("vanishing_overlap", (2, 2), (2, 1)),
    }
    for shown, spec in others.items():
        report = wc.criterion_check(wc.generate(spec, 4))
        with pytest.raises(ValidationError, match=rf"report of {shown} does not match .* \(2, 2\) and sizes \(1, 1\)"):
            emp.ratio(report)
    assert repr(emp.ratio(wc.criterion_check(v))) == repr(wc.bound_ratio(v, samples=20_000, seed=6))


def test_ratio_rejects_a_report_of_another_vector_of_the_same_orders_and_sizes(tmp_path):
    # vanishing_overlap (2,2)/(1,1) at n = 4 and at n = 64 share orders and
    # sizes; the fingerprint of their kernels tells the reports apart, and a
    # saved and reloaded copy of the sampled vector still matches it
    spec = wc.FamilySpec("vanishing_overlap", (2, 2), (1, 1), theta=0.5)
    v = wc.generate(spec, 4)
    emp = wc.empirical_dependence(v, samples=20_000, seed=1)
    with pytest.raises(ValidationError, match=r"report of vector [0-9a-f]{8} does not match the sampled vector [0-9a-f]{8}"):
        emp.ratio(wc.criterion_check(wc.generate(spec, 64)))
    wc.save_vector(v, tmp_path / "v.json")
    report = wc.criterion_check(wc.load_vector(tmp_path / "v.json"))
    assert report.fingerprint == emp.fingerprint
    assert repr(emp.ratio(report)) == repr(wc.bound_ratio(v, samples=20_000, seed=1))


def test_bound_ratio_rejects_exact_independence_before_sampling(monkeypatch):
    v = wc.generate(wc.FamilySpec("disjoint", (2, 2), (1, 1)), 4)
    forbid(monkeypatch, wc.montecarlo, "sample")
    with pytest.raises(DegenerateInputError):
        wc.bound_ratio(v, samples=20_000, seed=4)


def test_tuple_count_guard_fires_before_sampling(monkeypatch):
    # six first-order groups with the 7-function default dictionary give
    # 7**6 tuples; the four-group 7**4 case stays allowed
    assert 7**4 <= MAX_TUPLES < 7**6
    sp = wc.HilbertSpace(6)
    groups = [[wc.ChaosElement(wc.SymmetricTensor(sp, 1, {(i,): 1.0}))] for i in range(1, 7)]
    v = wc.ChaosVector(groups)
    forbid(monkeypatch, wc.montecarlo, "sample")
    with pytest.raises(ResourceLimitError, match="117649"):
        wc.empirical_dependence(v, samples=20_000)


def test_min_samples_constant():
    assert MIN_SAMPLES == 10_000


def test_criterion_check_never_expands_a_square(monkeypatch):
    # The exact path works from cross contractions only; neither multiply
    # nor an expansion covariance may run.
    def forbidden(*args, **kwargs):
        raise AssertionError("the exact path expanded a product")

    monkeypatch.setattr(wc.chaos, "multiply", forbidden)
    monkeypatch.setattr(wc.chaos.ChaosExpansion, "covariance", forbidden)
    report = wc.criterion_check(second_chaos_pair(0.5))
    assert report.witness_cov > 0.0


def test_criterion_check_cuts_each_element_once_per_rank(monkeypatch):
    # all pairs share one join per rank, so each kernel's rows are cut once
    # per r however many pairs the kernel is in, diagonal pairs included
    cut = {}
    cuts = wc.tensor._cuts

    def counting(idx, r):
        cut[r] = cut.get(r, 0) + len(idx)
        return cuts(idx, r)

    monkeypatch.setattr(wc.tensor, "_cuts", counting)
    v = wc.generate(wc.FamilySpec("mixed_orders", (3, 2), (2, 3), theta=0.5), 12)
    wc.criterion_check(v)
    assert cut == {r: sum(len(e.kernel.val) for e in v.elements if e.order >= r) for r in (1, 2, 3)}


def random_vector(rng, orders, sizes):
    # standardized random kernels: element e draws its indices from a block
    # of two coordinates of its own, from two coordinates every element may
    # share, or from both, so pairs of disjoint and of shared support mix
    count = sum(sizes)
    space = wc.HilbertSpace(2 * count + 2)
    shared = [2 * count + 1, 2 * count + 2]
    groups, e = [], 0
    for q, m in zip(orders, sizes):
        group = []
        for _ in range(m):
            own = [2 * e + 1, 2 * e + 2]
            support = [own, shared, own + shared][int(rng.integers(0, 3))]
            entries = {}
            for _ in range(int(rng.integers(1, 9))):
                entries[tuple(sorted(int(c) for c in rng.choice(support, size=q)))] = float(rng.normal())
            group.append(wc.normalize(wc.ChaosElement(wc.SymmetricTensor(space, q, entries))))
            e += 1
        groups.append(group)
    return wc.ChaosVector(groups)


@pytest.mark.parametrize("chunk", [None, 1, 7])
def test_exact_pairs_equal_the_per_pair_loop(monkeypatch, chunk):
    # one join per rank over all pairs gives every pair row and the whole
    # matrix bit for bit as cov_squares_and_norms does pair by pair, also
    # when the pairs are packed into many small chunks or joined alone
    if chunk is not None:
        monkeypatch.setattr(wc.tensor, "_JOIN_CHUNK", chunk)
    rng = np.random.default_rng(18)
    for _ in range(12):
        d = int(rng.integers(2, 4))
        orders = sorted(rng.integers(1, 5, size=d).tolist(), reverse=True)
        vector = random_vector(rng, orders, rng.integers(1, 4, size=d).tolist())
        matrix, rows = wc.exact_pairs(vector)
        elements = vector.elements
        group_of = vector.group_index
        pairs = [(i, j) for i in range(len(elements)) for j in range(i, len(elements))]
        assert [(row.i, row.j) for row in rows] == [(i + 1, j + 1) for i, j in pairs]
        expected = np.zeros(matrix.shape)
        for row, (i, j) in zip(rows, pairs):
            cov2, norms = wc.cov_squares_and_norms(elements[i], elements[j])
            want = independence.PairRow(
                i + 1, j + 1, group_of[i] != group_of[j], cov2, tuple(norms), max(norms), int(np.argmax(norms)) + 1
            )
            assert row == want
            expected[i, j] = expected[j, i] = cov2
        assert np.array_equal(matrix, expected)


def test_vanishing_overlap_witness_at_large_n():
    # delta = theta n^(-1/4); the (2,2) cross witnesses are 14 delta^4 and
    # delta^2 / 2.  The order-4 square of each element would have about
    # n^2 = 1.7e7 entries here; the cross-contraction path never builds it.
    n = 4096
    v = wc.generate(wc.FamilySpec("vanishing_overlap", (2, 2), (1, 1), theta=0.5), n)
    delta = 0.5 * n**-0.25
    report = wc.criterion_check(v)
    assert abs(report.witness_cov - 14 * delta**4) <= 1e-12 * 14 * delta**4
    assert abs(report.witness_norm - delta**2 / 2) <= 1e-12 * delta**2 / 2


def test_vanishing_overlap_witness_at_n_65536_in_bounded_memory():
    # The same closed forms with 65,537 entries per kernel.  The array
    # contractions peaked at 12.6 MiB traced here (202 bytes per kernel
    # entry); the bound allows 1.5x that.  The dict-of-tuples contractions
    # they replaced peaked at 32 MiB.
    n = 65536
    v = wc.generate(wc.FamilySpec("vanishing_overlap", (2, 2), (1, 1), theta=0.5), n)
    delta = 0.5 * n**-0.25
    tracemalloc.start()
    try:
        report = wc.criterion_check(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(report.witness_cov - 14 * delta**4) <= 1e-12 * 14 * delta**4
    assert abs(report.witness_norm - delta**2 / 2) <= 1e-12 * delta**2 / 2
    assert peak < 300 * (n + 1)


def rows_digest(result):
    return hashlib.sha256((repr(result.rows) + repr(result.budgets)).encode()).hexdigest()


FOUR_GROUPS = wc.FamilySpec("persistent_overlap", (2, 2, 2, 2), (1, 1, 1, 1), theta=0.5)


def test_empirical_rows_are_pinned():
    # every gap, stderr and label of the dictionary reduction is fixed by
    # its summation order (left-to-right products, pairwise block means);
    # these digests are fixed values
    four = wc.empirical_dependence(wc.generate(FOUR_GROUPS, 1), samples=20_000, seed=8)
    assert rows_digest(four) == "f7b19704888c735ecfc07feedcbb8cd45de1b6c5ea7982d469c7e52760ca1e8c"
    mixed = wc.generate(wc.FamilySpec("vanishing_overlap", (2, 2, 1), (2, 1, 1), theta=0.5), 8)
    assert rows_digest(wc.empirical_dependence(mixed, samples=20_000, seed=8)) == (
        "dbdd2fd912311056da3a53c03ce68fd08ce9c908417f6a158cc9764895091c0f"
    )


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_empirical_rows_ignore_the_worker_count(monkeypatch, workers):
    # blocks are mapped on any thread and written to the statistics array in
    # block order, so the pinned digest holds at every worker count; a short
    # switch interval interleaves the workers (more of them than cores here)
    # as finely as possible
    monkeypatch.setattr(montecarlo, "_WORKERS", workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        four = wc.empirical_dependence(wc.generate(FOUR_GROUPS, 1), samples=20_000, seed=8)
    finally:
        sys.setswitchinterval(interval)
    assert rows_digest(four) == "f7b19704888c735ecfc07feedcbb8cd45de1b6c5ea7982d469c7e52760ca1e8c"


def tuple_loop_rows(vector, dictionaries, samples, seed):
    # reference: one tuple at a time, products left to right, one mean each
    combos = list(itertools.product(*[range(len(d)) for d in dictionaries]))
    stats = [[] for _ in combos]
    batch = wc.montecarlo.sample(seed, vector.space.dimension, samples)
    for b in range(batch.n_full_blocks):
        block = batch.block(b)
        values = []
        for group, dictionary in zip(vector.groups, dictionaries):
            elements = [wc.evaluate(element, block) for element in group]
            per_function = []
            for function in dictionary:
                prod = function.fn(elements[0])
                for x in elements[1:]:
                    prod = prod * function.fn(x)
                per_function.append(prod)
            values.append(per_function)
        for t, combo in enumerate(combos):
            prod = values[0][combo[0]]
            for g in range(1, len(combo)):
                prod = prod * values[g][combo[g]]
            factored = 1.0
            for g, k in enumerate(combo):
                factored *= float(values[g][k].mean())
            stats[t].append(float(prod.mean()) - factored)
    rows = []
    for combo, block_stats in zip(combos, stats):
        arr = np.asarray(block_stats)
        labels = tuple(dictionaries[g][k].name for g, k in enumerate(combo))
        rows.append((labels, abs(float(arr.mean())), float(arr.std(ddof=1) / math.sqrt(len(arr)))))
    return tuple(rows)


def test_reduction_matches_the_tuple_loop():
    # unequal per-group dictionaries, two-element groups and a partial last
    # block (64 full blocks of 156, then 16 samples): the block pass keeps
    # the loop's summation order bit for bit
    v = wc.generate(wc.FamilySpec("vanishing_overlap", (2, 2, 1), (2, 1, 2), theta=0.5), 4)
    full = default_dictionary()
    dictionaries = [full[:3], full[2:7], full[5:7]]
    result = wc.empirical_dependence(v, dictionaries, samples=10_000, seed=6)
    assert result.n_blocks == 64
    assert repr(result.rows) == repr(tuple_loop_rows(v, dictionaries, 10_000, 6))


def test_empirical_rows_ignore_blas_threads():
    # the reduction calls no BLAS routine, so the BLAS thread count, which
    # is read once at import, cannot change a bit.  Blocks of 3906 samples
    # are large enough for a threaded GEMM: a matrix-product reduction
    # gives different digests under 1 and 2 threads here, but not at 20,000
    # samples
    code = (
        "import hashlib, wienerchaos as wc\n"
        "v = wc.generate(wc.FamilySpec('persistent_overlap', (2, 2, 2, 2), (1, 1, 1, 1), theta=0.5), 1)\n"
        "r = wc.empirical_dependence(v, samples=250_000, seed=8)\n"
        "print(hashlib.sha256((repr(r.rows) + repr(r.budgets)).encode()).hexdigest())\n"
    )
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[1] == digests[0]


def test_dependence_memory_does_not_scale_with_tuples(monkeypatch):
    # 7**4 tuples over 64 blocks of B = 3906 samples: the reduction holds one
    # chunk of a slab of head products times the last group's stack at a time
    # (2 x 7 x B doubles), never all 7**3 head products of a block (343 x B
    # doubles, the Khatri-Rao product).  Each worker holds its own block's
    # values and reduction, so the peak grows with the worker count; two
    # workers fix it on any machine
    monkeypatch.setattr(montecarlo, "_WORKERS", 2)
    vector = wc.generate(FOUR_GROUPS, 1)
    block = 250_000 // 64
    tracemalloc.start()
    try:
        result = wc.empirical_dependence(vector, samples=250_000, seed=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.rows) == 7**4 and result.n_blocks == 64
    assert peak < 343 * block * 8


def test_dependence_memory_does_not_scale_with_the_block(monkeypatch):
    # N = 257 and blocks of 3,125 samples: each worker reads its block's
    # normals in pieces of at most 1 MiB and keeps only the elements'
    # values, so the traced peak of two workers stays below one block of
    # normals (3,125 x 257 doubles, 6.4 MB); measured 6.2 MB
    monkeypatch.setattr(montecarlo, "_WORKERS", 2)
    vector = wc.generate(wc.FamilySpec("vanishing_overlap", (2, 2), (1, 1), theta=0.5), 128)
    assert vector.space.dimension == 257
    tracemalloc.start()
    try:
        result = wc.empirical_dependence(vector, samples=200_000, seed=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.n_blocks == 64
    assert peak < 3125 * 257 * 8


def test_a_four_group_block_is_reduced_in_49_slabs():
    # with the default dictionary's 7 functions per group, the three head
    # stacks give 7 x 7 slabs of (7, B) products, not 343 single rows, so a
    # block costs a few hundred numpy calls, not one per head product; each
    # slab row is the left-to-right product of one row per head stack
    k = len(default_dictionary())
    rng = np.random.default_rng(3)
    heads = [rng.standard_normal((k, 3906)) for _ in range(3)]
    slabs = list(independence._head_products(heads))
    assert len(slabs) == k * k and all(slab.shape == (k, 3906) for slab in slabs)
    rows = [heads[0][a] * heads[1][b] * heads[2][c] for a, b, c in itertools.product(range(k), repeat=3)]
    assert np.array_equal(np.concatenate(slabs), np.stack(rows))


def test_block_products_are_capped_at_512_kib():
    # d = 2 with two 256-function dictionaries and B = 15,625: one slab is
    # the whole first stack, and 256 x 256 x B doubles (8 GB) at once would
    # be the uncut product.  The cap cuts it into products of 4 rows of the
    # last stack (500 kB); the rest of the peak is the 65,536 sums, which
    # become the gaps in place, and the 65,536 factored means.
    rng = np.random.default_rng(5)
    stacks = [rng.standard_normal((256, 15_625)) for _ in range(2)]
    tracemalloc.start()
    try:
        gaps = independence._block_gaps(stacks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19 + 2 * 256 * 256 * 8  # 1.5 MiB; measured 1.13 MiB
    assert gaps.shape == (256 * 256,)
    for i, j in [(0, 0), (17, 255), (255, 3)]:
        a, b = stacks[0][i], stacks[1][j]
        assert gaps[256 * i + j] == (a * b).mean() - a.mean() * b.mean()
