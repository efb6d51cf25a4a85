"""The benchmark's workloads: generated inputs, CLI commands and output checks.

Each workload is a fixed list of ``wienerchaos`` CLI invocations.  Its input
manifests are generated here through the public API before anything is
timed; the program receives only those files and command-line flags, and
the workload seed reaches it only as ``--seed``.  Sizes are scaled down
from the reference commands in README.md, so that a run holds several
rounds while each command keeps its layers' shares of the time.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

THETA = 0.5
TOL = 1e-6
EXACT_RTOL = 1e-12

# Sizes of the rounds; README.md records why each was chosen.
EXACT_N22 = 256
EXACT_N32 = 128
SWEEP_N = (32, 128)
SWEEP_SAMPLES = 200_000
TUPLES_SAMPLES = 250_000
SIMULATE_N = 16
SIMULATE_SIZES = (4, 4)
SIMULATE_SAMPLES = 100_000

SWEEP_COLUMNS = ["n", "cov2_witness", "contraction_witness", "empirical_gap", "stderr", "bound_ratio"]


class CheckFailed(Exception):
    """An output that is present but wrong."""


@dataclass(frozen=True)
class Command:
    """One CLI invocation, run in the work directory, and how to judge it."""

    argv: tuple[str, ...]
    expect_exit: int
    output: str
    check: Callable[[str], None]


def _delta(n: int) -> float:
    # the vanishing families put weight theta * n^(-1/4) on the shared coordinate
    return THETA * n**-0.25


def _close(label: str, got: float, want: float) -> None:
    if not abs(got - want) <= EXACT_RTOL * abs(want):
        raise CheckFailed(f"{label} is {got!r}, closed form {want!r}")


def _witnesses(cov: float, norm: float) -> Callable[[dict], None]:
    def check(summary: dict) -> None:
        _close("cov2 witness", summary["witness_cov"], cov)
        _close("contraction witness", summary["witness_contraction"], norm)

    return check


def _summary_check(*parts: Callable[[dict], None]) -> Callable[[str], None]:
    def check(path: str) -> None:
        with open(path, encoding="utf-8") as handle:
            summary = json.load(handle)
        for part in parts:
            part(summary)

    return check


def _detects_dependence(summary: dict) -> None:
    empirical = summary["empirical"]
    if not empirical["gap"] > 4 * empirical["stderr"]:
        raise CheckFailed(f"gap {empirical['gap']!r} is within 4 stderr {empirical['stderr']!r}")


def _csv_rows(path: str) -> tuple[list[str], list[str]]:
    """Column header and data lines of a CLI CSV, past its '#' comments."""
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if not line.startswith("#")]
    if not lines:
        raise CheckFailed("CSV has no column header")
    return lines[0].split(","), lines[1:]


def _save(wc, spec_args: tuple, n: int, workdir: str, name: str) -> str:
    vector = wc.generate(wc.FamilySpec(*spec_args, theta=THETA), n)
    wc.save_vector(vector, os.path.join(workdir, name))
    return name


def _build_exact(wc, seed: int, workdir: str) -> list[Command]:
    pair = _save(wc, ("vanishing_overlap", (2, 2), (1, 1)), EXACT_N22, workdir, "overlap22.json")
    mixed = _save(wc, ("mixed_orders", (3, 2), (1, 1)), EXACT_N32, workdir, "mixed32.json")
    d22, d32 = _delta(EXACT_N22), _delta(EXACT_N32)
    return [
        Command(
            ("check", pair, "--samples", "0", "--tol", str(TOL), "--out", "exact22.json"),
            1,
            "exact22.json",
            _summary_check(_witnesses(14 * d22**4, d22**2 / 2)),
        ),
        Command(
            ("check", mixed, "--samples", "0", "--tol", str(TOL), "--out", "exact32.json"),
            1,
            "exact32.json",
            _summary_check(_witnesses(30 * d32**4, d32**2 / math.sqrt(12))),
        ),
    ]


def _check_sweep(path: str) -> None:
    header, rows = _csv_rows(path)
    if header != SWEEP_COLUMNS:
        raise CheckFailed(f"sweep columns {header}")
    if len(rows) != len(SWEEP_N):
        raise CheckFailed(f"sweep has {len(rows)} rows, expected {len(SWEEP_N)}")
    for n, line in zip(SWEEP_N, rows):
        cells = line.split(",")
        if len(cells) != len(SWEEP_COLUMNS) or int(cells[0]) != n:
            raise CheckFailed(f"sweep row {line!r} for n={n}")
        cov2, norm, gap, stderr, ratio = (float(cell) for cell in cells[1:])
        _close(f"cov2 witness at n={n}", cov2, 14 * _delta(n) ** 4)
        _close(f"contraction witness at n={n}", norm, _delta(n) ** 2 / 2)
        if not all(math.isfinite(value) for value in (gap, stderr, ratio)) or stderr <= 0:
            raise CheckFailed(f"sweep row at n={n} has gap {gap}, stderr {stderr}, ratio {ratio}")


def _build_sweep(wc, seed: int, workdir: str) -> list[Command]:
    argv = (
        "sweep", "--family", "vanishing_overlap", "--orders", "2,2", "--sizes", "1,1",
        "--theta", str(THETA), "--n", ",".join(map(str, SWEEP_N)),
        "--samples", str(SWEEP_SAMPLES), "--seed", str(seed), "--out", "sweep.csv",
    )  # fmt: skip
    return [Command(argv, 0, "sweep.csv", _check_sweep)]


def _build_tuples(wc, seed: int, workdir: str) -> list[Command]:
    vector = _save(wc, ("persistent_overlap", (2, 2, 2, 2), (1, 1, 1, 1)), 1, workdir, "persistent.json")
    argv = (
        "check", vector, "--samples", str(TUPLES_SAMPLES), "--seed", str(seed),
        "--tol", str(TOL), "--out", "tuples.json",
    )  # fmt: skip
    # persistent overlap keeps delta = theta: witnesses 14 theta^4 and theta^2 / 2
    check = _summary_check(_witnesses(14 * THETA**4, THETA**2 / 2), _detects_dependence)
    return [Command(argv, 1, "tuples.json", check)]


def _check_simulate(path: str) -> None:
    header, rows = _csv_rows(path)
    elements = sum(SIMULATE_SIZES)
    if header != ["sample"] + [f"F{i + 1}" for i in range(elements)]:
        raise CheckFailed(f"simulate columns {header}")
    if len(rows) != SIMULATE_SAMPLES:
        raise CheckFailed(f"simulate has {len(rows)} rows, expected {SIMULATE_SAMPLES}")
    table = np.loadtxt(rows, delimiter=",", ndmin=2)
    if table.shape[1] != elements + 1 or not np.array_equal(table[:, 0], np.arange(1, len(rows) + 1)):
        raise CheckFailed("simulate rows are not numbered 1..samples with one cell per element")
    values = table[:, 1:]
    means, variances = values.mean(axis=0), values.var(axis=0, ddof=1)
    stderrs = np.sqrt(variances / len(rows))
    for i in range(elements):
        if not abs(means[i]) < 5 * stderrs[i]:
            raise CheckFailed(f"F{i + 1} mean {means[i]!r} is beyond 5 stderr {stderrs[i]!r}")
        if not abs(variances[i] - 1.0) < 0.05:
            raise CheckFailed(f"F{i + 1} variance {variances[i]!r} is not within 5% of 1")


def _build_simulate(wc, seed: int, workdir: str) -> list[Command]:
    vector = _save(wc, ("vanishing_overlap", (2, 2), SIMULATE_SIZES), SIMULATE_N, workdir, "simulate.json")
    argv = ("simulate", vector, "--samples", str(SIMULATE_SAMPLES), "--seed", str(seed), "--out", "draws.csv")
    return [Command(argv, 0, "draws.csv", _check_simulate)]


def _build_monte_carlo(wc, seed: int, workdir: str) -> list[Command]:
    # one workload rather than three, so that each run is long enough to
    # average over the host's drift (README.md); the record keeps each
    # command's wall times and traced spans apart
    return [
        *_build_sweep(wc, seed, workdir),
        *_build_tuples(wc, seed, workdir),
        *_build_simulate(wc, seed, workdir),
    ]


# name -> builder(wienerchaos module, seed, work directory) -> commands of one
# round; README.md records why each workload was chosen
WORKLOADS: dict[str, Callable[[object, int, str], list[Command]]] = {
    "exact-overlap": _build_exact,
    "monte-carlo": _build_monte_carlo,
}
