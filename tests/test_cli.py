"""CLI surface: exit codes, headers, round trips, deterministic output."""

import ast
import hashlib
import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import wienerchaos as wc
from wienerchaos import cli, montecarlo
from wienerchaos.cli import main
from wienerchaos.exceptions import ValidationError
from wienerchaos.sequences import format_float, load_raw
from wienerchaos.tensor import HilbertSpace, SymmetricTensor


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    sp = HilbertSpace(3)
    wc.save_kernel(SymmetricTensor(sp, 2, {(1, 1): 1.0}), "f.json")
    wc.save_kernel(SymmetricTensor(sp, 2, {(1, 2): 0.5}), "g.json")
    wc.save_vector(
        wc.generate(wc.FamilySpec("persistent_overlap", (2, 2), (1, 1), theta=0.5), 1),
        "persistent.json",
    )
    wc.save_vector(wc.generate(wc.FamilySpec("disjoint", (2, 2), (1, 1)), 4), "disjoint.json")
    return tmp_path


def read_csv(path):
    comments, rows = [], []
    with open(path) as handle:
        for line in handle:
            (comments if line.startswith("#") else rows).append(line.rstrip("\n"))
    return comments, rows


def test_contract_round_trip_and_norm(workdir, capsys):
    assert main(["contract", "f.json", "f.json", "--r", "1", "--out", "c.json"]) == 0
    out = capsys.readouterr().out
    assert "norm: 1" in out
    raw = load_raw("c.json")
    assert raw.entries == {((1,), (1,)): 1.0}
    meta = json.loads(Path("c.json").read_text())["meta"]
    assert meta["norm"] == 1.0
    assert meta["generator"] == "philox4x64-ziggurat/2"
    assert meta["config"]["subcommand"] == "contract"


def test_contract_sym_loads_as_kernel(workdir):
    assert main(["contract", "f.json", "g.json", "--r", "1", "--sym", "--out", "s.json"]) == 0
    kernel = wc.load_kernel("s.json")
    assert kernel.order == 2
    # contraction pairs the last slots: e1e1 (x)_1 e1e2 keeps (e1, e2)/branches
    assert kernel.space.dimension == 3


def test_contract_disjoint_is_zero(workdir):
    sp = HilbertSpace(3)
    wc.save_kernel(SymmetricTensor(sp, 2, {(3, 3): 1.0}), "h.json")
    assert main(["contract", "f.json", "h.json", "--r", "1", "--out", "z.json"]) == 0
    assert load_raw("z.json").entries == {}
    assert json.loads(Path("z.json").read_text())["meta"]["norm"] == 0.0


def test_cov2_csv_matches_check_witness(workdir):
    assert main(["cov2", "persistent.json", "--out", "cov2.csv"]) == 0
    comments, rows = read_csv("cov2.csv")
    assert rows[0] == "pair_i,pair_j,cov2,max_contraction_norm,r_argmax,cross"
    assert len(rows) == 4  # header + 3 pair rows
    cross_rows = [r.split(",") for r in rows[1:] if r.split(",")[5] == "1"]
    assert len(cross_rows) == 1
    report = wc.criterion_check(wc.load_vector("persistent.json"))
    assert float(cross_rows[0][2]) == report.witness_cov
    assert float(cross_rows[0][3]) == report.witness_norm
    assert any("wienerchaos 0.1.0" in c for c in comments)


def test_cov2_and_check_csv_rows_are_identical(workdir):
    # both commands write the pair table through the CLI's one pair-row writer
    assert main(["cov2", "persistent.json", "--out", "cov2.csv"]) == 0
    assert main(["check", "persistent.json", "--samples", "0", "--format", "csv", "--out", "check.csv"]) == 1
    assert read_csv("cov2.csv")[1] == read_csv("check.csv")[1]


def test_cov2_and_check_summary_pairs_are_identical(workdir):
    # both commands write the pair objects through the CLI's one pairs list
    assert main(["cov2", "persistent.json", "--format", "summary", "--out", "cov2.json"]) == 0
    assert main(["check", "persistent.json", "--samples", "0", "--out", "check.json"]) == 1
    assert (
        json.loads(Path("cov2.json").read_text())["pairs"] == json.loads(Path("check.json").read_text())["pairs"]
    )


def test_cov2_all_zero_for_disjoint(workdir):
    assert main(["cov2", "disjoint.json", "--out", "d.csv"]) == 0
    _, rows = read_csv("d.csv")
    for row in rows[1:]:
        i, j, cov2, norm, _, cross = row.split(",")
        if cross == "1":
            assert cov2 == "0" and norm == "0"


def test_check_exit_codes(workdir, capsys):
    assert main(["check", "disjoint.json", "--samples", "0"]) == 0
    assert main(["check", "persistent.json", "--samples", "0"]) == 1
    assert main(["check", "nowhere.json"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "nowhere.json" in err


def test_check_summary_document(workdir):
    code = main(
        ["check", "persistent.json", "--samples", "20000", "--seed", "5", "--out", "r.json"]
    )
    assert code == 1
    doc = json.loads(Path("r.json").read_text())
    assert doc["meta"]["seed"] == 5
    assert doc["cov_pass"] is False and doc["contraction_pass"] is False
    assert abs(doc["witness_cov"] - 0.875) < 1e-12
    assert doc["empirical"]["samples"] == 20000
    assert doc["empirical"]["gap"] > 4 * doc["empirical"]["stderr"]
    # reproducible given the seed
    main(["check", "persistent.json", "--samples", "20000", "--seed", "5", "--out", "r2.json"])
    assert Path("r.json").read_text() == Path("r2.json").read_text()


def test_check_csv_format(workdir):
    assert main(["check", "disjoint.json", "--samples", "0", "--format", "csv",
                 "--out", "c.csv"]) == 0
    comments, rows = read_csv("c.csv")
    assert rows[0].startswith("pair_i,")
    assert any('"subcommand": "check"' in c for c in comments)


def test_sweep_csv_schema_and_values(workdir):
    code = main(
        [
            "sweep", "--family", "vanishing_overlap", "--orders", "2,2", "--sizes", "1,1",
            "--theta", "0.5", "--n", "4,16", "--samples", "20000", "--seed", "7",
            "--out", "sweep.csv",
        ]
    )
    assert code == 0
    comments, rows = read_csv("sweep.csv")
    assert rows[0] == "n,cov2_witness,contraction_witness,empirical_gap,stderr,bound_ratio"
    values = [row.split(",") for row in rows[1:]]
    assert [v[0] for v in values] == ["4", "16"]
    for n, row in zip((4, 16), values):
        delta2 = 0.25 / math.sqrt(n)
        assert abs(float(row[1]) - 14 * delta2**2) < 1e-12
        assert abs(float(row[2]) - delta2 / 2) < 1e-12
        assert float(row[4]) > 0
        assert math.isfinite(float(row[5]))
    assert any("# seed: 7" in c for c in comments)


def test_sweep_disjoint_nan_ratio(workdir):
    main(
        [
            "sweep", "--family", "disjoint", "--orders", "2,2", "--sizes", "1,1",
            "--n", "4", "--samples", "20000", "--out", "d.csv",
        ]
    )
    _, rows = read_csv("d.csv")
    n, cov2, norm, gap, stderr, ratio = rows[1].split(",")
    assert cov2 == "0" and norm == "0" and ratio == "nan"


def test_sweep_row_matches_the_library(workdir):
    argv = [
        "sweep", "--family", "vanishing_overlap", "--orders", "2,2", "--sizes", "1,1",
        "--theta", "0.5", "--n", "4,8", "--samples", "20000", "--seed", "5", "--out", "s.csv",
    ]  # fmt: skip
    assert main(argv) == 0
    _, rows = read_csv("s.csv")
    for n, row in zip((4, 8), rows[1:]):
        vector = wc.generate(wc.FamilySpec("vanishing_overlap", (2, 2), (1, 1), theta=0.5), n)
        emp = wc.empirical_dependence(vector, samples=20_000, seed=5)
        ratio = wc.bound_ratio(vector, samples=20_000, seed=5)
        cells = [repr(float(cell)) for cell in row.split(",")[-3:]]
        assert cells == [repr(emp.gap), repr(emp.stderr), repr(ratio)]


def test_sweep_byte_identical_reruns(workdir):
    argv = [
        "sweep", "--family", "vanishing_overlap", "--orders", "2,2", "--sizes", "1,1",
        "--n", "4,8", "--samples", "20000", "--seed", "3",
    ]
    main(argv + ["--out", "a.csv"])
    main(argv + ["--out", "b.csv"])
    assert Path("a.csv").read_bytes() == Path("b.csv").read_bytes()


def test_sweep_rejects_bad_flags(workdir, capsys):
    assert main(["sweep", "--family", "disjoint", "--orders", "2,x", "--sizes", "1,1",
                 "--n", "4"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["sweep", "--family", "disjoint", "--orders", "", "--sizes", "1,1", "--n", "4"]) == 2
    assert "--orders expects comma-separated integers" in capsys.readouterr().err
    assert main(["sweep", "--family", "disjoint", "--orders", "2,2", "--sizes", "1,1",
                 "--n", "4", "--samples", "100"]) == 2


def test_simulate_shape_and_determinism(workdir):
    main(["simulate", "persistent.json", "--samples", "40", "--seed", "2", "--out", "s1.csv"])
    main(["simulate", "persistent.json", "--samples", "40", "--seed", "2", "--out", "s2.csv"])
    assert Path("s1.csv").read_bytes() == Path("s2.csv").read_bytes()
    comments, rows = read_csv("s1.csv")
    assert rows[0] == "sample,F1,F2"
    assert len(rows) == 41
    assert rows[1].split(",")[0] == "1"
    # values reproduce the library evaluation of the same batch
    vector = wc.load_vector("persistent.json")
    batch = wc.sample(2, vector.space.dimension, 40)
    expected = wc.evaluate(vector.elements[0], np.concatenate(list(batch.map_blocks(lambda block: block))))
    got = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert np.array_equal(got, expected)


def test_failed_run_leaves_no_output_file(workdir):
    bad = {"dimension": 2, "groups": [{"order": 1, "elements": [{"dimension": 2, "order": 1,
           "entries": [{"index": [9], "value": 1.0}]}]}]}
    with open("bad.json", "w") as handle:
        json.dump(bad, handle)
    assert main(["cov2", "bad.json", "--out", "never.csv"]) == 2
    assert not os.path.exists("never.csv")
    assert not os.path.exists("never.csv.tmp")


def _private_imports(module: str) -> list:
    tree = ast.parse(Path(wc.__file__).with_name(f"{module}.py").read_text())
    return [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]


def test_cli_imports_no_private_names():
    # the CLI is a shell over the public API: no "from .module import _name"
    assert _private_imports("cli") == []
    # the loaders check entries with the tensor module's one entry check, and nothing else private from it
    assert [name for name in _private_imports("sequences") if name.startswith("tensor.")] == ["tensor._checked_rows"]


def _type_checks(path: Path) -> list:
    """'module.function:line' of each isinstance(_, int or bool) call and numbers.Integral or Real use."""
    tree = ast.parse(path.read_text())
    owner = {}
    for function in ast.walk(tree):  # outer functions first: a nested one belongs to its outermost
        if isinstance(function, ast.FunctionDef):
            for node in ast.walk(function):
                owner.setdefault(node, function.name)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else node.args[1:]
            hit = any(isinstance(kind, ast.Name) and kind.id in ("int", "bool") for kind in kinds)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            hit = node.value.id == "numbers" and node.attr in ("Integral", "Real")
        else:
            hit = isinstance(node, ast.ImportFrom) and node.module == "numbers"
        if hit:
            found.append(f"{path.stem}.{owner.get(node, '<module>')}:{node.lineno}")
    return found


def test_scalar_arguments_are_read_by_the_two_readers_alone():
    # every integer and real argument goes through exceptions._integer or
    # exceptions._real; only tensor._checked_rows keeps its own array-level
    # entry rule, under which index coordinates are plain ints
    package = Path(wc.__file__).parent
    found = [hit for path in sorted(package.glob("*.py")) if path.name != "exceptions.py" for hit in _type_checks(path)]
    assert {hit.split(":")[0] for hit in found} == {"tensor._checked_rows"}, found
    assert _type_checks(package / "exceptions.py")  # the readers themselves are seen


# perfbench hooks whose targets are gone; every other hook must resolve
ABSENT_HOOKS = {
    "chaos.multiply@wienerchaos.independence.multiply",
    "chaos.contraction_norms@wienerchaos.independence.contraction_norms",
    "independence.dependence@wienerchaos.cli._dependence_table",
}


def test_perfbench_hook_targets_resolve():
    # perfbench/child.py wraps package attributes by name; a refactor that
    # renames or moves one detaches its span without any error
    path = Path(__file__).parents[1] / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    absent = set()
    for name, module_name, attribute_path, _, _ in child.HOOKS:
        target = importlib.import_module(module_name)
        for part in attribute_path.split("."):
            target = getattr(target, part, None)
        if target is None:
            absent.add(f"{name}@{module_name}.{attribute_path}")
    assert absent == ABSENT_HOOKS


def test_value_too_large_for_a_float_exits_2(workdir, capsys):
    # an integer beyond the float range is rejected as a malformed entry, not a traceback
    Path("big.json").write_text('{"dimension": 2, "order": 1, "entries": [{"index": [1], "value": 1%s}]}' % ("0" * 400))
    wc.save_kernel(SymmetricTensor(HilbertSpace(2), 1, {(2,): 1.0}), "one.json")
    assert main(["contract", "big.json", "one.json", "--r", "0"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "entry 1" in err and "not a finite number" in err


def test_simulate_bytes_are_pinned(tmp_path, monkeypatch):
    # the whole file, '#' header lines included; the digest is a fixed value
    monkeypatch.chdir(tmp_path)
    wc.save_vector(wc.generate(wc.FamilySpec("vanishing_overlap", (2, 2), (2, 2), theta=0.5), 8), "m.json")
    assert main(["simulate", "m.json", "--samples", "3000", "--seed", "4", "--out", "s.csv"]) == 0
    assert hashlib.sha256((tmp_path / "s.csv").read_bytes()).hexdigest() == (
        "d7147f33f8b473748be84770ad851bb7cf211faf7acde30c3fad6a75480a6830"
    )


SWEEP = ["sweep", "--orders", "2,2", "--sizes", "1,1", "--samples", "20000"]

# argv, exit code and the sha256 of the --out file; every digest is a fixed value
PINNED_DOCUMENTS = {
    "check-summary": (
        ["check", "m.json", "--samples", "0"],
        1,
        "b4a0809adb12ea99601f490ad770ab1355b6a6c97d9ceb6ede2c45d9080c0af6",
    ),
    "check-summary-sampled": (
        ["check", "m.json", "--samples", "20000", "--seed", "6"],
        1,
        "5ab71a5be56999d6b5f38d9fc8cd6681bffa592e9ad548428101034c04e63b34",
    ),
    "check-csv": (
        ["check", "m.json", "--samples", "0", "--format", "csv"],
        1,
        "a829f6d11d9ee2034ad072c1c25924c57f137de0bfa94ae318803b24464c0563",
    ),
    "cov2-summary": (
        ["cov2", "m.json", "--format", "summary"],
        0,
        "df71e5446ba99d8e66aa92f0063a4deff91b410a73d9d6aedc31cae4aa8a989b",
    ),
    "cov2-csv": (
        ["cov2", "m.json"],
        0,
        "55e08ae8176acdedf992372ff3ccc47a9af11f276074c6e00349db31bdbd1a43",
    ),
    "sweep": (
        SWEEP + ["--family", "vanishing_overlap", "--theta", "0.5", "--n", "4,16", "--seed", "7"],
        0,
        "a675463debff41b63f64c45d49e8e2531d43e7619a00b496987917b0f09a3a2f",
    ),
    "sweep-nan-ratio": (
        SWEEP + ["--family", "disjoint", "--n", "4"],
        0,
        "4f10fa5772de9a568882838609bb4405a5372976db396726ded7c974fb1429df",
    ),
}


@pytest.mark.parametrize("name", PINNED_DOCUMENTS)
def test_cli_documents_are_pinned(tmp_path, monkeypatch, name):
    # the whole --out file of check, cov2 and sweep: '#' header lines, column
    # names, JSON key order and every cell's text
    monkeypatch.chdir(tmp_path)
    wc.save_vector(wc.generate(wc.FamilySpec("vanishing_overlap", (2, 2), (2, 2), theta=0.5), 8), "m.json")
    argv, code, digest = PINNED_DOCUMENTS[name]
    assert main(argv + ["--out", "out"]) == code
    assert hashlib.sha256((tmp_path / "out").read_bytes()).hexdigest() == digest


CELL_VALUES = [-0.0, 5e-324, 1e-5, 1e-4, 1e16, 1e17, -1.5e300]


def test_simulate_cells_are_format_float(workdir, monkeypatch):
    # a block of rows is formatted by one % operation; each "%.17g" cell
    # must be format_float's text: the signed zero, the smallest subnormal
    # and both sides of the switches between fixed and exponent notation
    def evaluate(element, block):
        assert block.shape[0] == len(CELL_VALUES)
        return np.array(CELL_VALUES)

    monkeypatch.setattr(cli, "evaluate", evaluate)
    samples = 64 * len(CELL_VALUES)  # 64 blocks of 7 rows
    assert main(["simulate", "persistent.json", "--samples", str(samples), "--out", "s.csv"]) == 0
    _, rows = read_csv("s.csv")
    assert rows[0] == "sample,F1,F2" and len(rows) == samples + 1
    for number, row in enumerate(rows[1:], 1):
        value = CELL_VALUES[(number - 1) % len(CELL_VALUES)]
        assert row.split(",") == [str(number), format_float(value), format_float(value)]


def test_console_script_help_documents_formats():
    result = subprocess.run(
        [sys.executable, "-m", "wienerchaos.cli", "--help"], capture_output=True, text=True
    )
    assert result.returncode == 0
    for token in ("contract", "cov2", "check", "sweep", "simulate", "kernel", "manifest"):
        assert token in result.stdout
    version = subprocess.run(
        [sys.executable, "-m", "wienerchaos.cli", "--version"], capture_output=True, text=True
    )
    assert "wienerchaos 0.1.0" in version.stdout


def test_commands_import_no_scipy(workdir):
    # scipy is only a test dependency: an exact and a sampled command run in a
    # fresh process, and afterwards no scipy module may be loaded
    code = (
        "import sys\n"
        "from wienerchaos.cli import main\n"
        "assert main(['check', 'disjoint.json', '--samples', '0', '--out', 'check.json']) == 0\n"
        "assert main(['simulate', 'disjoint.json', '--samples', '3000', '--seed', '4', '--out', 's.csv']) == 0\n"
        "print(sorted(name for name in sys.modules if name == 'scipy' or name.startswith('scipy.')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(wc.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
    assert (workdir / "check.json").exists() and (workdir / "s.csv").exists()


def test_usage_error_exit_code():
    result = subprocess.run(
        [sys.executable, "-m", "wienerchaos.cli", "frobnicate"], capture_output=True, text=True
    )
    assert result.returncode == 2


def test_sweep_and_simulate_bytes_ignore_the_worker_count(workdir, monkeypatch):
    sweep = ["sweep", "--family", "vanishing_overlap", "--orders", "2,2", "--sizes", "1,1",
             "--n", "32", "--samples", "20000", "--seed", "3"]  # fmt: skip
    simulate = ["simulate", "persistent.json", "--samples", "3000", "--seed", "4"]
    outputs = []
    for workers in (1, 2):
        monkeypatch.setattr(montecarlo, "_WORKERS", workers)
        assert main(sweep + ["--out", f"sweep{workers}.csv"]) == 0
        assert main(simulate + ["--out", f"simulate{workers}.csv"]) == 0
        outputs.append([(workdir / f"{name}{workers}.csv").read_bytes() for name in ("sweep", "simulate")])
    assert outputs[0] == outputs[1]


def test_simulate_failing_midway_leaves_no_file(workdir, monkeypatch):
    # the CSV is written block by block into the temporary file; a failure
    # after the first chunks must still leave neither file behind
    monkeypatch.setattr(montecarlo, "_WORKERS", 2)
    calls = itertools.count()
    real = cli.evaluate

    def evaluate(element, block):
        if next(calls) >= 10:
            raise ValidationError("evaluation failed")
        return real(element, block)

    monkeypatch.setattr(cli, "evaluate", evaluate)
    assert main(["simulate", "persistent.json", "--samples", "3000", "--out", "s.csv"]) == 2
    assert next(calls) > 10
    assert not os.path.exists("s.csv")
    assert not os.path.exists("s.csv.tmp")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "persistent.json", "--samples", str(10**12)],
        ["simulate", "persistent.json", "--samples", str(10**12)],
        ["simulate", "persistent.json", "--samples", "0"],
    ],
    ids=["check-beyond-the-block-cap", "simulate-beyond-the-block-cap", "simulate-zero"],
)
def test_bad_sample_counts_exit_2_and_leave_no_file(workdir, monkeypatch, capsys, argv):
    # a block too large for memory is refused before numpy is asked for it
    def refuse(*args):
        raise AssertionError("a block was drawn")

    monkeypatch.setattr(montecarlo, "_block_normals", refuse)
    assert main(argv + ["--out", "out.txt"]) == 2
    assert "error:" in capsys.readouterr().err
    assert not os.path.exists("out.txt")
    assert not os.path.exists("out.txt.tmp")


def test_check_without_samples_starts_no_thread(workdir, monkeypatch):
    monkeypatch.setattr(montecarlo, "_WORKERS", 2)

    def refuse(self):
        raise AssertionError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert main(["check", "persistent.json", "--samples", "0", "--out", "c.json"]) == 1
    assert os.path.exists("c.json")
