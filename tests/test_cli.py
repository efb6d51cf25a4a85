"""CLI surface: exit codes, headers, round trips, deterministic output."""

import argparse
import ast
import hashlib
import importlib.util
import itertools
import json
import math
import os
import re
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


def test_check_csv_matches_the_witness(workdir):
    # the pair table is written whatever the verdict; this FAIL exits 1
    assert main(["check", "persistent.json", "--samples", "0", "--format", "csv", "--out", "check.csv"]) == 1
    comments, rows = read_csv("check.csv")
    assert rows[0] == "pair_i,pair_j,cov2,max_contraction_norm,r_argmax,cross"
    assert len(rows) == 4  # header + 3 pair rows
    cross_rows = [r.split(",") for r in rows[1:] if r.split(",")[5] == "1"]
    assert len(cross_rows) == 1
    report = wc.criterion_check(wc.load_vector("persistent.json"))
    assert float(cross_rows[0][2]) == report.witness_cov
    assert float(cross_rows[0][3]) == report.witness_norm
    assert any("wienerchaos 0.1.0" in c for c in comments)


def test_check_summary_pairs_hold_the_whole_matrix(tmp_path, monkeypatch):
    # the pairs list carries every i <= j entry, diagonal included, so the
    # squared-covariance matrix is rebuilt from it entry for entry, each
    # entry the cov_squares of its pair
    monkeypatch.chdir(tmp_path)
    wc.save_vector(wc.generate(wc.FamilySpec("vanishing_overlap", (2, 2), (2, 2), theta=0.5), 8), "m.json")
    assert main(["check", "m.json", "--samples", "0", "--out", "c.json"]) == 1
    elements = wc.load_vector("m.json").elements
    assert len(elements) == 4
    rebuilt, expected = np.full((4, 4), np.nan), np.full((4, 4), np.nan)
    for pair in json.loads(Path("c.json").read_text())["pairs"]:
        rebuilt[pair["i"] - 1, pair["j"] - 1] = rebuilt[pair["j"] - 1, pair["i"] - 1] = pair["cov2"]
    for i, j in itertools.combinations_with_replacement(range(4), 2):
        expected[i, j] = expected[j, i] = wc.cov_squares(elements[i], elements[j])
    assert (rebuilt == expected).all()


def test_check_csv_rows_match_the_summary_pairs(tmp_path, monkeypatch):
    # the two formats of one exact pass carry the same pairs: each CSV row is
    # its summary pair with the largest contraction norm and its r
    monkeypatch.chdir(tmp_path)
    wc.save_vector(wc.generate(wc.FamilySpec("vanishing_overlap", (2, 2), (2, 2), theta=0.5), 8), "m.json")
    assert main(["check", "m.json", "--samples", "0", "--format", "csv", "--out", "c.csv"]) == 1
    assert main(["check", "m.json", "--samples", "0", "--out", "c.json"]) == 1
    rows = [row.split(",") for row in read_csv("c.csv")[1][1:]]
    pairs = json.loads(Path("c.json").read_text())["pairs"]
    assert len(rows) == len(pairs) == 10
    for row, pair in zip(rows, pairs):
        norm = max(pair["norms"])
        expected = [pair["i"], pair["j"], pair["cov2"], norm, pair["norms"].index(norm) + 1, pair["cross"]]
        assert [int(row[0]), int(row[1]), float(row[2]), float(row[3]), int(row[4]), int(row[5])] == expected


def test_check_without_out_writes_the_table_to_stdout(workdir, capsys):
    # stdout holds the --out file's bytes alone; the verdict goes to stderr
    assert main(["check", "persistent.json", "--samples", "0", "--format", "csv", "--out", "c.csv"]) == 1
    capsys.readouterr()
    assert main(["check", "persistent.json", "--samples", "0", "--format", "csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == Path("c.csv").read_text()
    assert captured.err.endswith(": FAIL\n")


def test_check_all_zero_for_disjoint(workdir):
    assert main(["check", "disjoint.json", "--samples", "0", "--format", "csv", "--out", "d.csv"]) == 0
    _, rows = read_csv("d.csv")
    for row in rows[1:]:
        i, j, cov2, norm, _, cross = row.split(",")
        if cross == "1":
            assert cov2 == "0" and norm == "0"


def test_cov2_command_is_gone(workdir, capsys):
    # check --samples 0 writes the pair table; there is no second command for it
    with pytest.raises(SystemExit) as exit_:
        main(["cov2", "persistent.json", "--out", "x"])
    assert exit_.value.code == 2
    assert "invalid choice: 'cov2'" in capsys.readouterr().err
    assert not os.path.exists("x")


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
        ratio = emp.ratio(wc.criterion_check(vector))
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
    expected = wc.evaluate(vector.elements[0], np.concatenate(list(batch.map_blocks(batch.block))))
    got = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert np.array_equal(got, expected)


def test_failed_run_leaves_no_output_file(workdir):
    bad = {"dimension": 2, "groups": [{"order": 1, "elements": [{"dimension": 2, "order": 1,
           "entries": [{"index": [9], "value": 1.0}]}]}]}
    with open("bad.json", "w") as handle:
        json.dump(bad, handle)
    files = sorted(os.listdir())
    assert main(["check", "bad.json", "--samples", "0", "--out", "never.csv"]) == 2
    assert sorted(os.listdir()) == files  # neither never.csv nor a temporary file


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
    "independence.squared_cov_matrix@wienerchaos.independence.squared_cov_matrix",
    "tensor.contract_sym@wienerchaos.chaos.contract_sym",
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
    # the whole --out file of check and sweep: '#' header lines, column
    # names, JSON key order and every cell's text
    monkeypatch.chdir(tmp_path)
    wc.save_vector(wc.generate(wc.FamilySpec("vanishing_overlap", (2, 2), (2, 2), theta=0.5), 8), "m.json")
    argv, code, digest = PINNED_DOCUMENTS[name]
    assert main(argv + ["--out", "out"]) == code
    assert hashlib.sha256((tmp_path / "out").read_bytes()).hexdigest() == digest


# argv, exit code, stdout and the sha256 of the --out file; every digest is a fixed value
PINNED_CONTRACTS = {
    "contract": (
        ["contract", "f.json", "g.json", "--r", "1"],
        0,
        "norm: 5.4031032749707828\n",
        "412ab15c97f51e620be59f559d48af48c880802c053f456e1831696f3e791bfa",
    ),
    "contract-sym": (
        ["contract", "f.json", "g.json", "--r", "1", "--sym"],
        0,
        "norm: 4.0211037042085849\n",
        "4804e95ea78cab85e7ac8e205890a0889e63d4cc94ef770710d0df70b7f1dd39",
    ),
}


@pytest.mark.parametrize("name", PINNED_CONTRACTS)
def test_contract_documents_are_pinned(tmp_path, monkeypatch, capsys, name):
    # the whole --out file of contract: the meta line, its config included,
    # and every entry of the raw tensor or of the symmetrized kernel
    monkeypatch.chdir(tmp_path)
    sp = HilbertSpace(3)
    wc.save_kernel(SymmetricTensor(sp, 2, {(1, 1): 0.3, (1, 2): -1.25, (2, 3): 0.7}), "f.json")
    wc.save_kernel(SymmetricTensor(sp, 3, {(1, 1, 2): 0.1, (1, 3, 3): -0.4, (2, 2, 3): 2.5}), "g.json")
    argv, code, out, digest = PINNED_CONTRACTS[name]
    assert main(argv + ["--out", "out"]) == code
    assert capsys.readouterr().out == out
    assert hashlib.sha256((tmp_path / "out").read_bytes()).hexdigest() == digest


RECORDED_RUNS = {
    "contract": ["contract", "f.json", "g.json", "--r", "1"],
    "check": ["check", "persistent.json", "--samples", "0"],
    "check-csv": ["check", "persistent.json", "--samples", "0", "--format", "csv"],
    "sweep": ["sweep", "--family", "disjoint", "--orders", "2,2", "--sizes", "1,1", "--n", "4,16", "--samples", "10000"],
    "simulate": ["simulate", "persistent.json", "--samples", "100"],
}


@pytest.mark.parametrize("name", RECORDED_RUNS)
def test_config_records_every_option(workdir, name):
    # meta.config is enough to rerun a document only if it holds every
    # option the command parses; an option added later must land there too
    argv = RECORDED_RUNS[name]
    parser = argparse.ArgumentParser()
    cli._COMMANDS[argv[0]][1](parser)
    dests = {action.dest for action in parser._actions} - {"help", "out"} | {"subcommand"}
    assert main(argv + ["--out", "out"]) in (0, 1)
    text = Path("out").read_text()
    if text.startswith("#"):
        config = json.loads(next(line for line in text.splitlines() if line.startswith("# config: "))[10:])
    else:
        config = json.loads(text)["meta"]["config"]
    assert set(config) == dests
    assert config["subcommand"] == argv[0]
    if argv[0] == "sweep":
        assert config["orders"] == [2, 2] and config["sizes"] == [1, 1] and config["n"] == [4, 16]
        assert all(type(value) is int for key in ("orders", "sizes", "n") for value in config[key])


def test_simulate_bytes_do_not_depend_on_the_piece_size(tmp_path, monkeypatch):
    # a block of 46 rows read in pieces of three rows is formatted as the
    # same rows as one read in one piece, as the pinned run reads every block
    monkeypatch.chdir(tmp_path)
    vector = wc.generate(wc.FamilySpec("vanishing_overlap", (2, 2), (2, 2), theta=0.5), 8)
    wc.save_vector(vector, "m.json")
    argv = ["simulate", "m.json", "--samples", "3000", "--seed", "4", "--out"]
    assert main(argv + ["whole.csv"]) == 0
    rows, real = [], cli.evaluate

    def evaluate(element, piece):
        rows.append(len(piece))
        return real(element, piece)

    monkeypatch.setattr(cli, "evaluate", evaluate)
    monkeypatch.setattr(montecarlo, "_PIECE", 3 * vector.space.dimension)
    assert main(argv + ["pieces.csv"]) == 0
    assert max(rows) == 3
    assert (tmp_path / "pieces.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_check_refuses_a_kernel_whose_variance_overflows(workdir, capsys):
    # Var = ||f||^2 overflows to inf; rescaling by 1/sqrt(inf) = 0 would make it the zero element
    Path("huge.json").write_text(
        '{"dimension": 1, "groups": [{"order": 1, "elements": '
        '[{"dimension": 1, "order": 1, "entries": [{"index": [1], "value": 1e155}]}]}]}'
    )
    files = sorted(os.listdir())
    assert main(["check", "huge.json", "--samples", "0", "--out", "out.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: huge.json: group 1, element 1: ") and "variance overflows to inf" in err
    assert sorted(os.listdir()) == files  # neither out.json nor a temporary file


def test_check_refuses_a_kernel_with_zero_norm(workdir, capsys):
    Path("zero.json").write_text(
        '{"dimension": 2, "groups": [{"order": 1, "elements": [{"dimension": 2, "order": 1, "entries": '
        '[{"index": [1], "value": 1.0}]}]}, {"order": 1, "elements": [{"dimension": 2, "order": 1, "entries": []}]}]}'
    )
    assert main(["check", "zero.json", "--samples", "0", "--out", "out.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: zero.json: group 2, element 1: ") and "zero norm" in err
    assert not os.path.exists("out.json")


@pytest.mark.parametrize(
    "argv, lines",
    [
        (["simulate", "disjoint.json", "--samples", "100000"], 2),  # as `simulate ... | head -2`
        (["contract", "f.json", "g.json", "--r", "1", "--out", "c.json"], 0),  # its one line waits in the buffer
    ],
    ids=["simulate", "contract"],
)
def test_a_reader_that_closes_early_ends_the_command_quietly(workdir, argv, lines):
    # exit 128 + SIGPIPE with nothing on stderr, as a shell reports for `yes | head`; not an input error
    env = {**os.environ, "PYTHONPATH": str(Path(wc.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    process = subprocess.Popen(
        [sys.executable, "-m", "wienerchaos", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    assert all(process.stdout.readline() for _ in range(lines))
    process.stdout.close()
    assert process.wait(timeout=60) == 141
    assert process.stderr.read() == b""
    process.stderr.close()


CELL_VALUES = [-0.0, 5e-324, 1e-5, 1e-4, 1e16, 1e17, -1.5e300]


def test_simulate_cells_are_format_float(workdir, monkeypatch):
    # a block of rows is formatted by format_rows, which lays out a cell in
    # [1e-4, 1e16) from its exact digits and writes every other cell as
    # format_float does; each cell must be format_float's "%.17g" text: the
    # signed zero, the smallest subnormal and both sides of the switches
    # between fixed and exponent notation
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


def test_simulate_formats_its_blocks_on_the_workers(workdir, monkeypatch):
    # the main thread writes the header and each block's finished text; no
    # block's rows are formatted there
    calls = []
    format_rows = cli.format_rows

    def recording(table):
        calls.append((threading.current_thread() is threading.main_thread(), len(table)))
        return format_rows(table)

    monkeypatch.setattr(cli, "format_rows", recording)
    monkeypatch.setattr(montecarlo, "_WORKERS", 2)
    assert main(["simulate", "persistent.json", "--samples", "3000", "--seed", "4", "--out", "s.csv"]) == 0
    worker_rows = [rows for on_main, rows in calls if not on_main]
    assert len(worker_rows) == 66 and sum(worker_rows) == 3000  # 65 blocks of 46 samples and one of 10
    assert [rows for on_main, rows in calls if on_main] == [0]


def test_console_script_help_documents_formats():
    result = subprocess.run(
        [sys.executable, "-m", "wienerchaos.cli", "--help"], capture_output=True, text=True
    )
    assert result.returncode == 0
    for token in ("contract", "check", "sweep", "simulate", "kernel", "manifest"):
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


SHA256_EMPTY = hashlib.sha256(b"").hexdigest()

# argv, exit code and the sha256 of stdout and of stderr, at 80 columns;
# every digest is a fixed value.  These pin the parser's words: help,
# usage and error text, which argparse writes and the commands never see.
PARSER_WORDS = {
    "no-arguments": (
        [],
        2,
        SHA256_EMPTY,
        "1e39327995f05474817f17fc379649036b5ce917e750508b1f9543c855cb5c79",
    ),
    "help": (
        ["--help"],
        0,
        "051d00365931577622f2b7577b0996c2430bcd403ee71a48ea79e2fecee162ce",
        SHA256_EMPTY,
    ),
    "version": (
        ["--version"],
        0,
        "df1f650d655b6aca06d5ef9fd2c356ddbacd6a853c5665a67b2f7f46716eb7b7",
        SHA256_EMPTY,
    ),
    "unknown-command": (
        ["frobnicate"],
        2,
        SHA256_EMPTY,
        "a67856725a4c5948df820906720ede6d63599aee74a4711e51dbda60a170203d",
    ),
    "contract-help": (
        ["contract", "--help"],
        0,
        "d96f29188a5095acabea43ee57e2ee24c5fab898b35f9d94449a32dc49649368",
        SHA256_EMPTY,
    ),
    "cov2-help": (
        ["cov2", "--help"],
        2,
        SHA256_EMPTY,
        "c010339867a83271c2c24d94798ce893272839de7e8fcbd74c839b05ee00a254",
    ),
    "check-help": (
        ["check", "--help"],
        0,
        "abeba6425c7a02a1d269ab4a312bf9727962666d1330928e7efc1e21ed1a987b",
        SHA256_EMPTY,
    ),
    "sweep-help": (
        ["sweep", "--help"],
        0,
        "05a75fc87a26d19ff3dc1c2cb1660aa2130748ffd0c50dcced536e3b16cd6223",
        SHA256_EMPTY,
    ),
    "simulate-help": (
        ["simulate", "--help"],
        0,
        "e767977965529032f5281038f122a6a01af1a88bb8131256dad401c34583bf10",
        SHA256_EMPTY,
    ),
    "check-without-manifest": (
        ["check"],
        2,
        SHA256_EMPTY,
        "b631ba397ee62a2d44ce2a48159cbba25bafb82d030e33a73879bba6908950fa",
    ),
    "sweep-without-family": (
        ["sweep", "--orders", "2,2", "--sizes", "1,1", "--n", "4"],
        2,
        SHA256_EMPTY,
        "7b265297a244c7971a25dbb7a749a4db549b4145eec98b24c33a1f5272c46cdb",
    ),
    "contract-without-r": (
        ["contract", "a", "b"],
        2,
        SHA256_EMPTY,
        "533568db8ba3b35505767ca4ec25fbf8dae86323285c27148d7d0f22dac8572a",
    ),
    "samples-not-an-integer": (
        ["check", "m.json", "--samples", "x"],
        2,
        SHA256_EMPTY,
        "19609d2994f939bfade141ec290d85572fc43c1fce596965f8b04a27b5fc7034",
    ),
    "samples-a-fraction": (
        ["check", "m.json", "--samples", "1.5"],
        2,
        SHA256_EMPTY,
        "4c853c8038c0cdd189b80debbeef360fbdb41c0640ec52fc47de0f961619840e",
    ),
    "format-xml": (
        ["check", "m.json", "--format", "xml"],
        2,
        SHA256_EMPTY,
        "c75a8e50c63ae3fd87a69ea027eb9f51366c3b864fee8eb0cf42d0329e6bd343",
    ),
    "unknown-option": (
        ["check", "m.json", "--bogus"],
        2,
        SHA256_EMPTY,
        "05d6b22945f6cb0c6ff0f146698a58d2a40427aa5241ed2eb8efb72afe81d541",
    ),
    "version-after-command": (
        ["check", "m.json", "--version"],
        2,
        SHA256_EMPTY,
        "a772d367f289ac972c0e03efb99d49237a49411f166570b1b4f87662dbbc4631",
    ),
    "abbreviated-option": (
        ["check", "m.json", "--samp", "0"],
        1,
        "b4a0809adb12ea99601f490ad770ab1355b6a6c97d9ceb6ede2c45d9080c0af6",
        "724ea9921bf5ad6254e5b776ffa3e05671bc2c53c3a38f1c83d9e24390959516",
    ),
    "stray-positional": (
        ["check", "m.json", "extra", "--samples", "0"],
        2,
        SHA256_EMPTY,
        "0d3afe6e383daaae3e795ff99448d1d521313dcff77bfa497650403d9fe709f3",
    ),
    "double-dash": (
        ["check", "--samples", "0", "--", "m.json"],
        1,
        "b4a0809adb12ea99601f490ad770ab1355b6a6c97d9ceb6ede2c45d9080c0af6",
        "724ea9921bf5ad6254e5b776ffa3e05671bc2c53c3a38f1c83d9e24390959516",
    ),
}


def _run_main(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exit_:
        return exit_.code


@pytest.mark.parametrize("name", PARSER_WORDS)
def test_parser_words_are_pinned(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    wc.save_vector(wc.generate(wc.FamilySpec("vanishing_overlap", (2, 2), (2, 2), theta=0.5), 8), "m.json")
    argv, code, out_digest, err_digest = PARSER_WORDS[name]
    assert _run_main(argv) == code
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == out_digest, captured.out
    assert hashlib.sha256(captured.err.encode()).hexdigest() == err_digest, captured.err


def test_a_command_builds_only_its_own_parser(workdir, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["check", "persistent.json", "--samples", "0", "--out", "c.json"]) == 1
    assert built == ["wienerchaos check"]


COMMAND_ARGV = {
    "contract": ["contract", "f.json", "g.json", "--r", "1"],
    "check": ["check", "persistent.json", "--samples", "0"],
    "sweep": ["sweep", "--family", "disjoint", "--orders", "2,2", "--sizes", "1,1", "--n", "4"],
    "simulate": ["simulate", "persistent.json"],
}


@pytest.mark.parametrize("name", COMMAND_ARGV)
def test_main_calls_the_command_function_the_module_holds(workdir, monkeypatch, name):
    # perfbench/child.py times a command by replacing cli.cmd_<name> with setattr;
    # a parser that kept the function it saw at import would skip the replacement
    calls = []
    monkeypatch.setattr(cli, f"cmd_{name}", lambda args: calls.append(args) or 7)
    assert main(COMMAND_ARGV[name]) == 7
    assert len(calls) == 1


@pytest.mark.parametrize("workload", ["exact-overlap", "monte-carlo"])
def test_perfbench_commands_parse(tmp_path, monkeypatch, workload):
    # every command the benchmark runs names a command the CLI still has and
    # parses under it; a removed command or option would fail the benchmark
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks the module up
    spec.loader.exec_module(workloads)
    monkeypatch.chdir(tmp_path)
    commands = workloads.WORKLOADS[workload](wc, 1, str(tmp_path))
    assert commands
    for command in commands:
        calls = []
        monkeypatch.setattr(cli, f"cmd_{command.argv[0]}", lambda args: calls.append(args) or 7)
        assert main(list(command.argv)) == 7
        assert len(calls) == 1


# argument lists on which a command's own parser could read differently from
# the full parser: options after the command that the top level also knows
PARSER_AGREEMENT = [
    ["check", "m.json", "--=x"],
    ["check", "m.json", "--ver"],
    ["check", "-h", "m.json"],
    ["check", "m.json", "--h"],
    ["check", "--samp=0", "m.json"],
    ["check", "m.json", "--s", "0"],
    ["check", "m.json", "--samples", "0", "--samples", "1"],
    ["check", "m.json", "--tol"],
    ["check", "--"],
    ["check", "--", "m.json", "--samples"],
    ["check", "m.json", "--", "extra"],
    ["check", "m.json", "--form", "summary"],
    ["contract", "f.json", "--r", "1", "g.json", "--sy"],
    ["sweep", "--fam", "disjoint", "--orders", "2,2", "--sizes", "1,1", "--n", "4", "--samples", "-1"],
    ["simulate", "m.json", "--tol", "1"],
    ["Check", "m.json"],
]


@pytest.mark.parametrize("argv", PARSER_AGREEMENT, ids=" ".join)
def test_the_command_parser_reads_as_the_full_parser(monkeypatch, capsys, argv):
    # the same namespace reaches the same command, or the same exit prints the same words
    monkeypatch.setenv("COLUMNS", "80")
    calls = []

    def recorder(name):
        def command(args):
            calls.append((name, {k: v for k, v in vars(args).items() if k not in ("func", "subcommand")}))
            return 0

        return command

    for name in COMMAND_ARGV:
        monkeypatch.setattr(cli, f"cmd_{name}", recorder(name))

    def run(parse):
        calls.clear()
        try:
            code = parse()
        except SystemExit as exit_:
            code = exit_.code
        return code, capsys.readouterr(), calls[:]

    expected = run(lambda: (args := cli.build_parser().parse_args(argv)).func(args))
    assert run(lambda: main(argv)) == expected


def test_readme_synopsis_matches_the_parsers():
    # every flag the README's "Command line" block names exists on its
    # command's parser; a bracketed number is that flag's default, and a
    # bracketed a|b list is its choices
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```\n", 2)[1]
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    lines = block.replace("\\\n", " ").splitlines()
    assert [line.split()[1] for line in lines] == list(subparsers.choices)
    for line in lines:
        parser = subparsers.choices[line.split()[1]]
        actions = {flag: action for action in parser._actions for flag in action.option_strings}
        flags = re.findall(r"--[a-z]+", line)
        assert flags and set(flags) <= set(actions), line
        for flag, value in re.findall(r"\[(--[a-z]+) ([^]]+)\]", line):
            if "|" in value:
                assert tuple(value.split("|")) == actions[flag].choices, line
            elif re.fullmatch(r"[-+.\de]+", value):
                assert float(value) == actions[flag].default, line


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
    files = sorted(os.listdir())
    assert main(["simulate", "persistent.json", "--samples", "3000", "--out", "s.csv"]) == 2
    assert next(calls) > 10
    assert sorted(os.listdir()) == files  # neither s.csv nor a temporary file


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

    monkeypatch.setattr(montecarlo, "_block_stream", refuse)
    files = sorted(os.listdir())
    assert main(argv + ["--out", "out.txt"]) == 2
    assert "error:" in capsys.readouterr().err
    assert sorted(os.listdir()) == files  # neither out.txt nor a temporary file


def test_check_without_samples_starts_no_thread(workdir, monkeypatch):
    monkeypatch.setattr(montecarlo, "_WORKERS", 2)

    def refuse(self):
        raise AssertionError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert main(["check", "persistent.json", "--samples", "0", "--out", "c.json"]) == 1
    assert os.path.exists("c.json")
