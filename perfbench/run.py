"""End-to-end and per-layer benchmark of the wienerchaos CLI.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Each workload is a fixed list of CLI invocations (see workloads.py).  A
round runs every invocation once, each in a fresh process and one at a
time; rounds repeat until S seconds have passed.  The package is imported
from the checkout's ``src/`` and nothing is installed.

With ``--trace 0`` the end-to-end metrics are reported:

    wall_s       sum over the workload's commands of the median time inside
                 ``cli.main`` (loading inputs and writing outputs included)
    setup_s      median time from spawning a process to entering ``cli.main``
    peak_rss_mb  largest ``ru_maxrss`` of the workload's processes (wait4)

With ``--trace 1`` rounds alternate between untraced and traced processes
and the per-layer metrics are reported: span self times and counts (see
child.py), process CPU time, trace coverage and overhead, and fixed-input
rates of the evaluator and the sampler.

Every command's exit code and output are checked: the output of the last
round that ran cleanly is checked in full, and every other round's output
bytes must equal it.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import workloads
from child import HOOKS

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")

# A single command that runs longer than this is killed and counts as failed.
COMMAND_LIMIT_S = 50.0

# suffix of the output of a command's last clean round
KEPT = ".last-clean"

SPAN_NAMES = list(dict.fromkeys(name for name, *_ in HOOKS))
COUNT_NAMES = list(dict.fromkeys(f"{name}.{counter}" for name, _, _, counter, _ in HOOKS if counter))
COUNT_UNITS = {"cli.emit.bytes": "B"}


@dataclass
class Outcome:
    """One finished command: its timings, resources and verdict."""

    setup_s: float
    wall_s: float
    rss_mb: float
    cpu_s: float
    problem: str | None
    digest: str | None
    trace: dict | None = None


def _git_sha(root: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "--git-dir", os.path.join(root, ".git"), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _digest(path: str) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            sha.update(chunk)
    return sha.hexdigest()


def _spawn(command: workloads.Command, workdir: str, env: dict, traced: bool) -> Outcome:
    record_path = os.path.join(workdir, "record.json")
    for stale in (record_path, os.path.join(workdir, command.output)):
        if os.path.exists(stale):
            os.remove(stale)
    argv = [sys.executable, CHILD, record_path, "1" if traced else "0", *command.argv]
    with open(os.path.join(workdir, "child.log"), "wb") as log:
        spawned = time.monotonic()
        process = subprocess.Popen(argv, cwd=workdir, env=env, stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(COMMAND_LIMIT_S, process.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        except BaseException:
            process.kill()
            process.wait()
            raise
        finally:
            watchdog.cancel()
        process.returncode = os.waitstatus_to_exitcode(status)
    rss_mb = usage.ru_maxrss / 1024.0
    cpu_s = usage.ru_utime + usage.ru_stime
    reaped = time.monotonic()
    try:
        with open(record_path, encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, ValueError):
        with open(os.path.join(workdir, "child.log"), encoding="utf-8", errors="replace") as handle:
            tail = handle.read()[-400:]
        problem = f"exit {process.returncode} without a timing record: {tail!r}"
        # without the child's clock readings the whole process is charged
        return Outcome(reaped - spawned, reaped - spawned, rss_mb, cpu_s, problem, None)
    problem = None
    if not os.path.abspath(record["package"]).startswith(env["PYTHONPATH"] + os.sep):
        problem = f"imported {record['package']} instead of the checkout's package"
    elif record["exit"] != command.expect_exit:
        problem = f"exit {record['exit']}, expected {command.expect_exit}"
    digest = None
    output = os.path.join(workdir, command.output)
    if problem is None:
        if os.path.exists(output):
            digest = _digest(output)
            # kept for _judge, so that a later failed round cannot replace it
            os.replace(output, output + KEPT)
        else:
            problem = f"no output {command.output}"
    return Outcome(
        setup_s=record["entered"] - spawned,
        wall_s=record["left"] - record["entered"],
        rss_mb=rss_mb,
        cpu_s=cpu_s,
        problem=problem,
        digest=digest,
        trace=record.get("trace"),
    )


def _judge(commands: list[workloads.Command], executed: list[list[Outcome]], workdir: str) -> list[str]:
    """One line per failed operation.

    The output kept on disk is the last clean round's; it is checked in full,
    and every other clean round's output must be byte-identical to it.
    """
    failures = []
    for index, command in enumerate(commands):
        label = " ".join(command.argv[:2])
        column = [row[index] for row in executed]
        clean = [outcome.digest for outcome in column if outcome.problem is None]
        verdict = None
        if clean:
            try:
                command.check(os.path.join(workdir, command.output + KEPT))
            except (workloads.CheckFailed, KeyError, ValueError, OSError) as error:
                verdict = f"{type(error).__name__}: {error}"
        for outcome in column:
            if outcome.problem is not None:
                failures.append(f"{label}: {outcome.problem}")
            elif outcome.digest != clean[-1]:
                failures.append(f"{label}: output differs from the last clean round's checked output")
            elif verdict is not None:
                failures.append(f"{label}: {verdict}")
    return failures


def _median_wall(outcome_rounds: list[list[Outcome]]) -> float:
    """Sum over commands of each command's median wall time over rounds."""
    return sum(statistics.median(outcome.wall_s for outcome in column) for column in zip(*outcome_rounds))


def _end_to_end(untraced: list[list[Outcome]]) -> dict:
    outcomes = [outcome for row in untraced for outcome in row]
    return {
        "wall_s": (_median_wall(untraced), "s"),
        "setup_s": (statistics.median(o.setup_s for o in outcomes), "s"),
        "peak_rss_mb": (max(o.rss_mb for o in outcomes), "MB"),
    }


def _per_layer(untraced: list[list[Outcome]], traced: list[list[Outcome]], micro: dict) -> tuple[dict, list]:
    def per_round(extract):
        return statistics.median(sum(extract(o) for o in row) for row in traced)

    def trace_of(outcome):
        return outcome.trace or {"self_s": {}, "counts": {}, "root_s": 0.0, "absent": []}

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_s"] = (per_round(lambda o: trace_of(o)["self_s"].get(name, 0.0)), "s")
        for count in COUNT_NAMES:
            if count.startswith(name + "."):
                unit = COUNT_UNITS.get(count, "count")
                metrics[count] = (per_round(lambda o: trace_of(o)["counts"].get(count, 0)), unit)
    metrics["process.cpu_s"] = (
        statistics.median(sum(o.cpu_s for o in row) for row in untraced),
        "s",
    )
    metrics["trace.coverage_frac"] = (
        statistics.median(
            sum(trace_of(o)["root_s"] for o in row) / sum(o.wall_s for o in row)
            for row in traced
        ),
        "ratio",
    )
    # cli.command wraps the whole command, so coverage stays near 1 as long
    # as the cmd_* hooks exist; this is the share the layers below it explain
    metrics["trace.layer_frac"] = (
        statistics.median(
            sum(sum(trace_of(o)["self_s"].values()) - trace_of(o)["self_s"].get("cli.command", 0.0) for o in row)
            / sum(o.wall_s for o in row)
            for row in traced
        ),
        "ratio",
    )
    metrics["trace.overhead_frac"] = (_median_wall(traced) / _median_wall(untraced) - 1.0, "ratio")
    absent = sorted({hook for row in traced for o in row for hook in trace_of(o)["absent"]})
    metrics["trace.absent_hooks"] = (len(absent), "count")
    metrics.update(micro)
    return metrics, absent


def _spans_by_command(commands: list[workloads.Command], traced: list[list[Outcome]]) -> dict:
    """Per command (by output name), each span's median self time over traced rounds."""
    spans = {}
    for command, column in zip(commands, zip(*traced)):
        names = sorted({name for o in column if o.trace for name in o.trace["self_s"]})
        spans[command.output] = {
            name: round(statistics.median((o.trace or {}).get("self_s", {}).get(name, 0.0) for o in column), 6)
            for name in names
        }
    return spans


def _micro(wc) -> dict:
    """Fixed-input rates of the evaluator and the sampler, median of 5."""
    import numpy as np

    def rate(work: float, call) -> float:
        times = []
        for attempt in range(5):
            start = time.perf_counter()
            call(attempt)
            times.append(time.perf_counter() - start)
        return work / statistics.median(times)

    rng = np.random.default_rng(0)
    # the two inputs of benchmarks/bench_evaluate.py at its default 200,000
    # samples: a family element on a wide space, and a dense random order-3
    # kernel on a narrow one.  Its order-2 matrix (200,000 x 513, 821 MB) is
    # drawn in chunks and only the first 20,000 rows are kept; the stream, and
    # so the order-3 kernel drawn after it, is the same.
    order2 = wc.generate(wc.FamilySpec("vanishing_overlap", (2, 2), (1, 1), theta=0.5), 256).groups[0][0]
    chunk = (20_000, order2.space.dimension)
    x2 = rng.standard_normal(chunk)
    for _ in range(200_000 // chunk[0] - 1):
        rng.standard_normal(chunk)
    space = wc.HilbertSpace(10)
    entries = {}
    while len(entries) < 200:
        entries[tuple(sorted(int(i) for i in rng.integers(1, 11, size=3)))] = float(rng.normal())
    order3 = wc.ChaosElement(wc.SymmetricTensor(space, 3, entries))
    x3 = rng.standard_normal((200_000, 10))
    batch = wc.sample(0, 513, 15_625 * 8, block_size=15_625)
    return {
        "micro.evaluate_order2.entry_samples_per_s": (
            rate(len(order2.kernel.entries) * x2.shape[0], lambda _: wc.evaluate(order2, x2)),
            "1/s",
        ),
        "micro.evaluate_order3.entry_samples_per_s": (
            rate(len(order3.kernel.entries) * x3.shape[0], lambda _: wc.evaluate(order3, x3)),
            "1/s",
        ),
        "micro.sampler.normals_per_s": (
            rate(batch.block_size * batch.dimension, lambda i: batch.block(i)),
            "1/s",
        ),
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, root: str, stamp: dict) -> dict:
    import wienerchaos as wc

    scratch = os.path.join(root, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=scratch)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    try:
        commands = workloads.WORKLOADS[name](wc, seed, workdir)
        start = time.monotonic()
        micro = _micro(wc) if traced else {}
        modes = [False, True] if traced else [False]
        rows: dict[bool, list[list[Outcome]]] = {False: [], True: []}
        executed = []
        while len(executed) < len(modes) or time.monotonic() - start < seconds:
            mode = modes[len(executed) % len(modes)]
            executed.append([_spawn(c, workdir, env, mode) for c in commands])
            rows[mode].append(executed[-1])
        failures = _judge(commands, executed, workdir)
        digests = {c.output: o.digest for c, o in zip(commands, executed[-1])}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(len(row) for row in executed)
    if traced:
        metrics, absent = _per_layer(rows[False], rows[True], micro)
    else:
        metrics, absent = _end_to_end(rows[False]), []
    record = {
        **stamp,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "rounds": len(executed),
        "commands": [["wienerchaos", *c.argv] for c in commands],
        "digests": digests,
        "walls_s": [[round(o.wall_s, 6) for o in row] for row in rows[False]],
        "spans_by_command": _spans_by_command(commands, rows[True]),
        "absent_hooks": absent,
        "failures": failures,
        "attempted": attempted,
        "metrics": {key: value for key, (value, _) in metrics.items()},
    }
    return {"record": record, "metrics": metrics, "attempted": attempted, "failed": len(failures)}


def _print_table(name: str, result: dict) -> None:
    record, metrics = result["record"], result["metrics"]
    print(
        f"{name} (seed {record['seed']}): {record['rounds']} rounds, "
        f"{result['attempted']} operations attempted, {result['failed']} failed"
    )
    spans = sum(value for key, (value, _) in metrics.items() if key.endswith(".self_s"))
    for key, (value, unit) in metrics.items():
        share = f"  {100 * value / spans:5.1f}% of spans" if key.endswith(".self_s") else ""
        print(f"  {key:<45} {value:>14.6g} {unit}{share}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    for hook in record["absent_hooks"]:
        print(f"  absent hook {hook}")
    print("record " + json.dumps(record, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wienerchaos", "__init__.py")):
        print("error: run from the root of a wienerchaos checkout (no src/wienerchaos)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy
    import scipy

    import wienerchaos

    stamp = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "generator_tag": wienerchaos.GENERATOR_TAG,
        "git_sha": _git_sha(root),
    }
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), root, stamp)
        _print_table(name, results[name])
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{key}": value for name in names for key, value in results[name]["metrics"].items()}
    attempted = sum(result["attempted"] for result in results.values())
    failed = sum(result["failed"] for result in results.values())
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
