"""One wienerchaos CLI invocation in a fresh process, timed from inside.

Usage: python3 child.py RECORD TRACE CLI-ARG...

Writes a JSON record to RECORD with the monotonic clock readings on entry to
and exit from ``wienerchaos.cli.main``, its exit code and, when TRACE is 1,
the per-layer span totals.  The spawning process reads the clock before the
spawn, so entry minus spawn is the set-up time (interpreter start plus the
package import) and exit minus entry is the command's own wall time.

Tracing wraps the public functions each layer exposes at the place where
``cli`` and ``independence`` import them, so nothing inside the package
changes.  A hook whose target no longer exists, or a counter that no longer
fits the call's arguments or result, is recorded as absent and skipped;
hooks are installed only when TRACE is 1.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

_CLI = "wienerchaos.cli"
_CHAOS = "wienerchaos.chaos"
_INDEPENDENCE = "wienerchaos.independence"
_MONTECARLO = "wienerchaos.montecarlo"


def _expansion_entries(args, result):
    return sum(len(tensor.entries) for tensor in result.components.values())


def _entry_samples(args, result):
    element, x = args[0], args[1]
    rows = x.shape[0] if getattr(x, "ndim", 1) == 2 else 1
    return len(element.kernel.entries) * rows


# (span name, module, attribute path, counter name, counter); one span name
# may have several hooks when the same layer is entered from several places.
HOOKS = [
    ("tensor.contract_sym", _CHAOS, "contract_sym", "entries_out", lambda a, r: len(r.entries)),
    ("tensor.contract", _CHAOS, "contract", None, None),
    ("tensor.inner", _CHAOS, "inner", None, None),
    ("chaos.multiply", _INDEPENDENCE, "multiply", "entries_out", _expansion_entries),
    ("chaos.contraction_norms", _INDEPENDENCE, "contraction_norms", None, None),
    ("chaos.evaluate", _INDEPENDENCE, "evaluate", "entry_samples", _entry_samples),
    ("chaos.evaluate", _CLI, "evaluate", "entry_samples", _entry_samples),
    ("montecarlo.block", _MONTECARLO, "SampleBatch.block", "normals", lambda a, r: r.size),
    ("independence.squared_cov_matrix", _INDEPENDENCE, "squared_cov_matrix", None, None),
    ("independence.criterion_check", _CLI, "criterion_check", None, None),
    (
        "independence.dependence",
        _CLI,
        "empirical_dependence",
        "tuple_blocks",
        lambda a, r: len(r.rows) * r.n_blocks,
    ),
    (
        "independence.dependence",
        _CLI,
        "_dependence_table",
        "tuple_blocks",
        lambda a, r: len(r[0]) * r[1],
    ),
    ("sequences.load_vector", _CLI, "load_vector", None, None),
    ("sequences.generate", _CLI, "generate", None, None),
    ("cli.command", _CLI, "cmd_check", None, None),
    ("cli.command", _CLI, "cmd_sweep", None, None),
    ("cli.command", _CLI, "cmd_simulate", None, None),
    ("cli.emit", _CLI, "_emit", "bytes", lambda a, r: len(a[0])),
]


class Tracer:
    """Self time and counts per span name, kept in memory until exit."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.root_s = 0.0
        self.absent: list[str] = []
        self._child_s: list[float] = []

    def wrap(self, name, fn, counter_name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += elapsed
                else:
                    self.root_s += elapsed
            if counter is not None:
                key = f"{name}.{counter_name}"
                try:
                    amount = counter(args, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    # the call's signature or result changed shape: report, never fail
                    if key not in self.absent:
                        self.absent.append(key)
                else:
                    self.counts[key] = self.counts.get(key, 0) + amount
            return result

        return traced

    def install(self) -> None:
        for name, module_name, path, counter_name, counter in HOOKS:
            owner_path, _, attribute = path.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                target = getattr(owner, attribute)
            except (ImportError, AttributeError):
                self.absent.append(f"{name}@{module_name}.{path}")
                continue
            setattr(owner, attribute, self.wrap(name, target, counter_name, counter))

    def record(self) -> dict:
        return {
            "self_s": self.self_s,
            "counts": self.counts,
            "root_s": self.root_s,
            "absent": self.absent,
        }


def main() -> int:
    record_path, trace, cli_args = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    from wienerchaos import cli

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    entered = time.monotonic()
    code = cli.main(cli_args)
    left = time.monotonic()
    record = {"entered": entered, "left": left, "exit": code, "package": cli.__file__}
    if tracer is not None:
        record["trace"] = tracer.record()
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
