"""Command-line surface for batch experiments and CSV/JSON emission.

Every output document embeds the tool version, the generator tag, the seed
and the fully resolved configuration, so a result file alone suffices to
rerun its computation bit-exactly.  CSV files carry these as leading '#'
comment lines; JSON documents carry them under a "meta" key, which the
kernel and raw-tensor loaders ignore, keeping CLI output round-trippable
through the load paths.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable, Iterator

from . import __version__, montecarlo
from .chaos import evaluate
from .exceptions import DegenerateInputError, WienerChaosError
from .independence import PairRow, criterion_check, empirical_dependence, exact_pairs
from .sequences import (
    FAMILIES,
    FamilySpec,
    format_float,
    generate,
    load_kernel,
    load_vector,
    table_document,
    write_atomic,
)
from .tensor import contract, contract_sym

PAIR_COLUMNS = ("pair_i", "pair_j", "cov2", "max_contraction_norm", "r_argmax", "cross")
SWEEP_COLUMNS = ("n", "cov2_witness", "contraction_witness", "empirical_gap", "stderr", "bound_ratio")

_FORMAT_GRAMMAR = """\
file formats (all JSON; indices 1-based and sorted ascending):

  kernel      {"dimension": N, "order": q,
               "entries": [{"index": [i1 <= ... <= iq], "value": float}, ...]}
  raw tensor  {"dimension": N, "left_order": a, "right_order": b,
               "entries": [{"left": [...], "right": [...], "value": float}, ...]}
  manifest    {"dimension": N, "groups": [{"order": q,
               "elements": [<kernel object or relative path>, ...]}, ...]}

Floats are written with 17 significant digits and reload bit-exactly.
Loaders ignore a top-level "meta" key, so CLI output feeds back in as-is.
CSV outputs start with '#' comment lines: tool version, generator tag,
seed, and the resolved configuration as one JSON object.
"""


def _meta(config: dict, seed: int | None) -> dict:
    return {
        "tool": f"wienerchaos {__version__}",
        "generator": montecarlo.GENERATOR_TAG,
        "seed": seed,
        "config": config,
    }


def _csv(meta: dict, columns: tuple[str, ...], template: str, rows: Iterable[tuple]) -> str:
    """The '#' lines read from meta, the column names, then each row as template % row.

    The template's cells are "%d" and "%.17g"; "%.17g" of a float is format_float's text.
    """
    head = f"# {meta['tool']}\n# generator: {meta['generator']}\n# seed: {meta['seed']}\n"
    head += f"# config: {json.dumps(meta['config'], sort_keys=True)}\n{','.join(columns)}\n"
    return head + "".join(template % row for row in rows)


def _pairs_csv(meta: dict, pairs: Iterable[PairRow]) -> str:
    rows = ((p.i, p.j, p.cov2, p.max_norm, p.argmax_r, p.cross) for p in pairs)
    return _csv(meta, PAIR_COLUMNS, "%d,%d,%.17g,%.17g,%d,%d\n", rows)


def _pairs_json(pairs: Iterable[PairRow]) -> list[dict]:
    return [{"i": p.i, "j": p.j, "cross": p.cross, "cov2": p.cov2, "norms": p.norms} for p in pairs]


def _with_meta(document: str, meta: dict) -> str:
    # Canonical kernel/raw documents open with a lone '{'; splice the meta
    # object in as the first key so the payload lines stay byte-identical.
    lines = document.split("\n")
    lines.insert(1, f'  "meta": {json.dumps(meta, sort_keys=True)},')
    return "\n".join(lines)


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write text, or its chunks in order, to stdout or atomically to out."""
    if out is None:
        sys.stdout.writelines([text] if isinstance(text, str) else text)
    else:
        write_atomic(text, out)


def _summary_text(payload: dict, meta: dict) -> str:
    return json.dumps({"meta": meta, **payload}, indent=2, sort_keys=True) + "\n"


def cmd_contract(args) -> int:
    f = load_kernel(args.f)
    g = load_kernel(args.g)
    config = {"subcommand": "contract", "f": args.f, "g": args.g, "r": args.r, "sym": args.sym}
    result = contract_sym(f, g, args.r) if args.sym else contract(f, g, args.r)
    norm = result.norm()
    meta = _meta(config, seed=None)
    meta["norm"] = norm
    _emit(_with_meta(table_document(result), meta), args.out)
    stream = sys.stdout if args.out else sys.stderr
    print(f"norm: {format_float(norm)}", file=stream)
    return 0


def cmd_cov2(args) -> int:
    vector = load_vector(args.manifest)
    cov_matrix, rows = exact_pairs(vector)
    config = {"subcommand": "cov2", "manifest": args.manifest, "format": args.format}
    meta = _meta(config, seed=None)
    if args.format == "csv":
        text = _pairs_csv(meta, rows)
    else:
        payload = {"orders": vector.orders, "sizes": vector.sizes, "cov_matrix": cov_matrix.tolist()}
        text = _summary_text({**payload, "pairs": _pairs_json(rows)}, meta)
    _emit(text, args.out)
    return 0


def cmd_check(args) -> int:
    vector = load_vector(args.manifest)
    report = criterion_check(vector, tol=args.tol)
    config = {
        "subcommand": "check",
        "manifest": args.manifest,
        "tol": args.tol,
        "seed": args.seed,
        "samples": args.samples,
        "format": args.format,
    }
    meta = _meta(config, args.seed)
    empirical = empirical_dependence(vector, samples=args.samples, seed=args.seed) if args.samples else None
    if args.format == "csv":
        text = _pairs_csv(meta, report.pairs)
    else:
        payload = {
            "orders": report.orders,
            "sizes": report.sizes,
            "pairs": _pairs_json(report.pairs),
            "tol": report.tol,
            "cov_pass": report.cov_pass,
            "contraction_pass": report.contraction_pass,
            "witness_cov": report.witness_cov,
            "witness_cov_pair": report.witness_cov_pair,
            "witness_contraction": report.witness_norm,
            "witness_contraction_pair": report.witness_norm_pair,
            "witness_contraction_r": report.witness_norm_r,
        }
        if empirical is not None:
            payload["empirical"] = {
                "gap": empirical.gap,
                "stderr": empirical.stderr,
                "tuple": empirical.labels,
                "samples": empirical.samples,
                "seed": empirical.seed,
                "generator": meta["generator"],
            }
        text = _summary_text(payload, meta)
    _emit(text, args.out)
    passed = report.cov_pass and report.contraction_pass
    stream = sys.stdout if args.out else sys.stderr
    print(
        f"cov2 witness {format_float(report.witness_cov)} at pair {report.witness_cov_pair}, "
        f"contraction witness {format_float(report.witness_norm)} at pair "
        f"{report.witness_norm_pair} (r={report.witness_norm_r}), tol {args.tol:g}: "
        f"{'PASS' if passed else 'FAIL'}",
        file=stream,
    )
    if empirical is not None:
        print(
            f"empirical gap {format_float(empirical.gap)} +/- "
            f"{format_float(empirical.stderr)} at tuple {', '.join(empirical.labels)}",
            file=stream,
        )
    return 0 if passed else 1


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise WienerChaosError(f"{flag} expects comma-separated integers, got {text!r}") from None


def cmd_sweep(args) -> int:
    orders = _parse_int_list(args.orders, "--orders")
    sizes = _parse_int_list(args.sizes, "--sizes")
    ns = _parse_int_list(args.n, "--n")
    spec = FamilySpec(args.family, orders, sizes, theta=args.theta)
    config = {
        "subcommand": "sweep",
        "family": args.family,
        "orders": list(orders),
        "sizes": list(sizes),
        "theta": args.theta,
        "n": list(ns),
        "samples": args.samples,
        "seed": args.seed,
        "tol": args.tol,
    }
    rows = []
    for n in ns:
        vector = generate(spec, n)
        report = criterion_check(vector, tol=args.tol)
        empirical = empirical_dependence(vector, samples=args.samples, seed=args.seed)
        try:
            ratio = empirical.ratio(report)
        except DegenerateInputError:
            ratio = float("nan")
        rows.append((n, report.witness_cov, report.witness_norm, empirical.gap, empirical.stderr, ratio))
    _emit(_csv(_meta(config, args.seed), SWEEP_COLUMNS, "%d" + ",%.17g" * 5 + "\n", rows), args.out)
    return 0


def cmd_simulate(args) -> int:
    vector = load_vector(args.manifest)
    if args.samples < 1:
        raise WienerChaosError(f"--samples must be a positive integer, got {args.samples!r}")
    config = {
        "subcommand": "simulate",
        "manifest": args.manifest,
        "samples": args.samples,
        "seed": args.seed,
    }
    batch = montecarlo.sample(args.seed, vector.space.dimension, args.samples)
    elements = vector.elements
    columns = ("sample",) + tuple(f"F{i + 1}" for i in range(len(elements)))
    template = "%d" + ",%.17g" * len(elements) + "\n"
    # the header is _csv with no rows; each block of rows then follows as one
    # % operation of the repeated template on the flattened (number, values...) cells
    header = _csv(_meta(config, args.seed), columns, template, ())
    width = len(elements) + 1

    def chunks() -> Iterator[str]:
        yield header
        position = 0
        for values in batch.map_blocks(lambda block: [evaluate(e, block).tolist() for e in elements]):
            rows = len(values[0])
            cells = [None] * (rows * width)
            cells[::width] = range(position + 1, position + rows + 1)
            for k, column in enumerate(values, 1):
                cells[k::width] = column
            yield template * rows % tuple(cells)
            position += rows

    _emit(chunks(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wienerchaos",
        description="Contractions, squared covariances and dependence diagnostics "
        "for vectors of multiple Wiener-Ito integrals.",
        epilog=_FORMAT_GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"wienerchaos {__version__}")
    commands = parser.add_subparsers(dest="subcommand", required=True)

    contract_p = commands.add_parser(
        "contract", help="contract two kernel files and print the result with its norm"
    )
    contract_p.add_argument("f", help="left kernel file")
    contract_p.add_argument("g", help="right kernel file")
    contract_p.add_argument("--r", type=int, required=True, help="number of paired slots")
    contract_p.add_argument(
        "--sym", action="store_true", help="symmetrize the contraction into a kernel document"
    )
    contract_p.add_argument("--out", help="output path (stdout when omitted)")
    contract_p.set_defaults(func=cmd_contract)

    cov2_p = commands.add_parser(
        "cov2", help="squared-covariance matrix and contraction norms for a vector manifest"
    )
    cov2_p.add_argument("manifest", help="vector manifest file")
    cov2_p.add_argument("--format", choices=("csv", "summary"), default="csv")
    cov2_p.add_argument("--out", help="output path (stdout when omitted)")
    cov2_p.set_defaults(func=cmd_cov2)

    check_p = commands.add_parser(
        "check", help="run the independence criterion; exit 0 on pass, 1 on fail"
    )
    check_p.add_argument("manifest", help="vector manifest file")
    check_p.add_argument("--tol", type=float, default=1e-6, help="criterion width (default 1e-6)")
    check_p.add_argument("--seed", type=int, default=0)
    check_p.add_argument(
        "--samples",
        type=int,
        default=100_000,
        help="empirical-gap sample count; 0 skips the empirical probe (default 100000)",
    )
    check_p.add_argument("--format", choices=("csv", "summary"), default="summary")
    check_p.add_argument("--out", help="output path (stdout when omitted)")
    check_p.set_defaults(func=cmd_check)

    sweep_p = commands.add_parser(
        "sweep", help="witness decay table for a kernel family over a list of n"
    )
    sweep_p.add_argument("--family", choices=FAMILIES, required=True)
    sweep_p.add_argument("--orders", required=True, help="comma-separated group orders, e.g. 2,2")
    sweep_p.add_argument("--sizes", required=True, help="comma-separated group sizes, e.g. 1,1")
    sweep_p.add_argument("--theta", type=float, default=0.5, help="shared-coordinate weight")
    sweep_p.add_argument("--n", required=True, help="comma-separated family indices, e.g. 4,16,64")
    sweep_p.add_argument("--samples", type=int, default=100_000)
    sweep_p.add_argument("--seed", type=int, default=0)
    sweep_p.add_argument("--tol", type=float, default=1e-6)
    sweep_p.add_argument("--out", help="output path (stdout when omitted)")
    sweep_p.set_defaults(func=cmd_sweep)

    simulate_p = commands.add_parser(
        "simulate", help="dump evaluated samples of every vector element as CSV"
    )
    simulate_p.add_argument("manifest", help="vector manifest file")
    simulate_p.add_argument("--samples", type=int, default=1000)
    simulate_p.add_argument("--seed", type=int, default=0)
    simulate_p.add_argument("--out", help="output path (stdout when omitted)")
    simulate_p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (WienerChaosError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
