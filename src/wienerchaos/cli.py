"""Command-line surface for batch experiments and CSV/JSON emission.

Every output document embeds the tool version, the generator tag, the seed
and the fully resolved configuration, so a result file alone suffices to
rerun its computation bit-exactly.  The configuration is read from the parsed
arguments by one rule, _config: the command name, every option but --out, and
what the command parsed out of its options.  CSV files carry these as leading '#'
comment lines; JSON documents carry them under a "meta" key, which the
kernel and raw-tensor loaders ignore, keeping CLI output round-trippable
through the load paths.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import __version__, montecarlo
from .chaos import evaluate
from .exceptions import DegenerateInputError, WienerChaosError
from .independence import criterion_check, empirical_dependence
from .sequences import (
    FAMILIES,
    FamilySpec,
    format_float,
    format_rows,
    generate,
    load_kernel,
    load_vector,
    table_document,
    write_atomic,
)
from .tensor import contract, symmetrize

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


def _config(name: str, args: argparse.Namespace, **readings) -> dict:
    """The command name, every parsed option but --out, then the readings parsed out of options."""
    options = {key: value for key, value in vars(args).items() if key not in ("out", "func", "subcommand")}
    return {"subcommand": name, **options, **readings}


def _meta(config: dict, seed: int | None) -> dict:
    return {
        "tool": f"wienerchaos {__version__}",
        "generator": montecarlo.GENERATOR_TAG,
        "seed": seed,
        "config": config,
    }


def _csv(meta: dict, columns: tuple[str, ...], rows: Sequence[tuple]) -> str:
    """The '#' lines read from meta, the column names, then format_rows of the rows as one float array.

    Every cell is format_float's text; a whole float, such as a count or an index, is the integer's text.
    """
    head = f"# {meta['tool']}\n# generator: {meta['generator']}\n# seed: {meta['seed']}\n"
    head += f"# config: {json.dumps(meta['config'], sort_keys=True)}\n{','.join(columns)}\n"
    return head + format_rows(np.array(rows, dtype=np.float64).reshape(-1, len(columns)))


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write text, or its chunks in order, to stdout or atomically to out."""
    if out is None:
        sys.stdout.writelines([text] if isinstance(text, str) else text)
    else:
        write_atomic(text, out)


def cmd_contract(args) -> int:
    f = load_kernel(args.f)
    g = load_kernel(args.g)
    result = symmetrize(contract(f, g, args.r)) if args.sym else contract(f, g, args.r)
    norm = result.norm()
    meta = _meta(_config("contract", args), seed=None)
    meta["norm"] = norm
    _emit(table_document(result, meta), args.out)
    stream = sys.stdout if args.out else sys.stderr
    print(f"norm: {format_float(norm)}", file=stream)
    return 0


def cmd_check(args) -> int:
    vector = load_vector(args.manifest)
    report = criterion_check(vector, tol=args.tol)
    meta = _meta(_config("check", args), args.seed)
    empirical = empirical_dependence(vector, samples=args.samples, seed=args.seed) if args.samples else None
    if args.format == "csv":
        rows = [(p.i, p.j, p.cov2, p.max_norm, p.argmax_r, p.cross) for p in report.pairs]
        text = _csv(meta, PAIR_COLUMNS, rows)
    else:
        payload = {
            "orders": report.orders,
            "sizes": report.sizes,
            "pairs": [{"i": p.i, "j": p.j, "cross": p.cross, "cov2": p.cov2, "norms": p.norms} for p in report.pairs],
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
        text = json.dumps({"meta": meta, **payload}, indent=2, sort_keys=True) + "\n"
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
    config = _config("sweep", args, orders=list(orders), sizes=list(sizes), n=list(ns))
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
    _emit(_csv(_meta(config, args.seed), SWEEP_COLUMNS, rows), args.out)
    return 0


def cmd_simulate(args) -> int:
    vector = load_vector(args.manifest)
    if args.samples < 1:
        raise WienerChaosError(f"--samples must be a positive integer, got {args.samples!r}")
    batch = montecarlo.sample(args.seed, vector.space.dimension, args.samples)
    elements = vector.elements
    columns = ("sample",) + tuple(f"F{i + 1}" for i in range(len(elements)))

    def block_text(index: int) -> str:
        # each element's values over one block, a piece of normals at a time,
        # then the block's rows of (sample number, element values...) as text,
        # formatted here on the worker thread
        values = np.hstack([[evaluate(e, piece) for e in elements] for piece in batch.pieces(index)])
        first = index * batch.block_size + 1
        return format_rows(np.column_stack([np.arange(first, first + values.shape[1], dtype=np.float64), values.T]))

    def chunks() -> Iterator[str]:
        # the header is _csv with no rows; each block's text then follows in block order
        yield _csv(_meta(_config("simulate", args), args.seed), columns, ())
        yield from batch.map_blocks(block_text)

    _emit(chunks(), args.out)
    return 0


def _contract_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("f", help="left kernel file")
    parser.add_argument("g", help="right kernel file")
    parser.add_argument("--r", type=int, required=True, help="number of paired slots")
    parser.add_argument("--sym", action="store_true", help="symmetrize the contraction into a kernel document")
    parser.add_argument("--out", help="output path (stdout when omitted)")
    parser.set_defaults(func=cmd_contract)


def _check_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("manifest", help="vector manifest file")
    parser.add_argument("--tol", type=float, default=1e-6, help="criterion width (default 1e-6)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--samples",
        type=int,
        default=100_000,
        help="empirical-gap sample count; 0 skips the empirical probe (default 100000)",
    )
    parser.add_argument("--format", choices=("csv", "summary"), default="summary")
    parser.add_argument("--out", help="output path (stdout when omitted)")
    parser.set_defaults(func=cmd_check)


def _sweep_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=FAMILIES, required=True)
    parser.add_argument("--orders", required=True, help="comma-separated group orders, e.g. 2,2")
    parser.add_argument("--sizes", required=True, help="comma-separated group sizes, e.g. 1,1")
    parser.add_argument("--theta", type=float, default=0.5, help="shared-coordinate weight")
    parser.add_argument("--n", required=True, help="comma-separated family indices, e.g. 4,16,64")
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=float, default=1e-6)
    parser.add_argument("--out", help="output path (stdout when omitted)")
    parser.set_defaults(func=cmd_sweep)


def _simulate_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("manifest", help="vector manifest file")
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="output path (stdout when omitted)")
    parser.set_defaults(func=cmd_simulate)


# name -> (help line, the function that adds the command's arguments); each
# function looks cmd_<name> up when it runs, so a replaced command is called
_COMMANDS = {
    "contract": ("contract two kernel files and print the result with its norm", _contract_arguments),
    "check": ("run the independence criterion; exit 0 on pass, 1 on fail", _check_arguments),
    "sweep": ("witness decay table for a kernel family over a list of n", _sweep_arguments),
    "simulate": ("dump evaluated samples of every vector element as CSV", _simulate_arguments),
}


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
    for name, (help_line, arguments) in _COMMANDS.items():
        arguments(commands.add_parser(name, help=help_line))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = extra = None
    # the command's own parser is the subparser the full one would build, and
    # whatever it leaves over goes to the full parser for its top-level error;
    # the full parser also reads a '--=...' anywhere as ambiguous (--help or --version)
    if argv and argv[0] in _COMMANDS and not any(arg.startswith("--=") for arg in argv):
        parser = argparse.ArgumentParser(prog=f"wienerchaos {argv[0]}")
        _COMMANDS[argv[0]][1](parser)
        args, extra = parser.parse_known_args(argv[1:])
    if args is None or extra:
        args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed after the last write fails here, not at exit
        return code
    except BrokenPipeError:  # the reader closed early: devnull takes the exit flush; 141 is 128 + SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (WienerChaosError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
