"""Command-line front end.

Subcommands: paths, reg, nu3, verify, search. Exit codes are a stable
contract: 0 success, 1 verification failure, 2 input error, 3 capacity error.

``main(argv)`` returns the exit code instead of exiting, so it may be called
any number of times in one process; the argument parser is built on the
first call and reused by every later one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from functools import cache

# betti_hochster is read only by the (cli, betti_hochster) binding in perfbench/tracing.py
from .betti import CAP_ENV_VAR, DEFAULT_CAP, FieldSpec, betti_hochster
from .errors import CapacityError, InputError
from .graphs import Graph, load_graph
from .harness import (
    FAMILIES, WHICH_CHOICES, BatchSpec, GraphContext, reports_to_csv, reports_to_jsonl, run_batch,
    verify_graph,
)
from .ideals import path_ideal
from .matching import nu3

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3


def _default_cap() -> int:
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_CAP
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from exc


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
    else:
        lo = hi = text
    try:
        return int(lo), int(hi)
    except ValueError as exc:
        raise InputError(f"bad range {text!r} (use A..B)") from exc


def _path_token(graph: Graph, path) -> str:
    return "-".join(graph.vertex_token(v) for v in path)


def cmd_paths(args) -> int:
    graph = load_graph(args.input)
    paths = graph.t_paths(args.t)
    ideal = path_ideal(graph, args.t)
    if args.format == "json":
        obj = {
            "t": args.t,
            "paths": [list(p) for p in paths],
            "generators": len(ideal.masks),
        }
        print(json.dumps(obj, sort_keys=True))
    else:
        for p in paths:
            print(_path_token(graph, p))
        print(f"{len(paths)} path(s) on {args.t} vertices; {len(ideal.masks)} ideal generator(s)")
    return EXIT_OK


def cmd_reg(args) -> int:
    ctx = GraphContext(load_graph(args.input), FieldSpec.parse(args.field), args.cap)
    table = ctx.table()
    if args.format == "json":
        print(json.dumps(table.to_json_obj(ctx.field_), sort_keys=True))
    elif args.format == "csv":
        sys.stdout.write(table.csv_text())
    else:
        print(table.pretty())
        print(f"reg(R/I3) = {table.regularity()}    pd = {table.projective_dimension()}")
    return EXIT_OK


def cmd_nu3(args) -> int:
    graph = load_graph(args.input)
    value, cert = nu3(graph)
    if args.format == "json":
        print(json.dumps(cert.to_json_obj(), sort_keys=True))
    else:
        print(f"nu3 = {value}")
        for p in cert.paths:
            print("  " + _path_token(graph, p))
    return EXIT_OK


def _exit_status(reports) -> int:
    """Name every errored and failed report on stderr; 1 if there is any."""
    failed = [r for r in reports if not r.passed]
    errored = [r for r in reports if r.error is not None]
    for r in errored:
        print(f"error: {r.source}: {r.error}", file=sys.stderr)
    if failed:
        print(f"{len(failed)} of {len(reports)} checks failed", file=sys.stderr)
    if failed or errored:
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(str(exc)) from exc


def _emit_reports(reports, args) -> int:
    text = reports_to_csv(reports) if args.format == "csv" else reports_to_jsonl(reports)
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
    return _exit_status(reports)


def _batch_spec(args, field_: FieldSpec, which: str = "all") -> BatchSpec:
    """The batch that ``--family``, ``--n``, ``--count``, ``--seed`` and ``--cap`` describe."""
    n_lo, n_hi = _parse_range(args.n)
    return BatchSpec(args.family, n_lo, n_hi, args.count, args.seed, field_, which, args.cap)


def cmd_verify(args) -> int:
    field_ = FieldSpec.parse(args.field)
    if (args.input is None) == (args.family is None):
        raise InputError("give exactly one input: a graph file or --family")
    if args.input is not None:
        reports = verify_graph(load_graph(args.input), args.which, field_, args.cap, source=args.input)
    else:
        reports = run_batch(_batch_spec(args, field_, args.which), jobs=args.jobs)
    return _emit_reports(reports, args)


def cmd_search(args) -> int:
    """The reg - 2*nu3 defect histogram of a family batch, plus one graph per (n, defect)."""
    spec = _batch_spec(args, FieldSpec.parse(args.field))
    reports = run_batch(spec, jobs=args.jobs)
    histogram: Counter[int] = Counter()
    exemplars: dict[tuple[int, int], dict] = {}
    for r in reports:
        if r.defect is not None:
            histogram[r.defect] += 1
            exemplars.setdefault((r.n, r.defect), r.graph)
    histogram_text = "defect,count\n" + "".join(f"{d},{c}\n" for d, c in sorted(histogram.items()))
    batch_header = {
        "family": spec.family,
        "n": f"{spec.n_lo}..{spec.n_hi}",
        "count": spec.count,
        "seed": spec.seed,
        "field": spec.field_.token,
    }
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise InputError(str(exc)) from exc
    _write(os.path.join(args.out, "batch.json"), json.dumps(batch_header, sort_keys=True) + "\n")
    _write(os.path.join(args.out, "histogram.csv"), histogram_text)
    _write(os.path.join(args.out, "reports.jsonl"), reports_to_jsonl(reports))
    for (n, defect), graph in sorted(exemplars.items()):
        path = os.path.join(args.out, f"{spec.family}_n{n}_defect{defect}.json")
        _write(path, json.dumps(graph, sort_keys=True) + "\n")
    sys.stdout.write(histogram_text)
    return _exit_status(reports)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process.

    Reuse is safe because ``parse_args`` returns a fresh namespace on every
    call and every default is immutable. The parser holds no handler:
    ``main`` looks up the parsed subcommand's ``cmd_*`` function by name on
    every call, so a handler replaced after the first call still runs.
    """
    parser = argparse.ArgumentParser(
        prog="pathideals",
        description="Exact 3-path ideal invariants of graphs: regularity, Betti tables, nu3.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--field", default="gf2", help="coefficient field: q, gf2, gf3, ... (default gf2)")
        p.add_argument(
            "--cap",
            type=int,
            default=None,
            help=f"override the exhaustive-enumeration vertex cap (default {DEFAULT_CAP}, env {CAP_ENV_VAR})",
        )

    p_paths = sub.add_parser("paths", help="enumerate t-vertex paths and ideal generators")
    p_paths.add_argument("input", help="graph file (edge list or JSON)")
    p_paths.add_argument("--t", type=int, default=3, choices=(2, 3))
    p_paths.add_argument("--format", default="text", choices=("text", "json"))

    p_reg = sub.add_parser("reg", help="regularity and Betti table of R/I3")
    p_reg.add_argument("input")
    p_reg.add_argument("--format", default="text", choices=("text", "json", "csv"))
    add_common(p_reg)

    p_nu3 = sub.add_parser("nu3", help="3-path induced matching number with certificate")
    p_nu3.add_argument("input")
    p_nu3.add_argument("--format", default="text", choices=("text", "json"))

    p_verify = sub.add_parser("verify", help="run the bound/identity checks")
    p_verify.add_argument("input", nargs="?", default=None, help="graph file; omit when using --family")
    p_verify.add_argument("--which", default="all", choices=WHICH_CHOICES)
    p_verify.add_argument("--family", default=None, choices=FAMILIES)
    p_verify.add_argument("--n", default="4..10", help="vertex range A..B for --family")
    p_verify.add_argument("--count", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--format", default="jsonl", choices=("jsonl", "csv"))
    p_verify.add_argument("--output", default=None, help="write the report here instead of stdout")
    add_common(p_verify)

    p_search = sub.add_parser("search", help="defect histogram over a random family")
    p_search.add_argument("--family", required=True, choices=FAMILIES)
    p_search.add_argument("--n", required=True, help="vertex range A..B")
    p_search.add_argument("--count", type=int, default=100)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--jobs", type=int, default=1)
    p_search.add_argument("--out", default="search-out", help="output directory")
    add_common(p_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "cap"):
            if args.cap is None:
                args.cap = _default_cap()
            if args.cap < 0:
                raise InputError(f"cap must be nonnegative, got {args.cap}")
        if hasattr(args, "jobs") and args.jobs < 1:
            raise InputError(f"jobs must be at least 1, got {args.jobs}")
        return globals()[f"cmd_{args.command}"](args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
