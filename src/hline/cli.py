"""Command-line interface.

Graph arguments accept a family spec ("C6", "G(r=2,m=4)", "F7",
"CL(3,3,2)", "P4"), an edge list ("6; 0-1, 1-2, ..."), or a graph6 line.

Exit codes: 0 success, 1 usage error (including an argument value out of
range, such as --n 3 or the family spec C2, and a --cache-dir that cannot
be written, such as a file), 2 parse error (a graph argument that is not a
graph), 3 budget exhausted (a search ran out of its work budget, the
process ran out of memory, or under --strict, a classify outcome or a
swept class stayed unknown).  A reader that closes stdout early
(`| head -1`) leaves the exit code as it is.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import closing, nullcontext

from .budget import DEFAULT_MAX_ITER, DEFAULT_MAX_ORDER, Budget, ResourceLimitError
from .cache import ClassificationCache, default_cache_dir
from .classify import Outcome, classify
from .families import parse_family_spec
from .graph import Graph
from .io import (
    GraphParseError,
    classification_report,
    parse_graph,
    render_edge_list,
    to_graph6,
)
from .minimality import CONJECTURE_IDS, find_minimal_members, run_conjecture
from .operator import hl_step

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3


# --jobs is still parsed so that existing command lines keep working.
_JOBS_HELP = "ignored; sweeps run in one process"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def resolve_graph(text: str) -> Graph:
    """Family spec first, then the two textual graph formats.

    A spec that names a family but is out of its range (C2, P0) raises the
    constructor's ValueError; it is not read again as a graph."""
    try:
        spec = parse_family_spec(text)
    except ValueError:
        return parse_graph(text)
    return spec.build()


def _budget(args) -> Budget:
    return Budget(
        max_iter=getattr(args, "max_iter", DEFAULT_MAX_ITER),
        max_order=getattr(args, "max_order", DEFAULT_MAX_ORDER),
    )


def _open_cache(args, budget: Budget):
    """The run's cache, or None under --no-cache; closed when the run ends."""
    if args.no_cache:
        return nullcontext()
    return closing(ClassificationCache(args.cache_dir, budget))


def _quiet_stdout() -> None:
    # the reader closed stdout: the rest of the output goes to os.devnull
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _out(text: str) -> None:
    """Print a line; a closed stdout ends the output, not the run."""
    try:
        print(text)
    except BrokenPipeError:
        _quiet_stdout()


def _emit(payload: dict) -> None:
    _out(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_hl(args) -> int:
    """Iterates 0..--steps with provenance tables, up to the empty graph;
    the arguments are checked before the first line is printed."""
    if args.steps < 0:
        raise ValueError(f"--steps must be >= 0, got {args.steps}")
    if args.n < 4:
        raise ValueError(f"path order parameter must be >= 4, got {args.n}")
    cur = resolve_graph(args.graph)
    _out(f"k=0: order={cur.order} size={cur.size}")
    for k in range(1, args.steps + 1):
        if cur.order == 0:
            break
        nxt = hl_step(cur, args.n)
        _out(f"k={k}: order={nxt.order} size={nxt.size}")
        _out("  provenance (vertex <- predecessor edge):")
        for i, e in enumerate(cur.edges()):
            _out(f"    {i} <- {e[0]}-{e[1]}")
        cur = nxt
    if cur.order == 0:
        _out("  empty graph reached")
    return EXIT_OK


def _cmd_classify(args) -> int:
    g = resolve_graph(args.graph)
    c = classify(g, args.n, _budget(args))
    _emit(classification_report(c, g))
    if args.strict and c.outcome is Outcome.UNKNOWN:
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_family(args) -> int:
    spec = parse_family_spec(args.spec)
    g = spec.build()
    _out(f"{spec.render()}: order={g.order} size={g.size}")
    _out(f"edge-list: {render_edge_list(g)}")
    # graph6 covers at most 62 vertices
    if g.order <= 62:
        _out(f"graph6:    {to_graph6(g)}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    """`search-min` and `conjecture`: the subcommand's `sweep` call over the
    run's cache; under --strict, a swept class left undecided exits 3."""
    budget = _budget(args)
    with _open_cache(args, budget) as cache:
        report = args.sweep(args, budget, cache)
    _emit(report.to_json())
    return EXIT_BUDGET if args.strict and report.undecided else EXIT_OK


def _cmd_verify_paper(args) -> int:
    # imported here, so that no other command loads the acceptance suite
    from .acceptance import run_all

    results = run_all()
    for r in results:
        _out(r.line())
    passed = sum(1 for r in results if r.passed)
    _out(f"{passed}/{len(results)} criteria passed")
    return EXIT_OK if passed == len(results) else EXIT_USAGE


def _cmd_cache(args) -> int:
    cache = ClassificationCache(args.cache_dir, _budget(args))
    if args.action == "stats":
        _emit(cache.stats())
    else:
        removed = cache.clear()
        _out(f"removed {removed} segment file(s) from {cache.directory}")
    return EXIT_OK


def build_parser() -> _Parser:
    cache_dir_help = f"cache location (default {default_cache_dir()})"
    parser = _Parser(prog="hline", description=__doc__)
    parser.add_argument("--cache-dir", default=None, help=cache_dir_help)
    # also accepted after the subcommands that use the cache; SUPPRESS
    # leaves the top-level value in place when it is not given there
    cache_dir = _Parser(add_help=False)
    cache_dir.add_argument(
        "--cache-dir", default=argparse.SUPPRESS, help=cache_dir_help
    )
    # the options and the command of both sweeps, search-min and conjecture
    sweep = _Parser(add_help=False, parents=[cache_dir])
    sweep.add_argument("--n", type=int, required=True)
    sweep.add_argument("--vmax", type=int, required=True)
    sweep.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    sweep.add_argument("--strict", action="store_true")
    sweep.add_argument("--no-cache", action="store_true")
    sweep.set_defaults(fn=_cmd_sweep)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hl", help="print iterates with provenance tables")
    p.add_argument("graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--steps", type=int, default=1)
    p.set_defaults(fn=_cmd_hl)

    p = sub.add_parser("classify", help="classify one graph, JSON report")
    p.add_argument("graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    p.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("family", help="print a family graph in both formats")
    p.add_argument("spec")
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser(
        "search-min", help="sweep for minimally convergent graphs", parents=[sweep]
    )
    p.add_argument("--emax", type=int, default=None)
    p.set_defaults(sweep=lambda a, budget, cache: find_minimal_members(
        a.n, a.vmax, budget, e_max=a.emax, cache=cache
    ))

    p = sub.add_parser("conjecture", help="run a falsification sweep", parents=[sweep])
    p.add_argument("id", choices=CONJECTURE_IDS)
    p.set_defaults(
        sweep=lambda a, budget, cache: run_conjecture(a.id, a.n, a.vmax, budget, cache)
    )

    p = sub.add_parser("verify-paper", help="run the acceptance suite")
    p.set_defaults(fn=_cmd_verify_paper)

    p = sub.add_parser("cache", help="cache maintenance", parents=[cache_dir])
    p.add_argument("action", choices=("stats", "clear"))
    p.set_defaults(fn=_cmd_cache)

    return parser


def run_cli(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except GraphParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    code = run_cli(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _quiet_stdout()
    sys.exit(code)


if __name__ == "__main__":
    main()
