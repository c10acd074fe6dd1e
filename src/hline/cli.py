"""Command-line interface.

Graph arguments accept a family spec ("C6", "G(r=2,m=4)", "F7",
"CL(3,3,2)", "P4"), an edge list ("6; 0-1, 1-2, ..."), or a graph6 line.

Exit codes: 0 success, 1 usage error, 2 parse error, 3 budget exhausted
(a search ran out of its work budget or size cap, or unknown outcomes are
present under --strict).
"""

from __future__ import annotations

import argparse
import json
import sys

from .acceptance import run_all
from .budget import Budget, ResourceLimitError
from .cache import ClassificationCache, default_cache_dir
from .classify import Outcome, classify
from .families import parse_family_spec
from .graph import Graph
from .io import (
    GraphParseError,
    TOOL_VERSION,
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


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def resolve_graph(text: str) -> Graph:
    """Family spec first, then the two textual graph formats."""
    try:
        return parse_family_spec(text).build()
    except ValueError:
        pass
    return parse_graph(text)


def _budget(args) -> Budget:
    return Budget(
        max_iter=getattr(args, "max_iter", 30),
        max_order=getattr(args, "max_order", 512),
    )


def _open_cache(args, budget: Budget) -> ClassificationCache | None:
    if getattr(args, "no_cache", False):
        return None
    return ClassificationCache(getattr(args, "cache_dir", None), TOOL_VERSION, budget)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_hl(args) -> int:
    g = resolve_graph(args.graph)
    cur = g
    print(f"k=0: order={cur.order} size={cur.size}")
    for k in range(1, args.steps + 1):
        step = hl_step(cur, args.n)
        nxt = step.graph
        print(f"k={k}: order={nxt.order} size={nxt.size}")
        print("  provenance (vertex <- predecessor edge):")
        for i, e in enumerate(step.provenance):
            print(f"    {i} <- {e[0]}-{e[1]}")
        cur = nxt
        if cur.order == 0:
            print("  empty graph reached")
            break
    return EXIT_OK


def _cmd_classify(args) -> int:
    g = resolve_graph(args.graph)
    budget = _budget(args)
    cache = _open_cache(args, budget)
    c = classify(g, args.n, budget)
    report = classification_report(c, g)
    _emit(report)
    if cache is not None:
        from .minimality import summarize

        code = report["input_code"]
        cache.put(code, args.n, summarize(c))
    if args.strict and c.outcome is Outcome.UNKNOWN:
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_family(args) -> int:
    spec = parse_family_spec(args.spec)
    g = spec.build()
    print(f"{spec.render()}: order={g.order} size={g.size}")
    print(f"edge-list: {render_edge_list(g)}")
    print(f"graph6:    {to_graph6(g)}")
    return EXIT_OK


def _cmd_search_min(args) -> int:
    budget = _budget(args)
    cache = _open_cache(args, budget)
    report = find_minimal_members(
        args.n,
        args.vmax,
        budget,
        e_max=args.emax,
        include_unions=args.unions,
        cache=cache,
        jobs=args.jobs,
    )
    _emit(report.to_json())
    if args.strict and report.counts.get("unknown", 0) > 0:
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_conjecture(args) -> int:
    budget = _budget(args)
    cache = _open_cache(args, budget)
    report = run_conjecture(args.id, args.n, args.vmax, budget, cache, args.jobs)
    _emit(report.to_json())
    if args.strict and report.status == "inconclusive":
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_verify_paper(args) -> int:
    lo, hi = args.n_range
    results = run_all(lo, hi)
    for r in results:
        print(r.line())
    passed = sum(1 for r in results if r.passed)
    print(f"{passed}/{len(results)} criteria passed")
    return EXIT_OK if passed == len(results) else EXIT_USAGE


def _cmd_cache(args) -> int:
    cache = ClassificationCache(args.cache_dir, TOOL_VERSION, _budget(args))
    if args.action == "stats":
        _emit(cache.stats())
    else:
        removed = cache.clear()
        print(f"removed {removed} segment file(s) from {cache.directory}")
    return EXIT_OK


def _parse_n_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("expected LO..HI, e.g. 4..8")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError("expected integers in LO..HI") from None


def build_parser() -> _Parser:
    parser = _Parser(prog="hline", description=__doc__)
    parser.add_argument("--cache-dir", default=None, help=f"cache location (default {default_cache_dir()})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hl", help="print iterates with provenance tables")
    p.add_argument("graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--steps", type=int, default=1)
    p.set_defaults(fn=_cmd_hl)

    p = sub.add_parser("classify", help="classify one graph, JSON report")
    p.add_argument("graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-iter", type=int, default=30)
    p.add_argument("--max-order", type=int, default=512)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--no-cache", action="store_true")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("family", help="print a family graph in both formats")
    p.add_argument("spec")
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("search-min", help="sweep for minimally convergent graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--vmax", type=int, required=True)
    p.add_argument("--emax", type=int, default=None)
    p.add_argument("--unions", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--no-cache", action="store_true")
    p.set_defaults(fn=_cmd_search_min)

    p = sub.add_parser("conjecture", help="run a falsification sweep")
    p.add_argument("id", choices=CONJECTURE_IDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--vmax", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--no-cache", action="store_true")
    p.set_defaults(fn=_cmd_conjecture)

    p = sub.add_parser("verify-paper", help="run the acceptance suite")
    p.add_argument("--n-range", type=_parse_n_range, default=(4, 8))
    p.set_defaults(fn=_cmd_verify_paper)

    p = sub.add_parser("cache", help="cache maintenance")
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
