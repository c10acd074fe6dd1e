"""Desk-scale verification suite: family-behavior reproduction plus property sweeps.

Each criterion is a standalone runner returning a pass/fail result with
detail and elapsed time; the CLI's verify command and the acceptance tests
share these.  Runtime ceilings are part of the criteria: a criterion that
runs past its ceiling fails.
"""

from __future__ import annotations

import time
from functools import lru_cache
from typing import NamedTuple

from .budget import Budget
from .classify import Outcome, classify, verify_certificate
from .families import (
    make_chorded_cycle,
    make_cycle,
    make_spider,
    make_tailed_cycle,
    tailed_cycles_of_total_order,
)
from .graph import Graph, canonical_code, components, circumference, is_isomorphic, norm_edge
from .minimality import (
    CONJECTURE_IDS,
    STATUS_COUNTEREXAMPLE,
    STATUS_INCONCLUSIVE,
    STATUS_NO_COUNTEREXAMPLE,
    Classifier,
    enumerate_connected_graphs,
    find_minimal_members,
    minimality_decision,
    property_suite,
    run_conjecture,
)
from .operator import hl_step


class CriterionResult(NamedTuple):
    ident: int
    name: str
    passed: bool
    detail: str
    seconds: float
    limit_seconds: float

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return (
            f"[{mark}] {self.ident:>2}. {self.name}: {self.detail} "
            f"({self.seconds:.1f}s / limit {self.limit_seconds:.0f}s)"
        )


def _result(ident, name, passed, detail, t0, limit) -> CriterionResult:
    """A criterion that runs past its ceiling fails, whatever it found."""
    seconds = time.time() - t0
    return CriterionResult(ident, name, passed and seconds < limit, detail, seconds, limit)


@lru_cache(maxsize=None)
def _connected(v_max: int, e_max: int | None = None) -> tuple[Graph, ...]:
    return tuple(enumerate_connected_graphs(v_max, e_max))


def criterion_1() -> CriterionResult:
    """Every tailed cycle of total order n converges to the n-cycle in
    exactly r steps."""
    t0 = time.time()
    failures = []
    checked = 0
    for n in range(4, 9):
        for r in range(1, n - 2):
            m = n - r
            checked += 1
            c = classify(make_tailed_cycle(r, m), n)
            ok = (
                c.outcome is Outcome.CONVERGED
                and c.steps_to_outcome == r
                and c.limit is not None
                and is_isomorphic(c.limit, make_cycle(n))
            )
            if not ok:
                failures.append((n, r, m, c.outcome.value, c.steps_to_outcome))
    return _result(
        1, "tailed cycles of total order n converge in r steps to the n-cycle",
        not failures, f"{checked} cases, failures={failures}", t0, 60,
    )


def criterion_2() -> CriterionResult:
    """Tailed cycles of total order above n diverge with a certificate that
    re-verifies."""
    t0 = time.time()
    failures = []
    checked = 0
    for n in range(4, 9):
        for total in range(n + 1, n + 4):
            for r in range(1, total - 2):
                m = total - r
                checked += 1
                g = make_tailed_cycle(r, m)
                c = classify(g, n)
                ok = (
                    c.outcome is Outcome.DIVERGED_BY_ORDER
                    and c.certificate is not None
                    and verify_certificate(g, n, c.certificate)
                )
                if not ok:
                    failures.append((n, r, m, c.outcome.value))
    return _result(
        2, "oversized tailed cycles diverge with re-verifiable certificates",
        not failures, f"{checked} cases, failures={failures}", t0, 60,
    )


def criterion_3() -> CriterionResult:
    """Chorded cycles of length >= n diverge via the long-cycle certificate
    and their first iterates grow strictly."""
    t0 = time.time()
    failures = []
    checked = 0
    for n in (4, 5, 6):
        for m in range(n, n + 4):
            checked += 1
            g = make_chorded_cycle(m)
            c = classify(g, n)
            iterates = [g]
            for _ in range(3):
                iterates.append(hl_step(iterates[-1], n))
            orders = [h.order for h in iterates]
            ok = (
                c.outcome is Outcome.DIVERGED_BY_ORDER
                and c.certificate is not None
                and c.certificate.kind.value == "long_cycle"
                and all(a < b for a, b in zip(orders, orders[1:]))
            )
            if not ok:
                failures.append((n, m, c.outcome.value, orders))
    return _result(
        3, "chorded cycles diverge via long_cycle and grow for k=0..3",
        not failures, f"{checked} cases, failures={failures}", t0, 120,
    )


def _triangle_with_pendant_paths(lengths: tuple[int, int, int]) -> Graph:
    edges = [(0, 1), (1, 2), (0, 2)]
    nxt = 3
    for anchor, length in enumerate(lengths):
        prev = anchor
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph(nxt, edges)


def criterion_4() -> CriterionResult:
    """The spider image is a triangle with pendant paths of orders k-1, k-1,
    d-1, and the spider's sequence diverges."""
    t0 = time.time()
    failures = []
    checked = 0
    for k, d in ((2, 1), (3, 2), (3, 3), (4, 3)):
        n = k + d + 1
        checked += 1
        g = make_spider(k, k, d)
        image = hl_step(g, n)
        expected = _triangle_with_pendant_paths((k - 1, k - 1, d - 1))
        c = classify(g, n)
        ok = is_isomorphic(image, expected) and c.outcome is Outcome.DIVERGED_BY_ORDER
        if not ok:
            failures.append((k, d, n, c.outcome.value))
    return _result(
        4, "spider images match the triangle shape and spiders diverge",
        not failures, f"{checked} cases, failures={failures}", t0, 60,
    )


def criterion_5() -> CriterionResult:
    """One application leaves at most one component that is not an isolated
    vertex, for every connected graph of order <= 7."""
    t0 = time.time()
    violations = 0
    checked = 0
    for g in _connected(7):
        for n in (4, 5, 6):
            checked += 1
            h = hl_step(g, n)
            nontrivial = sum(
                1 for comp in components(h) if any(e[0] in comp for e in h.edges())
            )
            if nontrivial > 1:
                violations += 1
    return _result(
        5, "images of connected graphs have at most one nontrivial component",
        violations == 0, f"{checked} cases, violations={violations}", t0, 1800,
    )


def _iter_simple_paths_of_order(g: Graph, n: int):
    """Yield every simple path on exactly n vertices, one direction each."""
    path: list[int] = []

    def extend():
        if len(path) == n:
            if path[0] < path[-1]:
                yield list(path)
            return
        for x in g.neighbors(path[-1]):
            if x not in seen:
                seen.add(x)
                path.append(x)
                yield from extend()
                path.pop()
                seen.discard(x)

    for start in range(g.order):
        seen = {start}
        path = [start]
        yield from extend()


def _oracle_adjacent_pairs(g: Graph, n: int) -> set:
    marked = set()
    for path in _iter_simple_paths_of_order(g, n):
        for i in range(len(path) - 2):
            e = norm_edge(path[i], path[i + 1])
            f = norm_edge(path[i + 1], path[i + 2])
            marked.add((e, f) if e < f else (f, e))
    return marked


def criterion_6() -> CriterionResult:
    """The operator step agrees with whole-path enumeration on every pair of
    edges sharing a vertex, in every connected graph of order <= 7."""
    t0 = time.time()
    mismatches = 0
    pairs = 0
    for g in _connected(7):
        edges = g.edges()
        for n in (4, 5, 6):
            pairs += sum(d * (d - 1) // 2 for d in map(g.degree, range(g.order)))
            # edges are sorted, so i < j puts each pair in the oracle's order
            got = {(edges[i], edges[j]) for i, j in hl_step(g, n).edges()}
            if got != _oracle_adjacent_pairs(g, n):
                mismatches += 1
    return _result(
        6, "path-adjacency agrees with the naive all-paths oracle",
        mismatches == 0, f"{pairs} pairs, mismatching graphs={mismatches}", t0, 1800,
    )


def criterion_7() -> CriterionResult:
    """Circumference never drops under one application, for unicyclic graphs
    of order <= 8 whose every edge lies on an n-vertex path."""
    t0 = time.time()
    failures = 0
    checked = 0
    for g in _connected(8, 8):
        if g.size != g.order:
            continue
        for n in (4, 5, 6):
            h = hl_step(g, n)
            # an isolated vertex of h is an edge of g on no n-vertex path
            if any(h.degree(v) == 0 for v in range(h.order)):
                continue
            checked += 1
            if circumference(h) < circumference(g):
                failures += 1
    return _result(
        7, "unicyclic circumference is nondecreasing under the operator",
        failures == 0, f"{checked} cases, failures={failures}", t0, 600,
    )


def criterion_8() -> CriterionResult:
    """Tailed cycles of total order n and cycles of length n..8 are all
    minimally convergent."""
    t0 = time.time()
    failures = []
    checked = 0
    for n in (4, 5, 6):
        clf = Classifier(n, Budget())
        for member in tailed_cycles_of_total_order(n):
            checked += 1
            status = minimality_decision(member, n, classifier=clf).status
            if status != "yes":
                failures.append((n, "tailed", member.order, status))
        for m in range(n, 9):
            checked += 1
            status = minimality_decision(make_cycle(m), n, classifier=clf).status
            if status != "yes":
                failures.append((n, f"C{m}", status))
    return _result(
        8, "known minimal families decide as minimally convergent",
        not failures, f"{checked} cases, failures={failures}", t0, 600,
    )


def criterion_9() -> CriterionResult:
    """Every certificate emitted by the family reproductions and the small
    sweep re-verifies from its stored witness alone."""
    t0 = time.time()
    emitted = 0
    bad = 0
    jobs: list[tuple[Graph, int]] = []
    for n in range(4, 9):
        for total in range(n + 1, n + 4):
            for r in range(1, total - 2):
                jobs.append((make_tailed_cycle(r, total - r), n))
    for n in (4, 5, 6):
        for m in range(n, n + 4):
            jobs.append((make_chorded_cycle(m), n))
    for k, d in ((2, 1), (3, 2), (3, 3), (4, 3)):
        jobs.append((make_spider(k, k, d), k + d + 1))
    for g in _connected(6):
        for n in (4, 5):
            jobs.append((g, n))
    for g, n in jobs:
        c = classify(g, n)
        if c.certificate is None:
            continue
        emitted += 1
        if not verify_certificate(g, n, c.certificate):
            bad += 1
    return _result(
        9, "all emitted certificates re-verify from stored witnesses",
        bad == 0 and emitted > 0, f"{emitted} certificates, failures={bad}", t0, 600,
    )


def criterion_10() -> CriterionResult:
    """All conjecture harnesses complete with well-formed, replayable
    reports.  The truth of the conjectures is not asserted."""
    t0 = time.time()
    problems = []
    ran = 0
    valid_status = {
        STATUS_NO_COUNTEREXAMPLE,
        STATUS_COUNTEREXAMPLE,
        STATUS_INCONCLUSIVE,
    }
    for conjecture in CONJECTURE_IDS:
        for n in (4, 5):
            ran += 1
            rep = run_conjecture(conjecture, n, 6)
            if rep.status not in valid_status:
                problems.append((conjecture, n, "bad status"))
            if rep.stats.get("swept", 0) <= 0:
                problems.append((conjecture, n, "nothing swept"))
            for cand in rep.candidates:
                if not cand.replayed:
                    problems.append((conjecture, n, "candidate failed replay"))
    return _result(
        10, "conjecture harnesses complete and candidates replay",
        not problems and ran > 0, f"{ran} runs, problems={problems}", t0, 600,
    )


def criterion_11() -> CriterionResult:
    """Discovered minimal members fail none of the structural checks whose
    hypotheses they meet."""
    t0 = time.time()
    failures = []
    checked = 0
    for n in (4, 5, 6):
        report = find_minimal_members(n, 7)
        clf = Classifier(n, Budget())
        for rec in report.records:
            if rec.status != "yes":
                continue
            checked += 1
            suite = property_suite(rec.graph, n, classifier=clf)
            failures.extend((n, canonical_code(rec.graph).hex(), c) for c in suite.failures())
    return _result(
        11, "structural checks hold on every discovered minimal member",
        not failures and checked > 0, f"{checked} members, failures={failures}", t0, 600,
    )


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
)


def run_all() -> list[CriterionResult]:
    return [fn() for fn in CRITERIA]
