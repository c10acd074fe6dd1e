"""Minimal-convergence decisions, exhaustive sweeps, structural property
checks, and conjecture falsification harnesses.

A graph is minimally convergent (for a given n) when its own sequence
converges but the sequence of every proper subgraph terminates or diverges.
The decision procedure quantifies over isomorphism classes of subgraphs,
realized as nonempty edge deletions with isolated vertices stripped; that
subsumes vertex deletions because convergence is isomorphism-invariant and
insensitive to isolated vertices.

The conjecture harnesses only ever gather bounded evidence: they report
candidates with replayable transcripts and never assert the truth or
falsity of a conjecture.
"""

from __future__ import annotations

import multiprocessing
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement

from .budget import Budget, ResourceLimitError, WorkCounter
from .classify import Classification, Outcome, check_long_cycle, classify
from .families import make_cycle, tailed_cycles_of_total_order
from .graph import (
    Graph,
    canonical_code,
    circumference,
    components,
    disjoint_union,
    girth,
    induced_subgraph,
    is_connected,
    is_cycle_graph,
    is_isomorphic,
    unique_cycle,
)
from .operator import edge_in_pn, hl_step

ENUMERATION_CAP = 9
SUBGRAPH_EDGE_CAP = 20


# ---------------------------------------------------------------------------
# Classification summaries and memoization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationSummary:
    outcome: Outcome
    steps_to_outcome: int | None
    certificate_kind: str | None
    limit_code_hex: str | None

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome.value,
            "steps_to_outcome": self.steps_to_outcome,
            "certificate_kind": self.certificate_kind,
            "limit_code_hex": self.limit_code_hex,
        }

    @staticmethod
    def from_json(data: dict) -> "ClassificationSummary":
        return ClassificationSummary(
            Outcome(data["outcome"]),
            data["steps_to_outcome"],
            data["certificate_kind"],
            data["limit_code_hex"],
        )


def summarize(c: Classification) -> ClassificationSummary:
    limit_hex = None
    if c.limit is not None:
        try:
            limit_hex = canonical_code(c.limit).hex()
        except ResourceLimitError:
            limit_hex = None
    return ClassificationSummary(
        c.outcome,
        c.steps_to_outcome,
        c.certificate.kind.value if c.certificate else None,
        limit_hex,
    )


class Classifier:
    """Classification memoized by canonical code, with an optional
    persistent cache behind the in-memory memo."""

    def __init__(self, n: int, budget: Budget, cache=None):
        self.n = n
        self.budget = budget
        self.cache = cache
        self.memo: dict[bytes, ClassificationSummary] = {}

    def code(self, g: Graph) -> bytes:
        return canonical_code(g)

    def summary(self, g: Graph) -> ClassificationSummary:
        code = self.code(g)
        hit = self.memo.get(code)
        if hit is not None:
            return hit
        if self.cache is not None:
            hit = self.cache.get(code.hex(), self.n)
            if hit is not None:
                self.memo[code] = hit
                return hit
        summ = summarize(classify(g, self.n, self.budget))
        self.memo[code] = summ
        if self.cache is not None:
            self.cache.put(code.hex(), self.n, summ)
        return summ


def _summary_worker(args) -> tuple[bytes, ClassificationSummary]:
    g, n, budget = args
    return canonical_code(g), summarize(classify(g, n, budget))


def _warm_classifier(clf: Classifier, graphs: list[Graph], jobs: int) -> None:
    """Pre-classify a batch, optionally across a worker pool.

    Per-graph classification is independent and pure, so results merge
    deterministically regardless of completion order.
    """
    todo = [g for g in graphs if clf.code(g) not in clf.memo]
    if jobs <= 1 or len(todo) < 2:
        for g in todo:
            clf.summary(g)
        return
    with multiprocessing.Pool(jobs) as pool:
        for code, summ in pool.imap_unordered(
            _summary_worker, [(g, clf.n, clf.budget) for g in todo], chunksize=8
        ):
            clf.memo.setdefault(code, summ)
            if clf.cache is not None:
                clf.cache.put(code.hex(), clf.n, summ)


# ---------------------------------------------------------------------------
# Proper subgraphs and the minimality decision
# ---------------------------------------------------------------------------


def proper_subgraphs(g: Graph, max_size: int = SUBGRAPH_EDGE_CAP):
    """Stream one representative per isomorphism class of proper subgraph.

    Realized as nonempty edge deletions with isolated vertices stripped;
    includes the empty graph, never g itself.  Larger subgraphs come first.
    """
    if g.size > max_size:
        raise ResourceLimitError(
            f"subgraph enumeration over {g.size} edges exceeds cap {max_size}"
        )
    edges = g.edges()
    seen: set[bytes] = set()
    for k in range(1, len(edges) + 1):
        for dropped in combinations(range(len(edges)), k):
            drop = set(dropped)
            kept = [e for i, e in enumerate(edges) if i not in drop]
            touched = sorted({v for e in kept for v in e})
            idx = {v: i for i, v in enumerate(touched)}
            sub = Graph(len(touched), [(idx[u], idx[v]) for u, v in kept])
            code = canonical_code(sub)
            if code not in seen:
                seen.add(code)
                yield sub


@dataclass
class MinimalityResult:
    status: str  # "yes" | "no" | "unknown"
    classification: ClassificationSummary
    audit: list[tuple[str, str]] = field(default_factory=list)
    blocker_code_hex: str | None = None  # converged proper subgraph, when "no"


def minimality_decision(
    g: Graph, n: int, budget: Budget = Budget(), classifier: Classifier | None = None
) -> MinimalityResult:
    """Full minimal-convergence decision with the proper-subgraph audit."""
    if any(g.degree(v) == 0 for v in range(g.order)):
        raise ValueError("minimality is decided on graphs without isolated vertices")
    clf = classifier if classifier is not None else Classifier(n, budget)
    top = clf.summary(g)
    if top.outcome is Outcome.UNKNOWN:
        return MinimalityResult("unknown", top)
    if top.outcome is not Outcome.CONVERGED:
        return MinimalityResult("no", top)
    audit: list[tuple[str, str]] = []
    saw_unknown = False
    for sub in proper_subgraphs(g):
        summ = clf.summary(sub)
        audit.append((clf.code(sub).hex(), summ.outcome.value))
        if summ.outcome is Outcome.CONVERGED:
            return MinimalityResult("no", top, audit, audit[-1][0])
        if summ.outcome is Outcome.UNKNOWN:
            saw_unknown = True
    return MinimalityResult("unknown" if saw_unknown else "yes", top, audit)


def is_minimally_convergent(g: Graph, n: int, budget: Budget = Budget()) -> str:
    """'yes', 'no', or 'unknown' per the minimal-convergence definition."""
    return minimality_decision(g, n, budget).status


# ---------------------------------------------------------------------------
# Exhaustive enumeration of small connected graphs
# ---------------------------------------------------------------------------


def enumerate_connected_graphs(v_max: int, e_max: int | None = None):
    """One representative per isomorphism class of connected graphs with at
    most v_max vertices and e_max edges.

    Level-wise extension: every connected graph on v vertices arises from a
    connected graph on v-1 vertices by joining one new vertex to a nonempty
    subset (a spanning tree's leaf is never a cut vertex), so extending every
    parent by every subset and rejecting duplicates by canonical code is
    exhaustive.  Deterministic order: by order, then canonical code.
    """
    if v_max < 1:
        return
    if v_max > ENUMERATION_CAP:
        raise ValueError(f"v_max {v_max} exceeds enumeration cap {ENUMERATION_CAP}")
    if e_max is None:
        e_max = v_max * (v_max - 1) // 2
    level: dict[bytes, Graph] = {canonical_code(Graph(1)): Graph(1)}
    for code in sorted(level):
        yield level[code]
    for v in range(2, v_max + 1):
        nxt: dict[bytes, Graph] = {}
        for parent in level.values():
            free = e_max - parent.size
            if free < 1:
                continue
            anchors = list(range(v - 1))
            for k in range(1, min(free, v - 1) + 1):
                for subset in combinations(anchors, k):
                    child = Graph(
                        v, list(parent.edges()) + [(a, v - 1) for a in subset]
                    )
                    code = canonical_code(child)
                    if code not in nxt:
                        nxt[code] = child
        level = nxt
        for code in sorted(level):
            yield level[code]


def enumerate_two_component_unions(v_max: int, e_max: int | None = None):
    """Disjoint unions of two connected graphs of order >= 2, combined order
    at most v_max, deduplicated.  Order-1 parts are excluded: they are
    isolated vertices, which the minimality decision does not accept."""
    parts = [g for g in enumerate_connected_graphs(v_max - 2, e_max) if g.order >= 2]
    seen: set[bytes] = set()
    out: list[tuple[bytes, Graph]] = []
    for a, b in combinations_with_replacement(parts, 2):
        if a.order + b.order > v_max:
            continue
        u = disjoint_union(a, b)
        code = canonical_code(u)
        if code not in seen:
            seen.add(code)
            out.append((code, u))
    out.sort(key=lambda item: (item[1].order, item[0]))
    for _, u in out:
        yield u


# ---------------------------------------------------------------------------
# Arm decomposition of unicyclic graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArmDecomposition:
    cycle: tuple[int, ...]
    arms: tuple[frozenset[int], ...]  # ordered by minimum vertex
    roots: tuple[int, ...]  # roots[i] is the cycle vertex adjacent to arms[i]


def arm_decomposition(g: Graph) -> ArmDecomposition | None:
    """Cycle, arms (components off the cycle), and their roots; None unless
    g is connected and unicyclic.

    Each arm has exactly one root: a second root would close a second cycle.
    """
    cycle = unique_cycle(g)
    if cycle is None:
        return None
    on_cycle = set(cycle)
    rest = [v for v in range(g.order) if v not in on_cycle]
    unseen = set(rest)
    arms: list[frozenset[int]] = []
    while unseen:
        start = min(unseen)
        comp = {start}
        stack = [start]
        unseen.discard(start)
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w in unseen:
                    unseen.discard(w)
                    comp.add(w)
                    stack.append(w)
        arms.append(frozenset(comp))
    arms.sort(key=min)
    roots = []
    for arm in arms:
        attached = {w for v in arm for w in g.neighbors(v) if w in on_cycle}
        assert len(attached) == 1, "two roots for one arm contradict unicyclicity"
        roots.append(attached.pop())
    return ArmDecomposition(tuple(cycle), tuple(arms), tuple(roots))


# ---------------------------------------------------------------------------
# Structural property suite
# ---------------------------------------------------------------------------

PROPERTY_CHECKS = (
    "every_edge_on_full_path",
    "maximal_path_ends_pendant",
    "component_count_preserved",
    "circumference_nondecreasing",
    "image_not_tree",
    "arm_edges_off_cycles",
    "root_star_no_long_cycle",
    "unicyclic_preserved",
)


@dataclass(frozen=True)
class CheckResult:
    status: str  # "pass" | "fail" | "skip"
    note: str = ""


@dataclass
class PropertyReport:
    n: int
    results: dict[str, CheckResult]

    def failures(self) -> list[str]:
        return [k for k, r in self.results.items() if r.status == "fail"]


def _iter_simple_paths_min_order(g: Graph, min_order: int):
    """All simple paths of order >= min_order, one direction each."""
    path: list[int] = []
    used: set[int] = set()

    def dfs():
        if len(path) >= min_order and path[0] < path[-1]:
            yield path.copy()
        for x in g.neighbors(path[-1]):
            if x not in used:
                used.add(x)
                path.append(x)
                yield from dfs()
                path.pop()
                used.discard(x)

    for start in range(g.order):
        path = [start]
        used = {start}
        yield from dfs()


def _vertex_on_cycle(g: Graph, x: int) -> bool:
    """True iff some cycle of g passes through x: two neighbors of x stay
    connected when x is removed."""
    nbrs = g.neighbors(x)
    for a, b in combinations(nbrs, 2):
        seen = {a, x}
        stack = [a]
        while stack:
            u = stack.pop()
            if u == b:
                return True
            for w in g.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return False


def property_suite(
    g: Graph, n: int, budget: Budget = Budget(), classifier: Classifier | None = None
) -> PropertyReport:
    """Run every structural check whose hypothesis g satisfies.

    Checks gated on minimal convergence or plain convergence skip when the
    needed classification is unknown; hypothesis failures also skip.
    """
    clf = classifier if classifier is not None else Classifier(n, budget)
    results: dict[str, CheckResult] = {}

    has_isolated = any(g.degree(v) == 0 for v in range(g.order))
    if has_isolated:
        lam = "no"
        cls = clf.summary(g)
    else:
        decision = minimality_decision(g, n, budget, clf)
        lam = decision.status
        cls = decision.classification
    converged = cls.outcome is Outcome.CONVERGED
    uni_connected = g.order > 0 and g.size == g.order and is_connected(g)
    every_edge_on_path = all(edge_in_pn(g, e, n) for e in g.edges())
    hl = hl_step(g, n)

    def skip(name: str, why: str) -> None:
        results[name] = CheckResult("skip", why)

    def verdict(name: str, ok: bool, note: str = "") -> None:
        results[name] = CheckResult("pass" if ok else "fail", note)

    # (a) minimally convergent => every edge lies on an n-vertex path
    if lam == "yes":
        missing = [e for e in g.edges() if not edge_in_pn(g, e, n)]
        verdict("every_edge_on_full_path", not missing, f"missing={missing}")
    else:
        skip("every_edge_on_full_path", f"minimality={lam}")

    # (b) minimally convergent, not a tailed cycle of total order n, not a
    #     cycle => ends of long non-extendable paths are pendant in g
    if lam == "yes" and not is_cycle_graph(g) and not any(
        is_isomorphic(g, d) for d in tailed_cycles_of_total_order(n)
    ):
        bad: list[list[int]] = []
        for path in _iter_simple_paths_min_order(g, n):
            inside = set(path)
            p1, p2 = path[0], path[-1]
            if not set(g.neighbors(p1)) <= inside:
                continue
            if not set(g.neighbors(p2)) <= inside:
                continue
            if g.degree(p1) != 1 or g.degree(p2) != 1:
                bad.append(path)
        verdict("maximal_path_ends_pendant", not bad, f"paths={bad[:3]}")
    else:
        skip("maximal_path_ends_pendant", "hypothesis not met")

    # (c) minimally convergent => one image component per component
    if lam == "yes":
        verdict(
            "component_count_preserved",
            len(components(hl.graph)) == len(components(g)),
            f"{len(components(g))} -> {len(components(hl.graph))}",
        )
    else:
        skip("component_count_preserved", f"minimality={lam}")

    # (d) unicyclic with every edge on an n-vertex path => circumference
    #     does not drop
    if uni_connected and every_edge_on_path:
        cg, ch = circumference(g), circumference(hl.graph)
        verdict("circumference_nondecreasing", ch >= cg, f"{cg} -> {ch}")
    else:
        skip("circumference_nondecreasing", "hypothesis not met")

    # (e) unicyclic and minimally convergent => the image has a cycle
    if uni_connected and lam == "yes":
        verdict("image_not_tree", circumference(hl.graph) > 0)
    elif uni_connected and lam == "unknown":
        skip("image_not_tree", "minimality unknown")
    else:
        skip("image_not_tree", "hypothesis not met")

    # (f) unicyclic and convergent => arm edges avoid every image cycle
    # (g) unicyclic and convergent => edges at one root induce no long cycle
    if uni_connected and converged:
        arm_dec = arm_decomposition(g)
        assert arm_dec is not None
        arm_vertices = set().union(*arm_dec.arms) if arm_dec.arms else set()
        offenders = [
            i
            for i, e in enumerate(hl.provenance)
            if e[0] in arm_vertices and e[1] in arm_vertices
            and _vertex_on_cycle(hl.graph, i)
        ]
        verdict("arm_edges_off_cycles", not offenders, f"vertices={offenders}")
        bad_roots = []
        for root in set(arm_dec.roots):
            star = [i for i, e in enumerate(hl.provenance) if root in e]
            sub, _ = induced_subgraph(hl.graph, star)
            if circumference(sub) >= 4:
                bad_roots.append(root)
        verdict("root_star_no_long_cycle", not bad_roots, f"roots={bad_roots}")
    else:
        why = "classification unknown" if cls.outcome is Outcome.UNKNOWN else "hypothesis not met"
        skip("arm_edges_off_cycles", why)
        skip("root_star_no_long_cycle", why)

    # (h) minimally convergent, unicyclic components, image girth above 4
    #     => image components stay unicyclic
    comps_unicyclic = g.order > 0 and all(
        len([e for e in g.edges() if e[0] in comp]) == len(comp)
        for comp in components(g)
    )
    if lam == "yes" and comps_unicyclic and girth(hl.graph) > 4:
        bad_comps = []
        for comp in components(hl.graph):
            edge_count = sum(1 for e in hl.graph.edges() if e[0] in comp)
            if edge_count != len(comp):
                bad_comps.append(sorted(comp))
        verdict("unicyclic_preserved", not bad_comps, f"components={bad_comps[:2]}")
    else:
        skip("unicyclic_preserved", "hypothesis not met")

    return PropertyReport(n, results)


# ---------------------------------------------------------------------------
# Minimal-member search
# ---------------------------------------------------------------------------


@dataclass
class MinimalityRecord:
    code_hex: str
    order: int
    size: int
    edges: list[list[int]]
    outcome: str
    steps_to_outcome: int | None
    certificate_kind: str | None
    minimal_status: str
    audit: list[tuple[str, str]]

    def to_json(self) -> dict:
        return {
            "code": self.code_hex,
            "order": self.order,
            "size": self.size,
            "edges": self.edges,
            "outcome": self.outcome,
            "steps_to_outcome": self.steps_to_outcome,
            "certificate_kind": self.certificate_kind,
            "minimal_status": self.minimal_status,
            "audit": [list(pair) for pair in self.audit],
        }


@dataclass
class SearchReport:
    n: int
    v_max: int
    e_max: int | None
    include_unions: bool
    records: list[MinimalityRecord]  # minimal or undecided graphs only
    counts: dict[str, int]
    expected_missing: list[str]  # family members that failed to show as minimal

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "v_max": self.v_max,
            "e_max": self.e_max,
            "include_unions": self.include_unions,
            "records": [r.to_json() for r in self.records],
            "counts": self.counts,
            "expected_missing": self.expected_missing,
        }


def _graph_json(g: Graph) -> dict:
    return {"order": g.order, "edges": [list(e) for e in g.edges()]}


def _sweep_graphs(
    v_max: int, e_max: int | None = None, unions: bool = False
) -> list[Graph]:
    """The classes a sweep visits: connected graphs, then optionally the
    disjoint unions of two connected graphs."""
    graphs = list(enumerate_connected_graphs(v_max, e_max))
    if unions:
        graphs.extend(enumerate_two_component_unions(v_max, e_max))
    return graphs


def _decide(
    g: Graph, clf: Classifier, counts: dict[str, int]
) -> MinimalityResult | None:
    """The minimality decision for one swept class, tallied in `counts`;
    None for the order-1 class, which has nothing to decide."""
    if any(g.degree(v) == 0 for v in range(g.order)):
        return None
    counts["swept"] += 1
    decision = minimality_decision(g, clf.n, clf.budget, clf)
    counts[decision.status] += 1
    return decision


def find_minimal_members(
    n: int,
    v_max: int,
    budget: Budget = Budget(),
    e_max: int | None = None,
    include_unions: bool = False,
    cache=None,
    jobs: int = 1,
) -> SearchReport:
    """Sweep every enumerated graph class and keep the minimal or undecided
    ones, then confirm the known minimal families showed up.

    Expected as minimal: every tailed cycle of total order n (when its order
    fits the sweep) and every cycle of length n..v_max.
    """
    clf = Classifier(n, budget, cache)
    candidates = _sweep_graphs(v_max, e_max, include_unions)
    _warm_classifier(clf, candidates, jobs)

    records: list[MinimalityRecord] = []
    counts = {"swept": 0, "yes": 0, "no": 0, "unknown": 0}
    status_by_code: dict[str, str] = {}
    for g in candidates:
        decision = _decide(g, clf, counts)
        if decision is None:
            continue
        code_hex = clf.code(g).hex()
        status_by_code[code_hex] = decision.status
        if decision.status in ("yes", "unknown"):
            records.append(
                MinimalityRecord(
                    code_hex,
                    g.order,
                    g.size,
                    [list(e) for e in g.edges()],
                    decision.classification.outcome.value,
                    decision.classification.steps_to_outcome,
                    decision.classification.certificate_kind,
                    decision.status,
                    decision.audit,
                )
            )

    expected: list[tuple[str, Graph]] = []
    for member in tailed_cycles_of_total_order(n):
        if member.order <= v_max:
            expected.append((f"tailed_cycle_total_{n}", member))
    for m in range(n, v_max + 1):
        expected.append((f"C{m}", make_cycle(m)))
    missing = []
    for name, graph in expected:
        code_hex = canonical_code(graph).hex()
        if status_by_code.get(code_hex) != "yes":
            missing.append(name)

    records.sort(key=lambda r: (r.order, r.size, r.code_hex))
    return SearchReport(n, v_max, e_max, include_unions, records, counts, missing)


# ---------------------------------------------------------------------------
# Conjecture harnesses
# ---------------------------------------------------------------------------

STATUS_NO_COUNTEREXAMPLE = "no-counterexample-within-bounds"
STATUS_COUNTEREXAMPLE = "counterexample-found"
STATUS_INCONCLUSIVE = "inconclusive"

# A predicate's verdict when an unknown classification keeps it from deciding.
_UNDECIDED = "undecided"


@dataclass
class ConjectureCandidate:
    description: str
    graphs: dict[str, dict]  # role -> {"order": .., "edges": [..]}
    claims: dict
    replayed: bool

    def to_json(self) -> dict:
        return {
            "description": self.description,
            "graphs": self.graphs,
            "claims": self.claims,
            "replayed": self.replayed,
        }


@dataclass
class ConjectureReport:
    conjecture: str
    n: int
    v_max: int
    status: str
    candidates: list[ConjectureCandidate]
    stats: dict[str, int]

    def to_json(self) -> dict:
        return {
            "conjecture": self.conjecture,
            "n": self.n,
            "v_max": self.v_max,
            "status": self.status,
            "candidates": [c.to_json() for c in self.candidates],
            "stats": self.stats,
        }


def run_conjecture(
    conjecture: str,
    n: int,
    v_max: int,
    budget: Budget = Budget(),
    cache=None,
    jobs: int = 1,
) -> ConjectureReport:
    """Run one falsification sweep over the enumerated graph classes.

    The conjecture's predicate sees each class and returns a candidate,
    None, or _UNDECIDED.  Candidates are re-checked from fresh
    classifications (no cache) before being reported.  A candidate of a
    refuting harness gives counterexample-found; otherwise any candidate or
    undecided class gives inconclusive.
    """
    if conjecture not in CONJECTURE_IDS:
        raise ValueError(f"unknown conjecture id {conjecture!r}")
    harness = _HARNESSES[conjecture]
    clf = Classifier(n, budget, cache)
    graphs = _sweep_graphs(v_max, unions=harness.unions)
    if harness.warm:
        _warm_classifier(clf, graphs, jobs)
    stats = dict.fromkeys(harness.stats, 0)
    candidates: list[ConjectureCandidate] = []
    undecided = False
    for g in graphs:
        verdict = harness.predicate(g, clf, stats)
        if verdict is _UNDECIDED:
            undecided = True
        elif verdict is not None:
            candidates.append(verdict)
    if candidates and harness.refuting:
        status = STATUS_COUNTEREXAMPLE
    elif candidates or undecided:
        status = STATUS_INCONCLUSIVE
    else:
        status = STATUS_NO_COUNTEREXAMPLE
    return ConjectureReport(conjecture, n, v_max, status, candidates, stats)


def _divergence_without_long_cycle(g: Graph, clf: Classifier, stats: dict):
    """Graphs that grow past the order cap without any iterate satisfying
    the long-cycle condition are candidates only: a finite trace cannot
    decide divergence by order, so this harness never refutes.
    """
    stats["swept"] += 1
    n, budget = clf.n, clf.budget
    c = classify(g, n, budget)
    if c.outcome is not Outcome.UNKNOWN:
        return None
    stats["unknown"] += 1
    orders = [s.order for s in c.trace.steps]
    if c.unknown_reason != "order_cap" or not all(
        a < b for a, b in zip(orders, orders[1:])
    ):
        return _UNDECIDED
    for step in c.trace.steps:
        try:
            if check_long_cycle(step.graph, n, WorkCounter()) is not None:
                return _UNDECIDED
        except ResourceLimitError:
            return _UNDECIDED
    replay = classify(g, n, budget)
    return ConjectureCandidate(
        "order grows past the cap with no long-cycle iterate in sight",
        {"graph": _graph_json(g)},
        {"orders": orders, "outcome": c.outcome.value},
        replay.outcome is Outcome.UNKNOWN
        and [s.order for s in replay.trace.steps] == orders,
    )


def _noniso_convergent_pair(g: Graph, clf: Classifier, stats: dict):
    """A connected convergent graph holding two non-isomorphic convergent
    proper subgraphs.  Any nested chain of convergent graphs satisfies this,
    and the predicate has not been checked against the paper's statement,
    so its hits are candidates only."""
    stats["swept"] += 1
    top = clf.summary(g)
    if top.outcome is Outcome.UNKNOWN:
        stats["unknown"] += 1
        return _UNDECIDED
    if top.outcome is not Outcome.CONVERGED:
        return None
    stats["converged"] += 1
    converged_subs: list[Graph] = []
    undecided = False
    for sub in proper_subgraphs(g):
        summ = clf.summary(sub)
        if summ.outcome is Outcome.UNKNOWN:
            undecided = True
        elif summ.outcome is Outcome.CONVERGED:
            converged_subs.append(sub)
    if len(converged_subs) < 2:
        return _UNDECIDED if undecided else None
    n, budget = clf.n, clf.budget
    sub1, sub2 = converged_subs[0], converged_subs[1]
    return ConjectureCandidate(
        "convergent graph with two non-isomorphic convergent proper "
        "subgraphs (predicate not checked against the paper's statement)",
        {
            "graph": _graph_json(g),
            "subgraph_1": _graph_json(sub1),
            "subgraph_2": _graph_json(sub2),
        },
        {"outcome": top.outcome.value},
        classify(g, n, budget).outcome is Outcome.CONVERGED
        and classify(sub1, n, budget).outcome is Outcome.CONVERGED
        and classify(sub2, n, budget).outcome is Outcome.CONVERGED
        and not is_isomorphic(sub1, sub2),
    )


def _minimal_not_unicyclic(g: Graph, clf: Classifier, stats: dict):
    """Every minimal member should decompose into unicyclic components."""
    decision = _decide(g, clf, stats)
    if decision is None or decision.status == "no":
        return None
    if decision.status == "unknown":
        return _UNDECIDED
    bad = []
    for comp in components(g):
        edge_count = sum(1 for e in g.edges() if e[0] in comp)
        if edge_count != len(comp):
            bad.append({"vertices": sorted(comp), "edges": edge_count})
    if not bad:
        return None
    return ConjectureCandidate(
        "minimal member with a non-unicyclic component",
        {"graph": _graph_json(g)},
        {"bad_components": bad},
        minimality_decision(g, clf.n, clf.budget).status == "yes",
    )


def _not_unique_minimal(g: Graph, clf: Classifier, stats: dict):
    """Each convergent graph that is not a union of two convergent graphs
    should contain exactly one minimal class among its subgraph classes."""
    stats["swept"] += 1
    top = clf.summary(g)
    if top.outcome is Outcome.UNKNOWN:
        return _UNDECIDED
    if top.outcome is not Outcome.CONVERGED:
        return None
    stats["converged"] += 1
    comps = components(g)
    if len(comps) == 2:
        halves = [clf.summary(induced_subgraph(g, comp)[0]).outcome for comp in comps]
        if any(o is Outcome.UNKNOWN for o in halves):
            return _UNDECIDED
        if all(o is Outcome.CONVERGED for o in halves):
            return None  # hypothesis of the conjecture excludes this graph
    stats["checked"] += 1
    n, budget = clf.n, clf.budget
    minimal_classes: list[Graph] = []
    undecided = False
    for candidate in [g, *proper_subgraphs(g)]:
        if candidate.order == 0:
            continue
        decision = minimality_decision(candidate, n, budget, clf)
        if decision.status == "yes":
            minimal_classes.append(candidate)
        elif decision.status == "unknown":
            undecided = True
    if undecided:
        return _UNDECIDED
    if len(minimal_classes) == 1:
        return None
    replay_count = sum(
        1
        for cand in [g, *proper_subgraphs(g)]
        if cand.order > 0 and minimality_decision(cand, n, budget).status == "yes"
    )
    return ConjectureCandidate(
        "convergent graph without a unique minimal subgraph class",
        {
            "graph": _graph_json(g),
            **{f"minimal_{i}": _graph_json(m) for i, m in enumerate(minimal_classes)},
        },
        {"minimal_count": len(minimal_classes)},
        replay_count == len(minimal_classes),
    )


@dataclass(frozen=True)
class _Harness:
    predicate: Callable[[Graph, Classifier, dict], ConjectureCandidate | str | None]
    stats: tuple[str, ...]  # report counters, in report order
    unions: bool = False  # also sweep two-component unions
    warm: bool = True  # pre-classify every class into the classifier memo
    refuting: bool = True  # whether a candidate counts as a counterexample


_HARNESSES = {
    # classifies directly: it needs full traces, which the memo does not keep
    "divergence-iff-long-cycle": _Harness(
        _divergence_without_long_cycle, ("swept", "unknown"),
        warm=False, refuting=False,
    ),
    "noniso-convergent-pair": _Harness(
        _noniso_convergent_pair, ("swept", "converged", "unknown"), refuting=False
    ),
    "minimal-implies-unicyclic": _Harness(
        _minimal_not_unicyclic, ("swept", "yes", "no", "unknown"), unions=True
    ),
    "unique-minimal-subgraph": _Harness(
        _not_unique_minimal, ("swept", "converged", "checked"), unions=True
    ),
}
CONJECTURE_IDS = tuple(_HARNESSES)
