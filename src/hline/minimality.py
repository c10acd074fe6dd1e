"""Minimal-convergence decisions, exhaustive sweeps, structural property
checks, and conjecture falsification harnesses.

A graph is minimally convergent (for a given n) when its own sequence
converges but the sequence of every proper subgraph terminates or diverges.
Subgraphs are taken up to isomorphism with isolated vertices stripped;
that covers vertex deletions, because convergence is isomorphism-invariant
and insensitive to isolated vertices.

Lemma: if H is a subgraph of G, every n-vertex path of H is one of G, so
HL(H) is a subgraph of HL(G) and, by induction, HL^k(H) of HL^k(G) for
every k.  Every subgraph of a terminating graph terminates, and no
subgraph of a convergent graph diverges.  So a convergent G is minimal
exactly when no one-edge deletion G - e converges, and every convergent
subgraph of G lies below a chain of one-edge deletions that do not
terminate.  The decisions walk those deletions (`proper_subgraphs`,
`_walk`) and never scan edge subsets.

Read upwards, the lemma says that a graph with a divergent subgraph
diverges too: HL^k(G) contains HL^k(H), whose order grows without bound.
Enumeration builds each connected class from a parent class C - w, a
subgraph of the class, so a sweep gives a class the `diverged_by_order`
summary of a parent it has already decided and does not classify it
(`Classifier.summary`).

Sweeps visit connected classes only.  Every n-vertex path lies in one
component, so HL(A + B) = HL(A) + HL(B): a convergent union of two parts
with edges has a convergent part, a proper subgraph, so no union is
minimal, and a union with one convergent part has that part's minimal
subgraph classes.

The conjecture harnesses only ever gather bounded evidence: they report
candidates with replayable transcripts and never assert the truth or
falsity of a conjecture.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import combinations
from typing import NamedTuple

from .budget import Budget, ResourceLimitError
from .classify import Classification, Outcome, check_long_cycle, classify
from .families import make_cycle, tailed_cycles_of_total_order
from .graph import (
    Graph,
    canonical_code,
    circumference,
    components,
    girth,
    induced_subgraph,
    is_connected,
    is_cycle_graph,
    is_isomorphic,
    simple_paths,
    unique_cycle,
)
from .operator import hl_step

ENUMERATION_CAP = 9


# ---------------------------------------------------------------------------
# Classification summaries and memoization
# ---------------------------------------------------------------------------


class ClassificationSummary(NamedTuple):
    outcome: Outcome
    steps_to_outcome: int | None
    certificate_kind: str | None

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome.value,
            "steps_to_outcome": self.steps_to_outcome,
            "certificate_kind": self.certificate_kind,
        }

    @staticmethod
    def from_json(data: dict) -> "ClassificationSummary":
        return ClassificationSummary(
            Outcome(data["outcome"]), data["steps_to_outcome"], data["certificate_kind"]
        )


def summarize(c: Classification) -> ClassificationSummary:
    return ClassificationSummary(
        c.outcome,
        c.steps_to_outcome,
        c.certificate.kind.value if c.certificate else None,
    )


class Classifier:
    """Classification memoized by canonical code, with an optional
    persistent cache behind the in-memory memo.

    A class whose `Graph._parent_code` names a class the memo holds as
    `diverged_by_order` inherits that summary and is not classified.  So
    the inheritance needs each parent summarized before its children,
    which the order of `enumerate_connected_graphs` gives a sweep.
    Inherited summaries live in the memo only, neither looked up in the
    cache nor written to it: `classify` on the class itself may report
    another certificate kind or an earlier step.
    """

    def __init__(self, n: int, budget: Budget, cache=None):
        if n < 4:
            raise ValueError(f"path order parameter must be >= 4, got {n}")
        self.n = n
        self.budget = budget
        self.cache = cache
        self.memo: dict[bytes, ClassificationSummary] = {}

    def summary(self, g: Graph) -> ClassificationSummary:
        code = canonical_code(g)
        hit = self.memo.get(code)
        if hit is not None:
            return hit
        hit = self.memo.get(g._parent_code)
        if hit is not None and hit.outcome is Outcome.DIVERGED_BY_ORDER:
            self.memo[code] = hit
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


# ---------------------------------------------------------------------------
# Proper subgraphs and the minimality decision
# ---------------------------------------------------------------------------


def proper_subgraphs(g: Graph):
    """Stream one representative per isomorphism class of g - e, isolated
    vertices stripped, in the order of g's edges.

    The one-edge deletions of a single edge give the empty graph.  Repeated,
    they reach every proper subgraph class of g (see `_walk`).
    """
    edges = g.edges()
    seen: set[bytes] = set()
    for i in range(len(edges)):
        kept = edges[:i] + edges[i + 1:]
        touched = sorted({v for e in kept for v in e})
        idx = {v: j for j, v in enumerate(touched)}
        sub = Graph(len(touched), [(idx[u], idx[v]) for u, v in kept])
        code = canonical_code(sub)
        if code not in seen:
            seen.add(code)
            yield sub


def _walk(
    g: Graph, clf: Classifier, expand: Callable[[ClassificationSummary], bool]
):
    """Breadth-first walk down the one-edge deletions of g.

    Yields (representative, summary) once per proper subgraph class it
    reaches, deduplicated by code; only the classes whose summary satisfies
    `expand` have their own deletions walked.  With every class expanded,
    it reaches every proper subgraph class of g.
    """
    seen = {canonical_code(g)}
    frontier = [g]
    while frontier:
        nxt = []
        for parent in frontier:
            for sub in proper_subgraphs(parent):
                code = canonical_code(sub)
                if code in seen:
                    continue
                seen.add(code)
                summ = clf.summary(sub)
                yield sub, summ
                if expand(summ):
                    nxt.append(sub)
        frontier = nxt


class MinimalityResult:
    """The decision on one class, with the audit of the classes visited."""

    __slots__ = ("graph", "status", "classification", "audit")

    def __init__(
        self,
        graph: Graph,
        status: str,  # "yes" | "no" | "unknown"
        classification: ClassificationSummary,
        audit: list[tuple[str, str]] | None = None,
    ):
        self.graph = graph
        self.status = status
        self.classification = classification
        self.audit = [] if audit is None else audit

    def _key(self) -> tuple:
        return self.graph, self.status, self.classification, self.audit

    def __eq__(self, other):
        if other.__class__ is not MinimalityResult:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        return (
            "MinimalityResult(graph={!r}, status={!r}, classification={!r}, audit={!r})"
        ).format(*self._key())

    @property
    def blocker_code_hex(self) -> str | None:
        """The converged class that decided a `no`: the last one audited."""
        return self.audit[-1][0] if self.status == "no" and self.audit else None

    def to_json(self) -> dict:
        g = self.graph
        return {
            "code": canonical_code(g).hex(),
            "order": g.order,
            "size": g.size,
            "edges": [list(e) for e in g.edges()],
            **self.classification.to_json(),
            "minimal_status": self.status,
            "audit": [list(pair) for pair in self.audit],
        }


def minimality_decision(
    g: Graph, n: int, budget: Budget = Budget(), classifier: Classifier | None = None
) -> MinimalityResult:
    """Minimal-convergence decision with the audit of the classes visited.

    By the lemma in the module docstring, a convergent g needs a look only
    at its one-edge deletions and, below them, at `unknown` classes.  The
    first convergent class blocks; failing that, an `unknown` class leaves
    the decision `unknown`.  An `unknown` g walks the same deletions: a
    convergent one decides `no`, and otherwise g stays `unknown`.
    """
    if not all(g._adj):
        raise ValueError("minimality is decided on graphs without isolated vertices")
    clf = classifier if classifier is not None else Classifier(n, budget)
    top = clf.summary(g)
    if top.outcome not in (Outcome.CONVERGED, Outcome.UNKNOWN):
        return MinimalityResult(g, "no", top)
    audit: list[tuple[str, str]] = []
    saw_unknown = top.outcome is Outcome.UNKNOWN
    for sub, summ in _walk(g, clf, lambda s: s.outcome is Outcome.UNKNOWN):
        audit.append((canonical_code(sub).hex(), summ.outcome.value))
        if summ.outcome is Outcome.CONVERGED:
            return MinimalityResult(g, "no", top, audit)
        if summ.outcome is Outcome.UNKNOWN:
            saw_unknown = True
    return MinimalityResult(g, "unknown" if saw_unknown else "yes", top, audit)


# ---------------------------------------------------------------------------
# Exhaustive enumeration of small connected graphs
# ---------------------------------------------------------------------------


def enumerate_connected_graphs(v_max: int, e_max: int | None = None):
    """One representative per isomorphism class of connected graphs with at
    most v_max vertices and e_max edges, by canonical augmentation (McKay
    1998), walked depth first.

    Order: depth first from the order-1 class.  Each class is yielded
    before its children, which follow in anchor-mask order, each with its
    own descendants.  So every class comes after its parent, which is all
    `Classifier.summary` needs; callers that print sort by (order, code)
    themselves.  The order is deterministic.

    Each class of order below v_max is joined, by a new vertex x, to a
    nonempty anchor subset S of its vertices.  The child is accepted only
    when x is a canonical deletion vertex.  Among the non-cut vertices
    (deleting one keeps the graph connected) let f(u) = (degree of u,
    sorted degrees of its neighbours); x must have the least f, a test
    that needs no labeling (`_deletion_ties`).  When other non-cut vertices
    share that f, let w be the first of them and x in the child's canonical
    order (`Graph._canonical_order`); a w other than x must leave the
    parent's class behind, canonical_code(child - w) == canonical_code(parent).

    Completeness: let C be connected of order v >= 2 with at most e_max
    edges, and w its canonical deletion vertex as above (every connected
    graph of order >= 2 has non-cut vertices).  C - w is connected with
    fewer edges, so its class has a representative P one order down.  An
    isomorphism C - w -> P maps N(w) onto an anchor set S of P, and with
    w -> x it maps C onto the child of S, taking w to x: f(x) is least,
    and the first tying vertex w' of the child satisfies child - w' ~
    C - w ~ P, since canonical orders of isomorphic graphs differ by an
    isomorphism.  So the child of S, a copy of C, is accepted.

    No collisions across parents: an accepted child C has C - w ~ P for
    its canonical deletion vertex w, and the class of C - w depends on C's
    class alone, so every accepted copy of a class comes from the one
    parent class that C - w fixes.  So no earlier class needs to be kept;
    the walk holds only the path from the root to the current class, one
    child iterator per order.

    Orbit pruning: S is skipped, unbuilt and unlabeled, when an
    automorphism gamma that labeling stored on the parent
    (`Graph._automorphisms`) maps it to a set that sorts before it.  gamma
    extended by x -> x maps the child of S onto the child of gamma(S),
    which is accepted exactly when the child of S is and comes earlier
    from the same loop; the lexicographically least set of each orbit is
    never skipped.  Stored automorphisms need not generate the whole
    group, so one parent can still yield two accepted copies of a class;
    the set of accepted codes below keeps the first.

    The walk keeps one set of accepted codes per order, bytes only.  A set
    per parent would do for correctness, since copies never collide across
    parents; the order's set is a shortcut that drops a copy of an
    accepted class from another parent before the tie test, whose deletion
    labeling that copy would fail.  It costs one code per class visited,
    about 75 bytes with its set entry: some 19 MB for the 261,080 classes
    of order 9, where keeping each order's classes as graphs peaked at
    744 MB.

    Anchor sets are vertex bit masks (bit a for vertex a), listed once per
    order in the order of `itertools.combinations` by size, and both
    filters work on them (`_orbit_minimal`, `_deletion_ties`).

    Each accepted child records the code of its parent, a subgraph class
    of the child, as `Graph._parent_code`.
    """
    if e_max is not None and e_max < 0:
        raise ValueError(f"e_max must be >= 0, got {e_max}")
    if v_max < 1:
        raise ValueError(f"v_max must be >= 1, got {v_max}")
    if v_max > ENUMERATION_CAP:
        raise ValueError(f"v_max {v_max} exceeds enumeration cap {ENUMERATION_CAP}")
    if e_max is None:
        e_max = v_max * (v_max - 1) // 2
    # per parent order x: the anchor masks, ends[k] = the number of them
    # with at most k bits, the new edges of each mask, and the accepted
    # codes of order x + 1; built when a parent of order x first expands
    tables: dict[int, tuple[list[int], list[int], list[tuple], set[bytes]]] = {}

    def children(parent: Graph):
        """The children of `parent` that the tests above accept, in
        anchor-mask order."""
        x = parent.order
        if x not in tables:
            masks: list[int] = []
            ends = [0]
            for k in range(1, x + 1):
                masks += [sum(1 << a for a in subset) for subset in combinations(range(x), k)]
                ends.append(len(masks))
            new_edges = [tuple((a, x) for a in range(x) if m >> a & 1) for m in range(1 << x)]
            tables[x] = masks, ends, new_edges, set()
        masks, ends, new_edges, accepted = tables[x]
        pcode = parent._code
        adj = parent._adj
        edges = parent.edges()
        pieces = [_pieces_without(adj, u) for u in range(x)]
        free = e_max - parent.size
        for m in _orbit_minimal(masks[: ends[min(free, x)]], parent._automorphisms):
            ties = _deletion_ties(adj, m, pieces)
            if ties is None:
                continue
            child = Graph(x + 1, edges + new_edges[m])
            code = canonical_code(child)
            if code in accepted:
                continue
            if ties:
                order = child._canonical_order
                w = next(u for u in order if u == x or u in ties)
                if w != x:
                    rest, _ = induced_subgraph(child, set(range(x + 1)) - {w})
                    if canonical_code(rest) != pcode:
                        continue
            child._parent_code = pcode
            accepted.add(code)
            yield child

    root = Graph(1)
    canonical_code(root)
    stack = [iter((root,))]  # the child iterators along the path from the root
    while stack:
        g = next(stack[-1], None)
        if g is None:
            stack.pop()
            continue
        yield g
        if g.order < v_max and g.size < e_max:
            stack.append(children(g))


def _image_table(gamma: list[int]) -> list[int]:
    """images[m] is the mask of gamma's image of the vertex set with mask m,
    for every m below 2 ** len(gamma): the second half of each doubling
    adds the image of one more vertex."""
    images = [0]
    for a in gamma:
        bit = 1 << a
        images += [image | bit for image in images]
    return images


def _orbit_minimal(masks: list[int], autos: list[list[int]]) -> list[int]:
    """The anchor masks, in order, that no permutation in `autos` maps to a
    set sorting before them.  Two sets of one size first differ, as sorted
    tuples, at the lowest vertex in just one of them, and the set holding
    it sorts first; so gamma(S) sorts before S exactly when the lowest set
    bit of images[S] ^ S lies in images[S]."""
    for gamma in autos:
        images = _image_table(gamma)
        masks = [m for m in masks if not (d := images[m] ^ m) & -d & images[m]]
    return masks


def _deletion_ties(
    adj: tuple[tuple[int, ...], ...],
    anchors: int,
    pieces: list[list[int]],
) -> set[int] | None:
    """The degree filter of `enumerate_connected_graphs` on the child that
    joins a new vertex x to the vertices of the mask `anchors` in a
    connected parent with adjacency lists `adj`; pieces[u] holds the
    components of the parent minus u as masks.

    With f(u) = (degree of u, sorted degrees of its neighbours) in the
    child: None when a non-cut vertex has a smaller f than x, else the
    other non-cut vertices with the same f as x.  The child minus u is the
    parent minus u with x joined to the anchors other than u, so u is a cut
    vertex exactly when some piece of the parent minus u holds no anchor;
    x never is one.  A non-cut vertex of smaller degree than x rejects the
    child before any neighbour degrees are sorted.
    """
    dx = anchors.bit_count()
    level = []
    for u, nbrs in enumerate(adj):
        du = len(nbrs) + (anchors >> u & 1)
        if du > dx:
            continue
        for piece in pieces[u]:
            if not piece & anchors:
                break  # u is a cut vertex
        else:
            if du < dx:
                return None
            level.append(u)
    ties = set()
    if not level:
        return ties
    deg = [len(nbrs) + (anchors >> u & 1) for u, nbrs in enumerate(adj)]
    deg.append(dx)
    fx = sorted([deg[a] for a in range(len(adj)) if anchors >> a & 1])
    for u in level:
        nbr_degs = [deg[w] for w in adj[u]]
        if anchors >> u & 1:
            nbr_degs.append(dx)
        nbr_degs.sort()
        if nbr_degs < fx:
            return None
        if nbr_degs == fx:
            ties.add(u)
    return ties


def _pieces_without(adj: tuple[tuple[int, ...], ...], u: int) -> list[int]:
    """The components of a graph minus u, as vertex masks, for the graph
    with adjacency lists `adj`; ordered by least vertex."""
    seen = 1 << u
    out = []
    for s in range(len(adj)):
        if seen >> s & 1:
            continue
        piece = 1 << s
        stack = [s]
        while stack:
            for w in adj[stack.pop()]:
                if not piece >> w & 1 and w != u:
                    piece |= 1 << w
                    stack.append(w)
        seen |= piece
        out.append(piece)
    return out


# ---------------------------------------------------------------------------
# Arm decomposition of unicyclic graphs
# ---------------------------------------------------------------------------


class ArmDecomposition(NamedTuple):
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
    # compaction preserves vertex order, so the arms stay ordered by minimum
    off_cycle = [v for v in range(g.order) if v not in on_cycle]
    rest, old_ids = induced_subgraph(g, off_cycle)
    arms = [frozenset(old_ids[v] for v in comp) for comp in components(rest)]
    roots = []
    for arm in arms:
        attached = {w for v in arm for w in g.neighbors(v) if w in on_cycle}
        assert len(attached) == 1, "two roots for one arm contradict unicyclicity"
        roots.append(attached.pop())
    return ArmDecomposition(tuple(cycle), tuple(arms), tuple(roots))


# ---------------------------------------------------------------------------
# Structural property suite
# ---------------------------------------------------------------------------


class CheckResult(NamedTuple):
    status: str  # "pass" | "fail" | "skip"
    note: str = ""


class PropertyReport(NamedTuple):
    n: int
    results: dict[str, CheckResult]

    def failures(self) -> list[str]:
        return [k for k, r in self.results.items() if r.status == "fail"]


def _non_unicyclic_components(g: Graph) -> list[tuple[frozenset[int], int]]:
    """The components of g whose edge count differs from their vertex
    count, each with its edge count."""
    out = []
    for comp in components(g):
        edge_count = sum(1 for e in g.edges() if e[0] in comp)
        if edge_count != len(comp):
            out.append((comp, edge_count))
    return out


def _vertex_on_cycle(g: Graph, x: int) -> bool:
    """True iff some cycle of g passes through x: two neighbors of x lie in
    one component of g - x."""
    nbrs = sum(1 << w for w in g.neighbors(x))
    return any((piece & nbrs).bit_count() >= 2 for piece in _pieces_without(g._adj, x))


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
    counter = budget.counter()  # the step, the path scan and every circumference
    hl = hl_step(g, n, counter)
    edges = g.edges()  # vertex i of hl is edges[i]
    # an edge lies on an n-vertex path iff it is path-adjacent to another
    missing = [e for i, e in enumerate(edges) if hl.degree(i) == 0]
    image_circumference = circumference(hl, counter) if uni_connected else None

    def skip(name: str, why: str) -> None:
        results[name] = CheckResult("skip", why)

    def verdict(name: str, ok: bool, note: str = "") -> None:
        results[name] = CheckResult("pass" if ok else "fail", note)

    # (a) minimally convergent => every edge lies on an n-vertex path
    if lam == "yes":
        verdict("every_edge_on_full_path", not missing, f"missing={missing}")
    else:
        skip("every_edge_on_full_path", f"minimality={lam}")

    # (b) minimally convergent, not a tailed cycle of total order n, not a
    #     cycle => ends of long non-extendable paths are pendant in g
    if lam == "yes" and not is_cycle_graph(g) and not any(
        is_isomorphic(g, d) for d in tailed_cycles_of_total_order(n)
    ):
        bad: list[list[int]] = []
        # every simple path of order >= n, one direction each
        for start in range(g.order):
            for path in simple_paths(g, start, counter):
                p1, p2 = path[0], path[-1]
                if len(path) < n or p1 > p2:
                    continue
                inside = set(path)
                if not set(g.neighbors(p1)) <= inside:
                    continue
                if not set(g.neighbors(p2)) <= inside:
                    continue
                if g.degree(p1) != 1 or g.degree(p2) != 1:
                    bad.append(path.copy())
        verdict("maximal_path_ends_pendant", not bad, f"paths={bad[:3]}")
    else:
        skip("maximal_path_ends_pendant", "hypothesis not met")

    # (c) minimally convergent => one image component per component
    if lam == "yes":
        verdict(
            "component_count_preserved",
            len(components(hl)) == len(components(g)),
            f"{len(components(g))} -> {len(components(hl))}",
        )
    else:
        skip("component_count_preserved", f"minimality={lam}")

    # (d) unicyclic with every edge on an n-vertex path => circumference
    #     does not drop
    if uni_connected and not missing:
        cg, ch = circumference(g, counter), image_circumference
        verdict("circumference_nondecreasing", ch >= cg, f"{cg} -> {ch}")
    else:
        skip("circumference_nondecreasing", "hypothesis not met")

    # (e) unicyclic and minimally convergent => the image has a cycle
    if uni_connected and lam == "yes":
        verdict("image_not_tree", image_circumference > 0)
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
            for i, e in enumerate(edges)
            if e[0] in arm_vertices and e[1] in arm_vertices
            and _vertex_on_cycle(hl, i)
        ]
        verdict("arm_edges_off_cycles", not offenders, f"vertices={offenders}")
        bad_roots = []
        for root in set(arm_dec.roots):
            star = [i for i, e in enumerate(edges) if root in e]
            sub, _ = induced_subgraph(hl, star)
            if circumference(sub, counter) >= 4:
                bad_roots.append(root)
        verdict("root_star_no_long_cycle", not bad_roots, f"roots={bad_roots}")
    else:
        why = "classification unknown" if cls.outcome is Outcome.UNKNOWN else "hypothesis not met"
        skip("arm_edges_off_cycles", why)
        skip("root_star_no_long_cycle", why)

    # (h) minimally convergent, unicyclic components, image girth above 4
    #     => image components stay unicyclic
    comps_unicyclic = g.order > 0 and not _non_unicyclic_components(g)
    if lam == "yes" and comps_unicyclic and girth(hl) > 4:
        bad_comps = [sorted(comp) for comp, _ in _non_unicyclic_components(hl)]
        verdict("unicyclic_preserved", not bad_comps, f"components={bad_comps[:2]}")
    else:
        skip("unicyclic_preserved", "hypothesis not met")

    return PropertyReport(n, results)


# ---------------------------------------------------------------------------
# Minimal-member search
# ---------------------------------------------------------------------------


class SearchReport(NamedTuple):
    n: int
    v_max: int
    e_max: int | None
    records: list[MinimalityResult]  # minimal or undecided graphs only
    counts: dict[str, int]
    expected_missing: list[str]  # family members that failed to show as minimal

    @property
    def undecided(self) -> bool:
        """Some swept class stayed `unknown`; not in the JSON."""
        return self.counts["unknown"] > 0

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "v_max": self.v_max,
            "e_max": self.e_max,
            "records": [r.to_json() for r in self.records],
            "counts": self.counts,
            "expected_missing": self.expected_missing,
        }


def _graph_json(g: Graph) -> dict:
    return {"order": g.order, "edges": [list(e) for e in g.edges()]}


def _decide(
    g: Graph, clf: Classifier, counts: dict[str, int]
) -> MinimalityResult | None:
    """The minimality decision for one swept class, tallied in `counts`;
    None for the order-1 class, which has nothing to decide.  Swept classes
    are connected, so no other class has an isolated vertex."""
    if g.order == 1:
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
    cache=None,
) -> SearchReport:
    """Sweep every connected graph class and keep the minimal or undecided
    ones, then confirm the known minimal families showed up.

    Expected as minimal: every tailed cycle of total order n and every
    cycle of length n..v_max, each only when its order is at most v_max and
    its size at most e_max.
    """
    clf = Classifier(n, budget, cache)
    records: list[MinimalityResult] = []
    counts = {"swept": 0, "yes": 0, "no": 0, "unknown": 0}
    for g in enumerate_connected_graphs(v_max, e_max):
        decision = _decide(g, clf, counts)
        if decision is not None and decision.status != "no":
            records.append(decision)

    # the decision labeled each graph, which keeps its code as `_code`
    yes_codes = {r.graph._code for r in records if r.status == "yes"}
    # every expected graph has order n or more, so none is built when n > v_max
    expected: list[tuple[str, Graph]] = []
    if n <= v_max:
        expected = [(f"tailed_cycle_total_{n}", g) for g in tailed_cycles_of_total_order(n)]
        expected += [(f"C{m}", make_cycle(m)) for m in range(n, v_max + 1)]
    missing = [
        name
        for name, graph in expected
        if (e_max is None or graph.size <= e_max) and canonical_code(graph) not in yes_codes
    ]

    records.sort(key=lambda r: (r.graph.order, r.graph.size, r.graph._code))
    return SearchReport(n, v_max, e_max, records, counts, missing)


# ---------------------------------------------------------------------------
# Conjecture harnesses
# ---------------------------------------------------------------------------

STATUS_NO_COUNTEREXAMPLE = "no-counterexample-within-bounds"
STATUS_COUNTEREXAMPLE = "counterexample-found"
STATUS_INCONCLUSIVE = "inconclusive"

# A predicate's verdict when an unknown classification keeps it from deciding.
_UNDECIDED = "undecided"


class ConjectureCandidate(NamedTuple):
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


class ConjectureReport(NamedTuple):
    conjecture: str
    n: int
    v_max: int
    status: str
    candidates: list[ConjectureCandidate]
    stats: dict[str, int]
    # some swept class stayed undecided for want of budget; not in the JSON
    undecided: bool

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
) -> ConjectureReport:
    """Run one falsification sweep over the connected graph classes.

    The conjecture's predicate sees each class and returns a candidate,
    None, or _UNDECIDED.  Candidates are re-checked from fresh
    classifications (no cache) before being reported, sorted by the order
    and canonical code of their class.  A candidate of a refuting harness
    gives counterexample-found; otherwise any candidate or undecided class
    gives inconclusive.
    """
    if conjecture not in CONJECTURE_IDS:
        raise ValueError(f"unknown conjecture id {conjecture!r}")
    harness = _HARNESSES[conjecture]
    clf = Classifier(n, budget, cache)
    stats = dict.fromkeys(harness.stats, 0)
    found: list[tuple[bytes, ConjectureCandidate]] = []
    undecided = False
    for g in enumerate_connected_graphs(v_max):
        verdict = harness.predicate(g, clf, stats)
        if verdict is _UNDECIDED:
            undecided = True
        elif verdict is not None:
            found.append((g._code, verdict))  # stored by the enumeration
    # a code begins with the order, so this sorts by (order, code)
    found.sort(key=lambda item: item[0])
    candidates = [candidate for _, candidate in found]
    if candidates and harness.refuting:
        status = STATUS_COUNTEREXAMPLE
    elif candidates or undecided:
        status = STATUS_INCONCLUSIVE
    else:
        status = STATUS_NO_COUNTEREXAMPLE
    return ConjectureReport(conjecture, n, v_max, status, candidates, stats, undecided)


def _divergence_without_long_cycle(g: Graph, clf: Classifier, stats: dict):
    """Graphs that grow past the order cap without any iterate satisfying
    the long-cycle condition are candidates only: a finite trace cannot
    decide divergence by order, so this harness never refutes.
    """
    stats["swept"] += 1
    if clf.summary(g).outcome is not Outcome.UNKNOWN:
        return None
    stats["unknown"] += 1
    # the summary keeps no trace, so the unknown classes are classified again
    n, budget = clf.n, clf.budget
    c = classify(g, n, budget)
    orders = [h.order for h in c.trace.steps]
    if c.unknown_reason != "order_cap" or not all(
        a < b for a, b in zip(orders, orders[1:])
    ):
        return _UNDECIDED
    # With strictly growing orders each iterate has more edges than
    # vertices, so each step spent from classify's counter, and a check
    # that had exhausted it would have stopped the next step.  So classify's
    # own long-cycle check ran in full, and found nothing, on every iterate
    # but the last one, which it never checked.
    try:
        if check_long_cycle(c.trace.steps[-1], n, budget.counter()) is not None:
            return _UNDECIDED
    except ResourceLimitError:
        return _UNDECIDED
    # the claims come from c, itself a fresh classification without the cache
    return ConjectureCandidate(
        "order grows past the cap with no long-cycle iterate in sight",
        {"graph": _graph_json(g)},
        {"orders": orders, "outcome": c.outcome.value},
        True,
    )


def _minimal_not_unicyclic(g: Graph, clf: Classifier, stats: dict):
    """Every minimal member should decompose into unicyclic components."""
    decision = _decide(g, clf, stats)
    if decision is None or decision.status == "no":
        return None
    if decision.status == "unknown":
        return _UNDECIDED
    bad = [
        {"vertices": sorted(comp), "edges": edge_count}
        for comp, edge_count in _non_unicyclic_components(g)
    ]
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
    should contain exactly one minimal class among its subgraph classes.
    The sweep sees connected classes only, and each meets that hypothesis."""
    stats["swept"] += 1
    top = clf.summary(g)
    if top.outcome is Outcome.UNKNOWN:
        return _UNDECIDED
    if top.outcome is not Outcome.CONVERGED:
        return None
    stats["converged"] += 1
    minimal_classes, undecided = _minimal_classes(g, clf)
    if undecided:
        return _UNDECIDED
    if len(minimal_classes) == 1:
        return None
    replay, _ = _minimal_classes(g, Classifier(clf.n, clf.budget))
    return ConjectureCandidate(
        "convergent graph without a unique minimal subgraph class",
        {
            "graph": _graph_json(g),
            **{f"minimal_{i}": _graph_json(m) for i, m in enumerate(minimal_classes)},
        },
        {"minimal_count": len(minimal_classes)},
        [canonical_code(m) for m in replay]
        == [canonical_code(m) for m in minimal_classes],
    )


def _minimal_classes(g: Graph, clf: Classifier) -> tuple[list[Graph], bool]:
    """The minimal classes among g and its proper subgraph classes, in walk
    order, and whether a decision among them stayed `unknown`.

    A terminating class is never minimal, and by the lemma in the module
    docstring neither is any class below it, so the walk expands every
    class but the terminating ones and decides the rest.
    """
    live = [g] + [
        sub
        for sub, summ in _walk(g, clf, lambda s: s.outcome is not Outcome.TERMINATED)
        if summ.outcome is not Outcome.TERMINATED
    ]
    statuses = [minimality_decision(c, clf.n, clf.budget, clf).status for c in live]
    return [c for c, s in zip(live, statuses) if s == "yes"], "unknown" in statuses


class _Harness(NamedTuple):
    predicate: Callable[[Graph, Classifier, dict], ConjectureCandidate | str | None]
    stats: tuple[str, ...]  # report counters, in report order
    refuting: bool = True  # whether a candidate counts as a counterexample


_HARNESSES = {
    "divergence-iff-long-cycle": _Harness(
        _divergence_without_long_cycle, ("swept", "unknown"), refuting=False
    ),
    "minimal-implies-unicyclic": _Harness(
        _minimal_not_unicyclic, ("swept", "yes", "no", "unknown")
    ),
    "unique-minimal-subgraph": _Harness(
        _not_unique_minimal, ("swept", "converged")
    ),
}
CONJECTURE_IDS = tuple(_HARNESSES)
