"""Divergence certificates and the sequence classifier.

A certificate is a machine-checkable witness that the iterated operator
cannot converge: once any iterate contains a subgraph whose own sequence
grows without bound, so does the whole sequence.  Four certified shapes are
searched, in a fixed order, on every iterate before the next step:

* long_cycle: a component with a cycle of length >= n that is not itself
  that cycle.
* long_tail:  a tailed-cycle subgraph (m-cycle plus pendant path of order r)
  with m + r > n, searched only in components of more than n vertices.
* spider:     a CL(k, k, n-k-1) subgraph with n <= 2k and k + 1 < n, its
  centre searched only in components of at least n + k vertices.
* twin_tail:  two tailed-cycle subgraphs of total order exactly n, with
  different edge sets, inside one component, searched only in components
  of at least n vertices.

The classifier runs one tailed-cycle walk for both tail shapes: the
long-tail walk, with cycles of at most n - 1 vertices, yields every tail of
n - m vertices on its way to those of n - m + 1, and searches only the
components of at least n vertices, where either shape may lie.  Its
certificates are the ones the standalone `check_long_tail` and
`check_twin_tail` return, in the same precedence; an exhausted walk is
flagged `long_tail_exhausted@k=..`, so the classifier never flags
`twin_tail_exhausted`.

Certificates re-verify from their stored witnesses alone: the verifier
recomputes the iterate deterministically and checks the witnessed structure,
never re-running the search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import count

from .budget import Budget, ResourceLimitError, WorkCounter
from .graph import (
    Graph,
    component_of,
    components,
    induced_subgraph,
    is_cycle_graph,
    is_isomorphic,
    norm_edge,
    simple_paths,
)
from .operator import hl_step


class CertificateKind(str, Enum):
    LONG_CYCLE = "long_cycle"
    LONG_TAIL = "long_tail"
    SPIDER = "spider"
    TWIN_TAIL = "twin_tail"


@dataclass
class Certificate:
    kind: CertificateKind
    found_at_iteration: int
    witness: dict

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "found_at_iteration": self.found_at_iteration,
            "witness": self.witness,
        }

    @staticmethod
    def from_json(data: dict) -> "Certificate":
        return Certificate(
            CertificateKind(data["kind"]),
            int(data["found_at_iteration"]),
            data["witness"],
        )


class StopReason(str, Enum):
    FIXED_POINT = "fixed_point"
    EMPTY = "empty"
    ORDER_CAP = "order_cap"
    ITER_CAP = "iter_cap"
    STEP_EXHAUSTED = "step_exhausted"
    CANON_EXHAUSTED = "canon_exhausted"
    CERTIFICATE = "certificate"


@dataclass(frozen=True)
class SequenceTrace:
    """The iterates, steps[k] the k-th, and why the iteration stopped."""

    steps: tuple[Graph, ...]
    stop_reason: StopReason


class Outcome(str, Enum):
    CONVERGED = "converged"
    TERMINATED = "terminated"
    DIVERGED_BY_ORDER = "diverged_by_order"
    UNKNOWN = "unknown"


@dataclass
class Classification:
    outcome: Outcome
    n: int
    steps_to_outcome: int | None  # N for converged/terminated
    limit: Graph | None
    certificate: Certificate | None
    # "order_cap" | "iter_cap" | "step_exhausted" | "canon_exhausted"
    unknown_reason: str | None
    trace: SequenceTrace
    budget_flags: tuple[str, ...] = field(default_factory=tuple)


# ---------------------------------------------------------------------------
# Certificate searches
# ---------------------------------------------------------------------------


def _tailed_cycles(
    g: Graph, counter: WorkCounter, max_cycle_len: int | None, tail_orders, min_order: int
):
    """Yield every tailed cycle whose cycle has m <= `max_cycle_len` vertices
    and whose tail has r vertices for some r in `tail_orders(m)`, as the
    witness payload {m, r, cycle, attach, tail}.  The caller promises that
    every such tailed cycle has m + r >= `min_order`: all its vertices lie
    in its anchor's component, so anchors in components of fewer vertices
    are skipped unsearched.

    Each cycle is found once, as a vertex sequence starting at its minimum
    vertex, oriented toward the smaller of that vertex's two cycle
    neighbors.  Its tails follow, attachment vertices in cycle order, each
    tail a path from an off-cycle neighbor of the attachment vertex that
    avoids the cycle, depth-first to the largest order asked for, so a tail
    comes before its extensions.  Tails of one order come in the same
    relative order whatever other orders are asked for.

    A cycle's tails depend only on its vertex set S, and every cycle on S
    is found from the anchor min(S).  Once a cycle on S yields nothing,
    the anchor's later cycles on S are skipped unsearched, since they
    would yield nothing too.  The skip leaves the yields unchanged, but
    the nodes spent depend on the orders asked, not only on the largest:
    S is skipped only when it has no tail of any of them.
    """
    comp_of = component_of(g)
    for a in range(g.order):
        if g.degree(a) < 2 or len(comp_of[a]) < min_order:
            continue
        barren: set[frozenset[int]] = set()
        for path in simple_paths(g, a, counter, range(a), max_cycle_len):
            if len(path) < 3 or path[1] > path[-1] or not g.has_edge(path[-1], a):
                continue
            on_cycle = frozenset(path)
            if on_cycle in barren:
                continue
            cycle = path.copy()
            m = len(cycle)
            orders = tail_orders(m)
            deepest = max(orders)
            found = False
            for v in cycle:
                for u in g.neighbors(v):
                    if u in on_cycle:
                        continue
                    for tail in simple_paths(g, u, counter, on_cycle, deepest):
                        if len(tail) in orders:
                            found = True
                            yield {
                                "m": m, "r": len(tail), "cycle": cycle, "attach": v,
                                "tail": tail.copy(),
                            }
            if not found:
                barren.add(on_cycle)


def check_long_cycle(
    g: Graph, n: int, counter: WorkCounter | None = None
) -> Certificate | None:
    """A component with a cycle of m >= n vertices that is not the m-cycle.

    An existence search: the witness is the first such cycle found, so `m`
    is not necessarily the circumference.  Components with fewer than n
    vertices, and cycle graphs, are skipped unsearched.  Otherwise each
    vertex a of degree >= 2, in increasing order, anchors the paths through
    the higher such vertices; a path of >= n vertices whose end is adjacent
    to a closes the cycle.  Anchoring stops once fewer than n of those
    vertices remain unblocked.
    """
    if counter is None:
        counter = WorkCounter()
    for comp in components(g):
        if len(comp) < n or all(g.degree(v) == 2 for v in comp):
            continue
        blocked = [v for v in comp if g.degree(v) < 2]
        anchors = sorted(v for v in comp if g.degree(v) >= 2)
        for i, a in enumerate(anchors):
            if len(anchors) - i < n:
                break
            for path in simple_paths(g, a, counter, blocked):
                if len(path) >= n and g.has_edge(path[-1], a):
                    return Certificate(
                        CertificateKind.LONG_CYCLE,
                        0,
                        {
                            "m": len(path),
                            "cycle": path.copy(),
                            "component": sorted(comp),
                        },
                    )
            blocked.append(a)
    return None


def check_long_tail(
    g: Graph, n: int, counter: WorkCounter | None = None,
    max_cycle_len: int | None = None,
) -> Certificate | None:
    """A tailed-cycle subgraph with m + r > n.

    An existence search: the witness is the first one found, with the
    shortest tail that suffices, r = max(n - m, 0) + 1, so m + r is
    max(m, n) + 1 and not necessarily the largest total.  Tails are
    searched only to that order, and only in components of more than n
    vertices.  `max_cycle_len` restricts the cycle search;
    `_tail_certificates` caps the classifier's walk at n - 1 because the
    long-cycle check has already disposed of every component holding a
    cycle of length >= n that is not the whole component.
    """
    if counter is None:
        counter = WorkCounter()
    for payload in _tailed_cycles(
        g, counter, max_cycle_len, lambda m: (max(n - m, 0) + 1,), n + 1
    ):
        return Certificate(CertificateKind.LONG_TAIL, 0, payload)
    return None


def check_spider(
    g: Graph, n: int, counter: WorkCounter | None = None
) -> Certificate | None:
    """A CL(k, k, n-k-1) subgraph rooted at a vertex of degree >= 3, for some
    k with n <= 2k and k + 1 < n.

    That subgraph has n + k vertices, all in its centre's component.  So k
    runs only up to c - n, where c is the order of the largest component,
    and a centre is tried for k only when its component has at least n + k
    vertices; the skipped pairs hold no witness.  k rises in the outer loop
    and centres in vertex order in the inner one.
    """
    if counter is None:
        counter = WorkCounter()
    comp_of = component_of(g)
    largest = max(map(len, comp_of), default=0)
    for k in range(max(2, (n + 1) // 2), min(n - 2, largest - n) + 1):
        d = n - k - 1
        for center in range(g.order):
            if g.degree(center) < 3 or len(comp_of[center]) < n + k:
                continue
            legs = _find_disjoint_legs(g, center, (k, k, d), counter)
            if legs is not None:
                return Certificate(
                    CertificateKind.SPIDER,
                    0,
                    {"k": k, "d": d, "center": center, "legs": legs},
                )
    return None


def _find_disjoint_legs(
    g: Graph, center: int, lengths: tuple[int, ...], counter: WorkCounter
) -> list[list[int]] | None:
    """Vertex-disjoint paths of the given orders, each starting at a distinct
    neighbor of `center` and avoiding it; full backtracking across legs."""
    used: set[int] = {center}
    chosen: list[list[int]] = []

    def place(i: int) -> bool:
        counter.spend()
        if i == len(lengths):
            return True
        for start in g.neighbors(center):
            if start in used:
                continue
            for path in simple_paths(g, start, counter, used, lengths[i]):
                if len(path) < lengths[i]:
                    continue
                used.update(path)
                chosen.append(path.copy())
                if place(i + 1):
                    return True
                used.difference_update(chosen.pop())
        return False

    if place(0):
        return chosen
    return None


class _TwinTails:
    """The twin-tail comparison: the first tailed cycle offered in each
    component, against which every later one in that component is matched
    by edge set.  The components are found at the first offer, so a walk
    that yields nothing pays for them once, in `_tailed_cycles`."""

    def __init__(self, g: Graph):
        self.g = g
        self.comp_of: list[frozenset[int]] | None = None
        self.first: dict[frozenset[int], tuple[frozenset, dict]] = {}

    def offer(self, payload: dict) -> Certificate | None:
        if self.comp_of is None:
            self.comp_of = component_of(self.g)
        edges = _tailed_cycle_edges(payload)
        first_edges, first = self.first.setdefault(
            self.comp_of[payload["attach"]], (edges, payload)
        )
        if first_edges == edges:
            return None
        return Certificate(CertificateKind.TWIN_TAIL, 0, {"first": first, "second": payload})


def check_twin_tail(
    g: Graph, n: int, counter: WorkCounter | None = None
) -> Certificate | None:
    """Two tailed-cycle subgraphs of total order exactly n, with different
    edge sets, inside the same component; components of fewer than n
    vertices are skipped unsearched."""
    if counter is None:
        counter = WorkCounter()
    twins = _TwinTails(g)
    for payload in _tailed_cycles(g, counter, n - 1, lambda m: (n - m,), n):
        cert = twins.offer(payload)
        if cert is not None:
            return cert
    return None


def _tail_certificates(
    g: Graph, n: int, counter: WorkCounter
) -> tuple[Certificate | None, Certificate | None]:
    """The classifier's long_tail and twin_tail answers from one walk.

    The walk is `check_long_tail`'s with cycles of at most n - 1 vertices:
    its first tail of n - m + 1 vertices is the long_tail certificate, the
    one that check returns.  It may cost more nodes, since the check skips
    every cycle vertex set without a tail of n - m + 1 vertices and the
    walk only those without one of n - m.  Every tail of n - m vertices is
    a prefix that walk yields first; until a twin is found, those go
    through `check_twin_tail`'s comparison in the same order, so its
    certificate is the one that check returns.  A twin found early does
    not end the walk, since a long tail takes precedence.

    Every tail the walk asks for has m + r >= n vertices, so it skips the
    anchors of components with fewer than n vertices, as both checks do:
    on K8 at n = 9 it spends no node.
    """
    twins = _TwinTails(g)
    twin = None
    for payload in _tailed_cycles(g, counter, n - 1, lambda m: (n - m, n - m + 1), n):
        if payload["m"] + payload["r"] > n:
            return Certificate(CertificateKind.LONG_TAIL, 0, payload), None
        if twin is None:
            twin = twins.offer(payload)
    return None, twin


_CHECKS = (
    ("long_cycle", check_long_cycle),
    ("long_tail", check_long_tail),
    ("spider", check_spider),
    ("twin_tail", check_twin_tail),
)


def run_certificate_checks(
    g: Graph, n: int, counter: WorkCounter, at_iteration: int
) -> tuple[Certificate | None, str | None]:
    """All four checks in fixed order; first certificate wins.

    The two tail checks share one tailed-cycle walk (`_tail_certificates`),
    run in long_tail's place; a twin_tail certificate it finds is returned
    only after the spider check misses.  Budget exhaustion inside a check
    is flagged, not fatal: it ends the checks with no certificate and that
    check's flag, and the classifier carries on.  The later checks are not
    run, since the spent counter would stop each at once.  An exhausted
    tail walk is flagged `long_tail_exhausted@k=..`; twin_tail spends
    nothing of its own.
    """
    twin = None
    for name, fn in _CHECKS:
        try:
            if name == "long_tail":
                cert, twin = _tail_certificates(g, n, counter)
            elif name == "twin_tail":
                cert = twin
            else:
                cert = fn(g, n, counter)
        except ResourceLimitError:
            return None, f"{name}_exhausted@k={at_iteration}"
        if cert is not None:
            cert.found_at_iteration = at_iteration
            return cert, None
    return None, None


# ---------------------------------------------------------------------------
# The classifier
# ---------------------------------------------------------------------------


def classify(g: Graph, n: int, budget: Budget = Budget()) -> Classification:
    """Decide the fate of the iterated sequence within the given budget.

    At iterate k, in order: the empty graph terminates (EMPTY, N = k); the
    certificate checks run, and a hit certifies divergence (CERTIFICATE),
    because a subgraph with an unbounded sequence forces the whole
    sequence to be unbounded; k = max_iter stops (ITER_CAP); the step is
    taken, and an iterate isomorphic to its predecessor converges
    (FIXED_POINT, N = k), one over max_order stops (ORDER_CAP).  All of
    it spends one counter; running it out in the step stops with
    STEP_EXHAUSTED, in the isomorphism test with CANON_EXHAUSTED, flagged
    `step_exhausted@k=..` or `isomorphism_exhausted@k=..`.  A stop with no
    decision is an honest Unknown rather than a guess, its stop reason
    the unknown reason.
    """
    if n < 4:
        raise ValueError(f"path order parameter must be >= 4, got {n}")
    counter = budget.counter()
    steps = [g]
    flags: list[str] = []

    def stop(
        reason: StopReason, outcome: Outcome = Outcome.UNKNOWN, steps_to: int | None = None,
        limit: Graph | None = None, cert: Certificate | None = None,
    ) -> Classification:
        unknown = reason.value if outcome is Outcome.UNKNOWN else None
        trace = SequenceTrace(tuple(steps), reason)
        return Classification(outcome, n, steps_to, limit, cert, unknown, trace, tuple(flags))

    cur = g
    for k in count():
        if cur.order == 0:
            return stop(StopReason.EMPTY, Outcome.TERMINATED, k)
        cert, flag = run_certificate_checks(cur, n, counter, k)
        if flag is not None:
            flags.append(flag)
        if cert is not None:
            return stop(StopReason.CERTIFICATE, Outcome.DIVERGED_BY_ORDER, cert=cert)
        if k == budget.max_iter:
            return stop(StopReason.ITER_CAP)
        try:
            nxt = hl_step(cur, n, counter)
        except ResourceLimitError:
            flags.append(f"step_exhausted@k={k}")
            return stop(StopReason.STEP_EXHAUSTED)
        steps.append(nxt)
        # an empty step is never isomorphic to cur, which is not empty, so
        # the loop reaches the EMPTY test above
        try:
            fixed = is_isomorphic(cur, nxt, counter=counter)
        except ResourceLimitError:
            flags.append(f"isomorphism_exhausted@k={k}")
            return stop(StopReason.CANON_EXHAUSTED)
        if fixed:
            return stop(StopReason.FIXED_POINT, Outcome.CONVERGED, k, cur)
        if nxt.order > budget.max_order:
            return stop(StopReason.ORDER_CAP)
        cur = nxt


# ---------------------------------------------------------------------------
# Independent certificate verification
# ---------------------------------------------------------------------------


def _iterate_to(g: Graph, n: int, k: int) -> Graph:
    cur = g
    for _ in range(k):
        cur = hl_step(cur, n)
    return cur


def _valid_cycle(g: Graph, cycle: list[int]) -> bool:
    if len(cycle) < 3 or len(set(cycle)) != len(cycle):
        return False
    return all(
        g.has_edge(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))
    )


def _valid_tailed_cycle(g: Graph, payload: dict) -> bool:
    cycle = payload["cycle"]
    tail = payload["tail"]
    attach = payload["attach"]
    if payload["m"] != len(cycle) or payload["r"] != len(tail):
        return False
    if not _valid_cycle(g, cycle):
        return False
    if len(tail) < 1 or attach not in cycle:
        return False
    all_vertices = list(cycle) + list(tail)
    if len(set(all_vertices)) != len(all_vertices):
        return False
    if not g.has_edge(attach, tail[0]):
        return False
    return all(g.has_edge(tail[i], tail[i + 1]) for i in range(len(tail) - 1))


def _tailed_cycle_edges(payload: dict) -> frozenset:
    cycle = payload["cycle"]
    tail = payload["tail"]
    m = len(cycle)
    edges = {norm_edge(cycle[i], cycle[(i + 1) % m]) for i in range(m)}
    edges.add(norm_edge(payload["attach"], tail[0]))
    edges.update(norm_edge(tail[i], tail[i + 1]) for i in range(len(tail) - 1))
    return frozenset(edges)


def verify_certificate(g: Graph, n: int, cert: Certificate) -> bool:
    """Re-check a certificate from its witness alone.

    The iterate it points to is recomputed deterministically; the witnessed
    structure is then validated edge by edge.  No searching happens here.
    """
    try:
        h = _iterate_to(g, n, cert.found_at_iteration)
        w = cert.witness
        if cert.kind is CertificateKind.LONG_CYCLE:
            cycle = w["cycle"]
            if not _valid_cycle(h, cycle) or len(cycle) != w["m"] or w["m"] < n:
                return False
            comp = frozenset(w["component"])
            if comp not in components(h) or not set(cycle) <= comp:
                return False
            sub, _ = induced_subgraph(h, comp)
            return not is_cycle_graph(sub)
        if cert.kind is CertificateKind.LONG_TAIL:
            return _valid_tailed_cycle(h, w) and w["m"] + w["r"] > n
        if cert.kind is CertificateKind.SPIDER:
            k, d, center, legs = w["k"], w["d"], w["center"], w["legs"]
            if d != n - k - 1 or n > 2 * k or k + 1 >= n:
                return False
            if [len(leg) for leg in legs] != [k, k, d]:
                return False
            all_vertices = [center] + [v for leg in legs for v in leg]
            if len(set(all_vertices)) != len(all_vertices):
                return False
            for leg in legs:
                if not h.has_edge(center, leg[0]):
                    return False
                if not all(h.has_edge(leg[i], leg[i + 1]) for i in range(len(leg) - 1)):
                    return False
            return True
        if cert.kind is CertificateKind.TWIN_TAIL:
            first, second = w["first"], w["second"]
            for payload in (first, second):
                if not _valid_tailed_cycle(h, payload):
                    return False
                if payload["m"] + payload["r"] != n:
                    return False
            if _tailed_cycle_edges(first) == _tailed_cycle_edges(second):
                return False
            for comp in components(h):
                if set(first["cycle"]) <= comp:
                    return set(second["cycle"]) <= comp
            return False
        return False
    except (KeyError, TypeError, IndexError, ValueError):
        return False
