"""The iterated path-line operator.

Two edges that share a vertex become adjacent in the derived graph exactly
when some simple path on n vertices contains both.  Because the shared
vertex forces the two edges to sit consecutively on any such path, the test
reduces to finding two vertex-disjoint extensions, one leaving each free
endpoint, whose orders sum to the remaining vertex count.  That split search
is exact and far cheaper than whole-path enumeration, which the acceptance
criteria and the tests keep as the reference.

The module also holds the one iteration loop: `hl_iterate` and the
classifier both run it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

from .budget import ResourceLimitError, WorkCounter
from .graph import Edge, Graph, components, is_isomorphic, norm_edge


def _check_edge(g: Graph, e: Edge) -> Edge:
    e = norm_edge(*e)
    if not g.has_edge(*e):
        raise ValueError(f"edge {e} not in graph")
    return e


def _two_disjoint_extensions(
    g: Graph, start1: int, start2: int, base: frozenset[int],
    total: int, counter: WorkCounter,
) -> bool:
    """Do vertex-disjoint simple extensions from start1 and start2 exist,
    avoiding `base`, with orders (vertex counts) summing to `total`?

    Tries every split a + b = total; the second-side search memoizes failed
    blocked-vertex sets so distinct first-side paths covering the same
    vertices are not re-explored.
    """
    for a in range(total + 1):
        b = total - a
        failed_right: set[frozenset[int]] = set()
        used: set[int] = set()

        def right(cur: int, remaining: int) -> bool:
            counter.spend()
            if remaining == 0:
                return True
            for x in g.neighbors(cur):
                if x in base or x in used:
                    continue
                used.add(x)
                if right(x, remaining - 1):
                    used.discard(x)
                    return True
                used.discard(x)
            return False

        def left(cur: int, remaining: int) -> bool:
            counter.spend()
            if remaining == 0:
                key = frozenset(used)
                if key in failed_right:
                    return False
                if right(start2, b):
                    return True
                failed_right.add(key)
                return False
            for x in g.neighbors(cur):
                if x in base or x in used:
                    continue
                used.add(x)
                if left(x, remaining - 1):
                    used.discard(x)
                    return True
                used.discard(x)
            return False

        if left(start1, a):
            return True
    return False


def _adjacent_through_path(
    g: Graph, u: int, v: int, w: int, n: int, counter: WorkCounter
) -> bool:
    """Path-adjacency for edges (u,v) and (v,w) anchored at shared vertex v."""
    return _two_disjoint_extensions(g, u, w, frozenset((u, v, w)), n - 3, counter)


def pn_adjacent(
    g: Graph, e: Edge, f: Edge, n: int, counter: WorkCounter | None = None
) -> bool:
    """True iff e and f share an endpoint and lie on a common simple path
    with exactly n vertices."""
    if n < 4:
        raise ValueError(f"path order parameter must be >= 4, got {n}")
    e = _check_edge(g, e)
    f = _check_edge(g, f)
    if e == f:
        raise ValueError("edges must be distinct")
    shared = set(e) & set(f)
    if len(shared) != 1:
        return False
    v = shared.pop()
    u = e[0] if e[1] == v else e[1]
    w = f[0] if f[1] == v else f[1]
    if counter is None:
        counter = WorkCounter()
    return _adjacent_through_path(g, u, v, w, n, counter)


def edge_in_pn(
    g: Graph, e: Edge, n: int, counter: WorkCounter | None = None
) -> bool:
    """True iff some simple path on exactly n vertices contains edge e."""
    if n < 4:
        raise ValueError(f"path order parameter must be >= 4, got {n}")
    u, v = _check_edge(g, e)
    if counter is None:
        counter = WorkCounter()
    return _two_disjoint_extensions(g, u, v, frozenset((u, v)), n - 2, counter)


# ---------------------------------------------------------------------------
# One derived-graph step, with provenance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HLGraph:
    """A derived graph whose vertices remember which predecessor edge they are.

    provenance[i] is the edge of the predecessor graph that vertex i of
    `graph` represents; it is a bijection onto the predecessor's edge set.
    """

    graph: Graph
    provenance: tuple[Edge, ...]


def hl_step(g: Graph, n: int, counter: WorkCounter | None = None) -> HLGraph:
    """One application of the operator: vertices are the edges of g, joined
    when path-adjacent.  Edges lying on no n-vertex path become isolated
    vertices; they disappear at the next step.
    """
    if n < 4:
        raise ValueError(f"path order parameter must be >= 4, got {n}")
    if counter is None:
        counter = WorkCounter()
    edges = g.edges()
    index = {e: i for i, e in enumerate(edges)}
    derived: list[tuple[int, int]] = []
    for v in range(g.order):
        nbrs = g.neighbors(v)
        for ai in range(len(nbrs)):
            for bi in range(ai + 1, len(nbrs)):
                u, w = nbrs[ai], nbrs[bi]
                if _adjacent_through_path(g, u, v, w, n, counter):
                    derived.append((index[norm_edge(u, v)], index[norm_edge(v, w)]))
    return HLGraph(Graph(len(edges), derived), edges)


# ---------------------------------------------------------------------------
# Bounded iteration
# ---------------------------------------------------------------------------


class StopReason(str, Enum):
    FIXED_POINT = "fixed_point"
    EMPTY = "empty"
    ORDER_CAP = "order_cap"
    ITER_CAP = "iter_cap"
    # only produced by the classifier, whose per-iterate checks cut it short
    CERTIFICATE = "certificate"


@dataclass(frozen=True)
class TraceStep:
    k: int
    graph: Graph
    order: int
    size: int
    component_count: int


@dataclass(frozen=True)
class SequenceTrace:
    n: int
    steps: tuple[TraceStep, ...]
    stop_reason: StopReason


def _trace_step(k: int, g: Graph) -> TraceStep:
    return TraceStep(k, g, g.order, g.size, len(components(g)))


def hl_iterate(
    g: Graph, n: int, max_iter: int, max_order: int,
    counter: WorkCounter | None = None,
) -> SequenceTrace:
    """Iterate the operator, recording every intermediate graph.

    Stops at the first of: the empty graph (EMPTY), isomorphic consecutive
    iterates (FIXED_POINT), an iterate larger than max_order (ORDER_CAP), or
    max_iter applications (ITER_CAP).  A step or an isomorphism test that
    exhausts `counter` (or the canonicalization order cap) also stops with
    ORDER_CAP: the iterate grew past what the configured effort can handle.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if max_order < g.order:
        raise ValueError("max_order must be at least the input order")
    if counter is None:
        counter = WorkCounter()
    return _iterate(g, n, max_iter, max_order, counter, [])


def _iterate(
    g: Graph, n: int, max_iter: int, max_order: int, counter: WorkCounter,
    flags: list[str], visit: Callable[[int, Graph], bool] | None = None,
) -> SequenceTrace:
    """The iteration loop.  At iterate k, in order: stop on the empty graph
    (EMPTY); stop with CERTIFICATE when `visit(k, iterate)` is true; stop
    after max_iter steps (ITER_CAP); step, then stop on a fixed point or an
    iterate over max_order.  Budget exhaustion in the step or in the
    isomorphism test stops with ORDER_CAP and appends `step_exhausted@k=..`
    or `isomorphism_exhausted@k=..` to `flags`.
    """
    steps = [_trace_step(0, g)]

    def stop(reason: StopReason) -> SequenceTrace:
        return SequenceTrace(n, tuple(steps), reason)

    cur = g
    k = 0
    while True:
        if cur.order == 0:
            return stop(StopReason.EMPTY)
        if visit is not None and visit(k, cur):
            return stop(StopReason.CERTIFICATE)
        if k == max_iter:
            return stop(StopReason.ITER_CAP)
        try:
            nxt = hl_step(cur, n, counter).graph
        except ResourceLimitError:
            flags.append(f"step_exhausted@k={k}")
            return stop(StopReason.ORDER_CAP)
        steps.append(_trace_step(k + 1, nxt))
        # an empty step is never isomorphic to cur, which is not empty, so
        # the loop reaches the EMPTY test above
        try:
            fixed = is_isomorphic(cur, nxt, counter=counter)
        except ResourceLimitError:
            flags.append(f"isomorphism_exhausted@k={k}")
            return stop(StopReason.ORDER_CAP)
        if fixed:
            return stop(StopReason.FIXED_POINT)
        if nxt.order > max_order:
            return stop(StopReason.ORDER_CAP)
        cur = nxt
        k += 1
