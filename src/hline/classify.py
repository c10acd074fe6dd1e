"""Divergence certificates and the sequence classifier.

A certificate is a machine-checkable witness that the iterated operator
cannot converge: once any iterate contains a subgraph whose own sequence
grows without bound, so does the whole sequence.  Four certified shapes are
searched, in a fixed order, on every iterate before the next step:

* long_cycle: a component with a cycle of length >= n that is not itself
  that cycle.
* long_tail:  a tailed-cycle subgraph (m-cycle plus pendant path of order r)
  with m + r > n.
* spider:     a CL(k, k, n-k-1) subgraph with n <= 2k and k + 1 < n.
* twin_tail:  two tailed-cycle subgraphs of total order exactly n, with
  different edge sets, inside one component.

Certificates re-verify from their stored witnesses alone: the verifier
recomputes the iterate deterministically and checks the witnessed structure,
never re-running the search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .budget import Budget, ResourceLimitError, WorkCounter
from .graph import (
    Graph,
    components,
    induced_subgraph,
    is_cycle_graph,
    longest_cycle,
    norm_edge,
)
from .operator import SequenceTrace, StopReason, _iterate, hl_step


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
    unknown_reason: str | None  # "order_cap" | "iter_cap"
    trace: SequenceTrace
    budget_flags: tuple[str, ...] = field(default_factory=tuple)


# ---------------------------------------------------------------------------
# Shared search helpers
# ---------------------------------------------------------------------------


def _iter_cycles(g: Graph, counter: WorkCounter, max_len: int | None = None):
    """Yield every cycle once, as a vertex sequence starting at its minimum
    vertex, oriented toward the smaller of that vertex's two cycle neighbors.
    """
    path: list[int] = []
    used: set[int] = set()

    def dfs(anchor: int):
        counter.spend()
        cur = path[-1]
        for x in g.neighbors(cur):
            if x == anchor:
                if len(path) >= 3 and path[1] < path[-1]:
                    yield path.copy()
            elif x > anchor and x not in used:
                if max_len is not None and len(path) >= max_len:
                    continue
                used.add(x)
                path.append(x)
                yield from dfs(anchor)
                path.pop()
                used.remove(x)

    for a in range(g.order):
        if g.degree(a) < 2:
            continue
        path = [a]
        used = {a}
        yield from dfs(a)


def _longest_path_from(
    g: Graph, start: int, blocked: set[int], counter: WorkCounter
) -> list[int]:
    """Longest simple path starting at `start`, never entering `blocked`."""
    best: list[int] = [start]
    path = [start]
    used = {start}

    def dfs():
        nonlocal best
        counter.spend()
        if len(path) > len(best):
            best = path.copy()
        for x in g.neighbors(path[-1]):
            if x in blocked or x in used:
                continue
            used.add(x)
            path.append(x)
            dfs()
            path.pop()
            used.remove(x)

    dfs()
    return best


def _iter_paths_of_order(
    g: Graph, start: int, order: int, blocked: set[int], counter: WorkCounter
):
    """Yield every simple path of exactly `order` vertices from `start`."""
    path = [start]
    used = {start}

    def dfs():
        counter.spend()
        if len(path) == order:
            yield path.copy()
            return
        for x in g.neighbors(path[-1]):
            if x in blocked or x in used:
                continue
            used.add(x)
            path.append(x)
            yield from dfs()
            path.pop()
            used.remove(x)

    yield from dfs()


# ---------------------------------------------------------------------------
# Certificate searches
# ---------------------------------------------------------------------------


def check_long_cycle(
    g: Graph, n: int, counter: WorkCounter | None = None
) -> Certificate | None:
    """A component whose circumference m >= n and which is not the m-cycle."""
    if counter is None:
        counter = WorkCounter()
    for comp in components(g):
        sub, old_ids = induced_subgraph(g, comp)
        cycle = longest_cycle(sub, counter)
        if cycle is None:
            continue
        m = len(cycle)
        if m >= n and not is_cycle_graph(sub):
            return Certificate(
                CertificateKind.LONG_CYCLE,
                0,
                {
                    "m": m,
                    "cycle": [old_ids[v] for v in cycle],
                    "component": sorted(comp),
                },
            )
    return None


def check_long_tail(
    g: Graph, n: int, counter: WorkCounter | None = None,
    max_cycle_len: int | None = None,
) -> Certificate | None:
    """A tailed-cycle subgraph with m + r > n, maximizing m + r.

    `max_cycle_len` restricts the cycle search; the classifier passes n - 1
    because the long-cycle check has already disposed of every component
    holding a cycle of length >= n that is not the whole component.
    """
    if counter is None:
        counter = WorkCounter()
    best: Certificate | None = None
    best_total = n
    for cycle in _iter_cycles(g, counter, max_cycle_len):
        m = len(cycle)
        on_cycle = set(cycle)
        for v in cycle:
            blocked = on_cycle - {v}
            tail_path = _longest_path_from(g, v, blocked, counter)
            r = len(tail_path) - 1
            if r >= 1 and m + r > best_total:
                best_total = m + r
                best = Certificate(
                    CertificateKind.LONG_TAIL,
                    0,
                    {
                        "m": m,
                        "r": r,
                        "cycle": cycle,
                        "attach": v,
                        "tail": tail_path[1:],
                    },
                )
    return best


def _spider_parameter_range(n: int) -> list[int]:
    return [k for k in range(2, n - 1) if n <= 2 * k]


def check_spider(
    g: Graph, n: int, counter: WorkCounter | None = None
) -> Certificate | None:
    """A CL(k, k, n-k-1) subgraph rooted at a vertex of degree >= 3, for some
    k with n <= 2k and k + 1 < n."""
    if counter is None:
        counter = WorkCounter()
    for k in _spider_parameter_range(n):
        d = n - k - 1
        for center in range(g.order):
            if g.degree(center) < 3:
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
            for path in _iter_paths_of_order(g, start, lengths[i], used, counter):
                used.update(path)
                chosen.append(path)
                if place(i + 1):
                    return True
                chosen.pop()
                used.difference_update(path)
        return False

    if place(0):
        return chosen
    return None


def check_twin_tail(
    g: Graph, n: int, counter: WorkCounter | None = None
) -> Certificate | None:
    """Two tailed-cycle subgraphs of total order exactly n, with different
    edge sets, inside the same component."""
    if counter is None:
        counter = WorkCounter()
    comp_of: dict[int, int] = {}
    for i, comp in enumerate(components(g)):
        for v in comp:
            comp_of[v] = i
    seen: dict[int, tuple[frozenset, dict]] = {}
    for cycle in _iter_cycles(g, counter, n - 1):
        m = len(cycle)
        r = n - m
        if r < 1:
            continue
        on_cycle = set(cycle)
        cycle_edges = frozenset(
            norm_edge(cycle[i], cycle[(i + 1) % m]) for i in range(m)
        )
        for v in cycle:
            for u in g.neighbors(v):
                if u in on_cycle:
                    continue
                for tail in _iter_paths_of_order(g, u, r, on_cycle, counter):
                    edges = cycle_edges | {norm_edge(v, u)} | {
                        norm_edge(tail[i], tail[i + 1]) for i in range(r - 1)
                    }
                    payload = {
                        "m": m,
                        "r": r,
                        "cycle": cycle,
                        "attach": v,
                        "tail": tail,
                    }
                    cid = comp_of[v]
                    if cid in seen:
                        prev_edges, prev_payload = seen[cid]
                        if prev_edges != edges:
                            return Certificate(
                                CertificateKind.TWIN_TAIL,
                                0,
                                {"first": prev_payload, "second": payload},
                            )
                    else:
                        seen[cid] = (edges, payload)
    return None


_CHECKS = (
    ("long_cycle", check_long_cycle),
    ("long_tail", check_long_tail),
    ("spider", check_spider),
    ("twin_tail", check_twin_tail),
)


def run_certificate_checks(
    g: Graph, n: int, counter: WorkCounter, at_iteration: int
) -> tuple[Certificate | None, list[str]]:
    """All four checks in fixed order; first certificate wins.

    Budget exhaustion inside a check is flagged, not fatal: the check simply
    reports no certificate and the classifier carries on.
    """
    flags: list[str] = []
    for name, fn in _CHECKS:
        try:
            if fn is check_long_tail:
                cert = fn(g, n, counter, max_cycle_len=n - 1)
            else:
                cert = fn(g, n, counter)
        except ResourceLimitError:
            flags.append(f"{name}_exhausted@k={at_iteration}")
            continue
        if cert is not None:
            cert.found_at_iteration = at_iteration
            return cert, flags
    return None, flags


# ---------------------------------------------------------------------------
# The classifier
# ---------------------------------------------------------------------------


def classify(g: Graph, n: int, budget: Budget = Budget()) -> Classification:
    """Decide the fate of the iterated sequence within the given budget.

    Certificate checks run on each iterate before the next step; a hit
    certifies divergence of the input, because a subgraph with an unbounded
    sequence forces the whole sequence to be unbounded.  Precedence at a
    step: termination beats the trivial empty-graph fixed point; caps yield
    an honest Unknown rather than a guess.
    """
    if n < 4:
        raise ValueError(f"path order parameter must be >= 4, got {n}")
    counter = budget.counter()
    flags: list[str] = []
    found: list[Certificate] = []

    def certify(k: int, h: Graph) -> bool:
        cert, new_flags = run_certificate_checks(h, n, counter, k)
        flags.extend(new_flags)
        if cert is not None:
            found.append(cert)
        return cert is not None

    trace = _iterate(g, n, budget.max_iter, budget.max_order, counter, flags, certify)
    reason = trace.stop_reason
    last = trace.steps[-1].k
    if reason is StopReason.EMPTY:
        return Classification(
            Outcome.TERMINATED, n, last, None, None, None, trace, tuple(flags)
        )
    if reason is StopReason.FIXED_POINT:
        return Classification(
            Outcome.CONVERGED, n, last - 1, trace.steps[-2].graph, None, None,
            trace, tuple(flags),
        )
    if reason is StopReason.CERTIFICATE:
        return Classification(
            Outcome.DIVERGED_BY_ORDER, n, None, None, found[0], None, trace,
            tuple(flags),
        )
    return Classification(
        Outcome.UNKNOWN, n, None, None, None, reason.value, trace, tuple(flags)
    )


# ---------------------------------------------------------------------------
# Independent certificate verification
# ---------------------------------------------------------------------------


def _iterate_to(g: Graph, n: int, k: int) -> Graph:
    cur = g
    for _ in range(k):
        cur = hl_step(cur, n).graph
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
