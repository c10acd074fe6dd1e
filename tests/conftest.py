"""Shared brute-force oracles and small-graph fixtures.

The oracles here are deliberately naive (whole permutation scans, whole
subset scans) so they stay independent of the search strategies they check.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, permutations, product

import pytest

from hline import cli, minimality
from hline.acceptance import _iter_simple_paths_of_order
from hline.budget import WorkCounter
from hline.classify import Outcome
from hline.graph import Edge, Graph, canonical_code, norm_edge


def brute_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Try every vertex bijection; no pruning beyond the definition."""
    if g1.order != g2.order:
        return False
    e1 = set(g1.edges())
    e2 = set(g2.edges())
    if len(e1) != len(e2):
        return False
    for perm in permutations(range(g1.order)):
        if all(norm_edge(perm[u], perm[v]) in e2 for u, v in e1):
            return True
    return False


def brute_canonical_code(g: Graph) -> bytes:
    """canonical_code by its definition, with no pruning: refine colours
    from the degrees until they stop changing, each round ranking the
    sorted (colour, sorted neighbour colours) pairs, then take the greatest
    lower-triangle bit string over every vertex order that lists the
    colour classes in colour order and each class in any order."""
    n = g.order
    edges = set(g.edges())
    colors = [g.degree(v) for v in range(n)]
    while True:
        sigs = [(colors[v], tuple(sorted(colors[u] for u in g.neighbors(v)))) for v in range(n)]
        ranks = sorted(set(sigs))
        refined = [ranks.index(s) for s in sigs]
        if refined == colors:
            break
        colors = refined
    classes = [[v for v in range(n) if colors[v] == c] for c in sorted(set(colors))]
    best = None
    for parts in product(*(permutations(cls) for cls in classes)):
        order = [v for part in parts for v in part]
        bits = [norm_edge(order[i], order[j]) in edges for i in range(n) for j in range(i)]
        if best is None or bits > best:
            best = bits
    acc = 0
    for bit in best:
        acc = acc << 1 | bit
    pad = -len(best) % 8
    return n.to_bytes(4, "big") + (acc << pad).to_bytes((len(best) + pad) // 8, "big")


def naive_pn_adjacent(g: Graph, e: Edge, f: Edge, n: int) -> bool:
    """Whole-path enumeration oracle: whether some n-vertex path of g
    holds both edges e and f."""
    e = norm_edge(*e)
    f = norm_edge(*f)
    for path in _iter_simple_paths_of_order(g, n):
        path_edges = {norm_edge(path[i], path[i + 1]) for i in range(len(path) - 1)}
        if e in path_edges and f in path_edges:
            return True
    return False


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """g1 beside g2, whose vertex v becomes g1.order + v."""
    shift = g1.order
    edges = list(g1.edges()) + [(u + shift, v + shift) for u, v in g2.edges()]
    return Graph(g1.order + g2.order, edges)


def brute_cycle_lengths(g: Graph) -> list[int]:
    """All cycle lengths, via Hamiltonian-cycle scans over vertex subsets."""
    lengths = set()
    vertices = range(g.order)
    for size in range(3, g.order + 1):
        for subset in combinations(vertices, size):
            if size in lengths:
                continue
            first = subset[0]
            rest = subset[1:]
            for perm in permutations(rest):
                ring = (first, *perm)
                if all(
                    g.has_edge(ring[i], ring[(i + 1) % size]) for i in range(size)
                ):
                    lengths.add(size)
                    break
    return sorted(lengths)


def brute_tailed_cycle_totals(g: Graph) -> dict[int, int]:
    """For each cycle length m that carries a pendant path of r >= 1
    vertices off the cycle, the largest m + r, via permutation scans of the
    cycle and of the tail."""
    totals: dict[int, int] = {}
    for size in range(3, g.order):
        for subset in combinations(range(g.order), size):
            if not any(
                all(g.has_edge(ring[i], ring[(i + 1) % size]) for i in range(size))
                for ring in ((subset[0], *perm) for perm in permutations(subset[1:]))
            ):
                continue
            outside = [v for v in range(g.order) if v not in subset]
            for r in range(1, len(outside) + 1):
                for tail in permutations(outside, r):
                    if any(g.has_edge(c, tail[0]) for c in subset) and all(
                        g.has_edge(tail[i], tail[i + 1]) for i in range(r - 1)
                    ):
                        totals[size] = max(totals.get(size, 0), size + r)
    return totals


def brute_tailed_cycle_edge_sets(g: Graph, n: int) -> set[frozenset]:
    """The edge sets of every tailed cycle of total order n in g: an m-cycle
    with m < n and a pendant path of n - m vertices off it, via permutation
    scans of the cycle and of the tail."""
    found: set[frozenset] = set()
    for size in range(3, n):
        r = n - size
        for subset in combinations(range(g.order), size):
            outside = [v for v in range(g.order) if v not in subset]
            for ring in ((subset[0], *perm) for perm in permutations(subset[1:])):
                ring_edges = [norm_edge(ring[i], ring[(i + 1) % size]) for i in range(size)]
                if not all(g.has_edge(*e) for e in ring_edges):
                    continue
                for tail in permutations(outside, r):
                    tail_edges = [norm_edge(tail[i], tail[i + 1]) for i in range(r - 1)]
                    if not all(g.has_edge(*e) for e in tail_edges):
                        continue
                    for c in subset:
                        if g.has_edge(c, tail[0]):
                            found.add(frozenset([*ring_edges, *tail_edges, norm_edge(c, tail[0])]))
    return found


def nx_spider_parameters(g: Graph, n: int) -> list[int]:
    """Every k with n <= 2k and k + 1 < n for which CL(k, k, n-k-1) is a
    subgraph of g (not necessarily induced), by networkx's VF2
    monomorphism test.  A spider with more vertices than g is not tried:
    a monomorphism is injective, and VF2 takes long to say no."""
    nx = pytest.importorskip("networkx")
    host = nx.Graph()
    host.add_nodes_from(range(g.order))
    host.add_edges_from(g.edges())
    found = []
    for k in range(2, n - 1):
        if n > 2 * k or n + k > g.order:
            continue
        spider = nx.Graph()
        for leg, length in enumerate((k, k, n - k - 1)):
            nx.add_path(spider, ["centre", *((leg, i) for i in range(length))])
        if nx.algorithms.isomorphism.GraphMatcher(host, spider).subgraph_is_monomorphic():
            found.append(k)
    return found


def brute_circumference(g: Graph) -> int:
    lengths = brute_cycle_lengths(g)
    return lengths[-1] if lengths else 0


def brute_girth(g: Graph) -> int:
    lengths = brute_cycle_lengths(g)
    return lengths[0] if lengths else 0


def all_labeled_graphs(order: int):
    """Every labeled simple graph on the given number of vertices."""
    slots = list(combinations(range(order), 2))
    for bits in range(1 << len(slots)):
        yield Graph(order, [e for i, e in enumerate(slots) if bits >> i & 1])


@pytest.fixture(scope="session")
def graph_classes_up_to_6():
    """One representative per isomorphism class, order 0..6, keyed by code."""
    from hline.graph import canonical_code

    classes: dict[bytes, Graph] = {}
    for order in range(7):
        for g in all_labeled_graphs(order):
            code = canonical_code(g)
            if code not in classes:
                classes[code] = g
    return classes


def naive_connected_graphs(v_max: int, e_max: int | None = None) -> list[Graph]:
    """One representative per isomorphism class of connected graphs with at
    most v_max vertices and e_max edges, by extend-and-reject: every parent
    joined to a new vertex by every nonempty anchor subset, the first child
    per canonical code kept.  Ordered by order, then code."""
    if e_max is None:
        e_max = v_max * (v_max - 1) // 2
    level = [Graph(1)] if v_max >= 1 else []
    out = list(level)
    for v in range(2, v_max + 1):
        children: dict[bytes, Graph] = {}
        for parent in level:
            for k in range(1, min(e_max - parent.size, v - 1) + 1):
                for subset in combinations(range(v - 1), k):
                    child = Graph(v, list(parent.edges()) + [(a, v - 1) for a in subset])
                    children.setdefault(canonical_code(child), child)
        level = [children[code] for code in sorted(children)]
        out.extend(level)
    return out


def by_order_and_code(graphs) -> list[Graph]:
    """The graphs sorted by order, then canonical code: the order in which
    sweeps report, and in which the representative pins were taken."""
    return sorted(graphs, key=lambda g: (g.order, canonical_code(g)))


def two_component_unions(v_max: int) -> list[Graph]:
    """One representative per isomorphism class of disjoint unions of two
    connected graphs of order >= 2 and combined order at most v_max,
    ordered by order, then code.  Sweeps leave unions out (see the
    minimality module docstring); these check that they may."""
    connected = by_order_and_code(minimality.enumerate_connected_graphs(v_max - 2))
    parts = [g for g in connected if g.order >= 2]
    unions: dict[bytes, Graph] = {}
    for a, b in combinations_with_replacement(parts, 2):
        if a.order + b.order <= v_max:
            u = disjoint_union(a, b)
            unions.setdefault(canonical_code(u), u)
    return sorted(unions.values(), key=lambda u: (u.order, canonical_code(u)))


def naive_proper_subgraphs(g: Graph):
    """One representative per isomorphism class of proper subgraph, from a
    scan of every nonempty set of deleted edges, isolated vertices stripped;
    includes the empty graph, never g itself.  Larger subgraphs come first."""
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


def naive_minimality(g: Graph, clf) -> tuple[str, str | None]:
    """(status, blocker code hex) of the minimality decision by the
    definition: g converges and no proper subgraph class converges.  A
    convergent proper subgraph decides `no` whatever g's own outcome."""
    top = clf.summary(g).outcome
    if top not in (Outcome.CONVERGED, Outcome.UNKNOWN):
        return "no", None
    saw_unknown = top is Outcome.UNKNOWN
    for sub in naive_proper_subgraphs(g):
        outcome = clf.summary(sub).outcome
        if outcome is Outcome.CONVERGED:
            return "no", canonical_code(sub).hex()
        saw_unknown |= outcome is Outcome.UNKNOWN
    return ("unknown" if saw_unknown else "yes"), None


def naive_minimal_classes(g: Graph, clf) -> set[bytes]:
    """Codes of the minimal classes among g and all its subgraph classes."""
    return {
        canonical_code(c)
        for c in [g, *naive_proper_subgraphs(g)]
        if c.order and naive_minimality(c, clf)[0] == "yes"
    }


class SystemErrorCounter(WorkCounter):
    """A work counter that runs out with the SystemError CPython can raise
    when memory runs out deep in a recursion, not ResourceLimitError."""

    def spend(self, amount: int = 1) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise SystemError("error return without exception set")


@pytest.fixture
def non_refuting_harness(monkeypatch):
    """Register the conjecture id `convergent-classes`, whose non-refuting
    predicate returns every convergent class as a candidate; returns the id."""

    def predicate(g: Graph, clf, stats: dict):
        stats["swept"] += 1
        if clf.summary(g).outcome is not Outcome.CONVERGED:
            return None
        stats["converged"] += 1
        replay = minimality.classify(g, clf.n, clf.budget).outcome
        return minimality.ConjectureCandidate(
            "convergent class",
            {"graph": {"order": g.order, "edges": [list(e) for e in g.edges()]}},
            {},
            replay is Outcome.CONVERGED,
        )

    name = "convergent-classes"
    ids = (*minimality.CONJECTURE_IDS, name)
    stats = ("swept", "converged", "unknown")
    harness = minimality._Harness(predicate, stats, refuting=False)
    monkeypatch.setitem(minimality._HARNESSES, name, harness)
    monkeypatch.setattr(minimality, "CONJECTURE_IDS", ids)
    monkeypatch.setattr(cli, "CONJECTURE_IDS", ids)
    return name
