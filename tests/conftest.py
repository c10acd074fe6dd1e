"""Shared brute-force oracles and small-graph fixtures.

The oracles here are deliberately naive (whole permutation scans, whole
subset scans) so they stay independent of the search strategies they check.
"""

from __future__ import annotations

from itertools import combinations, permutations

import pytest

from hline.acceptance import _iter_simple_paths_of_order
from hline.graph import Edge, Graph, norm_edge


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


def naive_pn_adjacent(g: Graph, e: Edge, f: Edge, n: int) -> bool:
    """Whole-path enumeration oracle for pn_adjacent."""
    e = norm_edge(*e)
    f = norm_edge(*f)
    for path in _iter_simple_paths_of_order(g, n):
        path_edges = {norm_edge(path[i], path[i + 1]) for i in range(len(path) - 1)}
        if e in path_edges and f in path_edges:
            return True
    return False


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
