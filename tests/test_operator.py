import random
from itertools import combinations

import pytest

from hline.acceptance import _iter_simple_paths_of_order, _oracle_adjacent_pairs
from hline.budget import Budget, WorkCounter, ResourceLimitError
from hline.classify import StopReason, classify
from hline.families import make_cycle, make_path, make_spider, make_tailed_cycle
from hline.graph import Graph, components, is_isomorphic, norm_edge
from hline.minimality import enumerate_connected_graphs
from hline.operator import hl_step

from conftest import naive_connected_graphs, naive_pn_adjacent


def on_full_paths(g: Graph, n: int) -> list:
    """The edges of g whose vertex in the step has an edge: those on some
    n-vertex path, since such a path has at least two edges."""
    h = hl_step(g, n)
    return [e for i, e in enumerate(g.edges()) if h.degree(i) > 0]


def adjacent(g: Graph, e, f, n: int) -> bool:
    """Whether the step joins the vertices of edges e and f."""
    edges = g.edges()
    return hl_step(g, n).has_edge(edges.index(e), edges.index(f))


class TestPnAdjacent:
    # two edges are P_n-adjacent when the step joins their vertices
    def test_cycle_edges_share_full_path(self):
        assert adjacent(make_cycle(5), (0, 1), (1, 2), 5)

    def test_star_edges_never_adjacent(self):
        star = make_spider(1, 1, 1)
        for e, f in combinations(star.edges(), 2):
            assert not adjacent(star, e, f, 4)

    def test_spider_center_edges_adjacent(self):
        g = make_spider(3, 3, 2)
        assert ((0, 1), (0, 4)) in _oracle_adjacent_pairs(g, 6)
        assert adjacent(g, (0, 1), (0, 4), 6)

    def test_disjoint_edges_not_adjacent(self):
        assert not adjacent(make_cycle(6), (0, 1), (3, 4), 6)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            hl_step(make_cycle(4), 3)

    def test_adjacency_implies_one_shared_endpoint(self):
        for g in enumerate_connected_graphs(6):
            edges = g.edges()
            for n in (4, 5):
                for i, j in hl_step(g, n).edges():
                    assert len(set(edges[i]) & set(edges[j])) == 1

    def test_matches_naive_oracle_up_to_order_6(self):
        for g in enumerate_connected_graphs(6):
            edges = g.edges()
            for n in (4, 5, 6):
                h = hl_step(g, n)
                for i, j in combinations(range(len(edges)), 2):
                    e, f = edges[i], edges[j]
                    if len(set(e) & set(f)) == 1:
                        assert h.has_edge(i, j) == naive_pn_adjacent(g, e, f, n)

    def test_matches_naive_oracle_on_random_graphs_of_order_7_and_8(self):
        # only here, at n >= 6, do the split searches have total >= 3
        rng = random.Random(78)
        for _ in range(20):
            order = rng.randint(7, 8)
            g = Graph(order, [e for e in combinations(range(order), 2) if rng.random() < 0.4])
            edges = g.edges()
            for n in (6, 7, 8):
                h = hl_step(g, n)
                for i, j in combinations(range(len(edges)), 2):
                    e, f = edges[i], edges[j]
                    if len(set(e) & set(f)) == 1:
                        assert h.has_edge(i, j) == naive_pn_adjacent(g, e, f, n)
                assert on_full_paths(g, n) == [
                    e for e in edges
                    if any(naive_pn_adjacent(g, e, f, n) for f in edges if f != e)
                ]


class TestEdgeInPn:
    # an edge lies on an n-vertex path exactly when its vertex in the step
    # has degree > 0
    def test_every_cycle_edge(self):
        for m in (4, 5, 6):
            g = make_cycle(m)
            assert on_full_paths(g, m) == list(g.edges())

    def test_star_edge_not_on_long_path(self):
        assert (0, 1) not in on_full_paths(make_spider(1, 1, 1), 4)

    def test_outer_tail_edge(self):
        assert (4, 5) in on_full_paths(make_tailed_cycle(2, 4), 6)

    def test_agrees_with_path_enumeration(self):
        rng = random.Random(31)
        for _ in range(30):
            order = rng.randint(4, 7)
            edges = [e for e in combinations(range(order), 2) if rng.random() < 0.4]
            g = Graph(order, edges)
            for n in (4, 5):
                on_paths = set()
                for path in _iter_simple_paths_of_order(g, n):
                    for i in range(len(path) - 1):
                        on_paths.add(norm_edge(path[i], path[i + 1]))
                assert on_full_paths(g, n) == [e for e in g.edges() if e in on_paths]


class TestHlStep:
    def test_square_is_fixed(self):
        h = hl_step(make_cycle(4), 4)
        assert is_isomorphic(h, make_cycle(4))

    def test_star_becomes_isolated_vertices(self):
        h = hl_step(make_spider(1, 1, 1), 4)
        assert h.order == 3 and h.size == 0

    def test_spider_image_shape(self):
        h = hl_step(make_spider(3, 3, 2), 6)
        expected = Graph(
            8, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (1, 5), (5, 6), (2, 7)]
        )
        assert is_isomorphic(h, expected)

    def test_empty_and_edgeless_inputs(self):
        assert hl_step(Graph(0), 4) == Graph(0)
        assert hl_step(Graph(3), 5) == Graph(0)

    def test_vertex_count_equals_edge_count(self):
        for g in enumerate_connected_graphs(6):
            h = hl_step(g, 4)
            assert h.order == g.size
            assert len(g.edges()) == g.size
            assert len(set(g.edges())) == g.size

    def test_adjacency_implies_shared_provenance_endpoint(self):
        for g in enumerate_connected_graphs(5):
            for n in (4, 5):
                edges = g.edges()
                for i, j in hl_step(g, n).edges():
                    assert len(set(edges[i]) & set(edges[j])) == 1

    def test_single_nontrivial_component(self):
        for g in enumerate_connected_graphs(6):
            for n in (4, 5, 6):
                h = hl_step(g, n)
                nontrivial = sum(
                    1
                    for comp in components(h)
                    if any(e[0] in comp for e in h.edges())
                )
                assert nontrivial <= 1


    def test_matches_the_whole_path_oracle_on_every_pair(self):
        # one step shares its split-search answers over all its pairs; the
        # oracle enumerates whole paths once per graph.  K7, K8 and K8 - e
        # at n = 9 fail every search
        cases = [(g, n) for n in range(4, 8) for g in naive_connected_graphs(6)]
        complete = [(u, v) for u in range(8) for v in range(u + 1, 8)]
        k7 = Graph(7, [e for e in complete if e[1] < 7])
        for g in (k7, Graph(8, complete), Graph(8, complete[1:])):
            cases += [(g, 8), (g, 9)]
        rng = random.Random(23)
        for _ in range(20):
            order = rng.randint(8, 9)
            p = rng.uniform(0.4, 0.7)
            g = Graph(order, [e for e in combinations(range(order), 2) if rng.random() < p])
            cases += [(g, n) for n in range(6, 11)]
        adjacent = 0
        for g, n in cases:
            edges = g.edges()
            derived = {
                tuple(sorted((edges[i], edges[j]))) for i, j in hl_step(g, n).edges()
            }
            assert derived == _oracle_adjacent_pairs(g, n)
            adjacent += len(derived)
        assert adjacent > 0

    def test_search_cost_is_pinned(self):
        # one split-search pass per pair, whose start2 answers one step
        # shares; a memo of failures per pair spent 815,478, and the loop
        # over every split a + b that enumerated the shorter left paths
        # again spent 1,070,434
        graphs = list(enumerate_connected_graphs(7))
        assert len(graphs) == 996
        spent = 0
        for n in range(4, 8):
            for g in graphs:
                counter = WorkCounter()
                hl_step(g, n, counter)
                spent += WorkCounter().remaining - counter.remaining
        assert spent == 675_281


class TestHlIterate:
    """The sequence of iterates, as the classifier records it."""

    def test_limit_cycle_converges_immediately(self):
        trace = classify(make_cycle(5), 5).trace
        assert trace.stop_reason is StopReason.FIXED_POINT
        assert trace.steps[0].order == 5 and len(trace.steps) == 2

    def test_tailed_triangle_reaches_square(self):
        trace = classify(make_tailed_cycle(1, 3), 4).trace
        assert trace.stop_reason is StopReason.FIXED_POINT
        assert is_isomorphic(trace.steps[1], make_cycle(4))

    def test_path_terminates(self):
        trace = classify(make_path(4), 4).trace
        assert trace.stop_reason is StopReason.EMPTY
        assert [h.order for h in trace.steps] == [4, 3, 2, 0]

    def test_empty_input_terminates_at_step_zero(self):
        trace = classify(Graph(0), 4).trace
        assert trace.stop_reason is StopReason.EMPTY
        assert len(trace.steps) == 1

    def test_consecutive_steps_related_by_one_application(self):
        trace = classify(make_tailed_cycle(2, 4), 6).trace
        assert len(trace.steps) > 2
        for prev, cur in zip(trace.steps, trace.steps[1:]):
            assert hl_step(prev, 6) == cur

    def test_iteration_cap(self):
        trace = classify(make_tailed_cycle(3, 3), 6, Budget(max_iter=1)).trace
        assert trace.stop_reason is StopReason.ITER_CAP
        assert len(trace.steps) == 2

    def test_order_cap(self):
        # K4 holds no certificate at n = 5, and its image has order 6
        trace = classify(Graph(4, combinations(range(4), 2)), 5, Budget(max_order=4)).trace
        assert trace.stop_reason is StopReason.ORDER_CAP
        assert [h.order for h in trace.steps] == [4, 6]


def test_search_budget_is_enforced():
    g = make_cycle(12)
    with pytest.raises(ResourceLimitError):
        hl_step(g, 12, WorkCounter(5))


def test_iterate_stops_with_step_exhausted_when_a_step_exhausts_its_budget():
    trace = classify(make_cycle(12), 12, Budget(search_nodes=5)).trace
    assert trace.stop_reason is StopReason.STEP_EXHAUSTED
    assert len(trace.steps) == 1
