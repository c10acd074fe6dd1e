import random
from itertools import combinations

import pytest

from hline.acceptance import _iter_simple_paths_of_order
from hline.budget import WorkCounter, ResourceLimitError
from hline.families import make_cycle, make_path, make_spider, make_tailed_cycle
from hline.graph import Graph, components, is_isomorphic, norm_edge
from hline.minimality import enumerate_connected_graphs
from hline.operator import (
    StopReason,
    edge_in_pn,
    hl_iterate,
    hl_step,
    pn_adjacent,
)

from conftest import naive_pn_adjacent


class TestPnAdjacent:
    def test_cycle_edges_share_full_path(self):
        assert pn_adjacent(make_cycle(5), (0, 1), (1, 2), 5)

    def test_star_edges_never_adjacent(self):
        star = make_spider(1, 1, 1)
        for e, f in combinations(star.edges(), 2):
            assert not pn_adjacent(star, e, f, 4)

    def test_spider_center_edges_adjacent(self):
        g = make_spider(3, 3, 2)
        assert naive_pn_adjacent(g, (0, 1), (0, 4), 6)
        assert pn_adjacent(g, (0, 1), (0, 4), 6)

    def test_disjoint_edges_not_adjacent(self):
        assert not pn_adjacent(make_cycle(6), (0, 1), (3, 4), 6)

    def test_invalid_edge_rejected(self):
        with pytest.raises(ValueError):
            pn_adjacent(make_cycle(4), (0, 2), (0, 1), 4)

    def test_equal_edges_rejected(self):
        with pytest.raises(ValueError):
            pn_adjacent(make_cycle(4), (0, 1), (1, 0), 4)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            pn_adjacent(make_cycle(4), (0, 1), (1, 2), 3)

    def test_adjacency_implies_one_shared_endpoint(self):
        for g in enumerate_connected_graphs(6):
            for n in (4, 5):
                for e, f in combinations(g.edges(), 2):
                    if pn_adjacent(g, e, f, n):
                        assert len(set(e) & set(f)) == 1

    def test_matches_naive_oracle_up_to_order_6(self):
        for g in enumerate_connected_graphs(6):
            for n in (4, 5, 6):
                for e, f in combinations(g.edges(), 2):
                    if len(set(e) & set(f)) != 1:
                        continue
                    assert pn_adjacent(g, e, f, n) == naive_pn_adjacent(g, e, f, n)


class TestEdgeInPn:
    def test_every_cycle_edge(self):
        for m in (4, 5, 6):
            g = make_cycle(m)
            assert all(edge_in_pn(g, e, m) for e in g.edges())

    def test_star_edge_not_on_long_path(self):
        assert not edge_in_pn(make_spider(1, 1, 1), (0, 1), 4)

    def test_outer_tail_edge(self):
        assert edge_in_pn(make_tailed_cycle(2, 4), (4, 5), 6)

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
                for e in g.edges():
                    assert edge_in_pn(g, e, n) == (e in on_paths)


class TestHlStep:
    def test_square_is_fixed(self):
        h = hl_step(make_cycle(4), 4)
        assert is_isomorphic(h.graph, make_cycle(4))

    def test_star_becomes_isolated_vertices(self):
        h = hl_step(make_spider(1, 1, 1), 4)
        assert h.graph.order == 3 and h.graph.size == 0

    def test_spider_image_shape(self):
        h = hl_step(make_spider(3, 3, 2), 6)
        expected = Graph(
            8, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (1, 5), (5, 6), (2, 7)]
        )
        assert is_isomorphic(h.graph, expected)

    def test_empty_and_edgeless_inputs(self):
        assert hl_step(Graph(0), 4).graph == Graph(0)
        assert hl_step(Graph(3), 5).graph == Graph(0)

    def test_vertex_count_equals_edge_count(self):
        for g in enumerate_connected_graphs(6):
            h = hl_step(g, 4)
            assert h.graph.order == g.size
            assert len(h.provenance) == g.size
            assert len(set(h.provenance)) == g.size
            assert set(h.provenance) == set(g.edges())

    def test_adjacency_implies_shared_provenance_endpoint(self):
        for g in enumerate_connected_graphs(5):
            for n in (4, 5):
                h = hl_step(g, n)
                for i, j in h.graph.edges():
                    assert len(set(h.provenance[i]) & set(h.provenance[j])) == 1

    def test_single_nontrivial_component(self):
        for g in enumerate_connected_graphs(6):
            for n in (4, 5, 6):
                h = hl_step(g, n).graph
                nontrivial = sum(
                    1
                    for comp in components(h)
                    if any(e[0] in comp for e in h.edges())
                )
                assert nontrivial <= 1


class TestHlIterate:
    def test_limit_cycle_converges_immediately(self):
        trace = hl_iterate(make_cycle(5), 5, 30, 512)
        assert trace.stop_reason is StopReason.FIXED_POINT
        assert trace.steps[0].order == 5 and len(trace.steps) == 2

    def test_tailed_triangle_reaches_square(self):
        trace = hl_iterate(make_tailed_cycle(1, 3), 4, 30, 512)
        assert trace.stop_reason is StopReason.FIXED_POINT
        assert is_isomorphic(trace.steps[1].graph, make_cycle(4))

    def test_path_terminates(self):
        trace = hl_iterate(make_path(4), 4, 30, 512)
        assert trace.stop_reason is StopReason.EMPTY
        assert [s.order for s in trace.steps] == [4, 3, 2, 0]

    def test_empty_input_terminates_at_step_zero(self):
        trace = hl_iterate(Graph(0), 4, 30, 512)
        assert trace.stop_reason is StopReason.EMPTY
        assert len(trace.steps) == 1

    def test_consecutive_steps_related_by_one_application(self):
        trace = hl_iterate(make_tailed_cycle(2, 4), 6, 30, 512)
        for prev, cur in zip(trace.steps, trace.steps[1:]):
            assert hl_step(prev.graph, 6).graph == cur.graph

    def test_iteration_cap(self):
        trace = hl_iterate(make_tailed_cycle(3, 3), 6, 1, 512)
        assert trace.stop_reason is StopReason.ITER_CAP
        assert len(trace.steps) == 2

    def test_order_cap(self):
        trace = hl_iterate(Graph(6, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5)]), 4, 30, 8)
        assert trace.stop_reason is StopReason.ORDER_CAP

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            hl_iterate(make_cycle(4), 4, 0, 512)
        with pytest.raises(ValueError):
            hl_iterate(make_cycle(4), 4, 5, 3)


def test_search_budget_is_enforced():
    g = make_cycle(12)
    with pytest.raises(ResourceLimitError):
        hl_step(g, 12, WorkCounter(5))


def test_iterate_stops_with_order_cap_when_a_step_exhausts_its_budget():
    trace = hl_iterate(make_cycle(12), 12, 30, 512, WorkCounter(5))
    assert trace.stop_reason is StopReason.ORDER_CAP
    assert len(trace.steps) == 1
