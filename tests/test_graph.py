import hashlib
import pickle
import random
import tracemalloc
from itertools import combinations

import pytest

from hline.acceptance import _iter_simple_paths_of_order
from hline.budget import ResourceLimitError, WorkCounter
from hline.families import (
    make_chorded_cycle,
    make_cycle,
    make_path,
    make_spider,
    make_tailed_cycle,
)
from hline.graph import (
    Graph,
    canonical_code,
    circumference,
    component_of,
    components,
    girth,
    induced_subgraph,
    is_connected,
    is_cycle_graph,
    is_isomorphic,
    longest_cycle,
    norm_edge,
    simple_paths,
    unique_cycle,
)
from hline.minimality import enumerate_connected_graphs
from hline.operator import hl_step

from conftest import (
    SystemErrorCounter,
    brute_canonical_code,
    brute_circumference,
    brute_girth,
    brute_isomorphic,
    by_order_and_code,
    disjoint_union,
    naive_connected_graphs,
)


def relabeled(g: Graph, perm) -> Graph:
    """Apply a permutation (old id -> new id) to vertex labels."""
    return Graph(g.order, [(perm[u], perm[v]) for u, v in g.edges()])


def without_isolated(g: Graph) -> Graph:
    """Drop isolated vertices and compact ids, preserving numeric order."""
    touched = sorted({v for e in g.edges() for v in e})
    sub, _ = induced_subgraph(g, touched)
    return sub


def random_graph(rng: random.Random, max_order: int = 8, p: float = 0.4) -> Graph:
    n = rng.randint(0, max_order)
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def matching(k: int) -> Graph:
    """k disjoint edges, k*K2."""
    return Graph(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])


def circulant(n: int, jumps) -> Graph:
    return Graph(n, {norm_edge(i, (i + j) % n) for i in range(n) for j in jumps})


PETERSEN = Graph(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)],
)


def complete_multipartite(*parts: int) -> Graph:
    blocks, start = [], 0
    for size in parts:
        blocks.append(range(start, start + size))
        start += size
    return Graph(start, [(u, v) for a, b in combinations(blocks, 2) for u in a for v in b])


def with_pendant_pairs(g: Graph, anchors) -> Graph:
    """g with two new leaves hung on each anchor vertex."""
    edges = list(g.edges())
    n = g.order
    for a in anchors:
        edges += [(a, n), (a, n + 1)]
        n += 2
    return Graph(n, edges)


# graphs of order 7-8 whose colour classes are mostly twins
TWIN_RICH = {
    "K1,6": complete_multipartite(1, 6),
    "K1,7": complete_multipartite(1, 7),
    "K3,3": complete_multipartite(3, 3),
    "K2,5": complete_multipartite(2, 5),
    "K2,2,2": complete_multipartite(2, 2, 2),
    "C4 with pairs at opposite vertices": with_pendant_pairs(make_cycle(4), (0, 2)),
    "C4 with pairs at adjacent vertices": with_pendant_pairs(make_cycle(4), (0, 1)),
    "triangle with pairs at two vertices": with_pendant_pairs(make_cycle(3), (0, 1)),
}


def shuffled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.order))
    rng.shuffle(perm)
    return relabeled(g, perm)


def switched(g: Graph) -> Graph:
    """g with its first switchable edge pair ab, cd replaced by ad, cb: the
    degree sequence stays, the class usually changes."""
    edges = set(g.edges())
    for (a, b), (c, d) in combinations(sorted(edges), 2):
        if len({a, b, c, d}) < 4:
            continue
        new = {norm_edge(a, d), norm_edge(c, b)}
        if not new & edges:
            return Graph(g.order, (edges - {(a, b), (c, d)}) | new)
    raise ValueError("no switchable edge pair")


class TestGraphValue:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    @pytest.mark.parametrize("edge", [(-1, 2), (2, -1)])
    def test_rejects_negative_endpoints(self, edge):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [edge])

    def test_self_loop_message_names_the_vertex(self):
        with pytest.raises(ValueError, match="self-loop at vertex 1"):
            Graph(3, [(1, 1)])

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.size == 1

    def test_empty_graph_is_valid(self):
        g = Graph(0)
        assert g.order == 0 and g.size == 0

    def test_adjacency_is_symmetric_and_loop_free(self):
        rng = random.Random(11)
        for _ in range(50):
            g = random_graph(rng)
            for v in range(g.order):
                assert v not in g.neighbors(v)
                for w in g.neighbors(v):
                    assert v in g.neighbors(w)

    def test_value_semantics(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(1, 2), (0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != Graph(3, [(0, 1)])


class TestCanonicalCode:
    def test_relabeled_cycle_has_identical_code(self):
        c4 = make_cycle(4)
        for perm in ([1, 2, 3, 0], [3, 1, 0, 2], [2, 0, 3, 1]):
            assert canonical_code(c4) == canonical_code(relabeled(c4, perm))

    def test_cycle_vs_star_codes_differ(self):
        assert canonical_code(make_cycle(4)) != canonical_code(make_spider(1, 1, 1))

    def test_empty_graphs_share_code(self):
        assert canonical_code(Graph(0)) == canonical_code(Graph(0))

    def test_code_is_permutation_invariant_on_random_graphs(self):
        rng = random.Random(20240)
        for _ in range(1000):
            g = random_graph(rng)
            perm = list(range(g.order))
            rng.shuffle(perm)
            assert canonical_code(g) == canonical_code(relabeled(g, perm))

    def test_code_format_is_pinned(self):
        # SHA-256 over the codes of the 996 connected classes of order <= 7,
        # by order, then code; any change to the code bytes breaks it
        digest = hashlib.sha256()
        for g in by_order_and_code(enumerate_connected_graphs(7)):
            digest.update(canonical_code(g))
        assert digest.hexdigest() == (
            "e76de4efbba65a5c4bb489cc52bf9c2b62d1949b3f322142151d93d62e0b70c3"
        )

    def test_code_is_the_unpruned_maximum_on_small_classes(self):
        for g in naive_connected_graphs(6):
            assert canonical_code(Graph(g.order, g.edges())) == brute_canonical_code(g)

    @pytest.mark.parametrize("name", TWIN_RICH)
    def test_code_is_the_unpruned_maximum_on_twin_rich_graphs(self, name):
        g = TWIN_RICH[name]
        for h in (g, shuffled(g, random.Random(name))):
            assert canonical_code(h) == brute_canonical_code(h)

    def test_labeling_cost_is_pinned(self):
        # nodes spent by a fresh labeling of each connected class of order
        # <= 7; the search's budget behaviour rests on this count (15,390
        # before twin pruning)
        total = 0
        for g in enumerate_connected_graphs(7):
            fresh = Graph(g.order, g.edges())
            canonical_code(fresh)
            total += fresh._code_nodes
        assert total == 10_294

    def test_code_bytes_beyond_order_7_are_pinned(self):
        rng = random.Random(814)
        graphs = [make_cycle(m) for m in range(8, 31)] + [make_path(m) for m in range(8, 31)]
        graphs += [PETERSEN, matching(7)]
        for _ in range(50):
            n = rng.randint(8, 14)
            p = rng.choice((0.2, 0.35, 0.5))
            graphs.append(Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
        digest = hashlib.sha256()
        nodes = 0
        for g in graphs:
            digest.update(canonical_code(g))
            nodes += g._code_nodes
        assert digest.hexdigest() == (
            "ea29e4cf1bff562bedf14f851d95572efc7a5786b9b5fb728bef07f1641b588e"
        )
        assert nodes == 2_978  # 3,276 before twin pruning

    @pytest.mark.parametrize("k", [7, 8])
    def test_perfect_matchings_label_under_the_default_counter(self, k):
        g = matching(k)
        assert canonical_code(g) == canonical_code(shuffled(g, random.Random(k)))

    def test_automorphisms_prune_the_matching_search(self):
        # raises ResourceLimitError past 1,000 nodes
        canonical_code(matching(6), counter=WorkCounter(1_000))

    def test_second_call_charges_the_stored_code_its_cost(self):
        g = Graph(PETERSEN.order, PETERSEN.edges())  # a fresh, uncoded object
        counter = WorkCounter(10_000)
        first = canonical_code(g, counter=counter)
        cost = 10_000 - counter.remaining
        assert cost > 0 and g._code_nodes == cost
        # returned without a new search, at the recorded cost
        counter = WorkCounter(cost)
        assert canonical_code(g, counter=counter) is first
        assert counter.remaining == 0
        with pytest.raises(ResourceLimitError):
            canonical_code(g, counter=WorkCounter(cost - 1))
        assert canonical_code(g) is first

    def test_exhausted_search_stores_nothing(self):
        g = make_cycle(12)
        with pytest.raises(ResourceLimitError):
            canonical_code(g, counter=WorkCounter(3))
        with pytest.raises(ResourceLimitError):
            canonical_code(g, counter=WorkCounter(3))
        assert canonical_code(g) == canonical_code(make_cycle(12))

    def test_stored_automorphisms_preserve_edges(self):
        rng = random.Random(7)
        found = 0
        for g in [PETERSEN, matching(5), make_cycle(9), circulant(12, (1, 5))] + [
            random_graph(rng) for _ in range(200)
        ]:
            g = shuffled(g, rng)
            canonical_code(g)
            edges = set(g.edges())
            for gamma in g._automorphisms:
                assert sorted(gamma) == list(range(g.order))
                assert {norm_edge(gamma[u], gamma[v]) for u, v in edges} == edges
            found += len(g._automorphisms)
        assert found

    def test_canonical_order_relabels_onto_the_code_rows(self):
        # the vertex at position p goes to p; the result's lower triangle,
        # row by row and MSB-first, is the code after its 4 order bytes
        rng = random.Random(11)
        graphs = [PETERSEN, matching(4), make_cycle(7), circulant(12, (1, 5))]
        for g in graphs + [random_graph(rng) for _ in range(200)]:
            g = shuffled(g, rng)
            code = canonical_code(g)
            assert sorted(g._canonical_order) == list(range(g.order))
            pos = {v: p for p, v in enumerate(g._canonical_order)}
            h = relabeled(g, pos)
            bits = "".join(
                "1" if h.has_edge(i, j) else "0"
                for i in range(h.order)
                for j in range(i)
            )
            rows = bytes(
                int(bits[k:k + 8].ljust(8, "0"), 2) for k in range(0, len(bits), 8)
            )
            assert code == g.order.to_bytes(4, "big") + rows

    def test_pickled_copy_keeps_the_stored_code(self):
        g = Graph(PETERSEN.order, PETERSEN.edges())
        code = canonical_code(g)
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and copy._code == code
        assert copy._code_nodes == g._code_nodes > 0
        counter = WorkCounter(g._code_nodes)
        assert canonical_code(copy, counter=counter) == code
        assert counter.remaining == 0
        unlabeled = pickle.loads(pickle.dumps(make_cycle(5)))
        assert unlabeled._code is None

    def test_agrees_with_networkx_on_structured_graphs(self):
        nx = pytest.importorskip("networkx")
        f7_iterate = make_chorded_cycle(7)
        for _ in range(4):
            f7_iterate = hl_step(f7_iterate, 6)  # order 66
        families = (
            [make_cycle(m) for m in (8, 12, 16, 20, 24)]
            + [matching(k) for k in (4, 6, 8, 10, 12)]
            + [disjoint_union(make_cycle(6), make_cycle(6)), make_cycle(12)]
            + [circulant(12, (1, 5)), circulant(12, (1, 2)), circulant(12, (1, 3))]
            + [circulant(24, (1, 5)), circulant(24, (1, 7)), circulant(24, (1, 11))]
            + [circulant(13, (1, 5)), circulant(13, (1, 2)), circulant(10, (1, 3))]
            + [make_tailed_cycle(r, m) for r, m in ((2, 8), (3, 7), (5, 5), (4, 6))]
            + [make_tailed_cycle(12, 12), PETERSEN]
            # above order 24, where labeling once stopped
            + [make_cycle(25), make_tailed_cycle(1, 24), make_cycle(400)]
            + [make_cycle(40), disjoint_union(make_cycle(20), make_cycle(20))]
            + [matching(13), disjoint_union(matching(11), Graph(4, [(0, 1), (1, 2)]))]
            + [circulant(30, (1, 15))]  # 3-regular on 30 vertices, as is 3 * PETERSEN
            + [disjoint_union(PETERSEN, disjoint_union(PETERSEN, PETERSEN))]
            + [circulant(30, (1, 7)), circulant(30, (1, 11)), circulant(30, (1, 13))]
            + [f7_iterate, switched(f7_iterate)]
        )
        rng = random.Random(2024)
        copies = [shuffled(g, rng) for g in families for _ in range(2)]

        def to_nx(g: Graph):
            h = nx.Graph()
            h.add_nodes_from(range(g.order))
            h.add_edges_from(g.edges())
            return h

        for a, b in combinations(copies, 2):
            if a.order == b.order and a.size == b.size:
                same = canonical_code(a) == canonical_code(b)
                assert same == nx.is_isomorphic(to_nx(a), to_nx(b))

    def test_labeling_memory_is_linear_in_the_order(self):
        # each level of the search keeps only the candidates of its top
        # row; keeping the sorted candidates of its whole cell peaked at
        # about 5.4 MB
        g = make_cycle(400)
        tracemalloc.start()
        try:
            canonical_code(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_system_error_in_the_search_is_out_of_memory(self):
        # memory running out deep in the recursion can surface as a
        # SystemError, which the command line would print as a traceback
        with pytest.raises(MemoryError):
            canonical_code(make_cycle(1000), counter=SystemErrorCounter(600))


class TestIsomorphism:
    def test_reversed_path(self):
        p4 = make_path(4)
        assert is_isomorphic(p4, relabeled(p4, [3, 2, 1, 0]))

    def test_different_orders(self):
        assert not is_isomorphic(disjoint_union(make_cycle(3), Graph(1)), make_cycle(3))

    def test_chorded_square_is_near_complete(self):
        k4_minus_edge = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert brute_isomorphic(make_chorded_cycle(4), k4_minus_edge)
        assert is_isomorphic(make_chorded_cycle(4), k4_minus_edge)

    def test_agrees_with_brute_force_up_to_order_6(self, graph_classes_up_to_6):
        rng = random.Random(5)
        by_bucket: dict[tuple, list[Graph]] = {}
        for g in graph_classes_up_to_6.values():
            degseq = tuple(sorted(g.degree(v) for v in range(g.order)))
            by_bucket.setdefault((g.order, g.size, degseq), []).append(g)
        # distinct classes that share all cheap invariants: both routes say no
        for bucket in by_bucket.values():
            for a, b in combinations(bucket, 2):
                assert not brute_isomorphic(a, b)
                assert not is_isomorphic(a, b)
        # each class against a shuffled copy of itself: both routes say yes
        for g in graph_classes_up_to_6.values():
            perm = list(range(g.order))
            rng.shuffle(perm)
            h = relabeled(g, perm)
            assert brute_isomorphic(g, h)
            assert is_isomorphic(g, h)
        # across buckets nothing can match; spot-check the implementation
        flat = list(graph_classes_up_to_6.values())
        for _ in range(300):
            a, b = rng.choice(flat), rng.choice(flat)
            if canonical_code(a) != canonical_code(b):
                assert not is_isomorphic(a, b)


class TestComponents:
    def test_triangle_plus_isolated(self):
        g = disjoint_union(make_cycle(3), Graph(1))
        sizes = [len(c) for c in components(g)]
        assert sizes == [3, 1]

    def test_connected_graph_single_component(self):
        assert len(components(make_tailed_cycle(2, 4))) == 1

    def test_empty_graph_has_no_components(self):
        assert components(Graph(0)) == []

    def test_components_partition_vertices(self):
        rng = random.Random(77)
        for _ in range(50):
            g = random_graph(rng)
            comps = components(g)
            seen = sorted(v for c in comps for v in c)
            assert seen == list(range(g.order))
            assert [min(c) for c in comps] == sorted(min(c) for c in comps)

    def test_component_of_maps_each_vertex_to_its_component(self):
        rng = random.Random(78)
        for _ in range(50):
            g = random_graph(rng)
            comp_of = component_of(g)
            assert len(comp_of) == g.order
            for comp in components(g):
                assert comp_of[min(comp)] == comp
                assert all(comp_of[v] is comp_of[min(comp)] for v in comp)
        assert component_of(Graph(0)) == []


class TestCycleStatistics:
    def test_cycle_circumference(self):
        assert circumference(make_cycle(6)) == 6

    def test_forest_circumference_is_zero(self):
        assert circumference(make_path(5)) == 0
        assert circumference(make_spider(2, 3, 1)) == 0

    def test_chorded_hexagon(self):
        f6 = make_chorded_cycle(6)
        assert brute_circumference(f6) == 6
        assert circumference(f6) == 6
        assert brute_girth(f6) == 3
        assert girth(f6) == 3

    def test_girth_examples(self):
        assert girth(make_cycle(5)) == 5
        assert girth(make_spider(1, 1, 1)) == 0

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(13)
        for _ in range(40):
            g = random_graph(rng, max_order=7)
            assert circumference(g) == brute_circumference(g)
            assert girth(g) == brute_girth(g)

    def test_acyclic_sentinels_agree(self):
        rng = random.Random(14)
        for _ in range(60):
            g = random_graph(rng, max_order=7)
            assert (circumference(g) == 0) == (girth(g) == 0)
            if girth(g) > 0:
                assert girth(g) <= circumference(g)

    # nodes spent by the branch-and-bound longest-cycle search, which went on
    # after a cycle through every vertex open to its anchor; stopping there
    # may only make the search cheaper
    BRANCH_AND_BOUND_NODES = {"connected_to_6": 1557, "K7": 22, "circulant": 25}

    def test_longest_cycle_spends_no_more_than_branch_and_bound(self):
        counter = WorkCounter()
        for g in naive_connected_graphs(6):
            assert circumference(g, counter) == brute_circumference(g)
        spent = {"connected_to_6": WorkCounter().remaining - counter.remaining}
        k7 = Graph(7, combinations(range(7), 2))
        for name, g in [("K7", k7), ("circulant", circulant(12, (1, 5)))]:
            counter = WorkCounter()
            assert len(longest_cycle(g, counter)) == g.order
            spent[name] = WorkCounter().remaining - counter.remaining
        for name, before in self.BRANCH_AND_BOUND_NODES.items():
            assert spent[name] <= before, name
        assert spent["K7"] == 7  # one path per vertex of the Hamiltonian cycle

    def test_longest_cycle_is_a_real_cycle(self):
        rng = random.Random(15)
        for _ in range(40):
            g = random_graph(rng, max_order=7)
            cycle = longest_cycle(g)
            if cycle is None:
                continue
            assert len(set(cycle)) == len(cycle) >= 3
            for i in range(len(cycle)):
                assert g.has_edge(cycle[i], cycle[(i + 1) % len(cycle)])


class TestSimplePaths:
    def test_agrees_with_the_path_oracle_up_to_order_6(self):
        for g in naive_connected_graphs(6):
            counter = WorkCounter()
            found = [
                path.copy()
                for start in range(g.order)
                for path in simple_paths(g, start, counter)
            ]
            for n in range(2, 7):
                ours = {
                    tuple(p) for p in found if len(p) == n and p[0] < p[-1]
                }
                oracle = {tuple(p) for p in _iter_simple_paths_of_order(g, n)}
                assert ours == oracle, (g, n)

    def test_depth_first_in_increasing_order(self):
        # a prefix sorts before its extensions and siblings by their new
        # vertex, so depth-first order is lexicographic order
        for g in [PETERSEN, make_chorded_cycle(6), make_spider(2, 2, 1)]:
            for start in range(g.order):
                paths = [p.copy() for p in simple_paths(g, start, WorkCounter())]
                assert paths[0] == [start]
                assert paths == sorted(paths)
                assert len({tuple(p) for p in paths}) == len(paths)

    @pytest.mark.parametrize(
        "blocked, max_order", [((), None), ({3, 7}, None), ((), 4), ({0, 9}, 3)]
    )
    def test_one_unit_per_path(self, blocked, max_order):
        counter = WorkCounter(10_000)
        paths = [
            p.copy() for p in simple_paths(PETERSEN, 5, counter, blocked, max_order)
        ]
        assert 10_000 - counter.remaining == len(paths) > 1
        assert all(not set(p[1:]) & set(blocked) for p in paths)
        if max_order is not None:
            assert max(len(p) for p in paths) == max_order

    def test_exhaustion_stops_at_the_path_that_overspends(self):
        counter = WorkCounter(5)
        paths = simple_paths(make_cycle(12), 0, counter)
        assert [len(next(paths)) for _ in range(5)] == [1, 2, 3, 4, 5]
        with pytest.raises(ResourceLimitError):
            next(paths)


class TestCycleGraphPredicate:
    def test_examples(self):
        assert is_cycle_graph(make_cycle(7))
        assert not is_cycle_graph(make_chorded_cycle(5))
        assert not is_cycle_graph(make_path(3))

    def test_implies_equal_statistics(self):
        for m in range(3, 9):
            g = make_cycle(m)
            assert circumference(g) == girth(g) == g.order


class TestUniqueCycle:
    def test_tailed_cycle(self):
        assert unique_cycle(make_tailed_cycle(2, 4)) == [0, 1, 2, 3]

    def test_plain_cycle(self):
        assert unique_cycle(make_cycle(5)) == [0, 1, 2, 3, 4]

    def test_acyclic_absent(self):
        assert unique_cycle(make_spider(1, 1, 1)) is None

    def test_present_iff_connected_unicyclic(self, graph_classes_up_to_6):
        for g in graph_classes_up_to_6.values():
            expected = g.order > 0 and g.size == g.order and is_connected(g)
            assert (unique_cycle(g) is not None) == expected

    def test_orientation_deterministic(self):
        g = relabeled(make_tailed_cycle(1, 5), [2, 4, 5, 3, 0, 1])
        cycle = unique_cycle(g)
        assert cycle is not None
        start = min(cycle)
        assert cycle[0] == start
        assert cycle[1] == min(cycle[1], cycle[-1])


def test_without_isolated_compacts_preserving_order():
    g = Graph(6, [(1, 4), (4, 5)])
    h = without_isolated(g)
    assert h.order == 3 and h.edges() == ((0, 1), (1, 2))
