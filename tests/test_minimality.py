import hashlib
import json
import tracemalloc
from collections import Counter

import pytest

from hline import minimality
from hline.acceptance import _iter_simple_paths_of_order
from hline.budget import Budget, ResourceLimitError
from hline.cache import ClassificationCache
from hline.classify import Outcome, check_long_cycle, classify
from hline.families import (
    make_cycle,
    make_path,
    make_spider,
    make_tailed_cycle,
    tailed_cycles_of_total_order,
)
from hline.graph import (
    Graph,
    canonical_code,
    components,
    induced_subgraph,
    is_connected,
    is_isomorphic,
    norm_edge,
)
from hline.io import parse_graph6
from hline.minimality import (
    CONJECTURE_IDS,
    ClassificationSummary,
    Classifier,
    arm_decomposition,
    enumerate_connected_graphs,
    find_minimal_members,
    minimality_decision,
    proper_subgraphs,
    property_suite,
    run_conjecture,
    summarize,
)
from hline.operator import hl_step

from conftest import (
    all_labeled_graphs,
    by_order_and_code,
    disjoint_union,
    naive_connected_graphs,
    naive_minimal_classes,
    naive_minimality,
    naive_proper_subgraphs,
    two_component_unions,
)


def deletion_closure(g: Graph, clf: Classifier) -> set[bytes]:
    """Codes of every class the walk reaches from g when it expands all."""
    return {canonical_code(sub) for sub, _ in minimality._walk(g, clf, lambda s: True)}


def segment_lines(directory) -> int:
    return sum(seg.read_text().count("\n") for seg in directory.glob("seg-*.jsonl"))


@pytest.fixture(scope="module")
def classes_up_to_7():
    """Every class a sweep decides at order <= 7, and the 45 two-component
    unions of that order, which `minimality_decision` still accepts."""
    graphs = list(enumerate_connected_graphs(7)) + two_component_unions(7)
    return [g for g in graphs if g.order > 1]


class TestProperSubgraphs:
    def test_square(self):
        subs = list(proper_subgraphs(make_cycle(4)))
        assert [canonical_code(s) for s in subs] == [canonical_code(make_path(4))]
        expected = {
            canonical_code(g)
            for g in (
                make_path(4),
                make_path(3),
                disjoint_union(make_path(2), make_path(2)),
                make_path(2),
                Graph(0),
            )
        }
        assert deletion_closure(make_cycle(4), Classifier(4, Budget())) == expected

    def test_single_edge(self):
        subs = list(proper_subgraphs(make_path(2)))
        assert len(subs) == 1 and subs[0] == Graph(0)

    def test_claw(self):
        claw = make_spider(1, 1, 1)
        subs = list(proper_subgraphs(claw))
        assert [canonical_code(s) for s in subs] == [canonical_code(make_path(3))]
        closure = deletion_closure(claw, Classifier(4, Budget()))
        nonempty = closure - {canonical_code(Graph(0))}
        assert nonempty == {canonical_code(make_path(2)), canonical_code(make_path(3))}

    def test_one_representative_per_deletion_class_in_edge_order(self):
        # edges 0-1, 0-3, 0-4, 1-2, 2-3, 4-5; deleting 0-3 or 2-3 repeats a class
        subs = list(proper_subgraphs(make_tailed_cycle(2, 4)))
        assert [canonical_code(s) for s in subs] == [
            canonical_code(h)
            for h in (
                make_path(6),
                disjoint_union(make_cycle(4), make_path(2)),
                make_spider(1, 2, 2),
                make_tailed_cycle(1, 4),
            )
        ]

    def test_never_yields_the_graph_itself(self):
        g = make_tailed_cycle(1, 3)
        assert canonical_code(g) not in {canonical_code(s) for s in proper_subgraphs(g)}

    def test_closed_under_taking_subgraphs(self):
        # one-edge deletions, repeated, reach every proper subgraph class
        clf = Classifier(4, Budget())
        for g in enumerate_connected_graphs(6):
            oracle = {canonical_code(s) for s in naive_proper_subgraphs(g)}
            assert deletion_closure(g, clf) == oracle


class TestMinimalityDecision:
    def test_tailed_cycle_is_minimal(self):
        assert minimality_decision(make_tailed_cycle(1, 4), 5).status == "yes"

    def test_limit_cycle_is_minimal(self):
        assert minimality_decision(make_cycle(5), 5).status == "yes"

    def test_union_with_extra_edge_is_not_minimal(self):
        g = disjoint_union(make_tailed_cycle(1, 4), make_path(2))
        result = minimality_decision(g, 5)
        assert result.status == "no"
        assert result.blocker_code_hex == canonical_code(make_tailed_cycle(1, 4)).hex()

    def test_terminating_graph_is_not_minimal(self):
        assert minimality_decision(make_spider(1, 1, 1), 4).status == "no"

    def test_results_decided_without_an_audit_do_not_share_one_list(self):
        first = minimality_decision(make_spider(1, 1, 1), 4)
        second = minimality_decision(make_spider(1, 1, 1), 4)
        assert first == second and first.audit == []
        first.audit.append(("00", "converged"))
        assert second.audit == [] and first != second

    def test_isolated_vertices_rejected(self):
        with pytest.raises(ValueError):
            minimality_decision(disjoint_union(make_cycle(4), Graph(1)), 4)

    def test_yes_audit_covers_every_subgraph_class(self):
        # a yes needs only the one-edge deletion classes, and all terminate
        g = make_tailed_cycle(1, 3)
        result = minimality_decision(g, 4)
        assert result.status == "yes"
        assert [code for code, _ in result.audit] == [
            canonical_code(s).hex() for s in proper_subgraphs(g)
        ]
        assert all(out == "terminated" for _, out in result.audit)

    @pytest.mark.parametrize("m", [21, 25, 30])
    def test_long_cycles_are_minimal(self, m):
        result = minimality_decision(make_cycle(m), 6)
        assert result.status == "yes"
        assert result.audit == [(canonical_code(make_path(m)).hex(), "terminated")]

    def test_unknown_propagates(self):
        result = minimality_decision(make_tailed_cycle(1, 4), 5, Budget(max_iter=1))
        assert result.status == "unknown"

    @pytest.mark.parametrize(
        "g6, n, blocker", [("D}_", 5, "D]_"), ("E{U?", 6, "E[U?")]
    )
    def test_unknown_top_with_a_convergent_deletion_is_not_minimal(self, g6, n, blocker):
        # the top needs more than two steps; a one-edge deletion converges
        # within them
        result = minimality_decision(parse_graph6(g6), n, Budget(max_iter=2))
        assert result.classification.outcome is Outcome.UNKNOWN
        assert result.status == "no"
        assert result.blocker_code_hex == canonical_code(parse_graph6(blocker)).hex()

    def test_walk_continues_below_unknown_classes(self):
        # P4 and everything below it but the empty graph need two steps
        result = minimality_decision(make_cycle(4), 4, Budget(max_iter=1))
        assert result.status == "unknown"
        below = [make_path(4), make_path(3), disjoint_union(make_path(2), make_path(2)),
                 make_path(2), Graph(0)]
        assert result.audit == [
            (canonical_code(h).hex(), "terminated" if h.order == 0 else "unknown")
            for h in below
        ]


@pytest.mark.parametrize("n", [4, 5, 6])
class TestAgainstExhaustiveScan:
    def test_same_status_and_blocker(self, n, classes_up_to_7):
        clf = Classifier(n, Budget())
        statuses = Counter()
        for g in classes_up_to_7:
            result = minimality_decision(g, n, classifier=clf)
            assert (result.status, result.blocker_code_hex) == naive_minimality(g, clf)
            statuses[result.status] += 1
        assert statuses["yes"] and statuses["no"]

    def test_same_minimal_classes(self, n, classes_up_to_7):
        clf = Classifier(n, Budget())
        checked = 0
        for g in classes_up_to_7:
            if clf.summary(g).outcome is not Outcome.CONVERGED:
                continue
            minimal, undecided = minimality._minimal_classes(g, clf)
            assert not undecided
            assert {canonical_code(m) for m in minimal} == naive_minimal_classes(g, clf)
            checked += 1
        assert checked


class TestEnumeration:
    def test_tiny_levels(self):
        assert [g.order for g in enumerate_connected_graphs(1)] == [1]
        graphs3 = list(enumerate_connected_graphs(3))
        assert [g.order for g in graphs3] == [1, 2, 3, 3]

    def test_exactly_six_connected_on_four_vertices(self):
        count = sum(1 for g in enumerate_connected_graphs(4) if g.order == 4)
        assert count == 6

    def test_matches_brute_force_dedup_up_to_5(self):
        for order in range(1, 6):
            brute = set()
            for g in all_labeled_graphs(order):
                if g.order and len(components(g)) == 1:
                    brute.add(canonical_code(g))
            mine = {
                canonical_code(g)
                for g in enumerate_connected_graphs(order)
                if g.order == order
            }
            assert mine == brute

    def test_matches_networkx_atlas_up_to_7(self):
        nx = pytest.importorskip("networkx")
        atlas = {
            canonical_code(Graph(h.number_of_nodes(), h.edges()))
            for h in nx.graph_atlas_g()
            if h.number_of_nodes() and nx.is_connected(h)
        }
        mine = [canonical_code(g) for g in enumerate_connected_graphs(7)]
        assert set(mine) == atlas and len(mine) == len(atlas)
        per_order = Counter(int.from_bytes(code[:4], "big") for code in mine)
        # OEIS A001349
        assert [per_order[v] for v in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]

    @pytest.mark.parametrize(
        "args", [(v_max,) for v_max in range(1, 8)] + [(8, 7), (8, 8)]
    )
    def test_same_codes_as_extend_and_reject(self, args):
        mine = [canonical_code(g) for g in by_order_and_code(enumerate_connected_graphs(*args))]
        assert mine == [canonical_code(g) for g in naive_connected_graphs(*args)]

    def test_order_8_count(self):
        graphs = by_order_and_code(enumerate_connected_graphs(8))
        assert len(graphs) == 12_113
        assert sum(1 for g in graphs if g.order == 8) == 11_117  # OEIS A001349
        # one order-8 class is kept only through the deletion labeling
        blob = json.dumps([[g.order, [list(e) for e in g.edges()]] for g in graphs])
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "acaa4e925e1d2227fa0d0ee65d3233c3d51326dc9d289072d4d3a8c8207f9b34"
        )

    def test_each_class_follows_its_parent(self):
        # the contract divergence inheritance rests on: every class once,
        # after the class its `_parent_code` names; each carries its code,
        # by which `run_conjecture` sorts its candidates
        seen: set[bytes] = set()
        for g in enumerate_connected_graphs(8):
            code = g._code
            assert code is not None
            assert code not in seen
            assert (g._parent_code is None) == (g.order == 1)
            assert g.order == 1 or g._parent_code in seen
            seen.add(code)
        per_order = Counter(int.from_bytes(code[:4], "big") for code in seen)
        # OEIS A001349
        assert [per_order[v] for v in range(1, 9)] == [1, 1, 2, 6, 21, 112, 853, 11_117]

    def test_streaming_keeps_one_path_not_whole_orders(self):
        # depth first, the walk holds the path to the current class and one
        # code per class; holding every class of an order as a graph, with
        # its automorphisms and canonical order, peaked at 26.4 MB
        tracemalloc.start()
        try:
            count = sum(1 for _ in enumerate_connected_graphs(8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 12_113
        assert peak < 4_000_000

    def test_degree_filter_skips_cut_vertices(self):
        def ties(parent, anchors):
            pieces = [minimality._pieces_without(parent._adj, u) for u in range(parent.order)]
            return minimality._deletion_ties(parent._adj, anchors, pieces)

        # two K4s joined through vertex 4; x = 8 completes the second K4.
        # The cut vertex 4 has the least f, (2, [4, 4]), and is passed over.
        parent = Graph(
            8,
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (4, 5)]
            + [(5, 6), (5, 7), (6, 7)],
        )
        assert ties(parent, 0b11100000) == {1, 2, 3, 6, 7}
        assert ties(parent, 0b1000000) == set()  # the only leaf
        # joined to the first two vertices of a path, x has degree 2 beside a leaf
        assert ties(make_path(3), 0b11) is None

    def test_deletion_ties_match_the_child(self):
        # the mask filter against the child itself, whose non-cut vertices
        # are found by deleting each vertex and testing connectivity
        parents = naive_connected_graphs(6)
        checked = 0
        for parent in parents:
            x = parent.order
            adj = parent._adj
            pieces = [minimality._pieces_without(adj, u) for u in range(x)]
            for u in range(x):
                rest, old_ids = induced_subgraph(parent, set(range(x)) - {u})
                assert pieces[u] == [
                    sum(1 << old_ids[w] for w in comp) for comp in components(rest)
                ]
            for anchors in range(1, 1 << x):
                child = Graph(
                    x + 1,
                    parent.edges() + tuple((a, x) for a in range(x) if anchors >> a & 1),
                )

                def f(u):
                    return (child.degree(u), sorted(child.degree(w) for w in child.neighbors(u)))

                non_cut = [
                    u
                    for u in range(x + 1)
                    if is_connected(induced_subgraph(child, set(range(x + 1)) - {u})[0])
                ]
                assert x in non_cut
                if min(f(u) for u in non_cut) < f(x):
                    expected = None
                else:
                    expected = {u for u in non_cut if u != x and f(u) == f(x)}
                assert minimality._deletion_ties(adj, anchors, pieces) == expected
                checked += 1
        assert checked == sum((1 << g.order) - 1 for g in parents)

    def test_orbit_test_matches_sorted_tuples(self):
        # every stored automorphism of every class of order <= 7, on every
        # anchor set of its vertices
        checked = 0
        for g in enumerate_connected_graphs(7):
            x = g.order
            masks = list(range(1, 1 << x))
            members = {m: tuple(a for a in range(x) if m >> a & 1) for m in masks}

            def earlier(gamma, m):
                return tuple(sorted(gamma[a] for a in members[m])) < members[m]

            for gamma in g._automorphisms:
                images = minimality._image_table(gamma)
                kept = set(minimality._orbit_minimal(masks, [gamma]))
                for m in masks:
                    assert images[m] == sum(1 << gamma[a] for a in members[m])
                    assert (m not in kept) == earlier(gamma, m)
                checked += 1
            assert minimality._orbit_minimal(masks, g._automorphisms) == [
                m for m in masks if not any(earlier(gamma, m) for gamma in g._automorphisms)
            ]
        assert checked > 996

    # SHA-256 over the representatives, by order, then code; they are the
    # first child per code that canonical augmentation accepts
    @pytest.mark.parametrize(
        "generate, args, count, digest",
        [
            (
                enumerate_connected_graphs, (7,), 996,
                "c953705984ae4572ba12c9e1ea17ca3e2a6457f3f057df38db7644624c51b386",
            ),
            (
                enumerate_connected_graphs, (7, 8), 200,
                "691ac8f03b5fa47e82fc19babb90ddb9c4f4ab896aabac7b51c82e37ab0c1e06",
            ),
            (
                two_component_unions, (8,), 220,
                "46d28ef6b2c88633c5c35c83b1e68515bab7eb3265b4d3d7575641ed4be15152",
            ),
        ],
        ids=["connected-7", "connected-7-8", "unions-8"],
    )
    def test_representatives_are_pinned(self, generate, args, count, digest):
        graphs = by_order_and_code(generate(*args))
        assert len(graphs) == count
        blob = json.dumps([[g.order, [list(e) for e in g.edges()]] for g in graphs])
        assert hashlib.sha256(blob.encode()).hexdigest() == digest

    def test_orbit_pruning_skips_isomorphic_children(self, monkeypatch):
        calls = 0

        def counting(g, **kwargs):
            nonlocal calls
            calls += 1
            return canonical_code(g, **kwargs)

        monkeypatch.setattr(minimality, "canonical_code", counting)
        assert sum(1 for _ in enumerate_connected_graphs(7)) == 996
        # 7,816 children are labeled without any pruning and 4,220 with orbit
        # pruning alone; the degree filter leaves 1,030 children, 12 deletion
        # labelings, compared with the parent's stored code, and the order-1
        # class
        assert calls <= 1_100

    def test_edge_bound_respected(self):
        for g in enumerate_connected_graphs(6, 6):
            assert g.size <= 6

    def test_cap(self):
        with pytest.raises(ValueError):
            list(enumerate_connected_graphs(10))

    def test_deterministic_order(self):
        first = [canonical_code(g) for g in enumerate_connected_graphs(5)]
        second = [canonical_code(g) for g in enumerate_connected_graphs(5)]
        assert first == second


@pytest.fixture(scope="module")
def outcomes_up_to_7():
    """classify's own outcome for every connected class of order <= 7, by n
    and canonical code."""
    graphs = list(enumerate_connected_graphs(7))
    return {
        n: {canonical_code(g): classify(g, n).outcome for g in graphs} for n in (4, 5, 6)
    }


def has_divergent_parent(g: Graph, outcome: dict) -> bool:
    return outcome.get(g._parent_code) is Outcome.DIVERGED_BY_ORDER


class TestDivergenceInheritance:
    """A class that contains a divergent class diverges too (the lemma in
    the minimality module docstring), so a sweep gives a class its parent's
    divergence without classifying it."""

    def test_parents_are_subgraphs(self):
        for g in enumerate_connected_graphs(7):
            deletions = {
                canonical_code(induced_subgraph(g, set(range(g.order)) - {w})[0])
                for w in range(g.order)
            }
            assert (g._parent_code is None) == (g.order == 1)
            assert g.order == 1 or g._parent_code in deletions

    @pytest.mark.parametrize("n, count", [(4, 956), (5, 910), (6, 724)])
    def test_children_of_divergent_parents_diverge(self, n, count, outcomes_up_to_7):
        outcome = outcomes_up_to_7[n]
        children = [
            g for g in enumerate_connected_graphs(7) if has_divergent_parent(g, outcome)
        ]
        assert len(children) == count
        diverged = Outcome.DIVERGED_BY_ORDER
        assert all(outcome[canonical_code(g)] is diverged for g in children)

    @pytest.mark.parametrize("n, count", [(4, 23), (5, 12)])
    def test_unions_with_a_divergent_part_diverge(self, n, count, outcomes_up_to_7):
        outcome = outcomes_up_to_7[n]
        diverged = Outcome.DIVERGED_BY_ORDER
        unions = [
            u
            for u in two_component_unions(7)
            if any(
                outcome[canonical_code(induced_subgraph(u, c)[0])] is diverged
                for c in components(u)
            )
        ]
        assert len(unions) == count
        assert all(classify(u, n).outcome is diverged for u in unions)

    def test_cold_sweep_caches_exactly_what_it_classifies(self, tmp_path, monkeypatch):
        classified: list[Graph] = []

        def counting(g, *args):
            classified.append(g)
            return classify(g, *args)

        monkeypatch.setattr(minimality, "classify", counting)
        cache = ClassificationCache(tmp_path, Budget())
        find_minimal_members(5, 7, cache=cache)
        cache.close()
        by_code = {canonical_code(g).hex(): g for g in classified}
        records = [
            json.loads(line)
            for seg in tmp_path.glob("seg-*.jsonl")
            for line in seg.read_text().splitlines()
        ]
        # without inheritance the sweep classifies 998 classes
        assert len(classified) == len(by_code) == len(records) == 88
        for rec in records:
            code_hex, n = rec["key"]
            assert n == 5
            assert rec["value"] == summarize(classify(by_code[code_hex], 5)).to_json()


@pytest.fixture(scope="module")
def unions_up_to_8():
    return two_component_unions(8)


class TestUnionsNeedNoSweep:
    """No union is minimal, and a union with one convergent part has that
    part's minimal classes (the minimality module docstring), so sweeps
    visit connected classes only."""

    @pytest.mark.parametrize("n, count", [(4, 14), (5, 14), (6, 8)])
    def test_unions_add_no_minimal_class(self, n, count, unions_up_to_8):
        assert len(unions_up_to_8) == 220
        clf = Classifier(n, Budget())
        checked = 0
        for u in unions_up_to_8:
            assert minimality_decision(u, n, classifier=clf).status == "no"
            if clf.summary(u).outcome is not Outcome.CONVERGED:
                continue
            parts = [induced_subgraph(u, c)[0] for c in components(u)]
            convergent = [
                p for p in parts if clf.summary(p).outcome is Outcome.CONVERGED
            ]
            if len(convergent) != 1:
                continue
            mine, undecided = minimality._minimal_classes(u, clf)
            theirs, part_undecided = minimality._minimal_classes(convergent[0], clf)
            assert not undecided and not part_undecided
            assert sorted(map(canonical_code, mine)) == sorted(
                map(canonical_code, theirs)
            )
            checked += 1
        assert checked == count


class TestArmDecomposition:
    def test_tailed_cycle(self):
        dec = arm_decomposition(make_tailed_cycle(2, 4))
        assert dec.cycle == (0, 1, 2, 3)
        assert dec.arms == (frozenset({4, 5}),)
        assert dec.roots == (0,)

    def test_bare_cycle_has_no_arms(self):
        dec = arm_decomposition(make_cycle(5))
        assert dec.arms == () and dec.roots == ()

    def test_acyclic_absent(self):
        assert arm_decomposition(make_spider(1, 1, 1)) is None

    def test_spider_image(self):
        h = hl_step(make_spider(3, 3, 2), 6)
        dec = arm_decomposition(h)
        assert sorted(len(a) for a in dec.arms) == [1, 2, 2]
        assert len(set(dec.roots)) == 3

    def test_partition(self):
        for g in enumerate_connected_graphs(7, 7):
            if g.size != g.order:
                continue
            dec = arm_decomposition(g)
            assert dec is not None
            total = len(dec.cycle) + sum(len(a) for a in dec.arms)
            assert total == g.order


class TestPropertySuite:
    def test_hexagon_all_applicable_pass(self):
        report = property_suite(make_cycle(6), 6)
        assert report.failures() == []
        for name in (
            "every_edge_on_full_path",
            "component_count_preserved",
            "circumference_nondecreasing",
            "image_not_tree",
            "arm_edges_off_cycles",
            "root_star_no_long_cycle",
            "unicyclic_preserved",
        ):
            assert report.results[name].status == "pass"
        assert report.results["maximal_path_ends_pendant"].status == "skip"

    def test_tailed_square(self):
        report = property_suite(make_tailed_cycle(2, 4), 6)
        assert report.failures() == []
        assert report.results["every_edge_on_full_path"].status == "pass"
        assert report.results["circumference_nondecreasing"].status == "pass"
        assert "4 -> 5" in report.results["circumference_nondecreasing"].note

    def test_circumference_spends_from_the_budget(self):
        # the circumferences of the hexagon and of its image take 6 nodes each
        with pytest.raises(ResourceLimitError):
            property_suite(make_cycle(6), 6, Budget(search_nodes=5))

    def test_step_spends_from_the_budget(self):
        # two triangles joined by an edge; the step takes 68 nodes at n = 6
        g = Graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
        with pytest.raises(ResourceLimitError):
            property_suite(g, 6, Budget(search_nodes=20))

    def test_claw_all_skip(self):
        report = property_suite(make_spider(1, 1, 1), 4)
        assert all(r.status == "skip" for r in report.results.values())

    def test_missing_edges_are_the_isolated_vertices_of_the_image(self):
        # an edge lies on an n-vertex path iff it is path-adjacent to another
        graphs = list(enumerate_connected_graphs(7))
        assert len(graphs) == 996
        for n in range(4, 8):
            for g in graphs:
                h = hl_step(g, n)
                isolated = [e for i, e in enumerate(g.edges()) if h.degree(i) == 0]
                on_paths = {
                    norm_edge(path[i], path[i + 1])
                    for path in _iter_simple_paths_of_order(g, n)
                    for i in range(n - 1)
                }
                assert isolated == [e for e in g.edges() if e not in on_paths]

    def test_vertex_on_cycle_matches_networkx_cycle_basis(self):
        nx = pytest.importorskip("networkx")
        for g in enumerate_connected_graphs(6):
            h = nx.Graph()
            h.add_nodes_from(range(g.order))
            h.add_edges_from(g.edges())
            on_cycle = {v for cycle in nx.cycle_basis(h) for v in cycle}
            for x in range(g.order):
                assert minimality._vertex_on_cycle(g, x) == (x in on_cycle)


class TestFindMinimalMembers:
    def test_small_sweep_for_n4(self):
        report = find_minimal_members(4, 6)
        assert report.expected_missing == []
        yes = [r for r in report.records if r.status == "yes"]
        assert {(r.graph.order, r.graph.size) for r in yes} == {(4, 4), (5, 5), (6, 6)}
        assert len(yes) == 4  # tailed triangle, C4, C5, C6
        codes = {canonical_code(r.graph).hex() for r in yes}
        assert canonical_code(make_tailed_cycle(1, 3)).hex() in codes
        for m in (4, 5, 6):
            assert canonical_code(make_cycle(m)).hex() in codes

    def test_delta_family_shows_up_at_n6(self):
        report = find_minimal_members(6, 6)
        assert report.expected_missing == []
        codes = {canonical_code(r.graph).hex() for r in report.records if r.status == "yes"}
        for member in tailed_cycles_of_total_order(6):
            assert canonical_code(member).hex() in codes

    def test_claw_is_not_reported(self):
        report = find_minimal_members(4, 4)
        codes = {canonical_code(r.graph).hex() for r in report.records}
        assert canonical_code(make_spider(1, 1, 1)).hex() not in codes

    def test_yes_records_carry_full_audit(self):
        # the audit of a yes record lists its one-edge deletion classes
        report = find_minimal_members(5, 5)
        for rec in report.records:
            if rec.status == "yes":
                assert [code for code, _ in rec.audit] == [
                    canonical_code(s).hex() for s in proper_subgraphs(rec.graph)
                ]

    def test_warm_sweep_reads_the_cache(self, tmp_path):
        # a class that inherits its parent's divergence is neither looked
        # up nor written, so the warm run reads exactly the cold run's puts
        caches, reports = [], []
        for _ in range(2):
            cache = ClassificationCache(tmp_path, Budget())
            reports.append(find_minimal_members(4, 6, cache=cache))
            cache.close()
            caches.append(cache)
        cold, warm = caches
        assert cold.hits == 0 and segment_lines(tmp_path) == cold.misses == 28
        assert warm.hits == cold.misses and warm.misses == 0
        assert reports[1].to_json() == reports[0].to_json()

    def test_expected_members_respect_the_edge_bound(self):
        assert find_minimal_members(4, 6, e_max=4).expected_missing == []
        assert find_minimal_members(5, 6, e_max=4).expected_missing == []
        # members that fit the bounds are still expected, with or without e_max
        starved = Budget(max_iter=1)
        assert find_minimal_members(5, 6, starved, e_max=5).expected_missing == [
            "tailed_cycle_total_5",
            "tailed_cycle_total_5",
            "C5",
        ]
        assert find_minimal_members(4, 5, starved).expected_missing == [
            "tailed_cycle_total_4",
            "C4",
            "C5",
        ]

    def test_large_n_over_a_small_vmax_builds_no_expected_family(self, monkeypatch):
        # every expected member has order n or more, above v_max; building
        # the n tailed cycles of order n kept search-min --n 20000 --vmax 3
        # running past a minute
        def refuse(n):
            raise AssertionError(f"built an expected family at order {n}")

        monkeypatch.setattr(minimality, "tailed_cycles_of_total_order", refuse)
        monkeypatch.setattr(minimality, "make_cycle", refuse)
        report = find_minimal_members(20_000, 3)
        assert report.expected_missing == [] and report.records == []
        assert report.counts["swept"] == 3

    def test_decide_scans_no_degrees(self, monkeypatch):
        # swept classes are connected: only the order-1 class has an
        # isolated vertex, and its order says so
        calls = 0
        degree = Graph.degree

        def counting(self, v):
            nonlocal calls
            calls += 1
            return degree(self, v)

        decided = minimality.MinimalityResult(Graph(0), "no", None)
        monkeypatch.setattr(minimality, "minimality_decision", lambda *args: decided)
        monkeypatch.setattr(Graph, "degree", counting)
        clf = Classifier(4, Budget())
        counts = Counter()
        for g in enumerate_connected_graphs(6):
            minimality._decide(g, clf, counts)
        assert calls == 0
        assert counts["swept"] == 142


class TestConjectureHarness:
    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            run_conjecture("nonsense", 4, 5)

    def test_all_ids_complete(self):
        for conjecture in CONJECTURE_IDS:
            report = run_conjecture(conjecture, 4, 5)
            assert report.status in (
                "no-counterexample-within-bounds",
                "counterexample-found",
                "inconclusive",
            )
            assert report.stats["swept"] > 0
            assert all(c.replayed for c in report.candidates)

    def test_square_has_exactly_one_minimal_subgraph_class(self):
        minimal, undecided = minimality._minimal_classes(
            make_cycle(4), Classifier(4, Budget())
        )
        assert not undecided
        assert [canonical_code(m) for m in minimal] == [canonical_code(make_cycle(4))]

    def test_candidate_graphs_replay(self, non_refuting_harness):
        report = run_conjecture(non_refuting_harness, 5, 7)
        assert report.status == "inconclusive"
        assert len(report.candidates) == report.stats["converged"] > 0
        for cand in report.candidates:
            assert cand.replayed
            data = cand.graphs["graph"]
            g = Graph(data["order"], [tuple(e) for e in data["edges"]])
            assert classify(g, 5).outcome is Outcome.CONVERGED

    def test_candidates_are_sorted_by_order_and_code(self, non_refuting_harness):
        # depth first, the enumeration reaches the 8 candidates at orders
        # 7, 6, 5, 5, 7, 6, 5, 5; the report sorts them by order, then code
        report = run_conjecture(non_refuting_harness, 5, 7)
        digest = hashlib.sha256(json.dumps(report.to_json(), sort_keys=True).encode())
        assert digest.hexdigest() == (
            "4790ce3ae57f8a3853a25814304e2a24dad1769698e17ab46a656637ccac35d4"
        )

    def test_three_conjecture_ids(self):
        assert CONJECTURE_IDS == (
            "divergence-iff-long-cycle",
            "minimal-implies-unicyclic",
            "unique-minimal-subgraph",
        )

    def test_divergence_sweep_counts_unknown_classifications(self):
        report = run_conjecture(
            "divergence-iff-long-cycle", 5, 6, Budget(max_iter=1)
        )
        assert report.status == "inconclusive"
        assert report.stats["unknown"] > 0

    def test_divergence_candidates_come_only_from_order_cap_stops(self):
        # the unknown classes ran out of search nodes; none outgrew the order cap
        report = run_conjecture(
            "divergence-iff-long-cycle", 5, 6, Budget(search_nodes=10)
        )
        assert report.stats["unknown"] > 0
        assert report.candidates == []
        assert report.status == "inconclusive" and report.undecided

    def test_order_cap_candidates_check_only_the_last_iterate(self, monkeypatch):
        # classify's own long-cycle check cleared every iterate below the
        # cap, so the harness checks only the one over it: 3 calls, where
        # checking the whole trace made 6
        calls = []

        def counting(g, n, counter=None):
            calls.append(g.order)
            return check_long_cycle(g, n, counter)

        monkeypatch.setattr(minimality, "check_long_cycle", counting)
        report = run_conjecture("divergence-iff-long-cycle", 6, 6, Budget(max_order=8))
        assert report.stats == {"swept": 143, "unknown": 3}
        assert [c.claims["orders"] for c in report.candidates] == [[5, 9], [5, 10], [6, 9]]
        assert all(c.replayed for c in report.candidates)
        # the calls follow the enumeration, the candidates the sorted report
        assert sorted(calls) == [9, 9, 10]
        digest = hashlib.sha256(json.dumps(report.to_json(), sort_keys=True).encode())
        assert digest.hexdigest() == (
            "567d8b032a96acaef75850cca197d31210f25166ebefe68c8db4fd017294a0ef"
        )

    def test_order_cap_candidates_are_classified_once_after_the_summary(self, monkeypatch):
        # the summaries, then one traced run per candidate; a second, replay
        # run per candidate made it 149
        calls = []

        def counting(g, n, budget):
            calls.append(g.order)
            return classify(g, n, budget)

        monkeypatch.setattr(minimality, "classify", counting)
        report = run_conjecture("divergence-iff-long-cycle", 6, 6, Budget(max_order=8))
        assert len(report.candidates) == 3
        assert all(c.replayed for c in report.candidates)
        assert len(calls) == 146

    def test_divergence_sweep_reads_the_cache(self, tmp_path):
        budget = Budget(max_iter=1)
        cold_cache = ClassificationCache(tmp_path, budget)
        cold = run_conjecture("divergence-iff-long-cycle", 5, 6, budget, cold_cache)
        cold_cache.close()
        cache = ClassificationCache(tmp_path, budget)
        warm = run_conjecture("divergence-iff-long-cycle", 5, 6, budget, cache)
        cache.close()
        # 62 of the 143 swept classes are classified; the rest inherit
        assert segment_lines(tmp_path) == cold_cache.misses == 62
        assert cache.misses == 0 and cache.hits == cold_cache.misses
        assert warm.to_json() == cold.to_json()


def test_classifier_memo_consistency():
    clf = Classifier(5, Budget())
    g = make_tailed_cycle(1, 4)
    first = clf.summary(g)
    relabel = Graph(5, [(4, 3), (3, 1), (1, 0), (0, 4), (4, 2)])
    assert is_isomorphic(g, relabel)
    assert clf.summary(relabel) is first


@pytest.mark.parametrize(
    "g, n",
    [(make_cycle(6), 4), (make_spider(1, 1, 1), 4), (make_spider(3, 3, 2), 6)],
    ids=["converged", "terminated", "diverged"],
)
def test_summaries_survive_json_round_trip(g, n):
    summary = summarize(classify(g, n))
    assert ClassificationSummary.from_json(json.loads(json.dumps(summary.to_json()))) == summary
