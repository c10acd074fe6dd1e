import pytest

from hline.budget import Budget, ResourceLimitError
from hline.classify import Outcome, classify
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
    disjoint_union,
    is_isomorphic,
)
from hline.minimality import (
    CONJECTURE_IDS,
    Classifier,
    arm_decomposition,
    enumerate_connected_graphs,
    enumerate_two_component_unions,
    find_minimal_members,
    is_minimally_convergent,
    minimality_decision,
    proper_subgraphs,
    property_suite,
    run_conjecture,
)
from hline.operator import hl_step

from conftest import all_labeled_graphs


class TestProperSubgraphs:
    def test_square(self):
        subs = list(proper_subgraphs(make_cycle(4)))
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
        assert {canonical_code(s) for s in subs} == expected

    def test_single_edge(self):
        subs = list(proper_subgraphs(make_path(2)))
        assert len(subs) == 1 and subs[0] == Graph(0)

    def test_claw(self):
        subs = list(proper_subgraphs(make_spider(1, 1, 1)))
        nonempty = {canonical_code(s) for s in subs if s.order}
        assert nonempty == {canonical_code(make_path(2)), canonical_code(make_path(3))}

    def test_never_yields_the_graph_itself(self):
        g = make_tailed_cycle(1, 3)
        assert canonical_code(g) not in {canonical_code(s) for s in proper_subgraphs(g)}

    def test_closed_under_taking_subgraphs(self):
        for g in enumerate_connected_graphs(5):
            if g.size == 0:
                continue
            closure = {canonical_code(s) for s in proper_subgraphs(g)}
            for sub in proper_subgraphs(g):
                for deeper in proper_subgraphs(sub):
                    assert canonical_code(deeper) in closure

    def test_edge_cap(self):
        with pytest.raises(ResourceLimitError):
            next(proper_subgraphs(make_cycle(9), max_size=5))


class TestMinimalityDecision:
    def test_tailed_cycle_is_minimal(self):
        assert is_minimally_convergent(make_tailed_cycle(1, 4), 5) == "yes"

    def test_limit_cycle_is_minimal(self):
        assert is_minimally_convergent(make_cycle(5), 5) == "yes"

    def test_union_with_extra_edge_is_not_minimal(self):
        g = disjoint_union(make_tailed_cycle(1, 4), make_path(2))
        result = minimality_decision(g, 5)
        assert result.status == "no"
        assert result.blocker_code_hex == canonical_code(make_tailed_cycle(1, 4)).hex()

    def test_terminating_graph_is_not_minimal(self):
        assert is_minimally_convergent(make_spider(1, 1, 1), 4) == "no"

    def test_isolated_vertices_rejected(self):
        with pytest.raises(ValueError):
            minimality_decision(disjoint_union(make_cycle(4), Graph(1)), 4)

    def test_yes_audit_covers_every_subgraph_class(self):
        g = make_tailed_cycle(1, 3)
        result = minimality_decision(g, 4)
        assert result.status == "yes"
        assert len(result.audit) == sum(1 for _ in proper_subgraphs(g))
        assert all(out in ("terminated", "diverged_by_order") for _, out in result.audit)

    def test_unknown_propagates(self):
        result = minimality_decision(make_tailed_cycle(1, 4), 5, Budget(max_iter=1))
        assert result.status == "unknown"


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

    def test_unions_exclude_isolated_vertices(self):
        for u in enumerate_two_component_unions(6):
            assert all(u.degree(v) > 0 for v in range(u.order))
            assert len(components(u)) == 2


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
        dec = arm_decomposition(h.graph)
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

    def test_claw_all_skip(self):
        report = property_suite(make_spider(1, 1, 1), 4)
        assert all(r.status == "skip" for r in report.results.values())


class TestFindMinimalMembers:
    def test_small_sweep_for_n4(self):
        report = find_minimal_members(4, 6)
        assert report.expected_missing == []
        yes = [r for r in report.records if r.minimal_status == "yes"]
        assert {(r.order, r.size) for r in yes} == {(4, 4), (5, 5), (6, 6)}
        assert len(yes) == 4  # tailed triangle, C4, C5, C6
        codes = {r.code_hex for r in yes}
        assert canonical_code(make_tailed_cycle(1, 3)).hex() in codes
        for m in (4, 5, 6):
            assert canonical_code(make_cycle(m)).hex() in codes

    def test_delta_family_shows_up_at_n6(self):
        report = find_minimal_members(6, 6)
        assert report.expected_missing == []
        codes = {r.code_hex for r in report.records if r.minimal_status == "yes"}
        for member in tailed_cycles_of_total_order(6):
            assert canonical_code(member).hex() in codes

    def test_claw_is_not_reported(self):
        report = find_minimal_members(4, 4)
        codes = {r.code_hex for r in report.records}
        assert canonical_code(make_spider(1, 1, 1)).hex() not in codes

    def test_yes_records_carry_full_audit(self):
        report = find_minimal_members(5, 5)
        for rec in report.records:
            if rec.minimal_status == "yes":
                g = Graph(rec.order, [tuple(e) for e in rec.edges])
                assert len(rec.audit) == sum(1 for _ in proper_subgraphs(g))

    def test_parallel_matches_sequential(self):
        seq = find_minimal_members(4, 5)
        par = find_minimal_members(4, 5, jobs=2)
        assert seq.to_json() == par.to_json()

    def test_union_sweep_runs(self):
        report = find_minimal_members(4, 6, include_unions=True)
        assert report.counts["swept"] > find_minimal_members(4, 6).counts["swept"]


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
        count = 0
        g = make_cycle(4)
        for candidate in [g, *proper_subgraphs(g)]:
            if candidate.order == 0:
                continue
            if minimality_decision(candidate, 4).status == "yes":
                count += 1
        assert count == 1

    def test_candidate_graphs_replay(self):
        report = run_conjecture("noniso-convergent-pair", 5, 7)
        assert report.status == "inconclusive"
        assert len(report.candidates) == 1
        cand = report.candidates[0]
        assert cand.replayed
        data = cand.graphs["graph"]
        g = Graph(data["order"], [tuple(e) for e in data["edges"]])
        assert classify(g, 5).outcome is Outcome.CONVERGED

    def test_divergence_sweep_counts_unknown_classifications(self):
        report = run_conjecture(
            "divergence-iff-long-cycle", 5, 6, Budget(max_iter=1)
        )
        assert report.status == "inconclusive"
        assert report.stats["unknown"] > 0


def test_classifier_memo_consistency():
    clf = Classifier(5, Budget())
    g = make_tailed_cycle(1, 4)
    first = clf.summary(g)
    relabel = Graph(5, [(4, 3), (3, 1), (1, 0), (0, 4), (4, 2)])
    assert is_isomorphic(g, relabel)
    assert clf.summary(relabel) is first
