import copy
import hashlib
import json
from functools import lru_cache

import pytest

from hline.budget import Budget
from hline.classify import (
    Certificate,
    CertificateKind,
    Outcome,
    StopReason,
    _tail_certificates,
    _tailed_cycles,
    check_long_cycle,
    check_long_tail,
    check_spider,
    check_twin_tail,
    classify,
    run_certificate_checks,
    verify_certificate,
)
from hline.budget import WorkCounter
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
    components,
    induced_subgraph,
    is_cycle_graph,
    is_isomorphic,
)
from hline.io import classification_report, parse_graph
from hline.minimality import enumerate_connected_graphs
from hline.operator import hl_step

from conftest import (
    brute_circumference,
    brute_tailed_cycle_edge_sets,
    brute_tailed_cycle_totals,
    disjoint_union,
    naive_connected_graphs,
    nx_spider_parameters,
)


@pytest.fixture(scope="module")
def small_reports():
    """Reports over the connected graphs of order <= 6 at n = 4..7."""
    graphs = naive_connected_graphs(6)
    assert len(graphs) == 143
    return [classification_report(classify(g, n), g) for n in range(4, 8) for g in graphs]


class TestLongCycleCheck:
    def test_chorded_hexagon(self):
        cert = check_long_cycle(make_chorded_cycle(6), 5)
        assert cert is not None and cert.witness["m"] == 6
        assert verify_certificate(make_chorded_cycle(6), 5, cert)

    def test_pure_cycle_excluded(self):
        assert check_long_cycle(make_cycle(7), 5) is None

    def test_forest_excluded(self):
        assert check_long_cycle(make_spider(2, 2, 1), 4) is None

    def test_cycle_component_with_extra_component(self):
        g = disjoint_union(make_cycle(6), make_chorded_cycle(5))
        cert = check_long_cycle(g, 5)
        assert cert is not None
        assert verify_certificate(g, 5, cert)

    def test_agrees_with_the_circumference_oracle(self):
        # every connected graph of order <= 6, alone and after a k-cycle
        circumference = lru_cache(maxsize=None)(brute_circumference)

        def long_noncycle_component(h: Graph, n: int) -> bool:
            for comp in components(h):
                sub, _ = induced_subgraph(h, comp)
                if not is_cycle_graph(sub) and circumference(sub) >= n:
                    return True
            return False

        spent = 0
        for n in range(4, 9):
            for g in naive_connected_graphs(6):
                for h in [g] + [disjoint_union(make_cycle(k), g) for k in range(3, 9)]:
                    counter = WorkCounter()
                    cert = check_long_cycle(h, n, counter)
                    spent += WorkCounter().remaining - counter.remaining
                    assert (cert is not None) == long_noncycle_component(h, n)
                    if cert is not None:
                        assert cert.witness["m"] >= n
                        assert verify_certificate(h, n, cert)
        # the circumference-based check spent 66,435 on the same inputs
        assert spent == 14_455


class TestLongTailCheck:
    def test_oversized_tailed_cycle(self):
        cert = check_long_tail(make_tailed_cycle(2, 4), 5)
        assert cert is not None
        assert cert.witness["m"] == 4 and cert.witness["r"] == 2
        assert verify_certificate(make_tailed_cycle(2, 4), 5, cert)

    def test_exact_total_is_not_oversized(self):
        assert check_long_tail(make_tailed_cycle(2, 4), 6) is None

    def test_pure_cycle_has_no_tail(self):
        assert check_long_tail(make_cycle(6), 4) is None

    def test_witness_has_the_shortest_tail_that_suffices(self):
        cert = check_long_tail(make_tailed_cycle(4, 3), 4)
        assert cert is not None
        assert cert.witness["m"] == 3 and cert.witness["r"] == 2
        assert verify_certificate(make_tailed_cycle(4, 3), 4, cert)

    def test_agrees_with_the_tailed_cycle_oracle(self):
        # every connected graph of order <= 6, alone and beside a k-cycle,
        # with and without the classifier's cycle-length cap
        totals = lru_cache(maxsize=None)(brute_tailed_cycle_totals)
        hits = 0
        for n in range(4, 9):
            for g in naive_connected_graphs(6):
                for h in [g] + [disjoint_union(make_cycle(k), g) for k in range(3, 9)]:
                    by_length: dict[int, int] = {}
                    for comp in components(h):
                        for m, total in totals(induced_subgraph(h, comp)[0]).items():
                            by_length[m] = max(by_length.get(m, 0), total)
                    for cap in (None, n - 1):
                        cert = check_long_tail(h, n, max_cycle_len=cap)
                        exists = any(
                            total > n
                            for m, total in by_length.items()
                            if cap is None or m <= cap
                        )
                        assert (cert is not None) == exists
                        if cert is not None:
                            hits += 1
                            w = cert.witness
                            assert w["m"] + w["r"] == max(w["m"], n) + 1
                            assert verify_certificate(h, n, cert)
        assert hits > 0


class TestSpiderCheck:
    def test_exact_spider(self):
        cert = check_spider(make_spider(3, 3, 2), 6)
        assert cert is not None
        assert cert.witness["k"] == 3 and cert.witness["d"] == 2
        assert verify_certificate(make_spider(3, 3, 2), 6, cert)

    def test_longer_legs_truncate(self):
        cert = check_spider(make_spider(4, 4, 4), 8)
        assert cert is not None
        assert cert.witness["k"] == 4 and cert.witness["d"] == 3
        assert verify_certificate(make_spider(4, 4, 4), 8, cert)

    def test_claw_too_small(self):
        assert check_spider(make_spider(1, 1, 1), 4) is None

    def test_agrees_with_the_networkx_oracle(self):
        # every connected graph of order <= 6, alone, beside a small spider
        # and beside a k-cycle: a hit iff some component holds a spider, and
        # the witness has the least such k
        parameters = lru_cache(maxsize=None)(nx_spider_parameters)
        beside = [make_spider(k, k, d) for k in (2, 3, 4) for d in (1, 2, 3)]
        beside += [make_cycle(k) for k in range(3, 9)]
        hits = 0
        spent = 0
        for n in range(4, 9):
            for g in naive_connected_graphs(6):
                for h in [g] + [disjoint_union(other, g) for other in beside]:
                    counter = WorkCounter()
                    cert = check_spider(h, n, counter)
                    spent += WorkCounter().remaining - counter.remaining
                    ks = [
                        k for comp in components(h)
                        for k in parameters(induced_subgraph(h, comp)[0], n)
                    ]
                    assert (cert is not None) == bool(ks)
                    if cert is not None:
                        hits += 1
                        assert cert.witness["k"] == min(ks)
                        assert verify_certificate(h, n, cert)
        assert hits > 0
        # searching every centre for every k spent 3,367,292 here
        assert spent == 54_002

    def test_least_k_wins_over_the_lower_centre(self):
        # at n = 6 the first component holds CL(4, 4, 1) only and the second
        # CL(3, 3, 2): k rises in the outer loop, so the second centre wins
        g = disjoint_union(make_spider(4, 4, 1), make_spider(3, 3, 2))
        cert = check_spider(g, 6)
        assert cert.witness["k"] == 3 and cert.witness["center"] == 10
        assert verify_certificate(g, 6, cert)

    def test_searches_no_centre_of_a_component_too_small(self):
        # K8 has 8 vertices, and CL(k, k, 8 - k) at n = 9 has 9 + k; every
        # centre for every k spent 429,600 nodes
        complete = Graph(8, [(u, v) for u in range(8) for v in range(u + 1, 8)])
        counter = WorkCounter()
        assert check_spider(complete, 9, counter) is None
        assert counter.remaining == WorkCounter().remaining


class TestTwinTailCheck:
    def test_two_pendants_on_one_cycle(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (2, 5)])
        cert = check_twin_tail(g, 5)
        assert cert is not None
        assert verify_certificate(g, 5, cert)

    def test_single_copy_is_not_enough(self):
        assert check_twin_tail(make_tailed_cycle(2, 4), 6) is None

    def test_bare_cycle(self):
        assert check_twin_tail(make_cycle(6), 6) is None

    def test_copies_in_distinct_components_do_not_count(self):
        g = disjoint_union(make_tailed_cycle(1, 4), make_tailed_cycle(1, 4))
        assert check_twin_tail(g, 5) is None

    def test_agrees_with_the_tailed_cycle_oracle(self):
        # every connected graph of order <= 6, alone and beside a k-cycle:
        # a hit iff one component holds two tailed cycles of total order n
        # with different edge sets
        edge_sets = lru_cache(maxsize=None)(brute_tailed_cycle_edge_sets)
        hits = 0
        spent = 0
        for n in range(4, 9):
            for g in naive_connected_graphs(6):
                for h in [g] + [disjoint_union(make_cycle(k), g) for k in range(3, 9)]:
                    counter = WorkCounter()
                    check_long_tail(h, n, counter, max_cycle_len=n - 1)
                    cert = check_twin_tail(h, n, counter)
                    spent += WorkCounter().remaining - counter.remaining
                    twins = any(
                        len(edge_sets(induced_subgraph(h, comp)[0], n)) >= 2
                        for comp in components(h)
                    )
                    assert (cert is not None) == twins
                    if cert is not None:
                        hits += 1
                        assert verify_certificate(h, n, cert)
        assert hits > 0
        # without the skip of components too small for a witness the two
        # checks spent 868,713 on the same inputs, without the skip of
        # barren cycle vertex sets too 966,713, and with a cycle and tail
        # loop of their own each 1,154,200
        assert spent == 145_263


class TestTailedCycles:
    def test_yields_are_pinned(self):
        # every payload of the classifier's walk and of each standalone
        # check's, on every connected graph of order <= 6, alone and beside
        # a k-cycle; the digest is that of the walk without the skip of
        # barren cycle vertex sets or of components too small for a witness
        digest = hashlib.sha256()
        count = 0
        graphs = naive_connected_graphs(6)
        for n in range(4, 9):
            walks = (
                (n - 1, lambda m: (n - m, n - m + 1), n),
                (None, lambda m: (max(n - m, 0) + 1,), n + 1),
                (n - 1, lambda m: (max(n - m, 0) + 1,), n + 1),
                (n - 1, lambda m: (n - m,), n),
            )
            for g in graphs:
                for h in [g] + [disjoint_union(make_cycle(k), g) for k in range(3, 9)]:
                    for max_cycle_len, tail_orders, min_order in walks:
                        for payload in _tailed_cycles(
                            h, WorkCounter(), max_cycle_len, tail_orders, min_order
                        ):
                            digest.update(json.dumps(payload).encode() + b"\n")
                            count += 1
                        digest.update(b"-\n")
        assert count == 378_406
        assert digest.hexdigest() == (
            "5ce39161500443af00e936796da386acd3778df6a7e75ad3eddbd6ea9ca098f0"
        )


class TestTailCertificates:
    def test_one_walk_matches_the_two_checks(self):
        # every connected graph of order <= 6, alone and beside a k-cycle:
        # the classifier's one walk gives long_tail's certificate, else
        # twin_tail's, byte for byte
        kinds = {None: 0, CertificateKind.LONG_TAIL: 0, CertificateKind.TWIN_TAIL: 0}
        spent = 0
        for n in range(4, 9):
            for g in naive_connected_graphs(6):
                for h in [g] + [disjoint_union(make_cycle(k), g) for k in range(3, 9)]:
                    expected = check_long_tail(h, n, max_cycle_len=n - 1)
                    if expected is None:
                        expected = check_twin_tail(h, n)
                    counter = WorkCounter()
                    long_tail, twin_tail = _tail_certificates(h, n, counter)
                    spent += WorkCounter().remaining - counter.remaining
                    assert long_tail is None or twin_tail is None
                    cert = long_tail or twin_tail
                    assert json.dumps(cert and cert.to_json()) == json.dumps(
                        expected and expected.to_json()
                    )
                    kinds[cert and cert.kind] += 1
        assert sum(kinds.values()) == 5_005 and all(kinds.values())
        # without the skip of components too small for a witness the walk
        # spent 509,820 on the same inputs; without the skip of barren cycle
        # vertex sets too 550,686, and check_long_tail then check_twin_tail
        # 940,461
        assert spent == 217_194

    def test_components_too_small_for_a_witness_cost_nothing(self):
        # every tail the walk asks for has m + r >= n vertices, all in one
        # component; K8 at n = 9 once spent 93,520 nodes
        k8 = parse_graph("G~~~~{")
        graphs = [(k8, 9)] + [(g, n) for n in (7, 8) for g in naive_connected_graphs(6)]
        for g, n in graphs:
            counter = WorkCounter()
            assert _tail_certificates(g, n, counter) == (None, None)
            assert counter.remaining == WorkCounter().remaining
        # a long tail has more than n vertices, so K8 at n = 8 holds none
        counter = WorkCounter()
        assert check_long_tail(k8, 8, counter) is None
        assert counter.remaining == WorkCounter().remaining


class TestClassify:
    def test_limit_cycles(self):
        for m in (4, 5, 6, 7, 25, 30):
            for n in (4, 5):
                if m < n:
                    continue
                c = classify(make_cycle(m), n)
                assert c.outcome is Outcome.CONVERGED
                assert c.steps_to_outcome == 0
                assert is_isomorphic(c.limit, make_cycle(m))

    def test_tailed_cycles_converge_in_r_steps(self):
        for n in range(4, 9):
            for r in range(1, n - 2):
                c = classify(make_tailed_cycle(r, n - r), n)
                assert c.outcome is Outcome.CONVERGED
                assert c.steps_to_outcome == r
                assert is_isomorphic(c.limit, make_cycle(n))

    def test_chorded_cycles_diverge_via_long_cycle(self):
        for n in (4, 5, 6):
            for m in range(n, n + 4):
                c = classify(make_chorded_cycle(m), n)
                assert c.outcome is Outcome.DIVERGED_BY_ORDER
                assert c.certificate.kind is CertificateKind.LONG_CYCLE

    def test_small_cycle_terminates(self):
        c = classify(make_cycle(3), 4)
        assert c.outcome is Outcome.TERMINATED and c.steps_to_outcome == 2

    def test_path_terminates(self):
        c = classify(make_path(4), 4)
        assert c.outcome is Outcome.TERMINATED and c.steps_to_outcome == 3
        assert c.trace.stop_reason is StopReason.EMPTY

    def test_empty_graph_terminates_at_zero(self):
        c = classify(Graph(0), 4)
        assert c.outcome is Outcome.TERMINATED and c.steps_to_outcome == 0

    def test_large_n_on_a_small_graph_terminates_at_once(self):
        # no k is tried when n + k exceeds the order; searching every k up
        # to n - 2 spent the default budget and ended in unknown
        c = classify(make_spider(3, 3, 3), 3_000_000)
        assert c.outcome is Outcome.TERMINATED and c.steps_to_outcome == 2
        assert c.budget_flags == ()

    def test_spider_outside_certificate_range_still_diverges(self):
        c = classify(make_spider(3, 3, 3), 7)
        assert c.outcome is Outcome.DIVERGED_BY_ORDER
        assert c.certificate.found_at_iteration > 0
        assert verify_certificate(make_spider(3, 3, 3), 7, c.certificate)

    def test_iteration_cap_yields_unknown(self):
        for max_iter in (0, 1):
            c = classify(make_tailed_cycle(2, 4), 6, Budget(max_iter=max_iter))
            assert c.outcome is Outcome.UNKNOWN and c.unknown_reason == "iter_cap"
            assert len(c.trace.steps) == max_iter + 1

    def test_tiny_search_budget_yields_unknown(self):
        c = classify(make_tailed_cycle(2, 4), 6, Budget(search_nodes=10))
        assert c.outcome is Outcome.UNKNOWN and c.unknown_reason == "step_exhausted"
        # the first check that ran out ends the checks; then the step runs out
        assert c.budget_flags == ("long_tail_exhausted@k=0", "step_exhausted@k=0")

    def test_tight_budget_outcome_does_not_depend_on_the_stored_code(self):
        # C4 is a cycle graph, so the long-cycle check spends nothing on it;
        # labeling runs out at budgets 23..40 (23..46 before twin pruning
        # cut C4's labeling from 12 nodes to 9, when this test used 45)
        fresh = make_cycle(4)
        labeled = make_cycle(4)
        canonical_code(labeled)
        for g in (fresh, labeled):
            c = classify(g, 4, Budget(search_nodes=32))
            assert c.outcome is Outcome.UNKNOWN
            assert c.unknown_reason == "canon_exhausted"
        assert classify(fresh, 4, Budget(search_nodes=32)).outcome is Outcome.UNKNOWN
        assert classify(fresh, 4).outcome is Outcome.CONVERGED

    def test_reports_on_small_connected_graphs_are_pinned(self, small_reports):
        # every report over the connected graphs of order <= 6 at n = 4..7;
        # long_cycle witnesses are the first cycle of >= n vertices found,
        # long_tail witnesses the first tailed cycle with m + r > n
        digest = hashlib.sha256()
        for report in small_reports:
            digest.update(json.dumps(report, sort_keys=True).encode())
        assert len(small_reports) == 572
        assert digest.hexdigest() == (
            "3451219b9c15b1425f5bb7ce8a9f3cf3029c852c0a3e8dd0fded101fad3070ac"
        )

    def test_decisions_on_small_connected_graphs_are_pinned(self, small_reports):
        # (outcome, N, certificate kind, unknown reason) of the same reports,
        # as the longest-cycle check decided them
        digest = hashlib.sha256()
        for report in small_reports:
            cert = report["certificate"]
            kind = cert["kind"] if cert else None
            fields = [report["outcome"], report["N"], kind, report["unknown_reason"]]
            digest.update(json.dumps(fields).encode())
        assert digest.hexdigest() == (
            "d9e679355895e5a8113791fed78bbb53d30851d5effc93fe499c7dcfa4cbaf2f"
        )

    def test_n_below_four_rejected(self):
        with pytest.raises(ValueError):
            classify(make_cycle(4), 3)

    def test_checks_run_on_the_last_iterate(self):
        c = classify(make_chorded_cycle(7), 6, Budget(max_iter=0))
        assert c.outcome is Outcome.DIVERGED_BY_ORDER
        assert c.certificate.found_at_iteration == 0

    @pytest.mark.parametrize("field", ["max_iter", "max_order", "search_nodes"])
    def test_negative_budget_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 0"):
            Budget(**{field: -1})

    def test_input_above_max_order_still_classifies(self):
        c = classify(make_cycle(6), 6, Budget(max_order=3))
        assert c.outcome is Outcome.CONVERGED and c.steps_to_outcome == 0

    def test_isomorphism_exhaustion_is_flagged(self):
        # C25 is a fixed point; the step fits the budget, its labeling does not
        # (labeling runs out at budgets 245..390)
        c = classify(make_cycle(25), 6, Budget(search_nodes=300))
        assert c.outcome is Outcome.UNKNOWN and c.unknown_reason == "canon_exhausted"
        assert c.budget_flags == ("isomorphism_exhausted@k=0",)
        assert len(c.trace.steps) == 2

    def test_order_cap_yields_unknown(self):
        # K4 holds no certificate at n = 5; its image, of order 6, is over the cap
        c = classify(parse_graph("C~"), 5, Budget(max_order=4))
        assert c.outcome is Outcome.UNKNOWN and c.unknown_reason == "order_cap"
        assert [h.order for h in c.trace.steps] == [4, 6]
        assert c.budget_flags == ()


class TestCertificateSoundness:
    def test_no_converged_graph_holds_a_valid_certificate(self):
        for g in enumerate_connected_graphs(6):
            for n in (4, 5, 6):
                c = classify(g, n)
                if c.outcome is not Outcome.CONVERGED:
                    continue
                for k, h in enumerate(c.trace.steps):
                    cert, _ = run_certificate_checks(h, n, WorkCounter(), k)
                    assert cert is None

    def test_tampered_witnesses_fail_verification(self):
        g = make_tailed_cycle(2, 4)
        cert = classify(g, 5).certificate
        assert verify_certificate(g, 5, cert)
        broken = copy.deepcopy(cert)
        broken.witness["r"] = 1
        assert not verify_certificate(g, 5, broken)
        broken = copy.deepcopy(cert)
        broken.witness["tail"] = [5, 4]
        assert not verify_certificate(g, 5, broken)
        broken = copy.deepcopy(cert)
        broken.found_at_iteration = 1
        assert not verify_certificate(g, 5, broken)

    def test_certificates_survive_json_round_trip(self):
        g = make_spider(3, 3, 2)
        cert = classify(g, 6).certificate
        clone = Certificate.from_json(cert.to_json())
        assert verify_certificate(g, 6, clone)

    def test_long_cycle_verification_needs_noncycle_component(self):
        cert = Certificate(
            CertificateKind.LONG_CYCLE,
            0,
            {"m": 6, "cycle": [0, 1, 2, 3, 4, 5], "component": [0, 1, 2, 3, 4, 5]},
        )
        assert not verify_certificate(make_cycle(6), 5, cert)


class TestChordedCycleEmergence:
    """The image of a cycle plus one chord contains a spanning copy of the
    next-size chorded cycle, which is what drives the long-cycle check."""

    @staticmethod
    def _contains_spanning(h, f):
        from itertools import permutations

        from hline.graph import norm_edge

        if h.order != f.order or h.size < f.size:
            return False
        host_edges = set(h.edges())
        for perm in permutations(range(f.order)):
            if all(norm_edge(perm[u], perm[v]) in host_edges for u, v in f.edges()):
                return True
        return False

    def test_image_contains_next_chorded_cycle(self):
        for n in (4, 5):
            for m in range(n, n + 3):
                for dist in range(2, m // 2 + 1):
                    g0 = Graph(m, [(i, (i + 1) % m) for i in range(m)] + [(0, dist)])
                    image = hl_step(g0, n)
                    assert self._contains_spanning(image, make_chorded_cycle(m + 1))


class TestSpiderImageShapes:
    def test_triangle_with_pendants(self):
        for k, d in ((2, 1), (3, 2), (4, 3)):
            n = k + d + 1
            image = hl_step(make_spider(k, k, d), n)
            edges = [(0, 1), (1, 2), (0, 2)]
            nxt = 3
            for anchor, length in enumerate((k - 1, k - 1, d - 1)):
                prev = anchor
                for _ in range(length):
                    edges.append((prev, nxt))
                    prev = nxt
                    nxt += 1
            assert is_isomorphic(image, Graph(nxt, edges))

    def test_growth_of_chorded_cycles(self):
        for n in (4, 5, 6):
            for m in range(n, n + 4):
                h = make_chorded_cycle(m)
                orders = [h.order]
                for _ in range(3):
                    h = hl_step(h, n)
                    orders.append(h.order)
                assert all(a < b for a, b in zip(orders, orders[1:]))
