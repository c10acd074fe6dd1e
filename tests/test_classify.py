import copy

import pytest

from hline.budget import Budget
from hline.classify import (
    Certificate,
    CertificateKind,
    Outcome,
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
from hline.graph import Graph, disjoint_union, is_isomorphic
from hline.minimality import enumerate_connected_graphs
from hline.operator import StopReason, hl_iterate, hl_step


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

    def test_witness_is_maximal(self):
        cert = check_long_tail(make_tailed_cycle(4, 3), 4)
        assert cert is not None
        assert cert.witness["m"] + cert.witness["r"] == 7


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


class TestClassify:
    def test_limit_cycles(self):
        for m in (4, 5, 6, 7):
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
        assert c.outcome is Outcome.UNKNOWN
        # the checks' flags come first, then the step that ran out
        assert c.budget_flags == (
            "long_tail_exhausted@k=0",
            "spider_exhausted@k=0",
            "twin_tail_exhausted@k=0",
            "step_exhausted@k=0",
        )

    def test_n_below_four_rejected(self):
        with pytest.raises(ValueError):
            classify(make_cycle(4), 3)

    def test_checks_run_on_the_last_iterate(self):
        c = classify(make_chorded_cycle(7), 6, Budget(max_iter=0))
        assert c.outcome is Outcome.DIVERGED_BY_ORDER
        assert c.certificate.found_at_iteration == 0

    def test_input_above_max_order_still_classifies(self):
        c = classify(make_cycle(6), 6, Budget(max_order=3))
        assert c.outcome is Outcome.CONVERGED and c.steps_to_outcome == 0

    def test_isomorphism_exhaustion_is_flagged(self):
        # C25 is a fixed point, but canonical labeling stops at order 24
        c = classify(make_cycle(25), 6)
        assert c.outcome is Outcome.UNKNOWN and c.unknown_reason == "order_cap"
        assert c.budget_flags == ("isomorphism_exhausted@k=0",)
        assert len(c.trace.steps) == 2

    def test_trace_matches_hl_iterate_without_certificates(self):
        compared = 0
        for g in enumerate_connected_graphs(5):
            for n in (4, 5):
                c = classify(g, n)
                if c.certificate is not None:
                    continue
                assert c.trace == hl_iterate(g, n, 30, 512)
                compared += 1
        assert compared > 20


class TestCertificateSoundness:
    def test_no_converged_graph_holds_a_valid_certificate(self):
        for g in enumerate_connected_graphs(6):
            for n in (4, 5, 6):
                c = classify(g, n)
                if c.outcome is not Outcome.CONVERGED:
                    continue
                for step in c.trace.steps:
                    cert, _ = run_certificate_checks(step.graph, n, WorkCounter(), step.k)
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
                    image = hl_step(g0, n).graph
                    assert self._contains_spanning(image, make_chorded_cycle(m + 1))


class TestSpiderImageShapes:
    def test_triangle_with_pendants(self):
        for k, d in ((2, 1), (3, 2), (4, 3)):
            n = k + d + 1
            image = hl_step(make_spider(k, k, d), n).graph
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
                trace = hl_iterate(make_chorded_cycle(m), n, 3, 1_000_000)
                orders = [s.order for s in trace.steps]
                assert all(a < b for a, b in zip(orders, orders[1:]))
