import json
import random
import time
from itertools import combinations
from pathlib import Path

import jsonschema
import networkx as nx
import pytest

from hline.budget import Budget
from hline.classify import StopReason, classify
from hline.families import (
    make_chorded_cycle,
    make_cycle,
    make_path,
    make_spider,
    make_tailed_cycle,
)
from hline.graph import Graph, is_isomorphic
from hline.io import (
    GraphParseError,
    classification_report,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    render_edge_list,
    to_graph6,
)

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src/hline/schema/report.schema.json").read_text()
)


def sample_graphs():
    yield Graph(0)
    yield Graph(1)
    yield Graph(3)
    yield make_path(4)
    yield make_cycle(6)
    yield make_tailed_cycle(2, 4)
    yield make_chorded_cycle(7)
    yield make_spider(3, 3, 2)
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(2, 12)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.3]
        yield Graph(n, edges)


class TestEdgeList:
    def test_path(self):
        assert parse_edge_list("4; 0-1, 1-2, 2-3") == make_path(4)

    def test_whitespace_insensitive(self):
        assert parse_edge_list(" 4 ;0 - 1 ,1-2,  2-3 ") == make_path(4)

    def test_round_trip_is_exact(self):
        for g in sample_graphs():
            assert parse_edge_list(render_edge_list(g)) == g

    def test_sparse_ids_compact_preserving_order(self):
        g = parse_edge_list("4; 2-9, 9-7")
        assert g.order == 4
        assert g.edges() == ((0, 2), (1, 2))

    def test_self_loop_error(self):
        with pytest.raises(GraphParseError, match="self-loop"):
            parse_edge_list("3; 0-0")

    def test_duplicate_edge_error(self):
        with pytest.raises(GraphParseError, match="duplicate"):
            parse_edge_list("3; 0-1, 1-0")

    def test_bad_token_reports_column(self):
        with pytest.raises(GraphParseError, match="column"):
            parse_edge_list("3; 0-1, zap")

    def test_count_too_small(self):
        with pytest.raises(GraphParseError, match="exceed"):
            parse_edge_list("2; 0-1, 1-2")

    def test_missing_separator(self):
        with pytest.raises(GraphParseError):
            parse_edge_list("0-1, 1-2")

    def test_edgeless(self):
        assert parse_edge_list("3;") == Graph(3)
        assert render_edge_list(Graph(3)) == "3;"

    def test_long_path_parses_in_linear_time(self):
        text = render_edge_list(make_path(50_001))
        start = time.perf_counter()
        g = parse_edge_list(text)
        assert time.perf_counter() - start < 2.0
        assert g.order == 50_001 and g.size == 50_000


class TestGraph6:
    def test_known_complete_graph(self):
        g = parse_graph6("C~")
        assert g.order == 4 and g.size == 6

    def test_round_trip(self):
        for g in sample_graphs():
            assert parse_graph6(to_graph6(g)) == g

    def test_agrees_with_reference_decoder(self):
        for g in sample_graphs():
            ref = nx.from_graph6_bytes(to_graph6(g).encode())
            assert ref.number_of_nodes() == g.order
            assert {tuple(sorted(e)) for e in ref.edges()} == set(g.edges())

    def test_decodes_reference_encoder_output(self):
        for g in sample_graphs():
            ref = nx.Graph()
            ref.add_nodes_from(range(g.order))
            ref.add_edges_from(g.edges())
            line = nx.to_graph6_bytes(ref, header=False).decode().strip()
            assert parse_graph6(line) == g

    def test_header_tolerated(self):
        assert parse_graph6(">>graph6<<C~").order == 4

    def test_large_graph_rejected(self):
        with pytest.raises(GraphParseError):
            parse_graph6("~??")
        with pytest.raises(ValueError):
            to_graph6(Graph(63))

    def test_truncated_body_rejected(self):
        with pytest.raises(GraphParseError, match="chars"):
            parse_graph6("D?")


class TestParseGraph:
    def test_dispatch(self):
        assert parse_graph("4; 0-1, 1-2, 2-3") == make_path(4)
        assert parse_graph("C~").size == 6


class TestReportSchema:
    @pytest.mark.parametrize(
        "graph,n",
        [
            (make_cycle(6), 4),
            (make_tailed_cycle(1, 3), 4),
            (make_chorded_cycle(7), 6),
            (make_path(4), 4),
            (make_spider(3, 3, 2), 6),
        ],
    )
    def test_reports_validate(self, graph, n):
        report = classification_report(classify(graph, n), graph)
        jsonschema.validate(report, SCHEMA)
        json.dumps(report)  # must be serializable as-is

    def test_order_cap_report_validates(self):
        k4 = Graph(4, combinations(range(4), 2))
        report = classification_report(classify(k4, 5, Budget(max_order=4)), k4)
        assert report["unknown_reason"] == "order_cap"
        jsonschema.validate(report, SCHEMA)

    def test_graphs_deeper_than_the_recursion_limit_are_labeled(self):
        # the labeling search recurses once per vertex
        c1000 = make_cycle(1000)
        report = classification_report(classify(c1000, 6), c1000)
        assert report["outcome"] == "converged" and report["N"] == 0
        jsonschema.validate(report, SCHEMA)
        tailed = make_tailed_cycle(2, 998)
        report = classification_report(classify(tailed, 6), tailed)
        assert report["certificate"]["kind"] == "long_cycle"

    def test_stop_reasons_are_the_schema_enum(self):
        props = SCHEMA["properties"]
        reasons = {r.value for r in StopReason}
        assert set(props["stop_reason"]["enum"]) == reasons
        decided = {"empty", "fixed_point", "certificate"}
        assert set(props["unknown_reason"]["enum"]) == reasons - decided | {None}

    def test_report_content(self):
        g = make_tailed_cycle(1, 3)
        report = classification_report(classify(g, 4), g)
        assert report["outcome"] == "converged"
        assert report["N"] == 1
        assert report["trace"][0]["order"] == 4
        limit = parse_graph6(to_graph6(make_cycle(4)))
        assert report["limit_code"]
        assert is_isomorphic(limit, make_cycle(4))
