import gc
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import hline
import hline.cli as cli
import hline.graph as graph
from hline.budget import Budget
from hline.cli import EXIT_BUDGET, EXIT_OK, EXIT_PARSE, EXIT_USAGE, run_cli

from conftest import SystemErrorCounter


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("HLINE_CACHE_DIR", str(tmp_path / "cache"))


def run(capsys, *argv):
    code = run_cli(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_public_names_resolve_and_the_test_only_ones_are_gone():
    for name in hline.__all__:
        assert getattr(hline, name) is not None, name
    # tests build disjoint unions themselves (conftest.disjoint_union)
    for module, name in [
        (hline.operator, "pn_adjacent"),
        (hline.operator, "_check_edge"),
        (hline.minimality, "is_minimally_convergent"),
        (hline.graph, "disjoint_union"),
    ]:
        assert name not in hline.__all__
        assert not hasattr(hline, name) and not hasattr(module, name)


def test_importing_the_cli_loads_neither_dataclasses_nor_the_acceptance_suite():
    # against the fresh interpreter's own modules, so that site hooks do not count
    code = (
        "import sys; before = set(sys.modules); import hline.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    src = str(Path(hline.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    ).stdout
    added = set(out.split())
    assert "hline.cli" in added
    assert not added & {"dataclasses", "inspect", "hline.acceptance"}, added


def test_family_prints_both_formats(capsys):
    code, out, _ = run(capsys, "family", "CL(3,3,2)")
    assert code == EXIT_OK
    assert "9; 0-1, 0-4, 0-7" in out
    assert "graph6:" in out


def test_family_over_62_vertices_prints_no_graph6_line(capsys):
    # graph6 covers at most 62 vertices; the other two lines still print
    code, out, _ = run(capsys, "family", "C70")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "C70: order=70 size=70"
    assert lines[1].startswith("edge-list: 70; 0-1, 0-69, 1-2,")
    assert len(lines) == 2
    code, out, _ = run(capsys, "family", "C62")
    assert code == EXIT_OK
    assert out.splitlines()[2].startswith("graph6:    }")


def test_classify_limit_cycle(capsys):
    code, out, _ = run(capsys, "classify", "C6", "--n", "4")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["outcome"] == "converged" and report["N"] == 0


def test_classify_tailed_triangle(capsys):
    code, out, _ = run(capsys, "classify", "G(r=1,m=3)", "--n", "4")
    report = json.loads(out)
    assert report["outcome"] == "converged" and report["N"] == 1


def test_classify_chorded_cycle_diverges(capsys):
    code, out, _ = run(capsys, "classify", "F7", "--n", "6")
    report = json.loads(out)
    assert report["outcome"] == "diverged_by_order"
    assert report["certificate"]["kind"] == "long_cycle"


def test_classify_edge_list_and_graph6_inputs(capsys):
    code, out, _ = run(capsys, "classify", "4; 0-1, 1-2, 2-3", "--n", "4")
    assert json.loads(out)["outcome"] == "terminated"
    code, out, _ = run(capsys, "classify", "C~", "--n", "4")
    assert json.loads(out)["outcome"] == "diverged_by_order"


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "classify", "3; 0-0", "--n", "4")
    assert code == EXIT_PARSE
    assert "self-loop" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "classify", "C6")
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "C6", "--n", "3"),
        ("search-min", "--n", "5", "--vmax", "10", "--no-cache"),
        ("hl", "C6", "--n", "3"),
        ("search-min", "--n", "4", "--vmax", "0", "--no-cache"),
        ("conjecture", "minimal-implies-unicyclic", "--n", "3", "--vmax", "1", "--no-cache"),
        ("conjecture", "divergence-iff-long-cycle", "--n", "5", "--vmax", "0", "--no-cache"),
    ],
)
def test_out_of_range_argument_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (("classify", "C6", "--n", "4", "--max-iter", "-1"), "max_iter must be >= 0, got -1"),
        (("classify", "C6", "--n", "4", "--max-order", "-3"), "max_order must be >= 0, got -3"),
        (("hl", "C6", "--n", "4", "--steps", "-2"), "--steps must be >= 0, got -2"),
        (("search-min", "--n", "4", "--vmax", "5", "--emax", "-1"), "e_max must be >= 0, got -1"),
    ],
)
def test_negative_budget_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "spec, message",
    [
        ("C2", "cycle needs m >= 3, got 2"),
        ("G(r=0,m=4)", "tailed cycle needs r >= 1, got r=0"),
        ("CL(0,1,1)", "spider needs leg orders >= 1, got (0,1,1)"),
        ("F3", "chorded cycle needs m >= 4, got 3"),
        ("P0", "path needs m >= 1, got 0"),
    ],
)
def test_out_of_range_family_spec_is_a_usage_error(capsys, spec, message):
    code, out, err = run(capsys, "classify", spec, "--n", "4")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: {message}\n"


def test_strict_budget_exit_code(capsys):
    code, out, _ = run(
        capsys, "classify", "G(r=2,m=4)", "--n", "6", "--max-iter", "1", "--strict"
    )
    assert code == EXIT_BUDGET
    assert json.loads(out)["outcome"] == "unknown"


def test_out_of_memory_exits_3_without_a_traceback(capsys, monkeypatch):
    def exhaust(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "classify", exhaust)
    code, out, err = run(capsys, "classify", "C6", "--n", "4")
    assert code == EXIT_BUDGET
    assert out == ""
    assert err == "error: out of memory\n"


def test_system_error_in_labeling_exits_3_as_out_of_memory(capsys, monkeypatch):
    # memory running out deep in the labeling recursion can surface as a
    # SystemError; labeling reports it as MemoryError
    rows = graph._canonical_rows
    monkeypatch.setattr(
        graph, "_canonical_rows", lambda g, counter: rows(g, SystemErrorCounter(600))
    )
    code, out, err = run(capsys, "classify", "C1000", "--n", "6")
    assert code == EXIT_BUDGET
    assert out == ""
    assert err == "error: out of memory\n"


@pytest.mark.parametrize(
    "spec, outcome",
    [("C30", "converged"), ("G(r=1,m=30)", "diverged_by_order")],
    ids=["C30", "G(r=1,m=30)"],
)
def test_inputs_above_order_24_print_a_report(capsys, spec, outcome):
    code, out, err = run(capsys, "classify", spec, "--n", "6")
    assert code == EXIT_OK and err == ""
    report = json.loads(out)
    assert report["outcome"] == outcome
    if outcome == "diverged_by_order":
        assert report["certificate"]["kind"] == "long_cycle"


def test_strict_conjecture_passes_non_refuting_candidates(capsys, non_refuting_harness):
    # inconclusive only because the harness does not refute: no budget ran out
    code, out, _ = run(
        capsys, "conjecture", non_refuting_harness, "--n", "5", "--vmax", "7",
        "--strict", "--no-cache",
    )
    report = json.loads(out)
    assert report["status"] == "inconclusive" and report["candidates"]
    assert report["stats"]["unknown"] == 0
    assert code == EXIT_OK


def test_strict_conjecture_fails_on_undecided_classes(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_budget", lambda args: Budget(max_iter=1))
    code, out, _ = run(
        capsys, "conjecture", "minimal-implies-unicyclic", "--n", "4", "--vmax", "5",
        "--strict", "--no-cache",
    )
    report = json.loads(out)
    assert report["status"] == "inconclusive" and not report["candidates"]
    assert report["stats"]["unknown"] > 0
    assert code == EXIT_BUDGET


def test_strict_search_min_fails_on_unknown_classes(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_budget", lambda args: Budget(max_iter=1))
    code, out, _ = run(
        capsys, "search-min", "--n", "4", "--vmax", "5", "--strict", "--no-cache"
    )
    assert json.loads(out)["counts"]["unknown"] > 0
    assert code == EXIT_BUDGET


def test_strict_search_min_passes_at_the_default_budget(capsys):
    code, out, _ = run(
        capsys, "search-min", "--n", "4", "--vmax", "5", "--strict", "--no-cache"
    )
    assert json.loads(out)["counts"]["unknown"] == 0
    assert code == EXIT_OK


def test_hl_prints_provenance(capsys):
    code, out, _ = run(capsys, "hl", "P4", "--n", "4", "--steps", "2")
    assert code == EXIT_OK
    assert "provenance" in out
    assert "0 <- 0-1" in out


def test_hl_takes_no_step_from_the_empty_graph(capsys):
    code, out, _ = run(capsys, "hl", "0;", "--n", "4", "--steps", "3")
    assert code == EXIT_OK
    assert out == "k=0: order=0 size=0\n  empty graph reached\n"
    # an edgeless graph steps once, to the empty graph
    code, out, _ = run(capsys, "hl", "3;", "--n", "4", "--steps", "3")
    assert out == (
        "k=0: order=3 size=0\nk=1: order=0 size=0\n"
        "  provenance (vertex <- predecessor edge):\n  empty graph reached\n"
    )


@pytest.mark.parametrize(
    "graph, steps, size, digest",
    [
        (
            "CL(3,3,2)", "2", 355,
            "cb23c0d79a1f758a0067448288814b73ad129f70ab1335eef44488ebdc51c545",
        ),
        (
            "G(r=2,m=4)", "4", 584,
            "c8264cb6229396ac2d218cf8234a61bfb2f793bf12ace3bfb1029c1b1b00f167",
        ),
    ],
)
def test_hl_prints_the_pinned_bytes(capsys, graph, steps, size, digest):
    # taken while each step still returned its provenance table beside the
    # derived graph; the table now comes from the predecessor's edge list
    code, out, _ = run(capsys, "hl", graph, "--n", "6", "--steps", steps)
    assert code == EXIT_OK
    assert len(out.encode()) == size
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_search_min_report(capsys):
    code, out, _ = run(capsys, "search-min", "--n", "4", "--vmax", "5")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["counts"]["yes"] == 3
    assert report["expected_missing"] == []


def test_unions_flag_is_a_usage_error(capsys):
    code, out, err = run(capsys, "search-min", "--n", "4", "--vmax", "5", "--unions")
    assert code == EXIT_USAGE
    assert out == "" and "--unions" in err


def test_search_min_report_has_no_union_key(capsys):
    code, out, _ = run(capsys, "search-min", "--n", "4", "--vmax", "5", "--no-cache")
    assert code == EXIT_OK
    assert "include_unions" not in json.loads(out)


@pytest.mark.parametrize(
    "conjecture, stats",
    [
        ("minimal-implies-unicyclic", {"swept": 995, "yes": 5, "no": 990, "unknown": 0}),
        ("unique-minimal-subgraph", {"swept": 996, "converged": 5}),
    ],
)
def test_conjecture_sweeps_count_connected_classes(capsys, conjecture, stats):
    # 996 connected classes of order <= 7; the order-1 class has no
    # minimality decision
    code, out, _ = run(
        capsys, "conjecture", conjecture, "--n", "4", "--vmax", "7", "--no-cache"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["stats"] == stats
    assert report["status"] == "no-counterexample-within-bounds"


def test_conjecture_report(capsys):
    code, out, _ = run(
        capsys, "conjecture", "minimal-implies-unicyclic", "--n", "4", "--vmax", "5"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["status"] == "no-counterexample-within-bounds"


@pytest.mark.parametrize(
    "argv",
    [
        ("search-min", "--n", "4", "--vmax", "6", "--no-cache"),
        ("conjecture", "unique-minimal-subgraph", "--n", "4", "--vmax", "5", "--no-cache"),
    ],
)
def test_jobs_flag_is_accepted_and_ignored(capsys, argv):
    code, plain, _ = run(capsys, *argv)
    assert code == EXIT_OK
    code, with_jobs, _ = run(capsys, *argv, "--jobs", "2")
    assert code == EXIT_OK
    assert with_jobs == plain


def test_cache_stats_and_clear(capsys, tmp_path):
    code, out, _ = run(capsys, "search-min", "--n", "4", "--vmax", "4")
    assert code == EXIT_OK
    code, out, _ = run(capsys, "cache", "stats")
    assert code == EXIT_OK
    assert json.loads(out)["entries"] > 0
    code, out, _ = run(capsys, "cache", "clear")
    assert code == EXIT_OK
    code, out, _ = run(capsys, "cache", "stats")
    assert json.loads(out)["entries"] == 0


def test_benchmark_sweep_prints_the_pinned_bytes(capsys):
    # the benchmark's sweep without the cache; measured before the
    # long-cycle check became an existence search, then with the line
    # `"include_unions": false,` dropped from the report
    code, out, _ = run(capsys, "search-min", "--n", "5", "--vmax", "7", "--no-cache")
    assert code == EXIT_OK
    assert len(out.encode()) == 3405
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d87621a6d0c0ef7823c75c7fcd17541a64dcd3a8411fee85d435df84334fe7e8"
    )


@pytest.mark.parametrize(
    "conjecture, size, digest",
    [
        (
            "divergence-iff-long-cycle", 192,
            "3f771bf18444ac848b59a197ee2d274db0dcce2c7dda3b5c23a005362fa7a8df",
        ),
        (
            "minimal-implies-unicyclic", 221,
            "210af5b3080e8220136a541ed0ae93c22ecaaabaa503d599cf789015fa63856e",
        ),
        (
            "unique-minimal-subgraph", 192,
            "2b237ae30bcfd45319de32d7e0b1ff65be81bdadb114dc99f81a08ab8543e9aa",
        ),
    ],
)
def test_conjecture_sweeps_print_the_pinned_bytes(capsys, conjecture, size, digest):
    code, out, _ = run(
        capsys, "conjecture", conjecture, "--n", "5", "--vmax", "7", "--no-cache"
    )
    assert code == EXIT_OK
    assert len(out.encode()) == size
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_second_sweep_on_one_cache_appends_nothing(capsys, tmp_path):
    cache_dir = tmp_path / "shared"
    argv = ("--cache-dir", str(cache_dir), "search-min", "--n", "4", "--vmax", "6")
    code, first, _ = run(capsys, *argv)
    assert code == EXIT_OK
    segments = [seg.read_text() for seg in cache_dir.glob("seg-*.jsonl")]
    assert sum(text.count("\n") for text in segments) > 0
    code, second, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert second == first
    assert [seg.read_text() for seg in cache_dir.glob("seg-*.jsonl")] == segments


@pytest.mark.parametrize(
    "argv",
    [
        ("search-min", "--n", "4", "--vmax", "4"),
        ("conjecture", "unique-minimal-subgraph", "--n", "4", "--vmax", "4"),
        ("cache", "stats"),
    ],
)
def test_cache_dir_goes_before_or_after_the_subcommand(argv, tmp_path):
    parser = cli.build_parser()
    before = parser.parse_args(["--cache-dir", str(tmp_path), *argv])
    after = parser.parse_args([*argv, "--cache-dir", str(tmp_path)])
    assert before.cache_dir == after.cache_dir == str(tmp_path)
    assert parser.parse_args(list(argv)).cache_dir is None


def test_sweep_with_cache_dir_after_the_subcommand(capsys, tmp_path):
    cache_dir = tmp_path / "after"
    argv = ("search-min", "--n", "4", "--vmax", "4", "--cache-dir", str(cache_dir))
    code, _, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    assert list(cache_dir.glob("seg-*.jsonl"))


@pytest.mark.parametrize(
    "argv",
    [
        ("search-min", "--n", "4", "--vmax", "5"),
        ("conjecture", "unique-minimal-subgraph", "--n", "4", "--vmax", "5"),
    ],
)
def test_sweeps_leave_no_cache_segment_open(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        code, _, _ = run(capsys, *argv)
        gc.collect()
    assert code == EXIT_OK
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_cache_dir_that_names_a_file_is_a_usage_error(capsys, tmp_path):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    argv = ("search-min", "--n", "4", "--vmax", "4", "--cache-dir", str(not_a_dir))
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ")


def test_classify_writes_no_cache_segment(capsys, tmp_path):
    cache_dir = tmp_path / "cache"
    for _ in range(3):
        code, _, _ = run(capsys, "--cache-dir", str(cache_dir), "classify", "C6", "--n", "4")
        assert code == EXIT_OK
    assert not list(cache_dir.glob("seg-*.jsonl"))


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, lines_read",
    [
        # far more output than a pipe holds, so writes meet the closed pipe
        (("hl", "C30", "--n", "4", "--steps", "400"), 1),
        # closed before the first write; buffered, the flush at exit meets it
        (("family", "C6"), 0),
    ],
    ids=["hl", "family"],
)
def test_a_closed_stdout_ends_the_run_quietly(argv, lines_read, unbuffered):
    src = str(Path(hline.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
    proc = subprocess.Popen(
        [sys.executable, "-m", "hline.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    for _ in range(lines_read):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == EXIT_OK
    assert err == b""


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "classify", "F6", "--n", "5")
    _, second, _ = run(capsys, "classify", "F6", "--n", "5")
    assert first == second
