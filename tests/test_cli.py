import json

import pytest

from hline.cli import EXIT_BUDGET, EXIT_OK, EXIT_PARSE, EXIT_USAGE, run_cli


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("HLINE_CACHE_DIR", str(tmp_path / "cache"))


def run(capsys, *argv):
    code = run_cli(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_family_prints_both_formats(capsys):
    code, out, _ = run(capsys, "family", "CL(3,3,2)")
    assert code == EXIT_OK
    assert "9; 0-1, 0-4, 0-7" in out
    assert "graph6:" in out


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


def test_strict_budget_exit_code(capsys):
    code, out, _ = run(
        capsys, "classify", "G(r=2,m=4)", "--n", "6", "--max-iter", "1", "--strict"
    )
    assert code == EXIT_BUDGET
    assert json.loads(out)["outcome"] == "unknown"


@pytest.mark.parametrize("spec", ["C30", "G(r=1,m=30)"])
def test_budget_failure_exit_code(capsys, spec):
    code, out, err = run(capsys, "classify", spec, "--n", "6")
    assert code == EXIT_BUDGET
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_hl_prints_provenance(capsys):
    code, out, _ = run(capsys, "hl", "P4", "--n", "4", "--steps", "2")
    assert code == EXIT_OK
    assert "provenance" in out
    assert "0 <- 0-1" in out


def test_search_min_report(capsys):
    code, out, _ = run(capsys, "search-min", "--n", "4", "--vmax", "5")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["counts"]["yes"] == 3
    assert report["expected_missing"] == []


def test_conjecture_report(capsys):
    code, out, _ = run(
        capsys, "conjecture", "minimal-implies-unicyclic", "--n", "4", "--vmax", "5"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["status"] == "no-counterexample-within-bounds"


def test_cache_stats_and_clear(capsys, tmp_path):
    code, out, _ = run(capsys, "classify", "C6", "--n", "4")
    assert code == EXIT_OK
    code, out, _ = run(capsys, "cache", "stats")
    assert code == EXIT_OK
    assert json.loads(out)["entries"] == 1
    code, out, _ = run(capsys, "cache", "clear")
    assert code == EXIT_OK
    code, out, _ = run(capsys, "cache", "stats")
    assert json.loads(out)["entries"] == 0


def test_no_cache_flag(capsys):
    code, _, _ = run(capsys, "classify", "C6", "--n", "4", "--no-cache")
    assert code == EXIT_OK
    code, out, _ = run(capsys, "cache", "stats")
    assert json.loads(out)["entries"] == 0


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "classify", "F6", "--n", "5")
    _, second, _ = run(capsys, "classify", "F6", "--n", "5")
    assert first == second
