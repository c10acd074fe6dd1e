import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import hline.cache as cache_module
from hline.budget import Budget
from hline.cache import ClassificationCache, _record_sha
from hline.classify import Outcome
from hline.cli import run_cli
from hline.minimality import ClassificationSummary

SUMMARY = ClassificationSummary(Outcome.CONVERGED, 2, None)
OTHER = ClassificationSummary(Outcome.TERMINATED, 3, None)


# checksum-valid values that are no summary
MALFORMED_VALUES = pytest.mark.parametrize(
    "value",
    [{}, {"outcome": "bogus", "steps_to_outcome": 2, "certificate_kind": None}],
    ids=["empty", "bogus-outcome"],
)

_opened: list[ClassificationCache] = []


def cache_at(tmp_path, budget=Budget()):
    cache = ClassificationCache(tmp_path, budget)
    _opened.append(cache)
    return cache


@pytest.fixture(autouse=True)
def close_caches():
    yield
    while _opened:
        _opened.pop().close()


def test_put_then_get(tmp_path):
    cache = cache_at(tmp_path)
    cache.put("abcd", 5, SUMMARY)
    assert cache.get("abcd", 5) == SUMMARY


def test_get_on_empty_cache_misses(tmp_path):
    cache = cache_at(tmp_path)
    assert cache.get("abcd", 5) is None
    assert cache.misses == 1


def test_round_trip_through_disk(tmp_path):
    cache_at(tmp_path).put("abcd", 5, SUMMARY)
    again = cache_at(tmp_path)
    assert again.get("abcd", 5) == SUMMARY


def test_other_algorithm_version_treated_as_miss(tmp_path, monkeypatch):
    monkeypatch.setattr(cache_module, "ALGO_KEY", "0" * 64)
    cache_at(tmp_path).put("abcd", 5, SUMMARY)
    monkeypatch.undo()
    reopened = cache_at(tmp_path)
    assert reopened.get("abcd", 5) is None
    assert reopened.stats()["corrupt_skipped"] == 0


def test_segments_of_other_code_are_never_parsed(tmp_path, monkeypatch):
    monkeypatch.setattr(cache_module, "ALGO_KEY", "0" * 64)
    cache_at(tmp_path).put("abcd", 5, SUMMARY)
    monkeypatch.undo()
    seg = next(tmp_path.glob("seg-*.jsonl"))
    seg.write_text(seg.read_text() + "not json at all\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reopened = cache_at(tmp_path)
        assert reopened.get("abcd", 5) is None
    assert reopened.stats()["corrupt_skipped"] == 0


def test_algo_key_follows_the_package_source(tmp_path):
    package = Path(cache_module.__file__).parent
    keys = {}
    # io.py holds TOOL_VERSION, so a version bump changes the key too
    for edited in (None, "operator.py", "io.py"):
        copy = tmp_path / str(edited) / "hline"
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        if edited:
            with (copy / edited).open("ab") as fh:
                fh.write(b" ")
        out = subprocess.run(
            [sys.executable, "-c", "import hline.cache; print(hline.cache.ALGO_KEY)"],
            env={**os.environ, "PYTHONPATH": str(copy.parent)},
            capture_output=True, text=True, check=True,
        )
        keys[edited] = out.stdout.strip()
    assert keys[None] == cache_module.ALGO_KEY  # the digest does not depend on the path
    assert len(set(keys.values())) == 3


def test_different_budget_treated_as_miss(tmp_path):
    cache_at(tmp_path, budget=Budget(max_iter=10)).put("abcd", 5, SUMMARY)
    assert cache_at(tmp_path, budget=Budget(max_iter=30)).get("abcd", 5) is None


def write_record(seg, key, value):
    record = {"key": key, "value": value}
    record["sha"] = _record_sha(record)
    with seg.open("a") as fh:
        fh.write(json.dumps(record) + "\n")


def test_first_record_is_kept(tmp_path):
    cache = cache_at(tmp_path)
    cache.put("abcd", 5, SUMMARY)
    cache.put("abcd", 5, OTHER)  # the cache holds the key: nothing is appended
    [seg] = tmp_path.glob("seg-*.jsonl")
    assert len(seg.read_text().splitlines()) == 1
    write_record(seg, ["abcd", 5], OTHER.to_json())
    reopened = cache_at(tmp_path)
    assert reopened.get("abcd", 5) == SUMMARY
    assert reopened.stats()["entries"] == 1


def test_keys_distinguish_n(tmp_path):
    cache = cache_at(tmp_path)
    cache.put("abcd", 5, SUMMARY)
    assert cache.get("abcd", 6) is None


def test_corrupt_records_skipped_with_warning(tmp_path):
    cache = cache_at(tmp_path)
    cache.put("abcd", 5, SUMMARY)
    seg = next(tmp_path.glob("seg-*.jsonl"))
    lines = seg.read_text().splitlines()
    record = json.loads(lines[0])
    record["value"]["outcome"] = "terminated"  # checksum now stale
    seg.write_text(json.dumps(record) + "\nnot json at all\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        reopened = cache_at(tmp_path)
    assert reopened.get("abcd", 5) is None
    assert reopened.stats()["corrupt_skipped"] == 2
    assert len(caught) == 2


def test_opening_a_cache_reads_its_segments(tmp_path):
    cache_at(tmp_path).put("abcd", 5, SUMMARY)
    [seg] = tmp_path.glob("seg-*.jsonl")
    seg.write_text(seg.read_text() + "not json at all\n")
    with pytest.warns(UserWarning, match="skipping corrupt cache record"):
        reopened = cache_at(tmp_path)
    # counted before any lookup
    assert reopened.stats()["entries"] == 1
    assert reopened.stats()["corrupt_skipped"] == 1


@MALFORMED_VALUES
def test_malformed_value_with_a_valid_checksum_is_skipped(tmp_path, value):
    cache_at(tmp_path).put("abcd", 5, SUMMARY)
    [seg] = tmp_path.glob("seg-*.jsonl")
    write_record(seg, ["beef", 5], value)
    with pytest.warns(UserWarning, match="skipping corrupt cache record"):
        reopened = cache_at(tmp_path)
    assert reopened.get("beef", 5) is None
    assert reopened.get("abcd", 5) == SUMMARY
    assert reopened.stats()["corrupt_skipped"] == 1


@MALFORMED_VALUES
def test_sweep_on_a_malformed_record_prints_the_uncached_bytes(tmp_path, capsys, value):
    argv = ["search-min", "--n", "4", "--vmax", "5"]
    assert run_cli([*argv, "--no-cache"]) == 0
    uncached = capsys.readouterr().out
    cache_dir = str(tmp_path / "c")
    assert run_cli([*argv, "--cache-dir", cache_dir]) == 0
    capsys.readouterr()
    [seg] = (tmp_path / "c").glob("seg-*.jsonl")
    lines = seg.read_text().splitlines()
    seg.write_text("\n".join(lines[1:]) + "\n")
    write_record(seg, json.loads(lines[0])["key"], value)
    with pytest.warns(UserWarning, match="skipping corrupt cache record"):
        code = run_cli([*argv, "--cache-dir", cache_dir])
    assert code == 0
    assert capsys.readouterr().out == uncached


def test_a_record_holds_key_value_and_checksum(tmp_path):
    cache_at(tmp_path).put("abcd", 5, SUMMARY)
    [seg] = tmp_path.glob("seg-*.jsonl")
    [line] = seg.read_text().splitlines()
    record = json.loads(line)
    assert sorted(record) == ["key", "sha", "value"]
    assert record["key"] == ["abcd", 5] and record["value"] == SUMMARY.to_json()


def test_segments_merge(tmp_path):
    first = cache_at(tmp_path)
    first.put("abcd", 5, SUMMARY)
    seg = next(tmp_path.glob("seg-*.jsonl"))
    other = tmp_path / f"{first._prefix}99999.jsonl"
    value = json.loads(seg.read_text().splitlines()[0])["value"]
    write_record(other, ["beef", 5], value)
    merged = cache_at(tmp_path)
    assert merged.get("abcd", 5) == SUMMARY
    assert merged.get("beef", 5) == SUMMARY
    assert merged.stats()["segments"] == 2


def test_put_skips_a_record_the_segments_hold(tmp_path):
    cache_at(tmp_path).put("abcd", 5, SUMMARY)
    cache_at(tmp_path).put("abcd", 5, SUMMARY)
    lines = [line for seg in tmp_path.glob("seg-*.jsonl") for line in seg.read_text().splitlines()]
    assert len(lines) == 1


def test_each_put_reaches_the_file_before_it_returns(tmp_path):
    cache = cache_at(tmp_path)
    keys = [("abcd", 5), ("abcd", 6), ("beef", 5)]
    for i, key in enumerate(keys):
        cache.put(*key, SUMMARY)
        fresh = cache_at(tmp_path)
        assert all(fresh.get(*k) == SUMMARY for k in keys[: i + 1])
    assert len(list(tmp_path.glob("seg-*.jsonl"))) == 1


def test_clear_closes_the_segment_and_the_next_put_opens_a_new_one(tmp_path):
    cache = cache_at(tmp_path)
    cache.put("abcd", 5, SUMMARY)
    handle = cache._segment
    assert cache.clear() == 1
    assert handle.closed
    cache.put("beef", 5, SUMMARY)
    [seg] = tmp_path.glob("seg-*.jsonl")
    assert len(seg.read_text().splitlines()) == 1
    assert cache_at(tmp_path).get("beef", 5) == SUMMARY


def test_clear(tmp_path):
    cache = cache_at(tmp_path)
    cache.put("abcd", 5, SUMMARY)
    assert cache.clear() == 1
    assert cache.get("abcd", 5) is None
    assert not list(tmp_path.glob("seg-*.jsonl"))


def test_clear_removes_segments_of_every_key_and_format(tmp_path):
    cache_at(tmp_path, budget=Budget(max_iter=10)).put("abcd", 5, SUMMARY)
    (tmp_path / "seg-1.jsonl").write_text("a segment of an older format\n")
    assert cache_at(tmp_path).clear() == 2
    assert not list(tmp_path.glob("seg-*.jsonl"))


def test_env_var_controls_default_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("HLINE_CACHE_DIR", str(tmp_path / "xyz"))
    from hline.cache import default_cache_dir

    assert default_cache_dir() == tmp_path / "xyz"
