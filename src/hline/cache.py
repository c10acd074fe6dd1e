"""Persistent, append-only classification cache.

Records are keyed by (canonical code, n) so isomorphic inputs share one
entry.  Outcomes such as "unknown" depend on the algorithm and on the
budgets, so both name the segment files: a cache reads only the segments
named by its own key, and records written by other code or under other
budgets are never parsed.  The algorithm key is a digest of the package's
own source (the tool version included), so any edit to it invalidates
earlier records.

Each process appends to its own segment file, so concurrent sweeps never
contend on writes.  A cache keeps that file open from its first append
until `close`, line-buffered, so every record reaches the file before `put`
returns.  The segments are read when the cache opens, and the first record
of each key is kept: under one key classification is deterministic, so all
records of a key agree.  `put` appends only a key the cache does not hold.
A record is its key, its value and a checksum of both; a line that does not
parse or check is skipped with a warning instead of poisoning the cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from pathlib import Path
from typing import TextIO

from .budget import Budget
from .minimality import ClassificationSummary

ENV_CACHE_DIR = "HLINE_CACHE_DIR"


def _source_digest(package: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# Digest of the package source: any edit to it invalidates earlier records.
ALGO_KEY = _source_digest(Path(__file__).parent)


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "hline"


def _record_sha(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class ClassificationCache:
    def __init__(self, directory: Path | None, budget: Budget):
        self.directory = Path(directory) if directory else default_cache_dir()
        key = _record_sha({"algo": ALGO_KEY, "budget": budget.fingerprint()})[:16]
        self._prefix = f"seg-{key}-"  # names this instance's segments
        self._records: dict[tuple[str, int], ClassificationSummary] = {}
        self._segment: TextIO | None = None  # opened on the first append
        self._skipped = 0
        self.hits = 0  # this instance's lookups; stats() reports the directory
        self.misses = 0
        if self.directory.is_dir():
            for seg in sorted(self.directory.glob(f"{self._prefix}*.jsonl")):
                self._read(seg)

    def _read(self, seg: Path) -> None:
        try:
            lines = seg.read_text().splitlines()
        except OSError as exc:
            warnings.warn(f"unreadable cache segment {seg}: {exc}")
            return
        for line in filter(str.strip, lines):
            try:
                rec = json.loads(line)
                if _record_sha({"key": rec["key"], "value": rec["value"]}) != rec["sha"]:
                    raise ValueError("checksum mismatch")
                code_hex, n = rec["key"]
                summary = ClassificationSummary.from_json(rec["value"])
                self._records.setdefault((code_hex, int(n)), summary)
            except (ValueError, KeyError, TypeError):
                self._skipped += 1
                warnings.warn(f"skipping corrupt cache record in {seg}")

    def get(self, code_hex: str, n: int) -> ClassificationSummary | None:
        hit = self._records.get((code_hex, n))
        if hit is None:
            self.misses += 1
        else:
            self.hits += 1
        return hit

    def put(self, code_hex: str, n: int, summary: ClassificationSummary) -> None:
        key = (code_hex, n)
        if key in self._records:
            return
        self._records[key] = summary
        record = {"key": [code_hex, n], "value": summary.to_json()}
        record["sha"] = _record_sha(record)
        if self._segment is None:
            self.directory.mkdir(parents=True, exist_ok=True)
            path = self.directory / f"{self._prefix}{os.getpid()}.jsonl"
            self._segment = path.open("a", buffering=1)  # flushed at each newline
        self._segment.write(json.dumps(record, sort_keys=True) + "\n")

    def close(self) -> None:
        """Close the segment handle; the next `put` opens a new one."""
        if self._segment is not None:
            self._segment.close()
            self._segment = None

    def stats(self) -> dict:
        return {
            "directory": str(self.directory),
            "entries": len(self._records),
            "segments": len(list(self.directory.glob("seg-*.jsonl")))
            if self.directory.is_dir()
            else 0,
            "corrupt_skipped": self._skipped,
        }

    def clear(self) -> int:
        self.close()
        removed = 0
        if self.directory.is_dir():
            for seg in self.directory.glob("seg-*.jsonl"):
                seg.unlink()
                removed += 1
        self._records.clear()
        return removed
