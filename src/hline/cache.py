"""Persistent, append-only classification cache.

Records are keyed by (canonical code, n) so isomorphic inputs share one
entry.  Outcomes such as "unknown" depend on the tool version, on the
algorithm and on the budgets, so all three key the segment files: a cache
reads only the segments named by its own key, and records written by other
code or under other budgets are never parsed.  The algorithm key is a digest
of the package's own source, so any edit to it invalidates earlier records.

Each process appends to its own segment file, so concurrent sweeps never
contend on writes.  A cache keeps that file open from its first append
until `close`, line-buffered, so every record reaches the file before `put`
returns.  Segments are merged when the cache is first read,
newest record per key winning; `put` reads them too and appends only a
record they do not already hold.  A per-record checksum lets corrupt lines
be skipped with a warning instead of poisoning the cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from pathlib import Path
from typing import TextIO

from .budget import Budget
from .minimality import ClassificationSummary

ENV_CACHE_DIR = "HLINE_CACHE_DIR"

# (code hex, n) -> (timestamp, summary) of the newest record
_Records = dict[tuple[str, int], tuple[int, ClassificationSummary]]


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
    def __init__(self, directory: Path | None, version: str, budget: Budget):
        self.directory = Path(directory) if directory else default_cache_dir()
        self.version = [version, ALGO_KEY]
        self.fingerprint = budget.fingerprint()
        key = _record_sha({"version": self.version, "budget": self.fingerprint})[:16]
        self._prefix = f"seg-{key}-"  # names this instance's segments
        self._records: _Records | None = None  # None until the segments are read
        self._segment: TextIO | None = None  # opened on the first append
        self._skipped = 0
        self.hits = 0  # this instance's lookups; stats() reports the directory
        self.misses = 0

    def _loaded(self) -> _Records:
        if self._records is None:
            self._records = {}
            self._load()
        return self._records

    def _load(self) -> None:
        if not self.directory.is_dir():
            return
        for seg in sorted(self.directory.glob(f"{self._prefix}*.jsonl")):
            try:
                lines = seg.read_text().splitlines()
            except OSError as exc:
                warnings.warn(f"unreadable cache segment {seg}: {exc}")
                continue
            for line in lines:
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                    payload = {k: rec[k] for k in ("key", "value", "version", "budget", "ts")}
                    if _record_sha(payload) != rec["sha"]:
                        raise ValueError("checksum mismatch")
                except (ValueError, KeyError, TypeError):
                    self._skipped += 1
                    warnings.warn(f"skipping corrupt cache record in {seg}")
                    continue
                if rec["version"] != self.version or rec["budget"] != self.fingerprint:
                    continue
                key = (rec["key"][0], int(rec["key"][1]))
                ts = int(rec["ts"])
                old = self._records.get(key)
                if old is None or ts >= old[0]:
                    self._records[key] = (ts, ClassificationSummary.from_json(rec["value"]))

    def get(self, code_hex: str, n: int) -> ClassificationSummary | None:
        hit = self._loaded().get((code_hex, n))
        if hit is None:
            self.misses += 1
            return None
        self.hits += 1
        return hit[1]

    def put(self, code_hex: str, n: int, summary: ClassificationSummary) -> None:
        records = self._loaded()
        old = records.get((code_hex, n))
        if old is not None and old[1] == summary:
            return
        ts = time.time_ns()
        records[(code_hex, n)] = (ts, summary)
        payload = {
            "key": [code_hex, n],
            "value": summary.to_json(),
            "version": self.version,
            "budget": self.fingerprint,
            "ts": ts,
        }
        payload["sha"] = _record_sha(
            {k: payload[k] for k in ("key", "value", "version", "budget", "ts")}
        )
        if self._segment is None:
            self.directory.mkdir(parents=True, exist_ok=True)
            path = self.directory / f"{self._prefix}{os.getpid()}.jsonl"
            self._segment = path.open("a", buffering=1)  # flushed at each newline
        self._segment.write(json.dumps(payload, sort_keys=True) + "\n")

    def close(self) -> None:
        """Close the segment handle; the next `put` opens a new one."""
        if self._segment is not None:
            self._segment.close()
            self._segment = None

    def stats(self) -> dict:
        return {
            "directory": str(self.directory),
            "entries": len(self._loaded()),
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
        self._records = {}
        return removed
