"""Inputs, operations and output checks of the benchmark workloads.

The benchmark owns its inputs: graphs are built here as edge lists, never
taken from `hline.families` or `hline.enumerate_connected_graphs`, so a change
to either cannot change what is measured.  Each pass relabels the vertices of
every input with a permutation drawn from (seed, pass index), so the same
seed always gives the same inputs.

Outputs are compared with `reference.json` on facts that do not depend on
vertex labels (outcome, steps to outcome, certificate kind, minimality
status), so a new canonical form or a different representative is not a
mismatch.  Where the reference is `unknown`, any answer is accepted;
where it decided, the run must give the same decided answer.

This module imports `hline` lazily (through `load_hline`) and calls it only
through module attributes looked up at call time, so the wrappers that
`spans.install` puts in place are the ones that run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_PATH = HERE / "reference.json"

WORKLOADS = ("sweep", "classify")

# The headline user sweep, one size down.  `--vmax 8` takes 20-35 s a pass,
# so a run of BENCHMARK.json's length held one or two passes and the
# machine's speed swings decided its time; `--vmax 7` takes about 2 s, so a
# run takes the median of some 25 passes.  `--jobs 1` keeps the run
# single-process: the benchmark times one closed-loop caller.
SWEEP_ARGV = ["search-min", "--n", "5", "--vmax", "7", "--jobs", "1"]

# Pool of the classify workload, built by `classify_pool(POOL_SEED)`.
# The random graphs of order 8 at n = 9 take 0.3-3 s each and the rest a few
# ms, so the pool's size sets the pass length: 300 graphs took 20 s a pass,
# too few passes in a run for a median to absorb the machine's speed swings;
# 60 take about 5 s.
POOL_SEED = 20210708
POOL_RANDOM = 60
# Orders above 24 are left out: today they raise in classification_report
# (the canonicalization cap), and a benchmark workload must not fail.
POOL_LARGE_ORDERS = (20, 22, 24)
POOL_LARGE_N = 6


def scratch_dir() -> Path:
    """This process's scratch directory inside the checkout (git-ignored)."""
    return ROOT / f".perfbench_tmp-{os.getpid()}"


def load_hline():
    """Import the package from the checkout's `src/`, never an installed copy."""
    import sys

    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import hline
    import hline.cli  # noqa: F401  (the sweep enters through run_cli)

    return hline


# ---------------------------------------------------------------------------
# Graph construction, owned by the benchmark
# ---------------------------------------------------------------------------


def cycle_edges(m: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % m) for i in range(m)]


def tailed_cycle_edges(r: int, m: int) -> list[tuple[int, int]]:
    """An m-cycle on 0..m-1 with a pendant path m..m+r-1 hung off vertex 0."""
    edges = cycle_edges(m) + [(0, m)]
    edges += [(m + i, m + i + 1) for i in range(r - 1)]
    return edges


def _connected(order: int, edges) -> bool:
    adj: list[list[int]] = [[] for _ in range(order)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == order


def random_connected_graph(rng: random.Random, order: int, p: float):
    """G(order, p), redrawn until connected."""
    while True:
        edges = [
            (u, v) for u in range(order) for v in range(u + 1, order) if rng.random() < p
        ]
        if _connected(order, edges):
            return edges


def relabel(order: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    perm = list(range(order))
    rng.shuffle(perm)
    return sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


def edge_list_text(order: int, edges) -> str:
    return f"{order}; " + ", ".join(f"{u}-{v}" for u, v in edges)


def parse_edge_list_text(text: str) -> tuple[int, list[tuple[int, int]]]:
    head, _, tail = text.partition(";")
    edges = []
    for part in tail.split(","):
        u, v = part.strip().split("-")
        edges.append((int(u), int(v)))
    return int(head), edges


def classify_pool(seed: int) -> list[dict]:
    """The classify inputs: random connected graphs of order 6..8 with
    p ~ U[0.25, 1] and n = order + U{-2..1} (at least 4), then cycles and
    2-tailed cycles of the large orders at n = 6."""
    rng = random.Random(seed)
    pool = []
    for _ in range(POOL_RANDOM):
        order = rng.randint(6, 8)
        p = rng.uniform(0.25, 1.0)
        n = max(4, order + rng.randint(-2, 1))
        edges = random_connected_graph(rng, order, p)
        pool.append({"graph": edge_list_text(order, edges), "n": n})
    for order in POOL_LARGE_ORDERS:
        pool.append({"graph": edge_list_text(order, cycle_edges(order)), "n": POOL_LARGE_N})
        pool.append(
            {"graph": edge_list_text(order, tailed_cycle_edges(2, order - 2)), "n": POOL_LARGE_N}
        )
    return pool


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def pass_rng(seed: int, pass_index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + pass_index)


def build_ops(workload: str, seed: int, pass_index: int, workdir: Path, reference: dict):
    """The (key, input) pairs of one pass, in run order."""
    rng = pass_rng(seed, pass_index)
    if workload == "sweep":
        cache_dir = workdir / f"cache-{pass_index}"
        if cache_dir.exists():
            shutil.rmtree(cache_dir)
        cache_dir.mkdir(parents=True)
        return [("sweep", cache_dir)]
    ops = []
    for i, item in enumerate(reference["classify"]["pool"]):
        order, edges = parse_edge_list_text(item["graph"])
        ops.append((i, (edge_list_text(order, relabel(order, edges, rng)), item["n"])))
    return ops


def run_op(hline, workload: str, inp):
    """The timed call of one operation; returns the raw output."""
    if workload == "sweep":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = hline.cli.run_cli(["--cache-dir", str(inp)] + SWEEP_ARGV)
        return code, out.getvalue()
    text, n = inp
    g = hline.parse_graph(text)
    c = hline.classify(g, n)
    report = json.dumps(hline.classification_report(c, g), sort_keys=True)
    return g, c, report


# ---------------------------------------------------------------------------
# Label-independent facts and the comparison with the reference
# ---------------------------------------------------------------------------


def facts(hline, workload: str, inp, out):
    """Label-independent facts of one output, as JSON-ready values.

    For classify this also re-verifies the certificate from its witness;
    the check runs outside the timed region.
    """
    if workload == "sweep":
        code, text = out
        report = json.loads(text)
        records = sorted(
            [r["order"], r["size"], r["outcome"], r["steps_to_outcome"], r["minimal_status"]]
            for r in report["records"]
        )
        return {
            "exit": code,
            "counts": report["counts"],
            "expected_missing": sorted(report["expected_missing"]),
            "records": records,
        }
    g, c, report = out
    kind = c.certificate.kind.value if c.certificate else None
    verified = None
    if c.certificate is not None:
        verified = hline.verify_certificate(g, inp[1], c.certificate)
    return {
        "outcome": c.outcome.value,
        "N": c.steps_to_outcome,
        "kind": kind,
        "verified": verified,
        "report_outcome": json.loads(report)["outcome"],
    }


def decisions(workload: str, f: dict) -> tuple[int, int]:
    """(decided, total) answers in one output's facts."""
    if workload == "sweep":
        counts = f["counts"]
        return counts["yes"] + counts["no"], counts["swept"]
    return int(f["outcome"] != "unknown"), 1


def _sub_multiset(small, big) -> bool:
    need = Counter(map(tuple, small))
    have = Counter(map(tuple, big))
    return all(have[k] >= c for k, c in need.items())


def mismatch(workload: str, f: dict, ref: dict) -> str | None:
    """Why an output contradicts the reference, or None when it agrees."""
    if workload == "sweep":
        if f["exit"] != 0:
            return f"exit code {f['exit']}"
        rc, c = ref["counts"], f["counts"]
        if c["swept"] != rc["swept"] or c["yes"] < rc["yes"] or c["no"] < rc["no"]:
            return f"counts {c} against {rc}"
        if not set(f["expected_missing"]) <= set(ref["expected_missing"]):
            return f"expected_missing {f['expected_missing']}"
        ref_yes = [r for r in ref["records"] if r[4] == "yes"]
        ref_unknown_shapes = [r[:2] for r in ref["records"] if r[4] == "unknown"]
        run_yes = [r for r in f["records"] if r[4] == "yes"]
        if not _sub_multiset(ref_yes, run_yes):
            return "a minimal class of the reference is missing"
        extra = Counter(map(tuple, run_yes)) - Counter(map(tuple, ref_yes))
        new_shapes = [r[:2] for r in extra.elements()]
        run_unknown_shapes = [r[:2] for r in f["records"] if r[4] == "unknown"]
        if not _sub_multiset(new_shapes + run_unknown_shapes, ref_unknown_shapes):
            return "minimal or unknown classes the reference does not allow"
        return None
    if f["verified"] is False:
        return "certificate does not re-verify"
    if f["report_outcome"] != f["outcome"]:
        return "report outcome differs from the classification"
    if ref["outcome"] == "unknown":
        return None
    got = (f["outcome"], f["N"], f["kind"])
    want = (ref["outcome"], ref["N"], ref["kind"])
    return None if got == want else f"{got} against {want}"


def reference_for(workload: str, key, reference: dict) -> dict:
    if workload == "sweep":
        return reference["sweep"]
    return reference["classify"]["pool"][key]["facts"]


def fingerprint(per_op_facts: list) -> str:
    blob = json.dumps(per_op_facts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
