"""Benchmark of the hline package: one workload, one run, one result line.

    python3 perfbench/run.py --workload {sweep,classify} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from `src/`.
Every pass of the workload runs in a fresh process (`worker.py`), so a pass
starts from a cold interpreter, a cold in-memory memo and, for `sweep`, an
empty cache directory of its own, and peak RSS belongs to one pass.  Passes
repeat, closed-loop and one at a time, until another pass would likely end
after `--seconds`; there is always at least one.

With `--trace 0` the last stdout line holds the end-to-end metrics of
BENCHMARK.json; with `--trace 1` it holds the per-layer metrics, taken from
one traced pass next to one untraced pass over the same inputs, whose output
fingerprints must agree.  Lines before it are a readable summary.  Metric
names and units come from BENCHMARK.json, so the two cannot drift apart.
End-to-end times are corrected for the host's speed, sampled while each
worker runs (`speed.py`); the summary gives the raw ones too.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402

WORKER = HERE / "worker.py"
SETUP_SAMPLES = 7
# a run must end within 180 s; leave room to report
RUN_LIMIT_S = 170.0

CHECKS = ("long_cycle", "long_tail", "spider", "twin_tail")


class BenchError(RuntimeError):
    pass


def spawn(args: argparse.Namespace, workdir: Path, pass_index: int, deadline: float,
          *flags: str) -> tuple[float, dict]:
    """Run one worker to completion; returns (spawn time, its result)."""
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
        "--pass-index", str(pass_index), "--workdir", str(workdir), *flags,
    ]
    t = time.monotonic()
    if deadline - t <= 0:
        raise BenchError("run time limit reached")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=deadline - t
        )
    except subprocess.TimeoutExpired:
        raise BenchError("run time limit reached inside a pass") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return t, json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, beyond): the highest percentile with at least ten
    samples beyond it, or the maximum when there are too few samples."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def failed_ops(passes: list[dict]) -> tuple[list[dict], list[dict]]:
    """(every op, the ops that raised or contradict the reference)."""
    ops = [op for p in passes for op in p["ops"]]
    return ops, [op for op in ops if op["error"] or op["mismatch"]]


def end_to_end(passes: list[dict], setup: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    """The end-to-end values, with times at reference speed, and summary
    lines that also give the raw times."""
    ops, failed = failed_ops(passes)
    answered = [op for op in ops if not op["error"]]
    decided = sum(op["decided"] for op in answered)
    total = sum(op["total"] for op in answered)
    times = {}
    for kind, op_key, pass_key in (("ref", "ref_s", "pass_ref_s"), ("raw", "s", "pass_s")):
        # per pass, so the tail lands on the same rank of a fixed op set
        # however many passes the run makes
        tails = [tail([op[op_key] * 1000 for op in p["ops"]]) for p in passes]
        times[kind] = (
            statistics.median(p[pass_key] for p in passes),
            statistics.median(op[op_key] * 1000 for op in ops),
            statistics.median(t[0] for t in tails),
        )
    _, pct, beyond = tails[0]
    values = dict(zip(("ref_wall_s", "ref_op_p50_ms", "ref_op_tail_ms"), times["ref"]))
    values.update({
        "ok_share": 1 - len(failed) / len(ops),
        "decided_share": decided / total if total else 0.0,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(s for s, _ in setup),
    })
    notes = [
        f"passes={len(passes)} ops={len(ops)} pass_s={[round(p['pass_s'], 3) for p in passes]}",
        "raw wall_s={:.6g} s, op_p50_ms={:.6g} ms, op_tail_ms={:.6g} ms".format(*times["raw"]),
        f"op tails are the median over passes of each pass's p{pct:.1f}"
        f" ({len(passes[0]['ops'])} ops a pass, {beyond} beyond it)",
        f"setup_s samples={[round(s, 4) for s, _ in setup]},"
        f" raw={[round(r, 4) for _, r in setup]}",
    ]
    return values, notes


def per_layer(layers: dict, traced_s: float, untraced_s: float,
              cache_bytes: int) -> tuple[dict, dict]:
    """Every per-layer quantity of the traced pass by metric name, and the
    useful/attempt ratios (None where nothing was attempted)."""
    get = layers.__getitem__
    out: dict[str, float] = {}
    for name in ("graph.canonical_code", "operator.hl_step",
                 *(f"classify.check_{c}" for c in CHECKS)):
        for field in ("calls", "self_s", "nodes"):
            out[f"{name}.{field}"] = get(name)[field]
    for c in CHECKS:
        name = f"classify.check_{c}"
        out[f"{name}.hits"] = get(name)["hits"]
        out[f"{name}.exhausted"] = get(name)["exhausted"]
    out["graph.is_isomorphic.calls"] = get("graph.is_isomorphic")["calls"]
    for name in ("classify.classify", "minimality.minimality_decision",
                 "io.parse_graph", "io.classification_report"):
        out[f"{name}.calls"] = get(name)["calls"]
        out[f"{name}.self_s"] = get(name)["self_s"]
    enum = get("minimality.enumerate_connected_graphs")
    out["minimality.enumerate_connected_graphs.self_s"] = enum["self_s"]
    out["minimality.enumerate_connected_graphs.children"] = enum["children"].get(
        "graph.canonical_code", 0)
    out["minimality.enumerate_connected_graphs.classes"] = enum["yields"]
    subs = get("minimality.proper_subgraphs")
    out["minimality.proper_subgraphs.self_s"] = subs["self_s"]
    out["minimality.proper_subgraphs.subsets"] = subs["children"].get("graph.canonical_code", 0)
    out["minimality.proper_subgraphs.classes"] = subs["yields"]
    summ = get("minimality.classifier.summary")
    out["minimality.classifier.summary_calls"] = summ["calls"]
    out["minimality.classifier.classify_calls"] = summ["children"].get("classify.classify", 0)
    out["cache.load_s"] = get("cache.load")["self_s"]
    out["cache.get.calls"] = get("cache.get")["calls"]
    out["cache.get.hits"] = get("cache.get")["hits"]
    out["cache.put.calls"] = get("cache.put")["calls"]
    out["cache.put.self_s"] = get("cache.put")["self_s"]
    out["cache.bytes_written"] = cache_bytes

    checks_self = sum(out[f"classify.check_{c}.self_s"] for c in CHECKS)
    traced_self = sum(v["self_s"] for v in layers.values())
    out["graph.canonical_code.share"] = out["graph.canonical_code.self_s"] / traced_s
    out["operator.hl_step.share"] = out["operator.hl_step.self_s"] / traced_s
    out["classify.checks.share"] = checks_self / traced_s
    out["other.self_s"] = traced_s - traced_self
    out["trace.overhead_ratio"] = traced_s / untraced_s

    def ratio(a: str, b: str) -> float | None:
        return out[a] / out[b] if out[b] else None

    ratios = {
        f"classify.check_{c}.hit_ratio": ratio(f"classify.check_{c}.hits",
                                               f"classify.check_{c}.calls")
        for c in CHECKS
    }
    ratios["minimality.enumerate_connected_graphs.accept_ratio"] = ratio(
        "minimality.enumerate_connected_graphs.classes",
        "minimality.enumerate_connected_graphs.children")
    ratios["minimality.proper_subgraphs.accept_ratio"] = ratio(
        "minimality.proper_subgraphs.classes", "minimality.proper_subgraphs.subsets")
    memo = ratio("minimality.classifier.classify_calls", "minimality.classifier.summary_calls")
    ratios["minimality.classifier.memo_hit_ratio"] = None if memo is None else 1 - memo
    ratios["cache.get.hit_ratio"] = ratio("cache.get.hits", "cache.get.calls")
    return out, ratios


def emit(values: dict, wanted: list[dict], attempted: int, failed: int, correct: bool) -> None:
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    # on SIGTERM, unwind through subprocess.run, which kills the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "hline" / "__init__.py").is_file():
        print(f"no hline package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = workloads.scratch_dir()
    workdir.mkdir()
    try:
        if args.trace:
            passes = [spawn(args, workdir, 0, deadline)[1]]
            traced = spawn(args, workdir, 0, deadline, "--trace")[1]
        else:
            setup = []
            for k in range(SETUP_SAMPLES):
                t, r = spawn(args, workdir, k, deadline, "--setup-only")
                own = r["ready"] - t - sum(r["setup_took"])
                setup.append((speed.scale(own, r["setup_took"]), r["ready"] - t))
            passes = []
            walls = []
            start = time.monotonic()
            while True:
                t, r = spawn(args, workdir, len(passes), deadline)
                passes.append(r)
                walls.append(time.monotonic() - t)
                now = time.monotonic()
                expected = now + statistics.median(walls)
                if expected - start > args.seconds or expected > deadline:
                    break
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    counted = passes + [traced] if args.trace else passes
    ops, failed = failed_ops(counted)
    # every reference input succeeds, so an op that raises is as wrong as
    # one that contradicts the reference
    correct = not failed
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    for op in failed:
        print(f"failed op {op['key']}: {op['error'] or op['mismatch']}")
    try:
        if not args.trace:
            values, notes = end_to_end(passes, setup)
            for line in notes:
                print(line)
            emit(values, spec["end_to_end"], len(ops), len(failed), correct)
            return 0
        same = traced["fingerprint"] == passes[0]["fingerprint"]
        print(f"output fingerprints of traced and untraced pass agree: {same}")
        layer_values, ratios = per_layer(
            traced["layers"], traced["pass_s"], passes[0]["pass_s"],
            traced.get("cache_bytes_written", 0))
        for name, value in ratios.items():
            print(f"{name} = {'n/a' if value is None else f'{value:.6g}'}")
        for name in sorted(set(layer_values) - {m["name"] for m in spec["per_layer"]}):
            print(f"{name} = {layer_values[name]:.6g}")
        emit(layer_values, spec["per_layer"], len(ops), len(failed), correct and same)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
