"""One pass of one workload, in a process of its own.

    python3 perfbench/worker.py --workload W --seed S --pass-index I \
        --workdir DIR [--trace] [--setup-only]

Prints one JSON object as its last stdout line.  It always holds `ready`,
the `time.monotonic()` reading once the package is imported and the inputs
are built; `run.py` subtracts its spawn time from it to get the set-up time.
With `--setup-only` it also holds `setup_took`, the speed samples taken
until then.  Otherwise it holds the per-op and pass times, raw (less the
speed probe's own time) and, unless `--trace` is given, at reference speed
(see `speed.py`); the label-independent output facts with their comparison
against the reference; the pass's peak RSS and, with `--trace`, the
per-layer summary.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # the probe samples set-up and pass alike; a traced pass goes without
    # it, so that its handler's time is in no span
    probe = SpeedProbe()
    if not args.trace:
        probe.start()
    hline = workloads.load_hline()
    reference = workloads.load_reference()
    ops = workloads.build_ops(
        args.workload, args.seed, args.pass_index, args.workdir, reference
    )
    ready = time.monotonic()
    if args.setup_only:
        probe.stop()
        for _, inp in ops:
            if isinstance(inp, Path):
                shutil.rmtree(inp)
        print(json.dumps({"ready": ready, "setup_took": probe.took}))
        return 0

    tracer = None
    if args.trace:
        from spans import install

        tracer = install(hline)

    results = []
    t_pass = time.monotonic()
    for key, inp in ops:
        t0 = time.monotonic()
        try:
            out, error = workloads.run_op(hline, args.workload, inp), None
        except Exception as exc:  # an op that raises is counted as failed
            out, error = None, repr(exc)
        results.append((key, inp, t0, time.monotonic(), out, error))
    t_end = time.monotonic()
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ops_out = []
    per_op_facts = []
    extra = {}
    for key, inp, t0, t1, out, error in results:
        entry = {"key": key, "s": probe.own(t0, t1), "error": error, "mismatch": None}
        if not args.trace:
            entry["ref_s"] = probe.corrected(t0, t1)
        if error is None:
            f = workloads.facts(hline, args.workload, inp, out)
            ref = workloads.reference_for(args.workload, key, reference)
            entry["mismatch"] = workloads.mismatch(args.workload, f, ref)
            entry["decided"], entry["total"] = workloads.decisions(args.workload, f)
            per_op_facts.append([key, f])
        else:
            per_op_facts.append([key, error])
        if isinstance(inp, Path):
            extra["cache_bytes_written"] = _dir_bytes(inp)
            shutil.rmtree(inp)
        ops_out.append(entry)
    if not args.trace:
        extra["pass_ref_s"] = probe.corrected(t_pass, t_end)

    result = {
        "ready": ready,
        "pass_s": probe.own(t_pass, t_end),
        "peak_rss_mb": peak_rss_mb,
        "ops": ops_out,
        "fingerprint": workloads.fingerprint(per_op_facts),
        "facts": per_op_facts,
        **extra,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
