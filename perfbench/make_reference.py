"""Rebuild `reference.json`: the classify input pool and the reference facts.

    python3 perfbench/make_reference.py [--pool-seed 20210708]

Run from the root of a checkout.  It builds the classify pool from the pool
seed, runs every workload once on unrelabeled inputs with the checkout's
`hline`, and stores the label-independent facts of each output.  Review the
diff before committing: the reference is what later runs are held to.  It
refuses to store a pool input whose classification hit a work budget,
because its outcome could then depend on vertex labels.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--pool-seed", type=int, default=workloads.POOL_SEED)
    args = ap.parse_args()
    hline = workloads.load_hline()

    pool = workloads.classify_pool(args.pool_seed)
    for item in pool:
        inp = (item["graph"], item["n"])
        out = workloads.run_op(hline, "classify", inp)
        if out[1].budget_flags:
            raise SystemExit(f"budget flags {out[1].budget_flags} on {item['graph']}")
        f = workloads.facts(hline, "classify", inp, out)
        if f["verified"] is False:
            raise SystemExit(f"certificate does not verify on {item['graph']}")
        item["facts"] = {"outcome": f["outcome"], "N": f["N"], "kind": f["kind"]}

    workdir = workloads.scratch_dir()
    try:
        [(_, cache_dir)] = workloads.build_ops("sweep", 0, 0, workdir, {})
        out = workloads.run_op(hline, "sweep", cache_dir)
        sweep = workloads.facts(hline, "sweep", cache_dir, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    del sweep["exit"]

    reference = {
        "classify": {"pool_seed": args.pool_seed, "pool": pool},
        "sweep": sweep,
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
