#!/usr/bin/env python3
"""Re-record ``digests.json``: artifact digests per workload and seed.

Usage, from the root of a checkout:

    python3 perfbench/record_digests.py

Records seed 0 (the frozen trend seed) and one held-out seed, kept out of
benchmark tuning so a later claim can be re-checked on it. Each workload runs
at ``--threads 1`` and at its own thread count; the two must write identical
artifacts, or nothing is recorded. Only re-record when a change is meant to
alter the artifacts.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
from workloads import BENCHMARK_WORKLOADS, WORKLOADS

HELD_OUT_SEED = 1729


def main() -> int:
    cli = run.load_fedquant()
    tmp = os.path.join(run.ROOT, ".bench_out", f"record-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    digests: dict = {}
    try:
        for name in BENCHMARK_WORKLOADS:
            workload = WORKLOADS[name]
            for seed in (0, HELD_OUT_SEED):
                bench = run.Bench(cli, workload, seed, tmp, recorded={})
                if bench.run_reference():
                    bench.call(workload.threads)
                if bench.errors:
                    print(f"{name} seed {seed}: {bench.errors[0]}", file=sys.stderr)
                    return 1
                digests.setdefault(name, {})[str(seed)] = bench.reference
                print(f"{name} seed {seed}: threads 1 and {workload.threads} agree")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(run.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump({"held_out_seed": HELD_OUT_SEED, "digests": digests}, fh,
                  indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
