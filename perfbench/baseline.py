#!/usr/bin/env python3
"""Record the benchmark's baseline in ``perfbench/baseline.json``.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py

For every benchmark workload this runs ``perfbench/run.py`` in a fresh
process per run:

1. a first set of ``--trace 0`` runs, one per seed 0-9;
2. two ``--trace 1`` runs on seed 0, whose count metrics (unit ``count``,
   ``bytes`` or ``GFLOP-computed``) must repeat exactly;
3. a second set of ``--trace 0`` runs over the same seeds.

Per set it prints each end-to-end metric's median over the seeds and its
spread: the distance between the first and third quartiles as a share of
the median. A spread of a third of the metric's bound or more is flagged.
Then it compares the two sets' medians; a change larger than the bound is
marked unresolved. The runs, the summaries, the comparison and the
environment record are written to ``perfbench/baseline.json`` after each
stage. The script exits 1 if a run fails or the counts do not repeat.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

import run
from workloads import BENCHMARK_WORKLOADS

BASELINE_PATH = os.path.join(run.HERE, "baseline.json")
SEEDS = tuple(range(10))
TRACE_SEED = 0
EXACT_UNITS = ("count", "bytes", "GFLOP-computed")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=180, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n"
                         f"{proc.stdout}{proc.stderr}")
    return {name: m["value"] for name, m in json.loads(lines[-1])["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def flag(value: float, bound: float) -> str:
    if value >= bound:
        return "  OVER BOUND"
    return "  over bound/3" if value >= bound / 3 else ""


def run_set(bench: dict, bounds: dict) -> dict:
    """One ``--trace 0`` run per workload and seed, summarised per metric."""
    summary = {"started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    for workload in BENCHMARK_WORKLOADS:
        values: dict[str, list[float]] = {}
        for seed in SEEDS:
            metrics = one_run(workload, seed, bench["run_seconds"], trace=0)
            for name, value in metrics.items():
                values.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            s = spread(vals)
            median = statistics.median(vals)
            summary[workload][name] = {"median": median, "spread": s, "values": vals}
            print(f"  {workload:15s} {name:20s} median {median:12.6g}"
                  f"  spread {s:6.3f}  bound {bounds[name]}{flag(s, bounds[name])}",
                  flush=True)
    return summary


def compare(first: dict, second: dict, bounds: dict) -> dict:
    """Relative change of each median from the first set to the second."""
    out = {}
    for workload in BENCHMARK_WORKLOADS:
        out[workload] = {}
        for name, bound in bounds.items():
            a = first[workload][name]["median"]
            b = second[workload][name]["median"]
            change = (b - a) / a
            out[workload][name] = {"change": change, "bound": bound,
                                   "unresolved": abs(change) > bound}
            print(f"  {workload:15s} {name:20s} {a:12.6g} -> {b:12.6g}"
                  f"  change {change:+7.3f}  bound {bound}{flag(abs(change), bound)}")
    return out


def trace_runs(bench: dict) -> tuple[dict, bool]:
    """Two traced runs per workload on ``TRACE_SEED``; whether counts repeat."""
    exact = [m["name"] for m in bench["per_layer"] if m["unit"] in EXACT_UNITS]
    out, ok = {}, True
    for workload in BENCHMARK_WORKLOADS:
        runs = [one_run(workload, TRACE_SEED, bench["run_seconds"], trace=1)
                for _ in range(2)]
        differ = [name for name in exact if runs[0][name] != runs[1][name]]
        ok = ok and not differ
        out[workload] = {"seed": TRACE_SEED, "runs": runs, "counts_differ": differ}
        print(f"{workload} traced twice: " +
              (f"counts differ: {differ}" if differ else
               f"all {len(exact)} count metrics repeat exactly"), flush=True)
    return out, ok


def write(doc: dict) -> None:
    with open(BASELINE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def main() -> int:
    with open(run.BENCHMARK_JSON, encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    run.load_fedquant()  # pins the BLAS threads the record reports
    env = run.environment()
    env["cpu_model"] = cpu_model()
    doc = {"environment": env, "seeds": list(SEEDS),
           "run_seconds": bench["run_seconds"], "sets": []}
    print("set 1", flush=True)
    doc["sets"].append(run_set(bench, bounds))
    write(doc)
    doc["trace"], counts_repeat = trace_runs(bench)
    write(doc)
    print("set 2", flush=True)
    doc["sets"].append(run_set(bench, bounds))
    print("set 2 against set 1")
    doc["set_agreement"] = compare(*doc["sets"], bounds)
    write(doc)
    return 0 if counts_repeat else 1


if __name__ == "__main__":
    sys.exit(main())
