#!/usr/bin/env python3
"""fedquant benchmark: round latency, throughput and set-up cost per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload trend-baseline --seed 0 --seconds 20 --trace 0

Each workload runs the user path in-process,
``fedquant.cli.main(["run", "--config", <generated>, "--out", <tmp>,
"--threads", N, "--quiet"])``, against the sources under ``src/``.

A run first calls ``cli.main`` once at ``--threads 1`` as the reference and
warm-up, then repeats it at the workload's thread count for ``--seconds``,
and at least ``MIN_CALLS`` times. Every call must exit 0 and write artifacts
whose sha256 digests equal the reference's, which checks thread invariance
on each run; for seeds listed in ``digests.json`` the reference must also
match the recorded digests. A call that raises, exits non-zero or differs
counts as failed.

Every call replays the same 100 rounds. Each phase of a call is timed on
its own: the set-up, each round, the bit-width sweep and the artifact
writes. A phase's time is its fastest over the timed calls, except that a
round that runs a client pool takes its median (see ``round_times``).
``round_ms_p50``/``p90``, ``client_steps_per_s``, ``finish_s`` and
``run_s`` are built from these phase times; ``setup_s`` is the median of
the calls' set-up times. The per-call wall times are printed
too, but are not metrics: on a shared machine they move with the load of
other tenants by more than the bounds.

``--trace 0`` reports the end-to-end metrics, timed with one hook per round.
``--trace 1`` alternates untraced calls with calls traced by the spans in
``spans.py`` and reports the per-layer metrics, including the tracing
overhead. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import spans
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS_PATH = os.path.join(HERE, "digests.json")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
ARTIFACTS = ("history.csv", "eval.csv", "eval.json", "checkpoint.json")
# Each wide-apqn call takes about ten seconds; its phase times need several
# calls to settle
MIN_CALLS = 5
# leaves room under the 180 s a run may take for the reference and the call
# in flight
MAX_MEASURE_S = 100.0


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` lists for the run."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def load_fedquant():
    """Import fedquant from this checkout's ``src/`` with BLAS pinned to one
    thread, so the client thread pool does not oversubscribe the cores."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fedquant", "__init__.py")):
        raise SystemExit(f"error: no fedquant sources under {src}")
    sys.path.insert(0, src)
    import fedquant.cli  # noqa: F401  (registers every layer module)
    return sys.modules["fedquant.cli"]


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}


def digest_dir(out_dir: str) -> dict[str, str]:
    out = {}
    for name in ARTIFACTS:
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check_artifacts(out_dir: str, doc: dict) -> str | None:
    """A reason the artifacts are wrong regardless of digests, or None."""
    f, e = doc["federation"], doc["eval"]
    history_rows = math.ceil(f["total_rounds"] / f["eval_every"])
    eval_rows = sum(len(e.get(k, [])) for k in ("weight_bits", "act_bits", "wa_bits"))
    with open(os.path.join(out_dir, "history.csv"), encoding="utf-8") as fh:
        got = len(fh.read().splitlines()) - 1
    if got != history_rows:
        return f"history.csv has {got} rows, expected {history_rows}"
    with open(os.path.join(out_dir, "eval.json"), encoding="utf-8") as fh:
        rows = json.load(fh)["rows"]
    if len(rows) != eval_rows:
        return f"eval.json has {len(rows)} rows, expected {eval_rows}"
    full = [r for r in rows if r["weight_bits"] == 32 and r["act_bits"] is None]
    chance = 1.0 / doc["data"]["num_classes"]
    if full and not full[0]["accuracy"] >= 2 * chance:
        return f"full-precision accuracy {full[0]['accuracy']} is below twice chance"
    return None


def round_times(calls: list, threads: int) -> list[float]:
    """Per-round times in seconds over the calls, which all replay the same
    rounds: round t's fastest time on one thread, its median with a client
    pool.

    Other tenants of a shared machine slow the program by up to half, in
    bursts from under a second to minutes, and only ever add time. A round
    takes milliseconds, so over a run it almost always runs at least once
    while they leave the cores alone; a whole call rarely does. On one
    thread a round does the same work in the same order in every call, so
    its fastest time is the program's own. With a client pool, how the
    threads take turns at the GIL differs from call to call, and now and
    then a call runs the pool twice as fast as the rest. That spread is the
    program's own cost, which the fastest time would hide, so the median is
    taken. Set-up and finish run no pool and take their fastest time.
    """
    pick = min if threads == 1 else statistics.median
    return [pick(times) for times in zip(*(c.clock.round_seconds() for c in calls))]


class Call:
    """One ``cli.main`` call: its timing marks and whether it was correct."""

    def __init__(self, cli, config_path: str, out_dir: str, threads: int,
                 hooks, clock: spans.RoundClock):
        self.error = None
        self.digests = None
        argv = ["run", "--config", config_path, "--out", out_dir,
                "--threads", str(threads), "--quiet"]
        with spans.patched(hooks):
            self.entry = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception as exc:  # a failed operation, reported below
                rc = None
                self.error = f"cli.main raised {type(exc).__name__}: {exc}"
            self.exit = time.perf_counter()
        self.clock = clock
        if self.error is None and rc != 0:
            self.error = f"cli.main exited {rc}"
        if self.error is None and (clock.run_end is None or clock.sweep_end is None):
            self.error = "federation.run or evaluation.sweep never returned"

    @property
    def ok(self) -> bool:
        return self.error is None


class Bench:
    def __init__(self, cli, workload, seed: int, tmp: str, recorded: dict):
        self.cli = cli
        self.workload = workload
        self.doc = workload.config(seed)
        self.recorded = recorded.get(workload.name, {}).get(str(seed))
        self.config_path = os.path.join(tmp, "config.json")
        self.out_dir = os.path.join(tmp, "out")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.doc, fh)
        self.attempted = 0
        self.timed = "nothing timed"
        self.errors: list[str] = []
        self.reference = None
        import fedquant.config as cfgmod
        data = cfgmod.build_data(cfgmod.validate_config(self.doc))
        batch = self.doc["federation"]["batch_size"]
        self.client_steps = [max(1, math.ceil(a.size / batch)) for a in data.assignment]

    def call(self, threads: int, tracer: spans.Tracer | None = None) -> Call | None:
        """Run ``cli.main`` once and check its artifacts; None if it failed."""
        clock = spans.RoundClock()
        hooks = []
        if tracer is not None:
            hooks += tracer.hooks(clock)
        hooks += clock.hooks()  # outermost, so spans see the new round
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.attempted += 1
        call = Call(self.cli, self.config_path, self.out_dir, threads, hooks, clock)
        if call.ok:
            call.error = check_artifacts(self.out_dir, self.doc)
        if call.ok:
            call.digests = digest_dir(self.out_dir)
            if self.reference is None:
                if self.recorded is not None and call.digests != self.recorded:
                    call.error = "reference artifacts differ from digests.json"
            elif call.digests != self.reference:
                call.error = (f"artifacts at --threads {threads} differ from "
                              "the --threads 1 reference")
        if not call.ok:
            self.errors.append(call.error)
            return None
        return call

    def run_reference(self) -> bool:
        ref = self.call(threads=1)
        if ref is not None:
            self.reference = ref.digests
        return ref is not None

    def steps(self, call: Call) -> int:
        return sum(self.client_steps[int(c)] for chosen in call.clock.selected
                   for c in chosen)

    def _timed_calls(self, seconds: float, min_calls: int, fold=None):
        """Call ``cli.main`` for ``seconds``, and at least ``min_calls`` times.

        With ``fold``, untraced and traced calls alternate in ABBA order and
        ``fold`` receives the spans of each traced call that passed its checks.
        Returns the (untraced, traced) calls that passed.
        """
        tracer = spans.Tracer() if fold is not None else None
        plain: list[Call] = []
        traced: list[Call] = []
        modes = (False, True, True, False) if tracer is not None else (False,)
        start = time.perf_counter()
        n = 0
        while True:
            elapsed = time.perf_counter() - start
            enough = len(plain) >= min_calls and (tracer is None or len(traced) >= min_calls)
            if elapsed >= MAX_MEASURE_S or (elapsed >= seconds and (enough or self.errors)):
                return plain, traced
            with_spans = modes[n % len(modes)]
            n += 1
            call = self.call(self.workload.threads, tracer if with_spans else None)
            taken = tracer.take() if with_spans else None
            if call is not None:
                (traced if with_spans else plain).append(call)
                if with_spans:
                    fold(taken)

    def measure(self, seconds: float) -> dict:
        plain, _ = self._timed_calls(seconds, MIN_CALLS)
        if not plain:
            return {}
        rounds = round_times(plain, self.workload.threads)
        deciles = statistics.quantiles([t * 1e3 for t in rounds], n=10)
        setup = [c.clock.starts[0] - c.entry for c in plain]
        finish = (min(c.clock.sweep_end - c.clock.run_end for c in plain)
                  + min(c.exit - c.clock.sweep_end for c in plain))
        per_call = [c.exit - c.entry for c in plain]
        self.timed = (f"{len(plain)} timed calls of {len(rounds)} rounds each; "
                      f"per-call wall time: median {statistics.median(per_call):.4g} s, "
                      f"fastest {min(per_call):.4g} s")
        return {
            "round_ms_p50": deciles[4],
            "round_ms_p90": deciles[8],
            "client_steps_per_s": self.steps(plain[0]) / sum(rounds),
            "setup_s": statistics.median(setup),
            "finish_s": finish,
            "run_s": min(setup) + sum(rounds) + finish,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def trace(self, seconds: float, spans_path: str) -> dict:
        """Per-layer figures from traced calls, alternated with untraced ones
        to measure the tracing overhead. Only the spans of the last traced
        call are kept, and written to ``spans_path``."""
        stats = spans.LayerStats(self.workload.rounds, self.workload.threads)
        last: list = []

        def fold(taken):
            stats.add(taken)
            last[:] = taken

        plain, traced = self._timed_calls(seconds, 2, fold)
        if not plain or not traced:
            return {}
        spans.write_spans(spans_path, last)
        out = stats.metrics()
        base = statistics.median(round_times(plain, self.workload.threads))
        traced_p50 = statistics.median(round_times(traced, self.workload.threads))
        out["trace.overhead_share"] = (traced_p50 - base) / base
        self.timed = f"{len(traced)} traced and {len(plain)} untraced calls"
        return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, recorded: dict | None = None) -> int:
    args = parse_args(argv)
    cli = load_fedquant()
    units = metric_units(args.trace)
    if recorded is None:
        with open(DIGESTS_PATH, encoding="utf-8") as fh:
            recorded = json.load(fh)["digests"]
    workload = WORKLOADS[args.workload]
    out_root = os.path.join(ROOT, ".bench_out")
    tmp = os.path.join(out_root, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        bench = Bench(cli, workload, args.seed, tmp, recorded)
        metrics = {}
        if bench.run_reference():
            if args.trace:
                spans_path = os.path.join(
                    out_root, f"spans-{workload.name}-seed{args.seed}.jsonl")
                metrics = bench.trace(args.seconds, spans_path)
            else:
                metrics = bench.measure(args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    correct = not bench.errors and set(metrics) == set(units)
    print(f"fedquant benchmark: workload={workload.name} seed={args.seed} "
          f"threads={workload.threads} trace={args.trace} seconds={args.seconds:g}")
    print("environment: " + json.dumps(environment()))
    print(f"cli.main calls: {bench.attempted} attempted, {len(bench.errors)} failed; "
          f"{bench.timed}")
    for error in dict.fromkeys(bench.errors):
        print(f"FAILED: {error}")
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:44s} {metrics[name]:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": len(bench.errors),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
