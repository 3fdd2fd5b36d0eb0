#!/usr/bin/env python3
"""Self-test of the benchmark harness, on the seconds-long smoke workload.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Asserts that
* ``run.py --trace 0`` and ``--trace 1`` end with a result line naming every
  end-to-end, respectively per-layer, metric of ``BENCHMARK.json`` with its
  unit, and that the smoke run is correct;
* a deliberately wrong reference digest marks the run as failed;
* without the program's sources the benchmark exits non-zero and prints no
  result.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import run

SMOKE = ["--workload", "smoke", "--seed", "3", "--seconds", "1"]


def bench_cmd(root: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=180,
                          check=False)


def check_emitted(trace: int, expected: list[dict]) -> None:
    proc = bench_cmd(run.ROOT, *SMOKE, "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2, result
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    assert got == want, f"trace {trace}: emitted {got}, expected {want}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
    print(f"ok: --trace {trace} emits all {len(want)} metrics with units")


def check_wrong_digest() -> None:
    wrong = {name: "0" * 64 for name in run.ARTIFACTS}
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main([*SMOKE, "--trace", "0"], recorded={"smoke": {"3": wrong}})
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code != 0 and not result["correct"] and result["failed"] >= 1, result
    print("ok: a wrong reference digest fails the run")


def check_without_sources() -> None:
    bare = os.path.join(run.ROOT, ".bench_out", f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench_cmd(bare, *SMOKE, "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok: without sources the benchmark exits", proc.returncode, "and prints no result")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    check_emitted(0, bench["end_to_end"])
    check_emitted(1, bench["per_layer"])
    check_wrong_digest()
    check_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
