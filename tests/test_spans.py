"""The benchmark's span hooks resolve against the package as it stands.

``perfbench/spans.py`` rebinds fedquant functions at the names their callers
look them up by, so a rename or a moved call there breaks ``run.py --trace 1``.
The module is loaded from its file, unchanged.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from fedquant.cli import main

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SPANS_PATH = os.path.join(ROOT, "perfbench", "spans.py")

ROUNDS, PER_ROUND = 2, 2
TRACED = {
    "seed": 3,
    "data": {"num_classes": 3, "dim": 6, "samples_per_class": 20},
    "model": {"hidden": [8]},
    "federation": {"total_rounds": ROUNDS, "num_clients": 4,
                   "clients_per_round": PER_ROUND, "batch_size": 8},
    "strategy": {"kind": "mqat", "bit_set": [2, 4]},
    "eval": {"weight_bits": [32, 2]},
}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


def test_every_span_target_and_clock_hook_resolves():
    seen = []

    def check(where):
        def make(original):
            assert callable(original), where
            seen.append(where)
            return original
        return make

    targets = [(m, p) for m, p, _ in spans.SPAN_TARGETS]
    targets += [(m, p) for m, p, _ in spans.RoundClock().hooks()]
    with spans.patched([(m, p, check(f"{m}.{p}")) for m, p in targets]):
        pass
    assert len(seen) == len(targets)


def test_traced_run_sees_every_client_task(tmp_path):
    """The tracer reads ``client_id`` and ``local_steps`` off each task."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TRACED))
    clock, tracer = spans.RoundClock(), spans.Tracer()
    with spans.patched(clock.hooks() + tracer.hooks(clock)):
        assert main(["run", "--config", str(cfg), "--quiet",
                     "--out", str(tmp_path / "out")]) == 0
    records = tracer.take()
    tasks = [r for r in records if r[spans.NAME] == "strategies.local_train"]
    assert len(tasks) == ROUNDS * PER_ROUND
    assert all(r[spans.CLIENT] in range(4) and r[spans.AUX] >= 1 for r in tasks)
    names = {r[spans.NAME] for r in records}
    assert {"mlp.forward", "mlp.backward", "quantize.fake_quant", "quantize.ste",
            "tensors.matmul", "mlp.predict_logits"} <= names
    assert len(clock.round_seconds()) == ROUNDS


@pytest.mark.parametrize("strategy,derived_per_client", [
    ({"kind": "mqat", "bit_set": [2, 4]}, 2),
    ({"kind": "apqn", "train_bits": 4}, 2),
    ({"kind": "qat", "train_bits": 2}, 1),
    ({"kind": "apqn", "train_bits": 32}, 1),
], ids=["mqat", "apqn", "qat", "apqn-32"])
def test_span_granularity_is_pinned(strategy, derived_per_client, tmp_path):
    """Each per-layer metric counts one call per unit of work: one forward and
    one backward per local step, two matmuls per forward (the two layers of
    ``TRACED``) and one stream derivation per client and round for each of
    batch, noise (only for a plan that draws noise: apqn below 32 bits) and
    bit choice (mqat only). The next round's
    client-sampling stream is derived before ``sample_clients`` starts that
    round, so it counts to this one."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**TRACED, "strategy": strategy}))
    clock, tracer = spans.RoundClock(), spans.Tracer()
    with spans.patched(clock.hooks() + tracer.hooks(clock)):
        assert main(["run", "--config", str(cfg), "--quiet",
                     "--out", str(tmp_path / "out")]) == 0
    records = tracer.take()
    name, parent, rnd = spans.NAME, spans.PARENT, spans.ROUND

    def under(rec, outer):
        return rec[parent] is not None and rec[parent][name] == outer

    tasks = [r for r in records if r[name] == "strategies.local_train"]
    steps = sum(r[spans.AUX] for r in tasks)
    for inner in ("mlp.forward", "mlp.backward"):
        assert sum(under(r, "strategies.local_train") for r in records
                   if r[name] == inner) == steps
    forwards = [r for r in records if r[name] == "mlp.forward"
                and under(r, "strategies.local_train")]
    for fwd in forwards:
        assert sum(r[parent] is fwd for r in records
                   if r[name] == "tensors.matmul") == 2
    derived = [sum(r[name] == "rng.init" and r[rnd] == t for r in records)
               for t in range(ROUNDS)]
    per_round = derived_per_client * PER_ROUND
    assert derived == [per_round + 1] * (ROUNDS - 1) + [per_round]


def test_benchmark_selftest_passes():
    """``perfbench/selftest.py`` runs ``run.py --trace 0`` and ``--trace 1``
    on the smoke workload, so a package change that breaks the benchmark or
    its tracer fails here too."""
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600,
                          check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
