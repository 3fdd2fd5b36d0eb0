"""Benchmark workloads: experiment configs generated from a seed.

Every workload is a `fedquant run` config plus the thread count it runs at.
The seed becomes the config's ``seed``, so one benchmark seed fixes the data,
the partition, the initial model and every client draw. Seed 0 is the seed of
the frozen trend configs in ``configs/``.

All three benchmark workloads use a Dirichlet(1) split over 100 clients,
10 clients per round, an Adam server (eta_s=1e-2, eps=1e-8), eta_c=0.1 and
one local epoch per round. They differ in the layer that dominates a round:

* ``trend-baseline``: per-op Python overhead (20x32 @ 32x64 products); the
  quantizer is idle in training and the sweep runs a fresh MSE range search
  for every weight and activation bit.
* ``trend-mqat``: adds the fake quantizer, STE masks and per-client bit draws
  to every step and runs the two-thread pool, as the acceptance trend fixture
  does; the sweep reuses the training step tables.
* ``wide-apqn``: BLAS matmuls and bulk noise draws dominate (a 76k-parameter
  model, 2500 samples per class), and the checkpoint is a multi-megabyte JSON.

``smoke`` is the self-test workload, sized like ``configs/smoke.json``; it is
not one of the benchmark's measured workloads.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

SWEEP_BITS = [32, 8, 6, 4, 3, 2]

_TREND = {
    "data": {"num_classes": 10, "dim": 32, "samples_per_class": 500,
             "class_separation": 2.7, "alpha": 1.0},
    "model": {"hidden": [64]},
    "federation": {"total_rounds": 100, "num_clients": 100,
                   "clients_per_round": 10, "eta_s": 0.01, "eta_c": 0.1,
                   "batch_size": 20, "server_opt": "adam", "adam_eps": 1e-8,
                   "eval_every": 50},
}


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    doc: dict

    def config(self, seed: int) -> dict:
        """The run config for ``seed``; a fresh copy the caller may keep."""
        doc = copy.deepcopy(self.doc)
        doc["seed"] = int(seed)
        return doc

    @property
    def rounds(self) -> int:
        return self.doc["federation"]["total_rounds"]


def _merge(base: dict, **sections) -> dict:
    doc = copy.deepcopy(base)
    for key, value in sections.items():
        if isinstance(value, dict) and isinstance(doc.get(key), dict):
            doc[key].update(value)
        else:
            doc[key] = value
    return doc


WORKLOADS = {w.name: w for w in (
    Workload("trend-baseline", threads=1, doc=_merge(
        _TREND,
        strategy={"kind": "baseline"},
        eval={"weight_bits": SWEEP_BITS, "act_bits": SWEEP_BITS,
              "wa_bits": SWEEP_BITS})),
    Workload("trend-mqat", threads=2, doc=_merge(
        _TREND,
        strategy={"kind": "mqat", "bit_set": [2, 3, 4, 6, 8, 32]},
        eval={"weight_bits": SWEEP_BITS})),
    # evaluating only in the last round keeps the slower evaluation round
    # well inside the tenth of rounds that round_ms_p90 cuts off
    Workload("wide-apqn", threads=2, doc=_merge(
        _TREND,
        data={"samples_per_class": 2500},
        model={"hidden": [256, 256]},
        federation={"batch_size": 50, "eval_every": 100},
        strategy={"kind": "apqn", "train_bits": 4, "quantize_weights": True,
                  "quantize_acts": True},
        eval={"weight_bits": [32, 8, 4, 2], "wa_bits": [8, 4, 2]})),
    Workload("smoke", threads=2, doc={
        "data": {"num_classes": 3, "dim": 6, "samples_per_class": 20,
                 "class_separation": 3.0, "alpha": 1.0},
        "model": {"hidden": [8]},
        "federation": {"total_rounds": 100, "num_clients": 4,
                       "clients_per_round": 2, "eta_s": 1.0, "eta_c": 0.05,
                       "batch_size": 8, "server_opt": "sgd", "eval_every": 50},
        "strategy": {"kind": "mqat", "bit_set": [2, 4, 32]},
        "eval": {"weight_bits": [32, 2]},
    }),
)}

BENCHMARK_WORKLOADS = ("trend-baseline", "trend-mqat", "wide-apqn")
