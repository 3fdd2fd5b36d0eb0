"""Post-training bit-width sweep of the global model and report emission.

Each bit config becomes a ``QuantPlan``, the description training uses,
which ``mlp.predict_logits`` runs on the global parameters. For strategies that trained against a quantizer the sweep reuses the training
step tables (rescaling to bit-widths that were never trained); for everything
else it runs a fresh MSE range search on the final weights. Activation grids
are rebuilt the same way from the calibration batch. Reports serialize to a
stable CSV (`strategy,weight_bits,act_bits,accuracy,loss`, missing bits
written as `-`) and to JSON including run metadata.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import ConfigError
from .federation import ServerState
from .mlp import Batch, ParamSet, QuantPlan, forward, predict_logits, score
from .quantize import (IDENTITY_BITS, SUPPORTED_BITS, QuantSpec, StepTable,
                       estimate_range_mse)
from .strategies import StrategyConfig


@dataclass(frozen=True)
class BitConfig:
    """Which tensor classes get quantized and how many bits each."""

    weight_bits: int | None = None
    act_bits: int | None = None

    def __post_init__(self):
        if self.weight_bits is None and self.act_bits is None:
            raise ConfigError("a bit config must set weight or activation bits")
        for v in (self.weight_bits, self.act_bits):
            if v is not None and v not in SUPPORTED_BITS:
                raise ConfigError(f"unsupported bit-width {v}")


@dataclass
class EvalRow:
    strategy: str
    weight_bits: int | None
    act_bits: int | None
    accuracy: float
    loss: float


@dataclass
class EvalReport:
    rows: list[EvalRow] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def to_csv(self, path: str) -> None:
        def cell(v):
            return "-" if v is None else str(v)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("strategy,weight_bits,act_bits,accuracy,loss\n")
            for r in self.rows:
                fh.write(f"{r.strategy},{cell(r.weight_bits)},{cell(r.act_bits)},"
                         f"{r.accuracy!r},{r.loss!r}\n")

    def to_json_dict(self) -> dict:
        return {
            "metadata": self.metadata,
            "rows": [{"strategy": r.strategy, "weight_bits": r.weight_bits,
                      "act_bits": r.act_bits, "accuracy": r.accuracy,
                      "loss": r.loss} for r in self.rows],
        }

    def to_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")


def _trained_tables(state: ServerState, strat: StrategyConfig,
                    acts: bool) -> list[StepTable] | None:
    """The training step tables of the weights (or activations) when the sweep
    reuses them: the strategy trained that tensor class against a quantizer
    and every table holds a step. None means a fresh range search."""
    tables = state.step_tables
    if not strat.quantizing or tables is None:
        return None
    targeted, entries = ((strat.quantize_acts, tables.acts) if acts
                         else (strat.quantize_weights, tables.weights))
    if targeted and entries is not None and all(t.steps for t in entries):
        return entries
    return None


def _weight_specs(state: ServerState, strat: StrategyConfig, bits: int,
                  exempt_first_last: bool = False) -> list[QuantSpec | None]:
    """Per-layer weight specs for an eval bit-width; exempt layers get None
    without a search."""
    last = state.params.num_layers - 1
    trained = _trained_tables(state, strat, acts=False)

    def spec(i: int, w: np.ndarray) -> QuantSpec | None:
        if exempt_first_last and i in (0, last):
            return None
        if trained is not None:
            return trained[i].spec_for(bits, signed=True)
        return estimate_range_mse(w, bits, signed=True)

    return [spec(i, w) for i, (w, _) in enumerate(state.params.layers)]


def _act_specs(state: ServerState, strat: StrategyConfig, bits: int,
               weights: list[QuantSpec | None], calib_batch: Batch
               ) -> list[QuantSpec | None]:
    """Per-activation specs for an eval bit-width: the training tables when
    the sweep reuses them, else a search on the activations the calibration
    batch produces under the config's weight grids."""
    trained = _trained_tables(state, strat, acts=True)
    if trained is not None:
        return [t.spec_for(bits, signed=False) for t in trained]
    _, cache = forward(state.params, calib_batch, QuantPlan(weights=weights))
    return [estimate_range_mse(r, bits, signed=False) for r in cache.relu_raw]


def quantize_for_eval(state: ServerState, bc: BitConfig, strat: StrategyConfig,
                      calib_batch: Batch | None = None,
                      exempt_first_last: bool = False,
                      weight_specs: dict[int, list[QuantSpec | None]] | None = None
                      ) -> QuantPlan:
    """The forward-pass plan that evaluates ``state.params`` at one config.

    The plan holds each weight's and each hidden activation's grid (an
    empty list for a side the config leaves at full precision); no
    parameter is copied. ``exempt_first_last`` leaves the first and last
    weight matrices at full precision (a common deployment concession); the
    default quantizes every layer including the classifier head.
    ``weight_specs`` maps weight bit-widths to specs already found for this
    state, strategy and exemption; a missing entry is computed and stored,
    so configs that share the dict search each weight bit-width once.
    """
    plan = QuantPlan()
    if bc.weight_bits is not None and bc.weight_bits != IDENTITY_BITS:
        if weight_specs is None:
            weight_specs = {}
        if bc.weight_bits not in weight_specs:
            weight_specs[bc.weight_bits] = _weight_specs(
                state, strat, bc.weight_bits, exempt_first_last)
        plan.weights = weight_specs[bc.weight_bits]
    if bc.act_bits is not None and bc.act_bits != IDENTITY_BITS:
        if calib_batch is None:
            raise ConfigError("activation sweeps need a calibration batch")
        plan.acts = _act_specs(state, strat, bc.act_bits, plan.weights,
                               calib_batch)
    return plan


def evaluate(params: ParamSet, plan: QuantPlan,
             dataset: Dataset) -> tuple[float, float]:
    """``mlp.score`` of ``params`` on ``dataset`` under ``plan``'s weight
    and activation grids (``mlp.PLAIN_PLAN`` for full precision)."""
    if dataset.size == 0:
        raise ConfigError("cannot evaluate on an empty dataset")
    return score(predict_logits(params, dataset.inputs, plan), dataset.labels)


def sweep(state: ServerState, strat: StrategyConfig,
          bit_configs: list[BitConfig], dataset: Dataset,
          calib_batch: Batch | None = None,
          metadata: dict | None = None,
          exempt_first_last: bool = False) -> EvalReport:
    """Evaluate ``state.params`` at every requested bit config, in order.

    W and WA rows at the same weight bit-width share one set of weight specs.
    """
    weight_specs: dict[int, list[QuantSpec | None]] = {}
    report = EvalReport(metadata=dict(metadata or {}))
    for bc in bit_configs:
        plan = quantize_for_eval(state, bc, strat, calib_batch,
                                 exempt_first_last, weight_specs)
        acc, loss = evaluate(state.params, plan, dataset)
        report.rows.append(EvalRow(strategy=strat.kind,
                                   weight_bits=bc.weight_bits,
                                   act_bits=bc.act_bits,
                                   accuracy=acc, loss=loss))
    return report
