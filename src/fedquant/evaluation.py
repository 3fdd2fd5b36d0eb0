"""Post-training bit-width sweep of the global model and report emission.

For strategies that trained against a quantizer the sweep reuses the training
step tables (rescaling to bit-widths that were never trained); for everything
else it runs a fresh MSE range search on the final weights. Activation grids
are rebuilt the same way from the calibration batch. Reports serialize to a
stable CSV (`strategy,weight_bits,act_bits,accuracy,loss`, missing bits
written as `-`) and to JSON including run metadata.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import ConfigError
from .federation import ServerState
from .mlp import Batch, ParamSet, mean_cross_entropy, predict_logits, forward
from .quantize import (IDENTITY_BITS, SUPPORTED_BITS, QuantSpec,
                       estimate_range_mse, quantize)
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

    def label(self) -> str:
        if self.act_bits is None:
            return f"W-{self.weight_bits}"
        if self.weight_bits is None:
            return f"A-{self.act_bits}"
        return f"WA-{self.weight_bits}/{self.act_bits}"


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


def _weight_specs(state: ServerState, strat: StrategyConfig, bits: int,
                  exempt_first_last: bool = False) -> list[QuantSpec | None]:
    """Per-layer weight specs for an eval bit-width."""
    n = state.params.num_layers
    reuse = (strat.quantizing and strat.quantize_weights
             and state.step_tables is not None
             and all(t.steps for t in state.step_tables.weights))
    if reuse:
        specs = [t.spec_for(bits, signed=True) for t in state.step_tables.weights]
    else:
        specs = [estimate_range_mse(w, bits, signed=True)
                 for w, _ in state.params.layers]
    if exempt_first_last:
        specs[0] = None
        specs[n - 1] = None
    return specs


def _act_specs(state: ServerState, strat: StrategyConfig, bits: int,
               params_for_calib: ParamSet, calib_batch: Batch
               ) -> list[QuantSpec | None]:
    reuse = (strat.quantizing and strat.quantize_acts
             and state.step_tables is not None
             and state.step_tables.acts is not None
             and all(t.steps for t in state.step_tables.acts))
    if reuse:
        return [t.spec_for(bits, signed=False) for t in state.step_tables.acts]
    _, cache = forward(params_for_calib, calib_batch)
    return [estimate_range_mse(r, bits, signed=False) for r in cache.relu_raw]


def quantize_for_eval(state: ServerState, bc: BitConfig, strat: StrategyConfig,
                      calib_batch: Batch | None = None,
                      exempt_first_last: bool = False
                      ) -> tuple[ParamSet, list[QuantSpec | None] | None]:
    """Materialize quantized parameters and activation specs for one config.

    ``exempt_first_last`` leaves the first and last weight matrices at full
    precision (a common deployment concession); the default quantizes every
    layer including the classifier head.
    """
    if bc.weight_bits is not None and bc.weight_bits != IDENTITY_BITS:
        specs = _weight_specs(state, strat, bc.weight_bits, exempt_first_last)
        layers = [(w if s is None else quantize(w, s), b.copy())
                  for (w, b), s in zip(state.params.layers, specs)]
        params = ParamSet(layers)
    else:
        params = state.params.copy()
    act_specs = None
    if bc.act_bits is not None and bc.act_bits != IDENTITY_BITS:
        if calib_batch is None:
            raise ConfigError("activation sweeps need a calibration batch")
        act_specs = _act_specs(state, strat, bc.act_bits, params, calib_batch)
    return params, act_specs


def evaluate(params: ParamSet, act_specs: list[QuantSpec | None] | None,
             dataset: Dataset) -> tuple[float, float]:
    """Top-1 accuracy (argmax ties go to the lowest class) and mean CE loss."""
    if dataset.size == 0:
        raise ConfigError("cannot evaluate on an empty dataset")
    logits = predict_logits(params, dataset.inputs, act_specs)
    acc = float(np.mean(np.argmax(logits, axis=1) == dataset.labels))
    return acc, mean_cross_entropy(logits, dataset.labels)


def sweep(state: ServerState, strat: StrategyConfig,
          bit_configs: list[BitConfig], dataset: Dataset,
          calib_batch: Batch | None = None,
          metadata: dict | None = None,
          exempt_first_last: bool = False) -> EvalReport:
    """Evaluate every requested bit config (duplicates dropped with a warning)."""
    seen: set[BitConfig] = set()
    report = EvalReport(metadata=dict(metadata or {}))
    for bc in bit_configs:
        if bc in seen:
            warnings.warn(f"duplicate bit config {bc.label()} skipped")
            continue
        seen.add(bc)
        params, act_specs = quantize_for_eval(state, bc, strat, calib_batch,
                                              exempt_first_last)
        acc, loss = evaluate(params, act_specs, dataset)
        report.rows.append(EvalRow(strategy=strat.kind,
                                   weight_bits=bc.weight_bits,
                                   act_bits=bc.act_bits,
                                   accuracy=acc, loss=loss))
    return report
