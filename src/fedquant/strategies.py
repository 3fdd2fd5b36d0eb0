"""Client-side local training procedures.

Five variants share one SGD inner loop and differ only in the gradient they
take: plain mini-batch gradients (baseline), plus a kurtosis regularizer
(kure), through additive pseudo-quantization noise (apqn), through a fake
quantizer with straight-through gradients at a fixed bit-width (qat), or at a
bit-width sampled per client from a set (mqat). Every variant keeps
full-precision shadow weights and returns the parameter delta, never absolute
weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergedError, NumericError
from .mlp import (Batch, ParamSet, QuantPlan, act_kure_terms, backward,
                  forward, kure_terms)
from .quantize import (IDENTITY_BITS, SUPPORTED_BITS, StepTable,
                       estimate_range_mse, rescale_step)
from .rng import Purpose, RngStream

STRATEGY_KINDS = ("baseline", "kure", "apqn", "qat", "mqat")
MQAT_MODES = ("per_round", "fixed_per_client")


@dataclass
class StrategyConfig:
    """Which robustness variant a client runs and its knobs.

    ``lam`` weighs the kurtosis regularizer (zero disables it, reducing kure
    to the baseline bitwise); ``train_bits`` is the apqn/qat bit-width;
    ``bit_set`` the mqat sampling set. ``quantize_weights``/``quantize_acts``
    choose which tensor class the quantizer, noise or regularizer targets.
    """

    kind: str = "baseline"
    lam: float = 0.1
    k_tau: float = 1.8
    train_bits: int | None = None
    bit_set: tuple[int, ...] = ()
    mqat_mode: str = "per_round"
    quantize_weights: bool = True
    quantize_acts: bool = False

    def __post_init__(self):
        self.bit_set = tuple(int(b) for b in self.bit_set)
        self.validate()

    def validate(self) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(f"unknown strategy {self.kind!r}")
        if self.kind == "kure" and self.lam < 0:
            raise ConfigError("kurtosis regularizer weight must be >= 0")
        if self.kind in ("apqn", "qat"):
            if self.train_bits is None:
                raise ConfigError(f"{self.kind} needs train_bits")
            if self.train_bits not in SUPPORTED_BITS:
                raise ConfigError(f"unsupported train_bits {self.train_bits}")
        if self.kind == "mqat":
            # singleton sets are legal so mqat over {b} degenerates to the
            # fixed-bit variant exactly
            if len(self.bit_set) < 1:
                raise ConfigError("mqat needs a non-empty bit_set")
            if self.mqat_mode not in MQAT_MODES:
                raise ConfigError(f"unknown mqat_mode {self.mqat_mode!r}")
        for b in self.bit_set:
            if b not in SUPPORTED_BITS:
                raise ConfigError(f"unsupported bit-width {b} in bit_set")
        if self.quantizing and not (self.quantize_weights or self.quantize_acts):
            raise ConfigError(f"{self.kind} must target weights or activations")

    @property
    def quantizing(self) -> bool:
        """True when the strategy needs calibrated step tables."""
        return self.kind in ("apqn", "qat", "mqat")

    def relevant_bits(self) -> tuple[int, ...]:
        if self.kind == "mqat":
            return self.bit_set
        if self.kind in ("apqn", "qat"):
            return (self.train_bits,)
        return ()


@dataclass
class StepTables:
    """Calibrated step tables: one per weight tensor, one per hidden activation."""

    weights: list[StepTable]
    acts: list[StepTable] | None = None


@dataclass
class ClientTask:
    """One client's work order for one round."""

    client_id: int
    round_idx: int
    start_params: ParamSet
    step_tables: StepTables | None
    eta_c: float
    batches: list[Batch]
    rng: RngStream

    def __post_init__(self):
        if self.local_steps < 1 or not self.eta_c > 0:
            raise ConfigError("need at least one batch and eta_c > 0")

    @property
    def local_steps(self) -> int:
        return len(self.batches)


@dataclass
class ClientUpdate:
    """Parameter delta (w_K - w_0, flat) plus the per-step loss trace."""

    client_id: int
    delta: np.ndarray
    local_loss_trace: list[float]
    sampled_bit: int | None = None


def sample_bitwidth(bit_set: tuple[int, ...], rng: RngStream) -> int:
    """Uniform draw from the bit set; the caller scopes the stream's path."""
    if len(bit_set) == 0:
        raise ConfigError("cannot sample from an empty bit set")
    idx = int(rng.integers(len(bit_set), size=1)[0])
    return bit_set[idx]


def resolve_bits(strat: StrategyConfig, round_idx: int, client_id: int,
                 root: RngStream) -> int | None:
    """The bit-width this client trains at this round.

    mqat per_round draws from a (round, client) stream; fixed_per_client from
    a (client) stream only, so every round re-derives the same bit. Returns
    None for strategies without a bit-width.
    """
    if strat.kind in ("apqn", "qat"):
        return strat.train_bits
    if strat.kind == "mqat":
        if strat.mqat_mode == "fixed_per_client":
            stream = root.child(Purpose.BIT_CHOICE, client_id)
        else:
            stream = root.child(Purpose.BIT_CHOICE, round_idx, client_id)
        return sample_bitwidth(strat.bit_set, stream)
    return None


def calibrate_steps(params: ParamSet, bits: tuple[int, ...],
                    calib_batch: Batch | None, quantize_acts: bool,
                    num_candidates: int = 100) -> StepTables:
    """MSE range search at the smallest bit-width, rescaled to fill the table.

    The smallest bit is the most clipping-sensitive, so it anchors the search;
    activation ranges come from one plain forward pass on the calibration
    batch. 32-bit members get no table entry: full precision has no grid.
    """
    real_bits = sorted(b for b in set(bits) if b != IDENTITY_BITS)
    if not real_bits:
        return StepTables(weights=[StepTable() for _ in params.layers],
                          acts=[StepTable() for _ in params.layers[:-1]]
                          if quantize_acts else None)
    anchor = real_bits[0]

    def table_for(tensor: np.ndarray, signed: bool) -> StepTable:
        spec = estimate_range_mse(tensor, anchor, signed=signed,
                                  num_candidates=num_candidates)
        steps = {anchor: spec.step}
        for b in real_bits[1:]:
            steps[b] = rescale_step(spec.step, anchor, b)
        return StepTable(steps)

    weight_tables = [table_for(w, signed=True) for w, _ in params.layers]
    act_tables = None
    if quantize_acts:
        if calib_batch is None:
            raise ConfigError("activation calibration needs a calibration batch")
        _, cache = forward(params, calib_batch)
        act_tables = [table_for(r, signed=False) for r in cache.relu_raw]
    return StepTables(weights=weight_tables, acts=act_tables)


def build_plan(strat: StrategyConfig, tables: StepTables | None,
               bits: int | None) -> QuantPlan:
    """Materialize the forward-pass plan for one client round: noise one
    step wide for apqn, the step's grid for qat and mqat, and the plain plan
    for the other strategies and for 32-bit rounds."""
    if strat.quantizing and tables is None:
        raise ConfigError(f"{strat.kind} needs calibrated step tables")
    if not strat.quantizing or bits == IDENTITY_BITS:
        return QuantPlan()
    if strat.kind == "apqn":
        weights = [t.step_for(bits) for t in tables.weights]
        acts = [t.step_for(bits) for t in tables.acts or []]
    else:
        weights = [t.spec_for(bits, signed=True) for t in tables.weights]
        acts = [t.spec_for(bits, signed=False) for t in tables.acts or []]
    return QuantPlan(weights=weights if strat.quantize_weights else [],
                     acts=acts if strat.quantize_acts else [])


def local_train(task: ClientTask, strat: StrategyConfig,
                sampled_bit: int | None = None) -> ClientUpdate:
    """Run the strategy's K SGD steps and return the resulting delta.

    ``sampled_bit`` must be provided for mqat (the draw happens in
    ``resolve_bits`` so the fixed-per-client path can omit the round index).
    """
    if strat.kind == "mqat" and sampled_bit is None:
        raise ConfigError("mqat requires a sampled bit-width")
    bits = sampled_bit if sampled_bit is not None else (
        strat.train_bits if strat.kind in ("apqn", "qat") else None)
    plan = build_plan(strat, task.step_tables, bits)
    noise_rng = task.rng.child(Purpose.NOISE) if plan.needs_rng else None
    regularize = strat.kind == "kure" and strat.lam != 0.0
    params = task.start_params.copy()
    start_flat = task.start_params.flatten()
    trace: list[float] = []
    # overflow leaves inf/NaN for the next forward or the final check to report
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(task.local_steps):
            try:
                loss, cache = forward(params, task.batches[k], plan, rng=noise_rng)
                extra_act = None
                if regularize and strat.quantize_acts:
                    reg_a, act_grads = act_kure_terms(cache, strat.k_tau)
                    loss += strat.lam * reg_a
                    extra_act = [strat.lam * g for g in act_grads]
                grads = backward(cache, extra_act_grads=extra_act)
                if regularize and strat.quantize_weights:
                    reg_w, reg_grads = kure_terms(params, strat.k_tau)
                    loss += strat.lam * reg_w
                    grads.add_scaled(reg_grads, strat.lam)
            except NumericError as exc:
                raise DivergedError(
                    f"client {task.client_id} diverged at round {task.round_idx}, "
                    f"step {k}: {exc}",
                    round_idx=task.round_idx, client_id=task.client_id) from exc
            params.add_scaled(grads, -task.eta_c)
            trace.append(float(loss))
        delta = params.flatten() - start_flat
    if not (np.all(np.isfinite(delta)) and all(map(math.isfinite, trace))):
        raise DivergedError(f"client {task.client_id} loss or update non-finite",
                            round_idx=task.round_idx, client_id=task.client_id)
    return ClientUpdate(client_id=task.client_id, delta=delta,
                        local_loss_trace=trace, sampled_bit=sampled_bit)
