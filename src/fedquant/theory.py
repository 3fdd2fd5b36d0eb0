"""Numeric side of the convergence analysis.

Evaluates the non-convex convergence bound for quantization-aware federated
training: given smoothness L, gradient-variance bounds, parameter count and
the learning-rate schedule, it computes the constants

    A = K/4 - 2*L*eta_s*eta_c*K^2
    B = 4*eta_s*eta_c*K^2*L^2 + L*eta_s^2*(2*K^2 + K/6)
    Gamma = 24*eta_s*eta_c*K^2*L^2 + L*eta_s^2*K
    H = (4*eta_s / (3*eta_c))*K + 6*L*eta_s^2*K^2

and the bound on the smallest squared gradient norm over T rounds,

    (F1 - F*) / (T*eta_s*eta_c*A)
        + (eta_c / (eta_s*A)) * (B*sigma_l^2 + Gamma*K*sigma_g^2 + H*L^2*D*R^2),

valid when eta_c <= 1/(10*L*K) and eta_c <= 1/(8*L*K*eta_s). The method
enters only through the per-coordinate noise radius R: step/sqrt(12) for
additive uniform noise, step/2 for a rounding quantizer, and the worst
bit-width's step/2 when bits are sampled from a set.

Also hosts Monte-Carlo checks of the quantization-noise assumptions and a
small end-to-end harness verifying that a measured training run stays below
the computed bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import FederatedDataset
from .errors import ConfigError
from .federation import FedConfig, ServerState, step_round
from .mlp import Batch, ParamSet, backward, forward, init_params
from .quantize import SUPPORTED_BITS, QuantSpec, StepTable, quantize
from .rng import Purpose, RngStream
from .strategies import StepTables, StrategyConfig

BOUND_METHODS = ("apqn", "qat", "mqat")


@dataclass
class BoundInputs:
    """Constants and schedule feeding the bound (all positive)."""

    L: float
    sigma_l: float
    sigma_g: float
    D: int
    K: int
    T: int
    eta_c: float
    eta_s: float
    method: str
    steps: tuple[float, ...]
    initial_gap: float

    def __post_init__(self):
        self.steps = tuple(float(s) for s in self.steps)
        if self.method not in BOUND_METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if not (self.L > 0 and self.eta_c > 0 and self.eta_s > 0):
            raise ConfigError("L and learning rates must be positive")
        if not (self.sigma_l >= 0 and self.sigma_g >= 0 and self.initial_gap >= 0):
            raise ConfigError("variances and the initial gap must be >= 0")
        if self.D < 1 or self.K < 1 or self.T < 1:
            raise ConfigError("D, K and T must be >= 1")
        if not self.steps or not all(s > 0 for s in self.steps):
            raise ConfigError("need at least one positive step size")


@dataclass
class BoundReport:
    A: float
    B: float
    Gamma: float
    H: float
    R: float
    conditions_ok: bool
    term_opt: float | None
    term_floor: float | None
    bound: float | None

    def to_dict(self) -> dict:
        return {"A": self.A, "B": self.B, "Gamma": self.Gamma, "H": self.H,
                "R": self.R, "conditions_ok": self.conditions_ok,
                "term_opt": self.term_opt, "term_floor": self.term_floor,
                "bound": self.bound}


def r_value(method: str, steps: tuple[float, ...]) -> float:
    """Per-coordinate noise radius for the given training method."""
    if not steps:
        raise ConfigError("need at least one step size")
    if method == "apqn":
        if len(steps) != 1:
            raise ConfigError("additive-noise training uses one step size")
        return steps[0] / math.sqrt(12.0)
    if method == "qat":
        if len(steps) != 1:
            raise ConfigError("fixed-bit training uses one step size")
        return steps[0] / 2.0
    if method == "mqat":
        return max(steps) / 2.0
    raise ConfigError(f"unknown method {method!r}")


def check_conditions(eta_c: float, eta_s: float, K: int, L: float) -> bool:
    """Learning-rate conditions under which the bound is valid."""
    if min(eta_c, eta_s, L) <= 0 or K < 1:
        raise ConfigError("need positive rates, L and K >= 1")
    return eta_c <= 1.0 / (10.0 * L * K) and eta_c <= 1.0 / (8.0 * L * K * eta_s)


def compute_bound(inp: BoundInputs) -> BoundReport:
    """Evaluate the constants and the two bound terms.

    When the learning-rate conditions fail the report carries
    conditions_ok=False and no bound values.
    """
    L, K = inp.L, float(inp.K)
    ec, es = inp.eta_c, inp.eta_s
    a = K / 4.0 - 2.0 * L * es * ec * K * K
    b = 4.0 * es * ec * K * K * L * L + L * es * es * (2.0 * K * K + K / 6.0)
    gamma = 24.0 * es * ec * K * K * L * L + L * es * es * K
    h = (4.0 * es / (3.0 * ec)) * K + 6.0 * L * es * es * K * K
    r = r_value(inp.method, inp.steps)
    ok = check_conditions(ec, es, inp.K, L)
    if not ok:
        return BoundReport(A=a, B=b, Gamma=gamma, H=h, R=r, conditions_ok=False,
                           term_opt=None, term_floor=None, bound=None)
    if a <= 0.0:
        raise ConfigError("bound undefined: A <= 0 despite learning-rate conditions")
    term_opt = inp.initial_gap / (inp.T * es * ec * a)
    term_floor = (ec / (es * a)) * (b * inp.sigma_l ** 2
                                    + gamma * K * inp.sigma_g ** 2
                                    + h * L * L * inp.D * r * r)
    return BoundReport(A=a, B=b, Gamma=gamma, H=h, R=r, conditions_ok=True,
                       term_opt=term_opt, term_floor=term_floor,
                       bound=term_opt + term_floor)


@dataclass
class NoiseStats:
    """Monte-Carlo measurement of per-draw quantization noise."""

    mean_sq_norm: float
    max_abs: float
    dim: int
    r: float
    passed: bool


def empirical_noise_bound(params: ParamSet, steps: tuple[float, ...], method: str,
                          trials: int, rng: RngStream,
                          mean_slack: float = 0.02) -> NoiseStats:
    """Measure the squared noise norm against the dim * R^2 ceiling.

    Only weight tensors count: biases are never quantized, so the noise
    dimension is the number of quantized coordinates. For rounding methods
    the ceiling is exact on in-range weights, so no slack applies. For
    additive uniform noise the ceiling equals the expectation, so the sampled
    mean sits within Monte-Carlo error of it; ``mean_slack`` (default 2%)
    absorbs that. The per-coordinate check allows a factor 2 for the noise
    method since its R is step/sqrt(12) while the support is step/2 wide.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    flat = np.concatenate([w.ravel() for w in params.weights()])
    dim = flat.size
    r = r_value(method, steps)
    if method == "apqn":
        step = steps[0]
        mean_sq = 0.0
        max_abs = 0.0
        done = 0
        chunk = max(1, min(trials, 2 ** 20 // max(1, dim)))
        while done < trials:
            take = min(chunk, trials - done)
            noise = step * (rng.uniform((take, dim)) - 0.5)
            mean_sq += float(np.sum(noise * noise))
            max_abs = max(max_abs, float(np.max(np.abs(noise))))
            done += take
        mean_sq /= trials
        coord_cap = 2.0 * r
        slack = mean_slack
    else:
        # rounding error is deterministic per step size; compute each once
        per_step = {}
        for s in set(steps):
            err = quantize(flat, _spec_for_weights(flat, s)) - flat
            per_step[s] = (float(err @ err),
                           float(np.max(np.abs(err))) if err.size else 0.0)
        if method == "mqat":
            ordered = tuple(steps)
            draws = rng.integers(len(ordered), size=trials)
            sq = np.array([per_step[s][0] for s in ordered])
            mean_sq = float(np.mean(sq[draws]))
            max_abs = max(per_step[ordered[i]][1] for i in np.unique(draws))
        else:
            mean_sq, max_abs = per_step[steps[0]]
        coord_cap = r
        slack = 0.0
    passed = (mean_sq <= dim * r * r * (1.0 + slack)
              and max_abs <= coord_cap * (1.0 + 1e-12))
    return NoiseStats(mean_sq_norm=mean_sq, max_abs=max_abs, dim=dim, r=r,
                      passed=passed)


def _spec_for_weights(flat: np.ndarray, step: float) -> QuantSpec:
    # smallest supported bit-width whose grid covers the weights, so the
    # rounding error stays within step/2 everywhere
    absmax = float(np.max(np.abs(flat))) if flat.size else 0.0
    for bits in SUPPORTED_BITS[:-1]:
        spec = QuantSpec(bits=bits, step=step)
        if spec.grid_max * step >= absmax:
            break
    return spec


# ---------------------------------------------------------------------------
# sampled estimates of the bound's constants, and the end-to-end dominance check


def _global_loss_grad(params: ParamSet, per_client: list[Batch]
                      ) -> tuple[float, np.ndarray]:
    """Mean over clients of full-batch loss/gradient (equal client weights)."""
    total_loss = 0.0
    total_grad = np.zeros(params.dim)
    for batch in per_client:
        loss, cache = forward(params, batch)
        total_loss += loss
        total_grad += backward(cache).flatten()
    s = len(per_client)
    return total_loss / s, total_grad / s


def estimate_smoothness(params: ParamSet, per_client: list[Batch],
                        num_pairs: int, radius: float, rng: RngStream,
                        inflation: float = 2.0) -> float:
    """Sampled Lipschitz constant of the global gradient, inflated for safety."""
    flat = params.flatten()
    best = 0.0
    for _ in range(num_pairs):
        x = flat + radius * rng.normal(flat.size)
        y = flat + radius * rng.normal(flat.size)
        _, gx = _global_loss_grad(params.unflatten(x), per_client)
        _, gy = _global_loss_grad(params.unflatten(y), per_client)
        denom = float(np.linalg.norm(x - y))
        if denom > 0:
            best = max(best, float(np.linalg.norm(gx - gy)) / denom)
    return inflation * best


def estimate_variances(params: ParamSet, per_client: list[Batch],
                       batch_size: int, num_points: int, radius: float,
                       rng: RngStream, inflation: float = 2.0
                       ) -> tuple[float, float]:
    """Sampled (sigma_l^2, sigma_g^2) upper bounds, inflated for safety."""
    flat = params.flatten()
    worst_local = 0.0
    worst_global = 0.0
    for _ in range(num_points):
        w = params.unflatten(flat + radius * rng.normal(flat.size))
        _, g_global = _global_loss_grad(w, per_client)
        gap_sum = 0.0
        for batch in per_client:
            _, cache = forward(w, batch)
            g_full = backward(cache).flatten()
            gap_sum += float(np.sum((g_full - g_global) ** 2))
            n = batch.size
            for _ in range(3):
                sel = rng.integers(n, size=min(batch_size, n))
                mini = Batch(batch.inputs[sel], batch.labels[sel])
                _, mc = forward(w, mini)
                g_mini = backward(mc).flatten()
                worst_local = max(worst_local,
                                  float(np.sum((g_mini - g_full) ** 2)))
        worst_global = max(worst_global, gap_sum / len(per_client))
    return inflation * worst_local, inflation * worst_global


@dataclass
class BoundCheckResult:
    report: BoundReport
    min_grad_sq: float
    grad_sq_first: float
    grad_sq_last: float
    dominated: bool
    inputs: BoundInputs


def empirical_bound_check(data: FederatedDataset, hidden: tuple[int, ...],
                          train_bits: int, rounds: int, seed: int,
                          batch_size: int = 8, local_steps: int = 5,
                          range_factor: float = 4.0) -> BoundCheckResult:
    """Train with the rounding quantizer at rates satisfying the conditions
    and verify the measured min squared gradient norm stays below the bound.

    Constants are conservative sampled estimates; the quantizer range is set
    generously (range_factor times the initial weight magnitude) so the
    half-step noise assumption holds throughout the run. One-sided check:
    the bound must dominate, tightness is not claimed.
    """
    root = RngStream(seed)
    train = data.base
    widths = [train.inputs.shape[1], *hidden, train.num_classes]
    params0 = init_params(widths, root.child(Purpose.INIT))
    per_client = [Batch(train.inputs[idx], train.labels[idx])
                  for idx in data.assignment]

    est_rng = root.child(Purpose.EVAL)
    L = estimate_smoothness(params0, per_client, num_pairs=8, radius=0.5,
                            rng=est_rng)
    sigma_l_sq, sigma_g_sq = estimate_variances(params0, per_client, batch_size,
                                                num_points=4, radius=0.5,
                                                rng=est_rng)
    eta_s = 1.0
    eta_c = min(1.0 / (10.0 * L * local_steps), 1.0 / (8.0 * L * local_steps * eta_s))

    # one shared generous step per tensor; R uses the largest of them
    absmax = float(np.max(np.abs(params0.flatten())))
    grid_top = 2 ** (train_bits - 1) - 1
    step = range_factor * absmax / grid_top
    tables = StepTables(weights=[StepTable({train_bits: step})
                                 for _ in params0.layers])

    cfg = FedConfig(total_rounds=rounds, num_clients=data.num_clients,
                    clients_per_round=data.num_clients, eta_s=eta_s, eta_c=eta_c,
                    local_steps=local_steps, batch_size=batch_size,
                    server_opt="sgd", seed=seed, eval_every=max(1, rounds))
    strat = StrategyConfig(kind="qat", train_bits=train_bits)

    loss0, g0 = _global_loss_grad(params0, per_client)
    grad_sq = [float(g0 @ g0)]
    state = ServerState(round_idx=0, params=params0, step_tables=tables)
    for t in range(rounds):
        state, _ = step_round(state, cfg, strat, data, root)
        if t < rounds - 1:
            _, g = _global_loss_grad(state.params, per_client)
            grad_sq.append(float(g @ g))

    inputs = BoundInputs(L=L, sigma_l=math.sqrt(sigma_l_sq),
                         sigma_g=math.sqrt(sigma_g_sq), D=params0.dim,
                         K=local_steps, T=rounds, eta_c=eta_c, eta_s=eta_s,
                         method="qat", steps=(step,), initial_gap=loss0)
    report = compute_bound(inputs)
    min_sq = float(np.min(grad_sq))
    return BoundCheckResult(report=report, min_grad_sq=min_sq,
                            grad_sq_first=grad_sq[0], grad_sq_last=grad_sq[-1],
                            dominated=bool(report.bound is not None
                                           and min_sq <= report.bound),
                            inputs=inputs)
