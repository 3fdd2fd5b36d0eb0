"""Acceptance suite: one test (or test group) per release criterion.

Each criterion prints a PASS/FAIL line with its measured values so a plain
``pytest -s tests/test_acceptance.py`` doubles as the acceptance report.
Criterion 9 (a) and (d) assert the paper's trend, that one model is worse
than another on the holdout, with an exact one-sided paired sign test at
alpha = 0.01; no document sets a magnitude for either gap. On the frozen run
(a) passes. (d) fails because its trend does not reproduce: qat2's shadow
weights drift far off their 2-bit grid. 71% of the first-layer and 77% of the
second-layer weights end outside the 2-bit clip range [-2s, s], where the
straight-through gradient is zero, and 17.5% of the first layer is already
outside it at round 0, because the step tables are calibrated once, on the
initial weights. The 8-bit grid rescaled from the 2-bit step spans
[-1.51s, 1.49s], and qat2 scores 0.805 on it, above its own 0.793 at 2 bits.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from fedquant.cli import main as cli_main
from fedquant.data import FederatedDataset, dirichlet_partition, gen_synthetic
from fedquant.evaluation import BitConfig, quantize_for_eval, sweep
from fedquant.federation import FedConfig, make_calibration_batch, run
from fedquant.mlp import (Batch, ParamSet, QuantPlan, backward, forward,
                          init_params, kure_terms, predict_logits)
from fedquant.quantize import (StepTable, make_spec, pseudo_quantize,
                               quantize, rescale_step, round_half_away)
from fedquant.rng import Purpose, RngStream
from fedquant.strategies import StrategyConfig, calibrate_steps
from fedquant.theory import (BoundInputs, check_conditions, compute_bound,
                             empirical_bound_check, empirical_noise_bound)
from helpers import check_gradients, kurtosis, steps_consistent


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


# -----------------------------------------------------------------------
# criterion 1: quantizer law suite


def test_criterion_1_quantizer_laws():
    """10^4 random (tensor, spec) pairs: grid membership, idempotence,
    half-step error bound for in-range values. Zero failures, under 10 s."""
    start = time.time()
    rng = RngStream(20240801)
    bits_choices = (2, 3, 4, 6, 8)
    failures = 0
    for trial in range(10_000):
        signed = trial % 2 == 0
        bits = bits_choices[int(rng.integers(5, size=1)[0])]
        range_max = float(10.0 ** (rng.uniform(1)[0] * 4 - 2))
        spec = make_spec(range_max, bits, signed=signed)
        w = rng.normal(32) * range_max * 0.8
        if not signed:
            w = np.abs(w)
        q = quantize(w, spec)
        k = round_half_away(q / spec.step)
        grid_ok = bool(np.all(k >= spec.grid_min) and np.all(k <= spec.grid_max)
                       and np.array_equal(q, spec.step * k))
        idem_ok = bool(np.array_equal(quantize(q, spec), q))
        in_range = np.abs(w) <= spec.grid_max * spec.step
        noise_ok = bool(np.all(np.abs(q - w)[in_range] <= spec.step / 2 * (1 + 1e-12)))
        if not (grid_ok and idem_ok and noise_ok):
            failures += 1
    elapsed = time.time() - start
    ok = failures == 0 and elapsed < 10.0
    report("1 quantizer-laws", ok, f"failures={failures}, {elapsed:.2f}s")
    assert failures == 0
    assert elapsed < 10.0


# -----------------------------------------------------------------------
# criterion 2: noise statistics


def test_criterion_2_noise_statistics():
    """Pseudo-noise mean square within 2% of step^2/12 over 10^6 samples and
    the dim * R^2 ceiling for all three methods. Under 10 s."""
    start = time.time()
    step = 0.8
    noise = pseudo_quantize(np.zeros(10 ** 6), step, RngStream(7)) - 0.0
    ms = float(np.mean(noise ** 2))
    ms_ok = abs(ms - step ** 2 / 12) <= 0.02 * step ** 2 / 12

    rng = RngStream(8)
    w = rng.normal((20, 25)) * 0.04
    params = ParamSet([(w, np.zeros(25))])
    stats = {
        "apqn": empirical_noise_bound(params, (0.02,), "apqn", 1000, RngStream(9)),
        "qat": empirical_noise_bound(params, (0.02,), "qat", 10, RngStream(10)),
        "mqat": empirical_noise_bound(params, (0.02, 0.05, 0.1), "mqat", 500,
                                      RngStream(11)),
    }
    ceilings_ok = all(s.passed for s in stats.values())
    elapsed = time.time() - start
    ok = ms_ok and ceilings_ok and elapsed < 10.0
    report("2 noise-statistics", ok,
           f"mean_sq/{step}^2/12={ms / (step ** 2 / 12):.4f}, "
           f"ceilings={[f'{k}:{v.passed}' for k, v in stats.items()]}, "
           f"{elapsed:.2f}s")
    assert ms_ok
    assert ceilings_ok
    assert elapsed < 10.0


# -----------------------------------------------------------------------
# criterion 3: gradient correctness


def test_criterion_3_gradient_correctness():
    """Finite differences (step 1e-5, float64) below 1e-5 max relative error
    for plain, kurtosis-regularized and frozen-noise training losses on nets
    up to 1000 parameters; quantized forward equals the plain forward on
    pre-quantized weights bitwise. Under 30 s."""
    start = time.time()
    widths = [12, 40, 8]  # 848 parameters
    params = init_params(widths, RngStream(31))
    batch_rng = RngStream(32)
    batch = Batch(batch_rng.normal((32, 12)), batch_rng.integers(8, size=32))

    _, cache = forward(params, batch)
    base_grads = backward(cache)
    err_plain = check_gradients(params, lambda p: forward(p, batch)[0], base_grads)

    lam = 0.3
    _, cache = forward(params, batch)
    kure_grads = backward(cache)
    for gw, g in zip(kure_grads.weights(), kure_terms(params.weights(), 1.8)[1]):
        gw += lam * g
    err_kure = check_gradients(
        params,
        lambda p: forward(p, batch)[0] + lam * kure_terms(p.weights(), 1.8)[0],
        kure_grads)

    plan = QuantPlan(weights=[0.2] * params.num_layers)

    def apqn_loss(p):
        return forward(p, batch, plan, rng=RngStream(33, (1,)))[0]

    _, cache = forward(params, batch, plan, rng=RngStream(33, (1,)))
    apqn_grads = backward(cache)
    err_apqn = check_gradients(params, apqn_loss, apqn_grads)

    specs = [make_spec(float(np.max(np.abs(w))), 2) for w, _ in params.layers]
    qat_loss, _ = forward(params, batch, QuantPlan(weights=specs))
    snapped = ParamSet([(quantize(w, s), b.copy())
                        for (w, b), s in zip(params.layers, specs)])
    plain_loss, _ = forward(snapped, batch)
    bitwise_ok = qat_loss == plain_loss

    elapsed = time.time() - start
    worst = max(err_plain, err_kure, err_apqn)
    ok = worst < 1e-5 and bitwise_ok and elapsed < 30.0
    report("3 gradient-correctness", ok,
           f"max_rel plain={err_plain:.2e} kure={err_kure:.2e} "
           f"apqn={err_apqn:.2e}, qat_bitwise={bitwise_ok}, {elapsed:.1f}s")
    assert worst < 1e-5
    assert bitwise_ok
    assert elapsed < 30.0


# -----------------------------------------------------------------------
# criterion 4: kurtosis calibration


def test_criterion_4_kurtosis_calibration():
    """Uniform samples sit at 1.8 +- 0.05 and Gaussian at 3.0 +- 0.05."""
    uni = RngStream(41).uniform(10 ** 6) * 2.0 - 1.0
    gau = RngStream(42).normal(10 ** 6)
    k_uni, k_gau = kurtosis(uni), kurtosis(gau)
    ok = abs(k_uni - 1.8) < 0.05 and abs(k_gau - 3.0) < 0.05
    report("4 kurtosis-calibration", ok,
           f"uniform={k_uni:.4f}, gaussian={k_gau:.4f}")
    assert abs(k_uni - 1.8) < 0.05
    assert abs(k_gau - 3.0) < 0.05


# -----------------------------------------------------------------------
# criterion 5: strategy reductions (bitwise)


def _fixed_run(strat, seed=505):
    root = RngStream(seed)
    train, val = gen_synthetic(4, 8, 50, 3.0, root.child(Purpose.DATA))
    assignment = dirichlet_partition(train.labels, 8, 1.0,
                                     root.child(Purpose.PARTITION))
    data = FederatedDataset(base=train, assignment=assignment, alpha=1.0,
                            holdout=val)
    cfg = FedConfig(total_rounds=10, num_clients=8, clients_per_round=4,
                    eta_s=0.5, eta_c=0.05, local_steps=2, batch_size=8,
                    server_opt="adam", seed=seed, eval_every=2)
    state, history = run(cfg, strat, data, hidden=(10,))
    rows = [(r.round_idx, r.val_accuracy, r.val_loss, r.mean_client_loss)
            for r in history.rows]
    return state.params.flatten(), rows


def test_criterion_5_strategy_reductions():
    """qat@32, kure@lambda=0 and mqat over a singleton bit set reduce to
    their counterparts bitwise on a seed-pinned 10-round run."""
    base_params, base_rows = _fixed_run(StrategyConfig())
    qat32_params, qat32_rows = _fixed_run(StrategyConfig(kind="qat", train_bits=32))
    kure0_params, kure0_rows = _fixed_run(StrategyConfig(kind="kure", lam=0.0))
    qat4_params, qat4_rows = _fixed_run(StrategyConfig(kind="qat", train_bits=4))
    mqat4_params, mqat4_rows = _fixed_run(StrategyConfig(kind="mqat", bit_set=(4,)))

    checks = {
        "qat@32==baseline": np.array_equal(base_params, qat32_params)
                            and base_rows == qat32_rows,
        "kure@0==baseline": np.array_equal(base_params, kure0_params)
                            and base_rows == kure0_rows,
        "mqat@{4}==qat@4": np.array_equal(qat4_params, mqat4_params)
                           and qat4_rows == mqat4_rows,
    }
    ok = all(checks.values())
    report("5 strategy-reductions", ok, ", ".join(
        f"{k}={v}" for k, v in checks.items()))
    assert all(checks.values()), checks


# -----------------------------------------------------------------------
# criterion 6: rescale identities


def test_criterion_6_rescale_identities():
    """step_4 = 17 * step_8 and step_2 = 85 * step_8 exactly, and a table
    populated by rescaling stays range-consistent across {2,3,4,6,8}."""
    exact = True
    for step8 in (0.01, 0.37, 1.0, 3.25e-3):
        exact &= rescale_step(step8, 8, 4) == 17.0 * step8
        exact &= rescale_step(step8, 8, 2) == 85.0 * step8
    table = StepTable({8: 0.013})
    for b in (2, 3, 4, 6):
        table.steps[b] = rescale_step(0.013, 8, b)
    consistent = steps_consistent(table, rel_tol=1e-12)
    params = init_params([6, 12, 4], RngStream(61))
    tables = calibrate_steps(params, (2, 3, 4, 6, 8), None, quantize_acts=False)
    calibrated_ok = all(steps_consistent(t, rel_tol=1e-12) for t in tables.weights)
    ok = exact and consistent and calibrated_ok
    report("6 rescale-identities", ok,
           f"exact={exact}, table_consistent={consistent}, "
           f"calibrated_consistent={calibrated_ok}")
    assert exact and consistent and calibrated_ok


# -----------------------------------------------------------------------
# criterion 7: bound calculator


def test_criterion_7_bound_calculator():
    """Reference evaluation matches an exact rational oracle to 1e-12
    relative; the condition checker flags eta_c = 0.02; the bound moves the
    right way along T and R grids."""
    inp = BoundInputs(L=1.0, sigma_l=1.0, sigma_g=1.0, D=100, K=10, T=1000,
                      eta_c=0.01, eta_s=1.0, method="qat", steps=(0.12,),
                      initial_gap=1.0)
    rep = compute_bound(inp)
    ec, es, L, K, T, D = (Fraction(0.01), Fraction(1), Fraction(1),
                          Fraction(10), Fraction(1000), Fraction(100))
    r = Fraction(0.12) / 2
    a = K / 4 - 2 * L * es * ec * K * K
    b = 4 * es * ec * K * K * L * L + L * es * es * (2 * K * K + K / 6)
    gamma = 24 * es * ec * K * K * L * L + L * es * es * K
    h = (4 * es / (3 * ec)) * K + 6 * L * es * es * K * K
    t_opt = Fraction(1) / (T * es * ec * a)
    t_floor = (ec / (es * a)) * (b + gamma * K + h * L * L * D * r * r)

    def rel(x, y):
        return abs(float(x) - float(y)) / max(abs(float(y)), 1e-300)

    oracle_err = max(rel(rep.A, a), rel(rep.B, b), rel(rep.Gamma, gamma),
                     rel(rep.H, h), rel(rep.term_opt, t_opt),
                     rel(rep.term_floor, t_floor),
                     rel(rep.bound, t_opt + t_floor))
    flag_ok = (not check_conditions(0.02, 1.0, 10, 1.0)
               and not compute_bound(BoundInputs(
                   L=1.0, sigma_l=1.0, sigma_g=1.0, D=100, K=10, T=1000,
                   eta_c=0.02, eta_s=1.0, method="qat", steps=(0.12,),
                   initial_gap=1.0)).conditions_ok)
    t_grid = [compute_bound(BoundInputs(
        L=1.0, sigma_l=1.0, sigma_g=1.0, D=100, K=10, T=t, eta_c=0.01,
        eta_s=1.0, method="qat", steps=(0.12,), initial_gap=1.0)).bound
        for t in (10, 100, 1000, 10000, 100000)]
    r_grid = [compute_bound(BoundInputs(
        L=1.0, sigma_l=1.0, sigma_g=1.0, D=100, K=10, T=1000, eta_c=0.01,
        eta_s=1.0, method="qat", steps=(s,), initial_gap=1.0)).bound
        for s in (0.01, 0.03, 0.1, 0.3, 1.0)]
    mono_ok = (all(x > y for x, y in zip(t_grid, t_grid[1:]))
               and all(x < y for x, y in zip(r_grid, r_grid[1:])))
    ok = oracle_err < 1e-12 and flag_ok and mono_ok
    report("7 bound-calculator", ok,
           f"oracle_rel_err={oracle_err:.2e}, condition_flag={flag_ok}, "
           f"monotone={mono_ok}")
    assert oracle_err < 1e-12
    assert flag_ok
    assert mono_ok


# -----------------------------------------------------------------------
# criterion 8: empirical bound dominance


def test_criterion_8_bound_dominance():
    """On a 50-parameter problem trained for 500 rounds at condition-
    satisfying rates, the smallest measured squared gradient norm stays
    below the computed bound. One-sided; under 2 minutes."""
    start = time.time()
    root = RngStream(800)
    train, val = gen_synthetic(2, 5, 40, 2.0, root.child(Purpose.DATA))
    assignment = dirichlet_partition(train.labels, 4, 1.0,
                                     root.child(Purpose.PARTITION))
    data = FederatedDataset(base=train, assignment=assignment, alpha=1.0,
                            holdout=val)
    result = empirical_bound_check(data, hidden=(6,), train_bits=4,
                                   rounds=500, seed=800)
    elapsed = time.time() - start
    dim_ok = result.inputs.D == 50
    ok = (result.report.conditions_ok and result.dominated and dim_ok
          and elapsed < 120.0)
    report("8 bound-dominance", ok,
           f"min_grad_sq={result.min_grad_sq:.3e} bound={result.report.bound:.3e} "
           f"D={result.inputs.D}, {elapsed:.1f}s")
    assert dim_ok
    assert result.report.conditions_ok
    assert result.dominated
    assert elapsed < 120.0


# -----------------------------------------------------------------------
# criterion 9: qualitative trend reproduction
#
# Frozen run (hyperparameter pilot, 2026-08): 10 classes, d=32, 500 samples
# per class, separation 2.7, Dirichlet alpha=1.0, 100 clients, 10 per round,
# MLP 32-64-10, 2500 rounds, Adam server (eta_s=1e-2, eps=1e-8), client SGD
# eta_c=0.1, batch 20, one local epoch, seed 0.
#
# (a) and (d) claim that one evaluation of a model is worse than another on
# the same 1000-sample holdout. Each is decided by an exact one-sided paired
# sign test over the samples the two evaluations classify differently.


TREND = {"seed": 0, "sep": 2.7, "spc": 500, "T": 2500, "eta_s": 1e-2,
         "eta_c": 0.1, "eps": 1e-8, "bs": 20}

SIGN_TEST_ALPHA = 0.01

# (strategy, weight bits) whose per-sample correctness the sign tests read
PAIRED_EVALS = (("baseline", 32), ("baseline", 2), ("mqat", 8), ("qat2", 8))


def sign_test_p(wins, losses):
    """Exact one-sided sign-test p-value: P(X >= wins), X ~ Bin(wins + losses, 1/2).

    ``wins`` counts samples only the expected-better evaluation gets right,
    ``losses`` those only the other gets right; ties carry no information.
    """
    n = wins + losses
    tail = sum(math.comb(n, k) for k in range(wins, n + 1))
    return float(Fraction(tail, 2 ** n))


def discordant_counts(better, worse):
    """(wins, losses) of the ``better`` correctness vector over ``worse``."""
    return int(np.sum(better & ~worse)), int(np.sum(worse & ~better))


def test_criterion_9_sign_test_exact():
    """The helper matches hand-computed binomial tails exactly, so a broken
    helper cannot pass (a) or (d)."""
    cases = {(5, 0): 1 / 32, (0, 0): 1.0, (0, 5): 1.0, (3, 1): 5 / 16,
             (1, 3): 15 / 16, (2, 2): 11 / 16, (10, 0): 1 / 1024,
             (1, 0): 0.5}
    assert {k: sign_test_p(*k) for k in cases} == cases
    a = np.array([True, True, False, False, True])
    b = np.array([False, True, True, False, False])
    assert discordant_counts(a, b) == (2, 1)


@pytest.fixture(scope="module")
def trend_accuracies():
    start = time.time()
    root = RngStream(TREND["seed"])
    train, val = gen_synthetic(10, 32, TREND["spc"], TREND["sep"],
                               root.child(Purpose.DATA))
    assignment = dirichlet_partition(train.labels, 100, 1.0,
                                     root.child(Purpose.PARTITION))
    data = FederatedDataset(base=train, assignment=assignment, alpha=1.0,
                            holdout=val)
    cfg = FedConfig(total_rounds=TREND["T"], num_clients=100,
                    clients_per_round=10, eta_s=TREND["eta_s"],
                    eta_c=TREND["eta_c"], local_steps=None,
                    batch_size=TREND["bs"], server_opt="adam",
                    adam_eps=TREND["eps"], seed=TREND["seed"],
                    eval_every=TREND["T"])
    out = {}
    correct = {}
    for name, strat in [
            ("baseline", StrategyConfig()),
            ("mqat", StrategyConfig(kind="mqat", bit_set=(2, 3, 4, 6, 8, 32))),
            ("qat2", StrategyConfig(kind="qat", train_bits=2))]:
        state, _ = run(cfg, strat, data, hidden=(64,), threads=2)
        calib = make_calibration_batch(data.base, cfg.batch_size,
                                       RngStream(cfg.seed))
        rep = sweep(state, strat,
                    [BitConfig(weight_bits=b) for b in (32, 8, 2)],
                    data.holdout, calib_batch=calib)
        out[name] = {r.weight_bits: r.accuracy for r in rep.rows}
        for bits in [b for s, b in PAIRED_EVALS if s == name]:
            plan = quantize_for_eval(state, BitConfig(weight_bits=bits), strat,
                                     calib)
            logits = predict_logits(state.params, data.holdout.inputs, plan)
            hit = np.argmax(logits, axis=1) == data.holdout.labels
            # the sign tests must see the very models the sweep scored
            assert float(np.mean(hit)) == out[name][bits], (name, bits)
            correct[(name, bits)] = hit
    out["elapsed"] = time.time() - start
    print(f"\ntrend run: {json.dumps({k: v for k, v in out.items() if k != 'elapsed'})}"
          f" in {out['elapsed']:.0f}s")
    assert out["elapsed"] < 600.0
    out["correct"] = correct
    return out


def test_criterion_9a_baseline_low_bit_collapse(trend_accuracies):
    """Plain FedAvg is worse at 2-bit weights than at full precision."""
    acc, correct = trend_accuracies, trend_accuracies["correct"]
    drop = (acc["baseline"][32] - acc["baseline"][2]) * 100
    wins, losses = discordant_counts(correct[("baseline", 32)],
                                     correct[("baseline", 2)])
    p = sign_test_p(wins, losses)
    ok = p < SIGN_TEST_ALPHA
    report("9a baseline-2bit-drop", ok,
           f"drop={drop:.1f} points, discordant {wins} vs {losses}, "
           f"sign-test p={p:.3g}, need p < {SIGN_TEST_ALPHA}")
    assert p < SIGN_TEST_ALPHA, (
        f"baseline at 2-bit weights is not worse than at 32 bits: drop "
        f"{drop:.1f} points, {wins} vs {losses} discordant samples, one-sided "
        f"sign-test p={p:.3g} (need < {SIGN_TEST_ALPHA}); on seed 0 the 2-bit "
        "MSE-ranged weights keep cosine similarity 0.929 (32x64) and 0.940 "
        "(64x10) to the full-precision ones")


def test_criterion_9b_mqat_rescues_low_bit(trend_accuracies):
    acc = trend_accuracies
    gap = (acc["mqat"][2] - acc["baseline"][2]) * 100
    ok = gap >= 10.0
    report("9b mqat-over-baseline-at-2bit", ok, f"gain={gap:.1f} points, need >= 10")
    assert gap >= 10.0


def test_criterion_9c_mqat_preserves_full_precision(trend_accuracies):
    acc = trend_accuracies
    gap = abs(acc["mqat"][32] - acc["baseline"][32]) * 100
    ok = gap <= 3.0
    report("9c mqat-full-precision-parity", ok, f"|gap|={gap:.1f} points, need <= 3")
    assert gap <= 3.0


def test_criterion_9d_fixed_bit_training_fails_off_target(trend_accuracies):
    """A model trained at 2 bits is worse off target (8 bits) than mqat."""
    acc, correct = trend_accuracies, trend_accuracies["correct"]
    gap = (acc["mqat"][8] - acc["qat2"][8]) * 100
    wins, losses = discordant_counts(correct[("mqat", 8)],
                                     correct[("qat2", 8)])
    p = sign_test_p(wins, losses)
    ok = p < SIGN_TEST_ALPHA
    report("9d qat2-off-target-drop", ok,
           f"gap={gap:.1f} points, discordant {wins} vs {losses}, "
           f"sign-test p={p:.3g}, need p < {SIGN_TEST_ALPHA}")
    assert p < SIGN_TEST_ALPHA, (
        f"2-bit-trained model at 8 bits is not worse than the multi-bit "
        f"model: gap {gap:.1f} points, {wins} vs {losses} discordant samples, "
        f"one-sided sign-test p={p:.3g} (need < {SIGN_TEST_ALPHA}); qat2's "
        "shadow weights drift far off their 2-bit grid (71% of layer 1 and "
        "77% of layer 2 end outside the clip range [-2s, s], where the "
        "straight-through gradient is zero; 17.5% of layer 1 is outside it "
        "at round 0, as the step tables are calibrated once on the initial "
        "weights), and the 8-bit grid rescaled from the 2-bit step spans "
        "[-1.51s, 1.49s], where qat2 scores above its own 2-bit accuracy")


# -----------------------------------------------------------------------
# criterion 10: end-to-end determinism


def test_criterion_10_run_determinism(tmp_path):
    """The run command with the same config and different --threads values
    emits bit-identical history and evaluation artifacts."""
    doc = {
        "seed": 12,
        "data": {"num_classes": 4, "dim": 8, "samples_per_class": 30,
                 "class_separation": 3.0, "alpha": 1.0},
        "model": {"hidden": [10]},
        "federation": {"total_rounds": 6, "num_clients": 10,
                       "clients_per_round": 4, "eta_s": 1.0, "eta_c": 0.05,
                       "batch_size": 8, "server_opt": "adam", "eval_every": 2},
        "strategy": {"kind": "mqat", "bit_set": [2, 4, 8, 32]},
        "eval": {"weight_bits": [32, 4, 2]},
    }
    cfg_path = tmp_path / "determinism.json"
    cfg_path.write_text(json.dumps(doc))
    blobs = {}
    for tag, threads in (("t1", "1"), ("t3", "3")):
        out = tmp_path / tag
        code = cli_main(["run", "--config", str(cfg_path), "--out", str(out),
                         "--quiet", "--threads", threads])
        assert code == 0
        blobs[tag] = {name: (out / name).read_bytes()
                      for name in ("history.csv", "eval.csv", "eval.json")}
    ok = blobs["t1"] == blobs["t3"]
    report("10 determinism", ok,
           "history.csv/eval.csv/eval.json identical across --threads 1 vs 3"
           if ok else "artifact mismatch")
    assert ok
