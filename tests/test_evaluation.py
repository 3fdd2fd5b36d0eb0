"""Bit-width sweep mechanics and report emission."""

import json

import numpy as np
import pytest

from fedquant.data import Dataset, FederatedDataset, dirichlet_partition, gen_synthetic
from fedquant.errors import ConfigError
from fedquant.evaluation import (BitConfig, evaluate, quantize_for_eval,
                                 sweep)
from fedquant.federation import FedConfig, make_calibration_batch, run
from fedquant.mlp import (PLAIN_PLAN, Batch, backward, forward, init_params,
                          predict_logits, score)
from fedquant.quantize import estimate_range_mse, quantize, rescale_step
from fedquant.rng import Purpose, RngStream
from fedquant.strategies import StrategyConfig
from helpers import eval_logits_oracle, quantized_copy_oracle


def fed_data(seed=0, classes=4, dim=8, per_class=40, clients=6):
    root = RngStream(seed)
    train, val = gen_synthetic(classes, dim, per_class, 4.0, root.child(Purpose.DATA))
    assignment = dirichlet_partition(train.labels, clients, 1.0,
                                     root.child(Purpose.PARTITION))
    return FederatedDataset(base=train, assignment=assignment, alpha=1.0,
                            holdout=val)


def trained_state(strat, seed=5, rounds=30, data=None, hidden=(10,)):
    data = data or fed_data(seed)
    cfg = FedConfig(total_rounds=rounds, num_clients=6, clients_per_round=3,
                    eta_s=1.0, eta_c=0.05, local_steps=2, batch_size=10,
                    server_opt="sgd", seed=seed, eval_every=rounds)
    state, _ = run(cfg, strat, data, hidden=hidden)
    return state, data, cfg


class TestBitConfig:
    def test_needs_at_least_one_side(self):
        with pytest.raises(ConfigError):
            BitConfig()

    def test_unsupported_bits(self):
        with pytest.raises(ConfigError):
            BitConfig(weight_bits=7)


class TestQuantizeForEval:
    def test_identity_config_returns_params_bitwise(self):
        state, data, _ = trained_state(StrategyConfig(), rounds=5)
        plan = quantize_for_eval(state, BitConfig(weight_bits=32),
                                 StrategyConfig())
        assert plan == PLAIN_PLAN
        got = quantized_copy_oracle(state.params, plan.weights)
        assert np.array_equal(got.vec, state.params.vec)

    def test_trained_table_is_rescaled_for_untrained_bits(self):
        strat = StrategyConfig(kind="qat", train_bits=4)
        state, data, _ = trained_state(strat, rounds=5)
        plan = quantize_for_eval(state, BitConfig(weight_bits=2), strat)
        got = quantized_copy_oracle(state.params, plan.weights)
        for w_q, table in zip(got.weights(), state.step_tables.weights):
            step2 = rescale_step(table.steps[4], 4, 2)
            assert step2 == (15 / 3) * table.steps[4]
            k = np.round(w_q / step2)
            assert np.allclose(w_q, k * step2)
            assert np.all(k >= -2) and np.all(k <= 1)

    def test_fresh_mse_estimation_for_plain_strategies(self):
        state, data, _ = trained_state(StrategyConfig(), rounds=5)
        plan = quantize_for_eval(state, BitConfig(weight_bits=3),
                                 StrategyConfig())
        got = quantized_copy_oracle(state.params, plan.weights)
        for w_q, w in zip(got.weights(), state.params.weights()):
            # every output value sits on some uniform grid of 3-bit indices
            steps = np.unique(np.abs(w_q[w_q != 0]))
            assert steps.size > 0
            assert np.any(w_q != w)

    def test_every_weight_lands_on_grid(self):
        strat = StrategyConfig(kind="mqat", bit_set=(2, 4, 8))
        state, data, _ = trained_state(strat, rounds=5)
        for bits in (2, 4, 8):
            plan = quantize_for_eval(state, BitConfig(weight_bits=bits), strat)
            got = quantized_copy_oracle(state.params, plan.weights)
            for w_q, table in zip(got.weights(), state.step_tables.weights):
                spec = table.spec_for(bits)
                assert np.array_equal(quantize(w_q, spec), w_q)


class TestEvaluate:
    def test_uniform_logits_on_balanced_set(self):
        """All-zero last layer predicts class 0 everywhere: accuracy 1/C,
        loss ln C."""
        data = fed_data(seed=9)
        params = init_params([8, 6, 4], RngStream(1))
        w, b = params.layers[-1]
        w[:] = 0.0
        b[:] = 0.0
        acc, loss = evaluate(params, PLAIN_PLAN, data.holdout)
        share = float(np.mean(data.holdout.labels == 0))
        assert acc == share
        assert abs(loss - np.log(4)) < 1e-12

    def test_memorizing_oracle_scores_perfectly(self):
        root = RngStream(11)
        train, _ = gen_synthetic(3, 6, 20, 8.0, root.child(Purpose.DATA))
        params = init_params([6, 24, 3], RngStream(2))
        batch = Batch(train.inputs, train.labels)
        for _ in range(400):
            _, cache = forward(params, batch)
            params.add_scaled(backward(cache), -0.5)
        acc, _ = evaluate(params, PLAIN_PLAN, train)
        assert acc == 1.0

    def test_matches_per_sample_loop_oracle(self):
        data = fed_data(seed=12)
        params = init_params([8, 10, 4], RngStream(3))
        acc, _ = evaluate(params, PLAIN_PLAN, data.holdout)
        logits = predict_logits(params, data.holdout.inputs)
        hits = 0
        for i in range(data.holdout.size):
            if int(np.argmax(logits[i])) == int(data.holdout.labels[i]):
                hits += 1
        assert acc == hits / data.holdout.size

    def test_empty_dataset_rejected(self):
        params = init_params([4, 4, 2], RngStream(0))
        with pytest.raises(ConfigError):
            evaluate(params, PLAIN_PLAN,
                     Dataset(np.zeros((0, 4)), np.zeros(0, dtype=int), 2))


class TestSweep:
    def test_single_config_equals_plain_eval(self):
        state, data, cfg = trained_state(StrategyConfig(), rounds=5)
        report = sweep(state, StrategyConfig(), [BitConfig(weight_bits=32)],
                       data.holdout)
        acc, loss = evaluate(state.params, PLAIN_PLAN, data.holdout)
        assert len(report.rows) == 1
        assert report.rows[0].accuracy == acc and report.rows[0].loss == loss

    def test_default_weight_sweep_has_six_rows(self):
        state, data, cfg = trained_state(StrategyConfig(), rounds=5)
        calib = make_calibration_batch(data.base, cfg.batch_size,
                                       RngStream(cfg.seed))
        configs = [BitConfig(weight_bits=b) for b in (32, 8, 6, 4, 3, 2)]
        report = sweep(state, StrategyConfig(), configs, data.holdout,
                       calib_batch=calib)
        assert len(report.rows) == 6
        assert [r.weight_bits for r in report.rows] == [32, 8, 6, 4, 3, 2]

    def test_training_bit_matches_training_forward_exactly(self):
        """Evaluating a fixed-bit-trained model at its own bit reuses the
        training grid, so the quantized forward is reproduced bitwise."""
        strat = StrategyConfig(kind="qat", train_bits=4)
        state, data, _ = trained_state(strat, rounds=5)
        eval_plan = quantize_for_eval(state, BitConfig(weight_bits=4), strat)
        from fedquant.strategies import build_plan
        plan = build_plan(strat, state.step_tables, 4)
        assert eval_plan == plan
        batch = Batch(data.holdout.inputs, data.holdout.labels)
        train_time_loss, _ = forward(state.params, batch, plan)
        eval_loss = evaluate(state.params, eval_plan, data.holdout)[1]
        assert train_time_loss == eval_loss

    @pytest.mark.parametrize("strat", [
        StrategyConfig(),
        StrategyConfig(kind="qat", train_bits=4, quantize_acts=True),
        StrategyConfig(kind="apqn", train_bits=4, quantize_acts=True)],
        ids=["baseline", "qat", "apqn"])
    def test_rows_match_the_quantized_copy_oracle(self, strat):
        """Every W, A and WA row scores the logits of the path that quantized
        a copy of the parameters and calibrated activations on that copy."""
        state, data, cfg = trained_state(strat, rounds=3, hidden=(10, 10))
        calib = make_calibration_batch(data.base, cfg.batch_size,
                                       RngStream(cfg.seed))
        configs = [BitConfig(weight_bits=32), BitConfig(weight_bits=4),
                   BitConfig(weight_bits=2), BitConfig(act_bits=8),
                   BitConfig(act_bits=3), BitConfig(weight_bits=3, act_bits=3),
                   BitConfig(weight_bits=8, act_bits=8),
                   BitConfig(weight_bits=32, act_bits=32)]
        for exempt in (False, True):
            report = sweep(state, strat, configs, data.holdout,
                           calib_batch=calib, exempt_first_last=exempt)
            for bc, row in zip(configs, report.rows, strict=True):
                logits = eval_logits_oracle(state, bc, strat, data.holdout.inputs,
                                            calib, exempt)
                assert ((row.accuracy, row.loss)
                        == score(logits, data.holdout.labels)), (bc, exempt)

    def test_activation_sweep_uses_calibration_batch(self):
        state, data, cfg = trained_state(StrategyConfig(), rounds=5)
        calib = make_calibration_batch(data.base, cfg.batch_size,
                                       RngStream(cfg.seed))
        report = sweep(state, StrategyConfig(),
                       [BitConfig(act_bits=8), BitConfig(act_bits=2)],
                       data.holdout, calib_batch=calib)
        assert len(report.rows) == 2
        assert report.rows[0].accuracy >= report.rows[1].accuracy - 0.02

    def test_activation_sweep_without_batch_rejected(self):
        state, data, _ = trained_state(StrategyConfig(), rounds=5)
        with pytest.raises(ConfigError):
            sweep(state, StrategyConfig(), [BitConfig(act_bits=4)], data.holdout)

    def test_baseline_degradation_guardrail(self):
        """Full precision never trails the 2-bit row by more than 2 points
        for a trained baseline (weak sanity, not a strict ordering)."""
        state, data, _ = trained_state(StrategyConfig(), rounds=40)
        report = sweep(state, StrategyConfig(),
                       [BitConfig(weight_bits=32), BitConfig(weight_bits=2)],
                       data.holdout)
        accs = {r.weight_bits: r.accuracy for r in report.rows}
        assert accs[32] >= accs[2] - 0.02

    def test_exempt_first_last_leaves_those_layers_untouched(self):
        from fedquant.federation import ServerState
        params3 = init_params([6, 8, 8, 3], RngStream(77))
        state = ServerState(round_idx=0, params=params3)
        plan = quantize_for_eval(state, BitConfig(weight_bits=2),
                                 StrategyConfig(), exempt_first_last=True)
        got = quantized_copy_oracle(params3, plan.weights).weights()
        assert np.array_equal(got[0], params3.layers[0][0])
        assert np.array_equal(got[-1], params3.layers[-1][0])
        assert np.any(got[1] != params3.layers[1][0])


class TestSweepSearches:
    """A sweep searches each weight bit-width once, shared by its W and WA
    rows, and never searches the layers ``exempt_first_last`` keeps."""

    CONFIGS = [BitConfig(weight_bits=4), BitConfig(weight_bits=2),
               BitConfig(weight_bits=4, act_bits=4),
               BitConfig(weight_bits=2, act_bits=8), BitConfig(act_bits=8),
               BitConfig(weight_bits=32)]

    @pytest.mark.parametrize("exempt", [False, True])
    def test_searches_once_per_weight_bit_width(self, exempt, monkeypatch):
        from fedquant import evaluation
        from fedquant.federation import ServerState
        data = fed_data(seed=3)
        state = ServerState(round_idx=0,
                            params=init_params([8, 8, 8, 8, 4], RngStream(78)))
        calib = Batch(data.base.inputs[:10], data.base.labels[:10])
        expected = []
        for bc in self.CONFIGS:
            plan = quantize_for_eval(state, bc, StrategyConfig(), calib, exempt)
            expected.append(evaluate(state.params, plan, data.holdout))
        searches = []

        def counted(w, bits, signed=True):
            searches.append((bits, signed))
            return estimate_range_mse(w, bits, signed)

        monkeypatch.setattr(evaluation, "estimate_range_mse", counted)
        report = sweep(state, StrategyConfig(), self.CONFIGS, data.holdout,
                       calib_batch=calib, exempt_first_last=exempt)
        assert [(r.accuracy, r.loss) for r in report.rows] == expected
        per_bits = state.params.num_layers - (2 if exempt else 0)
        weight_bits = sorted(b for b, signed in searches if signed)
        assert weight_bits == [2] * per_bits + [4] * per_bits
        # activation specs depend on the quantized weights: one search per
        # hidden layer and activation row
        assert sum(not signed for _, signed in searches) == 3 * 3


class TestReportSerialization:
    def test_csv_and_json_roundtrip(self, tmp_path):
        state, data, cfg = trained_state(StrategyConfig(), rounds=5)
        report = sweep(state, StrategyConfig(),
                       [BitConfig(weight_bits=32), BitConfig(weight_bits=2)],
                       data.holdout, metadata={"seed": cfg.seed})
        csv_path = tmp_path / "eval.csv"
        json_path = tmp_path / "eval.json"
        report.to_csv(str(csv_path))
        report.to_json(str(json_path))
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "strategy,weight_bits,act_bits,accuracy,loss"
        assert len(lines) == 3
        assert lines[1].startswith("baseline,32,-,")
        doc = json.loads(json_path.read_text())
        assert doc["metadata"]["seed"] == cfg.seed
        assert doc["rows"][1]["weight_bits"] == 2
        # repr round-trip: parsing the CSV cell recovers the exact float
        assert float(lines[1].split(",")[3]) == report.rows[0].accuracy
