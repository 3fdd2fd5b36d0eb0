"""Server loop: sampling, aggregation, optimizer steps, determinism."""

import hashlib

import numpy as np
import pytest

from fedquant.data import FederatedDataset, dirichlet_partition, gen_synthetic
from fedquant.errors import AggregationError, ConfigError
from fedquant.federation import (FedConfig, ServerState, aggregate,
                                 client_batches, evaluate_global, init_state,
                                 load_checkpoint, run, sample_clients,
                                 save_checkpoint, server_step, step_round)
from fedquant.mlp import Batch, ParamSet, backward, forward, init_params
from fedquant.quantize import StepTable
from fedquant.rng import Purpose, RngStream
from fedquant.strategies import (ClientUpdate, StepTables, StrategyConfig,
                                 resolve_bits)
from helpers import checkpoint_oracle, client_batches_oracle


def tiny_fed_data(seed=0, classes=4, dim=8, per_class=40, clients=8, sep=3.0,
                  alpha=1.0):
    root = RngStream(seed)
    train, val = gen_synthetic(classes, dim, per_class, sep, root.child(Purpose.DATA))
    assignment = dirichlet_partition(train.labels, clients, alpha,
                                     root.child(Purpose.PARTITION))
    return FederatedDataset(base=train, assignment=assignment, holdout=val)


class TestSampleClients:
    def test_exhaustive_when_s_equals_n(self):
        got = sample_clients(12, 12, RngStream(0))
        assert np.array_equal(got, np.arange(12))

    def test_sorted_distinct(self):
        got = sample_clients(100, 10, RngStream(1))
        assert got.size == 10
        assert np.array_equal(got, np.unique(got))

    def test_participation_frequency(self):
        """Over many rounds every client participates close to s/n of the time."""
        root = RngStream(2)
        counts = np.zeros(100)
        rounds = 20000
        for t in range(rounds):
            counts[sample_clients(100, 10, root.child(t))] += 1
        freq = counts / rounds
        assert np.all(np.abs(freq - 0.1) < 0.005)  # 5% of 0.1

    def test_deterministic_per_round_stream(self):
        a = sample_clients(50, 5, RngStream(3, (9,)))
        b = sample_clients(50, 5, RngStream(3, (9,)))
        assert np.array_equal(a, b)

    def test_oversampling_rejected(self):
        with pytest.raises(ConfigError):
            sample_clients(5, 6, RngStream(0))


@pytest.mark.parametrize("bad", [{"eta_c": float("nan")}, {"eta_s": float("nan")},
                                 {"server_opt": "adam", "adam_eps": float("nan")},
                                 {"server_opt": "adam", "adam_beta1": 1.0},
                                 {"server_opt": "adam", "adam_beta2": -0.1}])
def test_fed_config_rejects_nan_and_out_of_range_betas(bad):
    with pytest.raises(ConfigError):
        FedConfig(**bad)


class TestAggregate:
    def test_single_update_is_identity(self):
        d = np.array([1.0, -2.0, 3.0])
        out = aggregate([ClientUpdate(0, d, [0.0])])
        assert np.array_equal(out, d)

    def test_opposite_deltas_cancel(self):
        d = RngStream(4).normal(20)
        out = aggregate([ClientUpdate(0, d, [0.0]), ClientUpdate(1, -d, [0.0])])
        assert np.array_equal(out, np.zeros(20))

    def test_matches_scalar_loop_oracle(self):
        rng = RngStream(5)
        deltas = [rng.normal(30) for _ in range(3)]
        got = aggregate([ClientUpdate(i, d, [0.0]) for i, d in enumerate(deltas)])
        want = np.zeros(30)
        for j in range(30):
            acc = 0.0
            for d in deltas:
                acc += d[j]
            want[j] = acc / 3
        assert np.max(np.abs(got - want)) < 1e-15

    def test_order_insensitive_summation(self):
        rng = RngStream(6)
        ups = [ClientUpdate(i, rng.normal(10), [0.0]) for i in range(5)]
        assert np.array_equal(aggregate(ups), aggregate(list(reversed(ups))))

    def test_linearity_under_scaling(self):
        rng = RngStream(7)
        ups = [ClientUpdate(i, rng.normal(10), [0.0]) for i in range(4)]
        scaled = [ClientUpdate(u.client_id, 3.0 * u.delta, [0.0]) for u in ups]
        assert np.allclose(aggregate(scaled), 3.0 * aggregate(ups), rtol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(AggregationError):
            aggregate([ClientUpdate(0, np.zeros(3), [0.0]),
                       ClientUpdate(1, np.zeros(4), [0.0])])

    def test_empty_rejected(self):
        with pytest.raises(AggregationError):
            aggregate([])


def scalar_state(values, server_opt="sgd"):
    from fedquant.mlp import ParamSet
    w = np.asarray(values, dtype=np.float64).reshape(1, -1)
    params = ParamSet([(w, np.zeros(w.shape[1]))])
    dim = params.dim
    if server_opt == "adam":
        return ServerState(0, params, adam_m=np.zeros(dim), adam_v=np.zeros(dim))
    return ServerState(0, params)


class TestServerStep:
    def test_sgd_zero_delta_is_identity(self):
        state = scalar_state([1.0, -2.0])
        cfg = FedConfig(total_rounds=1, num_clients=1, clients_per_round=1,
                        eta_s=1.0)
        new = server_step(state, np.zeros(state.params.dim), cfg)
        assert np.array_equal(new.params.flatten(), state.params.flatten())
        assert new.round_idx == 1

    def test_sgd_applies_scaled_delta(self):
        state = scalar_state([0.0, 0.0])
        cfg = FedConfig(total_rounds=1, num_clients=1, clients_per_round=1,
                        eta_s=0.5)
        delta = np.zeros(state.params.dim)
        delta[0], delta[1] = 2.0, -2.0
        new = server_step(state, delta, cfg)
        assert new.params.layers[0][0][0, 0] == 1.0
        assert new.params.layers[0][0][0, 1] == -1.0

    def test_adam_first_step_hand_formula(self):
        """Bias-corrected first step moves by eta * c / (|c| + eps)."""
        state = scalar_state([0.0, 0.0, 0.0], server_opt="adam")
        cfg = FedConfig(total_rounds=1, num_clients=1, clients_per_round=1,
                        eta_s=0.1, server_opt="adam", adam_eps=1e-3)
        c = 0.25
        delta = np.full(state.params.dim, c)
        new = server_step(state, delta, cfg)
        moved = new.params.flatten()[:3]
        assert np.allclose(moved, 0.1 * c / (abs(c) + 1e-3), rtol=1e-12)


class TestRun:
    def test_single_client_single_step_round_composes_oracles(self):
        data = tiny_fed_data(seed=1, clients=1)
        cfg = FedConfig(total_rounds=1, num_clients=1, clients_per_round=1,
                        eta_s=1.0, eta_c=0.05, local_steps=1, batch_size=16,
                        server_opt="sgd", seed=42, eval_every=1)
        state, history = run(cfg, StrategyConfig(), data, hidden=(6,))
        # replay by hand: same init, same batch draw, one SGD step, eta_s = 1
        root = RngStream(42)
        params = init_params([8, 6, data.base.num_classes],
                             root.child(Purpose.INIT))
        batch_rng = root.child(Purpose.BATCH, 0, 0)
        idx = data.assignment[0]
        perm = idx[batch_rng.permutation(idx.size)]
        sel = np.take(perm, np.arange(16), mode="wrap")
        batch = Batch(data.base.inputs[sel], data.base.labels[sel])
        _, cache = forward(params, batch)
        params.add_scaled(backward(cache), -0.05)
        assert np.array_equal(state.params.flatten(), params.flatten())
        assert len(history.rows) == 1

    def test_thread_count_does_not_change_results(self):
        data = tiny_fed_data(seed=2)
        cfg = FedConfig(total_rounds=4, num_clients=8, clients_per_round=4,
                        eta_s=1.0, eta_c=0.05, local_steps=2, batch_size=8,
                        server_opt="sgd", seed=7, eval_every=2)
        strat = StrategyConfig(kind="mqat", bit_set=(2, 4, 8, 32))
        s1, h1 = run(cfg, strat, data, hidden=(6,), threads=1)
        s4, h4 = run(cfg, strat, data, hidden=(6,), threads=4)
        assert np.array_equal(s1.params.flatten(), s4.params.flatten())
        assert [(r.round_idx, r.val_accuracy, r.val_loss, r.mean_client_loss)
                for r in h1.rows] == \
               [(r.round_idx, r.val_accuracy, r.val_loss, r.mean_client_loss)
                for r in h4.rows]

    def test_full_participation_single_step_equals_union_sgd(self):
        """With every client running one full-batch step and eta_s = 1, a
        round is one mini-batch SGD step on the equal-weight union objective."""
        data = tiny_fed_data(seed=3, clients=4, per_class=25)
        max_client = max(idx.size for idx in data.assignment)
        cfg = FedConfig(total_rounds=1, num_clients=4, clients_per_round=4,
                        eta_s=1.0, eta_c=0.05, local_steps=1,
                        batch_size=max_client, server_opt="sgd", seed=11,
                        eval_every=1)
        state, _ = run(cfg, StrategyConfig(), data, hidden=(5,))
        root = RngStream(11)
        params = init_params([8, 5, data.base.num_classes],
                             root.child(Purpose.INIT))
        grad = np.zeros(params.dim)
        for idx in data.assignment:
            batch = Batch(data.base.inputs[idx], data.base.labels[idx])
            _, cache = forward(params, batch)
            grad += backward(cache).flatten()
        expected = params.flatten() - 0.05 * grad / 4
        got = state.params.flatten()
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(got - expected)) < 1e-12 * scale

    def test_baseline_learns_separable_data(self):
        data = tiny_fed_data(seed=4, classes=4, dim=8, per_class=50, clients=8,
                             sep=6.0)
        cfg = FedConfig(total_rounds=200, num_clients=8, clients_per_round=4,
                        eta_s=1.0, eta_c=0.05, local_steps=None, batch_size=10,
                        server_opt="sgd", seed=21, eval_every=50)
        state, history = run(cfg, StrategyConfig(), data, hidden=(16,))
        assert history.rows[-1].val_accuracy >= 0.95

    def test_round_purity_resume_equivalence(self):
        """State after t rounds is a pure function of (cfg, strat, seed)."""
        data = tiny_fed_data(seed=5)
        cfg = FedConfig(total_rounds=3, num_clients=8, clients_per_round=3,
                        eta_s=0.5, eta_c=0.05, local_steps=2, batch_size=8,
                        server_opt="adam", seed=13, eval_every=1)
        s_a, _ = run(cfg, StrategyConfig(), data, hidden=(6,))
        s_b, _ = run(cfg, StrategyConfig(), data, hidden=(6,))
        assert np.array_equal(s_a.params.flatten(), s_b.params.flatten())
        assert np.array_equal(s_a.adam_m, s_b.adam_m)


    @pytest.mark.parametrize("server_opt,strat", [
        ("sgd", StrategyConfig()),
        ("adam", StrategyConfig()),
        ("adam", StrategyConfig(kind="mqat", bit_set=(2, 4, 32),
                                mqat_mode="per_round")),
    ], ids=["sgd-baseline", "adam-baseline", "adam-mqat-per-round"])
    def test_run_equals_init_state_then_step_round(self, server_opt, strat):
        data = tiny_fed_data(seed=9)
        cfg = FedConfig(total_rounds=3, num_clients=8, clients_per_round=3,
                        eta_s=0.5, eta_c=0.05, local_steps=2, batch_size=8,
                        server_opt=server_opt, seed=17, eval_every=1)
        ran, _ = run(cfg, strat, data, hidden=(6,))
        state = init_state(cfg, strat, data, (6,))
        root = RngStream(cfg.seed)
        for t in range(cfg.total_rounds):
            state, updates = step_round(state, cfg, strat, data, root)
            assert state.round_idx == t + 1 and len(updates) == 3
        assert np.array_equal(state.params.flatten(), ran.params.flatten())
        for got, want in ((state.adam_m, ran.adam_m), (state.adam_v, ran.adam_v)):
            assert (got is None and want is None) or np.array_equal(got, want)

    @pytest.mark.parametrize("strat", [
        StrategyConfig(kind="mqat", bit_set=(2, 4, 32)),
        StrategyConfig(kind="apqn", train_bits=4, quantize_acts=True),
    ], ids=["mqat", "apqn"])
    def test_client_execution_order_cannot_change_the_result(self, strat):
        """A ``map_clients`` that trains the clients last to first (and
        returns their updates first to last) gives builtin ``map``'s bytes."""
        def reversed_map(run_client, ids):
            return [run_client(c) for c in reversed(ids)][::-1]

        data = tiny_fed_data(seed=9)
        cfg = FedConfig(total_rounds=3, num_clients=8, clients_per_round=4,
                        eta_s=0.5, eta_c=0.05, local_steps=2, batch_size=8,
                        server_opt="adam", seed=17, eval_every=1)
        runs = []
        for map_clients in (map, reversed_map):
            state, root = init_state(cfg, strat, data, (6,)), RngStream(cfg.seed)
            updates = []
            for _ in range(cfg.total_rounds):
                state, got = step_round(state, cfg, strat, data, root, map_clients)
                updates += got
            runs.append([state.params.vec.tobytes(), state.adam_m.tobytes(),
                         state.adam_v.tobytes()] +
                        [(u.client_id, u.delta.tobytes(),
                          np.array(u.local_loss_trace).tobytes(), u.bits)
                         for u in updates])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("server_opt,strat", [
        ("sgd", StrategyConfig(kind="kure")),
        ("adam", StrategyConfig(kind="mqat", bit_set=(2, 4, 32))),
    ], ids=["sgd-kure", "adam-mqat"])
    def test_step_round_leaves_the_input_parameters_unchanged(self, server_opt,
                                                              strat):
        data = tiny_fed_data(seed=9)
        cfg = FedConfig(total_rounds=2, num_clients=8, clients_per_round=3,
                        eta_s=0.5, eta_c=0.05, local_steps=2, batch_size=8,
                        server_opt=server_opt, seed=17, eval_every=1)
        state = init_state(cfg, strat, data, (6,))
        before = state.params.flatten().copy()
        new, _ = step_round(state, cfg, strat, data, RngStream(cfg.seed))
        assert state.params.flatten().tobytes() == before.tobytes()
        assert not np.shares_memory(new.params.flatten(), state.params.flatten())
        assert new.params.flatten().tobytes() != before.tobytes()

    @pytest.mark.parametrize("strat", [
        StrategyConfig(),
        StrategyConfig(kind="kure"),
        StrategyConfig(kind="apqn", train_bits=4),
        StrategyConfig(kind="qat", train_bits=2),
        StrategyConfig(kind="mqat", bit_set=(2, 4, 32)),
        StrategyConfig(kind="mqat", bit_set=(2, 4, 32),
                       mqat_mode="fixed_per_client"),
    ], ids=["baseline", "kure", "apqn", "qat", "mqat-per-round",
            "mqat-fixed-per-client"])
    def test_every_client_bit_width_is_recorded(self, strat):
        data = tiny_fed_data(seed=12)
        cfg = FedConfig(total_rounds=3, num_clients=8, clients_per_round=4,
                        eta_c=0.05, local_steps=1, batch_size=8, seed=5)
        state = init_state(cfg, strat, data, (6,))
        root = RngStream(cfg.seed)
        for t in range(cfg.total_rounds):
            selected = sample_clients(cfg.num_clients, cfg.clients_per_round,
                                      root.child(Purpose.CLIENT_SAMPLING, t))
            state, updates = step_round(state, cfg, strat, data, root)
            assert [u.client_id for u in updates] == list(selected)
            assert [u.bits for u in updates] == \
                [resolve_bits(strat, t, int(c), root) for c in selected]
            if strat.kind in ("baseline", "kure"):
                assert all(u.bits is None for u in updates)


# Strategies and server settings that no perfbench digest covers (those
# pin baseline, mqat per_round and apqn, each with an Adam server). Each run
# trains an 8-12-10-4 MLP for 5 rounds; the value is the sha256 of the final
# ``params.flatten()`` bytes and of ``history.csv``. These goldens share the
# reproducibility domain of ``test_rng.GOLDEN_DRAWS``: they hold on the numpy
# dispatch level and OpenBLAS core they were recorded on (AVX512, SkylakeX),
# since ``exp``, ``log`` and ``power`` give other bytes under AVX2 kernels.
STRATEGY_RUNS = {
    "kure-weights": ("adam", StrategyConfig(kind="kure")),
    "kure-acts": ("adam", StrategyConfig(kind="kure", quantize_acts=True)),
    "qat2": ("adam", StrategyConfig(kind="qat", train_bits=2)),
    "apqn4-acts": ("adam", StrategyConfig(kind="apqn", train_bits=4,
                                          quantize_acts=True)),
    "mqat-fixed-per-client": ("adam", StrategyConfig(
        kind="mqat", bit_set=(2, 4, 32), mqat_mode="fixed_per_client")),
    "sgd-server": ("sgd", StrategyConfig()),
}
GOLDEN_STRATEGY_RUNS = {
    "apqn4-acts": ("0d544caf92409c680e5674f5da410c0da3c47fa99368945e8b9926c1f5340b5e",
        "a06440fbdfb0a1eff9496e61f74965ccf84d8a203323b8470236aec189d90c1b"),
    "kure-acts": ("6b21bd67f2ad2b242015981d0d69913ce57971cae0ff2aaaad83de78e449a78c",
        "7ae8c6424c972d6bd49a2ee7dea2aae8347abf3bb10ae4f11816f6e9c606146c"),
    "kure-weights": ("f33827fda7b254bcbf044c6e79c94b6012a206d2e5f3622a072532b57fcfcec5",
        "969802a854306f7a1cc116a0e9247f7fc662ebfd0bae10212783540b91d4943d"),
    "mqat-fixed-per-client": ("f2e02232fb7397ca58155fdc3e4c9d79f6490fe60a606a0128f0330f76476986",
        "6b5b6f427ee0a97a4bec3e26f076055b18778fbbb8408d2b53e51c341117a1fd"),
    "qat2": ("f37eb1400ba547722bd8a985044bbfefd61007656992653e9aae41bf15b84b7c",
        "f96578590e31494a340929fd201d955c81d0f61220eb1795105dddbd99510bc5"),
    "sgd-server": ("ecccd6357048c36f51b407d88812048c6ea7758d5241160caefe14b5f577c8d1",
        "58246a7d6af668c3246d00681c9ff48342dbc40703245e5b6bda4f09681a6ad2"),
}


@pytest.mark.parametrize("case", sorted(STRATEGY_RUNS))
def test_strategy_run_matches_golden_digest(case, tmp_path):
    server_opt, strat = STRATEGY_RUNS[case]
    cfg = FedConfig(total_rounds=5, num_clients=8, clients_per_round=4,
                    eta_s=1.0 if server_opt == "sgd" else 0.05, eta_c=0.05,
                    batch_size=8, server_opt=server_opt, seed=29, eval_every=1)
    state, history = run(cfg, strat, tiny_fed_data(seed=10), hidden=(12, 10))
    path = tmp_path / "history.csv"
    history.to_csv(str(path))
    got = (hashlib.sha256(state.params.flatten().tobytes()).hexdigest(),
           hashlib.sha256(path.read_bytes()).hexdigest())
    assert got == GOLDEN_STRATEGY_RUNS[case]


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        data = tiny_fed_data(seed=6)
        cfg = FedConfig(total_rounds=2, num_clients=8, clients_per_round=2,
                        eta_s=1.0, eta_c=0.05, local_steps=1, batch_size=8,
                        server_opt="adam", seed=3, eval_every=1)
        strat = StrategyConfig(kind="qat", train_bits=4)
        state, _ = run(cfg, strat, data, hidden=(6,))
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(path, state, {"any": "config"})
        loaded, doc = load_checkpoint(path)
        assert doc == {"any": "config"}
        assert loaded.round_idx == state.round_idx
        assert np.array_equal(loaded.params.flatten(), state.params.flatten())
        assert np.array_equal(loaded.adam_v, state.adam_v)
        assert [t.steps for t in loaded.step_tables.weights] == \
               [t.steps for t in state.step_tables.weights]

    def test_bytes_match_the_streamed_encoder(self, tmp_path):
        """One ``json.dumps`` writes what ``json.dump`` streamed, byte for byte."""
        w = RngStream(4).normal((5, 3)) * 10.0 ** np.arange(-2, 3)[:, None]
        w[0, :] = [-0.0, 5e-324, 1e300]
        params = ParamSet([(w, np.array([0.1, -2.5, 1 / 3])),
                           (RngStream(5).normal((3, 2)), np.zeros(2))])
        tables = StepTables(weights=[StepTable({2: 0.1, 4: 0.1 / 5}),
                                     StepTable({2: 1e-7})],
                            acts=[StepTable({3: 2.5})])
        config = {"seed": 7, "name": "caf\u00e9 \"quoted\"", "bits": [2, 4, 32],
                  "eta": 0.05, "nested": {"none": None, "flag": True}}
        for adam in (None, RngStream(6).uniform(params.dim)):
            state = ServerState(round_idx=3, params=params, adam_m=adam,
                                adam_v=None if adam is None else adam * adam,
                                step_tables=tables if adam is None else None)
            got, want = tmp_path / "got.json", tmp_path / "want.json"
            save_checkpoint(str(got), state, config)
            checkpoint_oracle(str(want), state, config)
            assert got.read_bytes() == want.read_bytes()

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "not_ckpt.json"
        path.write_text('{"magic": "something-else"}')
        with pytest.raises(ConfigError):
            load_checkpoint(str(path))


class TestClientBatches:
    """All steps come from one gather; each batch must equal the per-step
    gather of ``helpers.client_batches_oracle``."""

    @pytest.mark.parametrize("size,steps,batch", [
        (50, 3, 20),   # steps x batch wraps past the client's data
        (7, 4, 20),    # a batch larger than the client: every step is all of it
        (40, 2, 20),   # exactly one pass
        (1, 3, 5),
        (13, 1, 4),
    ])
    def test_matches_per_step_gather(self, size, steps, batch):
        data = tiny_fed_data(seed=2).base
        indices = np.sort(RngStream(size).permutation(data.size)[:size])
        got = client_batches(data, indices, steps, batch, RngStream(9, (size,)))
        want = client_batches_oracle(data, indices, steps, batch,
                                     RngStream(9, (size,)))
        assert len(got) == len(want) == steps
        for g, w in zip(got, want):
            assert g.size == w.size == min(batch, size)
            assert g.inputs.tobytes() == w.inputs.tobytes()
            assert g.labels.tobytes() == w.labels.tobytes()
            assert g.inputs.flags.c_contiguous


class TestEvaluateGlobal:
    def test_matches_loop_oracle(self):
        data = tiny_fed_data(seed=8)
        params = init_params([8, 6, data.base.num_classes], RngStream(1))
        acc, loss = evaluate_global(params, data.holdout)
        from fedquant.mlp import predict_logits
        logits = predict_logits(params, data.holdout.inputs)
        correct = 0
        for i in range(data.holdout.size):
            if int(np.argmax(logits[i])) == int(data.holdout.labels[i]):
                correct += 1
        assert acc == correct / data.holdout.size
        assert loss > 0
