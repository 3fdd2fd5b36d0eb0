"""CLI contract: exit codes, artifacts, overrides, determinism."""

import json
import math
import os
import re
import warnings

import pytest

from fedquant import federation
from fedquant.cli import main
from fedquant.config import (DEFAULTS, apply_overrides, build, load_config,
                             validate_config)
from fedquant.errors import ConfigError
from fedquant.federation import FedConfig, config_hash, load_checkpoint
from fedquant.strategies import StrategyConfig
from fedquant.theory import BoundInputs, compute_bound

SMOKE = {
    "seed": 3,
    "data": {"num_classes": 3, "dim": 6, "samples_per_class": 20,
             "class_separation": 3.0, "alpha": 1.0},
    "model": {"hidden": [8]},
    "federation": {"total_rounds": 2, "num_clients": 4, "clients_per_round": 2,
                   "eta_s": 1.0, "eta_c": 0.05, "batch_size": 8,
                   "server_opt": "sgd", "eval_every": 1},
    "strategy": {"kind": "mqat", "bit_set": [2, 4, 32]},
    "eval": {"weight_bits": [32, 2]},
}


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def write_config(tmp_path, doc=SMOKE, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfigDocument:
    def test_defaults_fill_missing_sections(self):
        doc = validate_config({"seed": 9})
        assert doc["federation"]["total_rounds"] == \
            DEFAULTS["federation"]["total_rounds"]
        assert doc["seed"] == 9

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            validate_config({"tpyo": 1})
        with pytest.raises(ConfigError, match="federation.rounds"):
            validate_config({"federation": {"rounds": 5}})

    def test_overrides_parse_json_values(self):
        doc = apply_overrides({"seed": 0}, ["seed=4", "federation.eta_c=0.5",
                                            "strategy.bit_set=[2,8]"])
        assert doc["seed"] == 4
        assert doc["federation"]["eta_c"] == 0.5
        assert doc["strategy"]["bit_set"] == [2, 8]

    def test_malformed_override(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["no_equals_sign"])

    def test_env_seed_is_weaker_than_config(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDQUANT_SEED", "777")
        with_seed = load_config(write_config(tmp_path))
        assert with_seed["seed"] == 3
        unseeded = {k: v for k, v in SMOKE.items() if k != "seed"}
        no_seed = load_config(write_config(tmp_path, unseeded, "no_seed.json"))
        assert no_seed["seed"] == 777

    def test_env_seed_needs_an_object_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDQUANT_SEED", "777")
        for root in ([], "abc"):
            with pytest.raises(ConfigError, match="config root must be an object"):
                load_config(write_config(tmp_path, root, "root.json"))

    def test_defaults_are_the_dataclass_defaults(self):
        exp = build(validate_config({}))
        assert exp.fed == FedConfig()
        assert exp.strategy == StrategyConfig()

    def test_lambda_reaches_strategy_lam(self):
        path = os.path.join(CONFIGS, "trend_kure.json")
        with open(path, encoding="utf-8") as fh:
            given = json.load(fh)["strategy"]["lambda"]
        assert build(load_config(path)).strategy.lam == given
        overridden = load_config(path, ["strategy.lambda=0.25"])
        assert build(overridden).strategy.lam == 0.25

    def test_eval_section_builds_configs(self):
        doc = validate_config({"eval": {"weight_bits": [8], "act_bits": [4],
                                        "wa_bits": [2]}})
        bits = [(c.weight_bits, c.act_bits) for c in build(doc).bit_configs]
        assert bits == [(8, None), (None, 4), (2, 2)]


BOUND_CONFIG = "bound_reference.json"
RUN_CONFIGS = sorted(name for name in os.listdir(CONFIGS)
                     if name.endswith(".json") and name != BOUND_CONFIG)


@pytest.mark.parametrize("name", RUN_CONFIGS)
def test_shipped_run_config_builds(name):
    """Every shipped run config validates and builds its schedule, strategy,
    data (holdout included), model widths and sweep; ``build`` raises on a
    config it cannot build."""
    build(load_config(os.path.join(CONFIGS, name)))


def test_shipped_bound_config_exits_0(capsys):
    assert main(["bound", "--config", os.path.join(CONFIGS, BOUND_CONFIG)]) == 0
    assert json.loads(capsys.readouterr().out)["conditions_ok"] is True


class TestRunCommand:
    def test_smoke_run_emits_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        for name in ("history.csv", "eval.csv", "eval.json", "checkpoint.json",
                     "run.json"):
            assert os.path.exists(os.path.join(out, name)), name
        stdout = capsys.readouterr().out
        assert "round 1/2" in stdout
        assert "eval mqat" in stdout
        meta = json.loads((tmp_path / "out" / "run.json").read_text())
        assert meta["config"]["seed"] == 3
        assert meta["rounds_completed"] == 2

    def test_missing_config_exits_2_and_names_path(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["run", "--config", missing]) == 2
        assert missing in capsys.readouterr().err

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**SMOKE, "bogus": True}, "bad.json")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_seed_override_changes_outputs_and_repeats_bitwise(self, tmp_path):
        cfg = write_config(tmp_path)
        outs = {}
        for tag, args in (("a", []), ("b", ["--set", "seed=1"]),
                          ("b2", ["--set", "seed=1"])):
            out = str(tmp_path / tag)
            assert main(["run", "--config", cfg, "--out", out, "--quiet",
                         *args]) == 0
            outs[tag] = (tmp_path / tag / "history.csv").read_bytes()
        assert outs["a"] != outs["b"]
        assert outs["b"] == outs["b2"]

    def test_thread_count_is_invisible_in_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        for tag, threads in (("t1", "1"), ("t4", "4")):
            out = str(tmp_path / tag)
            assert main(["run", "--config", cfg, "--out", out, "--quiet",
                         "--threads", threads]) == 0
        for name in ("history.csv", "eval.csv", "eval.json"):
            assert (tmp_path / "t1" / name).read_bytes() == \
                (tmp_path / "t4" / name).read_bytes(), name

    # (config, arguments) of runs that must exit 3 with one error line
    DIVERGING = {
        "overflow-t1": (None, ["--threads", "1", "--set", "federation.eta_c=1e300"]),
        "overflow-t2": (None, ["--threads", "2", "--set", "federation.eta_c=1e300"]),
        # a batch whose post-ReLU values are all 0: its kurtosis is undefined
        "kure-dead-activation": (os.path.join(CONFIGS, "smoke.json"), [
            "--set", "strategy.kind=kure", "--set", "strategy.quantize_acts=true",
            "--set", "federation.eta_c=3", "--set", "federation.total_rounds=30"]),
    }

    def test_divergent_run_exits_3(self, tmp_path, capsys):
        for tag, (cfg, args) in self.DIVERGING.items():
            code = main(["run", "--config", cfg or write_config(tmp_path),
                         "--out", str(tmp_path / tag), "--quiet", *args])
            err = capsys.readouterr().err
            assert code == 3, tag
            assert re.fullmatch(r"error: training diverged \(round \d+, "
                                r"client \d+\): [^\n]+\n", err), (tag, err)


# 6-256-256-3 on the smoke data: 68,355 parameters
WIDE = ["--set", "model.hidden=[256,256]"]


@pytest.fixture
def pools_built(monkeypatch):
    """Counts the client thread pools ``federation.run`` builds."""
    built = []

    class CountingPool(federation.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(federation, "ThreadPoolExecutor", CountingPool)
    return built


class TestClientPool:
    ARTIFACTS = ("history.csv", "eval.csv", "eval.json", "checkpoint.json")

    def test_pool_only_at_or_above_pool_min_params(self, tmp_path, pools_built):
        cfg = write_config(tmp_path)
        runs = {"wide-t1": [*WIDE, "--threads", "1"],
                "wide-t2": [*WIDE, "--threads", "2"],
                "smoke-t2": ["--threads", "2"]}
        pools, dims = {}, {}
        for tag, args in runs.items():
            out, before = tmp_path / tag, len(pools_built)
            assert main(["run", "--config", cfg, "--out", str(out), "--quiet",
                         *args]) == 0
            pools[tag] = pools_built[before:]
            dims[tag] = load_checkpoint(str(out / "checkpoint.json"))[0].params.dim
        assert pools == {"wide-t1": [], "wide-t2": [2], "smoke-t2": []}
        assert dims["smoke-t2"] < federation.POOL_MIN_PARAMS <= dims["wide-t2"]
        for name in self.ARTIFACTS:
            assert (tmp_path / "wide-t1" / name).read_bytes() == \
                (tmp_path / "wide-t2" / name).read_bytes(), name

    def test_divergence_on_the_pool_exits_3_naming_round_and_client(
            self, tmp_path, capsys, pools_built):
        cfg = write_config(tmp_path)
        errors = []
        for threads in ("1", "2"):
            code = main(["run", "--config", cfg, "--out", str(tmp_path / threads),
                         "--quiet", "--threads", threads, *WIDE,
                         "--set", "federation.eta_c=1e300"])
            assert code == 3, threads
            errors.append(capsys.readouterr().err.strip())
        assert pools_built == [2]
        assert errors[0] == errors[1]
        assert len(errors[1].splitlines()) == 1, errors[1]
        assert re.match(r"error: training diverged \(round \d+, client \d+\): ",
                        errors[1]), errors[1]


def _bad_checkpoint(edit, *args):
    """Table entry: the smoke checkpoint with ``edit`` applied to its JSON,
    evaluated with the extra arguments ``args``."""
    def build(tmp_path, checkpoint):
        doc = json.loads(open(checkpoint, encoding="utf-8").read())
        edit(doc)
        path = tmp_path / "bad_checkpoint.json"
        path.write_text(json.dumps(doc))
        return ["eval", "--checkpoint", str(path), *args]
    return build


def _not_json(tmp_path, checkpoint):
    path = tmp_path / "bad_checkpoint.json"
    path.write_text("{not json")
    return ["eval", "--checkpoint", str(path)]


def _override(*items):
    def build(tmp_path, checkpoint):
        argv = ["run", "--config", write_config(tmp_path), "--quiet",
                "--out", str(tmp_path / "out")]
        for item in items:
            argv += ["--set", item]
        return argv
    return build


def _partition_stats(*items):
    def build(tmp_path, checkpoint):
        argv = ["partition-stats", "--config", write_config(tmp_path)]
        for item in items:
            argv += ["--set", item]
        return argv
    return build


def _huge_class_separation(doc):
    """Finite data whose logits lie too far apart for a finite loss."""
    doc["config"]["data"]["class_separation"] = 1e308
    doc["config_hash"] = config_hash(doc["config"])


def _seedless_run(tmp_path, checkpoint):
    doc = {key: value for key, value in SMOKE.items() if key != "seed"}
    return ["run", "--config", write_config(tmp_path, doc), "--quiet",
            "--out", str(tmp_path / "out")]


def _csv_data(bad_row, good=40):
    """Table entry: the smoke run on ``good`` CSV rows followed by ``bad_row``."""
    def build(tmp_path, checkpoint):
        rows = [f"{i % 3}," + ",".join(str(0.1 * (i + j)) for j in range(6))
                for i in range(good)]
        path = tmp_path / "data.csv"
        path.write_text("\n".join(rows + [bad_row]) + "\n")
        doc = {**SMOKE, "data": {**SMOKE["data"], "csv_path": str(path)}}
        return ["run", "--config", write_config(tmp_path, doc), "--quiet",
                "--out", str(tmp_path / "out")]
    return build


BOUND_INPUTS = {"L": 1.0, "sigma_l": 1.0, "sigma_g": 1.0, "D": 100, "K": 10,
                "T": 1000, "eta_c": 0.01, "eta_s": 1.0, "method": "qat",
                "steps": [0.12], "initial_gap": 1.0}


def _bound_config(doc):
    def build(tmp_path, checkpoint):
        path = tmp_path / "bound.json"
        path.write_text(json.dumps(doc))
        return ["bound", "--config", str(path)]
    return build


def _bound_flags(*flags):
    def build(tmp_path, checkpoint):
        return ["bound", *TestBoundCommand.FLAGS, "--eta-client", "0.01",
                "--method", "qat", "--step", "0.12", "--initial-gap", "1",
                *flags]
    return build


def _config_root(root):
    """Table entry: a config file whose root is ``root``, run with a --set."""
    def build(tmp_path, checkpoint):
        return ["run", "--config", write_config(tmp_path, root), "--quiet",
                "--out", str(tmp_path / "out"), "--set", "seed=1"]
    return build


def _eval_override(item):
    def build(tmp_path, checkpoint):
        return ["eval", "--checkpoint", checkpoint, "--set", item]
    return build


MALFORMED_INPUTS = {
    "checkpoint-not-json": _not_json,
    "checkpoint-without-layers": _bad_checkpoint(lambda d: d.pop("layers")),
    "checkpoint-malformed-layer": _bad_checkpoint(
        lambda d: d["layers"].__setitem__(0, {"weight": "abc"})),
    "checkpoint-stale-config-hash": _bad_checkpoint(
        lambda d: d["config"].update(seed=d["config"]["seed"] + 1)),
    "checkpoint-short-step-tables": _bad_checkpoint(
        lambda d: d["step_tables"]["weights"].pop()),
    "checkpoint-empty-layers": _bad_checkpoint(lambda d: d.update(layers=[])),
    "checkpoint-bad-widths": _bad_checkpoint(lambda d: d.update(widths=[6, 9, 3])),
    "checkpoint-adam-wrong-length": _bad_checkpoint(
        lambda d: d.update(adam_m=[0.0] * 3, adam_v=[0.0] * 3)),
    "checkpoint-fractional-round": _bad_checkpoint(lambda d: d.update(round=1.7)),
    "checkpoint-negative-round": _bad_checkpoint(lambda d: d.update(round=-5)),
    "checkpoint-bool-round": _bad_checkpoint(lambda d: d.update(round=True)),
    "checkpoint-step-table-32-bits": _bad_checkpoint(
        lambda d: d["step_tables"]["weights"][0].update({"32": 0.1})),
    "checkpoint-step-table-zero-step": _bad_checkpoint(
        lambda d: d["step_tables"]["weights"][0].update({"2": 0.0})),
    # np.asarray and float() would take a string or a bool for a number
    "checkpoint-string-weight": _bad_checkpoint(
        lambda d: d["layers"][0]["weight"][0].__setitem__(0, "1")),
    "checkpoint-bool-weight": _bad_checkpoint(
        lambda d: d["layers"][0]["weight"][0].__setitem__(0, True)),
    "checkpoint-string-step": _bad_checkpoint(
        lambda d: d["step_tables"]["weights"][0].update({"2": "0.1"})),
    "checkpoint-int-beyond-float-weight": _bad_checkpoint(
        lambda d: d["layers"][0]["weight"][0].__setitem__(0, 10 ** 400)),
    "checkpoint-int-beyond-float-step": _bad_checkpoint(
        lambda d: d["step_tables"]["weights"][0].update({"2": 10 ** 400})),
    "checkpoint-infinite-round": _bad_checkpoint(
        lambda d: d.update(round=float("inf"))),
    "checkpoint-float-widths": _bad_checkpoint(
        lambda d: d.update(widths=[float(v) for v in d["widths"]])),
    "checkpoint-list-config-with-eval-set": _bad_checkpoint(
        lambda d: d.update(config=[], config_hash=config_hash([])),
        "--set", "eval.weight_bits=[2]"),
    # finite parameters and data whose holdout loss overflows
    "checkpoint-overflowing-bias": _bad_checkpoint(
        lambda d: d["layers"][-1]["bias"].__setitem__(0, 1e308)),
    "checkpoint-huge-class-separation": _bad_checkpoint(_huge_class_separation),
    "csv-nan-feature": _csv_data("1,0.5,nan,0.5,0.5,0.5,0.5"),
    "csv-nan-label": _csv_data("nan,0.5,0.5,0.5,0.5,0.5,0.5"),
    "csv-sparse-label": _csv_data("50000,0.5,0.5,0.5,0.5,0.5,0.5"),
    # every 5th row is holdout: four rows would leave it empty
    "csv-four-rows": _csv_data("0,0.5,0.5,0.5,0.5,0.5,0.5", good=3),
    "override-four-samples-per-class": _override("data.samples_per_class=4"),
    "partition-stats-four-samples-per-class": _partition_stats(
        "data.samples_per_class=4"),
    # sizes beyond config.MAX_VALUES, refused before any array is drawn
    "override-huge-dim": _override(f"data.dim={2 ** 70}"),
    "partition-stats-huge-dim": _partition_stats(f"data.dim={2 ** 70}"),
    "override-huge-samples-per-class": _override(
        f"data.samples_per_class={2 ** 70}"),
    "override-huge-hidden": _override(f"model.hidden=[{2 ** 70}]"),
    "override-huge-local-steps": _override(f"federation.local_steps={2 ** 70}"),
    "csv-path-missing": _override('data.csv_path="missing.csv"'),
    "csv-path-with-line-break": _override('data.csv_path="missing\\nfile.csv"'),
    "config-list-root-with-override": _config_root([]),
    "config-string-root-with-override": _config_root("abc"),
    "override-str-as-int": _override('federation.total_rounds="abc"'),
    "override-bool-as-int": _override("federation.total_rounds=true"),
    "override-nan-eta-c": _override("federation.eta_c=NaN"),
    "override-infinite-eta-c": _override("federation.eta_c=Infinity"),
    "override-int-beyond-float-eta-c": _override("federation.eta_c=1" + "0" * 400),
    "override-nan-eta-s": _override("federation.eta_s=NaN"),
    "override-nan-class-separation": _override("data.class_separation=NaN"),
    "override-nan-alpha": _override("data.alpha=NaN"),
    "override-nan-k-tau": _override('strategy.kind="kure"', "strategy.k_tau=NaN"),
    # one-row batches of a width-1 layer: a one-element activation tensor
    "override-kure-acts-on-single-activations": _override(
        'strategy.kind="kure"', "strategy.quantize_acts=true",
        "federation.batch_size=1", "model.hidden=[1]"),
    "override-duplicate-bit-set": _override("strategy.bit_set=[2,2,4]"),
    "override-duplicate-eval-bits": _override("eval.weight_bits=[32,4,32]"),
    "override-adam-beta1-one": _override('federation.server_opt="adam"',
                                         "federation.adam_beta1=1.0"),
    "override-adam-beta2-two": _override('federation.server_opt="adam"',
                                         "federation.adam_beta2=2.0"),
    "bound-nan-smoothness": _bound_flags("--smoothness", "nan"),
    "bound-nan-in-config": _bound_config({**BOUND_INPUTS, "eta_s": math.nan}),
    "bound-str-as-float": _bound_config({**BOUND_INPUTS, "L": "abc"}),
    "bound-bool-as-int": _bound_config({**BOUND_INPUTS, "D": True}),
    "bound-float-as-int": _bound_config({**BOUND_INPUTS, "T": 2.5}),
    "bound-str-as-steps": _bound_config({**BOUND_INPUTS, "steps": "x"}),
    "bound-list-root": _bound_config([BOUND_INPUTS]),
    "bound-unknown-key": _bound_config({**BOUND_INPUTS, "bogus": 1}),
    "eval-set-outside-eval": _eval_override("data.class_separation=0.5"),
    "eval-set-duplicate-eval-bits": _eval_override("eval.wa_bits=[4,4]"),
    "seed-negative": _override("seed=-1"),
    "seed-beyond-64-bits": _override("seed=18446744073709551616"),
    "env-seed-negative": _seedless_run,
}
# environment variables a case sets for its run
MALFORMED_ENV = {"env-seed-negative": {"FEDQUANT_SEED": "-1"}}


@pytest.fixture(scope="module")
def smoke_checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    cfg = write_config(out)
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    return str(out / "checkpoint.json")


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_2_with_one_error_line(case, tmp_path, capsys,
                                                     monkeypatch, smoke_checkpoint):
    for name, value in MALFORMED_ENV.get(case, {}).items():
        monkeypatch.setenv(name, value)
    argv = MALFORMED_INPUTS[case](tmp_path, smoke_checkpoint)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


def test_batch_size_beyond_every_client_runs(tmp_path):
    """A batch takes at most a client's whole data, so a batch size of 2**70
    is no size to refuse."""
    assert main(["run", "--config", write_config(tmp_path), "--quiet",
                 "--out", str(tmp_path / "out"),
                 "--set", f"federation.batch_size={2 ** 70}"]) == 0


def _tiny_first_step(doc):
    doc["step_tables"]["weights"][0] = {"2": 1e-320, "4": 1e-320}


def _huge_first_weight(doc):
    doc["layers"][0]["weight"][0][0] = 1e300
    doc["step_tables"]["weights"][0] = {"2": 1e-10, "4": 1e-10}


@pytest.mark.parametrize("edit, args", [
    (_tiny_first_step, ()),
    (_huge_first_weight, ("--set", "eval.weight_bits=[2]"))])
def test_sweep_quotient_overflow_is_silent(edit, args, tmp_path, capsys,
                                           smoke_checkpoint):
    """w / step overflows to inf under a subnormal step or beside a huge
    weight; the clip maps it back onto the grid, with no warning."""
    argv = _bad_checkpoint(edit, *args)(tmp_path, smoke_checkpoint)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows and all(math.isfinite(r["accuracy"]) and math.isfinite(r["loss"])
                        for r in rows)


class TestBoundCommand:
    FLAGS = ["--smoothness", "1", "--sigma-local", "1", "--sigma-global", "1",
             "--dim", "100", "--local-steps", "10", "--rounds", "1000",
             "--eta-server", "1"]

    def test_matches_library_call(self, capsys):
        code = main(["bound", *self.FLAGS, "--eta-client", "0.01",
                     "--method", "qat", "--step", "0.12",
                     "--initial-gap", "1"])
        assert code == 0
        got = json.loads(capsys.readouterr().out)
        want = compute_bound(BoundInputs(
            L=1.0, sigma_l=1.0, sigma_g=1.0, D=100, K=10, T=1000, eta_c=0.01,
            eta_s=1.0, method="qat", steps=(0.12,), initial_gap=1.0)).to_dict()
        assert got == want

    def test_condition_violation_exits_5_with_report(self, capsys):
        code = main(["bound", *self.FLAGS, "--eta-client", "0.02",
                     "--method", "qat", "--step", "0.12", "--initial-gap", "1"])
        assert code == 5
        got = json.loads(capsys.readouterr().out)
        assert got["conditions_ok"] is False
        assert got["bound"] is None

    def test_missing_inputs_exit_2(self, capsys):
        assert main(["bound", "--smoothness", "1"]) == 2
        assert "missing bound inputs" in capsys.readouterr().err

    def test_config_file_with_flag_overrides(self, tmp_path, capsys):
        path = tmp_path / "bound.json"
        path.write_text(json.dumps(BOUND_INPUTS))
        assert main(["bound", "--config", str(path)]) == 0
        base = json.loads(capsys.readouterr().out)
        assert main(["bound", "--config", str(path), "--rounds", "100"]) == 0
        fewer_rounds = json.loads(capsys.readouterr().out)
        assert fewer_rounds["bound"] > base["bound"]

    def test_config_file_takes_a_scalar_step(self, tmp_path, capsys):
        path = tmp_path / "bound.json"
        path.write_text(json.dumps({**BOUND_INPUTS, "steps": 0.12}))
        assert main(["bound", "--config", str(path)]) == 0
        scalar = json.loads(capsys.readouterr().out)
        assert main(["bound", "--config", str(path), "--step", "0.12"]) == 0
        assert scalar == json.loads(capsys.readouterr().out)

    def test_help_lists_units(self, capsys):
        with pytest.raises(SystemExit):
            main(["bound", "--help"])
        text = capsys.readouterr().out
        for flag in ("--smoothness", "--sigma-local", "--sigma-global", "--dim",
                     "--local-steps", "--rounds", "--eta-client", "--eta-server",
                     "--method", "--step", "--initial-gap"):
            assert flag in text
        assert "units" in text


class TestPartitionStats:
    def test_counts_sum_to_train_size(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["partition-stats", "--config", cfg]) == 0
        stats = json.loads(capsys.readouterr().out)
        # 3 classes * 20 samples/class, minus the 20% holdout stride
        assert stats["total_samples"] == 3 * 16
        assert sum(stats["client_sizes"]) == stats["total_samples"]

    def test_single_client_entropy_equals_global(self, tmp_path, capsys):
        doc = json.loads(json.dumps(SMOKE))
        doc["federation"]["num_clients"] = 1
        doc["federation"]["clients_per_round"] = 1
        cfg = write_config(tmp_path, doc, "single.json")
        assert main(["partition-stats", "--config", cfg]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert abs(stats["mean_entropy"] - math.log(3)) < 1e-9

    def test_alpha_orders_mean_entropy(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        means = {}
        for alpha in ("0.1", "1e6"):
            assert main(["partition-stats", "--config", cfg,
                         "--set", f"data.alpha={alpha}"]) == 0
            means[alpha] = json.loads(capsys.readouterr().out)["mean_entropy"]
        assert means["1e6"] > means["0.1"]


class TestEvalCommand:
    def test_resweep_matches_original_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out, "--quiet"]) == 0
        capsys.readouterr()
        ckpt = os.path.join(out, "checkpoint.json")
        assert main(["eval", "--checkpoint", ckpt]) == 0
        resweep = json.loads(capsys.readouterr().out)
        original = json.loads((tmp_path / "out" / "eval.json").read_text())
        assert resweep["rows"] == original["rows"]

    def test_eval_writes_artifacts_when_out_given(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out, "--quiet"]) == 0
        eval_out = str(tmp_path / "eval_out")
        assert main(["eval", "--checkpoint", os.path.join(out, "checkpoint.json"),
                     "--out", eval_out]) == 0
        assert os.path.exists(os.path.join(eval_out, "eval.csv"))
        assert os.path.exists(os.path.join(eval_out, "eval.json"))

    def test_set_overrides_eval_keys(self, tmp_path, capsys, smoke_checkpoint):
        assert main(["eval", "--checkpoint", smoke_checkpoint,
                     "--set", "eval.weight_bits=[2]"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [(r["weight_bits"], r["act_bits"]) for r in rows] == [(2, None)]
