"""Declarative experiment configuration.

One JSON document describes a full run: data generation/partition, model
widths, federation schedule, client strategy, the evaluation sweep and output
paths. The schema is strict (unknown keys are rejected) and versioned;
``--set dotted.key=value`` overrides are applied before validation. The
effective config is embedded in every JSON artifact a run emits, so results
are reproducible from any artifact alone.
"""

from __future__ import annotations

import copy
import json
import os

import numpy as np

from .data import (Dataset, FederatedDataset, dirichlet_partition,
                   gen_synthetic, load_csv)
from .errors import ConfigError
from .evaluation import BitConfig
from .federation import FedConfig
from .rng import Purpose, RngStream
from .strategies import StrategyConfig

SCHEMA_VERSION = 1
SEED_ENV_VAR = "FEDQUANT_SEED"

DEFAULTS: dict = {
    "schema_version": SCHEMA_VERSION,
    "seed": 0,
    "data": {
        "num_classes": 10,
        "dim": 32,
        "samples_per_class": 50,
        "class_separation": 3.0,
        "alpha": 1.0,
        "csv_path": None,
    },
    "model": {
        "hidden": [64],
    },
    "federation": {
        "total_rounds": 100,
        "num_clients": 100,
        "clients_per_round": 10,
        "eta_s": 1.0,
        "eta_c": 0.05,
        "local_steps": None,
        "batch_size": 20,
        "server_opt": "adam",
        "adam_beta1": 0.9,
        "adam_beta2": 0.99,
        "adam_eps": 1e-8,
        "eval_every": 10,
    },
    "strategy": {
        "kind": "baseline",
        "lambda": 0.1,
        "k_tau": 1.8,
        "train_bits": None,
        "bit_set": [],
        "mqat_mode": "per_round",
        "quantize_weights": True,
        "quantize_acts": False,
    },
    "eval": {
        "weight_bits": [32, 8, 6, 4, 3, 2],
        "act_bits": [],
        "wa_bits": [],
        "exempt_first_last": False,
    },
    "output": {
        "dir": "out",
    },
}

# keys that may hold null, with the type of their non-null values;
# every other key must match its default's type
_NULLABLE = {("data", "csv_path"): str, ("federation", "local_steps"): int,
             ("strategy", "train_bits"): int}


def _type_ok(value, kind: type) -> bool:
    """JSON-level type check: bool is not an int, an int is a valid float,
    and every list in the schema holds integers."""
    if kind is list:
        return isinstance(value, list) and all(_type_ok(v, int) for v in value)
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


def _check_section(defaults: dict, given: dict, trail: tuple[str, ...]) -> dict:
    merged = {}
    for key, value in given.items():
        where = ".".join(trail + (key,))
        if key not in defaults:
            raise ConfigError(f"unknown config key {where!r}")
        base = defaults[key]
        if isinstance(base, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where} must be a section")
            merged[key] = _check_section(base, value, trail + (key,))
            continue
        nullable = _NULLABLE.get(trail + (key,))
        if value is None and nullable is None:
            raise ConfigError(f"{where} may not be null")
        kind = nullable or type(base)
        if value is not None and not _type_ok(value, kind):
            expected = "a list of integers" if kind is list else kind.__name__
            raise ConfigError(f"{where} must be {expected}, got {value!r}")
        merged[key] = value
    for key, base in defaults.items():
        if key not in merged:
            merged[key] = copy.deepcopy(base)
    return merged


def validate_config(doc: dict) -> dict:
    """Merge a raw document over the defaults, rejecting unknown keys."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    merged = _check_section(DEFAULTS, doc, ())
    if merged["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {merged['schema_version']}")
    return merged


def _coerce(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_overrides(doc: dict, overrides: list[str]) -> dict:
    """Apply --set dotted.key=value pairs onto a raw config document."""
    doc = copy.deepcopy(doc)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, raw = item.partition("=")
        parts = key.strip().split(".")
        node = doc
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {key!r} crosses a non-section")
        node[parts[-1]] = _coerce(raw)
    return doc


def load_config(path: str, overrides: list[str] | None = None) -> dict:
    """Read, override and validate a config file.

    The FEDQUANT_SEED environment variable supplies the seed only when the
    file (and the overrides) leave it unset.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    raw = apply_overrides(raw, overrides or [])
    if "seed" not in raw and os.environ.get(SEED_ENV_VAR):
        try:
            raw["seed"] = int(os.environ[SEED_ENV_VAR])
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer") from exc
    return validate_config(raw)


def build_fed_config(doc: dict) -> FedConfig:
    f = doc["federation"]
    return FedConfig(total_rounds=f["total_rounds"], num_clients=f["num_clients"],
                     clients_per_round=f["clients_per_round"], eta_s=f["eta_s"],
                     eta_c=f["eta_c"], local_steps=f["local_steps"],
                     batch_size=f["batch_size"], server_opt=f["server_opt"],
                     adam_beta1=f["adam_beta1"], adam_beta2=f["adam_beta2"],
                     adam_eps=f["adam_eps"], seed=doc["seed"],
                     eval_every=f["eval_every"])


def build_strategy(doc: dict) -> StrategyConfig:
    s = doc["strategy"]
    return StrategyConfig(kind=s["kind"], lam=s["lambda"], k_tau=s["k_tau"],
                          train_bits=s["train_bits"], bit_set=tuple(s["bit_set"]),
                          mqat_mode=s["mqat_mode"],
                          quantize_weights=s["quantize_weights"],
                          quantize_acts=s["quantize_acts"])


def _stride_split(ds: Dataset) -> tuple[Dataset, Dataset]:
    val_mask = (np.arange(ds.size) % 5) == 4
    train = Dataset(ds.inputs[~val_mask], ds.labels[~val_mask], ds.num_classes)
    val = Dataset(ds.inputs[val_mask], ds.labels[val_mask], ds.num_classes)
    return train, val


def build_data(doc: dict) -> FederatedDataset:
    d = doc["data"]
    root = RngStream(doc["seed"])
    if d["csv_path"]:
        full = load_csv(d["csv_path"])
        train, val = _stride_split(full)
    else:
        train, val = gen_synthetic(d["num_classes"], d["dim"],
                                   d["samples_per_class"], d["class_separation"],
                                   root.child(Purpose.DATA))
    assignment = dirichlet_partition(train.labels,
                                     doc["federation"]["num_clients"],
                                     d["alpha"], root.child(Purpose.PARTITION))
    return FederatedDataset(base=train, assignment=assignment,
                            alpha=d["alpha"], holdout=val)


def build_bit_configs(doc: dict) -> list[BitConfig]:
    e = doc["eval"]
    configs = [BitConfig(weight_bits=b) for b in e["weight_bits"]]
    configs += [BitConfig(act_bits=b) for b in e["act_bits"]]
    configs += [BitConfig(weight_bits=b, act_bits=b) for b in e["wa_bits"]]
    if not configs:
        raise ConfigError("the eval section requests no bit configs")
    return configs


def hidden_widths(doc: dict) -> tuple[int, ...]:
    hidden = tuple(int(h) for h in doc["model"]["hidden"])
    if not hidden or any(h < 1 for h in hidden):
        raise ConfigError("model.hidden must list positive layer widths")
    return hidden
