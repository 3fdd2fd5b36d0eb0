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
import sys
from dataclasses import fields
from typing import get_args, get_origin, get_type_hints

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

# dataclass fields whose JSON key differs from the field name
_JSON_KEYS = {"lam": "lambda"}


def _fields_schema(cls, skip: tuple[str, ...] = ()) -> tuple[dict, dict]:
    """The JSON defaults and annotations of a dataclass's fields, in field
    order; a tuple default is exposed as a list."""
    hints = get_type_hints(cls)
    defaults, kinds = {}, {}
    for f in fields(cls):
        if f.name not in skip:
            key = _JSON_KEYS.get(f.name, f.name)
            defaults[key] = list(f.default) if isinstance(f.default, tuple) \
                else f.default
            kinds[key] = hints[f.name]
    return defaults, kinds


_FED_DEFAULTS, _FED_KINDS = _fields_schema(FedConfig, skip=("seed",))
_STRATEGY_DEFAULTS, _STRATEGY_KINDS = _fields_schema(StrategyConfig)

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
    "federation": _FED_DEFAULTS,
    "strategy": _STRATEGY_DEFAULTS,
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

# annotations, by section, of the keys whose type is not their default's;
# every other list in the schema holds integers
_KINDS = {"data": {"csv_path": str | None}, "federation": _FED_KINDS,
          "strategy": _STRATEGY_KINDS}


def _type_ok(value, kind) -> bool:
    """JSON-level check against an annotation: bool is not an int, a string
    is not a number, an int is a valid float, a float must be finite (NaN,
    infinities and ints beyond the float range are not), a list or tuple is
    a JSON list and ``X | None`` also admits null."""
    args = get_args(kind)
    if get_origin(kind) in (list, tuple):
        return isinstance(value, list) and all(_type_ok(v, args[0]) for v in value)
    if args:
        return any(_type_ok(value, a) for a in args)
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def _check_value(where: str, value, kind) -> None:
    if not _type_ok(value, kind):
        name = kind.__name__ if isinstance(kind, type) else kind
        raise ConfigError(f"{where} must be {name}, got {value!r}")


def _check_section(defaults: dict, kinds: dict, given: dict,
                   trail: tuple[str, ...]) -> dict:
    merged = {}
    for key, value in given.items():
        where = ".".join(trail + (key,))
        if key not in defaults:
            raise ConfigError(f"unknown config key {where!r}")
        base = defaults[key]
        if isinstance(base, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where} must be a section")
            merged[key] = _check_section(base, kinds.get(key, {}), value,
                                         trail + (key,))
            continue
        _check_value(where, value, kinds.get(
            key, list[int] if isinstance(base, list) else type(base)))
        merged[key] = value
    for key, base in defaults.items():
        if key not in merged:
            merged[key] = copy.deepcopy(base)
    return merged


def check_fields(cls, values: dict, what: str) -> None:
    """Require exactly the fields of dataclass ``cls`` in a JSON object, each
    of its annotation's JSON type (the rules of ``_type_ok``)."""
    kinds = get_type_hints(cls)
    unknown = [key for key in values if key not in kinds]
    if unknown:
        raise ConfigError(f"unknown {what} {unknown[0]!r}")
    missing = [key for key in kinds if key not in values]
    if missing:
        raise ConfigError(f"missing {what}s: {', '.join(missing)}")
    for key, kind in kinds.items():
        _check_value(key, values[key], kind)


def validate_config(doc: dict) -> dict:
    """Merge a raw document over the defaults, rejecting unknown keys."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    merged = _check_section(DEFAULTS, _KINDS, doc, ())
    if merged["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {merged['schema_version']}")
    # streams key on the seed's low 64 bits, so a wider seed would alias one
    if not 0 <= merged["seed"] < 2 ** 64:
        raise ConfigError(f"seed must lie in [0, 2**64), got {merged['seed']}")
    return merged


def _coerce(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_overrides(doc: dict, overrides: list[str]) -> dict:
    """Apply --set dotted.key=value pairs onto a raw config object."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
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
    return FedConfig(seed=doc["seed"], **doc["federation"])


def build_strategy(doc: dict) -> StrategyConfig:
    s = dict(doc["strategy"])
    s["lam"] = s.pop("lambda")
    return StrategyConfig(**s)


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
    for key in ("weight_bits", "act_bits", "wa_bits"):
        if len(set(e[key])) != len(e[key]):
            raise ConfigError(f"eval.{key} {e[key]} repeats a bit-width")
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
