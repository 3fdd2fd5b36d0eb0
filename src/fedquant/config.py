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
from dataclasses import dataclass, fields
from typing import get_args, get_origin, get_type_hints

from .data import (Batch, Dataset, FederatedDataset, dirichlet_partition,
                   gen_synthetic, holdout_mask, load_csv)
from .errors import ConfigError
from .evaluation import BitConfig
from .federation import FedConfig, _resolve_local_steps, make_calibration_batch
from .rng import Purpose, RngStream
from .strategies import StrategyConfig

SCHEMA_VERSION = 1
SEED_ENV_VAR = "FEDQUANT_SEED"

# Most values the synthetic data, the model or one client's gathered batches
# may hold. 2**31 float64 values are 16 GiB, far above every shipped config
# and benchmark workload (at most 800,000 data values and 76,810 parameters,
# both wide-apqn's), yet a mistyped size such as 2**70 is refused here with
# exit 2 instead of reaching numpy as an array it cannot allocate.
MAX_VALUES = 2 ** 31

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


def _stride_split(ds: Dataset) -> tuple[Dataset, Dataset]:
    val_mask = holdout_mask(ds.size, "the number of CSV rows")
    train = Dataset(ds.inputs[~val_mask], ds.labels[~val_mask], ds.num_classes)
    val = Dataset(ds.inputs[val_mask], ds.labels[val_mask], ds.num_classes)
    return train, val


def _check_count(what: str, count: int) -> None:
    if count > MAX_VALUES:
        raise ConfigError(f"{what} would hold {count} values, more than "
                          f"the {MAX_VALUES} a run may allocate")


def build_data(doc: dict) -> FederatedDataset:
    d = doc["data"]
    root = RngStream(doc["seed"])
    if d["csv_path"]:
        full = load_csv(d["csv_path"])
        train, val = _stride_split(full)
    else:
        _check_count("the synthetic data",
                     d["num_classes"] * d["samples_per_class"] * d["dim"])
        train, val = gen_synthetic(d["num_classes"], d["dim"],
                                   d["samples_per_class"], d["class_separation"],
                                   root.child(Purpose.DATA))
    assignment = dirichlet_partition(train.labels,
                                     doc["federation"]["num_clients"],
                                     d["alpha"], root.child(Purpose.PARTITION))
    return FederatedDataset(base=train, assignment=assignment, holdout=val)


@dataclass(frozen=True)
class Experiment:
    """A validated config document and the run and sweep built from it."""

    doc: dict
    fed: FedConfig
    strategy: StrategyConfig
    data: FederatedDataset
    hidden: tuple[int, ...]
    bit_configs: list[BitConfig]

    @property
    def calib_batch(self) -> Batch:
        """The seeded batch both step tables and sweep calibrate on."""
        return make_calibration_batch(self.data.base, self.fed.batch_size,
                                      RngStream(self.fed.seed))


def build(doc: dict) -> Experiment:
    """The run and sweep of a validated document; ConfigError if a part cannot
    be built or the model or a client's batches exceed ``MAX_VALUES``."""
    s = dict(doc["strategy"])
    s["lam"] = s.pop("lambda")
    fed = FedConfig(seed=doc["seed"], **doc["federation"])
    strat = StrategyConfig(**s)
    data = build_data(doc)
    hidden = tuple(doc["model"]["hidden"])
    if not hidden or min(hidden) < 1:
        raise ConfigError("model.hidden must list positive layer widths")
    widths = [data.base.inputs.shape[1], *hidden, data.base.num_classes]
    _check_count("the model", sum((a + 1) * b for a, b in zip(widths, widths[1:])))
    largest = max(a.size for a in data.assignment)
    _check_count("one client's batches", _resolve_local_steps(fed, largest)
                 * min(fed.batch_size, largest) * widths[0])
    e = doc["eval"]
    for key in ("weight_bits", "act_bits", "wa_bits"):
        if len(set(e[key])) != len(e[key]):
            raise ConfigError(f"eval.{key} {e[key]} repeats a bit-width")
    bit_configs = [BitConfig(weight_bits=b) for b in e["weight_bits"]]
    bit_configs += [BitConfig(act_bits=b) for b in e["act_bits"]]
    bit_configs += [BitConfig(weight_bits=b, act_bits=b) for b in e["wa_bits"]]
    if not bit_configs:
        raise ConfigError("the eval section requests no bit configs")
    return Experiment(doc, fed, strat, data, hidden, bit_configs)
