"""Generated inputs: any one ``--set`` override of the smoke config keeps the
CLI's exit-code contract (0 success, 2 configuration error, 3 divergence),
and a failing run prints exactly one ``error:`` line and no traceback; any
document setting several config fields at once builds or raises
ConfigError; any tensor, bit-width, signedness and step keeps the quantizer
laws, and the one rounding rule and the range search match their oracles
by bytes; any server state checkpoints to the bytes ``json.dump`` streams,
and any one edit of a saved checkpoint evaluates or exits 2 with one
``error:`` line, with no traceback and no warning."""

import contextlib
import functools
import io
import json
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import array_shapes, arrays  # noqa: E402

from fedquant import federation  # noqa: E402

from fedquant.cli import main  # noqa: E402
from fedquant.config import (DEFAULTS, apply_overrides, build,  # noqa: E402
                             validate_config)
from fedquant.errors import ConfigError  # noqa: E402
from fedquant.federation import ServerState, save_checkpoint  # noqa: E402
from fedquant.mlp import ParamSet  # noqa: E402
from fedquant.quantize import (QuantSpec, StepTable, candidate_mse,  # noqa: E402
                               quantize, round_half_away, ste_mask)
from fedquant.strategies import (MQAT_MODES, STRATEGY_KINDS,  # noqa: E402
                                 StepTables)
from helpers import (checkpoint_oracle, quantize_oracle,  # noqa: E402
                     range_search_oracle, round_half_away_oracle)

SMOKE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "configs", "smoke.json")


def _dotted_keys(section, trail=()):
    """Every key of ``DEFAULTS``, sections included, as a dotted path."""
    for key, value in section.items():
        yield ".".join(trail + (key,))
        if isinstance(value, dict):
            yield from _dotted_keys(value, trail + (key,))


KEYS = sorted(_dotted_keys(DEFAULTS))
SMALL_INTS = st.integers(min_value=-2, max_value=40)
FLOATS = st.sampled_from([0.0, -1.0, 1e-3, 0.5, 1e300, float("nan"),
                          float("inf")])
VALUES = st.one_of(
    SMALL_INTS,
    st.lists(SMALL_INTS, max_size=3),
    FLOATS,
    st.text(max_size=4),
    st.booleans(),
    st.none(),
)
# one size per size field far beyond config.MAX_VALUES, and no size between
# it and the shipped ones, so no example allocates more than a few MB;
# total_rounds is left out, as 2**70 rounds would only run long
HUGE = 2 ** 70
HUGE_OVERRIDES = [f"{key}={HUGE}" for key in (
    "data.dim", "data.samples_per_class", "data.num_classes",
    "federation.local_steps", "federation.batch_size",
    "federation.num_clients")] + [f"model.hidden=[{HUGE}]"]


def _run_smoke(override: str) -> tuple[int, str]:
    """``fedquant run`` on the smoke config with one ``--set``, in a fresh
    working directory; returns the exit code and stderr."""
    err = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            os.chdir(tmp)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(["run", "--config", SMOKE, "--out", "out",
                             "--quiet", "--set", override])
        finally:
            os.chdir(cwd)
    return code, err.getvalue()


def _with_examples(overrides):
    """Decorator: run every override in ``overrides``, whatever the draws."""
    def wrap(test):
        for override in overrides:
            test = example(override=override)(test)
        return test
    return wrap


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@_with_examples(HUGE_OVERRIDES)
@given(override=st.one_of(
    st.builds(lambda key, value: f"{key}={json.dumps(value)}",
              st.sampled_from(KEYS), VALUES),
    st.sampled_from(HUGE_OVERRIDES)))
def test_any_single_override_keeps_the_exit_code_contract(override):
    code, err = _run_smoke(override)
    assert code in (0, 2, 3), (override, code, err)
    assert "Traceback" not in err, override
    if code:
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (override, err)


def _default(key: str):
    node = DEFAULTS
    for part in key.split("."):
        node = node[part]
    return node


def _like(default):
    """Small values of ``default``'s JSON type: for a string, the names the
    schema knows; for a null, null or a small integer."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return SMALL_INTS
    if isinstance(default, float):
        return FLOATS
    if isinstance(default, list):
        return st.lists(SMALL_INTS, max_size=3)
    if isinstance(default, str):
        return st.sampled_from(STRATEGY_KINDS + MQAT_MODES + ("sgd", "adam"))
    return st.one_of(st.none(), SMALL_INTS)


LEAVES = [key for key in KEYS if not isinstance(_default(key), dict)]


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(fields=st.lists(st.sampled_from(LEAVES).flatmap(
    lambda key: st.tuples(st.just(key), _like(_default(key)))),
    min_size=2, max_size=8))
def test_any_document_builds_or_raises_config_error(fields):
    doc = apply_overrides({}, [f"{key}={json.dumps(value)}"
                               for key, value in fields])
    try:
        build(validate_config(doc))
    except ConfigError:
        pass


@st.composite
def quantizer_cases(draw):
    """A spec and a tensor whose ratios to the step fall on and between the
    grid points, on half-step ties, at both zeros and far beyond the grid."""
    spec = QuantSpec(bits=draw(st.sampled_from((2, 3, 4, 6, 8))),
                     step=draw(st.floats(min_value=1e-4, max_value=1e4)),
                     signed=draw(st.booleans()))
    lo, hi = spec.grid_min, spec.grid_max
    ratio = st.one_of(st.floats(min_value=lo - 4, max_value=hi + 4),
                      st.integers(lo - 3, hi + 3).map(lambda k: k + 0.5),
                      st.sampled_from([0.0, -0.0, -1e6, 1e6]))
    if draw(st.booleans()):  # a 0-d tensor
        return spec, np.array(draw(ratio) * spec.step)
    return spec, np.array(draw(st.lists(ratio, min_size=1, max_size=24))) * spec.step


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(case=quantizer_cases())
def test_quantizer_laws(case):
    spec, w = case
    lo, hi = spec.grid_min, spec.grid_max
    q = quantize(w, spec)
    assert type(q) is np.ndarray and q.shape == w.shape
    assert q.tobytes() == quantize_oracle(w, spec).tobytes()
    k = np.rint(q / spec.step)
    assert np.all((k >= lo) & (k <= hi))
    assert np.array_equal(q, spec.step * k)
    # idempotent by bytes: a -0.0 output (an unsigned grid's clip of a
    # small negative) stays -0.0
    assert quantize(q, spec).tobytes() == q.tobytes()
    ratio = w / spec.step
    near = (ratio >= lo - 0.5) & (ratio <= hi + 0.5)
    assert np.all(np.abs(q - w)[near] <= spec.step / 2 * (1 + 1e-12))
    assert np.array_equal(ste_mask(w, spec), (ratio >= lo) & (ratio <= hi))


# both zeros, half-integer ties, subnormals, magnitudes at and above 2**52
# (where + 0.5 itself rounds), the float extremes and the infinities a
# sweep's overflowed quotient w / step brings
ROUNDING_VALUES = st.one_of(
    st.floats(allow_nan=False),
    st.integers(-2 ** 53, 2 ** 53).map(lambda k: k + 0.5),
    st.sampled_from([0.0, -0.0, 0.49999999999999994, -0.49999999999999994,
                     5e-324, -5e-324, 2.2e-308, -1e-310, 2.0 ** 52 - 0.5,
                     2.0 ** 52, -2.0 ** 52, 2.0 ** 52 + 1, -(2.0 ** 53 + 2),
                     1e308, -1e308, float("inf"), float("-inf")]))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(x=arrays(np.float64, array_shapes(min_dims=0, max_dims=2, max_side=8),
                elements=ROUNDING_VALUES))
def test_round_half_away_matches_the_oracle(x):
    """By bytes, into a new array, into ``x`` itself and into another
    buffer, leaving ``x`` alone unless it is ``out``."""
    want = round_half_away_oracle(x).tobytes()
    before = x.tobytes()
    assert round_half_away(x).tobytes() == want
    other = np.full_like(x, 7.0)
    assert round_half_away(x, out=other) is other and other.tobytes() == want
    assert x.tobytes() == before
    assert round_half_away(x, out=x) is x and x.tobytes() == want


@st.composite
def range_cases(draw):
    """A tensor, with negative values on unsigned grids too, a bit-width,
    a signedness and a candidate count."""
    values = st.one_of(st.floats(min_value=-1e3, max_value=1e3),
                       st.sampled_from([0.0, -0.0, 1e-310, -5e-324, 0.5, -0.5]))
    w = draw(arrays(np.float64, array_shapes(min_dims=1, max_dims=2, max_side=12),
                    elements=values))
    w.flat[0] = draw(st.floats(min_value=1e-3, max_value=1e3)) * draw(
        st.sampled_from([1.0, -1.0]))
    return (w, draw(st.sampled_from((2, 3, 4, 6, 8))), draw(st.booleans()),
            draw(st.integers(1, 150)))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(case=range_cases())
def test_candidate_mse_matches_the_oracle(case):
    w, bits, signed, num_candidates = case
    _, steps, mses = range_search_oracle(w, bits, signed, num_candidates)
    got = candidate_mse(w, np.array(steps), bits, signed)
    assert got.tobytes() == np.array(mses).tobytes()


CHECKPOINT_VALUES = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-310, 1e300,
                     -1e300, 1 / 3]))


@st.composite
def server_states(draw):
    """A state over drawn layer widths and values, with or without Adam
    moments and step tables (with or without activation tables)."""
    widths = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    layers = [(draw(arrays(np.float64, (i, o), elements=CHECKPOINT_VALUES)),
               draw(arrays(np.float64, o, elements=CHECKPOINT_VALUES)))
              for i, o in zip(widths[:-1], widths[1:])]
    params = ParamSet(layers)
    vector = arrays(np.float64, params.dim, elements=CHECKPOINT_VALUES)
    adam = draw(st.booleans())
    tables = None
    if draw(st.booleans()):
        step = st.floats(min_value=1e-12, max_value=1e3)

        def table():
            return StepTable({b: draw(step) for b in
                              draw(st.sets(st.sampled_from((2, 3, 4, 8)), min_size=1))})
        tables = StepTables(weights=[table() for _ in layers],
                            acts=[table() for _ in layers[1:]]
                            if draw(st.booleans()) else None)
    return ServerState(round_idx=draw(st.integers(0, 10 ** 6)), params=params,
                       adam_m=draw(vector) if adam else None,
                       adam_v=draw(vector) if adam else None,
                       step_tables=tables)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(state=server_states(), block=st.integers(1, 8))
def test_checkpoint_bytes_match_the_streamed_encoder(state, block):
    """With the writer's block drawn small, every vector spans blocks."""
    config = {"seed": 1, "name": "x\u00e9"}
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(federation, "WRITE_VALUES", block):
        got, want = os.path.join(tmp, "got"), os.path.join(tmp, "want")
        save_checkpoint(got, state, config)
        checkpoint_oracle(want, state, config)
        with open(got, "rb") as fg, open(want, "rb") as fw:
            assert fg.read() == fw.read()


@functools.cache
def _smoke_checkpoint() -> str:
    """The text of the smoke run's checkpoint, with Adam moments."""
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", "--config", SMOKE, "--out", tmp, "--quiet",
                         "--set", 'federation.server_opt="adam"']) == 0
        with open(os.path.join(tmp, "checkpoint.json"), encoding="utf-8") as fh:
            return fh.read()


JSON_VALUES = st.one_of(
    st.floats(), st.integers(-3, 40), st.sampled_from([10 ** 400, 2 ** 70]),
    st.sampled_from(["1", "0.1", "", "abc", "NaN"]), st.booleans(), st.none(),
    st.lists(st.floats(min_value=-2, max_value=2), max_size=3), st.just({}))
# the keys save_checkpoint writes, str(bits), and near misses that int()
# reads as a bit-width too: a sign, white space, leading zeros, an
# underscore or non-ASCII digits
NEAR_MISS_KEYS = st.tuples(st.sampled_from(["", " ", "+", "0", "00", "\t"]),
                           st.sampled_from(["2", "4", "8", "0_4", "\u0664",
                                            "\uff18"]),
                           st.sampled_from(["", " ", "\n"])).map("".join)
STEP_KEYS = st.one_of(NEAR_MISS_KEYS,
                      st.sampled_from(["2", "4", "8", "32", "1", "0", "-4",
                                       "4.0", "true", ""]),
                      st.text(max_size=3))


@st.composite
def checkpoint_edits(draw):
    """One edit of the smoke checkpoint's JSON: a weight, bias or Adam
    entry, a step-table key or value, the round or the widths."""
    doc = json.loads(_smoke_checkpoint())
    pick = lambda seq: draw(st.integers(0, len(seq) - 1))  # noqa: E731
    kind = draw(st.sampled_from(["weight", "bias", "adam", "step-key",
                                 "step-value", "round", "widths"]))
    if kind == "weight":
        layer = doc["layers"][pick(doc["layers"])]["weight"]
        row = layer[pick(layer)]
        row[pick(row)] = draw(JSON_VALUES)
    elif kind == "bias":
        bias = doc["layers"][pick(doc["layers"])]["bias"]
        bias[pick(bias)] = draw(JSON_VALUES)
    elif kind == "adam":
        vec = doc[draw(st.sampled_from(["adam_m", "adam_v"]))]
        vec[pick(vec)] = draw(JSON_VALUES)
    elif kind.startswith("step"):
        tables = doc["step_tables"]["weights"]
        table = tables[pick(tables)]
        key = sorted(table)[pick(table)]
        if kind == "step-key":
            table[draw(STEP_KEYS)] = table.pop(key)
        else:
            table[key] = draw(JSON_VALUES)
    elif kind == "round":
        doc["round"] = draw(JSON_VALUES)
    elif draw(st.booleans()):
        doc["widths"] = draw(JSON_VALUES)
    else:
        doc["widths"][pick(doc["widths"])] = draw(JSON_VALUES)
    return doc


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(doc=checkpoint_edits())
def test_any_checkpoint_edit_evaluates_or_exits_2(doc):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "checkpoint.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["eval", "--checkpoint", path])
    assert not caught, [str(w.message) for w in caught]
    assert "Traceback" not in err.getvalue()
    assert code in (0, 2), (code, err.getvalue())
    tables = doc["step_tables"]["weights"]
    if any(key not in ("2", "3", "4", "6", "8") for t in tables for key in t):
        assert code == 2, [list(t) for t in tables]
    if code:
        lines = err.getvalue().strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
