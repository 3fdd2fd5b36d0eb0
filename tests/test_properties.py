"""Generated inputs: any one ``--set`` override of the smoke config keeps the
CLI's exit-code contract (0 success, 2 configuration error, 3 divergence),
and a failing run prints exactly one ``error:`` line and no traceback; any
document setting several config fields at once builds or raises
ConfigError; any tensor, bit-width, signedness and step keeps the quantizer
laws."""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from fedquant.cli import main  # noqa: E402
from fedquant.config import (DEFAULTS, apply_overrides, build,  # noqa: E402
                             validate_config)
from fedquant.errors import ConfigError  # noqa: E402
from fedquant.quantize import QuantSpec, quantize, ste_mask  # noqa: E402
from fedquant.strategies import MQAT_MODES, STRATEGY_KINDS  # noqa: E402
from helpers import quantize_oracle  # noqa: E402

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
    return spec, np.array(draw(st.lists(ratio, min_size=1, max_size=24))) * spec.step


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(case=quantizer_cases())
def test_quantizer_laws(case):
    spec, w = case
    lo, hi = spec.grid_min, spec.grid_max
    q = quantize(w, spec)
    assert q.tobytes() == quantize_oracle(w, spec).tobytes()
    k = np.rint(q / spec.step)
    assert np.all((k >= lo) & (k <= hi))
    assert np.array_equal(q, spec.step * k)
    # equal as numbers: a -0.0 output (an unsigned grid's clip of a small
    # negative) comes back as +0.0
    assert np.array_equal(quantize(q, spec), q)
    ratio = w / spec.step
    near = (ratio >= lo - 0.5) & (ratio <= hi + 0.5)
    assert np.all(np.abs(q - w)[near] <= spec.step / 2 * (1 + 1e-12))
    assert np.array_equal(ste_mask(w, spec), (ratio >= lo) & (ratio <= hi))
