"""Generated inputs: any one ``--set`` override of the smoke config keeps the
CLI's exit-code contract (0 success, 2 configuration error, 3 divergence),
and a failing run prints exactly one ``error:`` line and no traceback; any
tensor, bit-width, signedness and step keeps the quantizer laws."""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fedquant.cli import main  # noqa: E402
from fedquant.config import DEFAULTS  # noqa: E402
from fedquant.quantize import QuantSpec, quantize, ste_mask  # noqa: E402
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
VALUES = st.one_of(
    SMALL_INTS,
    st.lists(SMALL_INTS, max_size=3),
    st.sampled_from([0.0, -1.0, 1e-3, 0.5, 1e300, float("nan"), float("inf")]),
    st.text(max_size=4),
    st.booleans(),
    st.none(),
)


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


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(key=st.sampled_from(KEYS), value=VALUES)
def test_any_single_override_keeps_the_exit_code_contract(key, value):
    override = f"{key}={json.dumps(value)}"
    code, err = _run_smoke(override)
    assert code in (0, 2, 3), (override, code, err)
    assert "Traceback" not in err, override
    if code:
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (override, err)


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
