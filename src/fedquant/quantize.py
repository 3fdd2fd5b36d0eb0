"""Uniform symmetric fake quantization.

A quantizer maps a real tensor onto the lattice ``step * k`` for integers
``k`` in a bit-width dependent grid: signed tensors (weights) use
``[-2^(b-1), 2^(b-1) - 1]``, unsigned tensors (post-ReLU activations) use
``[0, 2^b - 1]``. Values are divided by the step, rounded to the nearest
integer (ties away from zero) and clamped to the grid. 32 bits is full
precision: ``None``, never a spec, so nothing here accepts it.

Step sizes for different bit-widths of the same tensor are tied together by
``step_a * (2^a - 1) == step_b * (2^b - 1)``, i.e. all widths span the same
real range; ``rescale_step`` converts between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError
from .rng import RngStream

SUPPORTED_BITS = (2, 3, 4, 6, 8, 32)
IDENTITY_BITS = 32


def grid_bounds(bits: int, signed: bool) -> tuple[int, int]:
    if signed:
        return -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    return 0, 2 ** bits - 1


def _check_bits(bits: int) -> None:
    if bits == IDENTITY_BITS:
        raise ConfigError("32 bits is full precision and has no quantizer grid")
    if bits not in SUPPORTED_BITS:
        raise ConfigError(f"unsupported bit-width {bits}; choose from {SUPPORTED_BITS}")


@dataclass(frozen=True)
class QuantSpec:
    """Per-tensor quantizer; ``grid_bounds`` derives its grid from the bits."""

    bits: int
    step: float
    signed: bool = True

    def __post_init__(self):
        _check_bits(self.bits)
        if not (self.step > 0.0 and np.isfinite(self.step)):
            raise ConfigError(f"quantizer step must be positive, got {self.step}")

    @property
    def grid_min(self) -> int:
        return grid_bounds(self.bits, self.signed)[0]

    @property
    def grid_max(self) -> int:
        return grid_bounds(self.bits, self.signed)[1]


def make_spec(range_max: float, bits: int, signed: bool = True) -> QuantSpec:
    """Build a spec whose largest positive grid point equals ``range_max``.

    Signed: step = range_max / (2^(b-1) - 1). Unsigned: range_max / (2^b - 1).
    """
    _check_bits(bits)
    if not (range_max > 0.0 and np.isfinite(range_max)):
        raise ConfigError(f"range_max must be positive, got {range_max}")
    return QuantSpec(bits=bits, step=range_max / grid_bounds(bits, signed)[1],
                     signed=signed)


# Elements per round_half_away block: its signs take at most 512 KiB, and a
# block's four passes stay in cache.
_ROUND_BLOCK = 1 << 16


def _round_rows(x: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    # copysign, not np.sign: a -0.0 keeps its sign, so quantize is
    # idempotent by bytes
    sign = np.copysign(1.0, x)
    k = np.abs(x, out=out)
    k += 0.5
    np.floor(k, out=k)
    k *= sign
    return k


def round_half_away(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Round to nearest integer, ties away from zero (np.round ties to even);
    a zero result keeps the sign of its input, so -0.0 stays -0.0.

    ``x`` is an array of at least one dimension. The result goes to ``out``
    (``x`` itself or a buffer not overlapping it), or to a new array when
    ``out`` is None, leaving ``x`` unchanged. Row blocks of at most
    ``_ROUND_BLOCK`` elements are rounded in turn, so the only temporary is
    one block's ``np.copysign``; a boolean mask with ``np.negative(...,
    where=)`` would be smaller, but numpy's masked loop is 2-3x slower.
    """
    if x.size <= _ROUND_BLOCK:
        return _round_rows(x, out)
    k = np.empty_like(x) if out is None else out
    rows = max(1, _ROUND_BLOCK * len(x) // x.size)
    for lo in range(0, len(x), rows):
        _round_rows(x[lo:lo + rows], k[lo:lo + rows])
    return k


def quantize(w: np.ndarray, spec: QuantSpec,
             out: np.ndarray | None = None) -> np.ndarray:
    """Snap ``w`` onto the spec's grid: step * clip(round(w/step), lo, hi).

    The result goes to ``out`` (``w`` itself or a buffer not overlapping
    it), or to a new array when ``out`` is None, leaving ``w`` unchanged.
    A non-finite ``w`` raises before anything is written.
    """
    w = np.asarray(w, dtype=np.float64)
    if not np.isfinite(w).all():
        raise NumericError("cannot quantize non-finite values")
    k = np.divide(w, spec.step, out=out)
    round_half_away(k, out=k)
    # ndarray.clip is np.clip without its dispatch; it also keeps np.clip's
    # sign of zero, which np.maximum does not (-0.0 against a grid floor of 0)
    k.clip(*grid_bounds(spec.bits, spec.signed), out=k)
    k *= spec.step
    return k


_BLOCK_ELEMENTS = 16384  # candidate rows x tensor elements per kernel pass
RANGE_CANDIDATES = 100  # clipping ranges each estimate_range_mse search tries


def candidate_mse(w: np.ndarray, steps: np.ndarray, bits: int,
                  signed: bool = True) -> np.ndarray:
    """Reconstruction MSE of ``w`` on the grid of each step in ``steps``.

    Entry i equals ``np.mean((quantize(w, spec_i) - w) ** 2)`` bit for bit:
    the same operations in the same order, on ``w`` read in memory order.
    Blocks of steps share one buffer of at most ``_BLOCK_ELEMENTS`` values
    (one row if the tensor is larger), so the loop allocates nothing.
    """
    grid_min, grid_max = grid_bounds(bits, signed)
    flat = np.asarray(w, dtype=np.float64).ravel(order="K")
    mag = np.abs(flat)
    sign = np.copysign(1.0, flat)
    # round(|w|/step) clamped to the grid on w's side of zero
    cap = np.where(flat >= 0, float(grid_max), float(-grid_min))
    mse = np.empty(steps.size)
    rows = max(1, min(steps.size, _BLOCK_ELEMENTS // flat.size))
    buf = np.empty((rows, flat.size))
    for lo in range(0, steps.size, rows):
        step = steps[lo:lo + rows, None]
        b = buf[:step.shape[0]]
        np.divide(mag, step, out=b)
        b += 0.5
        np.floor(b, out=b)
        np.minimum(b, cap, out=b)
        b *= sign
        b *= step
        b -= flat
        np.square(b, out=b)
        np.mean(b, axis=1, out=mse[lo:lo + step.shape[0]])
    return mse


def estimate_range_mse(w: np.ndarray, bits: int, signed: bool = True) -> QuantSpec:
    """Grid-search the clipping range that minimizes reconstruction MSE.

    Candidate maxima are (j / n) * max|w| for j = 1..n, n = RANGE_CANDIDATES;
    ties break toward the larger range. An all-zero tensor cannot anchor a
    range, so it falls back to a unit range (step ``1 / grid_max``).
    """
    _check_bits(bits)
    w = np.asarray(w, dtype=np.float64)
    if w.size == 0:
        raise ConfigError("cannot estimate a range for an empty tensor")
    absmax = float(np.max(np.abs(w)))
    if absmax == 0.0:
        return make_spec(1.0, bits, signed)
    ranges = absmax * (np.arange(RANGE_CANDIDATES, 0, -1) / RANGE_CANDIDATES)
    steps = ranges / grid_bounds(bits, signed)[1]
    bad = np.flatnonzero(~((steps > 0.0) & (steps < np.inf)))
    if bad.size:  # a non-finite tensor, or a step that underflows to zero
        make_spec(float(ranges[bad[0]]), bits, signed)
    # argmin keeps the first minimum: the largest range among equal MSEs
    best = int(np.argmin(candidate_mse(w, steps, bits, signed)))
    return make_spec(float(ranges[best]), bits, signed)


def rescale_step(step_b: float, bits_b: int, bits_a: int) -> float:
    """Convert a step calibrated at bits_b into the step for bits_a.

    step_a = (2^b - 1) / (2^a - 1) * step_b, which keeps the spanned range
    (number of grid intervals times step) identical across bit-widths.
    """
    _check_bits(bits_a)
    _check_bits(bits_b)
    if not (step_b > 0.0):
        raise ConfigError(f"step must be positive, got {step_b}")
    return ((2 ** bits_b - 1) / (2 ** bits_a - 1)) * step_b


def pseudo_quantize(w: np.ndarray, step: float, rng: RngStream) -> np.ndarray:
    """Additive uniform noise on [-step/2, step/2) instead of rounding.

    No clipping is applied; the perturbation mimics the quantization error of
    a step-size ``step`` quantizer while staying differentiable in ``w``.
    """
    if not (step > 0.0):
        raise ConfigError(f"noise step must be positive, got {step}")
    w = np.asarray(w, dtype=np.float64)
    u = rng.uniform(w.shape)
    u -= 0.5
    u *= step
    u += w
    return u


def ste_mask(w: np.ndarray, spec: QuantSpec) -> np.ndarray:
    """Boolean mask of elements whose pre-image lies inside the clip range."""
    lo, hi = grid_bounds(spec.bits, spec.signed)
    ratio = np.asarray(w, dtype=np.float64) / spec.step
    inside = ratio >= lo
    inside &= ratio <= hi
    return inside


def ste_backward(grad_out: np.ndarray, w: np.ndarray, spec: QuantSpec) -> np.ndarray:
    """Straight-through gradient: pass inside the representable range, zero outside."""
    if np.shape(grad_out) != np.shape(w):
        raise NumericError(
            f"gradient shape {np.shape(grad_out)} does not match tensor {np.shape(w)}")
    return np.where(ste_mask(w, spec), grad_out, 0.0)


@dataclass
class StepTable:
    """Step sizes per bit-width for one tensor, all spanning the same range."""

    steps: dict[int, float] = field(default_factory=dict)

    def step_for(self, bits: int) -> float:
        """Look up, or derive by rescaling from any stored entry."""
        _check_bits(bits)
        if bits in self.steps:
            return self.steps[bits]
        if not self.steps:
            raise ConfigError("empty step table")
        anchor = min(self.steps)
        return rescale_step(self.steps[anchor], anchor, bits)

    def spec_for(self, bits: int, signed: bool = True) -> QuantSpec:
        return QuantSpec(bits=bits, step=self.step_for(bits), signed=signed)

