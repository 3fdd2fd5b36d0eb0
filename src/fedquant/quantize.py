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
    """Per-tensor quantizer; ``grid_bounds`` derives its grid from the bits.

    ``default_range`` flags a spec that fell back to a unit range because the
    calibration tensor was all zeros.
    """

    bits: int
    step: float
    signed: bool = True
    default_range: bool = False

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


def make_spec(range_max: float, bits: int, signed: bool = True,
              default_range: bool = False) -> QuantSpec:
    """Build a spec whose largest positive grid point equals ``range_max``.

    Signed: step = range_max / (2^(b-1) - 1). Unsigned: range_max / (2^b - 1).
    """
    _check_bits(bits)
    if not (range_max > 0.0 and np.isfinite(range_max)):
        raise ConfigError(f"range_max must be positive, got {range_max}")
    return QuantSpec(bits=bits, step=range_max / grid_bounds(bits, signed)[1],
                     signed=signed, default_range=default_range)


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer, ties away from zero (np.round ties to even)."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def quantize(w: np.ndarray, spec: QuantSpec) -> np.ndarray:
    """Snap ``w`` onto the spec's grid: step * clip(round(w/step), lo, hi)."""
    if not np.all(np.isfinite(w)):
        raise NumericError("cannot quantize non-finite values")
    k = np.clip(round_half_away(np.asarray(w, dtype=np.float64) / spec.step),
                spec.grid_min, spec.grid_max)
    return spec.step * k


def estimate_range_mse(w: np.ndarray, bits: int, signed: bool = True,
                       num_candidates: int = 100) -> QuantSpec:
    """Grid-search the clipping range that minimizes reconstruction MSE.

    Candidate maxima are (j / num_candidates) * max|w| for j = 1..num_candidates;
    ties break toward the larger range. An all-zero tensor cannot anchor a
    range, so it falls back to a unit range with ``default_range`` set.
    """
    _check_bits(bits)
    if num_candidates < 2:
        raise ConfigError("need at least 2 range candidates")
    w = np.asarray(w, dtype=np.float64)
    if w.size == 0:
        raise ConfigError("cannot estimate a range for an empty tensor")
    absmax = float(np.max(np.abs(w)))
    if absmax == 0.0:
        return make_spec(1.0, bits, signed, default_range=True)
    best_spec = None
    best_mse = np.inf
    for j in range(num_candidates, 0, -1):
        spec = make_spec(absmax * (j / num_candidates), bits, signed)
        err = quantize(w, spec) - w
        mse = float(np.mean(err * err))
        if mse < best_mse:
            best_mse = mse
            best_spec = spec
    return best_spec


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
    ratio = np.asarray(w, dtype=np.float64) / spec.step
    return (ratio >= spec.grid_min) & (ratio <= spec.grid_max)


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

