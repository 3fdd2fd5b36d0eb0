"""Uniform symmetric fake quantization.

A quantizer maps a real tensor onto the lattice ``step * k`` for integers
``k`` in a bit-width dependent grid: signed tensors (weights) use
``[-2^(b-1), 2^(b-1) - 1]``, unsigned tensors (post-ReLU activations) use
``[0, 2^b - 1]``. Values are divided by the step, rounded to the nearest
integer (ties away from zero) and clamped to the grid. ``bits == 32`` is the
identity pass-through everywhere.

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
    if bits not in SUPPORTED_BITS:
        raise ConfigError(f"unsupported bit-width {bits}; choose from {SUPPORTED_BITS}")


@dataclass(frozen=True)
class QuantSpec:
    """Per-tensor quantizer state: bit-width, step and grid bounds.

    ``default_range`` flags a spec that fell back to a unit range because the
    calibration tensor was all zeros.
    """

    bits: int
    step: float
    grid_min: int
    grid_max: int
    signed: bool = True
    default_range: bool = False

    def __post_init__(self):
        _check_bits(self.bits)
        if self.bits != IDENTITY_BITS:
            if not (self.step > 0.0 and np.isfinite(self.step)):
                raise ConfigError(f"quantizer step must be positive, got {self.step}")
            lo, hi = grid_bounds(self.bits, self.signed)
            if (self.grid_min, self.grid_max) != (lo, hi):
                raise ConfigError(
                    f"grid [{self.grid_min}, {self.grid_max}] inconsistent with "
                    f"{self.bits}-bit {'signed' if self.signed else 'unsigned'} layout"
                )

    @property
    def identity(self) -> bool:
        return self.bits == IDENTITY_BITS


IDENTITY_SPEC = QuantSpec(bits=IDENTITY_BITS, step=1.0, grid_min=0, grid_max=0)


def make_spec(range_max: float, bits: int, signed: bool = True,
              default_range: bool = False) -> QuantSpec:
    """Build a spec whose largest positive grid point equals ``range_max``.

    Signed: step = range_max / (2^(b-1) - 1). Unsigned: range_max / (2^b - 1).
    """
    _check_bits(bits)
    if bits == IDENTITY_BITS:
        return IDENTITY_SPEC
    if bits < 2:
        raise ConfigError("bit-widths below 2 have no usable signed grid")
    if not (range_max > 0.0 and np.isfinite(range_max)):
        raise ConfigError(f"range_max must be positive, got {range_max}")
    lo, hi = grid_bounds(bits, signed)
    denom = (2 ** (bits - 1) - 1) if signed else (2 ** bits - 1)
    return QuantSpec(bits=bits, step=range_max / denom, grid_min=lo, grid_max=hi,
                     signed=signed, default_range=default_range)


def spec_from_step(step: float, bits: int, signed: bool = True) -> QuantSpec:
    """Build a spec directly from a step size (used with rescaled step tables)."""
    _check_bits(bits)
    if bits == IDENTITY_BITS:
        return IDENTITY_SPEC
    lo, hi = grid_bounds(bits, signed)
    return QuantSpec(bits=bits, step=step, grid_min=lo, grid_max=hi, signed=signed)


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer, ties away from zero (np.round ties to even)."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def quantize(w: np.ndarray, spec: QuantSpec) -> np.ndarray:
    """Snap ``w`` onto the spec's grid: step * clip(round(w/step), lo, hi)."""
    if not np.all(np.isfinite(w)):
        raise NumericError("cannot quantize non-finite values")
    if spec.identity:
        return np.array(w, dtype=np.float64, copy=True)
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
    if bits == IDENTITY_BITS:
        return IDENTITY_SPEC
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
    if IDENTITY_BITS in (bits_a, bits_b):
        raise ConfigError("the 32-bit identity pass-through has no step to rescale")
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
    if spec.identity:
        return np.ones(np.shape(w), dtype=bool)
    ratio = np.asarray(w, dtype=np.float64) / spec.step
    return (ratio >= spec.grid_min) & (ratio <= spec.grid_max)


def ste_backward(grad_out: np.ndarray, w: np.ndarray, spec: QuantSpec) -> np.ndarray:
    """Straight-through gradient: pass inside the representable range, zero outside."""
    if np.shape(grad_out) != np.shape(w):
        raise NumericError(
            f"gradient shape {np.shape(grad_out)} does not match tensor {np.shape(w)}")
    if spec.identity:
        return np.array(grad_out, dtype=np.float64, copy=True)
    return np.where(ste_mask(w, spec), grad_out, 0.0)


@dataclass
class StepTable:
    """Step sizes per bit-width for one tensor, all spanning the same range."""

    steps: dict[int, float] = field(default_factory=dict)

    def step_for(self, bits: int) -> float:
        """Look up, or derive by rescaling from any stored entry."""
        if bits == IDENTITY_BITS:
            raise ConfigError("identity pass-through has no step")
        if bits in self.steps:
            return self.steps[bits]
        if not self.steps:
            raise ConfigError("empty step table")
        anchor = min(self.steps)
        return rescale_step(self.steps[anchor], anchor, bits)

    def spec_for(self, bits: int, signed: bool = True) -> QuantSpec:
        if bits == IDENTITY_BITS:
            return IDENTITY_SPEC
        return spec_from_step(self.step_for(bits), bits, signed)

