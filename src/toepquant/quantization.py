"""Memoryless dithered quantization on the half-integer grid.

The quantizer maps ``x`` to ``delta * (floor(x / delta) + 1/2)``; a random
dither may be added before quantization.  The *error* is output minus
dithered input and always lies in ``[-delta/2, delta/2]``; the *noise* is
output minus original input.  A triangular dither (sum of two independent
uniforms on ``[-delta/2, delta/2]``) makes the noise second moment equal
to ``delta^2 / 4`` independently of the input, which is what the
bias-corrected estimator relies on.

Both dithers are affine images of i.i.d. U[0, 1) *planes* of the input's
shape: a uniform dither reads one plane, a triangular dither two.  A plane
``u`` becomes ``-delta/2 + delta * u``, exactly as numpy forms
``Generator.uniform(-delta/2, delta/2)`` from the same uniforms, so planes
drawn once can dither several quantizers of one input bit for bit as if
each had drawn its own.  A triangular dither is built in its one output
array: the second plane is added one row block at a time, read from the
shared planes or drawn from the generator, which changes no drawn value.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidArgumentError, NumericError

__all__ = [
    "Dither",
    "QuantizerConfig",
    "QuantizationTrace",
    "draw_dither",
    "quantize_vector",
]


class Dither(str, enum.Enum):
    NONE = "none"
    UNIFORM = "uniform"
    TRIANGULAR = "triangular"


@dataclass(frozen=True)
class QuantizerConfig:
    """Quantization level plus dither kind; ``delta == 0`` means pass-through."""

    delta: float
    dither: Dither = Dither.TRIANGULAR

    def __post_init__(self) -> None:
        if not math.isfinite(self.delta) or self.delta < 0:
            raise InvalidArgumentError(f"delta must be finite and >= 0, got {self.delta}")
        # the noise power delta^2 / 4 enters the correction and the bounds
        if not math.isfinite(float(self.delta) * float(self.delta)):
            raise InvalidArgumentError(f"delta^2 (the dither's noise power) must be finite, got delta = {self.delta}")
        object.__setattr__(self, "dither", Dither(self.dither))

    @property
    def planes(self) -> int:
        """How many U[0, 1) planes of the input's shape the dither reads: 0, 1 (uniform) or 2 (triangular)."""
        if self.delta == 0 or self.dither is Dither.NONE:
            return 0
        return 2 if self.dither is Dither.TRIANGULAR else 1


@dataclass(frozen=True)
class QuantizationTrace:
    """One quantization pass: input, dither, output, error and noise vectors."""

    x: np.ndarray
    tau: np.ndarray
    output: np.ndarray
    error: np.ndarray  # output - (x + tau), in [-delta/2, delta/2]
    noise: np.ndarray  # output - x == error + tau
    delta: float


def _check_input(x: np.ndarray, delta: float) -> None:
    """Reject a non-finite entry of ``x``, and a ``delta > 0`` so small that a dithered entry over it overflows."""
    # a dithered entry lies within delta of its input; max|x| by reductions makes no array of x's shape
    top = max(float(x.max()), -float(x.min())) if x.size else 0.0
    if not math.isfinite(top):
        raise NumericError("input contains non-finite values")
    if delta > 0 and not math.isfinite((top + delta) / delta):
        raise InvalidArgumentError(f"delta = {delta} is too small for input of magnitude {top}: x / delta overflows")


def _grid_round(values: np.ndarray, delta: float) -> np.ndarray:
    """Round ``values`` onto the grid ``delta * (Z + 1/2)`` in place and return them."""
    values /= delta
    np.floor(values, out=values)
    values += 0.5
    values *= delta
    return values


# entries of a triangular dither's second plane added at a time, in whole
# rows: 16 Ki doubles (128 KiB) stay in cache, and the dither holds one
# full-size array plus this block rather than two full-size planes
_BLOCK = 1 << 14


def draw_dither(cfg: QuantizerConfig, size, rng: np.random.Generator | np.ndarray) -> np.ndarray:
    """Draw i.i.d. dither of the configured kind, as a fresh array the caller may overwrite.

    ``rng`` is a generator, from which the ``cfg.planes`` U[0, 1) planes
    are drawn one after the other, or planes already drawn, of shape
    (k, *size) with k >= ``cfg.planes``, which are only read, so several
    quantizers can share them.  The first plane is scaled in place into
    the output; a triangular dither's second plane is scaled and added one
    row block at a time, so no second full-size array is made.  The dither
    is bit for bit ``rng.uniform(-delta/2, delta/2, size)`` (the sum of two
    such draws for triangular), and a generator ends in the state those
    draws leave it in: PCG64 spends one output per double, so a plane
    drawn block by block holds the same numbers in the same order.
    """
    shape = (size,) if np.ndim(size) == 0 else tuple(size)
    k = cfg.planes
    if k == 0:
        return np.zeros(shape)
    planes = isinstance(rng, np.ndarray)
    if planes and (rng.shape[1:] != shape or rng.shape[0] < k):
        raise InvalidArgumentError(f"dither of shape {shape} needs {k} planes of that shape, got {rng.shape}")
    half = cfg.delta / 2.0
    width = half - -half  # numpy's uniform(low, high) is low + (high - low) * u

    def scaled(i: int, lo: int, out: np.ndarray) -> np.ndarray:
        """``out`` set to rows ``lo:`` of plane ``i`` scaled to ``-half + width * u``."""
        if planes:
            np.multiply(np.atleast_1d(rng[i])[lo : lo + len(out)], width, out=out)
        else:
            rng.random(out=out)
            out *= width
        out += -half
        return out

    tau = np.empty(shape)
    rows = scaled(0, 0, np.atleast_1d(tau))
    if k == 2:
        step = max(1, _BLOCK // max(1, math.prod(rows.shape[1:])))
        scratch = np.empty((min(step, len(rows)), *rows.shape[1:]))
        for lo in range(0, len(rows), step):
            rows[lo : lo + step] += scaled(1, lo, scratch[: len(rows) - lo])
    return tau


def quantize_vector(x: np.ndarray, cfg: QuantizerConfig, rng: np.random.Generator) -> QuantizationTrace:
    """Dither and quantize a vector, returning the full trace."""
    x = np.asarray(x, dtype=np.float64)
    _check_input(x, cfg.delta)
    if cfg.delta == 0:
        zero = np.zeros_like(x)
        return QuantizationTrace(x, zero, x.copy(), zero.copy(), zero.copy(), 0.0)
    tau = draw_dither(cfg, x.shape, rng)
    output = _grid_round(x + tau, cfg.delta)
    return QuantizationTrace(x, tau, output, output - (x + tau), output - x, cfg.delta)
