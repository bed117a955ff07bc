"""Covariance estimators built from ruler-restricted (quantized) samples.

The core statistic averages, for each distance ``s``, the products
``rows[l, j] * rows[l, k]`` over samples ``l`` and ordered ruler pairs
``(j, k)`` at that distance.  Quantization with triangular dither inflates
only the diagonal, by ``delta^2 / 4``, so subtracting that constant from
the zero-offset coefficient yields an unbiased estimator of the Toeplitz
generating vector at any quantization level.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import InvalidArgumentError, MisuseError
from .quantization import Dither
from .rulers import Ruler
from .sampling import SampleBatch
from .toeplitz import SymToeplitz, fro_norm, max_norm, op_norm, toep

__all__ = [
    "Correction",
    "EstimateResult",
    "ruler_estimate",
    "quantized_estimate",
    "threshold_estimate",
    "banded_estimate",
    "relative_error",
]


class Correction(str, enum.Enum):
    """Diagonal bias correction applied to the zero-offset coefficient."""

    TRIANGULAR_QUARTER = "quarter"  # subtract delta^2 / 4 (triangular dither)
    UNIFORM_SIXTH = "sixth"  # subtract delta^2 / 6 (uniform dither, heuristic)
    NONE = "none"

    def offset(self, delta: float) -> float:
        if self is Correction.TRIANGULAR_QUARTER:
            return delta * delta / 4.0
        if self is Correction.UNIFORM_SIXTH:
            return delta * delta / 6.0
        return 0.0


@dataclass(frozen=True)
class EstimateResult:
    """Estimated generating vector plus the settings that produced it."""

    a_hat: np.ndarray
    ruler: Ruler
    n: int
    delta: float
    dither: Dither
    correction: Correction

    def __post_init__(self) -> None:
        a = np.asarray(self.a_hat, dtype=np.float64).copy()
        a.flags.writeable = False
        object.__setattr__(self, "a_hat", a)

    @property
    def matrix(self) -> SymToeplitz:
        return toep(self.a_hat)


def _pair_means(batch: SampleBatch) -> np.ndarray:
    """Mean product over samples and ordered pairs, for every distance."""
    rows = batch.rows
    ruler = batch.ruler
    gram = rows.T @ rows
    dist = ruler.distance_matrix().ravel()
    sums = np.bincount(dist, weights=gram.ravel(), minlength=ruler.d)
    return sums / (batch.n * ruler.pair_counts)


def ruler_estimate(batch: SampleBatch) -> EstimateResult:
    """Plain ruler estimator for unquantized batches.

    On the full ruler this equals diagonal-averaging the sample second
    moment matrix.
    """
    if batch.delta != 0:
        raise MisuseError("ruler_estimate expects an unquantized batch (delta == 0)")
    return EstimateResult(
        _pair_means(batch), batch.ruler, batch.n, 0.0, batch.dither, Correction.NONE
    )


def quantized_estimate(batch: SampleBatch, correction: Correction) -> EstimateResult:
    """Bias-corrected estimator from quantized observations.

    Subtracts the correction constant from the zero-offset coefficient
    only; with ``delta == 0`` all corrections vanish and the result equals
    the plain ruler estimator.
    """
    correction = Correction(correction)
    a = _pair_means(batch)
    a[0] -= correction.offset(batch.delta)
    return EstimateResult(a, batch.ruler, batch.n, batch.delta, batch.dither, correction)


def threshold_estimate(est: EstimateResult, zeta: float) -> EstimateResult:
    """Zero every coefficient with ``|a_s| < zeta`` (the diagonal included)."""
    if zeta < 0:
        raise InvalidArgumentError(f"zeta must be >= 0, got {zeta}")
    a = np.where(np.abs(est.a_hat) >= zeta, est.a_hat, 0.0)
    return replace(est, a_hat=a)


def banded_estimate(est: EstimateResult, m: int) -> EstimateResult:
    """Zero every coefficient at offsets ``>= m`` (known bandwidth)."""
    d = est.a_hat.size
    if not 1 <= m <= d:
        raise InvalidArgumentError(f"bandwidth must lie in [1, {d}], got {m}")
    a = est.a_hat.copy()
    a[m:] = 0.0
    return replace(est, a_hat=a)


def relative_error(
    t: SymToeplitz, est: EstimateResult | SymToeplitz, norm: str = "op"
) -> float:
    """``||T - T_hat|| / ||T||`` in the operator, Frobenius, or max norm.

    The operator-norm denominator is :func:`kept_op_norm`, computed once per ``t``.
    """
    t_hat = est.matrix if isinstance(est, EstimateResult) else est
    if t.d != t_hat.d:
        raise InvalidArgumentError(f"dimension mismatch: {t.d} vs {t_hat.d}")
    norms = {"op": op_norm, "fro": fro_norm, "max": max_norm}
    try:
        fn = norms[norm]
    except KeyError:
        raise InvalidArgumentError(f"norm must be one of {sorted(norms)}, got {norm!r}")
    denom = kept_op_norm(t) if norm == "op" else fn(t)
    if denom == 0.0:
        raise ZeroDivisionError("relative error undefined for a zero matrix")
    return fn(t_hat - t) / denom


def kept_op_norm(t: SymToeplitz) -> float:
    """``op_norm(t)``, computed on the first call for ``t`` and kept on it.

    The value is computed through this module's ``op_norm`` binding, which
    ``perfbench/tracing.py`` wraps, so a traced run counts each norm.
    """
    return t.memo("op_norm", lambda: op_norm(t))
