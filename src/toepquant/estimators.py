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

import numpy as np

from .exceptions import InvalidArgumentError, NumericError
from .sampling import SampleBatch
from .toeplitz import SymToeplitz, fro_norm, max_norm, op_norm, toep

__all__ = [
    "Correction",
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


def _pair_means(batch: SampleBatch) -> np.ndarray:
    """Mean product over samples and ordered pairs, for every distance; raises NumericError if one overflows."""
    rows = batch.rows
    ruler = batch.ruler
    with np.errstate(over="ignore", invalid="ignore"):
        gram = rows.T @ rows
        # in bincount's element order; bincount would copy the read-only distances
        sums = np.zeros(ruler.d)
        np.add.at(sums, ruler.distance_matrix().ravel(), gram.ravel())
        means = sums / (batch.n * ruler.pair_counts)
    if not np.all(np.isfinite(means)):
        raise NumericError("a pair mean of the samples is not finite: their products overflow")
    return means


def ruler_estimate(batch: SampleBatch) -> SymToeplitz:
    """Plain ruler estimator for unquantized batches.

    On the full ruler this equals diagonal-averaging the sample second
    moment matrix.
    """
    if batch.delta != 0:
        raise InvalidArgumentError("ruler_estimate expects an unquantized batch (delta == 0)")
    return toep(_pair_means(batch))


def quantized_estimate(batch: SampleBatch, correction: Correction) -> SymToeplitz:
    """Bias-corrected estimator from quantized observations.

    Subtracts the correction constant from the zero-offset coefficient
    only; with ``delta == 0`` all corrections vanish and the result equals
    the plain ruler estimator.
    """
    correction = Correction(correction)
    a = _pair_means(batch)
    a[0] -= correction.offset(batch.delta)
    return toep(a)


def threshold_estimate(est: SymToeplitz, zeta: float) -> SymToeplitz:
    """Zero every coefficient with ``|a_s| < zeta`` (the diagonal included)."""
    if not (np.isfinite(zeta) and zeta >= 0):
        raise InvalidArgumentError(f"zeta must be finite and >= 0, got {zeta}")
    a = np.where(np.abs(est.a) >= zeta, est.a, 0.0)
    return toep(a)


def banded_estimate(est: SymToeplitz, m: int) -> SymToeplitz:
    """Zero every coefficient at offsets ``>= m`` (known bandwidth)."""
    if not 1 <= m <= est.d:
        raise InvalidArgumentError(f"bandwidth must lie in [1, {est.d}], got {m}")
    a = est.a.copy()
    a[m:] = 0.0
    return toep(a)


def relative_error(
    t: SymToeplitz, t_hat: SymToeplitz, norm: str = "op"
) -> float:
    """``||T - T_hat|| / ||T||`` in the operator, Frobenius, or max norm.

    The operator-norm denominator is :func:`kept_op_norm`, computed once per ``t``.
    """
    if t.d != t_hat.d:
        raise InvalidArgumentError(f"dimension mismatch: {t.d} vs {t_hat.d}")
    norms = {"op": op_norm, "fro": fro_norm, "max": max_norm}
    try:
        fn = norms[norm]
    except KeyError:
        raise InvalidArgumentError(f"norm must be one of {sorted(norms)}, got {norm!r}")
    denom = kept_op_norm(t) if norm == "op" else fn(t)
    if denom == 0.0:
        raise NumericError("relative error undefined for a zero matrix")
    return fn(t_hat - t) / denom


def kept_op_norm(t: SymToeplitz) -> float:
    """``op_norm(t)``, computed on the first call for ``t`` and kept on it.

    The value is computed through this module's ``op_norm`` binding, which
    ``perfbench/tracing.py`` wraps, so a traced run counts each norm.
    """
    return t.memo("op_norm", lambda: op_norm(t))
