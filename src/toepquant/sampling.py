"""Random covariance generation, Gaussian sampling, and ruler observation.

Covariance matrices come from two generators: a cosine-mixture recipe
(random frequencies and positive amplitudes, generically of rank
``min(d, 2k)``) and a triangular-taper banded recipe that is positive
semidefinite with exactly zero diagonals beyond the bandwidth.

Randomness: numpy ``default_rng`` (PCG64).  Streams are reproducible
within this implementation for a fixed seed; no cross-implementation
bit-compatibility is promised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidArgumentError, NumericError
from .quantization import Dither, QuantizerConfig, draw_dither, _grid_round
from .rulers import Ruler
from .toeplitz import SymToeplitz, toep

__all__ = [
    "GenSpec",
    "SampleBatch",
    "toeplitz_from_modes",
    "gen_toeplitz_vandermonde",
    "gen_banded",
    "sample_gaussian",
    "observe",
]


@dataclass(frozen=True)
class GenSpec:
    """How to draw a random covariance: cosine mixture (k) or banded (m).

    ``experiments.draw_truth`` draws a trial's covariance from a spec.
    """

    d: int
    k: int | None = None
    m: int | None = None

    def __post_init__(self) -> None:
        if (self.k is None) == (self.m is None):
            raise InvalidArgumentError("specify exactly one of k (mixture) or m (banded)")
        if self.k is not None and not 1 <= self.k <= self.d:
            raise InvalidArgumentError(f"k must lie in [1, {self.d}], got {self.k}")
        if self.m is not None and not 1 <= self.m < self.d:
            raise InvalidArgumentError(f"m must lie in [1, {self.d}), got {self.m}")


@dataclass(frozen=True)
class SampleBatch:
    """Observations restricted to a ruler, possibly quantized.

    ``rows`` has shape (n, |R|) with columns in ascending ruler-index
    order.  When ``delta > 0`` every entry lies on the half-integer grid.
    """

    rows: np.ndarray
    ruler: Ruler
    delta: float
    dither: Dither
    seed: int | None = None

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.ruler.size:
            raise InvalidArgumentError(
                f"rows must be (n, |R|) = (n, {self.ruler.size}), got {rows.shape}"
            )
        if rows.shape[0] < 1:
            raise InvalidArgumentError("a batch needs at least one sample")
        rows = rows.copy()
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "dither", Dither(self.dither))

    @property
    def n(self) -> int:
        return int(self.rows.shape[0])


def toeplitz_from_modes(freqs: np.ndarray, powers: np.ndarray, d: int) -> SymToeplitz:
    """Cosine mixture ``a_s = sum_m p_m cos(2 pi s f_m)``.

    Equals the real part of ``F diag(p) F*`` for the Fourier matrix with
    columns ``exp(2i pi j f_m)``.
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    powers = np.asarray(powers, dtype=np.float64)
    if freqs.shape != powers.shape or freqs.ndim != 1:
        raise InvalidArgumentError("freqs and powers must be 1-D of equal length")
    s = np.arange(d)
    return toep((powers[None, :] * np.cos(2.0 * np.pi * np.outer(s, freqs))).sum(axis=1))


def gen_toeplitz_vandermonde(d: int, k: int, rng: np.random.Generator) -> SymToeplitz:
    """Random PSD Toeplitz matrix from ``k`` frequencies, rank ``min(d, 2k)`` generically.

    Frequencies are uniform on [0, 1] (redrawn on exact collision) and
    amplitudes are absolute standard normals.
    """
    if not 1 <= k <= d:
        raise InvalidArgumentError(f"k must lie in [1, {d}], got {k}")
    freqs = rng.uniform(0.0, 1.0, k)
    while np.unique(freqs).size < k:
        freqs = rng.uniform(0.0, 1.0, k)
    powers = np.abs(rng.standard_normal(k))
    return toeplitz_from_modes(freqs, powers, d)


def gen_banded(d: int, m: int, rng: np.random.Generator) -> SymToeplitz:
    """Random banded PSD Toeplitz matrix: triangular taper of width ``m``.

    ``a_s = p * max(0, 1 - s/m)`` with a random amplitude ``p >= 1/2``;
    diagonals at offsets ``>= m`` are exactly zero.
    """
    if not 1 <= m < d:
        raise InvalidArgumentError(f"m must lie in [1, {d}), got {m}")
    p = float(np.abs(rng.standard_normal())) + 0.5
    a = np.zeros(d)
    s = np.arange(m)
    a[:m] = p * (1.0 - s / m)
    return toep(a)


def sample_gaussian(t: SymToeplitz, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` zero-mean Gaussian vectors with covariance ``t``.

    Applies ``t.psd_factor``, which is computed on the first draw of ``t``
    (raising :class:`NotPSDError` if ``t`` is not PSD) and reused after.
    """
    if n < 1:
        raise InvalidArgumentError(f"sample count must be positive, got {n}")
    return rng.standard_normal((n, t.d)) @ t.psd_factor.T


def observe(
    samples: np.ndarray,
    ruler: Ruler,
    cfg: QuantizerConfig,
    rng: np.random.Generator,
    seed: int | None = None,
) -> SampleBatch:
    """Restrict samples to the ruler's indices and quantize them.

    A fresh dither is drawn for every entry; with ``delta == 0`` the rows
    are the raw restricted samples.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[1] != ruler.d:
        raise InvalidArgumentError(
            f"samples must be (n, d) = (n, {ruler.d}), got {samples.shape}"
        )
    sub = samples[:, ruler.indices]
    if not np.all(np.isfinite(sub)):
        raise NumericError("observed samples contain non-finite values")
    if cfg.delta == 0:
        rows = sub
    else:
        rows = _grid_round(sub + draw_dither(cfg, sub.shape, rng), cfg.delta)
    return SampleBatch(rows, ruler, cfg.delta, cfg.dither, seed)
