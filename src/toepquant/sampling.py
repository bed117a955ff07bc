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

from .exceptions import InvalidArgumentError, _shown, require_integer, require_real, require_sizable
from .quantization import QuantizerConfig, draw_dither, _check_input, _grid_round
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

    ``experiments.draw_truth`` draws a trial's covariance from a spec,
    rescaled to unit diagonal (unit-variance coordinates) with ``normalize``.
    """

    d: int
    k: int | None = None
    m: int | None = None
    normalize: bool = False

    def __post_init__(self) -> None:
        require_integer("d", self.d, 1)
        if (self.k is None) == (self.m is None):
            raise InvalidArgumentError("specify exactly one of k (mixture) or m (banded)")
        if self.k is not None:
            require_integer("k", self.k)
            # k may be a recipe's default that was never given, so both are named
            if not 1 <= self.k <= self.d:
                raise InvalidArgumentError(f"a mixture of k modes needs 1 <= k <= d, got k = {_shown(self.k)} and d = {self.d}")
        if self.m is not None:
            require_integer("m", self.m, 1, self.d - 1)


@dataclass(frozen=True)
class SampleBatch:
    """Observations restricted to a ruler, possibly quantized.

    ``rows`` has shape (n, |R|) with columns in ascending ruler-index
    order.  When ``delta > 0`` every entry lies on the half-integer grid.
    ``rows`` is a read-only view of the array given, not a copy of it.
    """

    rows: np.ndarray
    ruler: Ruler
    delta: float

    def __post_init__(self) -> None:
        require_real("delta", self.delta, 0)
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.ruler.size:
            raise InvalidArgumentError(
                f"rows must be (n, |R|) = (n, {self.ruler.size}), got {rows.shape}"
            )
        if rows.shape[0] < 1:
            raise InvalidArgumentError("a batch needs at least one sample")
        rows = rows.view()
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return int(self.rows.shape[0])


def toeplitz_from_modes(freqs: np.ndarray, powers: np.ndarray, d: int) -> SymToeplitz:
    """Cosine mixture ``a_s = sum_m p_m cos(2 pi s f_m)``.

    Equals the real part of ``F diag(p) F*`` for the Fourier matrix with
    columns ``exp(2i pi j f_m)``.  When no power is negative the matrix
    carries ``(freqs, powers)`` as its ``modes``, from which
    :meth:`SymToeplitz.psd_factor` reads an exact factor.
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    powers = np.asarray(powers, dtype=np.float64)
    if freqs.shape != powers.shape or freqs.ndim != 1:
        raise InvalidArgumentError("freqs and powers must be 1-D of equal length")
    require_integer("d", d, 1)
    _require_modal_size(d, freqs.size)
    # one (d, k) array, written in place at each step
    terms = np.outer(np.arange(d), freqs)
    terms *= 2.0 * np.pi
    np.cos(terms, out=terms)
    terms *= powers
    with np.errstate(over="ignore"):  # the constructor refuses an overflowing sum
        a = terms.sum(axis=1)
    return SymToeplitz(a, (freqs, powers) if np.all(powers >= 0.0) else None)


def _require_modal_size(d: int, k: int) -> None:
    require_sizable(d * max(k, 1), f"d too large for the (d, {k}) array of a mixture of {k} modes, got {_shown(d)}")


def gen_toeplitz_vandermonde(d: int, k: int, rng: np.random.Generator) -> SymToeplitz:
    """Random PSD Toeplitz matrix from ``k`` frequencies, rank ``min(d, 2k)`` generically.

    Frequencies are uniform on [0, 1] (redrawn on exact collision) and
    amplitudes are absolute standard normals.
    """
    require_integer("d", d, 1)
    require_integer("k", k, 1, d)
    _require_modal_size(d, k)
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
    require_integer("d", d, 1)
    require_integer("m", m, 1, d - 1)
    require_sizable(d, f"d too large for a generating vector, got {_shown(d)}")
    p = float(np.abs(rng.standard_normal())) + 0.5
    a = np.zeros(d)
    s = np.arange(m)
    a[:m] = p * (1.0 - s / m)
    return toep(a)


def sample_gaussian(
    t: SymToeplitz, n: int, rng: np.random.Generator, indices: np.ndarray | None = None
) -> np.ndarray:
    """Draw ``n`` zero-mean Gaussian vectors with covariance ``t``, on ``indices`` only.

    The rows have shape (n, |indices|), columns in ascending index order,
    and law N(0, T_R) for the principal submatrix ``T_R`` on ``indices``
    (all d coordinates by default).  Applies ``F = t.psd_factor(indices)``,
    which is computed on the first draw of ``t`` on those indices (raising
    :class:`NumericError` if ``T_R`` is not PSD or not finite) and reused after: one
    (n, w) block of standard normals times ``F^T``, for the factor's width
    ``w``, which is 2k for a mixture of k modes with ``2k <= |R|`` and
    |R| otherwise.  Passing every index draws the same numbers as passing
    none.
    """
    require_integer("sample count", n, 1)
    factor = t.psd_factor(indices)
    return rng.standard_normal((n, factor.shape[1])) @ factor.T


def observe(
    samples: np.ndarray,
    ruler: Ruler,
    cfg: QuantizerConfig,
    rng: np.random.Generator | np.ndarray,
) -> SampleBatch:
    """Restrict samples to the ruler's indices and quantize them.

    ``samples`` is (n, d), or (n, |R|) when already drawn on the ruler only
    (see :func:`sample_gaussian`); the two agree for the full ruler, whose
    restriction changes nothing.  A fresh dither is drawn for every entry
    from ``rng``, a generator or U[0, 1) planes of shape (k, n, |R|)
    already drawn from one (see :func:`draw_dither`); with ``delta == 0``
    the rows are the raw restricted samples and ``rng`` is not read.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[1] not in (ruler.d, ruler.size):
        raise InvalidArgumentError(
            f"samples must be (n, d) = (n, {ruler.d}) or (n, |R|) = (n, {ruler.size}), got {samples.shape}"
        )
    sub = samples if samples.shape[1] == ruler.size else samples[:, ruler.indices]
    _check_input(sub, cfg.delta)
    if cfg.delta == 0:
        rows = sub
    else:
        rows = draw_dither(cfg, sub.shape, rng)
        rows += sub
        _grid_round(rows, cfg.delta)
    return SampleBatch(rows, ruler, cfg.delta)
