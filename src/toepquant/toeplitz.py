"""Symmetric Toeplitz matrices: construction, norms, and spectral helpers.

A symmetric Toeplitz matrix is represented by its generating vector
``a``: the entry at ``(j, k)`` is ``a[|j - k|]``.  Dense symmetric
matrices are plain ``numpy`` arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TypeVar

import numpy as np

from .exceptions import (
    DomainError,
    IndexOutOfRangeError,
    InvalidArgumentError,
    InvalidDimensionError,
    NotPSDError,
    NumericError,
)

__all__ = [
    "SymToeplitz",
    "toep",
    "avg",
    "principal_submatrix",
    "op_norm",
    "fro_norm",
    "max_norm",
    "l_func",
    "sup_l",
    "best_rank_k",
]

PSD_REL_TOL = 1e-8

_V = TypeVar("_V")


@dataclass(frozen=True)
class SymToeplitz:
    """A d-by-d symmetric Toeplitz matrix stored as its generating vector.

    Values that depend only on the matrix, such as its PSD factor and its
    operator norm, are computed on first use and kept (see :meth:`memo`), so
    every draw and every error norm of one matrix shares them.
    """

    a: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=np.float64)
        if a.ndim != 1 or a.size < 1:
            raise InvalidDimensionError("generating vector must be 1-D and non-empty")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "a", a)

    @property
    def d(self) -> int:
        return self.a.size

    def dense(self) -> np.ndarray:
        s = np.arange(self.d)
        return self.a[np.abs(s[:, None] - s[None, :])]

    def __sub__(self, other: "SymToeplitz") -> "SymToeplitz":
        return SymToeplitz(self.a - other.a)

    def memo(self, key: str, compute: Callable[[], _V]) -> _V:
        """``compute()`` on the first call for ``key``; the kept value after.

        A call that raises keeps nothing.  No lock is taken: threads that ask
        for a new key at once may each compute it, and all get equal values.
        """
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute()
            return value

    @property
    def psd_factor(self) -> np.ndarray:
        """``F`` with ``F F^T = T``, from the symmetric eigendecomposition.

        Computed once per matrix.  Small negative eigenvalues are clipped, so
        exactly singular (low-rank) matrices are fine; eigenvalues below
        ``-PSD_REL_TOL * ||T||_2`` raise :class:`NotPSDError`, on every call.
        """
        return self.memo("psd_factor", self._factor)

    def _factor(self) -> np.ndarray:
        w, u = np.linalg.eigh(self.dense())
        scale = float(np.abs(w).max())
        if w.min() < -PSD_REL_TOL * scale:
            raise NotPSDError(
                f"matrix has eigenvalue {w.min():.3e} below -{PSD_REL_TOL:.0e} * {scale:.3e}"
            )
        factor = u * np.sqrt(np.clip(w, 0.0, None))
        factor.flags.writeable = False
        return factor


def toep(a: np.ndarray) -> SymToeplitz:
    """Build the symmetric Toeplitz matrix with generating vector ``a``."""
    return SymToeplitz(np.asarray(a, dtype=np.float64))


def _as_dense(m: SymToeplitz | np.ndarray) -> np.ndarray:
    if isinstance(m, SymToeplitz):
        return m.dense()
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidDimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def avg(m: SymToeplitz | np.ndarray) -> SymToeplitz:
    """Average the diagonals of a square matrix into a Toeplitz matrix.

    Both the upper and the lower diagonal at each offset are pooled, so the
    result is a fixed point on inputs that are already symmetric Toeplitz.
    """
    dense = _as_dense(m)
    d = dense.shape[0]
    out = np.empty(d)
    for s in range(d):
        vals = np.diagonal(dense, offset=s)
        if s > 0:
            vals = np.concatenate([vals, np.diagonal(dense, offset=-s)])
        # identical diagonals short-circuit so Toeplitz inputs round-trip bit-exactly
        v0 = vals[0]
        out[s] = v0 if np.all(vals == v0) else vals.mean()
    return SymToeplitz(out)


def principal_submatrix(m: SymToeplitz | np.ndarray, indices) -> np.ndarray:
    """Extract the principal submatrix on ``indices`` (ascending order)."""
    from .rulers import Ruler  # local import to avoid a cycle

    if isinstance(indices, Ruler):
        indices = indices.indices
    idx = np.asarray(indices, dtype=np.int64)
    dense = _as_dense(m)
    if idx.size == 0:
        raise InvalidDimensionError("index set must be non-empty")
    if idx.min() < 0 or idx.max() >= dense.shape[0]:
        raise IndexOutOfRangeError(
            f"indices must lie in [0, {dense.shape[0]}), got range "
            f"[{idx.min()}, {idx.max()}]"
        )
    idx = np.sort(idx)
    return dense[np.ix_(idx, idx)]


def op_norm(m: SymToeplitz | np.ndarray) -> float:
    """Operator (spectral) norm of a symmetric matrix.

    Uses a dense symmetric eigendecomposition; the input must be symmetric
    and finite.
    """
    dense = _as_dense(m)
    if not np.all(np.isfinite(dense)):
        raise NumericError("matrix contains non-finite entries")
    if dense.shape[0] == 1:
        return float(abs(dense[0, 0]))
    return float(np.abs(np.linalg.eigvalsh(dense)).max())


def fro_norm(m: SymToeplitz | np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(_as_dense(m)))


def max_norm(m: SymToeplitz | np.ndarray) -> float:
    """Entrywise maximum absolute value."""
    return float(np.abs(_as_dense(m)).max())


def l_func(e: np.ndarray, x: float) -> float:
    """Cosine polynomial ``e[0] + 2 * sum_s e[s] cos(2 pi s x)`` on [0, 1].

    Its supremum in absolute value dominates the operator norm of the
    Toeplitz matrix generated by ``e``.
    """
    e = np.asarray(e, dtype=np.float64)
    if e.ndim != 1 or e.size < 1:
        raise InvalidDimensionError("generating vector must be 1-D and non-empty")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x}")
    s = np.arange(1, e.size)
    return float(e[0] + 2.0 * np.dot(e[1:], np.cos(2.0 * np.pi * s * x)))


def sup_l(e: np.ndarray, grid: int) -> float:
    """Certified upper bound on ``sup_x |l_func(e, x)|`` over [0, 1].

    Evaluates the polynomial on ``grid`` equispaced points via an FFT and
    adds the slack ``4 pi d^2 max|e| / grid`` derived from the derivative
    bound ``|L'(y)| <= 4 pi d^2 max|e|``, so the returned value always
    dominates the operator norm of ``toep(e)``.
    """
    e = np.asarray(e, dtype=np.float64)
    if e.ndim != 1 or e.size < 1:
        raise InvalidDimensionError("generating vector must be 1-D and non-empty")
    d = e.size
    if grid < 8 * d * d:
        raise InvalidArgumentError(f"grid must be at least 8*d^2 = {8 * d * d}, got {grid}")
    coef = np.concatenate([e[:1], 2.0 * e[1:]])
    # rfft evaluates the polynomial at x = k/grid for k = 0..grid//2; the
    # remaining half of [0, 1] is covered by the symmetry L(1 - x) = L(x).
    vals = np.fft.rfft(coef, n=grid).real
    # the constant term does not move, so the derivative bound only sees s >= 1
    peak = float(np.abs(e[1:]).max()) if d > 1 else 0.0
    slack = 4.0 * np.pi * d * d * peak / grid
    return float(np.abs(vals).max() + slack)


def best_rank_k(t: SymToeplitz | np.ndarray, k: int) -> np.ndarray:
    """Best rank-``k`` approximation in both Frobenius and operator norm.

    Keeps the ``k`` eigencomponents of largest absolute eigenvalue.
    """
    dense = _as_dense(t)
    d = dense.shape[0]
    if not 1 <= k <= d:
        raise InvalidArgumentError(f"k must lie in [1, {d}], got {k}")
    w, u = np.linalg.eigh(dense)
    keep = np.argsort(np.abs(w))[::-1][:k]
    return (u[:, keep] * w[keep]) @ u[:, keep].T


