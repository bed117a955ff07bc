"""Symmetric Toeplitz matrices: construction, norms, and spectral helpers.

A symmetric Toeplitz matrix is represented by its generating vector
``a``: the entry at ``(j, k)`` is ``a[|j - k|]``.  The matrix functions
here take a :class:`SymToeplitz`, and :func:`sup_l` bounds the norm of one
from its generating vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Hashable, TypeVar

import numpy as np

from .exceptions import InvalidArgumentError, NumericError, require_indices, require_integer

__all__ = [
    "SymToeplitz",
    "toep",
    "principal_submatrix",
    "op_norm",
    "fro_norm",
    "max_norm",
    "sup_l",
]

PSD_REL_TOL = 1e-8

_V = TypeVar("_V")


@dataclass(frozen=True, eq=False)
class SymToeplitz:
    """A d-by-d symmetric Toeplitz matrix stored as its generating vector; a non-finite entry raises :class:`NumericError`.

    Values that depend only on the matrix, such as the PSD factor of a
    principal submatrix and the operator norm, are computed on first use and
    kept (see :meth:`memo`), so every draw and every error norm of one
    matrix shares them.

    ``modes``, when given, is the ``(freqs, powers)`` of a cosine mixture
    ``a_s = sum_m p_m cos(2 pi s f_m)`` with every ``p_m >= 0`` that ``a``
    was computed from (see :func:`~toepquant.sampling.toeplitz_from_modes`);
    :meth:`psd_factor` reads an exact factor from it.  It is not part of the
    matrix's value, ``a`` alone, so ``==``, ``hash`` and ``repr`` leave it out;
    a matrix built from ``a``, as a difference or an estimate is, carries none.
    """

    a: np.ndarray
    modes: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=np.float64)
        if a.ndim != 1 or a.size < 1:
            raise InvalidArgumentError("generating vector must be 1-D and non-empty")
        if not np.all(np.isfinite(a)):
            raise NumericError("matrix contains non-finite entries")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "a", a)
        if self.modes is not None:
            freqs, powers = (np.array(v, dtype=np.float64) for v in self.modes)
            if freqs.ndim != 1 or freqs.shape != powers.shape:
                raise InvalidArgumentError("modes must be 1-D freqs and powers of equal length")
            if not np.all(powers >= 0.0):
                raise InvalidArgumentError("the powers of modes must be non-negative")
            freqs.flags.writeable = powers.flags.writeable = False
            object.__setattr__(self, "modes", (freqs, powers))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SymToeplitz) and np.array_equal(self.a, other.a)

    def __hash__(self) -> int:
        # + 0.0 turns -0.0 into 0.0, which compares equal to it
        return hash((self.a + 0.0).tobytes())

    @property
    def d(self) -> int:
        return self.a.size

    def dense(self) -> np.ndarray:
        s = np.arange(self.d)
        return self.a[np.abs(s[:, None] - s[None, :])]

    def __sub__(self, other: "SymToeplitz") -> "SymToeplitz":
        with np.errstate(over="ignore"):  # the constructor refuses an overflowing difference
            return SymToeplitz(self.a - other.a)

    def memo(self, key: Hashable, compute: Callable[[], _V]) -> _V:
        """``compute()`` on the first call for ``key``; the kept value after.

        A call that raises keeps nothing.  No lock is taken: threads that ask
        for a new key at once may each compute it, and all get equal values.
        """
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute()
            return value

    def psd_factor(self, indices: np.ndarray | None = None) -> np.ndarray:
        """``F`` with ``F F^T = T_R``, the principal submatrix on ``indices`` (all of them by default).

        Rows follow ascending index order.  A factor that is not finite
        raises :class:`NumericError`.  Computed once per matrix and index
        set, the one place that picks how:

        * a matrix with ``k`` :attr:`modes` and ``2k <= |R|`` gets the exact
          |R| x 2k modal factor ``[sqrt(p) cos(2 pi r f), sqrt(p) sin(2 pi r f)]``
          over the indices ``r``, since ``cos(x)cos(y) + sin(x)sin(y) = cos(x - y)``.
          It matches ``T_R`` to rounding and clips nothing;
        * any other matrix (no modes, or ``2k > |R|``, where the modal factor
          would be wider than it is tall) gets the square |R| x |R| factor of
          the symmetric eigendecomposition of ``T_R``.  Small negative
          eigenvalues are clipped, so exactly singular (low-rank) matrices
          are fine; eigenvalues below ``-PSD_REL_TOL * ||T_R||_2`` raise
          :class:`NumericError`, on every call.
        """
        idx = np.arange(self.d) if indices is None else require_indices("indices", indices, 0, self.d - 1)

        def compute() -> np.ndarray:
            modal = self.modes is not None and 2 * self.modes[0].size <= idx.size
            with np.errstate(over="ignore", invalid="ignore"):
                factor = _modal_factor(*self.modes, idx) if modal else _psd_factor(principal_submatrix(self, idx))
            if not np.all(np.isfinite(factor)):
                raise NumericError("the PSD factor is not finite")
            factor.flags.writeable = False
            return factor

        return self.memo(("psd_factor", idx.tobytes()), compute)


def _modal_factor(freqs: np.ndarray, powers: np.ndarray, idx: np.ndarray) -> np.ndarray:
    # the phase and the factor are the only arrays held: each step writes in place
    phase = np.outer(idx, freqs)
    phase *= 2.0 * np.pi
    k = freqs.size
    factor = np.empty((idx.size, 2 * k))
    np.cos(phase, out=factor[:, :k])
    np.sin(phase, out=factor[:, k:])
    root = np.sqrt(powers)
    factor[:, :k] *= root
    factor[:, k:] *= root
    return factor


def _psd_factor(dense: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(dense)
    scale = float(np.abs(w).max())
    if w.min() < -PSD_REL_TOL * scale:
        raise NumericError(f"matrix has eigenvalue {w.min():.3e} below -{PSD_REL_TOL:.0e} * {scale:.3e}")
    return u * np.sqrt(np.clip(w, 0.0, None))


def toep(a: np.ndarray) -> SymToeplitz:
    """Build the symmetric Toeplitz matrix with generating vector ``a``."""
    return SymToeplitz(np.asarray(a, dtype=np.float64))


def principal_submatrix(t: SymToeplitz, indices) -> np.ndarray:
    """The principal submatrix of ``t`` on ``indices`` (ascending order), as a dense array.

    It is read as ``a[|R_i - R_j|]``; ``t`` is never expanded to d x d.
    """
    idx = require_indices("indices", indices, 0, t.d - 1)
    return t.a[np.abs(idx[:, None] - idx[None, :])]


def op_norm(t: SymToeplitz) -> float:
    """Operator (spectral) norm of a symmetric Toeplitz matrix, whose entries are finite (see :class:`SymToeplitz`).

    ``t`` is never expanded to d x d.  It is centrosymmetric (``J T J = T``
    with ``J`` the exchange matrix), so its spectrum is the union of the
    spectra of two symmetric blocks of half the order (Cantoni & Butler,
    Linear Algebra Appl. 1976).  With ``h = d // 2``, ``A[i, j] = a[|i - j|]``
    and ``H[i, j] = a[d - 1 - i - j]`` for ``i, j < h``:

    * even ``d``: the blocks are ``A + H`` and ``A - H``;
    * odd ``d``: the symmetric block is ``A + H`` bordered by a last row and
      column ``sqrt(2) * a[h - j]`` and the corner ``a[0]`` (order ``h + 1``);
      the antisymmetric block ``A - H`` (order ``h``) is padded with a zero
      row and column, which adds the eigenvalue 0 and so cannot raise
      ``max |lambda|``.

    Both blocks go to one ``eigvalsh`` call as a ``(2, ceil(d/2), ceil(d/2))``
    stack, about a quarter of the flops of the d x d call.  At ``d = 1`` the
    blocks are ``[[a[0]]]`` and ``[[0]]``.  A norm that is no finite float
    raises :class:`NumericError`.
    """
    with np.errstate(over="ignore"):
        blocks = _centrosymmetric_blocks(t.a)
    # a block entry is an entry of T in an orthonormal basis, so where one overflows the norm does too
    norm = float(np.abs(np.linalg.eigvalsh(blocks)).max()) if np.all(np.isfinite(blocks)) else math.inf
    return _finite_norm("operator", norm)


def _centrosymmetric_blocks(a: np.ndarray) -> np.ndarray:
    """The two half-order blocks of ``toep(a)`` whose spectra make up its own (see :func:`op_norm`)."""
    d = a.size
    h = d // 2
    # v[d - 1 + t] = a[|t|], so A[i, j] = v[d - 1 - i + j] and H[i, j] = v[i + j]:
    # both are strided views of v, read in place
    v = np.concatenate((a[:0:-1], a))
    step = v.itemsize
    toe = np.ndarray((h, h), v.dtype, v, offset=(d - 1) * step, strides=(-step, step))
    hank = np.ndarray((h, h), v.dtype, v, offset=0, strides=(step, step))
    k = d - h
    blocks = np.zeros((2, k, k))
    np.add(toe, hank, out=blocks[0, :h, :h])
    np.subtract(toe, hank, out=blocks[1, :h, :h])
    if k > h:
        edge = np.sqrt(2.0) * a[h:0:-1]
        blocks[0, :h, h] = edge
        blocks[0, h, :h] = edge
        blocks[0, h, h] = a[0]
    return blocks


def fro_norm(t: SymToeplitz) -> float:
    """Frobenius norm of a matrix of finite entries; one that is no finite float raises :class:`NumericError`.

    The squares are summed with every entry scaled by ``2**-e``, the power
    of two that brings ``max |a|`` into [1/2, 1), and the root is scaled
    back by ``2**e``.  No square overflows then, and none that counts
    underflows.  Both scalings are exact, so where no square leaves the
    normal range either way, the norm is the plain sum's, bit for bit.
    """
    e = math.frexp(max_norm(t))[1]
    x = np.ldexp(t.dense().ravel(), -e)
    with np.errstate(over="ignore"):
        norm = float(np.ldexp(math.sqrt(x.dot(x)), e))
    return _finite_norm("Frobenius", norm)


def _finite_norm(name: str, norm: float) -> float:
    if not math.isfinite(norm):
        raise NumericError(f"the {name} norm is not a finite float")
    return norm


def max_norm(t: SymToeplitz) -> float:
    """Entrywise maximum absolute value: every entry is one of ``a``."""
    return float(np.abs(t.a).max())


def sup_l(e: np.ndarray, grid: int) -> float:
    """Certified upper bound on ``sup_x |L(x)|`` over [0, 1]; a non-finite entry of ``e`` raises :class:`NumericError`.

    ``L(x) = e[0] + 2 * sum_{s>=1} e[s] cos(2 pi s x)`` is the cosine
    polynomial of ``e``.  Evaluates it on ``grid`` equispaced points via
    an FFT and adds the slack ``4 pi d^2 max|e| / grid`` derived from the
    derivative bound ``|L'(y)| <= 4 pi d^2 max|e|``, so the returned value
    always dominates the operator norm of ``toep(e)``.
    """
    e = SymToeplitz(e).a
    d = e.size
    require_integer("grid", grid, 8 * d * d)
    coef = np.concatenate([e[:1], 2.0 * e[1:]])
    # rfft evaluates the polynomial at x = k/grid for k = 0..grid//2; the
    # remaining half of [0, 1] is covered by the symmetry L(1 - x) = L(x).
    vals = np.fft.rfft(coef, n=grid).real
    # the constant term does not move, so the derivative bound only sees s >= 1
    peak = float(np.abs(e[1:]).max()) if d > 1 else 0.0
    slack = 4.0 * np.pi * d * d * peak / grid
    return float(np.abs(vals).max() + slack)
