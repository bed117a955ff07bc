"""Rulers: index sets that realize every pairwise distance.

A ruler for dimension ``d`` is a subset ``R`` of ``{0, ..., d-1}`` such
that every distance ``s`` in ``{0, ..., d-1}`` is realized by some ordered
pair of elements of ``R``.  The estimator averages sample products over
the ordered pairs at each distance, so rulers carry their full pair index.

Indices are 0-based internally; the CLI prints them 1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import NotARulerError, require_indices, require_integer, require_real, require_sizable

__all__ = [
    "Ruler",
    "full_ruler",
    "ruler_alpha",
    "is_ruler",
    "coverage_coefficient",
    "phi_bound",
]


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True, eq=False)
class Ruler:
    """A validated ruler with a precomputed ordered-pair index.

    ``pair_counts[s]`` is the number of ordered pairs ``(j, k)`` in
    ``R x R`` with ``|j - k| == s``; it is ``|R|`` at ``s = 0`` and even
    for ``s >= 1``.  Rulers with equal ``d`` and ``indices`` are equal.
    """

    d: int
    indices: np.ndarray
    pair_counts: np.ndarray = field(init=False, repr=False)
    _dist: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        require_integer("d", self.d, 1)
        idx = np.unique(require_indices("ruler indices", self.indices, 0, self.d - 1))
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)

        dist = idx[:, None] - idx[None, :]
        np.abs(dist, out=dist)
        counts = np.bincount(dist.ravel(), minlength=self.d)
        if np.any(counts == 0):
            missing = np.flatnonzero(counts == 0).tolist()
            raise NotARulerError(
                f"index set does not realize distances {missing}", missing=missing
            )
        counts.flags.writeable = False
        dist.flags.writeable = False
        object.__setattr__(self, "pair_counts", counts)
        object.__setattr__(self, "_dist", dist)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ruler) and self.d == other.d and np.array_equal(self.indices, other.indices)

    def __hash__(self) -> int:
        return hash((self.d, self.indices.tobytes()))

    @property
    def size(self) -> int:
        return int(self.indices.size)

    def distance_matrix(self) -> np.ndarray:
        """|R| x |R| matrix of pairwise index distances."""
        return self._dist


def is_ruler(indices, d: int) -> tuple[bool, list[int]]:
    """Check the ruler property; return (ok, sorted missing distances), as :class:`Ruler` finds them."""
    require_integer("d", d, 1)
    try:
        idx = np.asarray(list(indices))
    except TypeError:  # a scalar, which Ruler rejects by name
        idx = indices
    if np.shape(idx) == (0,):
        return False, list(range(d))
    try:
        Ruler(d, idx)
    except NotARulerError as exc:
        return False, exc.missing
    return True, []


def full_ruler(d: int) -> Ruler:
    """The ruler containing every index ``0..d-1``: :func:`ruler_alpha` at alpha 1, whose checks of ``d`` it shares."""
    return ruler_alpha(d, 1.0)


def ruler_alpha(d: int, alpha: float) -> Ruler:
    """Two-block ruler: a dense prefix plus an arithmetic tail from the top.

    With ``r1 = round(d^alpha)`` and ``s = round(d^(1-alpha))``, take the
    block ``{0, ..., r1-1}`` plus the non-negative elements of the tail
    ``t_i = d-1 - i*s`` for ``i = 0..r1-1``.  At ``d = 1`` that is ``{0}``,
    the full ruler.

    The set is always a ruler.  Since ``alpha >= 1/2``, ``s <= r1``.  The
    tail element ``t_i`` minus the block covers ``[t_i - r1 + 1, t_i]``;
    because ``s <= r1`` consecutive intervals touch, and the block covers
    ``[0, r1 - 1]``.  So it is enough that ``d <= r1(s + 2) - s`` when no
    tail element is negative.  If one is, the last non-negative ``t_i`` is
    below ``s <= r1``, so the intervals already reach 0.  Rounding gives
    ``d < (r1 + 1/2)(s + 1/2)``, which implies the bound with slack
    ``>= 1.25`` when ``s < r1``; when ``s = r1`` it gives ``d <= r1^2 + r1``,
    since ``d`` is an integer.  Float error in ``d**alpha`` is far below
    that slack.  :class:`Ruler` would still raise :class:`NotARulerError`
    if a distance were missed.

    A ``d`` that is not an integer, is past the float range, or whose
    ruler's ``|R| x |R|`` distance matrix (``|R| <= 2 r1``) numpy could not
    size, raises :class:`InvalidArgumentError` before any index is built.
    """
    require_integer("dimension", d, 1)
    require_real("dimension", d, 1)  # d**alpha is a float
    require_real("alpha", alpha, 0.5, 1)
    r1 = _round_half_up(d**alpha)
    s = _round_half_up(d ** (1.0 - alpha))
    # the ruler holds at most 2 r1 indices, and its distance matrix their square
    require_sizable(
        (2 * r1) ** 2, f"dimension {d} too large for a ruler at alpha {alpha}: its distance matrix cannot be sized"
    )
    tail = d - 1 - s * np.arange(r1, dtype=np.int64)
    return Ruler(d, np.concatenate([np.arange(r1, dtype=np.int64), tail[tail >= 0]]))


def coverage_coefficient(ruler: Ruler) -> float:
    """Sum over distances ``s >= 1`` of ``1 / |R_s|`` (ordered-pair counts).

    Computed with exact float summation, so rulers whose pair counts match
    give bit-identical coefficients.
    """
    return math.fsum(1.0 / int(c) for c in ruler.pair_counts[1:])


def phi_bound(d: int, alpha: float) -> float:
    """Closed-form ceiling for the coverage coefficient of ``ruler_alpha``.

    Evaluates ``d^(2-2a) + d^(1-a) * ln d`` with the hidden constant of the
    second term fixed to one; a heuristic envelope, not a certified bound.
    ``alpha`` must lie in [1/2, 1], as for :func:`ruler_alpha`.
    """
    require_integer("dimension", d, 2)
    require_real("dimension", d, 2)  # d is raised to float powers
    require_real("alpha", alpha, 0.5, 1)
    return float(d ** (2.0 - 2.0 * alpha) + d ** (1.0 - alpha) * math.log(d))
