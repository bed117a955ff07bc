"""Reference computations the tests compare the package against."""

from typing import Callable

import numpy as np

from toepquant import SampleBatch, SymToeplitz
from toepquant.exceptions import InvalidArgumentError


def avg(m: np.ndarray) -> SymToeplitz:
    """Average the diagonals of a square matrix into a Toeplitz matrix.

    Both the upper and the lower diagonal at each offset are pooled, so the
    dense form of a symmetric Toeplitz matrix comes back as that matrix.
    """
    dense = np.asarray(m, dtype=np.float64)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise InvalidArgumentError(f"expected a square matrix, got shape {dense.shape}")
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


def pair_means(batch: SampleBatch) -> np.ndarray:
    """The pair means of a batch by ``np.bincount`` over the ruler's distance matrix.

    ``bincount`` adds the weights into each bin in element order, the order
    the package's pair sums must keep.
    """
    rows, ruler = batch.rows, batch.ruler
    gram = rows.T @ rows
    sums = np.bincount(ruler.distance_matrix().ravel(), weights=gram.ravel(), minlength=ruler.d)
    return sums / (batch.n * ruler.pair_counts)


def bisect_past_cap(probe: Callable[[int], float], eps: float, cap: int) -> tuple[int, bool]:
    """Experiment 4's search as written when its doubling could pass the cap, then probed the cap on its own.

    Smallest n (within ~5%) whose median error meets eps, doubling then
    halving; no probe exceeds cap.
    """
    if probe(1) <= eps:
        return 1, False
    lo, hi = 1, 2
    while hi <= cap and probe(hi) > eps:
        lo, hi = hi, hi * 2
    if hi > cap:
        # the doubling passed the cap: probe the cap itself unless it was the last doubling
        if lo == cap or probe(cap) > eps:
            return cap, True
        hi = cap
    while hi - lo > max(1, lo // 20):
        mid = (lo + hi) // 2
        if probe(mid) <= eps:
            hi = mid
        else:
            lo = mid
    return hi, False
