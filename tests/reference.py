"""Reference computations the tests compare the package against."""

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
