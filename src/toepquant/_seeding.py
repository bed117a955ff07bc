"""Seed-derivation helpers.

All randomness in the package flows through numpy's ``default_rng``
(PCG64 seeded via ``SeedSequence``).  Substreams are derived from
structured integer keys, so distinct keys give statistically independent,
non-overlapping streams and the same key is bit-reproducible across runs.

A simulated trial owns two streams:

* the *generator* stream ``(seed, 0)`` that draws the covariance matrix, and
* the *observation* stream ``(seed, 1, n)`` that draws the Gaussian samples
  and the dither.

Keeping ``n`` inside the observation key makes batches at different sample
counts independent while letting one trial seed pin down the matrix.

``STREAM_VERSION`` names how the observation stream is spent.  Version 3
draws the samples of each ruler separately, on that ruler's columns only,
each from the start of the ``(seed, 1, n)`` stream, as one (n, w) block of
standard normals through the ruler's PSD factor of width ``w``: 2k for a
mixture of k cosine modes when ``2k <= |R|`` (the exact modal factor),
|R| otherwise (the ``eigh`` factor).  Version 2 drew every ruler through
the ``eigh`` factor, so the draws that still take it are the same in both;
version 1 drew all d coordinates once per ``(seed, n)``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["STREAM_VERSION", "derive_seed", "generator_rng", "observation_rng"]

STREAM_VERSION = 3


def derive_seed(*key: int) -> int:
    """Collapse a structured key into a single 64-bit seed."""
    return int(np.random.SeedSequence(tuple(int(k) for k in key)).generate_state(1, np.uint64)[0])


def generator_rng(seed: int) -> np.random.Generator:
    """Stream used to draw the covariance matrix of a trial."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), 0)))


def observation_rng(seed: int, n: int) -> np.random.Generator:
    """Stream used to draw the samples and dither of a trial at sample count ``n``."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), 1, int(n))))
