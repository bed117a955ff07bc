"""Property tests of the pair-mean estimator over random rows and rulers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from toepquant import Correction, Dither, Ruler, SampleBatch, avg, full_ruler, quantized_estimate, ruler_estimate

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)
FINITE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def ruler_and_rows(draw, full=False):
    """A ruler on ``d`` coordinates and ``n`` rows observed on it."""
    d = draw(st.integers(1, 24))
    if full:
        ruler = full_ruler(d)
    else:
        # a random index set containing 0, then index s for every distance s
        # it misses, so that the pair (0, s) realizes it
        indices = {0} | set(draw(st.lists(st.integers(0, d - 1), max_size=d)))
        for s in range(d):
            if not any(j + s in indices for j in indices):
                indices.add(s)
        ruler = Ruler(d, np.array(sorted(indices)))
    n = draw(st.integers(1, 30))
    rows = draw(arrays(np.float64, (n, ruler.size), elements=FINITE))
    return ruler, rows


@PROPERTY_SETTINGS
@given(ruler_and_rows(), st.sampled_from(Dither))
def test_uncorrected_estimate_at_zero_delta_is_the_ruler_estimate(case, dither):
    ruler, rows = case
    batch = SampleBatch(rows, ruler, 0.0, dither)
    plain = ruler_estimate(batch)
    quantized = quantized_estimate(batch, Correction.NONE)
    assert quantized.a_hat.tobytes() == plain.a_hat.tobytes()
    for name in ("ruler", "n", "delta", "dither", "correction"):
        assert getattr(quantized, name) == getattr(plain, name), name
        assert type(getattr(quantized, name)) is type(getattr(plain, name)), name


@PROPERTY_SETTINGS
@given(ruler_and_rows(full=True))
def test_full_ruler_pair_means_average_the_second_moment(case):
    ruler, rows = case
    n = rows.shape[0]
    est = ruler_estimate(SampleBatch(rows, ruler, 0.0, Dither.NONE)).a_hat
    want = avg(rows.T @ rows / n).a
    np.testing.assert_allclose(est, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
