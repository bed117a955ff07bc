"""Property tests: the pair-mean estimator, rulers, the quantizer and the CLI exit codes."""

import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from toepquant import (
    Correction,
    Dither,
    QuantizerConfig,
    Ruler,
    SampleBatch,
    avg,
    full_ruler,
    quantize_vector,
    quantized_estimate,
    ruler_alpha,
    ruler_estimate,
)
from toepquant.cli import main

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
# products below the normal range: the two sums round differently by a subnormal step
@example((full_ruler(2), np.array([[0.0, 1.74349077e-159]] + [[1.74349077e-159] * 2] * 4)))
def test_full_ruler_pair_means_average_the_second_moment(case):
    ruler, rows = case
    n = rows.shape[0]
    est = ruler_estimate(SampleBatch(rows, ruler, 0.0, Dither.NONE)).a_hat
    want = avg(rows.T @ rows / n).a
    # a product that underflows is rounded to a multiple of the smallest
    # subnormal, which no relative tolerance covers; allow one step per product
    underflow = rows.size * ruler.size * np.finfo(np.float64).smallest_subnormal
    np.testing.assert_allclose(est, want, rtol=1e-12, atol=1e-12 * np.abs(want).max() + underflow)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4096), st.floats(0.5, 1.0))
def test_ruler_alpha_realizes_every_distance(d, alpha):
    ruler = ruler_alpha(d, alpha)
    assert ruler.d == d
    assert 0 <= ruler.indices.min() and ruler.indices.max() < d
    # pairs at distance s counted independently of the ruler's own index:
    # the autocorrelation of the index set's indicator
    indicator = np.zeros(d)
    indicator[ruler.indices] = 1.0
    pairs = np.correlate(indicator, indicator, "full")[d - 1 :]
    assert np.all(pairs > 0)
    np.testing.assert_array_equal(ruler.pair_counts, np.where(np.arange(d) == 0, 1, 2) * pairs)


@settings(max_examples=60, deadline=None)
@given(
    arrays(np.float64, st.integers(1, 40), elements=st.floats(-1e6, 1e6)),
    st.floats(1e-3, 1e3),
    st.sampled_from(Dither),
    st.integers(0, 2**32 - 1),
)
def test_quantizer_output_on_grid_and_within_half_a_step(x, delta, dither, seed):
    trace = quantize_vector(x, QuantizerConfig(delta, dither), np.random.default_rng(seed))
    cells = np.round(trace.output / delta - 0.5)
    np.testing.assert_array_equal(trace.output, delta * (cells + 0.5))
    dithered = x + trace.tau
    # half a step, plus the rounding of the floating-point division
    slack = 4 * np.spacing(np.maximum(np.abs(dithered), delta))
    assert np.all(np.abs(trace.output - dithered) <= delta / 2 + slack)


# Command lines are drawn from usable values, then up to two options are
# overridden from a pool of values that are invalid, or that some of the
# experiments do not read (such as --eps outside experiment 4).  The options that
# bound a run's cost (its grids and the search cap) are always given, and
# only small values are drawn for them, so no drawn run is a real experiment.
# An option is ``(flag, value)``; a value of None is a bare flag.
_EXP_USABLE = {
    1: ({"--n-grid": ["6", "6,12"]}, {"--d": ["8", "12"], "--deltas": ["0", "1.5", "0,2"], "--alphas": ["0.5", "1", "0.5,1"]}),
    2: ({"--n-grid": ["6,12,24"]}, {"--d": ["8", "12"], "--deltas": ["0", "1.5", "0,2"], "--alphas": ["0.5", "1", "0.5,1"]}),
    3: ({"--n-grid": ["6", "12"]}, {"--d": ["8", "12"], "--deltas": ["0", "1.5", "0,2"], "--alphas": ["0.5", "1", "0.5,1"]}),
    4: (
        {"--d-grid": ["8", "12,8"], "--n-cap": ["1", "8", "32"]},
        {"--deltas": ["0", "1.5"], "--alphas": ["0.5", "1", "0.5,1"], "--eps": ["0.3", "0.5"]},
    ),
    5: ({"--d-grid": ["8", "12,8"]}, {"--n-grid": ["6", "50"], "--deltas": ["0", "0.5"], "--alphas": ["0.5", "1"], "--m": ["1", "3"]}),
}
_EXP_UNUSABLE = [
    ("--trials", "0"), ("--trials", "-1"), ("--threads", "0"),
    ("--d-grid", ""), ("--d-grid", "x"), ("--d-grid", "16,4"), ("--d-grid", "8,1"),
    ("--n-grid", ""), ("--n-grid", "0"), ("--n-grid", "12,6"), ("--n-cap", "0"), ("--n-cap", "-2"),
    ("--deltas", ""), ("--deltas", "-1"), ("--deltas", "nan"), ("--deltas", "inf"), ("--deltas", "0,2"),
    ("--alphas", ""), ("--alphas", "0.4"), ("--alphas", "1.5"),
    ("--d", "1"), ("--d", "-3"), ("--eps", "0.2"), ("--m", "0"), ("--m", "40"),
]
_EXP_GLOBAL = ("--trials", "--threads")

_ESTIMATE_USABLE = {
    "--ruler": ["1.0", "0.5"],
    "--delta": ["0", "2"],
    "--dither": [dither.value for dither in Dither],
    "--correction": [correction.value for correction in Correction],
}
_SIMULATION_USABLE = {
    "--d": ["8", "12"], "--n": ["1", "5", "50"], "--k": ["1", "3"], "--m": ["1", "3"],
    "--normalize": [None], "--thresh-c": ["0.07"], "--thresh-p": ["2"],
}
_ESTIMATE_UNUSABLE = [
    ("--d", "1"), ("--d", "-1"), ("--n", "0"), ("--k", "0"), ("--k", "99"), ("--m", "0"), ("--normalize", None),
    ("--ruler", "0.3"), ("--ruler", "x"), ("--ruler", "1,99"), ("--ruler", "0,1"), ("--ruler", "1,2"),
    ("--delta", "-1"), ("--delta", "nan"), ("--threshold", "-1"), ("--bandwidth", "0"), ("--bandwidth", "99"),
    ("--thresh-c", "0"), ("--threshold-auto", None),
]


def _options(table):
    """Some of the options in ``table``, each with one of its values."""
    return st.fixed_dictionaries({}, optional={flag: st.sampled_from(values) for flag, values in table.items()})


def _flags(options):
    return [token for flag, value in options.items() for token in ((flag,) if value is None else (flag, value))]


@st.composite
def exp_argv(draw, out_dir):
    """``exp`` with usable small settings, some of them overridden with unusable ones."""
    exp_id = draw(st.integers(1, 5))
    required, optional = _EXP_USABLE[exp_id]
    options = {"--trials": "1", **draw(_options({"--threads": ["1", "2"]}))}
    options.update(draw(st.fixed_dictionaries({flag: st.sampled_from(values) for flag, values in required.items()})))
    options.update(draw(_options(optional)))
    options.update(draw(st.lists(st.sampled_from(_EXP_UNUSABLE), max_size=2)))
    own = {flag: value for flag, value in options.items() if flag not in _EXP_GLOBAL}
    glob = {flag: value for flag, value in options.items() if flag in _EXP_GLOBAL}
    return ["--out", out_dir, *_flags(glob), "exp", "--id", str(exp_id), "--quiet", *_flags(own)]


@st.composite
def estimate_argv(draw, inputs):
    """``estimate`` on a small simulation or a CSV, some settings overridden with unusable ones.

    ``inputs`` is ``(usable CSV, unusable CSVs)``.
    """
    usable, unusable = inputs
    simulate = draw(st.booleans())
    options = {"--simulate": None} if simulate else {"--input": usable}
    options.update(draw(_options(_ESTIMATE_USABLE)))
    if simulate:
        options.update(draw(_options(_SIMULATION_USABLE)))
    post = {"--threshold": ["0", "0.1"], "--bandwidth": ["1", "3"]}
    if simulate:
        post["--threshold-auto"] = [None]
    options.update(draw(st.sampled_from([{}, *({flag: value} for flag, values in post.items() for value in values)])))
    options.update(draw(st.lists(st.sampled_from(_ESTIMATE_UNUSABLE + [("--input", path) for path in unusable]), max_size=2)))
    return ["estimate", *_flags(options)]


def _exit_code(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejects a malformed command line with status 2
            return exc.code


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """An output directory and input CSVs: good, with a non-finite entry, empty, missing."""
    root = tmp_path_factory.mktemp("cli")
    good = root / "good.csv"
    np.savetxt(good, np.random.default_rng(0).standard_normal((20, 6)), delimiter=",")
    (root / "nan.csv").write_text("1.0,2.0\nnan,3.0\n")
    (root / "empty.csv").write_text("")
    return str(root / "out"), (str(good), [str(root / name) for name in ("nan.csv", "empty.csv", "missing.csv")])


def test_cli_exits_only_with_a_contract_code(cli_files):
    out_dir, inputs = cli_files

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(exp_argv(out_dir), estimate_argv(inputs)))
    def check(argv):
        assert _exit_code(argv) in (0, 2, 3), argv

    check()
