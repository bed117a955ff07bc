"""Property tests: the pair-mean estimator, the operator norm, the PSD factor, rulers, the quantizer, the dither, the CLI exit codes and input files."""

import csv
import io
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from toepquant import (
    STREAM_VERSION,
    Arm,
    Correction,
    Dither,
    GenSpec,
    QuantizerConfig,
    Ruler,
    SampleBatch,
    draw_dither,
    full_ruler,
    observe,
    principal_submatrix,
    quantize_vector,
    quantized_estimate,
    ruler_alpha,
    ruler_estimate,
)
from toepquant._blas import single_blas_thread
from toepquant._seeding import observation_rng
from toepquant.experiments import draw_truth
from toepquant import cli
from toepquant.cli import _ruler_from_spec, main
from toepquant.exceptions import InvalidArgumentError
from toepquant.estimators import _pair_means
from toepquant.quantization import _BLOCK
from toepquant.toeplitz import _centrosymmetric_blocks, op_norm, toep

from reference import avg, pair_means

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
@given(ruler_and_rows())
def test_uncorrected_estimate_at_zero_delta_is_the_ruler_estimate(case):
    ruler, rows = case
    batch = SampleBatch(rows, ruler, 0.0)
    plain = ruler_estimate(batch)
    quantized = quantized_estimate(batch, Correction.NONE)
    assert quantized.a.tobytes() == plain.a.tobytes()


@PROPERTY_SETTINGS
@given(ruler_and_rows(full=True))
# products below the normal range: the two sums round differently by a subnormal step
@example((full_ruler(2), np.array([[0.0, 1.74349077e-159]] + [[1.74349077e-159] * 2] * 4)))
def test_full_ruler_pair_means_average_the_second_moment(case):
    ruler, rows = case
    n = rows.shape[0]
    est = ruler_estimate(SampleBatch(rows, ruler, 0.0)).a
    want = avg(rows.T @ rows / n).a
    # a product that underflows is rounded to a multiple of the smallest
    # subnormal, which no relative tolerance covers; allow one step per product
    underflow = rows.size * ruler.size * np.finfo(np.float64).smallest_subnormal
    np.testing.assert_allclose(est, want, rtol=1e-12, atol=1e-12 * np.abs(want).max() + underflow)


@PROPERTY_SETTINGS
@given(ruler_and_rows())
@example((ruler_alpha(512, 0.5), np.random.default_rng(2).standard_normal((20, ruler_alpha(512, 0.5).size))))
@example((full_ruler(512), np.random.default_rng(3).standard_normal((20, 512))))
def test_pair_means_are_the_bincount_sums_bit_for_bit(case):
    ruler, rows = case
    batch = SampleBatch(rows, ruler, 0.0)
    assert _pair_means(batch).tobytes() == pair_means(batch).tobytes()


@st.composite
def generating_vectors(draw):
    """A generating vector of even or odd length up to 512: drawn entries, or a seeded Gaussian one."""
    d = draw(st.integers(1, 512))
    seeded = st.integers(0, 2**32 - 1).map(lambda seed: np.random.default_rng(seed).standard_normal(d))
    return draw(st.one_of(arrays(np.float64, d, elements=FINITE), seeded))


@PROPERTY_SETTINGS
@given(generating_vectors())
@example(np.array([-2.5]))
@example(np.array([1.0, -3.0]))
@example(np.array([2.0, 1.0, 0.5]))
@example(np.zeros(7))
@example(np.array([0.0, 2.22507386e-313] + [0.0] * 7))  # a subnormal norm, where the two differ by one ulp
def test_toeplitz_op_norm_split_matches_the_dense_spectrum(a):
    t = toep(a)
    want = np.abs(np.linalg.eigvalsh(t.dense())).max()
    # the relative term is below one ulp of a subnormal norm, so a few ulps are allowed on top
    assert abs(op_norm(t) - want) <= 1e-13 * want + 4 * np.spacing(want)


@PROPERTY_SETTINGS
@given(st.integers(1, 1024), st.floats(0.5, 1.0))
@example(10, 0.75)  # the tail reaches -1
@example(1, 0.5)
@example(2, 0.5)
def test_ruler_alpha_is_the_block_and_the_non_negative_tail(d, alpha):
    r1 = math.floor(d**alpha + 0.5)
    s = math.floor(d ** (1.0 - alpha) + 0.5)
    tail = {d - 1 - i * s for i in range(r1)}
    assert ruler_alpha(d, alpha).indices.tolist() == sorted(set(range(r1)) | {j for j in tail if j >= 0})


@st.composite
def truth_and_ruler(draw):
    """A trial's covariance, a cosine mixture or banded recipe at ``d <= 300``, and a ruler for it."""
    d = draw(st.integers(1, 300))
    if d > 1 and draw(st.booleans()):
        spec = GenSpec(d, m=draw(st.integers(1, d - 1)), normalize=draw(st.booleans()))
    else:
        spec = GenSpec(d, k=draw(st.integers(1, d)), normalize=draw(st.booleans()))
    alpha = draw(st.sampled_from([0.5, 0.6, 0.75, 0.9, 1.0]))
    return draw_truth(spec, draw(st.integers(0, 2**32 - 1))), spec, ruler_alpha(d, alpha)


@PROPERTY_SETTINGS
@given(truth_and_ruler())
@example((draw_truth(GenSpec(16, k=8, normalize=True), 1), GenSpec(16, k=8, normalize=True), full_ruler(16)))
def test_psd_factor_is_modal_when_2k_fits_the_ruler_and_eigh_otherwise(case):
    truth, spec, ruler = case
    want = principal_submatrix(truth, ruler.indices)
    with single_blas_thread():
        factor = truth.psd_factor(ruler.indices)
        # the same generating vector with no modes: the eigh factor
        plain = toep(truth.a).psd_factor(ruler.indices)
    if spec.k is not None and 2 * spec.k <= ruler.size:
        assert factor.shape == (ruler.size, 2 * spec.k)
        assert np.abs(factor @ factor.T - want).max() <= 1e-12 * np.abs(want).max()
    else:
        assert factor.shape == (ruler.size, ruler.size)
        assert factor.tobytes() == plain.tobytes()


def gathered_blocks(a):
    """The centrosymmetric blocks of ``toep(a)`` built by gathering ``A`` and ``H`` entry by entry."""
    d = a.size
    h = d // 2
    i = np.arange(h)
    toe = a[np.abs(i[:, None] - i)]
    hank = a[d - 1 - i[:, None] - i]
    k = d - h
    blocks = np.zeros((2, k, k))
    blocks[0, :h, :h] = toe + hank
    blocks[1, :h, :h] = toe - hank
    if k > h:
        edge = np.sqrt(2.0) * a[h - i]
        blocks[0, :h, h] = edge
        blocks[0, h, :h] = edge
        blocks[0, h, h] = a[0]
    return blocks


@PROPERTY_SETTINGS
@given(st.integers(1, 300).flatmap(lambda d: arrays(np.float64, d, elements=FINITE)))
@example(np.array([-2.5]))
@example(np.array([1.0, -3.0]))
def test_centrosymmetric_blocks_are_the_gathered_blocks(a):
    # the strided views of the generating vector read the entries the gathers copy
    assert _centrosymmetric_blocks(a).tobytes() == gathered_blocks(a).tobytes()


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


def reference_dither(cfg, size, rng):
    """The dither drawn directly: one ``uniform`` call per plane, summed for triangular."""
    if cfg.delta == 0 or cfg.dither is Dither.NONE:
        return np.zeros(size)
    half = cfg.delta / 2.0
    tau = rng.uniform(-half, half, size)
    if cfg.dither is Dither.TRIANGULAR:
        tau = tau + rng.uniform(-half, half, size)
    return tau


@PROPERTY_SETTINGS
@given(
    st.floats(0.0, 1e150, exclude_min=True),
    st.sampled_from(Dither),
    st.lists(st.integers(1, 12), min_size=1, max_size=3).map(tuple),
    st.integers(0, 2**32 - 1),
)
@example(1e-3, Dither.TRIANGULAR, (7, 3), 0)
@example(123.456, Dither.UNIFORM, (5, 4), 1)
@example(1e150, Dither.TRIANGULAR, (2, 2), 2)
@example(1e-310, Dither.TRIANGULAR, (3, 2), 3)
@example(1e-308, Dither.UNIFORM, (4,), 4)
# shapes that span several row blocks of a triangular dither's second plane
@example(2.0, Dither.TRIANGULAR, (3 * _BLOCK + 1, 1), 5)
@example(0.5, Dither.TRIANGULAR, (3 * (_BLOCK // 7) + 1, 7), 6)
@example(3.0, Dither.TRIANGULAR, (3 * (_BLOCK // 600) + 1, 600), 7)
@example(1.0, Dither.UNIFORM, (3 * (_BLOCK // 600) + 1, 600), 8)
@example(0.25, Dither.TRIANGULAR, (2 * _BLOCK + 3,), 9)
@example(4.0, Dither.UNIFORM, (2 * _BLOCK + 3,), 10)
def test_dither_from_planes_is_the_reference_draw(delta, dither, shape, seed):
    cfg = QuantizerConfig(delta, dither)
    reference = np.random.default_rng(seed)
    want = reference_dither(cfg, shape, reference)

    # drawn from a generator, which ends where the reference draws left theirs
    rng = np.random.default_rng(seed)
    assert draw_dither(cfg, shape, rng).tobytes() == want.tobytes()
    assert rng.bit_generator.state == reference.bit_generator.state

    # from planes drawn ahead, which are left as they were
    planes = np.random.default_rng(seed).random((2, *shape))
    assert draw_dither(cfg, shape, planes).tobytes() == want.tobytes()
    assert planes.tobytes() == np.random.default_rng(seed).random((2, *shape)).tobytes()

    # observe and quantize_vector quantize with that dither and leave their
    # generator in the same state; a delta so small that x / delta overflows
    # is rejected before the generator is read
    x = np.random.default_rng(seed + 1).standard_normal(shape)
    rows = x.reshape(shape[0], -1)
    rng = np.random.default_rng(seed)
    if not np.isfinite((float(np.abs(x).max()) + delta) / delta):
        with pytest.raises(InvalidArgumentError, match="too small"):
            observe(rows, full_ruler(rows.shape[1]), cfg, rng)
        with pytest.raises(InvalidArgumentError, match="too small"):
            quantize_vector(x, cfg, rng)
        assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state
        return
    batch = observe(rows, full_ruler(rows.shape[1]), cfg, rng)
    dithered = rows + want.reshape(rows.shape)
    assert batch.rows.tobytes() == (delta * (np.floor(dithered / delta) + 0.5)).tobytes()
    assert rng.bit_generator.state == reference.bit_generator.state
    rng = np.random.default_rng(seed)
    trace = quantize_vector(x, cfg, rng)
    assert trace.tau.tobytes() == want.tobytes()
    assert rng.bit_generator.state == reference.bit_generator.state


# Command lines are drawn from usable values, then up to two options are
# overridden from a pool of values that are invalid, or that some of the
# experiments do not read (such as --eps outside experiment 4).  The options that
# bound a run's cost (its grids and the search cap) are always given, and
# only small values are drawn for them, so no drawn run is a real experiment.
# An option is ``(flag, value)``; a value of None is a bare flag.
# HUGE, an integer too large to be a float, is an unusable value of every
# integer option but --trials and --n-cap: those two size the work, and
# ``exp --id 3 --trials HUGE`` would build its list of trials for ever.
HUGE = str(10**400)
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
    ("--trials", "0"), ("--trials", "-1"),
    ("--d-grid", ""), ("--d-grid", "x"), ("--d-grid", "16,4"), ("--d-grid", "8,1"),
    ("--n-grid", ""), ("--n-grid", "0"), ("--n-grid", "12,6"), ("--n-cap", "0"), ("--n-cap", "-2"),
    ("--deltas", ""), ("--deltas", "-1"), ("--deltas", "nan"), ("--deltas", "inf"), ("--deltas", "0,2"),
    ("--alphas", ""), ("--alphas", "0.4"), ("--alphas", "1.5"),
    ("--d", "1"), ("--d", "-3"), ("--eps", "0.2"), ("--m", "0"), ("--m", "40"),
    ("--d", HUGE), ("--d-grid", HUGE), ("--d-grid", f"8,{HUGE}"), ("--n-grid", HUGE), ("--m", HUGE),
]
_EXP_GLOBAL = ("--trials",)

_ESTIMATE_USABLE = {
    "--ruler": ["1.0", "0.5"],
    "--delta": ["0", "2"],
    "--dither": [dither.value for dither in Dither],
    "--correction": [correction.value for correction in Correction],
}
_SIMULATION_USABLE = {
    "--d": ["8", "12"], "--n": ["1", "5", "50"], "--k": ["1", "3"], "--m": ["1", "3"],
    "--normalize": [None],
}
_ESTIMATE_UNUSABLE = [
    ("--d", "1"), ("--d", "-1"), ("--n", "0"), ("--k", "0"), ("--k", "99"), ("--m", "0"), ("--normalize", None),
    ("--ruler", "0.3"), ("--ruler", "x"), ("--ruler", "1,99"), ("--ruler", "0,1"), ("--ruler", "1,2"),
    ("--delta", "-1"), ("--delta", "nan"), ("--threshold", "-1"), ("--bandwidth", "0"), ("--bandwidth", "99"),
    ("--threshold-auto", None),
    ("--d", HUGE), ("--n", HUGE), ("--k", HUGE), ("--m", HUGE), ("--bandwidth", HUGE),
]
_GEN_UNUSABLE = [
    ("--d", "0"), ("--d", HUGE), ("--k", "0"), ("--k", "9"), ("--k", HUGE), ("--m", "0"), ("--m", "4"), ("--m", HUGE),
]
_RULER_UNUSABLE = [("--d", "0"), ("--d", "-1"), ("--d", HUGE), ("--alpha", "0.3"), ("--alpha", "nan")]
_BOUNDS_USABLE = {
    "--alpha": ["0.5", "0.5,1"], "--delta": ["0", "0,2"], "--eps": ["0.1", "0.5"], "--op-norm": ["1", "3"],
    "--k": ["1", "3"], "--p": ["2"], "--n": ["10", "1000"], "--c": ["0.5"],
}
_BOUNDS_UNUSABLE = [
    ("--d", "1"), ("--d", HUGE), ("--k", "0"), ("--k", "99"), ("--k", HUGE), ("--n", "0"), ("--n", HUGE),
    ("--alpha", "0.3"), ("--alpha", ""), ("--delta", "-1"), ("--delta", "1e100"), ("--eps", "0"),
    ("--prob-delta", "1"), ("--op-norm", "0"), ("--p", "0.5"), ("--c", "0"),
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
    options = {"--trials": "1"}
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


@st.composite
def small_argv(draw):
    """``gen``, ``ruler`` or ``bounds`` with usable settings, some of them overridden with unusable ones."""
    command = draw(st.sampled_from(["gen", "ruler", "bounds"]))
    options = {"--d": draw(st.sampled_from(["4", "8", "16"]))}
    if command == "gen":
        options.update(draw(st.sampled_from([{"--k": "1"}, {"--k": "2"}, {"--m": "1"}, {"--m": "3"}])))
        unusable = _GEN_UNUSABLE
    elif command == "ruler":
        options["--alpha"] = draw(st.sampled_from(["0.5", "0.75", "1"]))
        unusable = _RULER_UNUSABLE
    else:
        options.update(draw(_options(_BOUNDS_USABLE)))
        unusable = _BOUNDS_UNUSABLE
    options.update(draw(st.lists(st.sampled_from(unusable), max_size=2)))
    return [command, *_flags(options)]


def _exit_code(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejects a malformed command line with status 2
            return exc.code


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """An output directory and input CSVs: good, with a non-finite entry, empty, ragged, missing."""
    root = tmp_path_factory.mktemp("cli")
    good = root / "good.csv"
    np.savetxt(good, np.random.default_rng(0).standard_normal((20, 6)), delimiter=",")
    (root / "nan.csv").write_text("1.0,2.0\nnan,3.0\n")
    (root / "empty.csv").write_text("")
    # eight fields, then nine: the extra field is off the sparse ruler at d = 8
    (root / "ragged.csv").write_text("1,2,3,4,5,6,7,8\n1,2,3,4,5,6,7,8,9\n1,2,3,4,5,6,7,8\n")
    unusable = ("nan.csv", "empty.csv", "ragged.csv", "missing.csv")
    return str(root / "out"), (str(good), [str(root / name) for name in unusable])


def test_cli_exits_only_with_a_contract_code(cli_files):
    out_dir, inputs = cli_files

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(exp_argv(out_dir), estimate_argv(inputs), small_argv()))
    def check(argv):
        assert _exit_code(argv) in (0, 2, 3), argv

    check()


@st.composite
def decorated_csv(draw, misfit=False):
    """A CSV of n rows of d numbers, decorated, and ``estimate`` options for it.

    Comment lines, inline comments holding commas and blank lines are
    mixed in, and lines end in LF, CR LF or CR.  The ruler is an alpha, or
    1-based indices in any order covering every distance.  With
    ``misfit``, one row after the first is one field wider or narrower,
    and the error that names its line ends the tuple.
    """
    n, d = draw(st.integers(2 if misfit else 1, 12)), draw(st.integers(2 if misfit else 1, 64))
    rows = draw(arrays(np.float64, (n, d), elements=FINITE)).tolist()
    if misfit:
        r = draw(st.integers(1, n - 1))
        rows[r] = rows[r] + [0.5] if draw(st.booleans()) else rows[r][:-1]
    lines = []
    for row in rows:
        lines += draw(st.lists(st.sampled_from(["", "#", "# a note, with, commas"]), max_size=2))
        if len(row) != d:
            error = f"line {len(lines) + 1} has {len(row)} fields, the first row {d}"
        lines.append(",".join(map(repr, row)) + draw(st.sampled_from(["", " # x,y", "#,"])))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join(lines) + draw(st.sampled_from(["", eol]))
    if d > 1 and draw(st.booleans()):
        indices = {0} | set(draw(st.lists(st.integers(0, d - 1), max_size=d)))
        for s in range(d):
            if not any(j + s in indices for j in indices):
                indices.add(s)
        ruler = ",".join(str(i + 1) for i in draw(st.permutations(sorted(indices))))
    else:
        ruler = draw(st.sampled_from(["1.0", "0.75", "0.5"]))
    case = (text, ruler, draw(st.sampled_from([0.0, 2.0])), draw(st.sampled_from([c.value for c in Correction])))
    return case + (error,) if misfit else case


def _reference_estimate_stdout(path, ruler_text, delta, correction, seed):
    """``estimate --input``'s stdout from every field of ``path``, converted, then observed on the ruler."""
    samples = np.loadtxt(path, delimiter=",", ndmin=2)
    ruler = _ruler_from_spec(ruler_text, samples.shape[1])
    arm = Arm("", None, ruler, QuantizerConfig(delta, Dither.TRIANGULAR), Correction(correction))
    est, _ = arm.estimate_batch(observe(samples, ruler, arm.quantizer, observation_rng(seed, samples.shape[0])))
    out = io.StringIO()
    rows = [[f"a[{s}]", repr(float(v))] for s, v in enumerate(est.a)]
    csv.writer(out).writerows([["key", "value"], *rows, ["seed", str(seed)], ["stream_version", str(STREAM_VERSION)]])
    return out.getvalue()


def test_input_converts_only_the_ruler_and_prints_what_every_field_would(tmp_path, monkeypatch):
    path = tmp_path / "samples.csv"

    @PROPERTY_SETTINGS
    # the file is read a chunk at a time; small chunks cut lines, comments and CR LF pairs
    @given(decorated_csv(), st.sampled_from([3, 64, cli._CHUNK]))
    @example(("# one column\r\n1.5\r\n\r\n-2.0 # a, b\r\n0.25", "0.5", 2.0, "quarter"), 3)
    @example(("1,2,3,4\n# c, d\n\n5,6,7,8 #,\n-1,0,0.5,2\n", "4,1,2", 0.0, "none"), 3)
    def check(case, chunk):
        text, ruler, delta, correction = case
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        path.write_bytes(text.encode())
        argv = ["--seed", "3", "estimate", "--input", str(path), "--ruler", ruler, "--delta", repr(delta)]
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(argv + ["--dither", "triangular", "--correction", correction])
        assert code == 0
        assert out.getvalue() == _reference_estimate_stdout(path, ruler, delta, correction, 3)

    check()


def test_input_with_a_row_of_another_width_names_its_line(tmp_path, monkeypatch):
    path = tmp_path / "samples.csv"

    @PROPERTY_SETTINGS
    @given(decorated_csv(misfit=True), st.sampled_from([3, 64, cli._CHUNK]))
    @example(("1,2,3\r\n# a, b\r\n\r\n4,5 #,\r\n6,7,8", "1.0", 0.0, "none", "line 4 has 2 fields, the first row 3"), 3)
    @example(("1,2,3,4\r# c, d\r5,6,7,8,9 # x,y\r-1,0,0.5,2\r", "4,1,2", 2.0, "quarter", "line 3 has 5 fields, the first row 4"), 3)
    def check(case, chunk):
        text, ruler, delta, correction, error = case
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        path.write_bytes(text.encode())
        argv = ["estimate", "--input", str(path), "--ruler", ruler, "--delta", repr(delta), "--correction", correction]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue() == f"invalid configuration: could not parse samples from {path}: {error}\n"

    check()
