import csv
import dataclasses
import gc
import io
import math
import re
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toepquant import (
    Arm,
    Correction,
    Dither,
    GenSpec,
    QuantizerConfig,
    Ruler,
    SampleBatch,
    emit_plot_script,
    fit_loglog_slope,
    full_ruler,
    quantized_estimate,
    ruler_alpha,
    run_experiment,
    simulate_estimate,
    toeplitz_from_modes,
)
from toepquant.exceptions import InvalidArgumentError
from toepquant import experiments, observe, sample_gaussian, toeplitz
from toepquant._blas import openblas_threads
from toepquant.experiments import THRESHOLD_AUTO, TRIAL_SCHEMA, ExperimentConfig

from reference import bisect_past_cap


class TestFitLoglogSlope:
    def test_exact_half_power_line(self):
        fit = fit_loglog_slope([(10, 1.0), (100, 10**-0.5), (1000, 0.1)])
        assert fit["slope"] == pytest.approx(-0.5, abs=1e-12)
        assert fit["r2"] == pytest.approx(1.0)

    def test_flat_points(self):
        fit = fit_loglog_slope([(10, 2.0), (100, 2.0), (1000, 2.0)])
        assert fit["slope"] == pytest.approx(0.0, abs=1e-12)
        assert fit["r2"] == 1.0

    def test_too_few_points(self):
        with pytest.raises(InvalidArgumentError, match="need at least 3 points, got 2"):
            fit_loglog_slope([(10, 1.0), (100, 0.5)])

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidArgumentError, match="requires strictly positive coordinates"):
            fit_loglog_slope([(10, 1.0), (100, 0.0), (1000, 0.1)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_rejected(self, bad, axis):
        points = [[10, 1.0], [100, 0.5], [1000, 0.1]]
        points[1][axis] = bad
        with pytest.raises(InvalidArgumentError, match="requires strictly positive coordinates, all finite"):
            fit_loglog_slope(points)

    def test_points_sharing_one_x_rejected(self):
        with pytest.raises(InvalidArgumentError, match=r"need at least 2 distinct x, got \[10.0\]"):
            fit_loglog_slope([(10, 1.0), (10, 2.0), (10, 3.0)])


def plain_arm(d, alpha=1.0, delta=0.0, dither=Dither.TRIANGULAR, correction=Correction.NONE, **post):
    """An untagged arm on ``ruler_alpha(d, alpha)``."""
    return Arm("", alpha, ruler_alpha(d, alpha), QuantizerConfig(delta, dither), correction, **post)


class TestSimulateEstimate:
    def test_bit_reproducible(self):
        arm = plain_arm(16, 0.5, 2.0, Dither.TRIANGULAR, Correction.TRIANGULAR_QUARTER)
        a = simulate_estimate(GenSpec(16, k=4, normalize=True), 200, 7, arm)
        b = simulate_estimate(GenSpec(16, k=4, normalize=True), 200, 7, arm)
        assert a.rel_error == b.rel_error
        np.testing.assert_array_equal(a.estimate.a, b.estimate.a)

    @pytest.mark.parametrize("n", [-3, 0])
    def test_sample_count_below_one_rejected_before_the_draw(self, monkeypatch, n):
        monkeypatch.setattr(experiments, "draw_truth", lambda *args: pytest.fail("the covariance was drawn"))
        with pytest.raises(InvalidArgumentError, match=f"^sample count must be positive, got {n}$"):
            simulate_estimate(GenSpec(16, k=4), n, 7, plain_arm(16, 0.5, 0.0, Dither.NONE, Correction.NONE))

    def test_matrix_pinned_by_seed_across_n(self):
        a = simulate_estimate(GenSpec(8, k=2), 50, 3, plain_arm(8))
        b = simulate_estimate(GenSpec(8, k=2), 200, 3, plain_arm(8))
        np.testing.assert_array_equal(a.truth.a, b.truth.a)

    def test_normalize_unit_diagonal(self):
        sim = simulate_estimate(GenSpec(8, k=2, normalize=True), 50, 3, plain_arm(8))
        assert sim.truth.a[0] == pytest.approx(1.0)

    def test_threshold_auto_records_zeta(self):
        arm = plain_arm(16, 0.5, 1.0, correction=Correction.TRIANGULAR_QUARTER, threshold_auto=True)
        sim = simulate_estimate(GenSpec(16, m=3), 100, 5, arm)
        assert sim.zeta is not None and sim.zeta > 0

    def test_threshold_auto_needs_the_truth(self):
        arm = plain_arm(8, threshold_auto=True)
        with pytest.raises(InvalidArgumentError, match="the oracle threshold needs the true matrix"):
            arm.estimate_batch(observe(np.ones((5, 8)), arm.ruler, arm.quantizer, np.random.default_rng(0)))

    def test_recipe_needs_exactly_one_kind(self):
        for kinds in ({}, {"k": 2, "m": 3}):
            with pytest.raises(InvalidArgumentError, match="exactly one"):
                simulate_estimate(GenSpec(8, **kinds), 10, 0, plain_arm(8))

    def test_ruler_must_fit_the_recipe(self):
        with pytest.raises(InvalidArgumentError, match="ruler is for dimension 16, the recipe's is 8"):
            simulate_estimate(GenSpec(8, k=2), 10, 0, plain_arm(16))

    def test_arms_compare_and_hash_by_value(self):
        # a ruler rebuilt from the same indices is the same ruler
        a, b = plain_arm(16, 0.5, 2.0), plain_arm(16, 0.5, 2.0)
        assert a.ruler is not b.ruler
        assert a == b and hash(a) == hash(b)
        assert a != plain_arm(16, 1.0, 2.0) and a != plain_arm(16, 0.5, 1.0)
        assert {a: "sparse"}[b] == "sparse"

    @pytest.mark.parametrize(
        "post",
        [dict(threshold=0.9, threshold_auto=True), dict(threshold=0.1, band_est=2), dict(threshold_auto=True, band_est=2)],
        ids=lambda post: "+".join(post),
    )
    def test_arm_takes_at_most_one_post_processing(self, post):
        # the estimate would apply one of them and drop the other, or apply both
        with pytest.raises(InvalidArgumentError, match="at most one of threshold, threshold_auto and band_est"):
            plain_arm(8, **post)


class TestConfig:
    def test_n_grid_must_increase(self):
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(experiment=1, n_grid=(100, 100))

    def test_trials_positive(self):
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(experiment=1, trials=0)

    def test_unread_field_rejected(self):
        # fields the CLI never sets are checked the same way
        with pytest.raises(InvalidArgumentError, match="does not use eps"):
            ExperimentConfig(5, eps=0.2)
        with pytest.raises(InvalidArgumentError, match="does not use variants"):
            ExperimentConfig(1, variants=("rank10",))

    @pytest.mark.parametrize("experiment", [1, 2, 3, 4, 5])
    def test_constructor_fills_the_experiment_defaults(self, experiment):
        cfg = ExperimentConfig(experiment=experiment)
        reads = experiments._EXPERIMENTS[experiment].reads
        assert {name: getattr(cfg, name) for name in reads} == reads
        unread = [f.name for f in dataclasses.fields(cfg) if f.default is None and f.name not in reads]
        assert all(getattr(cfg, name) is None for name in unread)

    @pytest.mark.parametrize(
        "fields",
        [
            dict(experiment=4, d=64),
            dict(experiment=4, d=64, bandwidth=3, d_grid=(16,), deltas=(2.0,), alphas=(1.0,)),
            dict(experiment=5, n_cap=8),
            dict(experiment=1, eps=0.2),
        ],
        ids=lambda fields: ",".join(fields),
    )
    def test_direct_construction_rejects_unread_field(self, fields):
        with pytest.raises(InvalidArgumentError, match="does not use"):
            ExperimentConfig(**fields)

    @pytest.mark.parametrize(
        "experiment, field, value, message",
        [
            (4, "eps", float("nan"), "eps must be finite and positive, got nan"),
            (4, "eps", float("inf"), "eps must be finite and positive, got inf"),
            (4, "eps", -1.0, "eps must be finite and positive, got -1.0"),
            (4, "n_cap", 0, "n_cap must be positive, got 0"),
            (1, "seed", -1, "seed must be non-negative, got -1"),
        ],
        ids=["4-eps-nan", "4-eps-inf", "4-eps--1.0", "4-n_cap-0", "1-seed--1"],
    )
    def test_unusable_scalar_rejected(self, experiment, field, value, message):
        with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
            ExperimentConfig(experiment, **{field: value})

    @pytest.mark.parametrize(
        "field, call",
        [
            ("trials", lambda out: ExperimentConfig(3, out, trials=2.5)),
            ("n_grid", lambda out: ExperimentConfig(2, out, n_grid=(10.5, 20.5, 30.5))),
            ("bandwidth", lambda out: ExperimentConfig(5, out, bandwidth=2.5)),
            ("n_cap", lambda out: ExperimentConfig(4, out, n_cap=1.5)),
            ("seed", lambda out: ExperimentConfig(1, out, seed=1.5)),
            ("d", lambda out: ExperimentConfig(1, out, d=16.5)),
            ("d_grid", lambda out: ExperimentConfig(4, out, d_grid=(16, 32.5))),
            ("seed", lambda out: simulate_estimate(GenSpec(16, k=4), 10, -1, plain_arm(16))),
            ("seed", lambda out: simulate_estimate(GenSpec(16, k=4), 10, 1.5, plain_arm(16))),
            ("sample count", lambda out: simulate_estimate(GenSpec(16, k=4), 2.5, 1, plain_arm(16))),
        ],
        ids=[
            "trials", "n_grid", "bandwidth", "n_cap", "seed", "d", "d_grid",
            "simulate-negative-seed", "simulate-fractional-seed", "simulate-fractional-n",
        ],
    )
    def test_count_that_is_not_an_integer_rejected_before_any_trial(self, tmp_path, monkeypatch, field, call):
        monkeypatch.setattr(experiments._Trial, "draw", lambda *args: pytest.fail("a trial ran"))
        with pytest.raises(InvalidArgumentError, match=f"^{field} "):
            run_experiment(call(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field, call",
        [
            ("d", lambda: experiments.draw_truth(GenSpec(16.5, k=8), 0)),
            ("k", lambda: GenSpec(16, k=2.5)),
            ("m", lambda: GenSpec(16, m=2.5)),
            ("bandwidth", lambda: Arm("", 0.5, ruler_alpha(16, 0.5), QuantizerConfig(0.0), band_est=2.5)),
        ],
        ids=["GenSpec-d", "GenSpec-k", "GenSpec-m", "Arm-band_est"],
    )
    def test_fractional_count_of_a_recipe_or_arm_rejected(self, field, call):
        # a d of 16.5 used to draw a 17-dimensional covariance
        with pytest.raises(InvalidArgumentError, match=f"^{field} takes integers only, got (16|2)\\.5$"):
            call()

    def test_n_cap_too_large_for_a_sample_block_rejected(self):
        # the cap is the largest n experiment 4's search may draw, sized as an n-grid value is
        with pytest.raises(InvalidArgumentError, match=rf"^n_cap too large for an \(n, 512\) sample block, got {2**62}$"):
            ExperimentConfig(4, d_grid=(512,), n_cap=2**62)
        assert ExperimentConfig(4, d_grid=(512,), n_cap=2**50).n_cap == 2**50

    @pytest.mark.parametrize("n", [2**62, 10**400], ids=["2**62", "10**400"])
    def test_n_too_large_for_a_sample_block_rejected(self, n):
        # numpy sizes blocks of at most 2**63 - 1 bytes: an (n, 16) float64 block fits at n = 2**55, not at 2**62
        with pytest.raises(InvalidArgumentError, match=r"^n grid value too large for an \(n, 16\) sample block"):
            ExperimentConfig(1, n_grid=(6, n))
        assert ExperimentConfig(1, n_grid=(6, 2**55)).n_grid == (6, 2**55)

    @pytest.mark.parametrize("seed", [2**64, 10**400])
    def test_seed_past_64_bits_accepted(self, seed):
        assert ExperimentConfig(1, seed=seed).seed == seed

    def test_experiment_range(self):
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(6)

    def test_unknown_variant_rejected(self):
        want = r"variants must be a non-empty subset of \('fullrank', 'rank10'\), got \('x',\)"
        with pytest.raises(InvalidArgumentError, match=want):
            ExperimentConfig(4, variants=("x",))

    def test_defaults_match_documented_setups(self):
        cfg1 = ExperimentConfig(1)
        assert cfg1.d == 16 and cfg1.deltas == (5.0,) and cfg1.alphas == (0.5,)
        cfg2 = ExperimentConfig(2)
        assert cfg2.deltas == (2.0, 5.0) and cfg2.alphas == (0.5, 1.0)
        assert cfg2.n_grid == (100, 316, 1000, 3162, 10000)
        cfg3 = ExperimentConfig(3)
        assert cfg3.n_grid == (1000,) and cfg3.alphas == (0.5, 0.75, 1.0)
        cfg4 = ExperimentConfig(4)
        assert cfg4.d_grid == (16, 32, 64, 128, 256, 512) and cfg4.eps == 0.1
        cfg5 = ExperimentConfig(5)
        assert cfg5.bandwidth == 5 and cfg5.d_grid == (32, 64, 128)


# small configurations of each experiment, as ExperimentConfig overrides
SMALL_CONFIGS = {
    1: dict(trials=2, n_grid=(50, 100)),
    2: dict(trials=2, n_grid=(50, 100, 200), deltas=(2.0,), alphas=(0.5, 1.0)),
    3: dict(trials=2, n_grid=(60,), deltas=(0.0, 2.0), alphas=(0.5, 1.0)),
    4: dict(trials=2, d_grid=(16,), alphas=(0.5, 1.0), eps=0.5, n_cap=1 << 12),
    5: dict(trials=3, d_grid=(32, 40)),
}

EXP1_TAGS = {
    "tildeT": (Dither.NONE, Correction.NONE),
    "hatT": (Dither.TRIANGULAR, Correction.TRIANGULAR_QUARTER),
    "dotT": (Dither.TRIANGULAR, Correction.NONE),
    "hatTu": (Dither.UNIFORM, Correction.UNIFORM_SIXTH),
    "hatTno": (Dither.NONE, Correction.NONE),
}


def simulate_args(cfg, row):
    """The simulate_estimate recipe and arm that produce one row of an experiment."""
    dither, corr = EXP1_TAGS[row.tag] if cfg.experiment == 1 else (Dither.TRIANGULAR, Correction.TRIANGULAR_QUARTER)
    post = {}
    if cfg.experiment == 4:
        spec = GenSpec(row.d, k=5 if row.tag == "rank10" else max(1, row.d // 2))
    elif cfg.experiment == 5:
        spec = GenSpec(row.d, m=cfg.bandwidth)
        if row.tag == "breveZeta":
            post["threshold_auto"] = THRESHOLD_AUTO
        elif row.tag == "breveM":
            post["band_est"] = cfg.bandwidth
    else:
        spec = GenSpec(row.d, k=8, normalize=True)
    return spec, plain_arm(row.d, row.alpha, row.delta, dither, corr, **post)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestRunExperiment:
    def small_exp1(self, tmp_path, seed=0):
        cfg = ExperimentConfig(
            1, seed=seed, out_dir=tmp_path, trials=2, n_grid=(50, 100)
        )
        return run_experiment(cfg)

    def test_exp1_outputs(self, tmp_path):
        out = self.small_exp1(tmp_path)
        trial_csv = tmp_path / "experiment1.csv"
        assert trial_csv in out.paths
        rows = read_rows(trial_csv)
        assert list(rows[0].keys()) == list(TRIAL_SCHEMA)
        # 5 estimator tags x 2 n-points x 2 trials
        assert len(rows) == 20
        keys = {(r["tag"], r["n"], r["trial"]) for r in rows}
        assert len(keys) == 20
        tags = {r["tag"] for r in rows}
        assert tags == {"tildeT", "hatT", "dotT", "hatTu", "hatTno"}
        for r in rows:
            if r["tag"] == "tildeT":
                assert float(r["delta"]) == 0.0
            else:
                assert float(r["delta"]) == 5.0
        script = (tmp_path / "experiment1_medians.gp").read_text()
        assert "logscale" in script

    def test_trial_csv_holds_the_rows_in_schema_order(self, tmp_path):
        out = self.small_exp1(tmp_path)
        with open(tmp_path / "experiment1.csv", newline="") as fh:
            header, *lines = csv.reader(fh)
        assert header == list(TRIAL_SCHEMA)
        assert len(lines) == len(out.rows) == 20
        for line, row in zip(lines, out.rows):
            seconds = line[TRIAL_SCHEMA.index("seconds")]
            # the wall time to six decimals, every other field as str() gives it
            assert re.fullmatch(r"\d+\.\d{6}", seconds) and abs(float(seconds) - row.seconds) <= 5e-7
            assert line == [seconds if name == "seconds" else str(getattr(row, name)) for name in TRIAL_SCHEMA]

    def test_exp1_deterministic_modulo_seconds(self, tmp_path):
        out_a = self.small_exp1(tmp_path / "a")
        out_b = self.small_exp1(tmp_path / "b")
        rows_a = read_rows(tmp_path / "a" / "experiment1.csv")
        rows_b = read_rows(tmp_path / "b" / "experiment1.csv")
        for ra, rb in zip(rows_a, rows_b):
            for field in TRIAL_SCHEMA:
                if field != "seconds":
                    assert ra[field] == rb[field]

    @pytest.mark.parametrize("experiment", [1, 2, 3, 4, 5])
    def test_rows_reproducible_in_isolation(self, tmp_path, monkeypatch, experiment):
        # every arm of a trial shares one truth, one sample draw and its
        # quantizer's observation, yet each row must equal a lone
        # simulate_estimate call, bit for bit, whether the dithering
        # quantizers of a draw share its planes (a huge bound) or each draws
        # its own from the kept state (bound 0): experiment 1 takes both
        for bound in (0, 1 << 62):
            monkeypatch.setattr(experiments, "_SHARED_PLANES", bound)
            cfg = ExperimentConfig(experiment, seed=9, out_dir=tmp_path / str(bound), **SMALL_CONFIGS[experiment])
            out = run_experiment(cfg)
            assert out.rows
            for row in out.rows:
                spec, arm = simulate_args(cfg, row)
                sim = simulate_estimate(spec, row.n, row.seed, arm)
                assert sim.rel_error == row.rel_error, (bound, row)

    def test_one_sample_draw_per_n_trial_and_ruler(self, tmp_path, monkeypatch):
        # every arm on a ruler shares that ruler's draw, made on its columns only
        calls = []

        def counting(t, n, rng, indices):
            calls.append((n, len(indices)))
            return sample_gaussian(t, n, rng, indices)

        monkeypatch.setattr(experiments, "sample_gaussian", counting)
        cfg = ExperimentConfig(
            1, seed=0, out_dir=tmp_path, trials=2, n_grid=(50, 100), alphas=(0.5, 1.0)
        )
        out = run_experiment(cfg)
        assert len({r.tag for r in out.rows}) == 5
        assert len(out.rows) == 2 * 2 * 5 * 2  # trials x n x tags x rulers
        sparse = cfg.ruler(16, 0.5).size
        assert sparse < 16
        assert sorted(calls) == sorted([(n, size) for n in (50, 100) for size in (sparse, 16)] * 2)

    def test_one_plane_draw_per_n_trial_and_dithering_ruler(self, tmp_path, monkeypatch):
        # the dithering quantizers of a ruler (triangular and uniform) share
        # one draw of dither planes, as many as the most any reads (two:
        # triangular), when the planes are within the bound; above it each
        # draws its own planes from the stream one at a time and no planes
        # array is drawn.  A ruler whose quantizers are all undithered draws
        # none, and a lone quantizer draws its planes one at a time
        draws = []

        class Counting(np.random.Generator):
            def random(self, *args, **kwargs):
                out = super().random(*args, **kwargs)
                draws.append(out.shape)
                return out

            def uniform(self, *args, **kwargs):
                out = super().uniform(*args, **kwargs)
                draws.append(out.shape)
                return out

        stream = experiments.observation_rng
        monkeypatch.setattr(experiments, "observation_rng", lambda seed, n: Counting(stream(seed, n).bit_generator))
        common = dict(seed=0, trials=2, n_grid=(50, 100), alphas=(0.5, 1.0))
        cfg = ExperimentConfig(1, out_dir=tmp_path / "dithered", **common)
        run_experiment(cfg)
        sparse = cfg.ruler(16, 0.5).size
        assert sorted(draws) == sorted([(2, n, size) for n in (50, 100) for size in (sparse, 16)] * 2)

        draws.clear()
        out = run_experiment(ExperimentConfig(1, out_dir=tmp_path / "undithered", deltas=(0.0,), **common))
        assert {r.delta for r in out.rows} == {0.0}
        assert draws == []

        experiments.simulate_estimate(GenSpec(16, k=2), 50, 0, plain_arm(16, 0.5, 2.0))
        assert draws == [(50, sparse), (50, sparse)]

        # a bound between the planes of n = 50 and n = 100 on the full ruler:
        # above it the triangular quantizer draws two (n, |R|) planes (one
        # row block each at this size) and the uniform one a third
        draws.clear()
        monkeypatch.setattr(experiments, "_SHARED_PLANES", 2 * 50 * 16)
        run_experiment(ExperimentConfig(1, out_dir=tmp_path / "bounded", **common))
        shared = [(2, 50, 16)] + [(2, n, sparse) for n in (50, 100)]
        assert sorted(draws) == sorted(shared * 2 + [(100, 16)] * 3 * 2)

    @pytest.mark.parametrize(
        "experiment, overrides, per_draw",
        [
            # five arms on four quantizers: hatT and dotT share theirs
            (1, dict(trials=2, n_grid=(50, 100), alphas=(0.5, 1.0)), 4),
            # three arms, thresholded and banded, on one quantizer
            (5, SMALL_CONFIGS[5], 1),
        ],
    )
    def test_one_observation_per_quantizer_of_a_draw(self, tmp_path, monkeypatch, experiment, overrides, per_draw):
        calls = []

        def counting(samples, ruler, cfg, rng):
            calls.append((len(samples), ruler, cfg))
            return observe(samples, ruler, cfg, rng)

        monkeypatch.setattr(experiments, "observe", counting)
        cfg = ExperimentConfig(experiment, seed=0, out_dir=tmp_path, **overrides)
        out = run_experiment(cfg)
        draws = {(r.d, r.n, r.trial, r.alpha) for r in out.rows}
        assert len(calls) == per_draw * len(draws)
        assert len(set(calls)) == per_draw * len({(n, ruler) for n, ruler, _ in calls})

    def test_a_large_draw_holds_the_samples_and_one_observation(self):
        # experiment 1's arms at n = 100000 on the sparse ruler (|R| = 7):
        # their planes are above the bound, so the draw holds no planes,
        # and each quantizer's rows are released before the next observes
        cfg = ExperimentConfig(1)
        arms = experiments._estimator_arms(cfg, 16)
        trial = experiments._Trial(5, cfg.spec(16))
        trial.draw(100, arms)  # the covariance and its factor, kept on the trial
        n, size = 100000, cfg.ruler(16, 0.5).size
        assert size == 7 and 2 * n * size > experiments._SHARED_PLANES
        tracemalloc.start()
        try:
            trial.draw(n, arms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = n * size * 8  # one (n, |R|) float64 array
        assert peak <= 2 * block + (1 << 20), peak / 2**20

    @pytest.mark.parametrize(
        "build, held",
        [
            # the factor and the phase it is computed from
            (lambda parts: toeplitz._modal_factor(parts["freqs"], parts["powers"], np.arange(512)), 512 * 3 * 256 * 8),
            # one (d, k) array of terms
            (lambda parts: toeplitz_from_modes(parts["freqs"], parts["powers"], 512), 512 * 256 * 8),
            # the distance matrix the ruler keeps
            (lambda parts: Ruler(512, np.arange(512)), 512 * 512 * 8),
            # the gram of the batch
            (lambda parts: quantized_estimate(parts["batch"], Correction.NONE), 512 * 512 * 8),
        ],
        ids=["modal_factor", "toeplitz_from_modes", "Ruler", "quantized_estimate"],
    )
    def test_experiment4_builders_at_d512_hold_no_other_d_by_d_array(self, build, held):
        # two experiment 4 searches at d = 512 build these at once, so their peaks add
        rng = np.random.default_rng(28)
        parts = {
            "freqs": rng.uniform(0.0, 1.0, 256),
            "powers": np.abs(rng.standard_normal(256)),
            "batch": SampleBatch(rng.standard_normal((20, 512)), full_ruler(512), 0.0),
        }
        tracemalloc.start()
        try:
            build(parts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= held + (1 << 18), peak / 2**20

    @staticmethod
    def exp4_factorizations(tmp_path, monkeypatch, **overrides):
        """An experiment 4 run and the kind and shape of every truth factor it built."""
        factorizations = []
        eigh, modal = np.linalg.eigh, toeplitz._modal_factor

        def counting_eigh(m):
            factorizations.append(("eigh", m.shape))
            return eigh(m)

        def counting_modal(*args):
            out = modal(*args)
            factorizations.append(("modal", out.shape))
            return out

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(toeplitz, "_modal_factor", counting_modal)
        cfg = ExperimentConfig(4, seed=2, out_dir=tmp_path, trials=3, **overrides)
        return cfg, run_experiment(cfg), factorizations

    def test_exp4_factors_each_truth_once(self, tmp_path, monkeypatch):
        # the search probes many n on each trial's one covariance; only the
        # first draw of a trial may factor it, and on the full ruler the
        # d // 2 modes of a full-rank truth give its exact d x d factor, no eigh
        _, out, factorizations = self.exp4_factorizations(
            tmp_path, monkeypatch, d_grid=(16,), alphas=(1.0,), eps=0.2, variants=("fullrank",)
        )
        probes = len(out.medians)
        assert probes > 3
        assert len(out.rows) == probes * 3
        assert factorizations == [("modal", (16, 16))] * 3

    def test_exp4_factors_each_truth_once_on_its_sparse_ruler(self, tmp_path, monkeypatch):
        # a sparse ruler with |R| >= 10 takes the |R| x 10 modal factor of a rank10 truth
        cfg, out, factorizations = self.exp4_factorizations(
            tmp_path, monkeypatch, d_grid=(64,), alphas=(0.5,), eps=0.3, variants=("rank10",)
        )
        size = cfg.ruler(64, 0.5).size
        assert 10 <= size < 64
        assert len(out.medians) > 3
        assert factorizations == [("modal", (size, 10))] * 3

    def test_exp4_full_rank_truth_factored_by_eigh_once_on_its_sparse_ruler(self, tmp_path, monkeypatch):
        # 2k = d > |R|: the modal factor would be wider than it is tall, so a
        # sparse-ruler search factors the |R| x |R| principal submatrix, once a trial
        cfg, out, factorizations = self.exp4_factorizations(
            tmp_path, monkeypatch, d_grid=(16,), alphas=(0.5,), eps=0.3, variants=("fullrank",)
        )
        size = cfg.ruler(16, 0.5).size
        assert size < 16
        assert len(out.medians) > 3
        assert factorizations == [("eigh", (size, size))] * 3

    def test_each_ruler_built_once_per_run(self, tmp_path, monkeypatch):
        built = []
        ruler_alpha = experiments.ruler_alpha

        def counting(d, alpha):
            built.append((d, alpha))
            return ruler_alpha(d, alpha)

        monkeypatch.setattr(experiments, "ruler_alpha", counting)
        cfg = ExperimentConfig(5, seed=3, out_dir=tmp_path, trials=1, d_grid=(8, 16), n_grid=(40,), alphas=(0.5,))
        out = run_experiment(cfg)
        assert sorted(built) == [(8, 0.5), (16, 0.5)]
        assert {row.d for row in out.rows} == {8, 16}

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        def failing(*args):
            raise OSError("disk full")

        cfg = ExperimentConfig(3, seed=1, out_dir=tmp_path / "out", trials=1, n_grid=(30,), deltas=(1.0,))
        monkeypatch.setattr(experiments, "emit_plot_script", failing)
        with pytest.raises(OSError):
            run_experiment(cfg)
        assert list(cfg.out_dir.iterdir()) == []
        monkeypatch.undo()
        out = run_experiment(cfg)
        assert sorted(cfg.out_dir.iterdir()) == sorted(out.paths)
        assert [p.name for p in out.paths] == ["experiment3.csv", "experiment3_medians.csv", "experiment3_medians.gp"]

    def test_exp3_linear_axes(self, tmp_path):
        cfg = ExperimentConfig(
            3,
            seed=1,
            out_dir=tmp_path,
            trials=2,
            n_grid=(60,),
            deltas=(0.0, 2.0),
            alphas=(0.5, 1.0),
        )
        out = run_experiment(cfg)
        script = (tmp_path / "experiment3_medians.gp").read_text()
        assert "logscale" not in script
        assert len(out.rows) == 2 * 2 * 2

    def test_exp4_summary(self, tmp_path):
        cfg = ExperimentConfig(
            4,
            seed=2,
            out_dir=tmp_path,
            trials=2,
            d_grid=(16,),
            alphas=(1.0,),
            eps=0.5,
            n_cap=1 << 12,
        )
        out = run_experiment(cfg)
        assert len(out.summary) == 2  # fullrank and rank10
        for rec in out.summary:
            assert rec["total"] == rec["n_star"] * rec["esc"]
            assert rec["esc"] == 16
        summary_rows = read_rows(tmp_path / "experiment4_summary.csv")
        assert len(summary_rows) == 2

    def test_exp4_search_stops_at_n_cap(self, tmp_path):
        cfg = ExperimentConfig(4, seed=1, out_dir=tmp_path, trials=2, d_grid=(16,), eps=0.9, n_cap=1)
        out = run_experiment(cfg)
        assert len(out.summary) == 4
        assert all(rec["n_star"] <= 1 for rec in out.summary)
        assert all(rec["n"] <= 1 for rec in out.medians)

    @pytest.mark.parametrize(
        "cap, probes, result", [(1, [1], (1, True)), (2, [1, 2], (2, True)), (3, [1, 2, 3], (3, True))]
    )
    def test_bisect_probes_no_n_above_cap(self, cap, probes, result):
        seen = []

        def never_met(n):
            seen.append(n)
            return 1.0

        assert experiments._Runner._bisect(never_met, 0.5, cap) == result
        assert seen == probes

    @pytest.mark.parametrize("cap, probes, result", [(24, [1, 2, 4, 8, 16, 24, 20, 18, 19], (19, False)),
                                                     (20, [1, 2, 4, 8, 16, 20, 18, 19], (19, False)),
                                                     (18, [1, 2, 4, 8, 16, 18], (18, True))])
    def test_bisect_probes_a_cap_that_is_not_a_power_of_two(self, cap, probes, result):
        # n = 19 is the first n that meets eps; the doubling passes the cap at 32
        seen = []

        def first_met_at_19(n):
            seen.append(n)
            return 0.4 if n >= 19 else 0.6

        assert experiments._Runner._bisect(first_met_at_19, 0.5, cap) == result
        assert seen == probes

    @pytest.mark.parametrize("cap", [1 << j for j in range(18)])
    def test_bisect_probes_unchanged_at_power_of_two_caps(self, cap):
        # the search before non-power-of-two caps were probed, for reference
        def doubling_only(probe, eps, cap):
            if probe(1) <= eps:
                return 1, False
            lo, hi = 1, 2
            while hi <= cap and probe(hi) > eps:
                lo, hi = hi, hi * 2
            if hi > cap:
                return cap, True
            while hi - lo > max(1, lo // 20):
                mid = (lo + hi) // 2
                if probe(mid) <= eps:
                    hi = mid
                else:
                    lo = mid
            return hi, False

        for first_met in (1, 2, 3, 19, 100, 1000, 4096, 5000, 70000, 1 << 17, (1 << 17) + 1):
            seen = {"old": [], "new": []}

            def probe(n, who):
                seen[who].append(n)
                return 0.4 if n >= first_met else 0.6

            old = doubling_only(lambda n: probe(n, "old"), 0.5, cap)
            new = experiments._Runner._bisect(lambda n: probe(n, "new"), 0.5, cap)
            assert (new, seen["new"]) == (old, seen["old"]), first_met

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 1 << 18), st.integers(1, 1 << 19))
    @example(24, 19)
    @example(18, 19)
    @example(1 << 17, (1 << 17) + 1)
    def test_bisect_probes_as_when_the_doubling_could_pass_the_cap(self, cap, first_met):
        seen = {"old": [], "new": []}

        def probe(n, who):
            seen[who].append(n)
            return 0.4 if n >= first_met else 0.6

        old = bisect_past_cap(lambda n: probe(n, "old"), 0.5, cap)
        new = experiments._Runner._bisect(lambda n: probe(n, "new"), 0.5, cap)
        assert (new, seen["new"]) == (old, seen["old"])
        # experiment 4's search runs a probe's trials without asking whether it ran them before
        assert len(set(seen["new"])) == len(seen["new"])

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 1 << 18), st.floats(0.0, 1.0), st.randoms(use_true_random=False))
    def test_bisect_never_probes_an_n_twice_whatever_the_outcomes(self, cap, eps, random):
        # outcomes need not fall with n: each probe meets eps by chance
        seen = []

        def probe(n):
            seen.append(n)
            return random.random()

        experiments._Runner._bisect(probe, eps, cap)
        assert len(set(seen)) == len(seen), seen

    def test_exp4_search_below_a_cap_that_is_not_a_power_of_two(self, tmp_path):
        # a cap of 24 used to end the search at n = 16 with every cell capped
        cfg = ExperimentConfig(4, seed=1, out_dir=tmp_path, trials=3, d_grid=(16,), eps=0.35, n_cap=24)
        out = run_experiment(cfg)
        found = {(rec["tag"], rec["alpha"]): (rec["n_star"], rec["capped"]) for rec in out.summary}
        assert found[("rank10", 0.5)] == (23, 0)
        assert all(n_star <= 24 for n_star, _ in found.values())
        assert 24 in {rec["n"] for rec in out.medians}

    def test_exp5_summary_fractions(self, tmp_path):
        cfg = ExperimentConfig(5, seed=3, out_dir=tmp_path, trials=4, d_grid=(32,))
        out = run_experiment(cfg)
        assert {r.tag for r in out.rows} == {"hatT", "breveZeta", "breveM"}
        rec = out.summary[0]
        assert 0.0 <= rec["tail_zero_fraction"] <= 1.0
        assert 0.0 <= rec["nonzero_survival_fraction"] <= 1.0
        assert rec["median_zeta"] > 0

    def test_exp1_multi_delta_keeps_keys_unique(self, tmp_path):
        cfg = ExperimentConfig(
            1, seed=8, out_dir=tmp_path, trials=2, n_grid=(50,),
            deltas=(2.0, 5.0),
        )
        out = run_experiment(cfg)
        keys = [r.key() for r in out.rows]
        assert len(keys) == len(set(keys))
        # raw baseline appears for one delta only, the others for both
        assert sum(r.tag == "tildeT" for r in out.rows) == 2
        assert sum(r.tag == "hatT" for r in out.rows) == 4

    def test_exp2_slope_records(self, tmp_path):
        cfg = ExperimentConfig(
            2,
            seed=4,
            out_dir=tmp_path,
            trials=2,
            n_grid=(50, 100, 200),
            deltas=(2.0,),
            alphas=(1.0,),
        )
        out = run_experiment(cfg)
        assert len(out.summary) == 1
        assert {"slope", "intercept", "r2"} <= set(out.summary[0])
        slopes = read_rows(tmp_path / "experiment2_slopes.csv")
        assert len(slopes) == 1


needs_openblas = pytest.mark.skipif(openblas_threads() is None, reason="numpy's BLAS exposes no OpenBLAS thread count")

# a d=512 experiment 4 run: at the parent of the BLAS pin, its factor, and so
# its rows, depended on OpenBLAS's thread count
EXP4_D512 = dict(seed=123, trials=2, d_grid=(512,), alphas=(1.0,), variants=("rank10",), eps=0.45)


class TestWorkers:
    @staticmethod
    def run(tmp_path, monkeypatch, workers, **fields):
        """Experiment 4 with ``fields`` on ``workers`` pool threads, and its progress lines."""
        monkeypatch.setattr(experiments, "_CPUS", workers)
        notes = []
        cfg = ExperimentConfig(4, out_dir=tmp_path / f"workers{workers}", **fields)
        return run_experiment(cfg, progress=notes.append), notes

    @staticmethod
    def series_runner(monkeypatch, workers, dims, search):
        """An experiment 4 runner on ``workers`` pool threads whose search of an arm is ``search(vi, d)``.

        Its arms are both variants at alpha 1 and each of ``dims``: the arm
        of variant index ``vi`` at ``d`` is the ``vi * len(dims) + dims.index(d)``-th.
        """
        monkeypatch.setattr(experiments, "_CPUS", workers)
        runner = experiments._Runner(ExperimentConfig(4, d_grid=tuple(dims), alphas=(1.0,)), None)
        monkeypatch.setattr(runner, "search", lambda arm: search(experiments._VARIANTS.index(arm.tag), arm.ruler.d))
        return runner

    @needs_openblas
    def test_exp4_d512_rows_same_at_one_and_two_threads(self, tmp_path, monkeypatch):
        one, _ = self.run(tmp_path, monkeypatch, 1, **EXP4_D512)
        two, _ = self.run(tmp_path, monkeypatch, 2, **EXP4_D512)
        assert [r._replace(seconds=0) for r in one.rows] == [r._replace(seconds=0) for r in two.rows]
        assert one.medians == two.medians and one.summary == two.summary

    @needs_openblas
    def test_simulate_estimate_reproduces_the_d512_rows_of_two_workers(self, tmp_path, monkeypatch):
        out, _ = self.run(tmp_path, monkeypatch, 2, **EXP4_D512)
        assert len(out.rows) > 2 and {row.d for row in out.rows} == {512}
        for row in out.rows:
            spec, arm = simulate_args(out.config, row)
            assert simulate_estimate(spec, row.n, row.seed, arm).rel_error == row.rel_error, row

    def test_across_workers_yields_in_order_from_more_than_one_thread(self, monkeypatch):
        # 200 searches on more workers than cores, switching threads as often
        # as the interpreter allows, finish out of order
        dims = range(16, 116)
        ran_in = {}

        def search(vi, d):
            ran_in[vi, d] = threading.get_ident()
            time.sleep(0.001 * (d % 3))
            return {}, d + 1000 * vi, False

        runner = self.series_runner(monkeypatch, 4, dims, search)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner.run_total_complexity()
        finally:
            sys.setswitchinterval(interval)
        series = [(vi, d) for vi in (0, 1) for d in dims]
        assert [rec["n_star"] for rec in runner.out.summary] == [d + 1000 * vi for vi, d in series]
        assert sorted(ran_in) == series
        assert len(set(ran_in.values())) > 1

    def test_across_workers_starts_nothing_after_a_failure(self, monkeypatch):
        # neither after a failed search, the third of 50, nor after a failure
        # in the calling thread as it records the first
        started = []

        def failing_at_the_third(vi, d):
            started.append((vi, d))
            if (vi, d) == (0, 18):
                raise RuntimeError("series 2")
            time.sleep(0.01)
            return {}, 1, False

        runner = self.series_runner(monkeypatch, 2, range(16, 41), failing_at_the_third)
        with pytest.raises(RuntimeError, match="series 2"):
            runner.run_total_complexity()
        assert len(started) < 10

        def failing_note(msg):
            raise RuntimeError("progress")

        started.clear()
        runner = self.series_runner(monkeypatch, 2, range(16, 41), failing_at_the_third)
        runner.note = failing_note
        with pytest.raises(RuntimeError, match="progress"):
            runner.run_total_complexity()
        assert len(started) < 10

    def test_a_search_keeps_no_covariance(self, monkeypatch):
        # each probe's outcomes outlive the search; its trials' covariances,
        # with their factors and norms, must not
        truths = []
        draw_truth = experiments.draw_truth

        def recording(spec, seed):
            truth = draw_truth(spec, seed)
            truths.append(weakref.ref(truth))
            return truth

        monkeypatch.setattr(experiments, "draw_truth", recording)
        cfg = ExperimentConfig(4, seed=5, trials=3, d_grid=(32,), alphas=(0.5,), eps=0.3, n_cap=1 << 10)
        arm = Arm("rank10", 0.5, cfg.ruler(32, 0.5), QuantizerConfig(cfg.deltas[0], Dither.TRIANGULAR))
        probes, n_star, _ = experiments._Runner(cfg, None).search(arm)
        gc.collect()
        assert len(truths) == 3 and all(ref() is None for ref in truths)
        assert len(probes) > 1 and n_star in probes
        assert all(len(outcomes) == 3 for outcomes in probes.values())

    @pytest.mark.parametrize("experiment", [1, 2, 3, 5])
    def test_grid_experiment_runs_every_trial_in_the_calling_thread(self, tmp_path, monkeypatch, experiment):
        ran_in = set()
        draw = experiments._Trial.draw

        def recording(trial, n, arms):
            ran_in.add(threading.get_ident())
            return draw(trial, n, arms)

        monkeypatch.setattr(experiments._Trial, "draw", recording)
        run_experiment(ExperimentConfig(experiment, out_dir=tmp_path, **SMALL_CONFIGS[experiment]))
        assert ran_in == {threading.get_ident()}

    def test_concurrent_searches_record_in_series_order(self, tmp_path, monkeypatch):
        # searches finish in any order over three workers, yet rows, medians,
        # summary records and progress lines come out as with one worker
        fields = dict(seed=5, trials=2, d_grid=(16, 32), eps=0.3, n_cap=1 << 12)
        one, one_notes = self.run(tmp_path, monkeypatch, 1, **fields)
        workers: dict[int, set[int]] = {}
        draw = experiments._Trial.draw

        def recording(trial, n, arms):
            workers.setdefault(trial.seed, set()).add(threading.get_ident())
            return draw(trial, n, arms)

        monkeypatch.setattr(experiments._Trial, "draw", recording)
        three, three_notes = self.run(tmp_path, monkeypatch, 3, **fields)
        # a search runs every trial of every probe in one worker
        by_series: dict[tuple, set[int]] = {}
        for r in three.rows:
            by_series.setdefault((r.tag, r.alpha, r.d), set()).update(workers[r.seed])
        assert len(by_series) == 8 and all(len(idents) == 1 for idents in by_series.values())
        assert len(one.summary) == 8
        assert three_notes == one_notes
        assert three.summary == one.summary
        assert three.medians == one.medians
        assert [r._replace(seconds=0) for r in three.rows] == [r._replace(seconds=0) for r in one.rows]


class TestWriteDicts:
    # every CSV table, CLI and run file alike, goes through _write_dicts, so these are its output rules
    @pytest.mark.parametrize(
        "value",
        [0.1, 1 / 3, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 123456789.0, math.inf, -math.inf, math.nan],
        ids=repr,
    )
    def test_a_float_prints_as_its_shortest_repr(self, value):
        for v in (value, np.float64(value)):
            fh = io.StringIO()
            experiments._write_dicts(fh, [{"x": v}])
            assert fh.getvalue() == f"x\r\n{value!r}\r\n"

    def test_none_prints_as_an_empty_field_and_an_int_as_its_digits(self):
        fh = io.StringIO()
        experiments._write_dicts(fh, [{"k": None, "d": 16, "name": "a b"}, {"k": 4, "d": 10**20, "name": ""}])
        assert fh.getvalue() == "k,d,name\r\n,16,a b\r\n4,100000000000000000000,\r\n"


class TestEmitPlotScript:
    def test_script_contains_series(self, tmp_path):
        records = [
            {"experiment": 1, "d": 16, "alpha": 0.5, "delta": 5.0, "n": n, "tag": "hatT", "trials": 2,
             "median_rel_error": err}
            for n, err in ((100, 0.5), (1000, 0.2))
        ]
        script_path = emit_plot_script(records, tmp_path / "experiment1_medians.csv")
        assert script_path == tmp_path / "experiment1_medians.gp"
        text = script_path.read_text()
        assert "plot" in text and "hatT" in text and "logscale" in text

    def test_no_records_rejected(self, tmp_path):
        with pytest.raises(InvalidArgumentError, match="^no records to plot$"):
            emit_plot_script([], tmp_path / "experiment1_medians.csv")
        assert list(tmp_path.iterdir()) == []

    def test_series_sort_on_csv_text(self, tmp_path):
        # lines are ordered by the CSV text of their values, so delta=10.0 comes before delta=2.0
        cfg = ExperimentConfig(
            2, seed=0, out_dir=tmp_path, trials=1, n_grid=(50, 100, 200), deltas=(2.0, 10.0), alphas=(1.0,),
        )
        run_experiment(cfg)
        text = (tmp_path / "experiment2_medians.gp").read_text()
        assert re.findall(r'title "([^"]*)"', text) == [
            "tag=hatT alpha=1.0 delta=10.0", "tag=hatT alpha=1.0 delta=2.0"
        ]
