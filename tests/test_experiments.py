import csv

import numpy as np
import pytest

from toepquant import (
    Correction,
    Dither,
    GenSpec,
    default_config,
    emit_plot_script,
    fit_loglog_slope,
    run_experiment,
    simulate_estimate,
    total_complexity,
)
from toepquant.exceptions import DomainError, EmptyInputError, InvalidArgumentError
from toepquant import experiments, sample_gaussian
from toepquant.experiments import TRIAL_SCHEMA, ExperimentConfig


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
        with pytest.raises(DomainError):
            fit_loglog_slope([(10, 1.0), (100, 0.5)])

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            fit_loglog_slope([(10, 1.0), (100, 0.0), (1000, 0.1)])


class TestTotalComplexity:
    def test_values(self):
        assert total_complexity(100, 7) == 700
        assert total_complexity(100, 16) == 1600

    def test_range(self):
        with pytest.raises(InvalidArgumentError):
            total_complexity(0, 7)


class TestSimulateEstimate:
    def test_bit_reproducible(self):
        kwargs = dict(
            alpha=0.5,
            delta=2.0,
            dither=Dither.TRIANGULAR,
            correction=Correction.TRIANGULAR_QUARTER,
            normalize=True,
        )
        a = simulate_estimate(GenSpec(16, k=4), 200, 7, **kwargs)
        b = simulate_estimate(GenSpec(16, k=4), 200, 7, **kwargs)
        assert a.rel_error == b.rel_error
        np.testing.assert_array_equal(a.estimate.a_hat, b.estimate.a_hat)

    def test_matrix_pinned_by_seed_across_n(self):
        a = simulate_estimate(GenSpec(8, k=2), 50, 3)
        b = simulate_estimate(GenSpec(8, k=2), 200, 3)
        np.testing.assert_array_equal(a.truth.a, b.truth.a)

    def test_normalize_unit_diagonal(self):
        sim = simulate_estimate(GenSpec(8, k=2), 50, 3, normalize=True)
        assert sim.truth.a[0] == pytest.approx(1.0)

    def test_threshold_auto_records_zeta(self):
        sim = simulate_estimate(
            GenSpec(16, m=3),
            100,
            5,
            alpha=0.5,
            delta=1.0,
            correction=Correction.TRIANGULAR_QUARTER,
            threshold_auto=(0.06, 2.0),
        )
        assert sim.zeta is not None and sim.zeta > 0

    def test_recipe_needs_exactly_one_kind(self):
        for kinds in ({}, {"k": 2, "m": 3}):
            with pytest.raises(InvalidArgumentError, match="exactly one"):
                simulate_estimate(GenSpec(8, **kinds), 10, 0)


class TestConfig:
    def test_n_grid_must_increase(self):
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(experiment=1, n_grid=(100, 100))

    def test_trials_positive(self):
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(experiment=1, trials=0)

    def test_unread_field_rejected(self):
        # fields the CLI never sets are checked the same way
        with pytest.raises(InvalidArgumentError, match="does not use num_freqs"):
            default_config(5, num_freqs=3)
        with pytest.raises(InvalidArgumentError, match="does not use variants"):
            default_config(1, variants=("rank10",))

    def test_experiment_range(self):
        with pytest.raises(InvalidArgumentError):
            default_config(6)

    def test_defaults_match_documented_setups(self):
        cfg1 = default_config(1)
        assert cfg1.d == 16 and cfg1.deltas == (5.0,) and cfg1.alphas == (0.5,)
        cfg2 = default_config(2)
        assert cfg2.deltas == (2.0, 5.0) and cfg2.alphas == (0.5, 1.0)
        assert cfg2.n_grid == (100, 316, 1000, 3162, 10000)
        cfg3 = default_config(3)
        assert cfg3.n_grid == (1000,) and cfg3.alphas == (0.5, 0.75, 1.0)
        cfg4 = default_config(4)
        assert cfg4.d_grid == (16, 32, 64, 128, 256, 512) and cfg4.eps == 0.1
        cfg5 = default_config(5)
        assert cfg5.bandwidth == 5 and cfg5.d_grid == (32, 64, 128)


# small configurations of each experiment, as default_config overrides
SMALL_CONFIGS = {
    1: dict(trials=2, n_grid=(50, 100), num_freqs=2),
    2: dict(trials=2, n_grid=(50, 100, 200), deltas=(2.0,), alphas=(0.5, 1.0), num_freqs=2),
    3: dict(trials=2, n_grid=(60,), deltas=(0.0, 2.0), alphas=(0.5, 1.0), num_freqs=2),
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
    """The simulate_estimate recipe and settings that produce one row of an experiment."""
    dither, corr = EXP1_TAGS[row.tag] if cfg.experiment == 1 else (Dither.TRIANGULAR, Correction.TRIANGULAR_QUARTER)
    kwargs = dict(alpha=row.alpha, delta=row.delta, dither=dither, correction=corr, normalize=cfg.normalize)
    if cfg.experiment == 4:
        spec = GenSpec(row.d, k=cfg.rank_freqs if row.tag == "rank10" else max(1, row.d // 2))
    elif cfg.experiment == 5:
        spec = GenSpec(row.d, m=cfg.bandwidth)
        if row.tag == "breveZeta":
            kwargs["threshold_auto"] = (cfg.thresh_c, cfg.thresh_p)
        elif row.tag == "breveM":
            kwargs["band_est"] = cfg.bandwidth
    else:
        spec = GenSpec(row.d, k=cfg.num_freqs)
    return spec, kwargs


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestRunExperiment:
    def small_exp1(self, tmp_path, seed=0):
        cfg = default_config(
            1, seed=seed, out_dir=tmp_path, trials=2, n_grid=(50, 100), num_freqs=2
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
    def test_rows_reproducible_in_isolation(self, tmp_path, experiment):
        # every arm of a trial shares one truth and one sample draw, yet each
        # row must equal a lone simulate_estimate call, bit for bit
        cfg = default_config(experiment, seed=9, out_dir=tmp_path, **SMALL_CONFIGS[experiment])
        out = run_experiment(cfg)
        assert out.rows
        for row in out.rows:
            spec, kwargs = simulate_args(cfg, row)
            sim = simulate_estimate(spec, row.n, row.seed, **kwargs)
            assert sim.rel_error == row.rel_error, row

    def test_one_sample_draw_per_n_and_trial(self, tmp_path, monkeypatch):
        calls = []

        def counting(t, n, rng):
            calls.append(n)
            return sample_gaussian(t, n, rng)

        monkeypatch.setattr(experiments, "sample_gaussian", counting)
        out = self.small_exp1(tmp_path)
        assert len({r.tag for r in out.rows}) == 5
        assert sorted(calls) == [50, 50, 100, 100]

    def test_exp4_factors_each_truth_once(self, tmp_path, monkeypatch):
        # the search probes many n on each trial's one covariance; only the
        # first draw of a trial may factor it
        factorizations = []
        eigh = np.linalg.eigh

        def counting(m):
            factorizations.append(m.shape)
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        cfg = default_config(
            4, seed=2, out_dir=tmp_path, trials=3, d_grid=(16,), alphas=(1.0,), eps=0.2, variants=("fullrank",)
        )
        out = run_experiment(cfg)
        probes = len(out.medians)
        assert probes > 3
        assert len(out.rows) == probes * 3
        assert factorizations == [(16, 16)] * 3

    def test_each_ruler_built_once_per_run(self, tmp_path, monkeypatch):
        built = []
        ruler_alpha = experiments.ruler_alpha

        def counting(d, alpha):
            built.append((d, alpha))
            return ruler_alpha(d, alpha)

        monkeypatch.setattr(experiments, "ruler_alpha", counting)
        cfg = default_config(5, seed=3, out_dir=tmp_path, trials=1, d_grid=(8, 16), n_grid=(40,), alphas=(0.5,))
        out = run_experiment(cfg)
        assert sorted(built) == [(8, 0.5), (16, 0.5)]
        assert {row.d for row in out.rows} == {8, 16}

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        def failing(csv_path):
            raise OSError("disk full")

        cfg = default_config(3, seed=1, out_dir=tmp_path / "out", trials=1, n_grid=(30,), deltas=(1.0,), num_freqs=2)
        monkeypatch.setattr(experiments, "emit_plot_script", failing)
        with pytest.raises(OSError):
            run_experiment(cfg)
        assert list(cfg.out_dir.iterdir()) == []
        monkeypatch.undo()
        out = run_experiment(cfg)
        assert sorted(cfg.out_dir.iterdir()) == sorted(out.paths)
        assert [p.name for p in out.paths] == ["experiment3.csv", "experiment3_medians.csv", "experiment3_medians.gp"]

    def test_exp3_linear_axes(self, tmp_path):
        cfg = default_config(
            3,
            seed=1,
            out_dir=tmp_path,
            trials=2,
            n_grid=(60,),
            deltas=(0.0, 2.0),
            alphas=(0.5, 1.0),
            num_freqs=2,
        )
        out = run_experiment(cfg)
        script = (tmp_path / "experiment3_medians.gp").read_text()
        assert "logscale" not in script
        assert len(out.rows) == 2 * 2 * 2

    def test_exp4_summary(self, tmp_path):
        cfg = default_config(
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

    def test_exp5_summary_fractions(self, tmp_path):
        cfg = default_config(5, seed=3, out_dir=tmp_path, trials=4, d_grid=(32,))
        out = run_experiment(cfg)
        assert {r.tag for r in out.rows} == {"hatT", "breveZeta", "breveM"}
        rec = out.summary[0]
        assert 0.0 <= rec["tail_zero_fraction"] <= 1.0
        assert 0.0 <= rec["nonzero_survival_fraction"] <= 1.0
        assert rec["median_zeta"] > 0

    def test_exp1_multi_delta_keeps_keys_unique(self, tmp_path):
        cfg = default_config(
            1, seed=8, out_dir=tmp_path, trials=2, n_grid=(50,),
            deltas=(2.0, 5.0), num_freqs=2,
        )
        out = run_experiment(cfg)
        keys = [r.key() for r in out.rows]
        assert len(keys) == len(set(keys))
        # raw baseline appears for one delta only, the others for both
        assert sum(r.tag == "tildeT" for r in out.rows) == 2
        assert sum(r.tag == "hatT" for r in out.rows) == 4

    def test_threads_do_not_change_results(self, tmp_path):
        base = default_config(
            3, seed=6, out_dir=tmp_path / "t1", trials=3, n_grid=(80,),
            deltas=(1.0,), alphas=(0.5,), num_freqs=2, threads=1,
        )
        threaded = default_config(
            3, seed=6, out_dir=tmp_path / "t4", trials=3, n_grid=(80,),
            deltas=(1.0,), alphas=(0.5,), num_freqs=2, threads=4,
        )
        rows_a = run_experiment(base).rows
        rows_b = run_experiment(threaded).rows
        assert [(r.key(), r.rel_error, r.seed) for r in rows_a] == [
            (r.key(), r.rel_error, r.seed) for r in rows_b
        ]

    def test_exp2_slope_records(self, tmp_path):
        cfg = default_config(
            2,
            seed=4,
            out_dir=tmp_path,
            trials=2,
            n_grid=(50, 100, 200),
            deltas=(2.0,),
            alphas=(1.0,),
            num_freqs=2,
        )
        out = run_experiment(cfg)
        assert len(out.summary) == 1
        assert {"slope", "intercept", "r2"} <= set(out.summary[0])
        slopes = read_rows(tmp_path / "experiment2_slopes.csv")
        assert len(slopes) == 1


class TestEmitPlotScript:
    def test_missing_file(self, tmp_path):
        with pytest.raises(EmptyInputError):
            emit_plot_script(tmp_path / "nope.csv")

    def test_empty_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("experiment,d,n,tag,median_rel_error\n")
        with pytest.raises(EmptyInputError):
            emit_plot_script(path)

    def test_script_contains_series(self, tmp_path):
        path = tmp_path / "experiment1_medians.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["experiment", "d", "alpha", "delta", "n", "tag", "trials", "median_rel_error"])
            writer.writerow([1, 16, 0.5, 5.0, 100, "hatT", 2, 0.5])
            writer.writerow([1, 16, 0.5, 5.0, 1000, "hatT", 2, 0.2])
        script_path = emit_plot_script(path)
        text = script_path.read_text()
        assert "plot" in text and "hatT" in text and "logscale" in text
