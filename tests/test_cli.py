import csv
import io

import numpy as np
import pytest

from toepquant import (
    Correction,
    Dither,
    GenSpec,
    QuantizerConfig,
    default_config,
    full_ruler,
    observe,
    ruler_estimate,
    run_experiment,
    simulate_estimate,
)
from toepquant import experiments
from toepquant._seeding import observation_rng
from toepquant.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


class TestGen:
    def test_mixture_vector(self, capsys):
        code, out, _ = run_cli(capsys, "--seed", "7", "gen", "--d", "5", "--k", "2")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["s", "a"]
        assert len(rows) == 6

    def test_deterministic(self, capsys):
        _, out_a, _ = run_cli(capsys, "--seed", "7", "gen", "--d", "5", "--k", "2")
        _, out_b, _ = run_cli(capsys, "--seed", "7", "gen", "--d", "5", "--k", "2")
        assert out_a == out_b

    def test_banded(self, capsys):
        code, out, _ = run_cli(capsys, "--seed", "7", "gen", "--d", "6", "--m", "2")
        rows = parse_csv(out)[1:]
        assert code == 0
        assert all(float(v) == 0.0 for _, v in rows[2:])

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("TOEPQUANT_SEED", "55")
        _, out_env, _ = run_cli(capsys, "gen", "--d", "4", "--k", "1")
        _, out_flag, _ = run_cli(capsys, "--seed", "55", "gen", "--d", "4", "--k", "1")
        assert out_env == out_flag

    def test_invalid_k(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--d", "4", "--k", "9")
        assert code == 2
        assert "invalid" in err.lower()


class TestRuler:
    def test_reference_ruler(self, capsys):
        code, out, _ = run_cli(capsys, "ruler", "--d", "16", "--alpha", "0.5")
        assert code == 0
        rows = parse_csv(out)
        rec = dict(zip(rows[0], rows[1]))
        assert rec["indices_1based"] == "1 2 3 4 8 12 16"
        assert rec["size"] == "7"
        assert float(rec["phi"]) > 0

    def test_bad_alpha_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "ruler", "--d", "16", "--alpha", "0.3")
        assert code == 2


class TestEstimate:
    def test_simulate_matches_library(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "--seed",
            "11",
            "estimate",
            "--simulate",
            "--d",
            "8",
            "--n",
            "100",
            "--k",
            "2",
            "--ruler",
            "0.5",
            "--delta",
            "2.0",
            "--dither",
            "triangular",
            "--correction",
            "quarter",
        )
        assert code == 0
        rec = {k: v for k, v in parse_csv(out)[1:]}
        sim = simulate_estimate(
            GenSpec(8, k=2),
            100,
            11,
            alpha=0.5,
            delta=2.0,
            dither=Dither.TRIANGULAR,
            correction=Correction.TRIANGULAR_QUARTER,
        )
        assert float(rec["rel_error_op"]) == sim.rel_error
        np.testing.assert_array_equal(
            np.array([float(rec[f"a[{s}]"]) for s in range(8)]), sim.estimate.a_hat
        )

    def test_input_file(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.standard_normal((40, 4))
        path = tmp_path / "samples.csv"
        np.savetxt(path, samples, delimiter=",")
        code, out, _ = run_cli(
            capsys, "--seed", "5", "estimate", "--input", str(path), "--delta", "0", "--correction", "none", "--dither", "none"
        )
        assert code == 0
        rec = {k: v for k, v in parse_csv(out)[1:]}
        loaded = np.loadtxt(path, delimiter=",", ndmin=2)
        batch = observe(loaded, full_ruler(4), QuantizerConfig(0.0, Dither.NONE), observation_rng(5, 40))
        want = ruler_estimate(batch).a_hat
        got = np.array([float(rec[f"a[{s}]"]) for s in range(4)])
        np.testing.assert_allclose(got, want, rtol=0, atol=0)

    def test_missing_input_exit_code(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "estimate", "--input", str(tmp_path / "none.csv"))
        assert code == 2

    def test_non_finite_input_is_numeric_failure(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\nnan,3.0\n")
        code, _, err = run_cli(capsys, "estimate", "--input", str(path))
        assert code == 3
        assert "numeric" in err.lower()

    def test_simulate_rejects_two_recipes(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--simulate", "--k", "3", "--m", "2")
        assert code == 2
        assert "invalid configuration" in err

    def test_threshold_auto_rejected_for_input_files(self, capsys, tmp_path):
        path = tmp_path / "samples.csv"
        np.savetxt(path, np.zeros((3, 2)), delimiter=",")
        code, _, err = run_cli(
            capsys, "estimate", "--input", str(path), "--threshold-auto"
        )
        assert code == 2
        assert "threshold" in err

    @pytest.mark.parametrize(
        "option",
        [["--d", "2"], ["--n", "3"], ["--k", "1"], ["--m", "1"], ["--normalize"], ["--thresh-c", "0.1"], ["--thresh-p", "1"]],
        ids=lambda option: option[0],
    )
    def test_simulation_options_rejected_for_input_files(self, capsys, tmp_path, option):
        path = tmp_path / "samples.csv"
        np.savetxt(path, np.ones((3, 2)), delimiter=",")
        code, out, err = run_cli(capsys, "estimate", "--input", str(path), *option)
        assert code == 2
        assert f"{option[0]} only apply to --simulate" in err
        assert out == ""

    def test_explicit_index_ruler(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "samples.csv"
        np.savetxt(path, rng.standard_normal((30, 10)), delimiter=",")
        code, out, _ = run_cli(
            capsys,
            "estimate",
            "--input",
            str(path),
            "--ruler",
            "1,2,5,8,10",
            "--correction",
            "none",
        )
        assert code == 0
        rec = {k: v for k, v in parse_csv(out)[1:]}
        assert len([k for k in rec if k.startswith("a[")]) == 10

    @pytest.mark.parametrize("source", ["--input", "--simulate"])
    def test_ruler_index_errors_are_one_based(self, capsys, tmp_path, source):
        path = tmp_path / "samples.csv"
        np.savetxt(path, np.random.default_rng(2).standard_normal((20, 16)), delimiter=",")
        argv = ["--input", str(path)] if source == "--input" else ["--simulate", "--d", "16"]
        code, _, err = run_cli(capsys, "estimate", *argv, "--ruler", "1,2,5,8,17")
        assert code == 2
        assert "must lie in [1, 16], got [1, 17]" in err

    def test_experiment_row_reproducible_via_cli(self, capsys, tmp_path):
        cfg = default_config(
            3, seed=21, out_dir=tmp_path, trials=2, n_grid=(60,),
            deltas=(2.0,), alphas=(0.5,), num_freqs=2,
        )
        row = run_experiment(cfg).rows[0]
        capsys.readouterr()
        code, out, _ = run_cli(
            capsys,
            "--seed",
            str(row.seed),
            "estimate",
            "--simulate",
            "--d",
            str(row.d),
            "--n",
            str(row.n),
            "--k",
            str(cfg.num_freqs),
            "--ruler",
            str(row.alpha),
            "--delta",
            str(row.delta),
            "--dither",
            "triangular",
            "--correction",
            "quarter",
            "--normalize",
        )
        assert code == 0
        rec = {k: v for k, v in parse_csv(out)[1:]}
        assert float(rec["rel_error_op"]) == row.rel_error


class TestBounds:
    def test_single_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--d", "16", "--alpha", "0.5", "--delta", "2.0", "--eps", "0.1", "--prob-delta", "0.05"
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 2
        rec = dict(zip(rows[0], rows[1]))
        assert rec["ruler_size"] == "7"
        assert float(rec["script_l"]) >= 1.0

    def test_cartesian_lists(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--d", "16", "--alpha", "0.5,1.0", "--delta", "0,2"
        )
        assert code == 0
        assert len(parse_csv(out)) == 5

    @pytest.mark.parametrize("c", ["0", "-1"])
    def test_nonpositive_c_rejected(self, capsys, c):
        code, out, err = run_cli(capsys, "bounds", "--d", "16", f"--c={c}")
        assert code == 2
        assert "invalid configuration" in err
        assert out == ""


class TestExp:
    def test_tiny_experiment_three(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "--seed",
            "9",
            "--out",
            str(tmp_path),
            "--trials",
            "2",
            "exp",
            "--id",
            "3",
            "--n-grid",
            "50",
            "--deltas",
            "0,1",
            "--alphas",
            "1.0",
            "--quiet",
        )
        assert code == 0
        assert (tmp_path / "experiment3.csv").exists()
        assert (tmp_path / "experiment3_medians.csv").exists()
        assert str(tmp_path / "experiment3.csv") in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["exp", "--id", "3", "--n-grid", ""],
            ["--threads", "0", "exp", "--id", "5"],
            ["--threads", "-3", "exp", "--id", "5"],
            ["exp", "--id", "5", "--d-grid", ""],
            ["exp", "--id", "2", "--n-grid", "100,1000"],
            ["exp", "--id", "5", "--n-grid", "100,1000"],
            ["exp", "--id", "5", "--deltas", "0.5,1"],
            ["exp", "--id", "5", "--alphas", "0.5,1"],
            ["exp", "--id", "4", "--n-grid", "100"],
            ["exp", "--id", "4", "--deltas", "2,5"],
            ["exp", "--id", "3", "--n-grid", "100,1000"],
            ["exp", "--id", "1", "--d-grid", "16,32"],
            ["exp", "--id", "4", "--d", "32"],
            ["exp", "--id", "5", "--d", "32"],
            ["exp", "--id", "1", "--eps", "0.2"],
            ["exp", "--id", "5", "--eps", "0.2"],
            ["exp", "--id", "3", "--n-cap", "4096"],
            ["exp", "--id", "2", "--m", "4"],
            ["exp", "--id", "4", "--m", "4"],
            # a recipe or ruler that does not fit a later dimension
            ["--trials", "2", "exp", "--id", "5", "--d-grid", "32,4"],
            ["exp", "--id", "5", "--d-grid", "64,32", "--m", "40"],
            ["exp", "--id", "4", "--d-grid", "16,4"],
            ["exp", "--id", "4", "--d-grid", "16,1"],
            ["exp", "--id", "4", "--d-grid", "16", "--alphas", "0.5,2"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_unusable_config_rejected_before_any_trial(self, capsys, tmp_path, monkeypatch, argv):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiments, "sample_gaussian", no_trials)
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "--out", str(out_dir), *argv)
        assert code == 2
        assert "invalid configuration" in err
        assert not out_dir.exists()

    def test_invalid_id(self, capsys):
        # argparse exits the process with status 2 on bad choices
        with pytest.raises(SystemExit) as exc:
            main(["exp", "--id", "9"])
        assert exc.value.code == 2


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
