import argparse
import csv
import dataclasses
import gzip
import io
import os
import threading
import warnings

import numpy as np
import pytest

from toepquant import (
    Arm,
    Correction,
    Dither,
    GenSpec,
    STREAM_VERSION,
    QuantizerConfig,
    full_ruler,
    observe,
    ruler_alpha,
    ruler_estimate,
    run_experiment,
    simulate_estimate,
)
from toepquant import cli, experiments, rulers
from toepquant._blas import openblas_threads
from toepquant._seeding import observation_rng
from toepquant.exceptions import NumericError
from toepquant.cli import build_parser, main
from toepquant.experiments import ExperimentConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


def _sample_lines(n=20, d=16, seed=7):
    """CSV lines of ``n`` Gaussian samples of dimension ``d``; the sparse ruler at d = 16 reads columns 1-4, 8, 12, 16."""
    return [",".join(map(repr, row)) for row in np.random.default_rng(seed).standard_normal((n, d)).tolist()]


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
        arm = Arm("", 0.5, ruler_alpha(8, 0.5), QuantizerConfig(2.0, Dither.TRIANGULAR), Correction.TRIANGULAR_QUARTER)
        sim = simulate_estimate(GenSpec(8, k=2), 100, 11, arm)
        assert float(rec["rel_error_op"]) == sim.rel_error
        assert rec["seed"] == "11" and rec["stream_version"] == str(STREAM_VERSION)
        np.testing.assert_array_equal(
            np.array([float(rec[f"a[{s}]"]) for s in range(8)]), sim.estimate.a
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
        want = ruler_estimate(batch).a
        got = np.array([float(rec[f"a[{s}]"]) for s in range(4)])
        np.testing.assert_allclose(got, want, rtol=0, atol=0)
        assert list(rec)[-2:] == ["seed", "stream_version"]
        assert rec["stream_version"] == "2"

    def test_missing_input_exit_code(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "estimate", "--input", str(tmp_path / "none.csv"))
        assert code == 2

    @pytest.mark.parametrize("text", ["", "\n\n", "# no samples\n"], ids=["empty", "blank", "comment"])
    def test_input_without_samples_is_one_error_line(self, capsys, tmp_path, text):
        # numpy warns about such a file; the error line must be all that reaches stderr
        path = tmp_path / "none.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "estimate", "--input", str(path))
        assert code == 2
        assert err == f"invalid configuration: input file {path} contains no samples\n"
        assert out == ""

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
        [["--d", "2"], ["--n", "3"], ["--k", "1"], ["--m", "1"], ["--normalize"]],
        ids=lambda option: option[0],
    )
    def test_simulation_options_rejected_for_input_files(self, capsys, tmp_path, option):
        path = tmp_path / "samples.csv"
        np.savetxt(path, np.ones((3, 2)), delimiter=",")
        code, out, err = run_cli(capsys, "estimate", "--input", str(path), *option)
        assert code == 2
        assert f"{option[0]} only apply to --simulate" in err
        assert out == ""

    @pytest.mark.parametrize(
        "option",
        [
            ["--threshold", "nan"],
            ["--threshold", "inf"],
        ],
        ids=" ".join,
    )
    def test_non_finite_threshold_rejected(self, capsys, option):
        code, out, err = run_cli(capsys, "estimate", "--simulate", *option)
        assert code == 2
        assert "invalid configuration" in err
        assert out == ""

    def test_delta_whose_noise_power_overflows_rejected_before_the_trial(self, capsys, monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiments, "sample_gaussian", no_trials)
        code, out, err = run_cli(capsys, "estimate", "--simulate", "--delta", "1e200")
        assert code == 2
        assert "invalid configuration: delta^2" in err
        assert out == ""

    @pytest.mark.parametrize("delta", ["0", "1e-10"])
    def test_non_finite_estimate_is_numeric_failure(self, capsys, tmp_path, delta):
        # the entries are finite, but the square of 1e200 is not
        path = tmp_path / "big.csv"
        path.write_text("1e200,2\n3,4\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "estimate", "--input", str(path), "--delta", delta)
        assert code == 3
        assert err.startswith("numeric failure: ") and err.count("\n") == 1
        assert out == ""

    @pytest.mark.parametrize("delta", ["1e-310", "1e-308"])
    def test_delta_too_small_for_the_samples_rejected(self, capsys, delta):
        # delta^2 is finite (or zero), but the samples over delta are not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "--seed", "1", "estimate", "--simulate", "--delta", delta)
        assert code == 2
        assert f"invalid configuration: delta = {float(delta)} is too small" in err
        assert out == ""

    def test_one_dimension_takes_the_full_ruler(self, capsys, tmp_path):
        # a simulation of dimension 1 runs as an input of one column does
        path = tmp_path / "one.csv"
        np.savetxt(path, np.random.default_rng(3).standard_normal((20, 1)), delimiter=",")
        for source in (["--input", str(path)], ["--simulate", "--d", "1", "--k", "1"]):
            code, out, err = run_cli(capsys, "estimate", *source, "--ruler", "0.5")
            assert code == 0, err
            assert [key for key, _ in parse_csv(out)[1:] if key.startswith("a[")] == ["a[0]"]

    @pytest.mark.parametrize(
        "ruler", ["1.0", "0.5", "0.75", "0.3", "1.5", "x", "", "1,2", "1,", "1,99", "0,1", "1,2,5,8,10"]
    )
    def test_simulate_and_input_read_the_same_ruler_texts(self, capsys, tmp_path, ruler):
        path = tmp_path / "samples.csv"
        np.savetxt(path, np.random.default_rng(4).standard_normal((20, 10)), delimiter=",")
        codes = [
            run_cli(capsys, "estimate", *source, "--ruler", ruler)[0]
            for source in (["--input", str(path)], ["--simulate", "--d", "10", "--n", "20"])
        ]
        assert codes[0] == codes[1] and codes[0] in (0, 2)

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

    @pytest.mark.parametrize("source", ["--input", "--simulate"])
    def test_repeated_ruler_index_rejected(self, capsys, tmp_path, source):
        path = tmp_path / "samples.csv"
        np.savetxt(path, np.random.default_rng(5).standard_normal((20, 4)), delimiter=",")
        argv = ["--input", str(path)] if source == "--input" else ["--simulate", "--d", "4", "--k", "2"]
        code, out, err = run_cli(capsys, "estimate", *argv, "--ruler", "1,1,2,4")
        assert code == 2
        assert err == "invalid configuration: ruler indices must not repeat, got [1] more than once\n"
        assert out == ""
        # the order of the indices is free
        orders = [run_cli(capsys, "estimate", *argv, "--ruler", ruler) for ruler in ("4,2,1", "1,2,4")]
        assert orders[0][0] == 0 and orders[0] == orders[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--simulate", "--d", "100000", "--n", "1"],
            ["exp", "--id", "4", "--d-grid", "100000"],
        ],
        ids=" ".join,
    )
    def test_out_of_memory_is_invalid_configuration(self, capsys, tmp_path, monkeypatch, argv):
        # a ruler of 100000 indices would allocate its 74.5 GiB distance matrix here
        def no_memory(self):
            raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 100000) and data type int64")

        monkeypatch.setattr(rulers.Ruler, "__post_init__", no_memory)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("invalid configuration: out of memory: Unable to allocate") and err.count("\n") == 1
        assert out == ""

    @pytest.mark.parametrize("ruler", ["1.0", "0.5"])
    @pytest.mark.parametrize(
        "malformed, code",
        [
            ("a row wider than the first", 2),
            ("a row narrower than the first", 2),
            ("text in a ruler column", 2),
            ("a blank in a ruler column", 2),
            ("nan in a ruler column", 3),
        ],
    )
    def test_malformed_input_is_one_error_line(self, capsys, tmp_path, malformed, code, ruler):
        lines = _sample_lines()
        row = lines[3].split(",")
        if malformed == "a row wider than the first":
            row.append("1.0")
        elif malformed == "a row narrower than the first":
            row.pop(6)
        else:
            # column 8 is on both rulers at d = 16
            row[7] = {"text in a ruler column": "x", "a blank in a ruler column": "", "nan in a ruler column": "nan"}[malformed]
        lines[3] = ",".join(row)
        path = tmp_path / "samples.csv"
        path.write_text("\n".join(lines) + "\n")
        got, out, err = run_cli(capsys, "estimate", "--input", str(path), "--ruler", ruler)
        assert got == code
        assert err.startswith(("invalid configuration: ", "numeric failure: ")) and err.count("\n") == 1
        assert out == ""
        # a row of another width is named by its 1-based line, on every ruler
        width = {"a row wider than the first": 17, "a row narrower than the first": 15}.get(malformed)
        if width is not None:
            assert err.endswith(f"{path}: line 4 has {width} fields, the first row 16\n")

    def test_fields_off_the_ruler_are_not_converted(self, capsys, tmp_path):
        lines = _sample_lines()
        filled = tmp_path / "filled.csv"
        filled.write_text("\n".join(lines) + "\n")
        for i, (col, value) in enumerate([(4, ""), (5, "x"), (9, "n/a"), (13, " "), (14, "nan")]):
            row = lines[2 * i].split(",")
            row[col] = value
            lines[2 * i] = ",".join(row)
        holes = tmp_path / "holes.csv"
        holes.write_text("\n".join(lines) + "\n")
        argv = ["--seed", "4", "estimate", "--ruler", "0.5", "--delta", "2", "--correction", "quarter"]
        want = run_cli(capsys, *argv, "--input", str(filled))
        assert want[0] == 0
        assert run_cli(capsys, *argv, "--input", str(holes)) == want
        # on the full ruler every field is converted
        code, out, err = run_cli(capsys, "estimate", "--input", str(holes), "--ruler", "1.0")
        assert code == 2 and out == "" and err.count("\n") == 1

    def test_compressed_and_piped_input_read_as_a_plain_file(self, capsys, tmp_path):
        text = "\n".join(_sample_lines()) + "\n"
        plain = tmp_path / "samples.csv"
        plain.write_text(text)
        packed = tmp_path / "samples.csv.gz"
        packed.write_bytes(gzip.compress(text.encode()))
        fifo = tmp_path / "samples.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
        writer.start()
        argv = ["estimate", "--ruler", "0.5", "--delta", "2", "--correction", "quarter", "--input"]
        want = run_cli(capsys, *argv, str(plain))
        assert want[0] == 0
        assert run_cli(capsys, *argv, str(packed)) == want
        assert run_cli(capsys, *argv, str(fifo)) == want
        writer.join(timeout=10)
        assert not writer.is_alive()

    def test_experiment_row_reproducible_via_cli(self, capsys, tmp_path):
        cfg = ExperimentConfig(
            3, seed=21, out_dir=tmp_path, trials=2, n_grid=(60,),
            deltas=(2.0,), alphas=(0.5,),
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
            "8",
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

    @pytest.mark.parametrize("c", ["0", "-1", "nan", "inf"])
    def test_nonpositive_c_rejected(self, capsys, c):
        code, out, err = run_cli(capsys, "bounds", "--d", "16", f"--c={c}")
        assert code == 2
        assert "invalid configuration" in err
        assert out == ""


    def test_bandwidth_is_not_an_option(self, capsys):
        # it was only echoed into the report
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--d", "16", "--m", "3"])
        assert exc.value.code == 2
        code, out, _ = run_cli(capsys, "bounds", "--d", "16")
        assert code == 0 and "m" not in parse_csv(out)[0]

    def test_delta_whose_fourth_power_overflows(self, capsys):
        # delta^4 enters script_l and kappa: past about 1.16e77 it is no float
        code, out, err = run_cli(capsys, "bounds", "--d", "16", "--delta", "1,1e78")
        assert code == 2
        assert "delta^4" in err
        assert out == ""
        code, out, _ = run_cli(capsys, "bounds", "--d", "16", "--delta", "1e76")
        assert code == 0
        assert len(parse_csv(out)) == 2


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
            ["--threads", "0", "exp", "--id", "4", "--d-grid", "16"],
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
            # a search target or ceiling the bisection cannot use
            ["--trials", "1", "exp", "--id", "4", "--d-grid", "8", "--eps", "nan"],
            ["--trials", "1", "exp", "--id", "4", "--d-grid", "8", "--eps", "inf"],
            ["exp", "--id", "4", "--d-grid", "8", "--eps", "-1", "--n-cap", "64"],
            ["exp", "--id", "4", "--d-grid", "8", "--n-cap", "0"],
            # a repeated grid value would run, and write, every cell twice
            ["--seed", "1", "--trials", "2", "exp", "--id", "3", "--deltas", "1,1", "--alphas", "0.5"],
            ["--trials", "1", "exp", "--id", "4", "--d-grid", "16,16", "--eps", "0.5"],
            ["exp", "--id", "2", "--alphas", "0.5,1,0.5"],
            # a quantization level whose noise power delta^2 / 4 overflows
            ["--trials", "1", "exp", "--id", "3", "--deltas", "0,1e200"],
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

    @pytest.mark.parametrize("option", [["--trials", "5"], ["--threads", "3"], ["--out", "out"]], ids=lambda o: o[0])
    @pytest.mark.parametrize(
        "command",
        [
            ["gen", "--d", "4", "--k", "1"],
            ["ruler", "--d", "8", "--alpha", "0.5"],
            ["estimate", "--simulate"],
            ["bounds", "--d", "16"],
        ],
        ids=lambda c: c[0],
    )
    def test_exp_only_options_rejected_elsewhere(self, capsys, tmp_path, monkeypatch, option, command):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *option, *command)
        assert code == 2
        assert f"options only exp reads given to {command[0]}: {option[0]}" in err
        assert out == ""
        assert not (tmp_path / "out").exists()

    def test_options_parse_into_config_fields(self):
        # cmd_exp passes every parsed option not in _NOT_CONFIG to ExperimentConfig
        parser = build_parser()
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        actions = parser._actions + subparsers.choices["exp"]._actions
        dests = {a.dest for a in actions if a.option_strings and a.dest not in ("help", "version")}
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert dests - set(cli._NOT_CONFIG) <= fields
        assert {"experiment", "bandwidth", "d_grid", "out_dir", "trials"} <= dests

    @pytest.mark.parametrize(
        "argv",
        [
            ["exp", "--id", "5", "--d-grid", "x"],
            ["exp", "--id", "4", "--d-grid", "16,1.5"],
            ["exp", "--id", "1", "--n-grid", "100,many"],
            ["exp", "--id", "3", "--deltas", "0,y"],
            ["exp", "--id", "2", "--alphas", "half"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_unparsable_grid_names_no_internal_function(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"argument {argv[3]}: expected comma-separated" in err
        assert "_parse" not in err

    def test_invalid_id(self, capsys):
        # argparse exits the process with status 2 on bad choices
        with pytest.raises(SystemExit) as exc:
            main(["exp", "--id", "9"])
        assert exc.value.code == 2


class TestThreads:
    EXP5 = ("exp", "--id", "5", "--d-grid", "16,32", "--n-grid", "200", "--quiet")

    @pytest.fixture
    def blas_counts(self, monkeypatch):
        """OpenBLAS's thread count at each sample draw of the run."""
        if openblas_threads() is None:
            pytest.skip("numpy's BLAS exposes no OpenBLAS thread count")
        counts = []
        sample = experiments.sample_gaussian

        def recording(*args):
            counts.append(openblas_threads())
            return sample(*args)

        monkeypatch.setattr(experiments, "sample_gaussian", recording)
        return counts

    def test_workers_run_blas_on_one_thread_and_restore_it(self, capsys, tmp_path, blas_counts):
        before = openblas_threads()
        code, _, err = run_cli(capsys, "--out", str(tmp_path), "--trials", "4", "--threads", "2", *self.EXP5)
        assert code == 0, err
        assert blas_counts and set(blas_counts) == {1}
        assert openblas_threads() == before

    def test_blas_count_restored_when_a_trial_fails(self, capsys, tmp_path, monkeypatch, blas_counts):
        before = openblas_threads()

        def failing(*args):
            raise NumericError("injected")

        monkeypatch.setattr(experiments, "sample_gaussian", failing)
        code, _, err = run_cli(capsys, "--out", str(tmp_path), "--trials", "4", "--threads", "2", *self.EXP5)
        assert code == 3, err
        assert openblas_threads() == before

    def test_one_and_two_threads_write_identical_medians(self, capsys, tmp_path):
        for threads in ("1", "2"):
            out_dir = tmp_path / threads
            code, _, err = run_cli(capsys, "--out", str(out_dir), "--trials", "4", "--threads", threads, *self.EXP5)
            assert code == 0, err
        for name in ("experiment5_medians.csv", "experiment5_summary.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
