import argparse
import csv
import dataclasses
import gzip
import inspect
import io
import os
import threading
import warnings

import numpy as np
import pytest

from toepquant import (
    Arm,
    BoundsReport,
    Correction,
    Dither,
    GenSpec,
    STREAM_VERSION,
    QuantizerConfig,
    coverage_coefficient,
    evaluate_bounds,
    full_ruler,
    observe,
    phi_bound,
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
from toepquant.experiments import ExperimentConfig, draw_truth


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

    @pytest.mark.parametrize("recipe", [{"k": 8}, {"m": 3}], ids=["k", "m"])
    def test_fields_are_the_repr_of_the_library_values(self, capsys, recipe):
        ((option, value),) = recipe.items()
        code, out, _ = run_cli(capsys, "--seed", "123", "gen", "--d", "16", f"--{option}", str(value))
        a = draw_truth(GenSpec(16, **recipe), 123).a
        assert (code, parse_csv(out)) == (0, [["s", "a"]] + [[repr(s), repr(float(v))] for s, v in enumerate(a)])

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

    def test_zero_dimension_names_the_dimension(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--d", "0", "--k", "1")
        assert (code, out) == (2, "")
        assert err == "invalid configuration: d must be positive, got 0\n"


# one command line of every subcommand, each of which checks the seed
_EVERY_SUBCOMMAND = [
    ["gen", "--d", "4", "--k", "1"],
    ["estimate", "--simulate"],
    ["estimate", "--input", "samples.csv"],
    ["exp", "--id", "3"],
    ["ruler", "--d", "16", "--alpha", "0.5"],
    ["bounds", "--d", "16"],
]


class TestSeed:
    @pytest.mark.parametrize("command", _EVERY_SUBCOMMAND, ids=lambda c: " ".join(c[:2]))
    def test_negative_seed_rejected_by_name_before_any_work(self, capsys, tmp_path, monkeypatch, command):
        def no_work(*args, **kwargs):
            raise AssertionError("work ran")

        monkeypatch.chdir(tmp_path)
        (tmp_path / "samples.csv").write_text("\n".join(_sample_lines()) + "\n")
        monkeypatch.setattr(cli, "_load_samples", no_work)
        monkeypatch.setattr(cli, "draw_truth", no_work)
        monkeypatch.setattr(experiments, "sample_gaussian", no_work)
        code, out, err = run_cli(capsys, "--seed", "-1", *command)
        assert (code, out, err) == (2, "", "invalid configuration: --seed must be a non-negative integer, got -1\n")
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("value", ["-5", "abc", "1.5"])
    def test_unusable_environment_seed_rejected_by_name(self, capsys, monkeypatch, value):
        monkeypatch.setenv("TOEPQUANT_SEED", value)
        code, out, err = run_cli(capsys, "gen", "--d", "4", "--k", "1")
        assert (code, out) == (2, "")
        assert err == f"invalid configuration: TOEPQUANT_SEED must be a non-negative integer, got {value!r}\n"

    @pytest.mark.parametrize("command", _EVERY_SUBCOMMAND, ids=lambda c: " ".join(c[:2]))
    def test_unusable_environment_seed_rejected_by_every_subcommand(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "samples.csv").write_text("\n".join(_sample_lines()) + "\n")
        monkeypatch.setenv("TOEPQUANT_SEED", "abc")
        code, out, err = run_cli(capsys, *command)
        assert (code, out, err) == (2, "", "invalid configuration: TOEPQUANT_SEED must be a non-negative integer, got 'abc'\n")
        assert not (tmp_path / "results").exists()

    def test_seed_past_64_bits_accepted(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, "--seed", str(2**64 + 5), "gen", "--d", "4", "--k", "1")
        assert code == 0 and len(parse_csv(out)) == 5
        monkeypatch.setenv("TOEPQUANT_SEED", str(2**64 + 5))
        assert run_cli(capsys, "gen", "--d", "4", "--k", "1")[1] == out


class TestRuler:
    def test_reference_ruler(self, capsys):
        code, out, _ = run_cli(capsys, "ruler", "--d", "16", "--alpha", "0.5")
        assert code == 0
        rows = parse_csv(out)
        rec = dict(zip(rows[0], rows[1]))
        assert rec["indices_1based"] == "1 2 3 4 8 12 16"
        assert rec["size"] == "7"
        assert float(rec["phi"]) > 0

    @pytest.mark.parametrize("d, alpha", [(16, 0.5), (16, 0.75), (512, 1.0)])
    def test_fields_are_the_repr_of_the_library_values(self, capsys, d, alpha):
        code, out, _ = run_cli(capsys, "ruler", "--d", str(d), "--alpha", str(alpha))
        ruler = ruler_alpha(d, alpha)
        values = [d, alpha, ruler.size, coverage_coefficient(ruler), phi_bound(d, alpha)]
        indices = " ".join(repr(i + 1) for i in ruler.indices.tolist())
        header = ["d", "alpha", "size", "phi", "phi_bound", "indices_1based"]
        assert (code, parse_csv(out)) == (0, [header, [*map(repr, values), indices]])

    def test_bad_alpha_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "ruler", "--d", "16", "--alpha", "0.3")
        assert code == 2

    def test_dimension_one_rejected(self, capsys):
        # ruler_alpha builds {0} at d = 1, but its phi bound has no value there
        code, out, err = run_cli(capsys, "ruler", "--d", "1", "--alpha", "0.5")
        assert (code, out, err) == (2, "", "invalid configuration: dimension must be at least 2, got 1\n")


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

    @pytest.mark.parametrize("post", [["--threshold-auto"], ["--threshold", "0.1"]], ids=lambda p: p[0])
    def test_threshold_row_is_the_simulation_zeta(self, capsys, post):
        code, out, _ = run_cli(
            capsys, "--seed", "5", "estimate", "--simulate", "--d", "16", "--n", "100", "--m", "3",
            "--ruler", "0.5", "--delta", "1.0", "--correction", "quarter", *post,
        )
        assert code == 0
        rec = dict(parse_csv(out)[1:])
        arm = Arm(
            "", 0.5, ruler_alpha(16, 0.5), QuantizerConfig(1.0, Dither.TRIANGULAR), Correction.TRIANGULAR_QUARTER,
            threshold=0.1 if post[0] == "--threshold" else None, threshold_auto=post[0] == "--threshold-auto",
        )
        sim = simulate_estimate(GenSpec(16, m=3), 100, 5, arm)
        zeta = float(rec["zeta"])
        assert zeta == sim.zeta
        coefficients = np.array([float(rec[f"a[{s}]"]) for s in range(16)])
        np.testing.assert_array_equal(coefficients, sim.estimate.a)
        # the threshold zeroes every coefficient below it
        assert np.all(coefficients[np.abs(coefficients) < zeta] == 0.0)
        assert np.any(coefficients == 0.0)

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
        assert rec["stream_version"] == "3"

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--input", "samples.csv", "--delta", "-1"], "delta must be finite and >= 0, got -1.0"),
            (["--input", "samples.csv", "--threshold", "-1"], "zeta must be finite and >= 0, got -1.0"),
            (["--input", "samples.csv", "--threshold", "nan"], "zeta must be finite and >= 0, got nan"),
            (["--input", "samples.csv", "--bandwidth", "0"], "bandwidth must lie in [1, 16], got 0"),
            (["--input", "samples.csv", "--bandwidth", "999"], "bandwidth must lie in [1, 16], got 999"),
            (["--simulate", "--threshold", "-1"], "zeta must be finite and >= 0, got -1.0"),
            (["--simulate", "--bandwidth", "17"], "bandwidth must lie in [1, 16], got 17"),
        ],
        ids=lambda v: v if isinstance(v, str) else " ".join(v),
    )
    def test_unusable_setting_rejected_before_reading_or_drawing(self, capsys, tmp_path, monkeypatch, argv, message):
        calls = []

        def counted(fn):
            return lambda *args, **kwargs: calls.append(fn.__name__) or fn(*args, **kwargs)

        monkeypatch.chdir(tmp_path)
        (tmp_path / "samples.csv").write_text("\n".join(_sample_lines()) + "\n")
        monkeypatch.setattr(cli.np, "loadtxt", counted(np.loadtxt))
        monkeypatch.setattr(experiments, "sample_gaussian", counted(experiments.sample_gaussian))
        code, out, err = run_cli(capsys, "estimate", *argv)
        assert (code, out, err, calls) == (2, "", f"invalid configuration: {message}\n", [])

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

    @pytest.mark.parametrize("ruler", ["7", "nan", "0.3"])
    @pytest.mark.parametrize("source", ["--input", "--simulate"])
    def test_one_dimension_checks_its_alpha(self, capsys, tmp_path, source, ruler):
        path = tmp_path / "one.csv"
        np.savetxt(path, np.random.default_rng(3).standard_normal((20, 1)), delimiter=",")
        argv = ["--input", str(path)] if source == "--input" else ["--simulate", "--d", "1", "--k", "1"]
        code, out, err = run_cli(capsys, "estimate", *argv, "--ruler", ruler)
        assert (code, out) == (2, "")
        assert err == f"invalid configuration: alpha must lie in [1/2, 1], got {float(ruler)}\n"

    @pytest.mark.parametrize("n", ["-3", "0"])
    def test_sample_count_below_one_rejected(self, capsys, n):
        code, out, err = run_cli(capsys, "estimate", "--simulate", "--n", n)
        assert (code, out, err) == (2, "", f"invalid configuration: sample count must be positive, got {n}\n")

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

    # every bad index set the command line can spell: empty, a fraction, NaN, text, bools, an index below 1 or past d
    @pytest.mark.parametrize("spec", [",", "1.5,2", "nan,1", "a,b", "True,False", "-1,1", "0,1,2", "1,17", f"1,{2**64 - 1}"])
    def test_bad_ruler_index_set_is_one_line_exit_2(self, capsys, spec):
        code, out, err = run_cli(capsys, "estimate", "--simulate", f"--ruler={spec}")
        assert code == 2 and out == ""
        assert err.startswith("invalid configuration: ") and err.count("\n") == 1, err

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

    @pytest.mark.parametrize("source", ["--input", "--simulate"])
    def test_ruler_text_that_is_neither_an_alpha_nor_indices_rejected(self, capsys, tmp_path, source):
        path = tmp_path / "samples.csv"
        np.savetxt(path, np.random.default_rng(6).standard_normal((20, 4)), delimiter=",")
        argv = ["--input", str(path)] if source == "--input" else ["--simulate", "--d", "4", "--k", "2"]
        code, out, err = run_cli(capsys, "estimate", *argv, "--ruler", "abc")
        assert code == 2
        assert err == "invalid configuration: --ruler takes an alpha or comma-separated 1-based indices, got 'abc'\n"
        assert out == ""

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

    @pytest.mark.parametrize("k", [None, 4])
    def test_fields_are_the_repr_of_the_library_values(self, capsys, k):
        # without --k, the k, script_l_prime and lambda_low_rank fields have no value and print empty
        argv = ["bounds", "--d", "16", "--alpha", "0.5,1.0", "--delta", "0,2"] + ([] if k is None else ["--k", str(k)])
        code, out, _ = run_cli(capsys, *argv)
        calls = [
            dict(d=16, alpha=alpha, delta=delta, eps=0.1, prob_delta=0.05, op_norm_t=1.0, k=k, p=2.0, n=1000, c=1.0)
            for alpha in (0.5, 1.0)
            for delta in (0.0, 2.0)
        ]
        records = [call | vars(evaluate_bounds(**call)) for call in calls]
        rows = [["" if v is None else repr(v) for v in record.values()] for record in records]
        assert (code, parse_csv(out)) == (0, [list(records[0])] + rows)
        empty = {name for name, value in zip(list(records[0]), rows[0]) if value == ""}
        assert empty == (set() if k else {"k", "script_l_prime", "lambda_low_rank"})

    def test_header_is_the_parameters_then_the_report_fields(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--d", "16")
        header = list(inspect.signature(evaluate_bounds).parameters) + [f.name for f in dataclasses.fields(BoundsReport)]
        assert (code, parse_csv(out)[0]) == (0, header)

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

    @pytest.mark.parametrize(
        "option",
        [
            ["--delta", "nan"], ["--delta", "inf"], ["--delta", "1,-inf"],
            ["--op-norm", "nan"], ["--op-norm", "inf"], ["--op-norm=-inf"],
            # ||T||^2 overflows, or underflows to zero
            ["--op-norm", "1e200"], ["--op-norm", "1e-200"],
            ["--alpha", ","], ["--delta", ","], ["--alpha", ""],
        ],
        ids=" ".join,
    )
    def test_value_without_a_finite_row_rejected(self, capsys, option):
        code, out, err = run_cli(capsys, "bounds", "--d", "16", *option)
        assert code == 2
        assert err.startswith("invalid configuration") and err.count("\n") == 1
        assert out == ""

    @pytest.mark.parametrize(
        "option, names",
        [
            # eps^2, or eps * prob_delta, underflows to zero: kappa was 0.0, vsc_pred a division by zero (exit 3)
            (["--eps", "1e-200"], "kappa"),
            (["--eps", "1e-170", "--prob-delta", "1e-170"], "kappa"),
            # script_l is finite, script_l * phi is not: kappa was 0.0 and only vsc_pred was named
            (["--delta", "1.1e77"], "kappa"),
            # 4 p log d overflows: script_k is checked where it is computed, before zeta is
            (["--p", "1e308"], "script_k"),
            (["--eps", "0.5", "--prob-delta", "1e-320"], "vsc_pred"),
        ],
        ids=lambda v: v if isinstance(v, str) else " ".join(v),
    )
    def test_constant_that_is_no_positive_finite_float_named(self, capsys, option, names):
        code, out, err = run_cli(capsys, "bounds", "--d", "16", *option)
        assert (code, out) == (2, "")
        assert err == f"invalid configuration: bounds not finite for this configuration: {names}\n"

    @pytest.mark.parametrize(
        "option, message",
        [
            # K overflows too, but the square that overflows is named first
            (["--op-norm", "1e308"], "||T||^2 must be finite and positive, got op_norm_t = 1e+308"),
            (["--delta", "1e154"], "delta^4 must be finite, got delta = 1e+154"),
            (["--delta", "nan"], "delta must be finite and >= 0, got nan"),
            (["--op-norm=-1"], "op_norm_t must be finite and >= 0, got -1.0"),
        ],
        ids=lambda v: v if isinstance(v, str) else " ".join(v),
    )
    def test_unusable_scale_named_before_k(self, capsys, option, message):
        code, out, err = run_cli(capsys, "bounds", "--d", "16", *option)
        assert (code, out, err) == (2, "", f"invalid configuration: {message}\n")

    @pytest.mark.parametrize("option", ["--alpha", "--delta"])
    def test_unparsable_list_is_a_usage_error(self, capsys, option):
        # as for exp's grids: argparse parses the list
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--d", "16", option, "x"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"argument {option}: expected comma-separated numbers, got 'x'\n")

    def test_dimension_one_rejected(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--d", "1", "--alpha", "7")
        assert (code, out, err) == (2, "", "invalid configuration: dimension must be at least 2, got 1\n")

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
            # an n for which numpy cannot size the sample block
            ["--trials", "2", "exp", "--id", "1", "--n-grid", "6,10000000000000000000"],
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

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-a-file"])
    def test_unusable_out_dir_rejected_before_any_trial(self, capsys, tmp_path, monkeypatch, below):
        draws = []
        monkeypatch.setattr(experiments, "sample_gaussian", lambda *args: draws.append(args))
        path = tmp_path / "taken"
        path.write_text("")
        code, out, err = run_cli(capsys, "--out", str(path / below), "exp", "--id", "3", "--quiet")
        assert (code, out, draws) == (2, "", [])
        assert err.startswith("invalid configuration: ") and err.count("\n") == 1

    @pytest.mark.parametrize("option", [["--trials", "5"], ["--out", "out"]], ids=lambda o: o[0])
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


# an integer that parses but is too large to be a float
HUGE = str(10**400)


class TestContract:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--d", HUGE],
            ["bounds", "--d", "16", "--n", HUGE],
            ["ruler", "--d", HUGE, "--alpha", "0.5"],
            ["estimate", "--simulate", "--d", HUGE],
            ["exp", "--id", "1", "--d", HUGE],
            ["exp", "--id", "5", "--d-grid", HUGE],
        ],
        ids=lambda argv: " ".join(argv[:3]),
    )
    def test_integer_too_large_for_a_float_is_invalid_configuration(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        name = "n" if "--n" in argv else "dimension"
        assert err == f"invalid configuration: {name} must be finite and >= 1, got a number past the float range\n"
        assert out == "" and not (tmp_path / "results").exists()

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["ruler", "--d", str(2**70), "--alpha", "0.5"], f"dimension {2**70} too large for a ruler at alpha 0.5"),
            (["estimate", "--simulate", "--d", "10000000000"], "dimension 10000000000 too large for a ruler at alpha 1.0"),
            (["bounds", "--d", "10000000000", "--alpha", "1"], "dimension 10000000000 too large for a ruler at alpha 1.0"),
            (
                ["exp", "--id", "4", "--d-grid", "10000000000", "--alphas", "1"],
                "dimension 10000000000 too large for a ruler at alpha 1.0",
            ),
            (
                ["--trials", "2", "exp", "--id", "4", "--d-grid", "16", "--n-cap", "99999999999999999", "--eps", "1e-300"],
                "n_cap too large for an (n, 16) sample block, got 99999999999999999",
            ),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else "",
    )
    def test_size_numpy_cannot_take_is_invalid_configuration(self, capsys, tmp_path, monkeypatch, argv, err):
        # each used to run until the machine's memory ran out: the ruler's
        # indices were built in Python before anything was sized, and the
        # search doubled n towards a cap no sample block can take
        monkeypatch.chdir(tmp_path)
        code, out, stderr = run_cli(capsys, *argv)
        assert code == 2
        assert stderr.startswith(f"invalid configuration: {err}") and stderr.count("\n") == 1
        assert out == "" and not (tmp_path / "results").exists()

    @pytest.mark.parametrize(
        "argv, k",
        [
            (["estimate", "--simulate", "--d", "1"], 8),
            (["exp", "--id", "1", "--d", "1"], 8),
            (["exp", "--id", "4", "--d-grid", "1"], 5),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
    )
    def test_default_mode_count_above_the_dimension_names_both(self, capsys, tmp_path, monkeypatch, argv, k):
        # k is the recipe's default here, not a value the user gave
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err == f"invalid configuration: a mixture of k modes needs 1 <= k <= d, got k = {k} and d = 1\n"
        assert out == ""


class TestThreads:
    EXP4 = ("exp", "--id", "4", "--d-grid", "16,32", "--eps", "0.3", "--n-cap", "4096", "--quiet")

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

    def test_workers_run_blas_on_one_thread_and_restore_it(self, capsys, tmp_path, monkeypatch, blas_counts):
        monkeypatch.setattr(experiments, "_CPUS", 2)
        before = openblas_threads()
        code, _, err = run_cli(capsys, "--out", str(tmp_path), "--trials", "4", *self.EXP4)
        assert code == 0, err
        assert blas_counts and set(blas_counts) == {1}
        assert openblas_threads() == before

    def test_blas_count_restored_when_a_trial_fails(self, capsys, tmp_path, monkeypatch, blas_counts):
        before = openblas_threads()

        def failing(*args):
            raise NumericError("injected")

        monkeypatch.setattr(experiments, "sample_gaussian", failing)
        monkeypatch.setattr(experiments, "_CPUS", 2)
        code, _, err = run_cli(capsys, "--out", str(tmp_path), "--trials", "4", *self.EXP4)
        assert code == 3, err
        assert openblas_threads() == before

    def test_one_and_two_threads_write_identical_medians(self, capsys, tmp_path, monkeypatch):
        for workers in (1, 2):
            monkeypatch.setattr(experiments, "_CPUS", workers)
            code, _, err = run_cli(capsys, "--out", str(tmp_path / str(workers)), "--trials", "4", *self.EXP4)
            assert code == 0, err
        for name in ("experiment4_medians.csv", "experiment4_summary.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_threads_is_not_an_option(self, capsys):
        # the worker count follows from the experiment: the calling thread for
        # experiments 1, 2, 3 and 5, one per CPU for experiment 4
        with pytest.raises(SystemExit) as exc:
            main(["--threads", "2", "exp", "--id", "4"])
        assert exc.value.code == 2
        assert "toepquant: error:" in capsys.readouterr().err


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
