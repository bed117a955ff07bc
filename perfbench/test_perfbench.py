"""Tests of the benchmark itself: tiny runs of each workload, the tracer,
and that every correctness check rejects a deliberately wrong output.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_round_is_correct(workload, tmp_path):
    runner = run.Runner(workloads.WORKLOADS[workload](3, tmp_path, "tiny"))
    seconds, estimates = runner.round()
    assert runner.correct
    assert runner.failed == 0 and runner.attempted == len(runner.ops)
    assert seconds > 0 and estimates > 0


def test_an_uncaught_error_counts_as_a_failed_call(monkeypatch):
    import toepquant.cli

    def broken(argv):
        raise IndexError("tuple index out of range")

    monkeypatch.setattr(toepquant.cli, "main", broken)
    rc, _, stderr = workloads.call_main(["exp", "--id", "3"])
    assert rc == 1 and "IndexError" in stderr


def test_workload_names_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


def test_untraced_run_reports_every_end_to_end_metric():
    result = run.run("estimate_csv", 5, 0.01, trace=False, size="tiny")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 8
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result = run.run("figures", 5, 0.01, trace=True, size="tiny")
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    calls = {k[: -len(".calls")]: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}
    assert all(c > 0 for c in calls.values()), calls  # figures reaches every layer


def test_tracer_fails_loudly_on_a_missing_name(monkeypatch):
    import toepquant.sampling

    monkeypatch.delattr(toepquant.sampling, "draw_dither")
    tracer = tracing.Tracer()
    with pytest.raises(tracing.MissingLayerError, match="draw_dither"):
        tracer.install()
    assert tracer._saved == []


def test_tracer_self_time_excludes_wrapped_children():
    import toepquant.estimators
    import toepquant.experiments

    tracer = tracing.Tracer()
    tracer.install()
    try:
        toepquant.experiments.relative_error(
            toepquant.toep(np.array([2.0, 1.0, 0.0])), toepquant.toep(np.array([1.0, 0.5, 0.0]))
        )
    finally:
        tracer.uninstall()
    assert tracer.calls["estimators.relative_error"] == 1
    assert tracer.calls["toeplitz.op_norm"] == 2
    assert tracer.self_time["estimators.relative_error"] < tracer.busy["estimators.relative_error"]
    assert callable(toepquant.estimators.op_norm) and not hasattr(toepquant.estimators.op_norm, "__wrapped__")


def test_no_sources_means_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ----- every check rejects a wrong output -----


@pytest.fixture(scope="module")
def figures_out(tmp_path_factory):
    """Parsed outputs of one tiny figures round, which pass every check."""
    work = tmp_path_factory.mktemp("figures")
    out = {}
    for op in workloads.figures(4, work, "tiny"):
        rc, stdout, _ = workloads.call_main(op.argv)
        assert rc == 0
        op.check(stdout)
        if "bounds" in op.argv:
            out["bounds"] = list(csv.DictReader(stdout.splitlines()))
    for path in (work / "figures").glob("*.csv"):
        out[path.stem] = checks.read_csv(path)
    return out


def _set(records, value_field, value, **where):
    records = copy.deepcopy(records)
    hits = [r for r in records if all(r[k] == v for k, v in where.items())]
    assert hits
    for r in hits:
        r[value_field] = value
    return records


def test_medians_check_rejects_a_wrong_median(figures_out):
    trials, medians = figures_out["experiment1"], figures_out["experiment1_medians"]
    checks.check_medians_match_trials(trials, medians)
    wrong = copy.deepcopy(medians)
    wrong[0]["median_rel_error"] = repr(float(wrong[0]["median_rel_error"]) * 1.01)
    with pytest.raises(checks.CheckFailed):
        checks.check_medians_match_trials(trials, wrong)


def test_exp1_check_rejects_uncorrected_winning(figures_out):
    medians = figures_out["experiment1_medians"]
    n_max = str(max(int(m["n"]) for m in medians))
    dot = next(m["median_rel_error"] for m in medians if m["n"] == n_max and m["tag"] == "dotT")
    with pytest.raises(checks.CheckFailed, match="does not beat"):
        checks.check_exp1(_set(medians, "median_rel_error", dot, n=n_max, tag="hatT"))


def test_exp2_check_rejects_a_wrong_slope(figures_out):
    slopes = figures_out["experiment2_slopes"]
    with pytest.raises(checks.CheckFailed, match="slope"):
        checks.check_exp2(_set(slopes, "slope", "-0.25", delta=slopes[0]["delta"], alpha=slopes[0]["alpha"]))
    with pytest.raises(checks.CheckFailed):
        checks.check_exp2([])


def test_exp3_check_rejects_quantization_that_helps(figures_out):
    medians = figures_out["experiment3_medians"]
    with pytest.raises(checks.CheckFailed, match="not above"):
        checks.check_exp3(_set(medians, "median_rel_error", "0.0", delta="5.0", alpha="0.5"))


def test_exp5_check_rejects_banding_that_hurts(figures_out):
    medians = figures_out["experiment5_medians"]
    with pytest.raises(checks.CheckFailed, match="banded"):
        checks.check_exp5(_set(medians, "median_rel_error", "9.0", tag="breveM"))


@pytest.mark.parametrize(
    "field, value, where",
    [
        ("big_k", "3.0", {"delta": "0.0"}),
        ("phi", "1.0", {"alpha": "1.0"}),
        ("ruler_size", "15", {"alpha": "1.0"}),
        ("ruler_size", "16", {"alpha": "0.5"}),
    ],
)
def test_bounds_check_rejects_wrong_constants(figures_out, field, value, where):
    with pytest.raises(checks.CheckFailed, match="bounds"):
        checks.check_bounds(_set(figures_out["bounds"], field, value, **where))


@pytest.fixture(scope="module")
def bisect_out(tmp_path_factory):
    work = tmp_path_factory.mktemp("bisect")
    op = workloads.bisect_d512(2, work, "tiny")[0]
    rc, stdout, _ = workloads.call_main(op.argv)
    assert rc == 0
    op.check(stdout)
    out = work / "bisect0"
    return checks.read_csv(out / "experiment4_summary.csv"), checks.read_csv(out / "experiment4_medians.csv")


def test_bisection_check_rejects_capped_unmet_and_unbracketed(bisect_out):
    summary, medians = bisect_out
    eps = workloads.EXP4_EPS
    checks.check_bisection(summary, medians, eps)
    with pytest.raises(checks.CheckFailed, match="capped"):
        checks.check_bisection(_set(summary, "capped", "1", d=summary[0]["d"]), medians, eps)
    row = next(r for r in summary if int(r["n_star"]) > 20)
    cell = {"tag": row["tag"], "alpha": row["alpha"], "d": row["d"]}
    with pytest.raises(checks.CheckFailed, match="is not <="):
        checks.check_bisection(summary, _set(medians, "median_rel_error", "1.0", n=row["n_star"], **cell), eps)
    doubled = _set(summary, "n_star", str(2 * int(row["n_star"])), **cell)
    with pytest.raises(checks.CheckFailed):
        checks.check_bisection(doubled, medians, eps)
    lower = [m for m in medians if all(m[k] == v for k, v in cell.items()) and int(m["n"]) < int(row["n_star"])]
    met = copy.deepcopy(medians)
    for m in met:
        if m in lower:
            m["median_rel_error"] = "0.0"
    with pytest.raises(checks.CheckFailed, match="no probe"):
        checks.check_bisection(summary, met, eps)


def test_bisection_check_takes_n_star_one_as_bracketed():
    summary = [{"tag": "rank10", "alpha": "1.0", "d": "512", "n_star": "1", "capped": "0"}]
    medians = [{"tag": "rank10", "alpha": "1.0", "d": "512", "n": "1", "median_rel_error": "0.3"}]
    checks.check_bisection(summary, medians, 0.45)
    with pytest.raises(checks.CheckFailed, match="is not <="):
        checks.check_bisection(summary, medians, 0.2)


def test_ruler_check_rejects_a_gap():
    assert checks.ruler_distances_covered(np.array([0, 1, 2, 3, 7, 11, 15]), 16)
    assert not checks.ruler_distances_covered(np.array([0, 1, 2, 7, 11, 15]), 16)


def test_pair_mean_check_rejects_a_small_error():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((50, 16))
    idx = np.array([0, 1, 2, 3, 7, 11, 15])
    ref = checks.lag_pair_means(x, idx)
    # a brute-force pair loop agrees with the lagged sums
    brute = np.zeros(16)
    counts = np.zeros(16)
    for j in idx:
        for k in idx:
            brute[abs(j - k)] += np.mean(x[:, j] * x[:, k])
            counts[abs(j - k)] += 1
    checks.check_pair_means(brute / counts, ref)
    wrong = ref.copy()
    wrong[5] += 1e-8 * np.abs(ref).max()
    with pytest.raises(checks.CheckFailed, match="pair means"):
        checks.check_pair_means(wrong, ref)


def test_lag_error_check_rejects_a_missing_correction(tmp_path):
    rng = np.random.default_rng(1)
    d, n, delta = 64, 2000, workloads.ESTIMATE_DELTA
    truth = workloads.toeplitz_truth(d, rng)
    path = tmp_path / "x.csv"
    np.savetxt(path, workloads.gaussian_samples(truth, n, rng), fmt="%.6f", delimiter=",")
    a_hat = {}
    for correction in ("quarter", "none"):
        argv = ["--seed", "1", "estimate", "--input", str(path), "--delta", "2", "--correction", correction]
        rc, stdout, _ = workloads.call_main(argv)
        assert rc == 0
        a_hat[correction] = workloads._parse_estimate(stdout)
    checks.check_lag_errors(a_hat["quarter"], truth, n, delta)
    with pytest.raises(checks.CheckFailed, match="exceeds"):
        checks.check_lag_errors(a_hat["none"], truth, n, delta)
