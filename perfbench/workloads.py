"""The benchmark's three workloads, as lists of ``toepquant`` command lines.

A workload is built from its seed and a work directory.  Building it
writes any input files and computes the references its checks need; a
round is one call of ``toepquant.cli.main`` per operation.  Each
operation carries a check that reads the call's output, raises
``checks.CheckFailed`` if the output is wrong, and returns how many
covariance estimates the call completed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

EXP4_EPS = 0.45


@dataclass(frozen=True)
class Op:
    argv: list[str]
    check: Callable[[str], int]


def call_main(argv: list[str]) -> tuple[int, str, str]:
    """Run ``toepquant.cli.main`` in process; return (exit code, stdout, stderr)."""
    from toepquant import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught error ends the command with exit 1
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def _output_paths(stdout: str) -> dict[str, Path]:
    """Map each file that ``toepquant exp`` printed to its name."""
    return {Path(line).name: Path(line) for line in stdout.split()}


def _exp_op(
    seed: int, out: Path, exp_id: int, trials: int, extra: list[str], check: Callable[[dict[str, Path]], None]
) -> Op:
    argv = ["--seed", str(seed), "--out", str(out), "--trials", str(trials), "exp", "--id", str(exp_id), "--quiet"]
    argv += extra

    def run_check(stdout: str) -> int:
        paths = _output_paths(stdout)
        trials = checks.read_csv(paths[f"experiment{exp_id}.csv"])
        medians = checks.read_csv(paths[f"experiment{exp_id}_medians.csv"])
        checks.check_medians_match_trials(trials, medians)
        check(paths)
        return len(trials)

    return Op(argv, run_check)


def _medians(exp_id: int, check: Callable[[list[dict]], None]) -> Callable[[dict[str, Path]], None]:
    return lambda paths: check(checks.read_csv(paths[f"experiment{exp_id}_medians.csv"]))


# experiment id -> (trials, extra ``exp`` options); "bounds_d" is the d of ``bounds``
FIGURES_SIZES = {
    "full": {1: (3, []), 2: (10, []), 3: (10, []), 5: (10, []), "bounds_d": "128"},
    "tiny": {
        1: (1, ["--n-grid", "100,10000"]),
        2: (5, ["--n-grid", "100,1000,10000"]),
        3: (3, ["--deltas", "0,5"]),
        5: (3, ["--d-grid", "32"]),
        "bounds_d": "16",
    },
}


def figures(seed: int, work: Path, size: str = "full") -> list[Op]:
    """Experiments 1, 2, 3 and 5 at reduced trial counts, plus ``bounds``."""
    sizes = FIGURES_SIZES[size]
    out = work / "figures"

    def bounds_check(stdout: str) -> int:
        checks.check_bounds(list(csv.DictReader(io.StringIO(stdout))))
        return 0

    def exp2_check(paths: dict[str, Path]) -> None:
        checks.check_exp2(checks.read_csv(paths["experiment2_slopes.csv"]))

    d = sizes["bounds_d"]
    return [
        _exp_op(seed, out, 1, *sizes[1], _medians(1, checks.check_exp1)),
        _exp_op(seed, out, 2, *sizes[2], exp2_check),
        _exp_op(seed, out, 3, *sizes[3], _medians(3, checks.check_exp3)),
        _exp_op(seed, out, 5, *sizes[5], _medians(5, checks.check_exp5)),
        Op(["bounds", "--d", d, "--alpha", "0.5,0.75,1.0", "--delta", "0,2,5", "--k", "10"], bounds_check),
    ]


# (d grid, searches per round); each search is a whole experiment 4 at its own seed
BISECT_SIZES = {"full": ("512", 5), "tiny": ("16,32", 2)}


def bisect_d512(seed: int, work: Path, size: str = "full") -> list[Op]:
    """Experiment 4's total-complexity search, both variants and both rulers.

    One search at one trial per probe stops at a seed-dependent n, so a
    round runs several searches, at seeds ``searches * seed + i``, to even
    out both the round's length and the largest n it draws.
    """

    def check(paths: dict[str, Path]) -> None:
        checks.check_bisection(
            checks.read_csv(paths["experiment4_summary.csv"]),
            checks.read_csv(paths["experiment4_medians.csv"]),
            EXP4_EPS,
        )

    d_grid, searches = BISECT_SIZES[size]
    extra = ["--d-grid", d_grid, "--eps", str(EXP4_EPS)]
    return [_exp_op(searches * seed + i, work / f"bisect{i}", 4, 1, extra, check) for i in range(searches)]


# dimension -> sample rows of its CSV
ESTIMATE_SIZES = {"full": {128: 8000, 512: 2000}, "tiny": {16: 2000, 32: 1000}}
ESTIMATE_DELTA = 2.0


def toeplitz_truth(d: int, rng: np.random.Generator) -> np.ndarray:
    """Generating vector rho^s cos(2 pi f s): unit diagonal, positive definite.

    It is the entrywise product of an AR(1) kernel (positive definite) and
    a cosine kernel (positive semidefinite, unit diagonal).
    """
    rho = rng.uniform(0.3, 0.9)
    freq = rng.uniform(0.0, 0.5)
    s = np.arange(d)
    return rho**s * np.cos(2.0 * np.pi * freq * s)


def gaussian_samples(a: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """n rows of N(0, toep(a)), rounded to the 6 decimals written to the CSV."""
    d = a.size
    s = np.arange(d)
    chol = np.linalg.cholesky(a[np.abs(s[:, None] - s[None, :])])
    return np.round(rng.standard_normal((n, d)) @ chol.T, 6)


def _sparse_ruler(d: int) -> np.ndarray:
    rc, stdout, stderr = call_main(["ruler", "--d", str(d), "--alpha", "0.5"])
    if rc != 0:
        raise RuntimeError(f"toepquant ruler --d {d} failed: {stderr}")
    row = next(csv.DictReader(io.StringIO(stdout)))
    return np.array([int(i) - 1 for i in row["indices_1based"].split()])


def _parse_estimate(stdout: str) -> np.ndarray:
    rows = [line.split(",") for line in stdout.splitlines()[1:]]
    return np.array([float(v) for k, v in rows if k.startswith("a[")])


def estimate_csv(seed: int, work: Path, size: str = "full") -> list[Op]:
    """``estimate --input`` over CSVs of Gaussian samples from known Toeplitz covariances."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC5F)))
    work.mkdir(parents=True, exist_ok=True)
    ops = []
    for d, n in ESTIMATE_SIZES[size].items():
        truth = toeplitz_truth(d, rng)
        samples = gaussian_samples(truth, n, rng)
        path = work / f"samples_d{d}.csv"
        np.savetxt(path, samples, fmt="%.6f", delimiter=",")
        sparse = _sparse_ruler(d)
        if not checks.ruler_distances_covered(sparse, d):
            raise checks.CheckFailed(f"toepquant ruler --d {d} --alpha 0.5 is not a ruler")
        for ruler, indices in (("1.0", np.arange(d)), ("0.5", sparse)):
            pair_means = checks.lag_pair_means(samples, indices)
            for delta in (0.0, ESTIMATE_DELTA):
                argv = ["--seed", str(seed), "estimate", "--input", str(path), "--ruler", ruler]
                argv += ["--delta", repr(delta), "--dither", "triangular"]
                argv += ["--correction", "none" if delta == 0 else "quarter"]

                def check(stdout: str, delta=delta, pair_means=pair_means, truth=truth, n=n) -> int:
                    a_hat = _parse_estimate(stdout)
                    if delta == 0:
                        checks.check_pair_means(a_hat, pair_means)
                    else:
                        checks.check_lag_errors(a_hat, truth, n, delta)
                    return 1

                ops.append(Op(argv, check))
    return ops


WORKLOADS: dict[str, Callable[..., list[Op]]] = {
    "figures": figures,
    "bisect_d512": bisect_d512,
    "estimate_csv": estimate_csv,
}
