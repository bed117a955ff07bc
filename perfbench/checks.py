"""Correctness checks on the program's outputs.

Every check is computed apart from the program, or from a property the
method must have; none compares against a stored copy of earlier output.
Each takes parsed output (CSV records or arrays) and raises CheckFailed
with a reason, so a test can hand it a deliberately wrong output.
"""

from __future__ import annotations

import csv
import math
import statistics
from pathlib import Path

import numpy as np

SLOPE_TOLERANCE = 0.15  # exp 2: |slope + 1/2| allowed, at the benchmark's trial count
PAIR_MEAN_RTOL = 1e-10  # estimate at delta = 0 against the benchmark's own pair means
SIGMAS = 6.0  # estimate at delta > 0: per-lag error bound in standard deviations


class CheckFailed(Exception):
    """The program produced an output that the method rules out."""


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _median_at(medians: list[dict], **where) -> float:
    hits = [float(m["median_rel_error"]) for m in medians if all(m[k] == v for k, v in where.items())]
    _require(len(hits) == 1, f"expected one median for {where}, found {len(hits)}")
    return hits[0]


def check_medians_match_trials(trials: list[dict], medians: list[dict]) -> None:
    """Each medians row is the median of its trial rows, recomputed here."""
    groups: dict[tuple, list[float]] = {}
    for row in trials:
        key = (row["d"], row["alpha"], row["delta"], row["n"], row["tag"])
        groups.setdefault(key, []).append(float(row["rel_error"]))
    _require(len(groups) == len(medians), f"{len(groups)} trial groups but {len(medians)} medians")
    for m in medians:
        key = (m["d"], m["alpha"], m["delta"], m["n"], m["tag"])
        _require(key in groups, f"medians row {key} has no trial rows")
        errs = groups[key]
        _require(len(errs) == int(m["trials"]), f"{key}: {len(errs)} trial rows, medians says {m['trials']}")
        want = statistics.median(errs)
        got = float(m["median_rel_error"])
        _require(math.isclose(got, want, rel_tol=1e-12), f"{key}: median {got} but trials give {want}")


def check_exp1(medians: list[dict]) -> None:
    """At the largest n the corrected estimator beats the uncorrected one."""
    n_max = max(int(m["n"]) for m in medians)
    for alpha in sorted({m["alpha"] for m in medians}):
        hat = _median_at(medians, alpha=alpha, n=str(n_max), tag="hatT")
        dot = _median_at(medians, alpha=alpha, n=str(n_max), tag="dotT")
        _require(hat < dot, f"exp 1 alpha={alpha} n={n_max}: hatT {hat} does not beat dotT {dot}")


def check_exp2(slopes: list[dict]) -> None:
    """Every log-log error slope is near -1/2 (error ~ n^(-1/2))."""
    _require(len(slopes) > 0, "exp 2 wrote no slopes")
    for row in slopes:
        slope = float(row["slope"])
        _require(
            abs(slope + 0.5) <= SLOPE_TOLERANCE,
            f"exp 2 alpha={row['alpha']} delta={row['delta']}: slope {slope} is not within {SLOPE_TOLERANCE} of -1/2",
        )


def check_exp3(medians: list[dict]) -> None:
    """For every ruler, the error at the coarsest level exceeds the error at delta = 0."""
    deltas = sorted({float(m["delta"]) for m in medians})
    _require(deltas[0] == 0.0, f"exp 3 has no delta = 0 point: {deltas}")
    coarse = repr(deltas[-1])
    for alpha in sorted({m["alpha"] for m in medians}):
        fine = _median_at(medians, alpha=alpha, delta="0.0")
        rough = _median_at(medians, alpha=alpha, delta=coarse)
        _require(rough > fine, f"exp 3 alpha={alpha}: error {rough} at delta={coarse} not above {fine} at 0")


def check_exp5(medians: list[dict]) -> None:
    """Zeroing the lags a banded truth does not have beats keeping them."""
    for d in sorted({m["d"] for m in medians}, key=int):
        hat = _median_at(medians, d=d, tag="hatT")
        band = _median_at(medians, d=d, tag="breveM")
        _require(band < hat, f"exp 5 d={d}: banded error {band} not below unbanded {hat}")


def check_bounds(report: list[dict]) -> None:
    """Recompute what has a closed form: the full ruler, its coverage and K."""
    _require(len(report) > 0, "bounds wrote no rows")
    for row in report:
        d, alpha, delta = int(row["d"]), float(row["alpha"]), float(row["delta"])
        want_k = 2.0 * (float(row["op_norm_t"]) + 2.0 * delta * delta)
        _require(math.isclose(float(row["big_k"]), want_k, rel_tol=1e-12), f"bounds: K {row['big_k']} != {want_k}")
        if alpha == 1.0:
            _require(int(row["ruler_size"]) == d, f"bounds: full ruler has size {row['ruler_size']}, not {d}")
            # ordered pairs at distance s on the full ruler: 2 (d - s)
            want_phi = math.fsum(1.0 / (2 * (d - s)) for s in range(1, d))
            _require(math.isclose(float(row["phi"]), want_phi, rel_tol=1e-12), f"bounds: phi {row['phi']} != {want_phi}")
        else:
            _require(int(row["ruler_size"]) < d, f"bounds: alpha={alpha} ruler is not sparse")


def check_bisection(summary: list[dict], medians: list[dict], eps: float) -> None:
    """Every n* meets eps, a probe within 5% below it does not, and no cell is capped.

    n* = 1 is bracketed by the lower end of the search: there is no smaller n.
    """
    _require(len(summary) > 0, "exp 4 wrote no summary")
    for row in summary:
        cell = (row["tag"], row["alpha"], row["d"])
        n_star = int(row["n_star"])
        _require(row["capped"] == "0", f"exp 4 {cell}: capped at n={n_star}")
        probes = {
            int(m["n"]): float(m["median_rel_error"])
            for m in medians
            if (m["tag"], m["alpha"], m["d"]) == cell
        }
        _require(probes.get(n_star, math.inf) <= eps, f"exp 4 {cell}: median at n*={n_star} is not <= {eps}")
        if n_star == 1:
            continue
        floor = n_star - max(1, n_star // 20)
        below = [n for n, err in probes.items() if floor <= n < n_star and err > eps]
        _require(below, f"exp 4 {cell}: no probe in [{floor}, {n_star}) with median > {eps}")


def ruler_distances_covered(indices: np.ndarray, d: int) -> bool:
    """Every distance 0..d-1 is realized by a pair of ruler indices."""
    idx = np.asarray(indices)
    return bool(np.all(np.isin(np.arange(d), np.abs(idx[:, None] - idx[None, :]))))


def lag_pair_means(samples: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Mean of x_j x_k over samples and ruler pairs with |j - k| = s, per lag s.

    Zero-fills the unobserved coordinates and sums the lagged products
    directly, one lag at a time; the program instead reduces a Gram
    matrix of the ruler columns.
    """
    n, d = samples.shape
    mask = np.zeros(d)
    mask[indices] = 1.0
    z = samples * mask
    out = np.empty(d)
    for s in range(d):
        pairs = float(np.dot(mask[: d - s], mask[s:]))
        out[s] = float(np.sum(z[:, : d - s] * z[:, s:])) / (n * pairs)
    return out


def check_pair_means(a_hat: np.ndarray, reference: np.ndarray) -> None:
    """The delta = 0 estimate is the plain pair mean."""
    _require(a_hat.shape == reference.shape, f"estimate has {a_hat.size} lags, expected {reference.size}")
    worst = float(np.max(np.abs(a_hat - reference)))
    scale = float(np.max(np.abs(reference)))
    _require(worst <= PAIR_MEAN_RTOL * scale, f"estimate differs from pair means by {worst} (scale {scale})")


def lag_error_bound(n: int, delta: float, a0: float) -> float:
    """Per-lag bound on |a_hat_s - a_s| for the quarter-corrected estimator.

    The per-sample lag statistic has variance at most E[q^4] for one
    quantized coordinate q = x + xi, x ~ N(0, a0).  Triangular dither gives
    E[xi | x] = 0, E[xi^2 | x] = delta^2 / 4 and |xi| <= 3 delta / 2, so
    E[q^4] <= 3 a0^2 + 6 a0 delta^2/4 + 4 E|x| (3 delta/2) delta^2/4
    + (3 delta/2)^2 delta^2/4.  The README has the derivation.
    """
    v = (
        3.0 * a0 * a0
        + 1.5 * a0 * delta**2
        + 1.5 * math.sqrt(2.0 * a0 / math.pi) * delta**3
        + 9.0 / 16.0 * delta**4
    )
    return SIGMAS * math.sqrt(v / n)


def check_lag_errors(a_hat: np.ndarray, a_true: np.ndarray, n: int, delta: float) -> None:
    """The corrected estimate is within the derived per-lag bound of the truth."""
    _require(a_hat.shape == a_true.shape, f"estimate has {a_hat.size} lags, expected {a_true.size}")
    bound = lag_error_bound(n, delta, float(a_true[0]))
    worst = float(np.max(np.abs(a_hat - a_true)))
    _require(worst <= bound, f"lag error {worst} exceeds the bound {bound} (n={n}, delta={delta})")
