"""Experiment drivers: trial orchestration, slope fits, CSV and plot output.

Five experiments are provided:

1. estimator comparison (corrected/uncorrected/uniform/no-dither/raw) on a
   coarse quantizer, error versus sample count;
2. convergence order: error versus sample count for two quantization
   levels and two rulers (log-log slope about -1/2);
3. error versus quantization level at fixed sample count for three rulers;
4. total sample complexity (samples times entries per sample) versus
   dimension, full-rank and rank-10 matrices, sparse versus full ruler;
5. banded matrices: thresholded estimator error versus dimension.

Every trial runs one pipeline: the covariance is drawn once per trial
seed, the samples once per ``(seed, n)``, and every estimator arm of the
experiment (tag, ruler, quantization level, dither, correction and
post-processing) is evaluated on that one draw.  Each arm dithers from
the observation stream as it stands right after sampling, so every result
row equals one :func:`simulate_estimate` call at the row's ``(seed, n)``
and configuration columns and is reproducible in isolation.
"""

from __future__ import annotations

import copy
import csv
import math
import os
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from ._seeding import derive_seed, generator_rng, observation_rng
from .bounds import big_k, threshold_zeta
from .estimators import (
    Correction,
    EstimateResult,
    banded_estimate,
    kept_op_norm,
    quantized_estimate,
    relative_error,
    threshold_estimate,
)
from .estimators import ruler_estimate  # noqa: F401  (uncalled; perfbench/tracing.py wraps this binding)
from .exceptions import DomainError, EmptyInputError, InvalidArgumentError
from .quantization import Dither, QuantizerConfig
from .rulers import Ruler, ruler_alpha
from .sampling import GenSpec, gen_banded, gen_toeplitz_vandermonde, observe, sample_gaussian
from .toeplitz import SymToeplitz, toep
from .toeplitz import op_norm  # noqa: F401  (uncalled; perfbench/tracing.py wraps this binding)

__all__ = [
    "Arm",
    "ExperimentConfig",
    "ResultRow",
    "SimResult",
    "draw_truth",
    "simulate_estimate",
    "default_config",
    "run_experiment",
    "fit_loglog_slope",
    "total_complexity",
    "emit_plot_script",
    "TRIAL_SCHEMA",
]

TRIAL_SCHEMA = ("experiment", "d", "alpha", "delta", "n", "tag", "trial", "rel_error", "seconds", "seed")

# estimator tags of experiment 1: (delta scale, dither, correction)
_EXP1_TAGS: dict[str, tuple[float, Dither, Correction]] = {
    "tildeT": (0.0, Dither.NONE, Correction.NONE),
    "hatT": (1.0, Dither.TRIANGULAR, Correction.TRIANGULAR_QUARTER),
    "dotT": (1.0, Dither.TRIANGULAR, Correction.NONE),
    "hatTu": (1.0, Dither.UNIFORM, Correction.UNIFORM_SIXTH),
    "hatTno": (1.0, Dither.NONE, Correction.NONE),
}


@dataclass(frozen=True)
class SimResult:
    """Everything one simulated trial produced."""

    truth: SymToeplitz
    estimate: EstimateResult
    rel_error: float
    zeta: float | None = None


@dataclass(frozen=True)
class Arm:
    """One estimator: ruler, quantizer, diagonal correction and post-processing.

    ``tag`` and ``alpha`` only label result rows.  ``threshold_auto=(c, p)``
    thresholds at ``c * K * sqrt((log|R| + 4p log d) / n)`` with the true
    operator norm in ``K``, so :meth:`estimate` then needs ``truth``.
    """

    tag: str
    alpha: float | None
    ruler: Ruler
    quantizer: QuantizerConfig
    correction: Correction = Correction.TRIANGULAR_QUARTER
    threshold: float | None = None
    threshold_auto: tuple[float, float] | None = None
    band_est: int | None = None

    def estimate(
        self, samples: np.ndarray, rng: np.random.Generator, seed: int, truth: SymToeplitz | None = None
    ) -> tuple[EstimateResult, float | None]:
        """Observe, estimate and post-process ``samples``; return the estimate and its threshold.

        ``rng`` draws the dither and is consumed.  At ``delta == 0`` with no
        correction the estimate is the plain ruler estimator's.
        """
        batch = observe(samples, self.ruler, self.quantizer, rng, seed=seed)
        est = quantized_estimate(batch, self.correction)
        zeta = None
        if self.threshold_auto is not None:
            c, p = self.threshold_auto
            zeta = threshold_zeta(big_k(kept_op_norm(truth), batch.delta), self.ruler.size, truth.d, p, batch.n, c)
        elif self.threshold is not None:
            zeta = float(self.threshold)
        if zeta is not None:
            est = threshold_estimate(est, zeta)
        if self.band_est is not None:
            est = banded_estimate(est, self.band_est)
        return est, zeta


def draw_truth(spec: GenSpec, seed: int, normalize: bool = False) -> SymToeplitz:
    """The covariance of trial ``seed``, drawn from its generator stream.

    With ``normalize`` it is rescaled to unit diagonal.
    """
    g = generator_rng(seed)
    if spec.k is not None:
        truth = gen_toeplitz_vandermonde(spec.d, spec.k, g)
    else:
        truth = gen_banded(spec.d, spec.m, g)
    if normalize:
        truth = toep(truth.a / truth.a[0])
    return truth


@dataclass
class _Trial:
    """One trial seed: its covariance is drawn on first use, then shared."""

    seed: int
    spec: GenSpec
    normalize: bool
    truth: SymToeplitz | None = None

    def run(self, ns: Iterable[int], arms: Sequence[Arm]) -> dict[int, list[tuple[SimResult, float]]]:
        """Per ``n``: one sample draw, then every arm on it, with its seconds."""
        return {n: self._draw(n, arms) for n in ns}

    def _draw(self, n: int, arms: Sequence[Arm]) -> list[tuple[SimResult, float]]:
        # An arm's seconds are its own time plus an equal share of the shared
        # work before it: the samples, and the covariance on the seed's first
        # draw.  So the arms of a trial sum to the trial's wall time.
        start = time.perf_counter()
        if self.truth is None:
            self.truth = draw_truth(self.spec, self.seed, self.normalize)
        rng = observation_rng(self.seed, n)
        samples = sample_gaussian(self.truth, n, rng)
        share = (time.perf_counter() - start) / len(arms)
        out = []
        for arm in arms:
            start = time.perf_counter()
            est, zeta = arm.estimate(samples, copy.deepcopy(rng), self.seed, self.truth)
            sim = SimResult(self.truth, est, relative_error(self.truth, est, "op"), zeta)
            out.append((sim, time.perf_counter() - start + share))
        return out


def simulate_estimate(
    spec: GenSpec,
    n: int,
    seed: int,
    *,
    alpha: float = 1.0,
    indices: Sequence[int] | None = None,
    delta: float = 0.0,
    dither: Dither = Dither.TRIANGULAR,
    correction: Correction = Correction.NONE,
    normalize: bool = False,
    threshold: float | None = None,
    threshold_auto: tuple[float, float] | None = None,
    band_est: int | None = None,
) -> SimResult:
    """Run one fully seeded trial: draw, sample, observe, estimate.

    The covariance of recipe ``spec`` comes from the generator stream of
    ``seed``; samples and dither come from the observation stream of
    ``(seed, n)``.  With ``normalize`` the matrix is rescaled to unit
    diagonal so that the quantization level is measured against
    unit-variance coordinates.  The remaining settings are those of
    :class:`Arm`.
    """
    ruler = Ruler(spec.d, np.asarray(indices)) if indices is not None else ruler_alpha(spec.d, alpha)
    arm = Arm(
        "", alpha, ruler, QuantizerConfig(delta, dither), Correction(correction), threshold, threshold_auto, band_est
    )
    return _Trial(seed, spec, normalize).run([n], [arm])[n][0][0]


@dataclass(frozen=True)
class ResultRow:
    experiment: int
    d: int
    alpha: float
    delta: float
    n: int
    tag: str
    trial: int
    rel_error: float
    seconds: float
    seed: int

    def key(self) -> tuple:
        return (self.d, self.alpha, self.delta, self.n, self.tag, self.trial)

    def csv_values(self) -> list[str]:
        return [
            str(self.experiment),
            str(self.d),
            repr(float(self.alpha)),
            repr(float(self.delta)),
            str(self.n),
            self.tag,
            str(self.trial),
            repr(float(self.rel_error)),
            f"{self.seconds:.6f}",
            str(self.seed),
        ]


@dataclass
class ExperimentConfig:
    """Settings for one experiment run; defaults via :func:`default_config`."""

    experiment: int
    out_dir: Path = Path("results")
    seed: int = 0
    trials: int = 20
    threads: int = 1
    d: int = 16
    d_grid: tuple[int, ...] = ()
    n_grid: tuple[int, ...] = ()
    deltas: tuple[float, ...] = ()
    alphas: tuple[float, ...] = ()
    num_freqs: int = 8
    rank_freqs: int = 5
    bandwidth: int = 5
    eps: float = 0.1
    n_cap: int = 1 << 17
    thresh_c: float = 0.07
    thresh_p: float = 2.0
    normalize: bool = True
    variants: tuple[str, ...] = ("fullrank", "rank10")

    def __post_init__(self) -> None:
        if self.experiment not in (1, 2, 3, 4, 5):
            raise InvalidArgumentError(f"experiment must be 1..5, got {self.experiment}")
        if self.trials < 1:
            raise InvalidArgumentError(f"trials must be >= 1, got {self.trials}")
        if self.threads < 1:
            raise InvalidArgumentError(f"threads must be >= 1, got {self.threads}")
        if any(b <= a for a, b in zip((0,) + tuple(self.n_grid), self.n_grid)):
            raise InvalidArgumentError(f"n grid must be positive and strictly increasing, got {self.n_grid}")
        for name, sizes in _READS[self.experiment].items():
            if sizes is None:
                continue
            fewest, most = sizes
            values = getattr(self, name)
            if not fewest <= len(values) <= most:
                want = "no" if most == 0 else f"exactly {fewest}" if fewest == most else f"at least {fewest}"
                raise InvalidArgumentError(
                    f"experiment {self.experiment} takes {want} {name} value(s), got {tuple(values)}"
                )
        if not self.variants or not set(self.variants) <= set(_VARIANTS):
            raise InvalidArgumentError(f"variants must be a non-empty subset of {_VARIANTS}, got {self.variants}")
        # build every recipe and ruler of the run, so a dimension that cannot
        # take them fails here rather than after the dimensions before it ran
        dims = (self.d,) if self.experiment in (1, 2, 3) else self.d_grid
        for d in dims:
            for variant in self.variants if self.experiment == 4 else (None,):
                self.spec(d, variant)
        self._rulers = {(d, alpha): ruler_alpha(d, alpha) for d in dims for alpha in self.alphas}
        self.out_dir = Path(self.out_dir)

    def ruler(self, d: int, alpha: float) -> Ruler:
        """The run's ruler of parameter ``alpha`` at dimension ``d``, built once in ``__post_init__``."""
        return self._rulers[d, alpha]

    def spec(self, d: int, variant: str | None = None) -> GenSpec:
        """The covariance recipe of the run's trials at dimension ``d``.

        Experiment 4's full-rank variant mixes ``d // 2`` modes and its
        rank10 variant ``rank_freqs``; experiment 5 is banded at
        ``bandwidth``; experiments 1-3 mix ``num_freqs`` modes.
        """
        if self.experiment == 5:
            return GenSpec(d, m=self.bandwidth)
        if self.experiment == 4:
            return GenSpec(d, k=self.rank_freqs if variant == "rank10" else max(1, d // 2))
        return GenSpec(d, k=self.num_freqs)


_VARIANTS = ("fullrank", "rank10")

# field -> what each experiment reads of it: (fewest, most) values of a
# grid, or None for a scalar.  Experiments 1-3 run at ``d`` and 4-5 over
# ``d_grid``; experiment 2 fits a line through its n values; experiment 4
# searches n itself; experiment 5 is one point per d.  A grid listed as
# (0, 0) must stay empty.  Every experiment also reads the fields in
# ``_READ_BY_ALL``; default_config rejects setting any other field.
_ANY = math.inf
_READ_BY_ALL = ("seed", "out_dir", "trials", "threads", "normalize")
_READS: dict[int, dict[str, tuple[float, float] | None]] = {
    1: dict(d_grid=(0, 0), n_grid=(1, _ANY), deltas=(1, _ANY), alphas=(1, _ANY), d=None, num_freqs=None),
    2: dict(d_grid=(0, 0), n_grid=(3, _ANY), deltas=(1, _ANY), alphas=(1, _ANY), d=None, num_freqs=None),
    3: dict(d_grid=(0, 0), n_grid=(1, 1), deltas=(1, _ANY), alphas=(1, _ANY), d=None, num_freqs=None),
    4: dict(
        d_grid=(1, _ANY), n_grid=(0, 0), deltas=(1, 1), alphas=(1, _ANY),
        rank_freqs=None, eps=None, n_cap=None, variants=None,
    ),
    5: dict(
        d_grid=(1, _ANY), n_grid=(1, 1), deltas=(1, 1), alphas=(1, 1),
        bandwidth=None, thresh_c=None, thresh_p=None,
    ),
}


_DEFAULTS: dict[int, dict] = {
    1: dict(
        d=16,
        n_grid=(100, 316, 1000, 3162, 10000, 31623, 100000),
        deltas=(5.0,),
        alphas=(0.5,),
        normalize=True,
    ),
    2: dict(
        d=16,
        n_grid=(100, 316, 1000, 3162, 10000),
        deltas=(2.0, 5.0),
        alphas=(0.5, 1.0),
        normalize=True,
    ),
    3: dict(
        d=16,
        n_grid=(1000,),
        deltas=(0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0),
        alphas=(0.5, 0.75, 1.0),
        normalize=True,
    ),
    4: dict(
        d_grid=(16, 32, 64, 128, 256, 512),
        n_grid=(),
        deltas=(2.0,),
        alphas=(0.5, 1.0),
        normalize=False,
    ),
    5: dict(
        d_grid=(32, 64, 128),
        n_grid=(1000,),
        deltas=(0.5,),
        alphas=(0.5,),
        bandwidth=5,
        normalize=False,
    ),
}


def default_config(experiment: int, **overrides) -> ExperimentConfig:
    """Config with this package's documented defaults for one experiment."""
    if experiment not in _DEFAULTS:
        raise InvalidArgumentError(f"experiment must be 1..5, got {experiment}")
    unread = [name for name in overrides if name not in _READS[experiment] and name not in _READ_BY_ALL]
    if unread:
        raise InvalidArgumentError(f"experiment {experiment} does not use {', '.join(unread)}")
    params = dict(_DEFAULTS[experiment])
    params.update(overrides)
    return ExperimentConfig(experiment=experiment, **params)


def fit_loglog_slope(points: Iterable[tuple[float, float]]) -> dict[str, float]:
    """Least-squares line through ``(log10 n, log10 error)`` pairs."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise DomainError(f"need at least 3 points, got {len(pts)}")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise DomainError("log-log fit requires strictly positive coordinates")
    lx = np.log10([x for x, _ in pts])
    ly = np.log10([y for _, y in pts])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(ly - ly.mean(), ly - ly.mean()))
    r2 = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    return {"slope": float(slope), "intercept": float(intercept), "r2": r2}


def total_complexity(vsc: int, esc: int) -> int:
    """Total sampled entries: sample count times entries observed per sample."""
    if vsc < 1 or esc < 1:
        raise InvalidArgumentError("vsc and esc must be >= 1")
    return int(vsc) * int(esc)


@dataclass
class ExperimentOutput:
    config: ExperimentConfig
    rows: list[ResultRow]
    medians: list[dict]
    summary: list[dict] = field(default_factory=list)
    paths: list[Path] = field(default_factory=list)


def _median(values: Iterable[float]) -> float:
    return float(np.median(list(values)))


class _Runner:
    def __init__(self, cfg: ExperimentConfig, progress: Callable[[str], None] | None):
        self.cfg = cfg
        self.note = progress or (lambda msg: None)
        self.rows: list[ResultRow] = []
        self.medians: list[dict] = []
        self.summary: list[dict] = []

    def seeded_trials(self, spec: GenSpec, *key: int) -> list[_Trial]:
        """The run's trials of recipe ``spec`` at seeds ``(cfg.seed, *key, trial)``."""
        cfg = self.cfg
        return [_Trial(derive_seed(cfg.seed, *key, t), spec, cfg.normalize) for t in range(cfg.trials)]

    def run_trials(
        self, trials: list[_Trial], ns: Sequence[int], arms: Sequence[Arm]
    ) -> dict[tuple[int, int], list[tuple[SimResult, float]]]:
        """Every trial at every n, trials spread over the workers.

        Returns ``{(n, arm index): [(result, seconds) per trial]}``.
        """

        def run(trial: _Trial) -> dict[int, list[tuple[SimResult, float]]]:
            return trial.run(ns, arms)

        if self.cfg.threads > 1:
            with ThreadPoolExecutor(max_workers=self.cfg.threads) as pool:
                per_trial = list(pool.map(run, trials))
        else:
            per_trial = list(map(run, trials))
        return {(n, i): [draws[n][i] for draws in per_trial] for n in ns for i in range(len(arms))}

    def record(
        self, d: int, n: int, arm: Arm, trials: list[_Trial], cell: list[tuple[SimResult, float]]
    ) -> float:
        """Add one row per trial and the median row of one (d, n, arm) cell; return the median."""
        cfg = self.cfg
        delta = arm.quantizer.delta
        for t, (trial, (sim, secs)) in enumerate(zip(trials, cell)):
            self.rows.append(
                ResultRow(cfg.experiment, d, arm.alpha, delta, n, arm.tag, t, sim.rel_error, secs, trial.seed)
            )
        med = _median(sim.rel_error for sim, _ in cell)
        self.medians.append(
            {
                "experiment": cfg.experiment,
                "d": d,
                "alpha": arm.alpha,
                "delta": delta,
                "n": n,
                "tag": arm.tag,
                "trials": cfg.trials,
                "median_rel_error": med,
            }
        )
        return med

    # ----- experiments 1..3: error curves over a grid -----

    def run_curves(self) -> None:
        cfg = self.cfg
        if cfg.experiment == 1:
            arms = [
                Arm(tag, alpha, cfg.ruler(cfg.d, alpha), QuantizerConfig(delta * scale, dither), corr)
                for alpha in cfg.alphas
                for di, delta in enumerate(cfg.deltas)
                for tag, (scale, dither, corr) in _EXP1_TAGS.items()
                # the raw-sample baseline is delta-independent; emit it once
                if scale != 0.0 or di == 0
            ]
        else:
            arms = [
                Arm("hatT", alpha, cfg.ruler(cfg.d, alpha), QuantizerConfig(delta, Dither.TRIANGULAR))
                for alpha in cfg.alphas
                for delta in cfg.deltas
            ]
        trials = self.seeded_trials(cfg.spec(cfg.d), cfg.experiment)
        cells = self.run_trials(trials, cfg.n_grid, arms)

        for i, arm in enumerate(arms):
            meds = [self.record(cfg.d, n, arm, trials, cells[(n, i)]) for n in cfg.n_grid]
            self.note(
                f"experiment {cfg.experiment}: finished series alpha={arm.alpha} "
                f"delta={arm.quantizer.delta} tag={arm.tag}"
            )
            if cfg.experiment == 2:
                fit = fit_loglog_slope(zip(cfg.n_grid, meds))
                self.summary.append(
                    {
                        "experiment": 2,
                        "d": cfg.d,
                        "alpha": arm.alpha,
                        "delta": arm.quantizer.delta,
                        "tag": arm.tag,
                        "slope": fit["slope"],
                        "intercept": fit["intercept"],
                        "r2": fit["r2"],
                    }
                )

    # ----- experiment 4: total complexity versus dimension -----

    def run_total_complexity(self) -> None:
        cfg = self.cfg
        quantizer = QuantizerConfig(cfg.deltas[0], Dither.TRIANGULAR)
        for vi, tag in enumerate(_VARIANTS):
            if tag not in cfg.variants:
                continue
            for ai, alpha in enumerate(cfg.alphas):
                for d in cfg.d_grid:
                    arm = Arm(tag, alpha, cfg.ruler(d, alpha), quantizer)
                    trials = self.seeded_trials(cfg.spec(d, tag), 4, vi, ai, d)
                    medians: dict[int, float] = {}

                    def probe(n: int) -> float:
                        if n not in medians:
                            cell = self.run_trials(trials, [n], [arm])[(n, 0)]
                            medians[n] = self.record(d, n, arm, trials, cell)
                        return medians[n]

                    n_star, capped = self._bisect(probe, cfg.eps, cfg.n_cap)
                    esc = arm.ruler.size
                    self.summary.append(
                        {
                            "experiment": 4,
                            "tag": tag,
                            "alpha": alpha,
                            "d": d,
                            "esc": esc,
                            "n_star": n_star,
                            "total": total_complexity(n_star, esc),
                            "capped": int(capped),
                        }
                    )
                    self.note(
                        f"experiment 4: {tag} alpha={alpha} d={d}: n*={n_star}"
                        f"{' (capped)' if capped else ''} esc={esc}"
                    )

    @staticmethod
    def _bisect(probe: Callable[[int], float], eps: float, cap: int) -> tuple[int, bool]:
        """Smallest n (within ~5%) whose median error meets eps, doubling then halving."""
        if probe(1) <= eps:
            return 1, False
        lo, hi = 1, 2
        while probe(hi) > eps:
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

    # ----- experiment 5: banded matrices, thresholded estimator -----

    def run_banded(self) -> None:
        cfg = self.cfg
        (n,), (delta,), (alpha,) = cfg.n_grid, cfg.deltas, cfg.alphas
        m = cfg.bandwidth
        quantizer = QuantizerConfig(delta, Dither.TRIANGULAR)
        for d in cfg.d_grid:
            ruler = cfg.ruler(d, alpha)
            arms = [
                Arm("hatT", alpha, ruler, quantizer),
                Arm("breveZeta", alpha, ruler, quantizer, threshold_auto=(cfg.thresh_c, cfg.thresh_p)),
                Arm("breveM", alpha, ruler, quantizer, band_est=m),
            ]
            trials = self.seeded_trials(cfg.spec(d), 5)
            cells = self.run_trials(trials, [n], arms)
            meds = [self.record(d, n, arm, trials, cells[(n, i)]) for i, arm in enumerate(arms)]
            thresh = [sim for sim, _ in cells[(n, 1)]]
            tail_zero = np.mean([np.all(s.estimate.a_hat[m:] == 0.0) for s in thresh])
            survival = np.mean([np.all(s.estimate.a_hat[:m] != 0.0) for s in thresh])
            self.summary.append(
                {
                    "experiment": 5,
                    "tag": "breveZeta",
                    "d": d,
                    "n": n,
                    "delta": delta,
                    "median_rel_error": meds[1],
                    "median_zeta": _median([s.zeta for s in thresh]),
                    "tail_zero_fraction": float(tail_zero),
                    "nonzero_survival_fraction": float(survival),
                }
            )
            self.note(
                f"experiment 5: d={d}: tail-zero {tail_zero:.3f}, survival {survival:.3f}"
            )


def run_experiment(
    cfg: ExperimentConfig, progress: Callable[[str], None] | None = None
) -> ExperimentOutput:
    """Run one experiment, write its CSVs and plot script, return everything.

    Output is deterministic for a fixed config seed except for the
    wall-time ``seconds`` column of the trial CSV.
    """
    runner = _Runner(cfg, progress)
    if cfg.experiment in (1, 2, 3):
        runner.run_curves()
    elif cfg.experiment == 4:
        runner.run_total_complexity()
    else:
        runner.run_banded()

    runner.rows.sort(key=ResultRow.key)
    out = ExperimentOutput(cfg, runner.rows, runner.medians, runner.summary)
    out.paths = _write_outputs(out)
    return out


def _write_outputs(out: ExperimentOutput) -> list[Path]:
    """Write every output file of a run, or none of them.

    The files are written to a temporary directory inside ``out_dir`` and
    moved into place only once all of them are complete.
    """
    out_dir = out.config.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".partial-", dir=out_dir) as staging:
        staged = _write_files(out, Path(staging))
        for path in staged:
            os.replace(path, out_dir / path.name)
    return [out_dir / path.name for path in staged]


def _write_files(out: ExperimentOutput, directory: Path) -> list[Path]:
    cfg = out.config
    paths = []

    trial_path = directory / f"experiment{cfg.experiment}.csv"
    with open(trial_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIAL_SCHEMA)
        for row in out.rows:
            writer.writerow(row.csv_values())
    paths.append(trial_path)

    median_path = directory / f"experiment{cfg.experiment}_medians.csv"
    _write_dicts(median_path, out.medians)
    paths.append(median_path)

    if out.summary:
        name = "slopes" if cfg.experiment == 2 else "summary"
        summary_path = directory / f"experiment{cfg.experiment}_{name}.csv"
        _write_dicts(summary_path, out.summary)
        paths.append(summary_path)

    source = paths[-1] if cfg.experiment == 4 else median_path
    paths.append(emit_plot_script(source))
    return paths


def _write_dicts(path: Path, records: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        if not records:
            return
        writer = csv.DictWriter(fh, fieldnames=list(records[0].keys()))
        writer.writeheader()
        writer.writerows(records)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def emit_plot_script(csv_path: str | Path) -> Path:
    """Write a gnuplot script next to a medians or summary CSV.

    Error-versus-samples experiments get log-log axes; the quantization
    sweep and the banded experiment are linear in x; the complexity
    summary is plotted log-log in dimension.  Data is inlined so the
    script is self-contained.
    """
    csv_path = Path(csv_path)
    if not csv_path.exists():
        raise EmptyInputError(f"no such CSV: {csv_path}")
    records = _read_csv(csv_path)
    if not records:
        raise EmptyInputError(f"CSV has no data rows: {csv_path}")

    exp = int(records[0]["experiment"])
    if "total" in records[0]:
        x_field, y_field = "d", "total"
        series_fields = ("tag", "alpha")
        logscale, xlabel, ylabel = "xy", "dimension d", "total samples (n x |R|)"
    elif exp in (1, 2):
        x_field = "n"
        y_field = "median_rel_error" if "median_rel_error" in records[0] else "rel_error"
        series_fields = ("tag", "alpha", "delta")
        logscale, xlabel, ylabel = "xy", "samples n", "relative error"
    elif exp == 3:
        x_field, y_field = "delta", "median_rel_error"
        series_fields = ("tag", "alpha")
        logscale, xlabel, ylabel = "", "quantization level", "relative error"
    else:
        x_field, y_field = "d", "median_rel_error"
        series_fields = ("tag",)
        logscale, xlabel, ylabel = "", "dimension d", "relative error"

    series: dict[tuple, list[tuple[float, float]]] = {}
    for rec in records:
        key = tuple(rec.get(f, "") for f in series_fields)
        series.setdefault(key, []).append((float(rec[x_field]), float(rec[y_field])))

    script_path = csv_path.with_suffix(".gp")
    lines = [
        f"# generated from {csv_path.name}",
        "set terminal pngcairo size 960,640",
        f'set output "{csv_path.stem}.png"',
        f'set xlabel "{xlabel}"',
        f'set ylabel "{ylabel}"',
        "set key outside",
    ]
    if logscale:
        lines.append(f"set logscale {logscale}")
    blocks = []
    plots = []
    for i, (key, pts) in enumerate(sorted(series.items())):
        name = f"$series{i}"
        title = " ".join(f"{f}={v}" for f, v in zip(series_fields, key) if v != "")
        blocks.append(name + " << EOD")
        blocks.extend(f"{x} {y}" for x, y in sorted(pts))
        blocks.append("EOD")
        plots.append(f'{name} using 1:2 with linespoints title "{title}"')
    lines.extend(blocks)
    lines.append("plot \\\n  " + ", \\\n  ".join(plots))
    script_path.write_text("\n".join(lines) + "\n")
    return script_path
