"""Experiment drivers: trial orchestration, slope fits, CSV and plot output.

Five experiments are provided, each described by its ``_EXPERIMENTS`` entry:

1. estimator comparison (corrected/uncorrected/uniform/no-dither/raw) on a
   coarse quantizer, error versus sample count;
2. convergence order: error versus sample count for two quantization
   levels and two rulers (log-log slope about -1/2);
3. error versus quantization level at fixed sample count for three rulers;
4. total sample complexity (samples times entries per sample) versus
   dimension, full-rank and rank-10 matrices, sparse versus full ruler;
5. banded matrices: thresholded estimator error versus dimension.

A covariance is described by its ``GenSpec`` recipe, an estimator by its
:class:`Arm` (ruler, quantizer, correction and post-processing).  Every
trial runs one pipeline: the covariance is drawn once per trial seed, the
samples once per ``(seed, n, ruler)`` on that ruler's columns only, each
distinct quantizer of a ruler's arms observes that draw once, and every
arm runs its own correction, post-processing and score on its
quantizer's observation.  Each ruler's draw starts from the observation
stream of ``(seed, n)``, and its state right after the samples is kept.
Every quantizer's dither is the U[0, 1) planes of the stream from that
state, scaled to its level: where two or more quantizers of the ruler
dither and the planes fit ``_SHARED_PLANES``, the planes are drawn once,
as many as the most any quantizer reads (one for uniform, two for
triangular dither), and shared; otherwise each quantizer draws its own
from the kept state.  Both are bit for bit a lone arm's dither.  So every
result row equals one ``simulate_estimate(spec, n, seed, arm)`` call with
the row's recipe, ``(seed, n)`` and arm, and is reproducible in isolation.
An arm's ``seconds`` is its own time plus an equal share of its
quantizer's observation and an equal share of its ruler's draw of
samples and planes.

Experiments 1, 2, 3 and 5 run their trials in the calling thread.
Experiment 4 runs its searches on a thread pool of one worker per CPU the
process may run on, each search running its probes and their trials in
one worker; the calling thread records the results in series order.
Every trial runs with OpenBLAS on one thread, so the output does not
depend on the number of CPUs.  Experiment 4's trials spend their time in
LAPACK, which runs beside the other workers, while the small numpy calls
of the grid experiments mostly wait for each other, and each worker
thread's memory arena would keep its own peak.
"""

from __future__ import annotations

import csv
import math
import os
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence, TextIO

import numpy as np

from ._blas import single_blas_thread
from ._seeding import derive_seed, generator_rng, observation_rng
from .bounds import big_k, threshold_zeta
from .estimators import (
    Correction,
    banded_estimate,
    kept_op_norm,
    quantized_estimate,
    relative_error,
    threshold_estimate,
)
from .estimators import ruler_estimate  # noqa: F401  (uncalled; perfbench/tracing.py wraps this binding)
from .exceptions import InvalidArgumentError, _shown, _shown_tuple, require_integer, require_real, require_sizable
from .quantization import Dither, QuantizerConfig
from .rulers import Ruler, ruler_alpha
from .sampling import GenSpec, SampleBatch, gen_banded, gen_toeplitz_vandermonde, observe, sample_gaussian
from .toeplitz import SymToeplitz
from .toeplitz import op_norm  # noqa: F401  (uncalled; perfbench/tracing.py wraps this binding)

__all__ = [
    "Arm",
    "ExperimentConfig",
    "ResultRow",
    "SimResult",
    "THRESHOLD_AUTO",
    "draw_truth",
    "simulate_estimate",
    "run_experiment",
    "fit_loglog_slope",
    "emit_plot_script",
    "TRIAL_SCHEMA",
]

# (c, p) of the calibrated threshold c * K * sqrt((log|R| + 4p log d) / n)
THRESHOLD_AUTO = (0.07, 2.0)

# doubles of U[0, 1) planes (k planes of the (n, |R|) samples) that the
# dithering quantizers of one ruler's draw may share: 1 Mi, 8 MiB.  Above
# it each quantizer draws its own dither from the state kept after the
# samples, so no planes are held beside the samples and the rows.  Measured
# in process on one BLAS thread of a 2-vCPU host: experiment 1's n = 100000
# planes (1.4 M doubles) regenerate in the time they are scaled, 3 plane
# draws against 2 draws plus 3 scale passes (45-46 ms a draw either way),
# while experiment 3 (10 dithering quantizers per ruler, planes far below
# the bound) ran 30-40 % slower when every quantizer regenerated its planes.
_SHARED_PLANES = 1 << 20

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
    estimate: SymToeplitz
    rel_error: float
    zeta: float | None = None


@dataclass(frozen=True)
class Arm:
    """One estimator: ruler, quantizer, diagonal correction and post-processing.

    ``tag`` and ``alpha`` only label result rows.  ``threshold_auto``
    thresholds at the ``THRESHOLD_AUTO`` level, which reads the true
    operator norm, so :meth:`estimate_batch` then needs ``truth``.  At most one
    post-processing is set: ``threshold``, ``threshold_auto`` or ``band_est``.
    """

    tag: str
    alpha: float | None
    ruler: Ruler
    quantizer: QuantizerConfig
    correction: Correction = Correction.TRIANGULAR_QUARTER
    threshold: float | None = None
    threshold_auto: bool = False
    band_est: int | None = None

    def __post_init__(self) -> None:
        if sum((self.threshold is not None, bool(self.threshold_auto), self.band_est is not None)) > 1:
            raise InvalidArgumentError("an arm takes at most one of threshold, threshold_auto and band_est")
        # the checks of threshold_estimate and banded_estimate, which would reject them only after the work
        if self.threshold is not None:
            require_real("zeta", self.threshold, 0)
        if self.band_est is not None:
            require_integer("bandwidth", self.band_est, 1, self.ruler.d)

    def estimate_batch(self, batch: SampleBatch, truth: SymToeplitz | None = None) -> tuple[SymToeplitz, float | None]:
        """Estimate and post-process ``batch``, observed by ``quantizer``; return the estimate and its threshold."""
        est = quantized_estimate(batch, self.correction)
        zeta = None
        if self.threshold_auto:
            if truth is None:
                raise InvalidArgumentError("the oracle threshold needs the true matrix")
            c, p = THRESHOLD_AUTO
            zeta = threshold_zeta(big_k(kept_op_norm(truth), batch.delta), self.ruler.size, truth.d, p, batch.n, c)
        elif self.threshold is not None:
            zeta = float(self.threshold)
        if zeta is not None:
            est = threshold_estimate(est, zeta)
        if self.band_est is not None:
            est = banded_estimate(est, self.band_est)
        return est, zeta


def draw_truth(spec: GenSpec, seed: int) -> SymToeplitz:
    """The covariance of trial ``seed``, drawn from its generator stream.

    With ``spec.normalize`` it is rescaled to unit diagonal: ``a / a[0]``,
    so the diagonal is exactly 1.0, and a mixture's powers are divided by
    ``a[0]`` too, so it keeps its exact factor.
    """
    require_integer("seed", seed, 0)
    g = generator_rng(seed)
    if spec.k is not None:
        truth = gen_toeplitz_vandermonde(spec.d, spec.k, g)
    else:
        truth = gen_banded(spec.d, spec.m, g)
    if spec.normalize:
        scale = truth.a[0]
        modes = None if truth.modes is None else (truth.modes[0], truth.modes[1] / scale)
        truth = SymToeplitz(truth.a / scale, modes)
    return truth


class _Outcome(NamedTuple):
    """What one arm produced on one trial at one n: its estimate, not the covariance."""

    estimate: SymToeplitz
    zeta: float | None
    rel_error: float
    seconds: float
    seed: int


@dataclass
class _Trial:
    """One trial seed: its covariance is drawn on first use, then shared by every draw."""

    seed: int
    spec: GenSpec
    truth: SymToeplitz | None = None

    def draw(self, n: int, arms: Sequence[Arm]) -> list[_Outcome]:
        """One sample draw of ``n`` per ruler, one observation of it per quantizer, then every arm's outcome."""
        # An arm's seconds are its own time plus an equal share of its
        # quantizer's observation and an equal share of its ruler's draw of
        # samples and dither planes, the seed's covariance included on its
        # first draw.  So the arms of a trial sum to the trial's wall time.
        by_ruler: dict[Ruler, dict[QuantizerConfig, list[int]]] = {}
        for i, arm in enumerate(arms):
            by_ruler.setdefault(arm.ruler, {}).setdefault(arm.quantizer, []).append(i)
        out: list[_Outcome] = [None] * len(arms)
        for ruler, by_quantizer in by_ruler.items():
            start = time.perf_counter()
            if self.truth is None:
                self.truth = draw_truth(self.spec, self.seed)
            # every ruler's draw starts from the same stream, so each row
            # depends only on its own ruler
            rng = observation_rng(self.seed, n)
            samples = sample_gaussian(self.truth, n, rng, ruler.indices)
            # every dither is the next uniforms of the stream: shared planes
            # drawn from it once, or drawn by each quantizer from this state
            state, dither = rng.bit_generator.state, rng
            planes = [q.planes for q in by_quantizer if q.planes]
            if len(planes) > 1 and max(planes) * samples.size <= _SHARED_PLANES:
                dither = rng.random((max(planes), *samples.shape))
            share = (time.perf_counter() - start) / sum(map(len, by_quantizer.values()))
            for quantizer, group in by_quantizer.items():
                start = time.perf_counter()
                rng.bit_generator.state = state
                batch = observe(samples, ruler, quantizer, dither)
                observed = (time.perf_counter() - start) / len(group) + share
                for i in group:
                    start = time.perf_counter()
                    est, zeta = arms[i].estimate_batch(batch, self.truth)
                    err = relative_error(self.truth, est, "op")
                    out[i] = _Outcome(est, zeta, err, time.perf_counter() - start + observed, self.seed)
                # the next observation would otherwise run beside this one's rows
                del batch
        return out


def simulate_estimate(spec: GenSpec, n: int, seed: int, arm: Arm) -> SimResult:
    """Run one fully seeded trial of ``arm``: draw, sample, observe, estimate.

    The covariance of recipe ``spec`` comes from the generator stream of
    ``seed``; samples and dither come from the observation stream of
    ``(seed, n)``.  OpenBLAS runs on one thread, as in every trial of an
    experiment.
    """
    require_integer("sample count", n, 1)
    require_integer("seed", seed, 0)
    if arm.ruler.d != spec.d:
        raise InvalidArgumentError(f"the arm's ruler is for dimension {arm.ruler.d}, the recipe's is {_shown(spec.d)}")
    trial = _Trial(seed, spec)
    with single_blas_thread():
        (outcome,) = trial.draw(n, [arm])
    return SimResult(trial.truth, outcome.estimate, outcome.rel_error, outcome.zeta)


class ResultRow(NamedTuple):
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


TRIAL_SCHEMA = ResultRow._fields


@dataclass
class ExperimentConfig:
    """Settings for one experiment run.

    A per-experiment field left ``None`` takes the experiment's default from
    ``_EXPERIMENTS``; a field the experiment does not read must stay ``None``.
    """

    experiment: int
    out_dir: Path = Path("results")
    seed: int = 0
    trials: int = 20
    d: int | None = None
    d_grid: tuple[int, ...] | None = None
    n_grid: tuple[int, ...] | None = None
    deltas: tuple[float, ...] | None = None
    alphas: tuple[float, ...] | None = None
    bandwidth: int | None = None
    eps: float | None = None
    n_cap: int | None = None
    variants: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        require_integer("experiment", self.experiment)
        if self.experiment not in _EXPERIMENTS:
            raise InvalidArgumentError(f"experiment must be one of {sorted(_EXPERIMENTS)}, got {_shown(self.experiment)}")
        reads, sizes = _EXPERIMENTS[self.experiment].reads, _EXPERIMENTS[self.experiment].sizes
        # a field defaulting to None is per-experiment, its default in the
        # table: every other field is read by all
        per_experiment = [f.name for f in fields(self) if f.default is None]
        unread = [name for name in per_experiment if name not in reads and getattr(self, name) is not None]
        if unread:
            raise InvalidArgumentError(f"experiment {self.experiment} does not use {', '.join(unread)}")
        for name, default in reads.items():
            if getattr(self, name) is None:
                setattr(self, name, default)
            fewest, most = sizes.get(name, (1, math.inf))
            if isinstance(default, tuple) and not fewest <= len(getattr(self, name)) <= most:
                want = f"exactly {fewest}" if fewest == most else f"at least {fewest}"
                raise InvalidArgumentError(
                    f"experiment {self.experiment} takes {want} {name} value(s), got {_shown_tuple(getattr(self, name))}"
                )
        for name in _INTEGERS:
            value = getattr(self, name)
            for v in () if value is None else value if name.endswith("_grid") else (value,):
                require_integer(name, v, 0 if name == "seed" else 1)
        if self.eps is not None:
            require_real("eps", self.eps, 0, low_open=True)
        if self.n_grid is not None and any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise InvalidArgumentError(f"n grid must be strictly increasing, got {_shown_tuple(self.n_grid)}")
        for name in ("d_grid", "deltas", "alphas"):
            values = getattr(self, name)
            if values is not None and len(set(values)) < len(values):
                raise InvalidArgumentError(f"{name} must not repeat a value, got {_shown_tuple(values)}")
        if self.variants is not None and not set(self.variants) <= set(_VARIANTS):
            raise InvalidArgumentError(f"variants must be a non-empty subset of {_VARIANTS}, got {self.variants}")
        # build every recipe, ruler and quantizer of the run, so a value that
        # cannot take them fails here rather than after the trials before it ran
        dims = self.d_grid if self.d_grid is not None else (self.d,)
        for d in dims:
            for variant in self.variants or (None,):
                self.spec(d, variant)
        self._rulers = {(d, alpha): ruler_alpha(d, alpha) for d in dims for alpha in self.alphas}
        for delta in self.deltas:
            QuantizerConfig(delta)
        # every n draws an (n, |R|) float64 block, at most (n, d): each n of
        # the grid, and the cap that experiment 4's search may reach
        for name, n in (("n grid value", None if self.n_grid is None else max(self.n_grid)), ("n_cap", self.n_cap)):
            if n is not None:
                require_sizable(n * max(dims), f"{name} too large for an (n, {max(dims)}) sample block, got {_shown(n)}")
        self.out_dir = Path(self.out_dir)

    def ruler(self, d: int, alpha: float) -> Ruler:
        """The run's ruler of parameter ``alpha`` at dimension ``d``, built once in ``__post_init__``."""
        return self._rulers[d, alpha]

    def spec(self, d: int, variant: str | None = None) -> GenSpec:
        """The covariance recipe of the run's trials at dimension ``d`` (and experiment 4 ``variant``)."""
        return _EXPERIMENTS[self.experiment].recipe(self, d, variant)


def fit_loglog_slope(points: Iterable[tuple[float, float]]) -> dict[str, float]:
    """Least-squares line through ``(log10 n, log10 error)`` pairs."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise InvalidArgumentError(f"need at least 3 points, got {len(pts)}")
    if not all(0 < v < math.inf for pt in pts for v in pt):
        raise InvalidArgumentError("log-log fit requires strictly positive coordinates, all finite")
    lx = np.log10([x for x, _ in pts])
    ly = np.log10([y for _, y in pts])
    if np.unique(lx).size < 2:
        raise InvalidArgumentError(f"need at least 2 distinct x, got {sorted({x for x, _ in pts})}")
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(ly - ly.mean(), ly - ly.mean()))
    r2 = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    return {"slope": float(slope), "intercept": float(intercept), "r2": r2}


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
        self.out = ExperimentOutput(cfg, [], [])

    def seeded_trials(self, spec: GenSpec, *key: int) -> list[_Trial]:
        """The run's trials of recipe ``spec`` at seeds ``(cfg.seed, *key, trial)``."""
        cfg = self.cfg
        return [_Trial(derive_seed(cfg.seed, *key, t), spec) for t in range(cfg.trials)]

    def record(self, n: int, arm: Arm, outcomes: Sequence[_Outcome]) -> float:
        """Add one row per trial and the median row of one (n, arm) cell; return the median."""
        cfg, d = self.cfg, arm.ruler.d
        alpha, delta = float(arm.alpha), float(arm.quantizer.delta)
        for t, o in enumerate(outcomes):
            row = ResultRow(cfg.experiment, d, alpha, delta, n, arm.tag, t, float(o.rel_error), o.seconds, o.seed)
            self.out.rows.append(row)
        med = _median(o.rel_error for o in outcomes)
        self.out.medians.append(
            {
                "experiment": cfg.experiment,
                "d": d,
                "alpha": arm.alpha,
                "delta": arm.quantizer.delta,
                "n": n,
                "tag": arm.tag,
                "trials": cfg.trials,
                "median_rel_error": med,
            }
        )
        return med

    def run_grid(self) -> None:
        """Experiments 1, 2, 3 and 5: every arm of the entry at every d and n of the grid, and its summary record."""
        cfg = self.cfg
        entry = _EXPERIMENTS[cfg.experiment]
        for d in cfg.d_grid or (cfg.d,):
            arms = entry.arms(cfg, d)
            trials = self.seeded_trials(cfg.spec(d), cfg.experiment)
            per_trial = [[trial.draw(n, arms) for n in cfg.n_grid] for trial in trials]
            for i, arm in enumerate(arms):
                cells = [[draws[j][i] for draws in per_trial] for j in range(len(cfg.n_grid))]
                medians = [self.record(n, arm, cell) for n, cell in zip(cfg.n_grid, cells)]
                self.note(
                    f"experiment {cfg.experiment}: finished series d={d} alpha={arm.alpha} "
                    f"delta={arm.quantizer.delta} tag={arm.tag}"
                )
                record = entry.summarize(cfg, arm, medians, cells)
                if record is not None:
                    self.out.summary.append(record)

    # ----- experiment 4: total complexity versus dimension -----

    def run_total_complexity(self) -> None:
        """Experiment 4: one search of n per (variant, alpha, d) arm, the searches spread over ``_CPUS`` workers.

        Results are recorded in series order as they arrive.  After a
        failure no further search starts.
        """
        cfg = self.cfg
        quantizer = QuantizerConfig(cfg.deltas[0], Dither.TRIANGULAR)
        arms = [
            Arm(tag, alpha, cfg.ruler(d, alpha), quantizer)
            for tag in _VARIANTS
            if tag in cfg.variants
            for alpha in cfg.alphas
            for d in cfg.d_grid
        ]
        with ThreadPoolExecutor(_CPUS) as pool:
            for arm, (probes, n_star, capped) in zip(arms, pool.map(self.search, arms)):
                for n, outcomes in probes.items():
                    self.record(n, arm, outcomes)
                d, esc = arm.ruler.d, arm.ruler.size
                self.out.summary.append(
                    {
                        "experiment": 4,
                        "tag": arm.tag,
                        "alpha": arm.alpha,
                        "d": d,
                        "esc": esc,
                        "n_star": n_star,
                        "total": n_star * esc,
                        "capped": int(capped),
                    }
                )
                self.note(
                    f"experiment 4: {arm.tag} alpha={arm.alpha} d={d}: n*={n_star}"
                    f"{' (capped)' if capped else ''} esc={esc}"
                )

    def search(self, arm: Arm) -> tuple[dict[int, list[_Outcome]], int, bool]:
        """The search of n for one arm, every trial in this thread.

        Returns the outcomes of each probe, in probe order, and the
        search's n* and whether the cap stopped it.  Only the outcomes
        outlive the search, not its covariances and their factors.
        """
        cfg, d = self.cfg, arm.ruler.d
        trials = self.seeded_trials(cfg.spec(d, arm.tag), 4, _VARIANTS.index(arm.tag), cfg.alphas.index(arm.alpha), d)
        probes: dict[int, list[_Outcome]] = {}

        def probe(n: int) -> float:
            probes[n] = [trial.draw(n, [arm])[0] for trial in trials]
            return _median(o.rel_error for o in probes[n])

        n_star, capped = self._bisect(probe, cfg.eps, cfg.n_cap)
        return probes, n_star, capped

    @staticmethod
    def _bisect(probe: Callable[[int], float], eps: float, cap: int) -> tuple[int, bool]:
        """Smallest n (within ~5%) whose median error meets eps, doubling then halving; no probe exceeds cap.

        The doubling stops at the cap, so its last step is the cap itself, and no n is probed twice.
        """
        lo = hi = 1
        while probe(hi) > eps:
            if hi >= cap:
                return cap, True
            lo, hi = hi, min(2 * hi, cap)
        while hi - lo > max(1, lo // 20):
            mid = (lo + hi) // 2
            if probe(mid) <= eps:
                hi = mid
            else:
                lo = mid
        return hi, False


@dataclass(frozen=True)
class _Plot:
    """The gnuplot figure of one experiment: ``y`` against ``x``, one line per ``series`` value.

    ``logscale`` names the log axes ("xy", or "" for linear ones);
    ``summary`` plots the summary records rather than the medians.
    """

    x: str
    y: str
    series: tuple[str, ...]
    logscale: str
    xlabel: str
    ylabel: str
    summary: bool = False


@dataclass(frozen=True)
class _Experiment:
    """What one experiment runs, reads and writes.

    ``reads`` holds every per-experiment field the experiment reads, with its
    default; ``sizes`` the (fewest, most) values of each grid that does not
    take one or more.  ``recipe(cfg, d, variant)`` is the covariance recipe
    of its trials at dimension ``d``.  ``plot`` describes its figure, and
    ``summary`` names its summary file, ``experiment<id>_<summary>.csv``,
    when it has summary records.  ``run`` is experiment 4's search or, by
    default, :meth:`_Runner.run_grid`, which runs the arms ``arms(cfg, d)``
    and adds each arm's record ``summarize(cfg, arm, medians, cells)``, if
    any, from its median error and the outcomes of its trials at each n.
    """

    recipe: Callable[[ExperimentConfig, int, str | None], GenSpec]
    reads: dict[str, object]
    plot: _Plot
    sizes: dict[str, tuple[int, float]] = field(default_factory=dict)
    summary: str = "summary"
    arms: Callable[[ExperimentConfig, int], list[Arm]] | None = None
    summarize: Callable[..., dict | None] = lambda cfg, arm, medians, cells: None
    run: Callable[[_Runner], None] = _Runner.run_grid


_VARIANTS = ("fullrank", "rank10")

# the CPUs this process may run on: experiment 4's workers
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# fields that count something, one value or a grid of them; all but the seed start at 1
_INTEGERS = ("seed", "trials", "d", "d_grid", "n_grid", "bandwidth", "n_cap")


def _mixture(cfg: ExperimentConfig, d: int, variant: str | None) -> GenSpec:
    return GenSpec(d, k=8, normalize=True)


def _estimator_arms(cfg: ExperimentConfig, d: int) -> list[Arm]:
    return [
        Arm(tag, alpha, cfg.ruler(d, alpha), QuantizerConfig(delta * scale, dither), corr)
        for alpha in cfg.alphas
        for di, delta in enumerate(cfg.deltas)
        for tag, (scale, dither, corr) in _EXP1_TAGS.items()
        # the raw-sample baseline is delta-independent; emit it once
        if scale != 0.0 or di == 0
    ]


def _corrected_arms(cfg: ExperimentConfig, d: int) -> list[Arm]:
    return [
        Arm("hatT", alpha, cfg.ruler(d, alpha), QuantizerConfig(delta, Dither.TRIANGULAR))
        for alpha in cfg.alphas
        for delta in cfg.deltas
    ]


def _banded_arms(cfg: ExperimentConfig, d: int) -> list[Arm]:
    (hat,) = _corrected_arms(cfg, d)
    return [hat, replace(hat, tag="breveZeta", threshold_auto=True), replace(hat, tag="breveM", band_est=cfg.bandwidth)]


def _slope(cfg: ExperimentConfig, arm: Arm, medians: list[float], cells: list) -> dict:
    return {
        "experiment": 2,
        "d": arm.ruler.d,
        "alpha": arm.alpha,
        "delta": arm.quantizer.delta,
        "tag": arm.tag,
        **fit_loglog_slope(zip(cfg.n_grid, medians)),
    }


def _threshold_recovery(cfg: ExperimentConfig, arm: Arm, medians: list[float], cells: list) -> dict | None:
    if not arm.threshold_auto:
        return None
    (n,), (cell,), m = cfg.n_grid, cells, cfg.bandwidth
    tail_zero = np.mean([np.all(o.estimate.a[m:] == 0.0) for o in cell])
    survival = np.mean([np.all(o.estimate.a[:m] != 0.0) for o in cell])
    return {
        "experiment": 5,
        "tag": arm.tag,
        "d": arm.ruler.d,
        "n": n,
        "delta": arm.quantizer.delta,
        "median_rel_error": medians[0],
        "median_zeta": _median(o.zeta for o in cell),
        "tail_zero_fraction": float(tail_zero),
        "nonzero_survival_fraction": float(survival),
    }


# Experiments 1-3 run at ``d`` on a unit-diagonal mixture of 8 modes and 4-5
# over ``d_grid``; experiment 2 fits a line through its n values; experiment
# 4 searches n itself, its full-rank variant mixing d // 2 modes and its
# rank10 variant 5; experiment 5 is one banded point per d.
_ERROR_VS_N = _Plot("n", "median_rel_error", ("tag", "alpha", "delta"), "xy", "samples n", "relative error")
_EXPERIMENTS: dict[int, _Experiment] = {
    1: _Experiment(
        _mixture,
        dict(d=16, n_grid=(100, 316, 1000, 3162, 10000, 31623, 100000), deltas=(5.0,), alphas=(0.5,)),
        _ERROR_VS_N,
        arms=_estimator_arms,
    ),
    2: _Experiment(
        _mixture,
        dict(d=16, n_grid=(100, 316, 1000, 3162, 10000), deltas=(2.0, 5.0), alphas=(0.5, 1.0)),
        _ERROR_VS_N,
        dict(n_grid=(3, math.inf)),
        summary="slopes",
        arms=_corrected_arms,
        summarize=_slope,
    ),
    3: _Experiment(
        _mixture,
        dict(
            d=16, n_grid=(1000,), deltas=(0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0),
            alphas=(0.5, 0.75, 1.0),
        ),
        _Plot("delta", "median_rel_error", ("tag", "alpha"), "", "quantization level", "relative error"),
        dict(n_grid=(1, 1)),
        arms=_corrected_arms,
    ),
    4: _Experiment(
        lambda cfg, d, variant: GenSpec(d, k=5 if variant == "rank10" else max(1, d // 2)),
        dict(
            d_grid=(16, 32, 64, 128, 256, 512), deltas=(2.0,), alphas=(0.5, 1.0),
            eps=0.1, n_cap=1 << 17, variants=_VARIANTS,
        ),
        _Plot("d", "total", ("tag", "alpha"), "xy", "dimension d", "total samples (n x |R|)", summary=True),
        dict(deltas=(1, 1)),
        run=_Runner.run_total_complexity,
    ),
    5: _Experiment(
        lambda cfg, d, variant: GenSpec(d, m=cfg.bandwidth),
        dict(d_grid=(32, 64, 128), n_grid=(1000,), deltas=(0.5,), alphas=(0.5,), bandwidth=5),
        _Plot("d", "median_rel_error", ("tag",), "", "dimension d", "relative error"),
        dict(n_grid=(1, 1), deltas=(1, 1), alphas=(1, 1)),
        arms=_banded_arms,
        summarize=_threshold_recovery,
    ),
}


def run_experiment(
    cfg: ExperimentConfig, progress: Callable[[str], None] | None = None
) -> ExperimentOutput:
    """Run one experiment, write its CSVs and plot script, return everything.

    ``out_dir`` and a temporary directory inside it are made before the
    first trial, so an unusable ``out_dir`` fails before any work.  The
    files are written to the temporary directory and moved into place
    only once all of them are complete, so a run that fails writes none.

    Output is deterministic for a fixed config seed except for the
    wall-time ``seconds`` column of the trial CSV.  OpenBLAS runs on one
    thread throughout, so the output is the same at any number of CPUs.
    """
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".partial-", dir=cfg.out_dir) as staging, single_blas_thread():
        runner = _Runner(cfg, progress)
        _EXPERIMENTS[cfg.experiment].run(runner)

        out = runner.out
        out.rows.sort(key=ResultRow.key)
        for path in _write_files(out, Path(staging)):
            os.replace(path, cfg.out_dir / path.name)
            out.paths.append(cfg.out_dir / path.name)
    return out


def _write_files(out: ExperimentOutput, directory: Path) -> list[Path]:
    """Write the run's non-empty tables, trials, medians and summary, then the plot script of one of them."""
    spec, stem = _EXPERIMENTS[out.config.experiment], f"experiment{out.config.experiment}"
    tables = {
        "": [{**row._asdict(), "seconds": f"{row.seconds:.6f}"} for row in out.rows],
        "_medians": out.medians,
        f"_{spec.summary}": out.summary,
    }
    paths = []
    for suffix, records in tables.items():
        if records:
            paths.append(directory / f"{stem}{suffix}.csv")
            with open(paths[-1], "w", newline="") as fh:
                _write_dicts(fh, records)
    plotted = f"_{spec.summary}" if spec.plot.summary else "_medians"
    paths.append(emit_plot_script(tables[plotted], directory / f"{stem}{plotted}.csv"))
    return paths


def _write_dicts(fh: TextIO, records: list[dict]) -> None:
    """Write ``records`` to ``fh`` as a CSV table headed by the first one's keys.

    The csv module writes a float, numpy's too, as its shortest repr and ``None`` as an empty field.
    """
    writer = csv.DictWriter(fh, fieldnames=list(records[0].keys()))
    writer.writeheader()
    writer.writerows(records)


def emit_plot_script(records: Sequence[dict], csv_path: str | Path) -> Path:
    """Write a gnuplot script of an experiment's medians or summary records next to their CSV.

    The records' ``experiment`` selects the figure its ``_EXPERIMENTS``
    entry describes: the x and y fields, the series fields whose values
    make one line each, the log axes and the axis labels.  A line is keyed,
    titled and sorted by the CSV text of its series values, and its points
    are plotted as floats.  Data is inlined so the script is self-contained.
    """
    if not records:
        raise InvalidArgumentError("no records to plot")
    csv_path = Path(csv_path)
    plot = _EXPERIMENTS[records[0]["experiment"]].plot
    series: dict[tuple, list[tuple[float, float]]] = {}
    for rec in records:
        # str() of an int, float or str is the text the CSV holds for it
        key = tuple(str(rec[f]) for f in plot.series)
        series.setdefault(key, []).append((float(rec[plot.x]), float(rec[plot.y])))

    script_path = csv_path.with_suffix(".gp")
    lines = [
        f"# generated from {csv_path.name}",
        "set terminal pngcairo size 960,640",
        f'set output "{csv_path.stem}.png"',
        f'set xlabel "{plot.xlabel}"',
        f'set ylabel "{plot.ylabel}"',
        "set key outside",
    ]
    if plot.logscale:
        lines.append(f"set logscale {plot.logscale}")
    blocks = []
    plots = []
    for i, (key, pts) in enumerate(sorted(series.items())):
        name = f"$series{i}"
        title = " ".join(f"{f}={v}" for f, v in zip(plot.series, key))
        blocks.append(name + " << EOD")
        blocks.extend(f"{x} {y}" for x, y in sorted(pts))
        blocks.append("EOD")
        plots.append(f'{name} using 1:2 with linespoints title "{title}"')
    lines.extend(blocks)
    lines.append("plot \\\n  " + ", \\\n  ".join(plots))
    script_path.write_text("\n".join(lines) + "\n")
    return script_path
