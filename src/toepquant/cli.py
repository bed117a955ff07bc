"""Command-line interface.

Subcommands: ``gen`` (emit a random generating vector), ``ruler``
(indices and coverage of the two-block ruler family), ``estimate``
(estimate from a CSV of raw samples or from a seeded simulation),
``bounds`` (theoretical constants as CSV), and ``exp`` (run experiments
1-5 and write their CSV/plot outputs).

The master seed comes from ``--seed``, falling back to the
``TOEPQUANT_SEED`` environment variable, then to 0.  Exit codes:
0 success, 2 invalid configuration or arguments, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._seeding import observation_rng
from .bounds import evaluate_bounds
from .estimators import Correction, relative_error
from .estimators import quantized_estimate, ruler_estimate  # noqa: F401  (uncalled; perfbench/tracing.py wraps them)
from .exceptions import (
    EmptyInputError,
    IndexOutOfRangeError,
    InvalidArgumentError,
    NotPSDError,
    NumericError,
    ToepquantError,
)
from .experiments import Arm, default_config, draw_truth, run_experiment, simulate_estimate
from .quantization import Dither, QuantizerConfig
from .rulers import Ruler, coverage_coefficient, full_ruler, phi_bound, ruler_alpha
from .sampling import GenSpec
from .sampling import observe  # noqa: F401  (uncalled; perfbench/tracing.py wraps it)

INVALID_CONFIG = 2
NUMERIC_FAILURE = 3


def _csv_out(rows: list[list], header: list[str]) -> None:
    writer = csv.writer(sys.stdout)
    writer.writerow(header)
    writer.writerows(rows)


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip() != "")


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip() != "")


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("TOEPQUANT_SEED")
    return int(env) if env else 0


def _parse_ruler_spec(text: str) -> tuple[float | None, tuple[int, ...] | None]:
    """A ruler is an alpha ("0.5") or explicit 1-based indices ("1,2,5,8,10")."""
    if "," in text:
        return None, _parse_ints(text)
    return float(text), None


def _zero_based(one_based: tuple[int, ...], d: int) -> np.ndarray:
    """Ruler indices given 1-based, range-checked in the terms they were given in."""
    idx = np.asarray(one_based, dtype=np.int64)
    if idx.size and (idx.min() < 1 or idx.max() > d):
        raise IndexOutOfRangeError(f"ruler indices must lie in [1, {d}], got [{idx.min()}, {idx.max()}]")
    return idx - 1


def _ruler_from_spec(text: str, d: int) -> Ruler:
    alpha, one_based = _parse_ruler_spec(text)
    if one_based is not None:
        return Ruler(d, _zero_based(one_based, d))
    return full_ruler(d) if d == 1 else ruler_alpha(d, alpha)


def cmd_gen(args: argparse.Namespace) -> int:
    t = draw_truth(GenSpec(args.d, k=args.k, m=args.m), _resolve_seed(args))
    _csv_out([[s, repr(float(v))] for s, v in enumerate(t.a)], ["s", "a"])
    return 0


def cmd_ruler(args: argparse.Namespace) -> int:
    ruler = ruler_alpha(args.d, args.alpha)
    indices = " ".join(str(i + 1) for i in ruler.indices)
    _csv_out(
        [[args.d, repr(args.alpha), ruler.size, repr(coverage_coefficient(ruler)), repr(phi_bound(args.d, args.alpha)), indices]],
        ["d", "alpha", "size", "phi", "phi_bound", "indices_1based"],
    )
    return 0


# the options of ``estimate`` that only a simulation reads, and the value
# --simulate takes for each one not given; their parser default is None, so
# --input can reject any that is given.  The mixture recipe's k = 8 applies
# only when --m does not pick the banded recipe.
_SIMULATION_DEFAULTS = {"d": 16, "n": 1000, "k": 8, "m": None, "normalize": False, "thresh_c": 0.07, "thresh_p": 2.0}


def cmd_estimate(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    dither = Dither(args.dither)
    correction = Correction(args.correction)

    alpha, one_based = _parse_ruler_spec(args.ruler)
    if args.simulate:
        opt = {
            name: default if getattr(args, name) is None else getattr(args, name)
            for name, default in _SIMULATION_DEFAULTS.items()
        }
        spec = GenSpec(opt["d"], k=opt["k"] if args.m is None else args.k, m=opt["m"])
        sim = simulate_estimate(
            spec,
            opt["n"],
            seed,
            alpha=alpha if alpha is not None else 1.0,
            indices=_zero_based(one_based, opt["d"]) if one_based is not None else None,
            delta=args.delta,
            dither=dither,
            correction=correction,
            normalize=opt["normalize"],
            threshold=args.threshold,
            threshold_auto=(opt["thresh_c"], opt["thresh_p"]) if args.threshold_auto else None,
            band_est=args.bandwidth,
        )
        est = sim.estimate
        extra = [
            [f"rel_error_{norm}", repr(float(relative_error(sim.truth, est, norm)))] for norm in ("op", "fro", "max")
        ]
        if sim.zeta is not None:
            extra.append(["zeta", repr(float(sim.zeta))])
    else:
        if args.threshold_auto:
            raise InvalidArgumentError(
                "--threshold-auto needs the true matrix (simulation only); pass --threshold"
            )
        given = ["--" + name.replace("_", "-") for name in _SIMULATION_DEFAULTS if getattr(args, name) is not None]
        if given:
            raise InvalidArgumentError(f"{', '.join(given)} only apply to --simulate, not --input")
        samples = _load_samples(Path(args.input))
        ruler = _ruler_from_spec(args.ruler, samples.shape[1])
        arm = Arm(
            "", alpha, ruler, QuantizerConfig(args.delta, dither), correction, args.threshold, band_est=args.bandwidth
        )
        est, _ = arm.estimate(samples, observation_rng(seed, samples.shape[0]), seed)
        extra = []

    coefficients = [[f"a[{s}]", repr(float(v))] for s, v in enumerate(est.a_hat)]
    _csv_out(coefficients + extra + [["seed", str(seed)]], ["key", "value"])
    return 0


def _load_samples(path: Path) -> np.ndarray:
    if not path.exists():
        raise EmptyInputError(f"no such input file: {path}")
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise EmptyInputError(f"could not parse samples from {path}: {exc}") from exc
    if data.size == 0:
        raise EmptyInputError(f"input file {path} contains no samples")
    return data


def cmd_bounds(args: argparse.Namespace) -> int:
    rows: list[list] = []
    header: list[str] | None = None
    for alpha in _parse_floats(args.alpha):
        for delta in _parse_floats(args.delta):
            report = evaluate_bounds(
                d=args.d,
                alpha=alpha,
                delta=delta,
                eps=args.eps,
                prob_delta=args.prob_delta,
                op_norm_t=args.op_norm,
                k=args.k,
                m=args.m,
                p=args.p,
                n=args.n,
                c=args.c,
            )
            record = vars(report).copy()
            if header is None:
                header = list(record.keys())
            rows.append([("" if record[k] is None else repr(record[k]) if isinstance(record[k], float) else str(record[k])) for k in header])
    _csv_out(rows, header or [])
    return 0


def cmd_exp(args: argparse.Namespace) -> int:
    overrides: dict = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.threads is not None:
        overrides["threads"] = args.threads
    if args.d is not None:
        overrides["d"] = args.d
    if args.d_grid is not None:
        overrides["d_grid"] = _parse_ints(args.d_grid)
    if args.n_grid is not None:
        overrides["n_grid"] = _parse_ints(args.n_grid)
    if args.deltas is not None:
        overrides["deltas"] = _parse_floats(args.deltas)
    if args.alphas is not None:
        overrides["alphas"] = _parse_floats(args.alphas)
    if args.eps is not None:
        overrides["eps"] = args.eps
    if args.m is not None:
        overrides["bandwidth"] = args.m
    if args.n_cap is not None:
        overrides["n_cap"] = args.n_cap

    cfg = default_config(args.id, seed=_resolve_seed(args), out_dir=Path(args.out), **overrides)
    progress = (lambda msg: print(msg, file=sys.stderr)) if not args.quiet else None
    out = run_experiment(cfg, progress=progress)
    for path in out.paths:
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toepquant",
        description="Quantized Toeplitz covariance estimation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--seed", type=int, default=None, help="master seed (default: $TOEPQUANT_SEED or 0)")
    parser.add_argument("--out", default="results", help="output directory for experiment files")
    parser.add_argument("--trials", type=int, default=None, help="Monte-Carlo trials per grid point")
    parser.add_argument("--threads", type=int, default=None, help="worker threads for experiment trials")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a random Toeplitz generating vector as CSV")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="number of cosine modes (rank min(d, 2k))")
    group.add_argument("--m", type=int, help="bandwidth of a banded matrix")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("ruler", help="print a two-block ruler and its coverage")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(func=cmd_ruler)

    p = sub.add_parser("estimate", help="estimate a covariance from samples or a simulation")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="CSV of raw samples, one d-dimensional row per sample")
    src.add_argument("--simulate", action="store_true", help="draw matrix and samples from the seed")
    sim_default = _SIMULATION_DEFAULTS
    p.add_argument("--d", type=int, default=None, help=f"dimension (simulation; default {sim_default['d']})")
    p.add_argument("--n", type=int, default=None, help=f"sample count (simulation; default {sim_default['n']})")
    p.add_argument(
        "--k",
        type=int,
        default=None,
        help=f"cosine modes of the simulated matrix (default {sim_default['k']} unless --m is given)",
    )
    p.add_argument("--m", type=int, default=None, help="bandwidth of the simulated matrix")
    p.add_argument(
        "--ruler",
        default="1.0",
        help="ruler parameter in [0.5, 1] or explicit 1-based indices like 1,2,5,8,10",
    )
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--dither", choices=[d.value for d in Dither], default="triangular")
    p.add_argument("--correction", choices=[c.value for c in Correction], default="none")
    p.add_argument(
        "--normalize", action="store_true", default=None, help="rescale the simulated matrix to unit diagonal"
    )
    post = p.add_mutually_exclusive_group()
    post.add_argument("--threshold", type=float, default=None, help="zero coefficients below this value")
    post.add_argument("--threshold-auto", action="store_true", help="threshold at c*K*sqrt((log|R|+4p log d)/n)")
    post.add_argument("--bandwidth", type=int, default=None, help="zero coefficients at offsets >= this bandwidth")
    p.add_argument(
        "--thresh-c", type=float, default=None, help=f"c of --threshold-auto (default {sim_default['thresh_c']})"
    )
    p.add_argument(
        "--thresh-p", type=float, default=None, help=f"p of --threshold-auto (default {sim_default['thresh_p']})"
    )
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("bounds", help="evaluate theoretical constants as CSV")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--alpha", default="0.5", help="comma-separated ruler parameters")
    p.add_argument("--delta", default="0.0", help="comma-separated quantization levels")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--prob-delta", type=float, default=0.05)
    p.add_argument("--op-norm", type=float, default=1.0, help="operator norm of the target matrix")
    p.add_argument("--k", type=int, default=None, help="rank for the low-rank coefficient")
    p.add_argument("--m", type=int, default=None, help="bandwidth (echoed in the report)")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--c", type=float, default=1.0)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("exp", help="run one of experiments 1..5")
    p.add_argument("--id", type=int, required=True, choices=[1, 2, 3, 4, 5])
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--d-grid", default=None, help="comma-separated dimensions (experiments 4, 5)")
    p.add_argument("--n-grid", default=None, help="comma-separated sample counts")
    p.add_argument("--deltas", default=None, help="comma-separated quantization levels")
    p.add_argument("--alphas", default=None, help="comma-separated ruler parameters")
    p.add_argument("--eps", type=float, default=None, help="target accuracy (experiment 4)")
    p.add_argument("--m", type=int, default=None, help="bandwidth (experiment 5)")
    p.add_argument("--n-cap", type=int, default=None, help="bisection ceiling (experiment 4)")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_exp)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NumericError, NotPSDError, ZeroDivisionError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_FAILURE
    except (ToepquantError, ValueError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return INVALID_CONFIG


if __name__ == "__main__":
    sys.exit(main())
