"""Command-line interface.

Subcommands: ``gen`` (emit a random generating vector), ``ruler``
(indices and coverage of the two-block ruler family), ``estimate``
(estimate from a CSV of raw samples or from a seeded simulation),
``bounds`` (theoretical constants as CSV), and ``exp`` (run experiments
1-5 and write their CSV/plot outputs).

The master seed comes from ``--seed``, falling back to the ``TOEPQUANT_SEED``
environment variable, then to 0; ``main`` checks it before any subcommand runs.
Exit codes: 0 success, 2 invalid configuration or arguments
(``InvalidArgumentError``), 3 numeric failure (``NumericError``).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from ._seeding import STREAM_VERSION, observation_rng
from .bounds import evaluate_bounds
from .estimators import Correction, relative_error
from .estimators import quantized_estimate, ruler_estimate  # noqa: F401  (uncalled; perfbench/tracing.py wraps them)
from .exceptions import InvalidArgumentError, NumericError, ToepquantError
from .experiments import _EXPERIMENTS, Arm, ExperimentConfig, draw_truth, run_experiment, simulate_estimate
from .quantization import Dither, QuantizerConfig
from .rulers import Ruler, coverage_coefficient, phi_bound, ruler_alpha
from .sampling import GenSpec, observe

INVALID_CONFIG = 2
NUMERIC_FAILURE = 3


def _csv_out(rows: list[list], header: list[str]) -> None:
    writer = csv.writer(sys.stdout)
    writer.writerow(header)
    writer.writerows(rows)


def _parse_list(text: str, kind: type, name: str) -> tuple:
    try:
        return tuple(kind(v) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated {name}, got {text!r}") from None


def _parse_floats(text: str) -> tuple[float, ...]:
    return _parse_list(text, float, "numbers")


def _parse_ints(text: str) -> tuple[int, ...]:
    return _parse_list(text, int, "integers")


def _resolve_seed(args: argparse.Namespace) -> int:
    """``--seed``, else ``TOEPQUANT_SEED``, else 0; rejected by the name it came from unless a non-negative integer."""
    name, value = "--seed", args.seed
    if value is None:
        name, value = "TOEPQUANT_SEED", os.environ.get("TOEPQUANT_SEED") or "0"
    try:
        seed = int(value)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise InvalidArgumentError(f"{name} must be a non-negative integer, got {value!r}")
    return seed


def _ruler_from_spec(text: str, d: int) -> Ruler:
    """An alpha ("0.5") or 1-based indices ("1,2,5,8,10") range-checked as given."""
    if "," in text:
        idx = np.asarray(_parse_ints(text), dtype=np.int64)
        if idx.size and (idx.min() < 1 or idx.max() > d):
            raise InvalidArgumentError(f"ruler indices must lie in [1, {d}], got [{idx.min()}, {idx.max()}]")
        values, counts = np.unique(idx, return_counts=True)
        if np.any(counts > 1):
            raise InvalidArgumentError(f"ruler indices must not repeat, got {values[counts > 1].tolist()} more than once")
        return Ruler(d, idx - 1)
    try:
        alpha = float(text)
    except ValueError:
        raise InvalidArgumentError(f"--ruler takes an alpha or comma-separated 1-based indices, got {text!r}") from None
    return ruler_alpha(d, alpha)


def cmd_gen(args: argparse.Namespace) -> int:
    t = draw_truth(GenSpec(args.d, k=args.k, m=args.m), args.seed)
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
_SIMULATION_DEFAULTS = {
    "d": 16, "n": 1000, "k": 8, "m": None, "normalize": False,
}


def cmd_estimate(args: argparse.Namespace) -> int:
    def arm_at(d: int) -> Arm:
        """The command line's estimator at dimension ``d``; building it checks its settings."""
        return Arm(
            "", None, _ruler_from_spec(args.ruler, d), QuantizerConfig(args.delta, Dither(args.dither)),
            Correction(args.correction), args.threshold, args.threshold_auto, args.bandwidth,
        )

    if args.simulate:
        opt = {
            name: default if getattr(args, name) is None else getattr(args, name)
            for name, default in _SIMULATION_DEFAULTS.items()
        }
        spec = GenSpec(opt["d"], k=opt["k"] if args.m is None else args.k, m=opt["m"], normalize=opt["normalize"])
        sim = simulate_estimate(spec, opt["n"], args.seed, arm_at(spec.d))
        est = sim.estimate
        extra = [["rel_error_op", repr(sim.rel_error)]] + [
            [f"rel_error_{norm}", repr(float(relative_error(sim.truth, est, norm)))] for norm in ("fro", "max")
        ]
        if sim.zeta is not None:
            extra.append(["zeta", repr(float(sim.zeta))])
    else:
        if args.threshold_auto:
            raise InvalidArgumentError(
                "--threshold-auto needs the true matrix (simulation only); pass --threshold"
            )
        given = ["--" + name for name in _SIMULATION_DEFAULTS if getattr(args, name) is not None]
        if given:
            raise InvalidArgumentError(f"{', '.join(given)} only apply to --simulate, not --input")
        samples, arm = _load_samples(Path(args.input), arm_at)
        batch = observe(samples, arm.ruler, arm.quantizer, observation_rng(args.seed, samples.shape[0]))
        est, _ = arm.estimate_batch(batch)
        extra = []

    coefficients = [[f"a[{s}]", repr(float(v))] for s, v in enumerate(est.a)]
    _csv_out(coefficients + extra + [["seed", str(args.seed)], ["stream_version", str(STREAM_VERSION)]], ["key", "value"])
    return 0


# bytes of an input file read at once while its commas are counted; blocks
# this small stay in cache: 3.4 ms to count the commas of a 9.7 MB file,
# 7 ms in blocks of 1 MiB (2-vCPU host)
_CHUNK = 1 << 16


def _fields(line: str) -> int:
    """The number of fields in the row of ``line``, 0 if it holds none.

    Lines and rows are those of ``np.loadtxt(delimiter=",")`` on a file
    decoded with universal newlines: a "#" comments out the rest of its
    line, and a line that is empty before its comment holds no row.
    """
    row = line.split("#", 1)[0].rstrip("\n")
    return row.count(",") + 1 if row else 0


def _commas(text: io.TextIOWrapper) -> int:
    """The number of commas in ``text`` outside comments: d - 1 for each row d fields wide."""
    text.seek(0)
    commas, commented = 0, False
    while chunk := text.buffer.read(_CHUNK):
        commas += int(np.count_nonzero(np.frombuffer(chunk, dtype=np.uint8) == ord(",")))
        commented = commented or b"#" in chunk
    text.seek(0)
    if commented:
        commas -= sum(line.partition("#")[2].count(",") for line in text)
    return commas


def _misfit_row(text: io.TextIOBase, d: int) -> str | None:
    """The first line of ``text`` whose row has other than ``d`` fields, with its field count; None if none has."""
    for number, line in enumerate(text, 1):
        if (fields := _fields(line)) and fields != d:
            return f"line {number} has {fields} fields, the first row {d}"
    return None


def _load_samples(path: Path, arm_at: Callable[[int], Arm]) -> tuple[np.ndarray, Arm]:
    """The samples of ``path`` on the columns of the arm ``arm_at`` gives at their dimension, and that arm.

    The file is read as ``np.loadtxt(path, delimiter=",")`` reads it,
    compressed files included, and its rows are those :func:`_fields`
    finds.  The dimension d is the field count of the first row; the arm
    is built as soon as d is known, so it rejects its settings before the
    file is parsed.  Only the arm's ruler's columns are converted, so the
    samples are (n, |R|);
    fields off the ruler may hold any text.  A row of another width than
    the first is rejected with its line number.  Every ruler takes one
    path, and the file is searched for that row only after a check
    failed, so an accepted file pays nothing: ``np.loadtxt`` fails on a
    narrower row (it lacks the last column, which every ruler reads), and
    a wider row makes the count of commas differ from n(d - 1).
    """
    if not path.exists():
        raise InvalidArgumentError(f"no such input file: {path}")
    with np.lib.npyio.DataSource().open(os.fspath(path), "rb") as fh:
        source = fh if fh.seekable() else io.BytesIO(fh.read())  # a pipe can be read only once
        # decoded as np.loadtxt(path) decodes it: the default encoding, universal newlines
        with io.TextIOWrapper(source) as text:
            d = next(filter(None, map(_fields, text)), None)
            if d is None:
                raise InvalidArgumentError(f"input file {path} contains no samples")
            arm = arm_at(d)
            commas = _commas(text)
            text.seek(0)
            try:
                samples = np.loadtxt(text, delimiter=",", ndmin=2, usecols=arm.ruler.indices)
                if commas != samples.shape[0] * (d - 1):
                    raise ValueError(f"a row has more than the {d} fields of the first")
            except ValueError as exc:
                text.seek(0)
                raise InvalidArgumentError(f"could not parse samples from {path}: {_misfit_row(text, d) or exc}") from exc
    return samples, arm


# the parsed arguments that are not evaluate_bounds parameters
_NOT_BOUNDS = ("command", "func", "seed", "out_dir", "trials")


def cmd_bounds(args: argparse.Namespace) -> int:
    if not args.alpha or not args.delta:
        raise InvalidArgumentError(f"--alpha and --delta each take a value, got {args.alpha!r} and {args.delta!r}")
    given = {name: value for name, value in vars(args).items() if name not in _NOT_BOUNDS}
    rows: list[list] = []
    header: list[str] | None = None
    for alpha in args.alpha:
        for delta in args.delta:
            record = vars(evaluate_bounds(**given | {"alpha": alpha, "delta": delta}))
            if header is None:
                header = list(record.keys())
            rows.append([("" if record[k] is None else repr(record[k]) if isinstance(record[k], float) else str(record[k])) for k in header])
    _csv_out(rows, header)
    return 0


# the parsed arguments that are not ExperimentConfig fields
_NOT_CONFIG = ("command", "func", "quiet")

# global options that only ``exp`` reads, by flag and parsed name
_EXP_ONLY = {"--trials": "trials", "--out": "out_dir"}


def cmd_exp(args: argparse.Namespace) -> int:
    given = {name: value for name, value in vars(args).items() if value is not None and name not in _NOT_CONFIG}
    cfg = ExperimentConfig(**given)
    progress = (lambda msg: print(msg, file=sys.stderr)) if not args.quiet else None
    out = run_experiment(cfg, progress=progress)
    for path in out.paths:
        print(path)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="toepquant",
        description="Quantized Toeplitz covariance estimation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--seed", type=int, default=None, help="master seed (default: $TOEPQUANT_SEED or 0)")
    parser.add_argument("--out", dest="out_dir", help="output directory for experiment files (default results)")
    parser.add_argument("--trials", type=int, default=None, help="Monte-Carlo trials per grid point")
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
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("bounds", help="evaluate theoretical constants as CSV")
    p.add_argument("--d", type=int, required=True)
    # every option parses into the evaluate_bounds parameter named by its dest
    p.add_argument("--alpha", type=_parse_floats, default=(0.5,), help="comma-separated ruler parameters")
    p.add_argument("--delta", type=_parse_floats, default=(0.0,), help="comma-separated quantization levels")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--prob-delta", type=float, default=0.05)
    p.add_argument("--op-norm", dest="op_norm_t", type=float, default=1.0, help="operator norm of the target matrix")
    p.add_argument("--k", type=int, default=None, help="rank for the low-rank coefficient")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--c", type=float, default=1.0)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("exp", help="run one of experiments 1..5")
    # every option but --quiet parses into the ExperimentConfig field named by its dest,
    # and cmd_exp passes each one given straight to the config
    p.add_argument("--id", dest="experiment", type=int, required=True, choices=sorted(_EXPERIMENTS))
    p.add_argument("--d", type=int, help="dimension (experiments 1-3)")
    p.add_argument("--d-grid", type=_parse_ints, help="comma-separated dimensions (experiments 4, 5)")
    p.add_argument("--n-grid", type=_parse_ints, help="comma-separated sample counts")
    p.add_argument("--deltas", type=_parse_floats, help="comma-separated quantization levels")
    p.add_argument("--alphas", type=_parse_floats, help="comma-separated ruler parameters")
    p.add_argument("--eps", type=float, help="target accuracy (experiment 4)")
    p.add_argument("--m", dest="bandwidth", type=int, metavar="M", help="bandwidth (experiment 5)")
    p.add_argument("--n-cap", type=int, help="bisection ceiling (experiment 4)")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_exp)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.seed = _resolve_seed(args)
        given = [flag for flag, name in _EXP_ONLY.items() if getattr(args, name) is not None]
        if given and args.command != "exp":
            raise InvalidArgumentError(f"options only exp reads given to {args.command}: {', '.join(given)}")
        return args.func(args)
    except (NumericError, ZeroDivisionError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_FAILURE
    # OverflowError: an integer option too large to be a float, such as --d 10**400
    except (ToepquantError, ValueError, OSError, OverflowError, argparse.ArgumentTypeError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return INVALID_CONFIG
    except MemoryError as exc:  # a dimension too large for this machine, such as --d 100000
        print(f"invalid configuration: out of memory: {exc}", file=sys.stderr)
        return INVALID_CONFIG


if __name__ == "__main__":
    sys.exit(main())
