"""Print one SHA-256 per output of a fixed set of toepquant runs.

Two source trees write the same bytes on this set when their listings
match.  Run the script once against each tree and compare:

    PYTHONPATH=src python tools/output_digests.py > new.txt
    PYTHONPATH=/path/to/other/src python tools/output_digests.py > old.txt
    diff old.txt new.txt

Every run calls ``toepquant.cli.main`` in process at ``--seed 123`` and
writes into a temporary directory.  The set:

* experiments 1, 2, 3 and 5 at defaults, and experiment 4 at defaults, at
  ``--trials 5 --d-grid 16,64,128,512`` and at ``--trials 3 --d-grid 16,64
  --n-cap 24``: every file written (trial, medians, summary and slopes
  CSVs and ``.gp`` scripts), each trial CSV without its wall-time
  ``seconds`` column, and the list of paths the run prints, relative to
  its output directory;
* the stdout of ``estimate --simulate`` at defaults, with
  ``--threshold-auto`` and with ``--bandwidth 3 --ruler 0.5``;
* the stdout of ``estimate --input`` at ``--ruler 1.0`` and ``0.5`` times
  ``--delta 0`` and ``2``, on two CSVs of samples the script draws with
  numpy alone from a fixed seed (d = 128 with 8000 rows, d = 512 with
  2000 rows), so they do not depend on the tree under test;
* the stdout of ``bounds --d 128 --alpha 0.5,0.75,1.0 --delta 0,2,5 --k 10``;
* the stdout of ``gen --d 16`` at ``--k 8`` and at ``--m 3``, and of
  ``ruler`` at ``--d 16`` and ``512``, each at ``--alpha`` 0.5, 0.75 and
  1.0;
* the exit code and the stderr of each command line in ``REJECTED``: every
  one the README quotes an error for, but the two that exhaust memory
  (``estimate --simulate --d 100000`` and ``exp --id 4 --d-grid 100000``),
  one per range rule of an argument the command line reaches, and
  counts past the float range or past what numpy can size.  The
  small input files they read are written by the script, and the path of
  its temporary directory reads ``WORK`` in their messages.

Only numpy and toepquant are imported.  A run of the first five kinds
that exits non-zero stops the script with that run's command line.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from toepquant.cli import main

SEED = "123"

EXPERIMENTS = [
    ["exp", "--id", "1"],
    ["exp", "--id", "2"],
    ["exp", "--id", "3"],
    ["exp", "--id", "5"],
    ["exp", "--id", "4"],
    ["--trials", "5", "exp", "--id", "4", "--d-grid", "16,64,128,512"],
    ["--trials", "3", "exp", "--id", "4", "--d-grid", "16,64", "--n-cap", "24"],
]

SIMULATIONS = [
    ["estimate", "--simulate"],
    ["estimate", "--simulate", "--threshold-auto"],
    ["estimate", "--simulate", "--bandwidth", "3", "--ruler", "0.5"],
]

# dimension -> sample rows of its input CSV
INPUTS = {128: 8000, 512: 2000}

BOUNDS = ["bounds", "--d", "128", "--alpha", "0.5,0.75,1.0", "--delta", "0,2,5", "--k", "10"]

TABLES = [
    ["gen", "--d", "16", "--k", "8"],
    ["gen", "--d", "16", "--m", "3"],
    *(["ruler", "--d", d, "--alpha", alpha] for d in ("16", "512") for alpha in ("0.5", "0.75", "1.0")),
]

# an integer option past the float range
BIG = str(10**400)

# name -> text of the input files the rejected command lines read, in WORK
BAD_INPUTS = {
    "comments.csv": "# no sample\n\n",
    "narrow.csv": "1,2,3\n4,5\n",
    "wide.csv": "1,2,3\n4,5,6,7\n",
    "blank.csv": "1,,3\n4,5,6\n",
    "nan.csv": "1,nan,3\n4,5,6\n",
    "huge.csv": "1e200,1,1\n1,1,1\n",
    "afile": "",
}

# command lines that exit non-zero; WORK is the directory of BAD_INPUTS
REJECTED = [
    # quoted in the README
    ["bounds", "--d", "16", "--alpha", "x"],
    ["exp", "--id", "2", "--deltas", "x"],
    ["bounds", "--d", "16", "--m", "3"],
    ["--trials", "3", "ruler", "--d", "16", "--alpha", "0.5"],
    ["bounds", "--d", "16", "--alpha", ","],
    ["bounds", "--d", "16", "--op-norm", "1e-160", "--delta", "1"],
    ["bounds", "--d", "16", "--op-norm", "1e-160", "--delta", "1", "--k", "4"],
    ["bounds", "--d", "16", "--delta", "1.1e77"],
    ["bounds", "--d", "16", "--eps", "1e-200"],
    ["bounds", "--d", "16", "--eps", "0.5", "--prob-delta", "1e-320"],
    ["bounds", "--d", "16", "--p", "1e308"],
    ["bounds", "--d", "1"],
    ["bounds", "--d", "16", "--n", BIG],
    ["bounds", "--d", "10000000000", "--alpha", "1"],
    ["ruler", "--d", "1180591620717411303424", "--alpha", "0.5"],
    ["estimate", "--simulate", "--d", "1"],
    ["estimate", "--simulate", "--d", "1", "--k", "1", "--ruler", "0.4"],
    ["estimate", "--simulate", "--k", "2", "--m", "3"],
    ["estimate", "--simulate", "--ruler", "1,2,2,3"],
    ["estimate", "--simulate", "--ruler", "0,1,2"],
    ["estimate", "--simulate", "--ruler", "1,17"],
    ["estimate", "--simulate", "--ruler", ","],
    ["estimate", "--simulate", "--ruler", "x"],
    ["estimate", "--simulate", "--delta", "1e155"],
    ["estimate", "--simulate", "--delta", "1e-308"],
    ["estimate", "--simulate", "--d", "10000000000"],
    ["estimate", "--simulate", "--d", BIG],
    ["estimate", "--input", "WORK/missing.csv"],
    ["estimate", "--input", "WORK/comments.csv"],
    ["estimate", "--input", "WORK/narrow.csv"],
    ["estimate", "--input", "WORK/wide.csv"],
    ["estimate", "--input", "WORK/blank.csv"],
    ["estimate", "--input", "WORK/nan.csv"],
    ["estimate", "--input", "WORK/huge.csv"],
    ["estimate", "--input", "WORK/huge.csv", "--d", "3"],
    ["estimate", "--input", "WORK/huge.csv", "--threshold-auto"],
    ["exp", "--id", "1", "--n-grid", "6," + BIG],
    ["exp", "--id", "4", "--d-grid", "16", "--n-cap", "99999999999999999"],
    ["exp", "--id", "4", "--d-grid", "10000000000", "--alphas", "1"],
    ["exp", "--id", "4", "--d-grid", "4"],
    ["exp", "--id", "5", "--d-grid", "5"],
    ["exp", "--id", "1", "--d", "7"],
    ["exp", "--id", "1", "--d-grid", "16"],
    ["exp", "--id", "4", "--d-grid", "16,16"],
    ["exp", "--id", "3", "--deltas", "1e155"],
    ["--out", "WORK/afile", "exp", "--id", "3"],
    ["--out", "WORK/afile/below", "exp", "--id", "3"],
    # one per range rule of an argument
    ["estimate", "--simulate", "--delta", "-1"],
    ["estimate", "--simulate", "--threshold", "nan"],
    ["estimate", "--simulate", "--bandwidth", "0"],
    ["estimate", "--simulate", "--n", "0"],
    ["estimate", "--simulate", "--d", "0"],
    ["estimate", "--simulate", "--k", "0"],
    ["estimate", "--simulate", "--m", "0"],
    ["bounds", "--d", "16", "--c", "0"],
    ["bounds", "--d", "16", "--p", "0.5"],
    ["bounds", "--d", "16", "--eps", "1"],
    ["bounds", "--d", "16", "--prob-delta", "0"],
    ["bounds", "--d", "16", "--op-norm", "0"],
    ["bounds", "--d", "16", "--op-norm=-1"],
    ["bounds", "--d", "16", "--delta", "-1"],
    ["bounds", "--d", "16", "--alpha", "0.4"],
    ["bounds", "--d", "16", "--k", "0"],
    ["bounds", "--d", "16", "--n", "0"],
    ["ruler", "--d", "0", "--alpha", "0.5"],
    ["ruler", "--d", "16", "--alpha", "0.4"],
    ["gen", "--d", "0", "--k", "1"],
    ["gen", "--d", "16", "--m", "16"],
    ["--trials", "0", "exp", "--id", "1"],
    ["exp", "--id", "1", "--d", "0"],
    ["exp", "--id", "4", "--d-grid", "0"],
    ["exp", "--id", "1", "--n-grid", "0"],
    ["exp", "--id", "1", "--n-grid", "5,3"],
    ["exp", "--id", "3", "--deltas", "-1"],
    ["exp", "--id", "1", "--alphas", "0.4"],
    ["exp", "--id", "5", "--m", "0"],
    ["exp", "--id", "4", "--n-cap", "0"],
    ["exp", "--id", "4", "--eps", "0"],
    ["--seed", "-1", "gen", "--d", "16", "--k", "1"],
    # counts past the float range, whose digits no message prints, and
    # dimensions whose arrays numpy cannot size
    ["estimate", "--simulate", "--bandwidth", BIG],
    ["estimate", "--simulate", "--k", BIG],
    ["bounds", "--d", "16", "--k", BIG],
    ["exp", "--id", "5", "--m", BIG],
    ["exp", "--id", "1", "--n-grid", BIG + ",6"],
    ["exp", "--id", "5", "--n-grid", "6," + BIG],
    ["exp", "--id", "4", "--d-grid", BIG + "," + BIG],
    ["gen", "--d", BIG, "--m", "2"],
    ["gen", "--d", BIG, "--k", "2"],
    ["gen", "--d", "4611686018427387904", "--m", "2"],
]


def run(argv: list[str]) -> str:
    """The stdout of ``toepquant --seed 123 <argv>``; a non-zero exit stops the script."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--seed", SEED, *argv])
    if code != 0:
        sys.exit(f"toepquant {' '.join(argv)} exited {code}")
    return out.getvalue()


def rejection(argv: list[str]) -> tuple[int, str]:
    """The exit code and the stderr of ``toepquant --seed 123 <argv>``, an argparse usage error's included."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(["--seed", SEED, *argv])
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def digest(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def without_seconds(path: Path) -> str:
    """A trial CSV's text with its ``seconds`` column removed, as the csv module writes it."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("seconds")
    text = io.StringIO()
    csv.writer(text).writerows(row[:drop] + row[drop + 1 :] for row in rows)
    return text.getvalue()


def input_csv(path: Path, d: int, n: int, rng: np.random.Generator) -> None:
    """n rows of a stationary moving average of 8 white-noise terms (a banded Toeplitz covariance)."""
    noise = rng.standard_normal((n, d + 7))
    rows = sum(noise[:, j : j + d] for j in range(8)) / np.sqrt(8.0)
    np.savetxt(path, rows, fmt="%.6f", delimiter=",")


def listing(work: Path) -> list[tuple[str, str]]:
    """(digest, label) of every output of the set, in a fixed order."""
    out: list[tuple[str, str]] = []
    for k, argv in enumerate(EXPERIMENTS):
        label = " ".join(argv)
        out_dir = work / f"exp{k}"
        printed = run(["--out", str(out_dir), *argv, "--quiet"])
        out.append((digest(printed.replace(str(out_dir), "OUT")), f"{label}: printed paths"))
        for path in sorted(out_dir.iterdir()):
            trial_csv = re.fullmatch(r"experiment\d+\.csv", path.name)
            data = without_seconds(path) if trial_csv else path.read_bytes()
            out.append((digest(data), f"{label}: {path.name}{' without seconds' if trial_csv else ''}"))
    for argv in SIMULATIONS + [BOUNDS] + TABLES:
        out.append((digest(run(argv)), " ".join(argv)))
    rng = np.random.default_rng(int(SEED))
    for d, n in INPUTS.items():
        path = work / f"samples{d}.csv"
        input_csv(path, d, n, rng)
        for ruler in ("1.0", "0.5"):
            for delta in ("0", "2"):
                argv = ["estimate", "--input", str(path), "--ruler", ruler, "--delta", delta]
                label = f"estimate --input samples{d}.csv --ruler {ruler} --delta {delta}"
                out.append((digest(run(argv)), label))
    for name, text in BAD_INPUTS.items():
        (work / name).write_text(text)
    for argv in REJECTED:
        code, err = rejection([arg.replace("WORK", str(work)) for arg in argv])
        label = " ".join(argv).replace(BIG, "10**400")
        out.append((digest(err.replace(str(work), "WORK")), f"{label}: exit {code}, stderr"))
    return out


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for sha, label in listing(Path(tmp)):
            print(f"{sha}  {label}")
