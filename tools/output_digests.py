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
* the stdout of ``bounds --d 128 --alpha 0.5,0.75,1.0 --delta 0,2,5 --k 10``.

Only numpy and toepquant are imported.  A run that exits non-zero stops
the script with that run's command line.
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


def run(argv: list[str]) -> str:
    """The stdout of ``toepquant --seed 123 <argv>``; a non-zero exit stops the script."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--seed", SEED, *argv])
    if code != 0:
        sys.exit(f"toepquant {' '.join(argv)} exited {code}")
    return out.getvalue()


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
    for argv in SIMULATIONS + [BOUNDS]:
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
    return out


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for sha, label in listing(Path(tmp)):
            print(f"{sha}  {label}")
