"""Benchmark for toepquant: one workload, timed end to end or layer by layer.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; toepquant is imported from its
``src/`` directory and driven only through ``toepquant.cli.main``, in this
one process and its one Python thread.  BLAS threading is left as the
environment sets it and is reported on a ``#`` line.  A run builds the
workload's inputs, runs one untimed warm-up round, times the set-up in
fresh interpreters, then repeats whole rounds until ``--seconds`` have
passed, checking the outputs of every round.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_RUNS = 9
SETUP_COMMAND = "import toepquant.cli as cli; cli.build_parser()"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def measure_setup() -> float:
    """Median wall time for a fresh interpreter to import the CLI and build its parser.

    One untimed start first, so that every timed start finds the bytecode
    already compiled.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", SETUP_COMMAND]
    times = []
    for i in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdin=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def blas_threads() -> str:
    """The BLAS thread setting in force: environment variables and OpenBLAS's own count."""
    import ctypes

    import numpy as np

    parts = [f"{name}={os.environ.get(name, 'unset')}" for name in BLAS_ENV]
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                parts.append(f"openblas_threads={fn()}")
                break
    parts.append(f"cpus={os.cpu_count()}")
    return " ".join(parts)


class Runner:
    """Runs rounds of a workload's operations and keeps the tallies."""

    def __init__(self, ops: list) -> None:
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def round(self) -> tuple[float, int]:
        """One round: every operation once, timed; then check the outputs.

        Returns the round's wall time and the estimates it completed.
        """
        results = []
        start = time.perf_counter()
        for op in self.ops:
            results.append(workloads.call_main(op.argv))
        elapsed = time.perf_counter() - start

        estimates = 0
        for op, (rc, stdout, stderr) in zip(self.ops, results):
            self.attempted += 1
            if rc != 0:
                self.failed += 1
                print(f"# failed (exit {rc}): {' '.join(op.argv)}: {stderr.strip()}", file=sys.stderr)
                continue
            try:
                estimates += op.check(stdout)
            except checks.CheckFailed as exc:
                self.correct = False
                print(f"# wrong output: {' '.join(op.argv)}: {exc}", file=sys.stderr)
        return elapsed, estimates

    def repeat(self, seconds: float) -> list[tuple[float, int]]:
        """Whole rounds until ``seconds`` have passed; at least one."""
        deadline = time.perf_counter() + seconds
        rounds = [self.round()]
        while time.perf_counter() < deadline:
            rounds.append(self.round())
        return rounds


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One benchmark run; ``size`` \"tiny\" is for the benchmark's own tests."""
    work = WORK / f"{workload}-{os.getpid()}"
    try:
        runner = Runner(workloads.WORKLOADS[workload](seed, work, size))
        runner.round()  # warm-up: fills caches, finishes lazy set-up; checked, not timed
        if not trace:
            # after the warm-up, so the processor is as busy as in the rounds
            setup_s = measure_setup()
            rounds = runner.repeat(seconds)
            times = [t for t, _ in rounds]
            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_s": (statistics.median(times), "s"),
                "estimates_per_s": (statistics.median(e / t for t, e in rounds), "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
        else:
            plain = runner.repeat(seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = runner.repeat(seconds / 2)
            finally:
                tracer.uninstall()
            metrics = tracer.per_round(len(traced))
            overhead = statistics.median(t for t, _ in traced) - statistics.median(t for t, _ in plain)
            metrics["trace.overhead_s"] = (overhead, "s")
        print(f"# workload={workload} seed={seed} blas: {blas_threads()}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed, >= 0")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "toepquant" / "cli.py").is_file():
        print(f"perfbench: no toepquant sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import toepquant

    if Path(toepquant.__file__).resolve().parent != SRC / "toepquant":
        print(f"perfbench: imported toepquant from {toepquant.__file__}, not {SRC}", file=sys.stderr)
        return 2

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
