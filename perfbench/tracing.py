"""Per-layer timing for the traced run, installed from outside the program.

Each wrapper replaces a public function on the module that binds it (the
name a caller actually looks up), records calls, busy time and self time
(busy time minus the busy time of wrapped calls made inside it), and can
add a computed work count per call.  Nothing inside toepquant is edited.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import defaultdict
from typing import Callable


def _sample_flops(args, result) -> int:
    # sample_gaussian(t, n, rng): dense eigh with vectors (9 d^3, Golub &
    # Van Loan's count for the symmetric QR algorithm) plus the n x d x d
    # product that applies the factor.
    t, n = args[0], args[1]
    return 9 * t.d**3 + 2 * n * t.d * t.d


def _op_norm_flops(args, result) -> int:
    # op_norm(m): eigenvalues of a dense symmetric d x d matrix, 4 d^3 / 3.
    m = args[0]
    d = m.d if hasattr(m, "d") else m.shape[0]
    return math.ceil(4 * d**3 / 3)


def _dither_entries(args, result) -> int:
    return int(result.size)


def _pair_products(args, result) -> int:
    batch = args[0]
    return batch.n * batch.ruler.size**2


# layer name -> (bindings as (module, attribute), count name, count function)
# A count function takes the call's positional arguments and its result.
LAYERS: dict[str, tuple[tuple[tuple[str, str], ...], str | None, Callable | None]] = {
    "cli.main": ((("toepquant.cli", "main"),), None, None),
    "experiments.run_experiment": ((("toepquant.cli", "run_experiment"),), None, None),
    "experiments.simulate_estimate": ((("toepquant.experiments", "simulate_estimate"),), None, None),
    "sampling.gen": (
        (
            ("toepquant.experiments", "gen_toeplitz_vandermonde"),
            ("toepquant.experiments", "gen_banded"),
        ),
        None,
        None,
    ),
    "sampling.sample_gaussian": (
        (("toepquant.experiments", "sample_gaussian"),),
        "flops_computed",
        _sample_flops,
    ),
    "sampling.observe": (
        (("toepquant.experiments", "observe"), ("toepquant.cli", "observe")),
        None,
        None,
    ),
    "quantization.draw_dither": ((("toepquant.sampling", "draw_dither"),), "entries", _dither_entries),
    "rulers.ruler_alpha": (
        (("toepquant.experiments", "ruler_alpha"), ("toepquant.cli", "ruler_alpha")),
        None,
        None,
    ),
    "estimators.estimate": (
        (
            ("toepquant.experiments", "ruler_estimate"),
            ("toepquant.experiments", "quantized_estimate"),
            ("toepquant.cli", "ruler_estimate"),
            ("toepquant.cli", "quantized_estimate"),
        ),
        "pair_products",
        _pair_products,
    ),
    "estimators.postprocess": (
        (
            ("toepquant.experiments", "threshold_estimate"),
            ("toepquant.experiments", "banded_estimate"),
        ),
        None,
        None,
    ),
    "estimators.relative_error": ((("toepquant.experiments", "relative_error"),), None, None),
    "toeplitz.op_norm": (
        (("toepquant.estimators", "op_norm"), ("toepquant.experiments", "op_norm")),
        "flops_computed",
        _op_norm_flops,
    ),
    "bounds.threshold": ((("toepquant.experiments", "threshold_zeta"),), None, None),
}


class MissingLayerError(RuntimeError):
    """A name the tracer must wrap is not bound where it is expected."""


class Tracer:
    """Installs the wrappers, accumulates totals, and restores the originals."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []  # busy time of wrapped children, per open call
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn: Callable, count_name: str | None, count: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._stack.pop()
                self.calls[layer] += 1
                self.busy[layer] += elapsed
                self.self_time[layer] += elapsed - children
                if self._stack:
                    self._stack[-1] += elapsed
            if count is not None:
                self.counts[f"{layer}.{count_name}"] += int(count(args, result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every binding in LAYERS; raise MissingLayerError if one is gone."""
        targets = []
        for layer, (bindings, count_name, count) in LAYERS.items():
            for module_name, attr in bindings:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if not callable(fn):
                    raise MissingLayerError(f"{module_name}.{attr} is not a callable (layer {layer})")
                targets.append((module, attr, fn, layer, count_name, count))
        for module, attr, fn, layer, count_name, count in targets:
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(layer, fn, count_name, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def per_round(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Every layer metric as (value per round, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for layer, (_, count_name, _) in LAYERS.items():
            out[f"{layer}.calls"] = (self.calls[layer] / rounds, "count")
            out[f"{layer}.busy_s"] = (self.busy[layer] / rounds, "s")
            out[f"{layer}.self_s"] = (self.self_time[layer] / rounds, "s")
            if count_name is not None:
                key = f"{layer}.{count_name}"
                out[key] = (self.counts[key] / rounds, "count")
        return out
