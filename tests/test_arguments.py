"""One rule for every count, real and index-set argument of the package's public functions and constructors.

A count is an integer (a Python or numpy one, not a ``bool``) within its
range; a real is a finite number that a float holds, within its interval;
an index set is a non-empty 1-D set of integer values within its range.
Every bad value raises ``InvalidArgumentError`` with a message that names
the parameter, as ``exceptions.require_integer``,
``exceptions.require_real`` and ``exceptions.require_indices`` word it.
Nothing built here is larger than d = 16.
"""

import math
import re

import numpy as np
import pytest

from toepquant import (
    Arm,
    GenSpec,
    QuantizerConfig,
    Ruler,
    SampleBatch,
    banded_estimate,
    big_k,
    evaluate_bounds,
    full_ruler,
    gen_banded,
    gen_toeplitz_vandermonde,
    is_ruler,
    kappa,
    lambda_diag,
    phi_bound,
    ruler_alpha,
    sample_gaussian,
    script_k,
    script_l,
    script_l_prime,
    simulate_estimate,
    sup_l,
    threshold_estimate,
    threshold_zeta,
    toep,
    toeplitz_from_modes,
    vsc_predict,
)
from toepquant.exceptions import InvalidArgumentError
from toepquant.experiments import ExperimentConfig, draw_truth
from toepquant.toeplitz import principal_submatrix

T16 = toep(0.5 ** np.arange(16))
R16 = ruler_alpha(16, 0.5)
SPEC = GenSpec(16, k=4)
ARM = Arm("", 1.0, full_ruler(16), QuantizerConfig(0.0))
MODAL16 = toeplitz_from_modes([0.1], [1.0], 16)


def rng():
    return np.random.default_rng(0)


# label -> (call with the value in the parameter's place, the name its message gives, values outside the range)
COUNTS = {
    "script_l_prime k": (lambda v: script_l_prime(1.0, 1.0, v, 16), "k", (0, 17)),
    "script_l_prime d": (lambda v: script_l_prime(1.0, 1.0, 1, v), "d", (0,)),
    "vsc_predict d": (lambda v: vsc_predict(v, 0.1, 0.05, 0.5, 1.0), "dimension", (1,)),
    "script_k ruler_size": (lambda v: script_k(1.0, v, 16, 2.0, 100), "ruler_size", (0,)),
    "script_k n": (lambda v: script_k(1.0, 7, 16, 2.0, v), "n", (0,)),
    "lambda_diag k": (lambda v: lambda_diag(T16, v, 0.5), "k", (0, 17)),
    "evaluate_bounds d": (lambda v: evaluate_bounds(v, 0.5, 0.0, 0.1, 0.05), "dimension", (1,)),
    "evaluate_bounds k": (lambda v: evaluate_bounds(16, 0.5, 0.0, 0.1, 0.05, k=v), "k", (0, 17)),
    "evaluate_bounds n": (lambda v: evaluate_bounds(16, 0.5, 0.0, 0.1, 0.05, n=v), "n", (0,)),
    "Ruler d": (lambda v: Ruler(v, [0, 1]), "d", (0,)),
    "is_ruler d": (lambda v: is_ruler([0, 1], v), "d", (0,)),
    "is_ruler d of no index": (lambda v: is_ruler([], v), "d", (0,)),
    "full_ruler d": (lambda v: full_ruler(v), "dimension", (0,)),
    "ruler_alpha d": (lambda v: ruler_alpha(v, 0.5), "dimension", (0,)),
    "phi_bound d": (lambda v: phi_bound(v, 0.5), "dimension", (1,)),
    "banded_estimate m": (lambda v: banded_estimate(T16, v), "bandwidth", (0, 17)),
    "GenSpec d": (lambda v: GenSpec(v, k=1), "d", (0,)),
    "GenSpec k": (lambda v: GenSpec(16, k=v), "k", (0, 17)),
    "GenSpec m": (lambda v: GenSpec(16, m=v), "m", (0, 16)),
    "toeplitz_from_modes d": (lambda v: toeplitz_from_modes([0.1], [1.0], v), "d", (0,)),
    "gen_toeplitz_vandermonde d": (lambda v: gen_toeplitz_vandermonde(v, 2, rng()), "d", (0,)),
    "gen_toeplitz_vandermonde k": (lambda v: gen_toeplitz_vandermonde(16, v, rng()), "k", (0, 17)),
    "gen_banded d": (lambda v: gen_banded(v, 2, rng()), "d", (0,)),
    "gen_banded m": (lambda v: gen_banded(16, v, rng()), "m", (0, 16)),
    "sample_gaussian n": (lambda v: sample_gaussian(T16, v, rng()), "sample count", (0,)),
    "sup_l grid": (lambda v: sup_l(np.ones(4), v), "grid", (127,)),
    "Arm band_est": (lambda v: Arm("", 1.0, full_ruler(16), QuantizerConfig(0.0), band_est=v), "bandwidth", (0, 17)),
    "simulate_estimate n": (lambda v: simulate_estimate(SPEC, v, 0, ARM), "sample count", (0,)),
    "simulate_estimate seed": (lambda v: simulate_estimate(SPEC, 10, v, ARM), "seed", (-1,)),
    "draw_truth seed": (lambda v: draw_truth(SPEC, v), "seed", (-1,)),
    "ExperimentConfig experiment": (lambda v: ExperimentConfig(v), "experiment", (0, 6)),
    "ExperimentConfig seed": (lambda v: ExperimentConfig(1, seed=v), "seed", (-1,)),
    "ExperimentConfig trials": (lambda v: ExperimentConfig(1, trials=v), "trials", (0,)),
    "ExperimentConfig d": (lambda v: ExperimentConfig(1, d=v), "d", (0,)),
    "ExperimentConfig d_grid": (lambda v: ExperimentConfig(5, d_grid=(16, v)), "d_grid", (0,)),
    "ExperimentConfig n_grid": (lambda v: ExperimentConfig(1, n_grid=(v,)), "n_grid", (0,)),
    "ExperimentConfig bandwidth": (lambda v: ExperimentConfig(5, d_grid=(16,), bandwidth=v), "bandwidth", (0,)),
    "ExperimentConfig n_cap": (lambda v: ExperimentConfig(4, d_grid=(16,), n_cap=v), "n_cap", (0,)),
}

REALS = {
    "big_k op_norm_t": (lambda v: big_k(v, 1.0), "op_norm_t", (-1.0,)),
    "big_k delta": (lambda v: big_k(1.0, v), "delta", (-1.0,)),
    "kappa eps": (lambda v: kappa(v, 1.0, 1.0, 1.0), "eps", (0.0, 1.5)),
    "kappa op_norm_t": (lambda v: kappa(0.1, v, 1.0, 1.0), "op_norm_t", (-1.0, 0.0)),
    "kappa delta": (lambda v: kappa(0.1, 1.0, v, 1.0), "delta", (-1.0,)),
    "kappa phi": (lambda v: kappa(0.1, 1.0, 1.0, v), "phi", (0.0,)),
    "script_l op_norm_t": (lambda v: script_l(v, 1.0), "op_norm_t", (-1.0, 0.0)),
    "script_l delta": (lambda v: script_l(1.0, v), "delta", (-1.0,)),
    "script_l_prime op_norm_t": (lambda v: script_l_prime(v, 1.0, 1, 16), "op_norm_t", (-1.0, 0.0)),
    "script_l_prime delta": (lambda v: script_l_prime(1.0, v, 1, 16), "delta", (-1.0,)),
    "vsc_predict eps": (lambda v: vsc_predict(16, v, 0.05, 0.5, 1.0), "eps", (0.0, 1.0)),
    # labelled by the parameter's former name, which the test ids keep
    "vsc_predict delta_prob": (lambda v: vsc_predict(16, 0.1, v, 0.5, 1.0), "prob_delta", (0.0, 1.0)),
    "vsc_predict alpha": (lambda v: vsc_predict(16, 0.1, 0.05, v, 1.0), "alpha", (0.4, 1.1)),
    "vsc_predict script_l_value": (lambda v: vsc_predict(16, 0.1, 0.05, 0.5, v), "script_l_value", (-1.0,)),
    "script_k big_k_value": (lambda v: script_k(v, 7, 16, 2.0, 100), "big_k_value", (-1.0,)),
    "script_k d": (lambda v: script_k(1.0, 7, v, 2.0, 100), "d", (0.5,)),
    "script_k p": (lambda v: script_k(1.0, 7, 16, v, 100), "p", (0.5,)),
    "threshold_zeta c": (lambda v: threshold_zeta(1.0, 7, 16, 2.0, 100, v), "c", (0.0,)),
    "lambda_diag alpha": (lambda v: lambda_diag(T16, 4, v), "alpha", (0.4, 1.1)),
    "evaluate_bounds alpha": (lambda v: evaluate_bounds(16, v, 0.0, 0.1, 0.05), "alpha", (0.4,)),
    "evaluate_bounds delta": (lambda v: evaluate_bounds(16, 0.5, v, 0.1, 0.05), "delta", (-1.0,)),
    "evaluate_bounds eps": (lambda v: evaluate_bounds(16, 0.5, 0.0, v, 0.05), "eps", (0.0, 1.0)),
    "evaluate_bounds prob_delta": (lambda v: evaluate_bounds(16, 0.5, 0.0, 0.1, v), "prob_delta", (0.0, 1.0)),
    "evaluate_bounds op_norm_t": (lambda v: evaluate_bounds(16, 0.5, 0.0, 0.1, 0.05, op_norm_t=v), "op_norm_t", (0.0,)),
    "evaluate_bounds p": (lambda v: evaluate_bounds(16, 0.5, 0.0, 0.1, 0.05, p=v), "p", (0.5,)),
    "evaluate_bounds c": (lambda v: evaluate_bounds(16, 0.5, 0.0, 0.1, 0.05, c=v), "c", (0.0,)),
    "ruler_alpha alpha": (lambda v: ruler_alpha(16, v), "alpha", (0.4, 1.1)),
    "phi_bound alpha": (lambda v: phi_bound(16, v), "alpha", (0.4, 1.1)),
    "threshold_estimate zeta": (lambda v: threshold_estimate(T16, v), "zeta", (-1.0,)),
    "QuantizerConfig delta": (lambda v: QuantizerConfig(v), "delta", (-1.0,)),
    "SampleBatch delta": (lambda v: SampleBatch(np.zeros((1, R16.size)), R16, v), "delta", (-1.0,)),
    "Arm threshold": (lambda v: Arm("", 1.0, full_ruler(16), QuantizerConfig(0.0), threshold=v), "zeta", (-1.0,)),
    "ExperimentConfig eps": (lambda v: ExperimentConfig(4, d_grid=(16,), eps=v), "eps", (0.0,)),
    "ExperimentConfig deltas": (lambda v: ExperimentConfig(2, deltas=(v, 2.0)), "delta", (-1.0,)),
    "ExperimentConfig alphas": (lambda v: ExperimentConfig(1, alphas=(v,)), "alpha", (0.4,)),
}

# calls whose value an inline check let through: an int past the float range, text, a fraction or a bool
DRIFT = {
    "QuantizerConfig(10**400)": (lambda: QuantizerConfig(10**400), "delta"),
    "Arm(threshold=10**400)": (lambda: Arm("", 1.0, full_ruler(16), QuantizerConfig(0.0), threshold=10**400), "zeta"),
    "big_k(10**400, 1.0)": (lambda: big_k(10**400, 1.0), "op_norm_t"),
    "kappa(phi=10**400)": (lambda: kappa(0.1, 1.0, 1.0, 10**400), "phi"),
    "script_k(p=10**400)": (lambda: script_k(1.0, 3, 16, 10**400, 10), "p"),
    "threshold_zeta(c=10**400)": (lambda: threshold_zeta(1.0, 3, 16, 2.0, 10, c=10**400), "c"),
    "evaluate_bounds(op_norm_t=10**400)": (
        lambda: evaluate_bounds(16, 0.5, 0.0, 0.1, 0.05, op_norm_t=10**400), "op_norm_t",
    ),
    "ExperimentConfig(deltas=(10**400, 1.0))": (lambda: ExperimentConfig(2, deltas=(10**400, 1.0)), "delta"),
    "threshold_estimate(10**400)": (lambda: threshold_estimate(T16, 10**400), "zeta"),
    # counts that a float cannot hold, whose 401 digits no message prints
    "ruler_alpha(10**400)": (lambda: ruler_alpha(10**400, 0.5), "dimension"),
    "full_ruler(10**400)": (lambda: full_ruler(10**400), "dimension"),
    "phi_bound(10**400)": (lambda: phi_bound(10**400, 0.5), "dimension"),
    "vsc_predict(10**400)": (lambda: vsc_predict(10**400, 0.1, 0.05, 0.5, 1.0), "dimension"),
    "script_k(n=10**400)": (lambda: script_k(1.0, 7, 16, 2.0, 10**400), "n"),
    "evaluate_bounds(n=10**400)": (lambda: evaluate_bounds(16, 0.5, 0.0, 0.1, 0.05, n=10**400), "n"),
    "script_l_prime(d=10**400)": (lambda: script_l_prime(1.0, 1.0, 10**400, 10**400), "d"),
    "Arm(band_est=10**400)": (
        lambda: Arm("", 1.0, full_ruler(16), QuantizerConfig(0.0), band_est=10**400), "bandwidth",
    ),
    "GenSpec(k=10**400)": (lambda: GenSpec(16, k=10**400), "k"),
    "ExperimentConfig(n_grid=(6, 10**400))": (lambda: ExperimentConfig(1, n_grid=(6, 10**400)), "n grid"),
    "ExperimentConfig(10**400)": (lambda: ExperimentConfig(10**400), "experiment"),
    "simulate_estimate(GenSpec(10**400, k=1))": (
        lambda: simulate_estimate(GenSpec(10**400, k=1), 10, 0, ARM), "dimension",
    ),
    # a grid rule that prints the whole grid
    "ExperimentConfig(n_grid=(10**400, 6))": (lambda: ExperimentConfig(1, n_grid=(10**400, 6)), "n grid"),
    "ExperimentConfig(5, n_grid=(6, 10**400))": (lambda: ExperimentConfig(5, n_grid=(6, 10**400)), "n_grid"),
    "ExperimentConfig(4, d_grid=(10**400, 10**400))": (lambda: ExperimentConfig(4, d_grid=(10**400, 10**400)), "d_grid"),
    # dimensions whose arrays numpy cannot size
    "gen_banded(10**400)": (lambda: gen_banded(10**400, 2, rng()), "d"),
    "gen_banded(2**62)": (lambda: gen_banded(2**62, 2, rng()), "d"),
    "toeplitz_from_modes(d=10**400)": (lambda: toeplitz_from_modes([0.1], [1.0], 10**400), "d"),
    "gen_toeplitz_vandermonde(10**400)": (lambda: gen_toeplitz_vandermonde(10**400, 5, rng()), "d"),
    'QuantizerConfig("1")': (lambda: QuantizerConfig("1"), "delta"),
    "gen_toeplitz_vandermonde(16.5)": (lambda: gen_toeplitz_vandermonde(16.5, 2, rng()), "d"),
    "toeplitz_from_modes(d=2.5)": (lambda: toeplitz_from_modes([0.1], [1.0], 2.5), "d"),
    "script_l_prime(k=2.5)": (lambda: script_l_prime(1.0, 1.0, 2.5, 16), "k"),
    "phi_bound(16.5)": (lambda: phi_bound(16.5, 0.5), "dimension"),
    "vsc_predict(16.5)": (lambda: vsc_predict(16.5, 0.1, 0.05, 0.5, 1.0), "dimension"),
    "Ruler(2.5)": (lambda: Ruler(2.5, [0, 1]), "d"),
    "full_ruler(2.5)": (lambda: full_ruler(2.5), "dimension"),
    "gen_banded(16.5)": (lambda: gen_banded(16.5, 2, rng()), "d"),
    "banded_estimate(2.5)": (lambda: banded_estimate(T16, 2.5), "bandwidth"),
    "sample_gaussian(n=2.5)": (lambda: sample_gaussian(T16, 2.5, rng()), "sample count"),
    "lambda_diag(k=2.5)": (lambda: lambda_diag(T16, 2.5, 0.5), "k"),
    "GenSpec(True)": (lambda: GenSpec(True, k=1), "d"),
    "ExperimentConfig(trials=True)": (lambda: ExperimentConfig(1, trials=True), "trials"),
    "QuantizerConfig(True)": (lambda: QuantizerConfig(True), "delta"),
    "simulate_estimate(n=True)": (lambda: simulate_estimate(SPEC, True, 0, ARM), "sample count"),
}

# label -> (call with the index set in the parameter's place, the name its message gives)
INDEX_SETS = {
    "Ruler": (lambda v: Ruler(16, v), "ruler indices"),
    "is_ruler": (lambda v: is_ruler(v, 16), "ruler indices"),
    "principal_submatrix": (lambda v: principal_submatrix(T16, v), "indices"),
    "SymToeplitz.psd_factor": (lambda v: MODAL16.psd_factor(v), "indices"),
    "sample_gaussian": (lambda v: sample_gaussian(T16, 2, rng(), v), "indices"),
}

# label -> a value that is no index set at d = 16
BAD_INDICES = {
    "0-d": 3,
    "2-D": [[0, 1], [2, 3]],
    "empty": [],
    "fraction": [0, 1.5],
    "nan": [0, math.nan],
    "text": ["0", "1"],
    "bools": np.array([True, False]),
    "negative": [-1, 0],
    "d": [0, 16],
    "uint64 2**64-1": np.array([0, 2**64 - 1], dtype=np.uint64),
}


def _cases():
    for label, (call, name, outside) in COUNTS.items():
        for value in (True, 2.5, "1", *outside):
            yield pytest.param(call, value, name, id=f"{label}={value!r}")
    for label, (call, name, outside) in REALS.items():
        for value in (True, "1", math.nan, math.inf, 10**400, *outside):
            yield pytest.param(call, value, name, id=f"{label}={'10**400' if value == 10**400 else repr(value)}")
    for label, (call, name) in DRIFT.items():
        yield pytest.param(lambda _, call=call: call(), None, name, id=label)


def _index_cases():
    for label, (call, name) in INDEX_SETS.items():
        for what, value in BAD_INDICES.items():
            # is_ruler answers an empty set: it realizes no distance
            if (label, what) != ("is_ruler", "empty"):
                yield pytest.param(call, value, name, id=f"{label} indices={what}")
    # the entries of a generating vector are finite reals, a rule of their own
    # (NumericError, see test_toeplitz.py), so only its shape is checked here
    for what in ("0-d", "2-D", "empty"):
        yield pytest.param(lambda v: sup_l(v, 2048), BAD_INDICES[what], "generating vector", id=f"sup_l e={what}")


def assert_rejected_by_name(call, value, name):
    with pytest.raises(InvalidArgumentError) as info:
        call(value)
    assert re.search(rf"(?<!\w){re.escape(name)}(?!\w)", str(info.value)), str(info.value)
    assert str(10**400) not in str(info.value)


@pytest.mark.parametrize("call, value, name", _cases())
def test_bad_count_or_real_rejected_by_name(call, value, name):
    assert_rejected_by_name(call, value, name)


@pytest.mark.parametrize("call, value, name", _index_cases())
def test_bad_index_set_rejected_by_name(call, value, name):
    assert_rejected_by_name(call, value, name)


def test_one_rule_words_one_message():
    # the config and a trial state the seed's range in the same words
    messages = set()
    for call in (lambda: ExperimentConfig(1, seed=-1), lambda: simulate_estimate(SPEC, 10, -1, ARM)):
        with pytest.raises(InvalidArgumentError) as info:
            call()
        messages.add(str(info.value))
    assert messages == {"seed must be non-negative, got -1"}
