"""Closed-form rate constants and sample-complexity predictions.

These are the theoretical quantities the experiments overlay against
empirical error curves.  Every expression that carries an unspecified
universal constant is evaluated with that constant set to one, and reports
flag the result as "up to constant"; only the arithmetic is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import InvalidArgumentError, require_integer, require_real
from .rulers import coverage_coefficient, ruler_alpha
from .toeplitz import SymToeplitz, principal_submatrix

__all__ = [
    "BoundsReport",
    "big_k",
    "kappa",
    "script_l",
    "script_l_prime",
    "vsc_predict",
    "script_k",
    "threshold_zeta",
    "lambda_diag",
    "evaluate_bounds",
]


def _finite(name: str, value: float) -> float:
    """``value``, rejected unless it is a finite float; ``name`` is its field in :class:`BoundsReport`."""
    if not math.isfinite(value):
        raise InvalidArgumentError(f"bounds not finite for this configuration: {name}")
    return value


def big_k(op_norm_t: float, delta: float) -> float:
    """Sub-exponential scale of a quantized pair product: ``2(||T||_2 + 2 delta^2)``."""
    require_real("op_norm_t", op_norm_t, 0)
    require_real("delta", delta, 0)
    return _finite("big_k", 2.0 * (op_norm_t + 2.0 * delta * delta))


def kappa(eps: float, op_norm_t: float, delta: float, phi: float) -> float:
    """Exponential rate governing operator-norm concentration.

    ``eps^2 / (script_l(||T||, delta) * phi(R))``: larger is faster.
    """
    require_real("eps", eps, 0, 1, low_open=True)
    lv = script_l(op_norm_t, delta)
    require_real("phi", phi, 0, low_open=True)
    value = eps * eps / (lv * phi)
    if not (math.isfinite(value) and value > 0):
        raise InvalidArgumentError("bounds not finite for this configuration: kappa")
    return value


def _penalty(name: str, op_norm_t: float, delta: float, lam: float) -> float:
    """The penalty ``name``: ``(lam ||T||^2 + delta^4) / ||T||^2``, rejected unless it is a finite float."""
    require_real("op_norm_t", op_norm_t, 0)
    require_real("delta", delta, 0)
    try:
        d4 = delta**4  # a float power raises on overflow
    except OverflowError:
        raise InvalidArgumentError(f"delta^4 must be finite, got delta = {delta}") from None
    require_real("op_norm_t", op_norm_t, 0, low_open=True)
    t2 = op_norm_t * op_norm_t
    if not (math.isfinite(t2) and t2 > 0):
        raise InvalidArgumentError(f"||T||^2 must be finite and positive, got op_norm_t = {op_norm_t}")
    return _finite(name, (lam * t2 + d4) / t2)


def script_l(op_norm_t: float, delta: float) -> float:
    """Quantization penalty on the sample-complexity coefficient, >= 1."""
    return _penalty("script_l", op_norm_t, delta, 1.0)


def script_l_prime(op_norm_t: float, delta: float, k: int, d: int) -> float:
    """Low-rank penalty: ``(lambda ||T||^2 + delta^4) / ||T||^2`` with ``lambda = k^2/d``."""
    require_integer("d", d, 1)
    require_real("d", d, 1)  # k * k / d is a float
    require_integer("k", k, 1, d)
    return _penalty("script_l_prime", op_norm_t, delta, k * k / d)


def vsc_predict(d: int, eps: float, prob_delta: float, alpha: float, script_l_value: float) -> float:
    """Predicted vector sample complexity for the two-block ruler family.

    ``L * log(d / (eps * delta)) * max(d^(2-2a), d^(1-a) log d) / eps^2``
    with the hidden constant set to one ("up to constant").
    """
    require_real("eps", eps, 0, 1, low_open=True, high_open=True)
    require_real("prob_delta", prob_delta, 0, 1, low_open=True, high_open=True)
    require_integer("dimension", d, 2)
    require_real("dimension", d, 2)  # d is raised to float powers
    require_real("alpha", alpha, 0.5, 1)
    require_real("script_l_value", script_l_value, 0)
    growth = max(d ** (2.0 - 2.0 * alpha), d ** (1.0 - alpha) * math.log(d))
    try:
        value = script_l_value * math.log(d / (eps * prob_delta)) * growth / (eps * eps)
    except ZeroDivisionError:  # eps * prob_delta or eps^2 underflowed to zero
        value = math.inf
    return _finite("vsc_pred", value)


def script_k(big_k_value: float, ruler_size: int, d: float, p: float, n: int) -> float:
    """Entrywise deviation scale ``K * sqrt((log|R| + 4p log d) / n)``."""
    require_real("big_k_value", big_k_value, 0)
    require_real("p", p, 1)
    require_integer("n", n, 1)
    require_real("n", n, 1)  # a float is divided by n
    require_integer("ruler_size", ruler_size, 1)
    require_real("d", d, 1)
    return _finite("script_k", big_k_value * math.sqrt((math.log(ruler_size) + 4.0 * p * math.log(d)) / n))


def threshold_zeta(
    big_k_value: float, ruler_size: int, d: float, p: float, n: int, c: float = 1.0
) -> float:
    """Threshold for the banded estimator: ``C`` times the deviation scale.

    The theory asks for a "sufficiently large" ``C``; the default 1.0 is a
    placeholder and the experiment driver calibrates its own value.
    """
    require_real("c", c, 0, low_open=True)
    return _finite("zeta", c * script_k(big_k_value, ruler_size, d, p, n))


class SubmatrixNormCheck(NamedTuple):
    submatrix_norm_sq: float
    bound_value: float
    lambda_value: float


def lambda_diag(t: SymToeplitz, k: int, alpha: float) -> SubmatrixNormCheck:
    """Evaluate both sides of the low-rank submatrix-norm inequality.

    Returns ``||T_{R_alpha}||_2^2`` together with the bound
    ``(32 k^2 / d^(2-2a)) ||T||_2^2 + 8 lambda(k, T)`` where
    ``lambda(k, T) = min(||T - T_k||_2^2, (2 / d^(1-a)) ||T - T_k||_F^2)``
    and ``T_k`` is the best rank-k approximation.  All three norms of
    ``T`` are read from one spectrum: with ``w`` the moduli of its
    eigenvalues in decreasing order, ``T_k`` keeps the first k, so
    ``||T||_2 = w[0]``, ``||T - T_k||_2 = w[k]`` (0 at k = d) and
    ``||T - T_k||_F^2`` is the sum of ``w[i]^2`` over i >= k.  ``T``'s
    entries are finite (see :class:`~toepquant.toeplitz.SymToeplitz`).
    """
    d = t.d
    require_integer("k", k, 1, d)
    sub = principal_submatrix(t, ruler_alpha(d, alpha).indices)
    left = float(np.abs(np.linalg.eigvalsh(sub)).max()) ** 2
    w = np.append(np.sort(np.abs(np.linalg.eigvalsh(t.dense())))[::-1], 0.0)
    lam = min(float(w[k]) ** 2, 2.0 / d ** (1.0 - alpha) * float(w[k:] @ w[k:]))
    bound = 32.0 * k * k / d ** (2.0 - 2.0 * alpha) * float(w[0]) ** 2 + 8.0 * lam
    return SubmatrixNormCheck(left, bound, lam)


@dataclass(frozen=True)
class BoundsReport:
    """All theoretical quantities for one configuration."""

    ruler_size: int
    phi: float
    big_k: float
    kappa: float
    script_l: float
    script_l_prime: float | None
    lambda_low_rank: float | None
    script_k: float
    zeta: float
    vsc_pred: float
    up_to_constant: bool = True


def evaluate_bounds(
    d: int,
    alpha: float,
    delta: float,
    eps: float,
    prob_delta: float,
    op_norm_t: float = 1.0,
    k: int | None = None,
    p: float = 2.0,
    n: int = 1000,
    c: float = 1.0,
) -> BoundsReport:
    """Evaluate every bound for one configuration.

    The sample-complexity prediction uses the low-rank coefficient when a
    rank ``k`` is given and the general one otherwise.  A configuration
    for which any of them is not a finite float is rejected.
    """
    require_integer("dimension", d, 2)
    ruler = ruler_alpha(d, alpha)
    phi = coverage_coefficient(ruler)
    # script_l first: a norm or level whose square overflows is named before K is
    lv = script_l(op_norm_t, delta)
    kv = big_k(op_norm_t, delta)
    lpv = script_l_prime(op_norm_t, delta, k, d) if k is not None else None
    lam = k * k / d if k is not None else None
    skv = script_k(kv, ruler.size, d, p, n)
    return BoundsReport(
        ruler_size=ruler.size,
        phi=phi,
        big_k=kv,
        kappa=kappa(eps, op_norm_t, delta, phi),
        script_l=lv,
        script_l_prime=lpv,
        lambda_low_rank=lam,
        script_k=skv,
        zeta=threshold_zeta(kv, ruler.size, d, p, n, c),
        vsc_pred=vsc_predict(d, eps, prob_delta, alpha, lpv if lpv is not None else lv),
    )
