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

from .exceptions import InvalidArgumentError, NumericError
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


def _check_scales(op_norm_t: float, delta: float) -> None:
    """Reject an operator norm or quantization level that is not finite and >= 0."""
    if not (math.isfinite(op_norm_t) and math.isfinite(delta) and op_norm_t >= 0 and delta >= 0):
        raise InvalidArgumentError(f"op_norm_t and delta must be finite and >= 0, got {op_norm_t} and {delta}")


def big_k(op_norm_t: float, delta: float) -> float:
    """Sub-exponential scale of a quantized pair product: ``2(||T||_2 + 2 delta^2)``."""
    _check_scales(op_norm_t, delta)
    return _finite("big_k", 2.0 * (op_norm_t + 2.0 * delta * delta))


def kappa(eps: float, op_norm_t: float, delta: float, phi: float) -> float:
    """Exponential rate governing operator-norm concentration.

    ``eps^2 / (script_l(||T||, delta) * phi(R))``: larger is faster.
    """
    if not 0 < eps <= 1:
        raise InvalidArgumentError(f"eps must lie in (0, 1], got {eps}")
    lv = script_l(op_norm_t, delta)
    if not (math.isfinite(phi) and phi > 0):
        raise InvalidArgumentError(f"phi must be finite and positive, got {phi}")
    value = eps * eps / (lv * phi)
    if not (math.isfinite(value) and value > 0):
        raise InvalidArgumentError("bounds not finite for this configuration: kappa")
    return value


def _penalty(name: str, op_norm_t: float, delta: float, lam: float) -> float:
    """The penalty ``name``: ``(lam ||T||^2 + delta^4) / ||T||^2``, rejected unless it is a finite float."""
    _check_scales(op_norm_t, delta)
    try:
        d4 = delta**4  # a float power raises on overflow
    except OverflowError:
        raise InvalidArgumentError(f"delta^4 must be finite, got delta = {delta}") from None
    if op_norm_t == 0:
        raise InvalidArgumentError(f"op_norm_t must be finite and positive, got {op_norm_t}")
    t2 = op_norm_t * op_norm_t
    if not (math.isfinite(t2) and t2 > 0):
        raise InvalidArgumentError(f"||T||^2 must be finite and positive, got op_norm_t = {op_norm_t}")
    return _finite(name, (lam * t2 + d4) / t2)


def script_l(op_norm_t: float, delta: float) -> float:
    """Quantization penalty on the sample-complexity coefficient, >= 1."""
    return _penalty("script_l", op_norm_t, delta, 1.0)


def script_l_prime(op_norm_t: float, delta: float, k: int, d: int) -> float:
    """Low-rank penalty: ``(lambda ||T||^2 + delta^4) / ||T||^2`` with ``lambda = k^2/d``."""
    if not 1 <= k <= d:
        raise InvalidArgumentError(f"k must lie in [1, {d}], got {k}")
    return _penalty("script_l_prime", op_norm_t, delta, k * k / d)


def vsc_predict(d: int, eps: float, delta_prob: float, alpha: float, script_l_value: float) -> float:
    """Predicted vector sample complexity for the two-block ruler family.

    ``L * log(d / (eps * delta)) * max(d^(2-2a), d^(1-a) log d) / eps^2``
    with the hidden constant set to one ("up to constant").
    """
    if not 0 < eps < 1 or not 0 < delta_prob < 1:
        raise InvalidArgumentError("eps and delta_prob must lie in (0, 1)")
    if d < 2:
        raise InvalidArgumentError(f"dimension must be at least 2, got {d}")
    growth = max(d ** (2.0 - 2.0 * alpha), d ** (1.0 - alpha) * math.log(d))
    try:
        value = script_l_value * math.log(d / (eps * delta_prob)) * growth / (eps * eps)
    except ZeroDivisionError:  # eps * delta_prob or eps^2 underflowed to zero
        value = math.inf
    return _finite("vsc_pred", value)


def script_k(big_k_value: float, ruler_size: int, d: float, p: float, n: int) -> float:
    """Entrywise deviation scale ``K * sqrt((log|R| + 4p log d) / n)``."""
    if not (math.isfinite(p) and p >= 1):
        raise InvalidArgumentError(f"p must be finite and >= 1, got {p}")
    if n < 1:
        raise InvalidArgumentError(f"n must be >= 1, got {n}")
    if ruler_size < 1 or d < 1:
        raise InvalidArgumentError("ruler_size and d must be positive")
    return _finite("script_k", big_k_value * math.sqrt((math.log(ruler_size) + 4.0 * p * math.log(d)) / n))


def threshold_zeta(
    big_k_value: float, ruler_size: int, d: float, p: float, n: int, c: float = 1.0
) -> float:
    """Threshold for the banded estimator: ``C`` times the deviation scale.

    The theory asks for a "sufficiently large" ``C``; the default 1.0 is a
    placeholder and the experiment driver calibrates its own value.
    """
    if not (math.isfinite(c) and c > 0):
        raise InvalidArgumentError(f"C must be finite and positive, got {c}")
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
    ``||T - T_k||_F^2`` is the sum of ``w[i]^2`` over i >= k.  A ``T``
    with a non-finite entry raises :class:`NumericError`.
    """
    d = t.d
    if not 1 <= k <= d:
        raise InvalidArgumentError(f"k must lie in [1, {d}], got {k}")
    if not np.all(np.isfinite(t.a)):
        raise NumericError("matrix contains non-finite entries")
    sub = principal_submatrix(t, ruler_alpha(d, alpha).indices)
    left = float(np.abs(np.linalg.eigvalsh(sub)).max()) ** 2
    w = np.append(np.sort(np.abs(np.linalg.eigvalsh(t.dense())))[::-1], 0.0)
    lam = min(float(w[k]) ** 2, 2.0 / d ** (1.0 - alpha) * float(w[k:] @ w[k:]))
    bound = 32.0 * k * k / d ** (2.0 - 2.0 * alpha) * float(w[0]) ** 2 + 8.0 * lam
    return SubmatrixNormCheck(left, bound, lam)


@dataclass(frozen=True)
class BoundsReport:
    """All theoretical quantities for one configuration, inputs echoed."""

    d: int
    alpha: float
    delta: float
    eps: float
    prob_delta: float
    op_norm_t: float
    k: int | None
    p: float
    n: int
    c: float
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
    if d < 2:
        raise InvalidArgumentError(f"dimension must be at least 2, got {d}")
    ruler = ruler_alpha(d, alpha)
    phi = coverage_coefficient(ruler)
    # script_l first: a norm or level whose square overflows is named before K is
    lv = script_l(op_norm_t, delta)
    kv = big_k(op_norm_t, delta)
    lpv = script_l_prime(op_norm_t, delta, k, d) if k is not None else None
    lam = k * k / d if k is not None else None
    skv = script_k(kv, ruler.size, d, p, n)
    return BoundsReport(
        d=d,
        alpha=alpha,
        delta=delta,
        eps=eps,
        prob_delta=prob_delta,
        op_norm_t=op_norm_t,
        k=k,
        p=p,
        n=n,
        c=c,
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
