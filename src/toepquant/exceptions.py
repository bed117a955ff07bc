"""Exception types, one per CLI exit code: :class:`InvalidArgumentError` means 2, :class:`NumericError` 3.

:func:`require_integer`, :func:`require_real`, :func:`require_indices` and :func:`require_sizable` are the argument checks every module shares.
"""

import math
import numbers

import numpy as np


class ToepquantError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(ToepquantError, ValueError):
    """An argument, dimension, index or input file is outside what the package accepts."""


class NumericError(ToepquantError, ArithmeticError):
    """Non-finite values, a matrix too far from positive semidefinite, or a failed numerical routine."""


class NotARulerError(InvalidArgumentError):
    """An index set does not realize every pairwise distance."""

    def __init__(self, message: str, missing: list[int] | None = None):
        super().__init__(message)
        self.missing = missing or []


def require_integer(name: str, value: object, low: int | None = None, high: int | None = None) -> None:
    """Reject ``value``, by ``name``, unless it is an integer (numpy's included, not a ``bool``) in [low, high]; ``None`` binds nothing."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidArgumentError(f"{name} takes integers only, got {value!r}")
    if (low is not None and value < low) or (high is not None and value > high):
        rule = f"lie in [{low}, {high}]" if high is not None else {0: "be non-negative", 1: "be positive"}.get(low, f"be at least {low}")
        raise InvalidArgumentError(f"{name} must {rule}, got {_shown(value)}")


def require_real(name: str, value: object, low: float, high: float = math.inf, low_open: bool = False, high_open: bool = False) -> None:
    """Reject ``value``, by ``name``, unless it is a real (not a ``bool``) that a float holds, finite and in its interval.

    Each end of the interval is included unless it is open; an infinite ``high`` binds nothing.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidArgumentError(f"{name} takes real numbers only, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer past the float range
        x = math.inf
    if not (math.isfinite(x) and (low < x if low_open else low <= x) and (x < high if high_open else x <= high)):
        if high < math.inf:
            rule = f"lie in {'(' if low_open else '['}{_exact(low)}, {_exact(high)}{')' if high_open else ']'}"
        else:
            rule = "be finite and " + ("positive" if low == 0 and low_open else f"{'>' if low_open else '>='} {_exact(low)}")
        raise InvalidArgumentError(f"{name} must {rule}, got {_shown(value)}")


def require_indices(name: str, indices: object, low: int, high: int) -> np.ndarray:
    """``indices`` as a sorted 1-D int64 array, repeats kept; rejected, by ``name``, unless a non-empty 1-D set of integer values in [low, high].

    Integer arrays and integer-valued float arrays and lists pass; fractions,
    NaN, text and bool arrays do not.  A rejection reports the values given,
    before any cast: a uint64 past int64 does not wrap.
    """
    raw = np.asarray(indices)
    if raw.ndim != 1 or raw.size == 0:
        raise InvalidArgumentError(f"{name} must be a non-empty 1-D set, got shape {raw.shape}")
    if raw.dtype.kind not in "iu" and not (raw.dtype.kind == "f" and np.array_equal(raw, np.trunc(raw))):
        raise InvalidArgumentError(f"{name} must be integer values, got {raw.dtype} {np.array2string(raw, threshold=8)}")
    idx = np.sort(raw)
    if idx[0] < low or idx[-1] > high:
        raise InvalidArgumentError(f"{name} must lie in [{low}, {high}], got [{idx[0]}, {idx[-1]}]")
    return idx.astype(np.int64, copy=False)


def _shown(value: numbers.Real) -> str:
    """``value`` as a message prints it; an integer past the float range, perhaps too long to print, by that fact."""
    try:
        float(value)
    except OverflowError:
        return "a number past the float range"
    return str(value)


def _shown_tuple(values: tuple) -> str:
    """The tuple of ``values`` as a message prints it, each number as :func:`_shown` prints it."""
    shown = [_shown(v) if isinstance(v, numbers.Real) else repr(v) for v in values]
    return f"({', '.join(shown)}{',' * (len(shown) == 1)})"


def _exact(bound: float) -> str:
    """``bound`` as the fraction it is: 1/2 for 0.5, 1 for 1.0."""
    return "{}/{}".format(*bound.as_integer_ratio()).removesuffix("/1")


def require_sizable(entries: int, message: str) -> None:
    """Reject, with ``message``, an array of ``entries`` 8-byte values, which numpy cannot size past ``intp`` bytes."""
    if entries > np.iinfo(np.intp).max // 8:
        raise InvalidArgumentError(message)
