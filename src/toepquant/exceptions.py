"""Exception types, one per CLI exit code: :class:`InvalidArgumentError` means 2, :class:`NumericError` 3.

:func:`require_integer` and :func:`require_sizable` are the argument checks several modules share.
"""

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


def require_integer(name: str, value: object) -> None:
    """Reject ``value``, by ``name``, unless it is an integer (a ``numbers.Integral``, numpy's included)."""
    if not isinstance(value, numbers.Integral):
        raise InvalidArgumentError(f"{name} takes integers only, got {value!r}")


def require_sizable(entries: int, message: str) -> None:
    """Reject, with ``message``, an array of ``entries`` 8-byte values, which numpy cannot size past ``intp`` bytes."""
    if entries > np.iinfo(np.intp).max // 8:
        raise InvalidArgumentError(message)
