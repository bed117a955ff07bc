"""Exception types, one per CLI exit code: :class:`InvalidArgumentError` means 2, :class:`NumericError` 3."""


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
