"""Exception and warning types shared across the package."""

from __future__ import annotations

__all__ = [
    "QMoneyError",
    "DimensionError",
    "CapacityError",
    "InconsistentGeneratorsError",
    "AttackFailure",
    "SchemeFormatError",
    "SoundnessWarning",
]


class QMoneyError(Exception):
    """Base class for errors raised by this package."""


class DimensionError(QMoneyError):
    """Operands act on different numbers of qubits (or wrong vector length)."""


class CapacityError(QMoneyError):
    """A dense 2**n-sized object was requested above the supported qubit limit."""


class InconsistentGeneratorsError(QMoneyError):
    """A generating set contains a pair of anticommuting operators."""


class AttackFailure(QMoneyError):
    """An attack could not recover a usable structure from the given scheme."""


class SchemeFormatError(QMoneyError):
    """A scheme or note file is malformed.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SoundnessWarning(UserWarning):
    """Scheme parameters are too weak for the verifier's statistics to mean much."""
