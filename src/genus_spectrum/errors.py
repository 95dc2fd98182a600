"""Exception types shared across the package, and the integer check of inputs."""

from operator import index


class GenusSpectrumError(ValueError):
    """Base class for all domain errors raised by this package."""


class InputError(GenusSpectrumError):
    """Malformed or out-of-contract input (wrong length, not non-increasing, ...)."""


class InvalidPrimeError(GenusSpectrumError):
    """A value that must be prime is not."""


class InvalidInvariantsError(GenusSpectrumError):
    """Group invariants that do not describe a non-trivial group of the stated exponent."""


class UnsupportedError(GenusSpectrumError):
    """Operation not applicable to this input (e.g. cyclic group where excluded)."""


class OutOfRangeError(GenusSpectrumError):
    """Numeric argument outside the admissible range."""


class OutOfFamilyError(GenusSpectrumError):
    """Shifted invariants leave the family the construction is valid for."""


class VerificationError(RuntimeError):
    """An internal completeness self-check failed; results would be unreliable."""


def _as_int(value) -> int:
    """value as an exact int (operator.index); a float, str or other non-int raises InputError."""
    try:
        return index(value)
    except TypeError:
        raise InputError(f"expected an integer, got {value!r}") from None
