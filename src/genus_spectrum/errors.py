"""Exception types shared across the package, each input rule once and every limit's refusal."""

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


def _int_in(value, what: str, lo: int, hi: int | None = None, error=InputError) -> int:
    """value as an int (`_as_int`) in [lo, hi], or >= lo when hi is None; else error naming what."""
    n = _as_int(value)
    if hi is None:
        if n < lo:
            raise error(f"{what} must be >= {lo}, got {n}")
    elif not lo <= n <= hi:
        raise error(f"{what} {n} outside [{lo}, {hi}]")
    return n


def _naturals(entries, what: str, error=InputError) -> tuple[int, ...]:
    """entries as a non-empty tuple of ints >= 0, each one `_as_int`; else error naming what."""
    seq = tuple(entries)
    try:
        seq = tuple(map(index, seq))
    except TypeError:
        seq = tuple(map(_as_int, seq))  # raises, naming the first non-int
    if not seq:
        raise error(f"{what} must be non-empty")
    if min(seq) < 0:
        raise error(f"{what} must have entries >= 0, got {seq}")
    return seq


_UNSET = object()


def _within(estimate: int, limit: int, text, a=_UNSET, b=_UNSET, c=_UNSET, d=_UNSET, e=_UNSET):
    """estimate, or past limit OutOfRangeError(text(*args)), args the ones of a to e given:
    every work limit's one refusal.  Not *args: CPython does not specialise a call to a
    function with *args, and each p^delta read makes this call."""
    if estimate <= limit:
        return estimate
    raise OutOfRangeError(text(*(x for x in (a, b, c, d, e) if x is not _UNSET)))


def _parse_ints(tokens, what: str, text: str) -> tuple[int, ...]:
    """int() of each token split from text; InputError naming what and text if one is no number."""
    try:
        return tuple(map(int, tokens))
    except ValueError:
        raise InputError(f"non-numeric token in {what} {text!r}") from None

