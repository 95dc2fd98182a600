"""Exact arithmetic in (1/2)Z.

Reduced genera of abelian 2-groups may be half-integral, so every quantity
that can be a reduced genus is carried as a HalfInt: the doubled value is
stored in an unbounded Python int, and no floats or rationals ever appear.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError


def twice_text(twice: int) -> str:
    """Text form of the half-integer twice/2: "n" when integral, "n/2" in
    lowest terms otherwise."""
    if twice % 2 == 0:
        return str(twice // 2)
    return f"{twice}/2"


@dataclass(frozen=True)
class HalfInt:
    """An element of (1/2)Z, stored as twice its value."""

    twice: int

    def __post_init__(self) -> None:
        # exact type: bool is an int subclass, but True is no doubled value
        if type(self.twice) is not int:
            raise InputError(f"HalfInt needs an int doubled value, got {self.twice!r}")

    @staticmethod
    def of(value: int) -> "HalfInt":
        if type(value) is not int:
            raise InputError(f"HalfInt.of needs an int, got {value!r}")
        return HalfInt(2 * value)

    @staticmethod
    def coerce(value: "HalfInt | int") -> "HalfInt":
        return value if isinstance(value, HalfInt) else HalfInt.of(value)

    @property
    def is_integral(self) -> bool:
        return self.twice % 2 == 0

    def to_int(self) -> int:
        if self.twice % 2 != 0:
            raise InputError(f"{self} is not an integer")
        return self.twice // 2

    # -- arithmetic (int operands are accepted and widened) ----------------

    def __add__(self, other: "HalfInt | int") -> "HalfInt":
        return HalfInt(self.twice + HalfInt.coerce(other).twice)

    __radd__ = __add__

    def __sub__(self, other: "HalfInt | int") -> "HalfInt":
        return HalfInt(self.twice - HalfInt.coerce(other).twice)

    def __rsub__(self, other: "HalfInt | int") -> "HalfInt":
        return HalfInt(HalfInt.coerce(other).twice - self.twice)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __mul__(self, other: int) -> "HalfInt":
        # HalfInt * HalfInt may leave (1/2)Z, so only integer scaling is allowed.
        if not isinstance(other, int):
            return NotImplemented
        return HalfInt(self.twice * other)

    __rmul__ = __mul__

    # -- order ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, HalfInt):
            return self.twice == other.twice
        if isinstance(other, int):
            return self.twice == 2 * other
        return NotImplemented

    def __hash__(self) -> int:
        # integral values must hash like the ints they equal
        if self.twice % 2 == 0:
            return hash(self.twice // 2)
        return hash(("HalfInt", self.twice))

    def __lt__(self, other: "HalfInt | int") -> bool:
        return self.twice < HalfInt.coerce(other).twice

    def __le__(self, other: "HalfInt | int") -> bool:
        return self.twice <= HalfInt.coerce(other).twice

    def __gt__(self, other: "HalfInt | int") -> bool:
        return self.twice > HalfInt.coerce(other).twice

    def __ge__(self, other: "HalfInt | int") -> bool:
        return self.twice >= HalfInt.coerce(other).twice

    # -- text form: twice_text -----------------------------------------------

    def __str__(self) -> str:
        return twice_text(self.twice)

    def __repr__(self) -> str:
        return f"HalfInt({self})"

    @staticmethod
    def parse(text: str) -> "HalfInt":
        body = text.strip()
        try:
            if body.endswith("/2"):
                num = int(body[:-2])
                if num % 2 == 0:
                    raise InputError(f"{text!r} is not in lowest terms")
                return HalfInt(num)
            return HalfInt.of(int(body))
        except ValueError as exc:
            raise InputError(f"cannot parse half-integer {text!r}") from exc
