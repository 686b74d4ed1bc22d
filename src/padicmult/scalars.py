"""Exact Gaussian-rational scalars, the coefficient field for everything here.

All function values and operator entries live in Q(i) with
``fractions.Fraction`` components, so every identity checked downstream is an
exact equality rather than a tolerance.  Scalars are immutable, so the unit
scalars ``ZERO`` and ``ONE`` are shared: ``Scalar.of`` returns them for the
integers 0 and 1, and multiplying by ``ONE`` returns the other factor itself.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError

RationalLike = int | Fraction

# canonical text form: "a/b" or "a/b+c/d i" with b, d > 0 and lowest terms
_PATTERN = re.compile(r"^(-?\d+)/(\d+)(?:\+(-?\d+)/(\d+) i)?$")


def _frac(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected int or Fraction, got {value!r}")
    return Fraction(value)


@dataclass(frozen=True, slots=True)
class Scalar:
    """A Gaussian rational ``real + imag*i``."""

    real: Fraction = Fraction(0)
    imag: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "real", _frac(self.real))
        object.__setattr__(self, "imag", _frac(self.imag))

    @staticmethod
    def of(value: Scalar | RationalLike) -> Scalar:
        if isinstance(value, Scalar):
            return value
        if type(value) is int and 0 <= value <= 1:  # not bool, a subclass of int
            return ONE if value else ZERO
        return Scalar(_frac(value))

    def __bool__(self) -> bool:
        return True if self.real else bool(self.imag)

    def __add__(self, other: Scalar | RationalLike) -> Scalar:
        other = Scalar.of(other)
        if not (self.imag or other.imag):
            return Scalar(self.real + other.real)
        return Scalar(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __neg__(self) -> Scalar:
        return Scalar(-self.real, -self.imag)

    def __sub__(self, other: Scalar | RationalLike) -> Scalar:
        return self + (-Scalar.of(other))

    def __rsub__(self, other: Scalar | RationalLike) -> Scalar:
        return Scalar.of(other) + (-self)

    def __mul__(self, other: Scalar | RationalLike) -> Scalar:
        other = Scalar.of(other)
        if self is ONE:
            return other
        if other is ONE:
            return self
        if not (self.imag or other.imag):
            return Scalar(self.real * other.real)
        return Scalar(
            self.real * other.real - self.imag * other.imag,
            self.real * other.imag + self.imag * other.real,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar | RationalLike) -> Scalar:
        other = Scalar.of(other)
        norm = other.real * other.real + other.imag * other.imag
        if not norm:
            raise ZeroDivisionError("division by zero scalar")
        return self * Scalar(other.real / norm, -other.imag / norm)

    def conjugate(self) -> Scalar:
        return Scalar(self.real, -self.imag) if self.imag else self

    def __str__(self) -> str:
        head = f"{self.real.numerator}/{self.real.denominator}"
        if not self.imag:
            return head
        return f"{head}+{self.imag.numerator}/{self.imag.denominator} i"

    @staticmethod
    def parse(text: str) -> Scalar:
        match = _PATTERN.match(text)
        if match is None:
            raise ParseError(f"malformed scalar string: {text!r}")
        a, b, c, d = match.groups()
        if b == "0" or d == "0":
            raise ParseError(f"zero denominator in scalar string: {text!r}")
        real = Fraction(int(a), int(b))
        imag = Fraction(int(c), int(d)) if c is not None else Fraction(0)
        return Scalar(real, imag)


ZERO = Scalar()
ONE = Scalar(Fraction(1))
