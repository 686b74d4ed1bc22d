"""Fixed-precision p-adic arithmetic: residues, valuations, Teichmuller lifts.

A p-adic integer is modeled by its residue mod p^N for an explicit precision
N; reducing precision is a ring homomorphism and reductions compose exactly.
Only odd primes are supported.  A multiplier spec is checked against its
prime once, by ``Multiplier.of``; the resolved ``Multiplier`` answers its
valuation, residues and unit residues, and every other module reads those.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from sympy import isprime

from .errors import (
    ExcludedMultiplierError,
    InsufficientPrecisionError,
    NotAUnitError,
    NotPrimeError,
    ParseError,
    ValuationMismatchError,
    ZeroValuationError,
)


@lru_cache(maxsize=None)
def as_prime(p: int) -> int:
    """Return p after checking that it is an odd prime; the check runs once per p."""
    if not isinstance(p, int) or p < 3 or not isprime(p):
        raise NotPrimeError(f"p must be an odd prime >= 3, got {p!r}")
    return p


def valuation(p: int, x: int) -> tuple[int, int]:
    """Split a nonzero integer as x = p^L * unit with the unit coprime to p."""
    p = as_prime(p)
    if x == 0:
        raise ZeroValuationError("zero has infinite valuation")
    level = 0
    while x % p == 0:
        x //= p
        level += 1
    return level, x


def rational_residue(value: int | Fraction, p: int, precision: int) -> int:
    """Reduce a rational with p-coprime denominator to a residue mod p^precision."""
    p = as_prime(p)
    if precision < 0:
        raise InsufficientPrecisionError("precision must be non-negative")
    modulus = p**precision
    if isinstance(value, int):
        return value % modulus
    if value.denominator % p == 0:
        raise NotAUnitError(f"{value} is not a p-adic integer for p={p}")
    return value.numerator * pow(value.denominator, -1, modulus) % modulus if precision else 0


def teichmuller(p: int, i: int, precision: int) -> int:
    """The unique (p-1)-st root of unity congruent to i mod p, mod p^precision.

    Computed by Newton's iteration on x^(p-1) = 1 from x = i mod p (Hensel's
    lemma).  At a root known mod p^k, x is an inverse of x^(p-2) to that
    precision, so the step x - (x^(p-1) - 1) * x / (p-1) needs no inverse of
    x; writing x = w(1 + e) for the root w, it returns w(1 - (p/2) e^2 + O(e^3)),
    which is exact mod p^(2k+1).  The steps climb the halving schedule
    precision, floor(precision/2), floor(precision/4), ..., 1 from the bottom,
    so each starts from a root known mod p^k for a target of at most 2k + 1
    and none works past the precision asked for (von zur Gathen and Gerhard,
    Modern Computer Algebra, section 9).  No inverse of p - 1 is taken either:
    p^n = 1 + (p-1)(p^n - 1)/(p-1), so 1/(p-1) = -(p^n - 1)/(p-1) mod p^n at
    the target n, and the step is x + (x^(p-1) - 1) * x * (p^n - 1)/(p-1).  It
    equals the closed form i^(p^(precision-1)) mod p^precision, the limit of
    the contraction a -> a^p.  Only the class of i mod p matters.
    """
    p = as_prime(p)
    if precision < 1:
        raise InsufficientPrecisionError("precision must be at least 1")
    if i % p == 0:
        raise NotAUnitError(f"{i} is not a unit mod {p}")
    x = i % p
    # the targets precision >> j, for j from precision.bit_length() - 2 down to 0
    for j in range(precision.bit_length() - 2, -1, -1):
        modulus = p ** (precision >> j)
        x = (x + (pow(x, p - 1, modulus) - 1) * x * ((modulus - 1) // (p - 1))) % modulus
    return x


def divide_step(
    p: int, level: int, r: int, x: int | Fraction
) -> tuple[int | Fraction, int]:
    """One division step x = q*r + c with 0 <= c < p^level, for r of valuation level.

    The quotient q is an exact rational whose denominator is coprime to p
    (hence still a p-adic integer); it is a plain int whenever r divides x - c
    over the integers.
    """
    r_level, _ = valuation(p, r)
    if r_level != level or level < 1:
        raise ValuationMismatchError("multiplier valuation mismatch")
    x = Fraction(x)
    c = rational_residue(x, p, level)
    q = (x - c) / r
    return (int(q) if q.denominator == 1 else q), c


@dataclass(frozen=True)
class PadicApprox:
    """A p-adic integer known modulo p^precision."""

    p: int
    precision: int
    residue: int

    def __post_init__(self) -> None:
        as_prime(self.p)
        if self.precision < 1:
            raise InsufficientPrecisionError("precision must be at least 1")
        if not 0 <= self.residue < self.p**self.precision:
            raise ParseError(
                f"residue {self.residue} out of range for precision {self.precision}"
            )

    @classmethod
    def from_int(cls, p: int, precision: int, value: int | Fraction) -> PadicApprox:
        return cls(p, precision, rational_residue(value, p, precision))

    def reduce(self, precision: int) -> PadicApprox:
        """Forget digits down to a smaller precision; reductions compose exactly."""
        if precision > self.precision:
            raise InsufficientPrecisionError(
                f"cannot raise precision {self.precision} to {precision}"
            )
        return PadicApprox(self.p, precision, self.residue % self.p**precision)


# --- multiplier specifications -------------------------------------------------
#
# A multiplier r can be given three ways: an exact nonzero integer (not 1),
# a signed Teichmuller representative (always a root of unity), or a finite
# string of base-p digits carrying no exactness claim beyond its length.


@dataclass(frozen=True)
class ExactInt:
    n: int

    def __post_init__(self) -> None:
        if self.n in (0, 1):
            raise ExcludedMultiplierError("excluded multiplier: r must avoid 0 and 1")


@dataclass(frozen=True)
class TeichProduct:
    i: int
    sign: int = 1

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ParseError("sign must be +1 or -1")
        # teich(1) is 1, excluded; -teich(1) is -1
        if self.i < 2 and (self.i, self.sign) != (1, -1):
            raise ExcludedMultiplierError("Teichmuller index must be at least 2")


@dataclass(frozen=True)
class Digits:
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "digits", tuple(self.digits))
        if not self.digits or any(d < 0 for d in self.digits):
            raise ParseError("digit strings must be non-empty with digits >= 0")


MultiplierSpec = ExactInt | TeichProduct | Digits


def as_multiplier(r: int | MultiplierSpec) -> MultiplierSpec:
    if isinstance(r, (ExactInt, TeichProduct, Digits)):
        return r
    return ExactInt(r)


def _check_precision(n: int, known: int | None, part: str) -> None:
    if n < 0:
        raise InsufficientPrecisionError("precision must be non-negative")
    if known is not None and n > known:
        raise InsufficientPrecisionError(f"{part} known to {known} digits, {n} requested")


@dataclass(frozen=True)
class Multiplier:
    """A multiplier checked against its prime p, in the form computations read.

    ``value`` is r itself when r is exact, and the integer its known digits
    spell when not; a Teichmuller product has none and resolves through its
    lift ``teich``.  ``known`` is the number of known base-p digits, None when
    r is exact.  Build one with ``Multiplier.of``.
    """

    p: int
    value: int | None
    known: int | None = None
    teich: TeichProduct | None = None

    @classmethod
    def of(cls, r: int | MultiplierSpec | Multiplier, p: int) -> Multiplier:
        """Resolve a multiplier against p; a resolved one passes through.

        Checks the 0/1 exclusion (also of ``-teich(p-1)`` and of a digit
        string that spells 1), the Teichmuller index range and that every
        digit is below p.  A resolved multiplier is only compared with p, as
        its own prime was checked.  The valuation is left to ``valuation``,
        so its errors come only from the computations that need it.
        """
        if isinstance(r, Multiplier):
            if r.p != p:
                raise ParseError(f"multiplier resolved for p={r.p}, used with p={p}")
            return r
        p = as_prime(p)
        if type(r) is int and r not in (0, 1):  # 0, 1 and a bool take ExactInt's checks below
            return cls(p, r)
        r = as_multiplier(r)
        if isinstance(r, ExactInt):
            return cls(p, r.n)
        if isinstance(r, TeichProduct):
            if r.i > p - 1:  # the index is at least 2, or 1 in -teich(1)
                raise ExcludedMultiplierError(
                    f"Teichmuller index must lie in [2, {p - 1}] for p={p}"
                )
            if (r.i, r.sign) == (p - 1, -1):  # teich(p-1) is -1
                raise ExcludedMultiplierError("excluded multiplier: r resolves to 1")
            return cls(p, None, teich=r)
        if any(d >= p for d in r.digits):
            raise ParseError(f"digit out of range for base {p}")
        value = sum(d * p**k for k, d in enumerate(r.digits))
        if value == 1:
            raise ExcludedMultiplierError("excluded multiplier: digits match 1 at every known digit")
        return cls(p, value, len(r.digits))

    def residue(self, n: int) -> int:
        """r mod p^n, for 0 <= n <= known."""
        _check_precision(n, self.known, "multiplier")
        if self.teich is None:
            return self.value % self.p**n
        return self.teich.sign * teichmuller(self.p, self.teich.i, n) % self.p**n if n else 0

    @property  # not cached: a cached_property's first read costs more than a second valuation
    def valuation(self) -> int:
        """v_p(r); a digit string must show a nonzero digit."""
        if self.teich is not None:
            return 0
        if self.value == 0:
            raise InsufficientPrecisionError("all known digits are zero; valuation undetermined")
        return valuation(self.p, self.value)[0]

    def unit_residue(self, n: int) -> int:
        """r' mod p^n, where r = p^valuation * r'."""
        level = self.valuation
        _check_precision(n, None if self.known is None else self.known - level, "unit part")
        return self.residue(n + level) // self.p**level

    @property
    def root_of_unity(self) -> bool:
        """Whether r is a root of unity; for a digit string, at its known digits.

        Every Teichmuller product is one.  Among the integers only -1 is (1 is
        excluded): roots of unity have order dividing p - 1 and distinct
        residues mod p, and no integer n with |n| >= 2 has n^(p-1) = 1.
        """
        if self.teich is not None:
            return True
        if self.known is None:
            return self.value == -1
        return pow(self.value, self.p - 1, self.p**self.known) == 1


def multiplier_residue(r: int | MultiplierSpec, p: int, precision: int) -> int:
    """Resolve a multiplier to its residue mod p^precision."""
    return Multiplier.of(r, p).residue(precision)


def multiplier_valuation(r: int | MultiplierSpec, p: int) -> int:
    """p-adic valuation of a multiplier; digit strings must show a nonzero digit."""
    return Multiplier.of(r, p).valuation


_TEICH_RE = re.compile(r"^(-?)teich\((\d+)\)$")
_DIGITS_RE = re.compile(r"^digits:\[(\d+(?:,\s*\d+)*)\]$")


def parse_multiplier(text: str) -> MultiplierSpec:
    """Parse the multiplier grammar: "-7", "teich(2)", "-teich(3)", "digits:[1,2,0]"."""
    text = text.strip()
    match = _TEICH_RE.match(text)
    if match:
        return TeichProduct(int(match.group(2)), -1 if match.group(1) else 1)
    match = _DIGITS_RE.match(text)
    if match:
        return Digits(tuple(int(d) for d in match.group(1).split(",")))
    try:
        return ExactInt(int(text))
    except ValueError:
        raise ParseError(f"unrecognized multiplier spec: {text!r}") from None


def multiplier_text(r: int | MultiplierSpec) -> str:
    r = as_multiplier(r)
    if isinstance(r, ExactInt):
        return str(r.n)
    if isinstance(r, TeichProduct):
        return f"{'-' if r.sign < 0 else ''}teich({r.i})"
    return "digits:[" + ",".join(str(d) for d in r.digits) + "]"
