"""Trichotomy of multipliers and the supernatural order data attached to them.

A multiplier r (nonzero, not 1) falls into exactly one of three cases:

* Case I  -- a unit that is not a root of unity; carries the threshold level
  and the order of r there.
* Case II -- a root of unity; carries its finite multiplicative order, which
  divides p - 1.
* Case III -- divisible by p; carries the valuation N and the unit cofactor
  r' with r = r' * p^N.

Verdicts computed from finite digit strings are flagged as consistent only up
to the available precision (``exact=False``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from sympy import factorint

from .errors import DomainError, ExcludedMultiplierError, InsufficientPrecisionError
from .padic import (
    Digits,
    ExactInt,
    MultiplierSpec,
    Prime,
    TeichProduct,
    as_multiplier,
    as_prime,
    multiplier_residue,
    multiplier_unit_residue,
    multiplier_valuation,
)
from .unit_groups import find_nr, unit_order

INF = math.inf


@dataclass(frozen=True)
class CaseI:
    """Unit, not a root of unity: threshold level and the order of r there."""

    threshold: int
    order: int
    exact: bool = True


@dataclass(frozen=True)
class CaseII:
    """Root of unity of the given finite order (a divisor of p - 1, or twice one)."""

    order: int
    exact: bool = True


@dataclass(frozen=True)
class CaseIII:
    """r = r' * p^valuation with r' a unit, known mod p^precision."""

    valuation: int
    unit_residue: int
    precision: int
    exact: bool = True


Classification = CaseI | CaseII | CaseIII


def classify(
    p: int | Prime,
    r: int | MultiplierSpec,
    precision: int = 6,
    cap: int | None = None,
) -> Classification:
    """Decide which case the multiplier falls into and compute its case data.

    The only rational integers that are p-adic roots of unity are +-1: all
    roots of unity have order dividing p - 1 and distinct residues mod p, and
    no integer of absolute value >= 2 has n^(p-1) = 1.  Digit-string inputs
    are roots of unity when r^(p-1) = 1 at the known precision, and are
    flagged ``exact=False``.  ``cap`` is the optional level bound of find_nr.
    """
    p = as_prime(p)
    spec = as_multiplier(r)
    if isinstance(spec, ExactInt):
        if spec.n % p == 0:
            level = multiplier_valuation(spec, p)
            _, unit = multiplier_unit_residue(spec, p, precision)
            return CaseIII(level, unit, precision)
        if spec.n == -1:
            return CaseII(2)
        threshold = find_nr(p, spec, cap)
        return CaseI(threshold, unit_order(p, threshold, spec))
    if isinstance(spec, TeichProduct):
        residue = multiplier_residue(spec, p, 1)
        if residue == 1:
            raise ExcludedMultiplierError("excluded multiplier: r resolves to 1")
        return CaseII(unit_order(p, 1, residue))
    return _classify_digits(p, spec, cap)


def _classify_digits(p: int, spec: Digits, cap: int | None) -> Classification:
    known = len(spec.digits)
    level = multiplier_valuation(spec, p)  # raises when every known digit is 0
    if level > 0:
        _, unit = multiplier_unit_residue(spec, p, known - level)
        return CaseIII(level, unit, known - level, exact=False)
    residue = multiplier_residue(spec, p, known)
    if pow(residue, p - 1, p**known) == 1:
        order = unit_order(p, 1, residue)
        if order == 1:
            raise ExcludedMultiplierError(
                "excluded multiplier: digits match 1 at every known digit"
            )
        return CaseII(order, exact=False)
    # r^d != 1 at the known precision, so the known digits show the threshold
    threshold = find_nr(p, spec, cap)
    return CaseI(threshold, unit_order(p, threshold, spec), exact=False)


@dataclass(frozen=True)
class SupernaturalNumber:
    """A formal product of primes with exponents in {1, 2, ...} or infinity.

    Stored in canonical form: factors sorted by prime, no zero exponents.
    """

    factors: tuple[tuple[int, int | float], ...]

    @classmethod
    def of(cls, mapping: dict[int, int | float]) -> SupernaturalNumber:
        items = []
        for q, e in sorted(mapping.items()):
            if e == 0:
                continue
            if e != INF and (not isinstance(e, int) or e < 0):
                raise DomainError(f"bad exponent {e!r} for prime {q}")
            items.append((q, e))
        return cls(tuple(items))

    def exponent(self, q: int) -> int | float:
        for prime, e in self.factors:
            if prime == q:
                return e
        return 0

    def admits_denominator(self, denominator: int) -> bool:
        """Whether every prime power in the denominator is bounded by this number."""
        if denominator < 1:
            raise DomainError("denominator must be positive")
        return all(e <= self.exponent(q) for q, e in factorint(denominator).items())

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for q, e in self.factors:
            if e == INF:
                parts.append(f"{q}^inf")
            elif e == 1:
                parts.append(str(q))
            else:
                parts.append(f"{q}^{e}")
        return "*".join(parts)


def supernatural_from_unit_order(order: int, p: int | Prime) -> SupernaturalNumber:
    """The supernatural number with the factorization of ``order`` and p-part infinity.

    For a Case I multiplier the orders at levels past the threshold are
    order * p^k, so their least common multiple is exactly this number.
    """
    p = as_prime(p)
    factors: dict[int, int | float] = dict(factorint(order))
    factors[p] = INF
    return SupernaturalNumber.of(factors)


def supernatural_order(
    p: int | Prime, r: int | MultiplierSpec, cap: int | None = None
) -> SupernaturalNumber:
    """lcm of the orders of r at every level, for a Case I multiplier."""
    verdict = classify(p, r, cap=cap)
    if not isinstance(verdict, CaseI):
        raise DomainError("supernatural order is defined for Case I multipliers only")
    return supernatural_from_unit_order(verdict.order, p)


@dataclass(frozen=True)
class HSubgroup:
    """The additive group of rationals whose denominators divide S."""

    s: SupernaturalNumber

    def __contains__(self, q: Fraction | int) -> bool:
        return h_contains(self, q)


def h_contains(h: HSubgroup, q: Fraction | int) -> bool:
    """Membership test: q = k/l in lowest terms lies in H iff l divides S."""
    q = Fraction(q)
    return h.s.admits_denominator(q.denominator)
