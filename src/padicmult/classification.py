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

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, InsufficientPrecisionError
from .padic import Multiplier, MultiplierSpec, as_prime
from .scalars import _frac
from .unit_groups import _order_primes, find_nr, unit_order


class Infinite(Enum):
    """The exponent of a prime that divides a supernatural number to every power."""

    INF = "inf"


INF = Infinite.INF
Exponent = int | Infinite


@dataclass(frozen=True)
class CaseI:
    """Unit, not a root of unity: threshold level and the order of r there."""

    threshold: int
    order: int
    exact: bool = True


@dataclass(frozen=True)
class CaseII:
    """Root of unity of the given finite order, a divisor of p - 1."""

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


def classify(p: int, r: int | MultiplierSpec, precision: int = 6) -> Classification:
    """Decide which case the multiplier falls into and compute its case data.

    Exact Case III data is given mod p^precision, and digit strings give it
    to as many digits as they know past the valuation.  Digit strings are
    roots of unity when r^(p-1) = 1 at the known precision, and every verdict
    on them is flagged ``exact=False``.
    """
    m = Multiplier.of(r, p)
    if precision < 0:
        raise InsufficientPrecisionError("precision must be non-negative")
    exact, level = m.known is None, m.valuation
    if level:
        if not exact:
            precision = m.known - level
        return CaseIII(level, m.unit_residue(precision), precision, exact)
    if m.root_of_unity:
        return CaseII(unit_order(m.p, 1, m.residue(1)), exact)
    # not a root of unity at the known precision, so the known digits show the threshold
    # v + 1, where its order is d * p for d its order mod p
    return CaseI(find_nr(m.p, m), unit_order(m.p, 1, m.residue(1)) * m.p, exact)


@dataclass(frozen=True)
class SupernaturalNumber:
    """A formal product of primes with exponents in {1, 2, ...} or INF.

    Stored in canonical form: factors sorted by prime, no zero exponents.
    """

    factors: tuple[tuple[int, Exponent], ...]

    @classmethod
    def of(cls, mapping: dict[int, Exponent]) -> SupernaturalNumber:
        items = []
        for q, e in sorted(mapping.items()):
            if e == 0:
                continue
            if e is not INF and (not isinstance(e, int) or e < 0):
                raise DomainError(f"bad exponent {e!r} for prime {q}")
            items.append((q, e))
        return cls(tuple(items))

    def exponent(self, q: int) -> Exponent:
        for prime, e in self.factors:
            if prime == q:
                return e
        return 0

    def admits_denominator(self, denominator: int) -> bool:
        """Whether every prime power in the denominator is bounded by this number."""
        if denominator < 1:
            raise DomainError("denominator must be positive")
        rest = denominator
        for q, e in self.factors:
            n = 0
            while rest % q == 0 and (e is INF or n < e):
                rest, n = rest // q, n + 1
        return rest == 1

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for q, e in self.factors:
            if e is INF:
                parts.append(f"{q}^inf")
            elif e == 1:
                parts.append(str(q))
            else:
                parts.append(f"{q}^{e}")
        return "*".join(parts)


@lru_cache(maxsize=256, typed=True)
def supernatural_from_unit_order(order: int, p: int) -> SupernaturalNumber:
    """The supernatural number with the factorization of ``order`` and p-part infinity.

    For a Case I multiplier the orders at levels past the threshold are
    order * p^k, so their least common multiple is exactly this number.  A
    unit order divides (p-1) * p^k, so it is factored over the primes of
    p - 1 and p; one with any other prime factor raises DomainError.  Kept
    once per (order, p), typed, so a float or bool order never answers for an
    int one; a refusal raises and is never kept, so every refused call is checked.
    """
    p = as_prime(p)
    if order < 1:
        raise DomainError(f"{order} is not the order of a unit mod a power of {p}")
    factors: dict[int, Exponent] = {}
    rest = order
    for q in (*_order_primes(p), p):
        while rest % q == 0:
            rest //= q
            factors[q] = factors.get(q, 0) + 1
    if rest != 1:
        raise DomainError(f"{order} is not the order of a unit mod a power of {p}")
    factors[p] = INF
    return SupernaturalNumber.of(factors)


def supernatural_order(p: int, r: int | MultiplierSpec) -> SupernaturalNumber:
    """lcm of the orders of r at every level, for a Case I multiplier."""
    verdict = classify(p, r)
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
    """Membership test: q = k/l in lowest terms lies in H iff l divides S.

    q is an int or a Fraction, as for ``Scalar.of``; anything else is a TypeError."""
    return h.s.admits_denominator(_frac(q).denominator)
