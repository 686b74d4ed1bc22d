"""Symbolic K-group descriptors for the multiplication algebras.

K-groups are recorded as formal direct sums of canonical atoms; the only
operations are construction, canonicalization, equality, and printing.  The
printed grammar is stable: atoms joined by " (+) ", "0" for the zero group,
"Z^n" for free parts, e.g. "c0(Z>=0, H(2*3^inf)) (+) Z".
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import Counter
from typing import Iterable, Union

from .classification import (
    CaseI,
    CaseII,
    Classification,
    SupernaturalNumber,
    supernatural_from_unit_order,
)
from .errors import DomainError, ExcludedMultiplierError
from .padic import as_prime


@dataclass(frozen=True)
class Free:
    """Z^rank."""

    rank: int


@dataclass(frozen=True)
class C0SeqZ:
    """Eventually-zero integer sequences c0(Z>=0, Z)."""


@dataclass(frozen=True)
class C0SeqH:
    """Eventually-zero sequences valued in the denominator group of S."""

    s: SupernaturalNumber


@dataclass(frozen=True)
class C0SeqZpZ:
    """Eventually-zero integer sequences indexed by Z>=0 x Zp."""


@dataclass(frozen=True)
class CFunUnits:
    """Continuous integer-valued functions on the unit sphere of Z_s."""

    s: int


Atom = Union[Free, C0SeqZ, C0SeqH, C0SeqZpZ, CFunUnits]


def _atom_text(atom: Atom) -> str:
    if isinstance(atom, Free):
        return "Z" if atom.rank == 1 else f"Z^{atom.rank}"
    if isinstance(atom, C0SeqZ):
        return "c0(Z>=0, Z)"
    if isinstance(atom, C0SeqH):
        return f"c0(Z>=0, H({atom.s}))"
    if isinstance(atom, C0SeqZpZ):
        return "c0(Z>=0 x Zp, Z)"
    return f"C(Z_{atom.s}^x, Z)"


class KGroupDescriptor:
    """A formal direct sum of atoms in canonical form.

    Canonical form merges all free parts into a single Z^n at the position of
    the first free summand and drops zero summands; the empty sum is the zero
    group.  Equality is multiset equality of canonical atoms.
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms: Iterable[Atom] = ()) -> None:
        object.__setattr__(self, "atoms", _canonical(atoms))

    def __setattr__(self, name, value):
        raise AttributeError("KGroupDescriptor is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, KGroupDescriptor):
            return NotImplemented
        return Counter(self.atoms) == Counter(other.atoms)

    def __hash__(self) -> int:
        return hash(frozenset(Counter(self.atoms).items()))

    def __add__(self, other: KGroupDescriptor | Atom) -> KGroupDescriptor:
        extra = other.atoms if isinstance(other, KGroupDescriptor) else (other,)
        return KGroupDescriptor(self.atoms + tuple(extra))

    def is_zero(self) -> bool:
        return not self.atoms

    def __str__(self) -> str:
        if not self.atoms:
            return "0"
        return " (+) ".join(_atom_text(a) for a in self.atoms)

    def __repr__(self) -> str:
        return f"KGroupDescriptor({self.atoms!r})"


def _canonical(atoms: Iterable[Atom]) -> tuple[Atom, ...]:
    out: list = []
    rank = 0
    free_slot = None
    for atom in atoms:
        if isinstance(atom, Free):
            if atom.rank < 0:
                raise DomainError("free rank must be non-negative")
            if atom.rank == 0:
                continue
            if free_slot is None:
                free_slot = len(out)
                out.append(None)
            rank += atom.rank
        else:
            out.append(atom)
    if free_slot is not None:
        out[free_slot] = Free(rank)
    return tuple(out)


ZERO_GROUP = KGroupDescriptor()


def descriptor(*atoms: Atom) -> KGroupDescriptor:
    return KGroupDescriptor(atoms)


def algebra_k_groups(
    c: Classification, p: int
) -> tuple[KGroupDescriptor, KGroupDescriptor]:
    """K_0 and K_1 of the full multiplication algebra of a classified multiplier."""
    p = as_prime(p)
    if isinstance(c, CaseI):
        s = supernatural_from_unit_order(c.order, p)
        return descriptor(C0SeqH(s), Free(1)), descriptor(Free(1), C0SeqZ())
    if isinstance(c, CaseII):
        return descriptor(C0SeqZpZ(), Free(1)), descriptor(C0SeqZpZ(), Free(1))
    return hs_k_groups(p**c.valuation)


def primed_algebra_k_groups(
    c: Classification, p: int
) -> tuple[KGroupDescriptor, KGroupDescriptor]:
    """K-groups of the finite-cyclic crossed product, defined for roots of unity only."""
    as_prime(p)
    if not isinstance(c, CaseII):
        raise DomainError("the primed algebra is undefined outside Case II")
    if c.order < 2:
        raise ExcludedMultiplierError("order 1 would mean r = 1, which is excluded")
    return descriptor(C0SeqZpZ(), Free(c.order)), ZERO_GROUP


def ideal_k_groups(
    c: Classification, p: int, primed: bool = False
) -> tuple[KGroupDescriptor, KGroupDescriptor]:
    """K-groups of the kernel ideal of the evaluation-at-zero representation."""
    p = as_prime(p)
    if isinstance(c, CaseI):
        if primed:
            raise DomainError("the primed ideal is undefined outside Case II")
        s = supernatural_from_unit_order(c.order, p)
        return descriptor(C0SeqH(s)), descriptor(C0SeqZ())
    if isinstance(c, CaseII):
        if primed:
            return descriptor(C0SeqZpZ()), ZERO_GROUP
        return descriptor(C0SeqZpZ()), descriptor(C0SeqZpZ())
    raise DomainError("ideal descriptors for the valuation case come from hs_k_groups")


def hs_k_groups(s: int) -> tuple[KGroupDescriptor, KGroupDescriptor]:
    """K-groups of the shift algebra on Z_s: K_0 = C(Z_s^x, Z), K_1 = 0."""
    if s < 2:
        raise DomainError("the base s must be at least 2")
    return descriptor(CFunUnits(s)), ZERO_GROUP
