"""Computations in the unit groups U_N of the rings Z/p^N Z.

U_N is cyclic of order p^(N-1)(p-1) (Gauss).  This module computes element
orders, primitive roots, the cyclic subgroup generated by a multiplier, the
threshold level at which orders start gaining factors of p, and the finite
quotient of the full unit sphere by the closure of the multiplier's powers.
All follow from the order tower of a unit r: with d its order mod p and
v = v_p(r^d - 1) = v_p(r^(p-1) - 1), its order in U_N is d * p^max(0, N - v),
and its threshold v + 1 needs no factoring, while d reads the primes of p - 1.
A subgroup of order d * p^e is read at the precision it needs: it is the set
of units whose d-th power is 1 mod p^(N - e), so cosets are keyed and scanned
mod p^(N - e), not mod p^N.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, wraps
from math import gcd
from types import MappingProxyType

from sympy import factorint, isprime

from . import oracles
from .errors import (
    CapExceededError,
    DomainError,
    InsufficientPrecisionError,
    NotAUnitError,
    RootOfUnityError,
)
from .padic import Multiplier, MultiplierSpec, as_prime, valuation

# QuotientGroup.table refuses larger quotients: it keeps two lists of cosets entries and
# builds rows on read, but quotient prints all cosets^2 cells; on a 2-vCPU host 4374 cosets
# (1 + 3^8) print in 3.1-3.5 s (text) or 2.6-3.1 s (--json), both at 52 MB peak RSS
QUOTIENT_MAX_COSETS = 5000

# QuotientGroup.of refuses to list more cosets, each about 270 bytes: on a
# 2-vCPU host decompose along 1 + 3^12 (354294 cosets) takes 0.18 s and peaks
# at 147 MB RSS in-process, 95 MB above the import, tripling per power of 3;
# orbit_decompose walks no more powers of a root of unity mod p either, and
# CyclicSubgroup.elements lists no larger subgroup
QUOTIENT_MAX_SCAN = 400_000

# _order_primes factors p - 1 by trial division to this bound only, refusing a p whose
# p - 1 keeps a composite factor above it; on a 2-vCPU host that takes 0.09 s for the
# 81-digit P81 of the tests, where sympy's rho ran 8.7 s and left it unfactored
TRIAL_DIVISION_BOUND = 10**6


def group_size(p: int, level: int) -> int:
    """|U_N| = p^(N-1) (p-1)."""
    p = as_prime(p)
    if level < 1:
        raise InsufficientPrecisionError("level must be at least 1")
    return p ** (level - 1) * (p - 1)


def _unit_residue(r: int | MultiplierSpec, p: int, level: int) -> int:
    if level < 1:
        raise InsufficientPrecisionError("level must be at least 1")
    # plain integers are residues here (1 included); the multiplier exclusions
    # of 0 and 1 apply to spec forms only
    residue = r % p**level if isinstance(r, int) else Multiplier.of(r, p).residue(level)
    if residue % p == 0:
        raise NotAUnitError(f"{residue} is not a unit mod {p}")
    return residue


@lru_cache(maxsize=256)
def _order_primes(p: int) -> tuple[int, ...]:
    """The primes dividing p - 1, the order of U_1; factored once per p, within the bound."""
    bound = TRIAL_DIVISION_BOUND
    primes = tuple(factorint(p - 1, limit=bound, use_rho=False, use_pm1=False, use_ecm=False))
    if not all(q <= bound or isprime(q) for q in primes):
        raise CapExceededError(f"{p} - 1 is not factored by trial division up to {bound}")
    return primes


def _residue_order(p: int, r: int) -> int:
    """The order d of a unit r mod p: p - 1 with each prime removed while r^d = 1."""
    d = p - 1
    for q in _order_primes(p):
        while d % q == 0 and pow(r, d // q, p) == 1:
            d //= q
    return d


def _depth(p: int, r: int, known: int | None) -> int:
    """v_p(r^(p-1) - 1) for a unit r known mod p^known, capped at ``known``.

    By lifting the exponent it equals v_p(r^d - 1) but reads no factoring.  An exact
    r (``known`` None) is not +-1, so doubling the precision until r^(p-1) - 1 != 0 ends.
    """
    digits = 64 if known is None else known
    while not (rest := pow(r, p - 1, p**digits) - 1) and known is None:
        digits *= 2
    return valuation(p, rest)[0] if rest else known


def _tower(p: int, r: int, known: int | None) -> tuple[int, int]:
    """The order tower (d, v) of a unit r: its order mod p and its depth v_p(r^d - 1)."""
    return _residue_order(p, r), _depth(p, r, known)


def _order(p: int, residue: int, level: int) -> int:
    """The order d * p^(level - v) of a unit residue in U_level, from its tower."""
    d, v = _tower(p, residue, level)
    return d * p ** (level - v)


def unit_order(p: int, level: int, r: int | MultiplierSpec) -> int:
    """Smallest d >= 1 with r^d = 1 mod p^level; unit_order_naive is its oracle."""
    p = as_prime(p)
    return _order(p, _unit_residue(r, p, level), level)


def unit_order_naive(p: int, level: int, r: int | MultiplierSpec) -> int:
    """Oracle for unit_order: count the powers of r until one returns to 1.

    The walk lists every power, so U_level above QUOTIENT_MAX_SCAN units is refused.
    """
    size = group_size(p, level)  # refuses a composite p and a level below 1
    residue = _unit_residue(r, p, level)
    if size > QUOTIENT_MAX_SCAN:
        raise CapExceededError(f"U_{level} has more units than the listing limit {QUOTIENT_MAX_SCAN}")
    return len(oracles.power_walk(p, level, residue))


def find_primitive_root(p: int, level: int) -> int:
    """Smallest positive residue generating U_level; it lies below p^min(level, 2)."""
    group_size(p, level)  # refuses a composite p and a level below 1
    # a unit generates U_level exactly when its tower at min(level, 2) is (p - 1, 1)
    top = min(level, 2)
    return next(a for a in range(2, p**top) if a % p and _tower(p, a, top) == (p - 1, 1))


def find_nr(p: int, r: int | MultiplierSpec) -> int:
    """Smallest level M at which p divides the order of r in U_M: v + 1 in its tower.

    Beyond this threshold orders multiply by exactly p per level.  It reads
    the depth v = v_p(r^(p-1) - 1) alone, so no factoring of p - 1.  A
    threshold the known digits of a digit string do not show raises
    InsufficientPrecisionError.
    """
    m = Multiplier.of(r, p)
    if m.known is None and m.root_of_unity:
        raise RootOfUnityError("no threshold exists: r is a root of unity")
    # for a digit string, value is the residue its known digits spell
    if m.value % m.p == 0:
        raise NotAUnitError(f"{m.value % m.p} is not a unit mod {m.p}")
    v = _depth(m.p, m.value, m.known)
    if m.known is not None and v == m.known:
        raise InsufficientPrecisionError(
            f"threshold not visible within {m.known} known digits"
        )
    return v + 1


@dataclass(frozen=True)
class CyclicSubgroup:
    """The subgroup of U_level generated by a single residue.

    Its order comes from the order tower.  As U_level is cyclic, a subgroup
    of order d * p^e, with d prime to p, is the set of units congruent mod
    step = p^(level - e) to a d-th root of unity there.  So k lies in it
    exactly when its key k^d mod step is 1, two units share a coset exactly
    when their keys agree, and every coset has its least member below step.
    The elements are listed on first read, in closed form.  The generator is
    one of order d mod step (its d-th power has order p^e, so is 1 there),
    so those roots are its first d powers.  A composite p, a level below 1, a
    generator that is not a unit and an order not dividing |U_level| are refused.
    """

    p: int
    level: int
    generator: int
    order: int

    def __post_init__(self) -> None:
        size = group_size(self.p, self.level)  # refuses a composite p and a level below 1
        if self.generator % self.p == 0:
            raise NotAUnitError(f"{self.generator} is not a unit mod {self.p}")
        if self.order < 1 or size % self.order:
            raise DomainError(f"order {self.order} is not a positive divisor of |U_{self.level}| = {size}")
        # _modulus is (d, step): the order's part d prime to p, and step = p^(level - e);
        # an attribute, not a field, so equality, hashing and repr read the four fields only
        d = gcd(self.order, self.p - 1)
        object.__setattr__(self, "_modulus", (d, self.p**self.level * d // self.order))

    @cached_property
    def elements(self) -> tuple[int, ...]:
        """The subgroup in increasing order, refused above QUOTIENT_MAX_SCAN elements."""
        if self.order > QUOTIENT_MAX_SCAN:
            raise CapExceededError(
                f"the subgroup has {self.order} elements, above the listing limit {QUOTIENT_MAX_SCAN}"
            )
        d, step = self._modulus
        roots = sorted(pow(self.generator, i, step) for i in range(d))
        # each block [j, j + step) holds the sorted roots shifted by j, so the
        # i-th root's lifts fill every d-th place from place i
        out = [0] * self.order
        for i, t in enumerate(roots):
            out[i::d] = range(t, self.p**self.level, step)
        return tuple(out)

    @cached_property
    def element_set(self) -> frozenset[int]:
        return frozenset(self.elements)

    def _key(self, k: int) -> int:
        return pow(k, *self._modulus)

    def __contains__(self, k: int) -> bool:
        return self._key(k) == 1


def subgroup(p: int, level: int, r: int | MultiplierSpec) -> CyclicSubgroup:
    """The cyclic subgroup of U_level generated by r, with its order from the tower."""
    p = as_prime(p)
    residue = _unit_residue(r, p, level)
    return CyclicSubgroup(p, level, residue, _order(p, residue, level))


def is_in_subgroup(p: int, level: int, r: int | MultiplierSpec, k: int) -> bool:
    """Whether k mod p^level lies in the subgroup generated by r."""
    sub = subgroup(p, level, r)
    if k % p == 0:
        raise NotAUnitError(f"{k} is not a unit mod {p}")
    return k in sub


@dataclass(frozen=True)
class _CyclicTable(Sequence):
    """A cyclic group's table: cell (a, b) is exp[(log a + log b) mod n], rows built on read."""

    exp: tuple[int, ...]  # exp[k] is the element g^k, for a generator g
    log: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.log)

    def __getitem__(self, a: int | slice):
        if isinstance(a, slice):
            return tuple(map(self.__getitem__, range(len(self))[a]))
        return tuple(map((self.exp * 2)[self.log[a] : self.log[a] + len(self)].__getitem__, self.log))


def _cached_up_to(limit: int, size: Callable[..., int]):
    """Memoise a builder on the calls whose `size(*args)` is at most `limit`, in a typed
    cache of 32 calls (a float never answers for an int), whose `cache_info` and
    `cache_clear` the wrapper carries; a larger call is built afresh and never kept."""

    def decorate(build):
        cached = lru_cache(maxsize=32, typed=True)(build)

        @wraps(build)
        def get(*args):
            return (cached if size(*args) <= limit else build)(*args)

        get.cache_info, get.cache_clear = cached.cache_info, cached.cache_clear
        return get

    return decorate


def _cosets(p: int, d: int, step: int) -> int:
    """|U_level| / (d * p^e), the cosets of a subgroup of order d * p^e, for step = p^(level - e)."""
    return step // p * (p - 1) // d


# The scan reads a subgroup only through (p, d, step), its order at its level, so every
# multiplier of one order at one level shares one.  Scans of at most QUOTIENT_MAX_COSETS
# cosets are kept; a larger one dies with its quotient.  One 4,374-coset scan (1 + 3^8)
# holds 0.57 MB under tracemalloc, so a full cache of scans at that limit holds about 21 MB.
@_cached_up_to(QUOTIENT_MAX_COSETS, _cosets)
def _scan(p: int, d: int, step: int) -> tuple[tuple[int, ...], Mapping[int, int]]:
    """The least unit of each coset of the subgroup keyed k -> k^d mod step, in
    increasing order, and the read-only map from coset key to coset index;
    refused above QUOTIENT_MAX_SCAN cosets."""
    cosets = _cosets(p, d, step)
    if cosets > QUOTIENT_MAX_SCAN:
        raise CapExceededError(
            f"the quotient has {cosets} cosets, above the listing limit {QUOTIENT_MAX_SCAN}"
        )
    # every coset has its least member below step, so the scan ends there at the latest
    least: dict[int, int] = {}  # coset key (CyclicSubgroup._key, inlined) -> least unit with that key
    for k in range(1, step):
        if k % p and (key := pow(k, d, step)) not in least:
            least[key] = k
            if len(least) == cosets:
                break
    return tuple(least.values()), MappingProxyType({key: j for j, key in enumerate(least)})


@dataclass(frozen=True)
class QuotientGroup:
    """The quotient of U_level by a cyclic subgroup, with a fixed section.

    Cosets are named by the subgroup's key k -> k^d mod p^(level - e), for
    a subgroup of order d * p^e with d prime to p, so the scan reads only
    the units below p^(level - e).  Coset representatives are the smallest
    positive residue in each coset, in increasing order, so the identity
    coset comes first; the multiplication table, built on first read, is
    indexed accordingly and refused above QUOTIENT_MAX_COSETS cosets.  The
    section maps coset j to the integer coset_reps[j].  Build one with
    ``QuotientGroup.of``; quotients by subgroups of one order at one level
    share their coset_reps and read-only index.
    """

    p: int
    level: int
    subgroup: CyclicSubgroup
    coset_reps: tuple[int, ...]
    _index: Mapping[int, int] = field(compare=False, repr=False)  # coset key -> index, from `of`

    @classmethod
    def of(cls, sub: CyclicSubgroup) -> QuotientGroup:
        """The cosets of a subgroup, refused above QUOTIENT_MAX_SCAN of them."""
        return cls(sub.p, sub.level, sub, *_scan(sub.p, *sub._modulus))

    def __reduce__(self):
        # the shared index is a read-only view, which neither pickles nor copies; the
        # quotient is rebuilt from its subgroup instead
        return QuotientGroup.of, (self.subgroup,)

    @property
    def order(self) -> int:
        return len(self.coset_reps)

    def coset_index(self, k: int) -> int:
        """Index of the coset containing the unit k."""
        if k % self.p == 0:
            raise NotAUnitError(f"{k} is not a unit mod {self.p}")
        return self._index[self.subgroup._key(k)]

    def section(self, index: int) -> int:
        if not 0 <= index < self.order:
            raise DomainError(f"coset index {index} is outside 0..{self.order - 1}")
        return self.coset_reps[index]

    @cached_property
    def table(self) -> Sequence[Sequence[int]]:
        """The multiplication table of coset indexes, as read-only rows built on read."""
        n = self.order
        if n > QUOTIENT_MAX_COSETS:
            raise CapExceededError(
                f"the quotient has {n} cosets, above the table limit {QUOTIENT_MAX_COSETS}"
            )
        g = find_primitive_root(self.p, self.level)  # its first n powers meet every coset
        exp = tuple(self.coset_index(pow(g, k, self.p**self.level)) for k in range(n))
        return _CyclicTable(exp, tuple(sorted(range(n), key=exp.__getitem__)))


def quotient_group(p: int, r: int | MultiplierSpec) -> QuotientGroup:
    """The finite quotient of the unit sphere by the closed group of powers of r.

    Computed at the threshold level, where it stabilizes: reading the quotient
    at any higher level gives a canonically isomorphic group.
    """
    m = Multiplier.of(r, p)
    return QuotientGroup.of(subgroup(m.p, find_nr(m.p, m), m))
