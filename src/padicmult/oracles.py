"""Brute-force references that the property suites check the library against.

Each oracle answers from its definition with plain integers and ``pow``, or
with plain dicts, so it shares no code with what it checks: this module
imports only the standard library, the error types and the scalars.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence

from .errors import NotAUnitError
from .scalars import Scalar


def lagrange_order(p: int, level: int, r: int) -> int:
    """Oracle for the order of a unit r in U_level, from Lagrange's theorem alone.

    The order divides |U_level| = (p - 1) p^(level - 1), so it is the least
    divisor e of that size with r^e = 1 mod p^level.  The divisors are the
    products of a divisor of p - 1, found by trial division, and a power of p.
    """
    if r % p == 0:
        raise NotAUnitError(f"{r} is not a unit mod {p}")
    modulus = p**level
    small = [a for a in range(1, p) if (p - 1) % a == 0]
    divisors = sorted(a * p**j for a in small for j in range(level))
    return next(e for e in divisors if pow(r, e, modulus) == 1)


def power_walk(p: int, level: int, r: int) -> tuple[int, ...]:
    """Oracle for CyclicSubgroup.elements: the powers of r mod p^level, sorted."""
    if r % p == 0:
        raise NotAUnitError(f"{r} is not a unit mod {p}")
    modulus = p**level
    powers = [1]
    current = r % modulus
    while current != 1:
        powers.append(current)
        current = current * r % modulus
    return tuple(sorted(powers))


def teichmuller_fixed_point(p: int, i: int, precision: int) -> int:
    """Oracle for the root-of-unity lift: iterate a -> a^p until it stabilizes."""
    modulus = p**precision
    current = i % modulus
    while True:
        following = pow(current, p, modulus)
        if following == current:
            return current
        current = following


def _generators(table: Sequence[Sequence[int]]) -> list[int]:
    """Elements that, with the identity 0, generate the table under its product.

    Each one is the least element outside the closure of those before it; the
    closure grows by multiplying each new member with every earlier one, so
    every pair is multiplied once.
    """
    inside = [False] * len(table)
    inside[0] = True
    members = [0]
    generators = []
    for s in range(len(table)):
        if inside[s]:
            continue
        generators.append(s)
        inside[s] = True
        members.append(s)
        i = len(members) - 1
        while i < len(members):
            a = members[i]
            for b in members[: i + 1]:
                for c in (table[a][b], table[b][a]):
                    if not inside[c]:
                        inside[c] = True
                        members.append(c)
            i += 1
    return generators


def is_group_table(table: Sequence[Sequence[int]]) -> bool:
    """Whether a table is a group with identity 0, in O(n^2 * generators).

    A Latin square with an identity is a group exactly when it is associative.
    The s with (x s) y = x (s y) for all x, y are closed under the product, so
    checking s over a generating set suffices (Light's associativity test).
    """
    n = len(table)
    table = [table[i] for i in range(n)]  # each row read once, as rows may be built on read
    if any(len(row) != n for row in table):
        return False
    if any(table[0][j] != j or table[j][0] != j for j in range(n)):
        return False
    for row in table:
        if sorted(row) != list(range(n)):
            return False
    for j in range(n):
        if sorted(table[i][j] for i in range(n)) != list(range(n)):
            return False
    return all(
        table[table[x][s]][y] == table[x][table[s][y]]
        for s in _generators(table)
        for x in range(n)
        for y in range(n)
    )


def coefficients_vanish(terms: list) -> bool:
    """Whether the values at 0 sum to zero at every frequency, where terms can cancel."""
    sums: dict[int, Scalar] = {}
    for n, f in terms:
        sums[n] = sums.get(n, Scalar()) + f(0)
    return not any(sums.values())


# --- operators as plain matrices ---------------------------------------------------
#
# A matrix is a dict {(row label, column label): Scalar}, read from an operator's
# `entries`; a zero entry counts as absent, and the bases are lists of labels.

Matrix = Mapping[tuple[Hashable, Hashable], Scalar]


def matrix_product(a: Matrix, b: Matrix, rows: Sequence, middle: Sequence, cols: Sequence) -> dict:
    """Oracle for compose: entry (i, j) of a b sums a[i, k] b[k, j] over every k of middle."""
    out = {}
    for i in rows:
        for j in cols:
            terms = [a[i, k] * b[k, j] for k in middle if (i, k) in a and (k, j) in b]
            total = sum(terms, Scalar())
            if total:
                out[i, j] = total
    return out


def matrix_adjoint(a: Matrix) -> dict:
    """Oracle for adjoint: the conjugate transpose."""
    return {(j, i): s.conjugate() for (i, j), s in a.items()}


def matrix_sum(a: Matrix, b: Matrix) -> dict:
    """Oracle for +: the entrywise sum, its zeros dropped."""
    sums = {key: a.get(key, Scalar()) + b.get(key, Scalar()) for key in {*a, *b}}
    return {key: s for key, s in sums.items() if s}


def matrices_equal(a: Matrix, b: Matrix) -> bool:
    """Oracle for ==: the same nonzero entries (the caller compares the bases)."""
    return {key: s for key, s in a.items() if s} == {key: s for key, s in b.items() if s}
