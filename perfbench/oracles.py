"""Independent output checks for the benchmark.

Every check here uses its own integer and Fraction arithmetic: nothing is
imported from padicmult or sympy.  Outputs of the library are read only
through their public attributes (``threshold``, ``coset_reps``, ``entries``,
``real``/``imag`` of scalars, ``k``/``l``/``digits`` of basis labels) and
compared with values computed here.

A failed check raises ``OracleError`` with a message naming the input.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction


class OracleError(AssertionError):
    """A library output disagrees with the independently computed value."""


# scalars as (real, imaginary) Fraction pairs
ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


# --- integer arithmetic ------------------------------------------------------


def p_valuation(p: int, x: int) -> tuple[int, int]:
    """x = p^v * u with p not dividing u; x must be nonzero."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v, x


def prime_factors(n: int) -> dict[int, int]:
    """Factorization of n >= 1 by trial division."""
    out: dict[int, int] = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def threshold(p: int, r: int) -> int | None:
    """Least M with r^(p-1) != 1 mod p^M, or None when r^(p-1) == 1 (r = +-1)."""
    power = r ** (p - 1)
    if power == 1:
        return None
    m = 1
    while (power - 1) % p**m == 0:
        m += 1
    return m


def check_order(p: int, level: int, r: int, d: int) -> None:
    """d is the order of r mod p^level: r^d = 1 and r^(d/q) != 1 for each prime q | d."""
    modulus = p**level
    expect(isinstance(d, int) and d >= 1, f"order {d!r} of {r} mod {p}^{level} is not positive")
    expect(pow(r, d, modulus) == 1, f"{r}^{d} != 1 mod {p}^{level}")
    for q in prime_factors(d):
        expect(
            pow(r, d // q, modulus) != 1,
            f"order {d} of {r} mod {p}^{level} is not minimal: {r}^{d // q} == 1",
        )


def unit_order(p: int, level: int, r: int) -> int:
    """Order of the unit r mod p^level, found by stripping primes from |U_level|."""
    modulus = p**level
    n = (p - 1) * p ** (level - 1)
    for q in prime_factors(n):
        while n % q == 0 and pow(r, n // q, modulus) == 1:
            n //= q
    return n


def check_teichmuller(p: int, i: int, level: int, w: int) -> None:
    """w is the (p-1)-st root of unity mod p^level congruent to i mod p."""
    modulus = p**level
    expect(isinstance(w, int) and 0 <= w < modulus, f"teich({i}) mod {p}^{level} out of range: {w}")
    expect(w % p == i % p, f"teich({i}) mod {p}^{level} = {w} is not {i} mod {p}")
    expect(pow(w, p - 1, modulus) == 1, f"teich({i}) mod {p}^{level} = {w} is not a root of unity")


def digits_of(x: int, base: int) -> tuple[int, ...]:
    """Base-`base` digits of x >= 0, least significant first; (0,) for zero."""
    if x == 0:
        return (0,)
    out = []
    while x:
        x, d = divmod(x, base)
        out.append(d)
    return tuple(out)


# --- classification and K-group descriptors ----------------------------------


def expected_verdict(p: int, r: int, precision: int = 6) -> tuple:
    """The case data of an exact integer multiplier as a plain tuple.

    ("I", threshold, order at threshold), ("II", order), or
    ("III", valuation, unit cofactor mod p^precision, precision).
    """
    if r % p == 0:
        v, u = p_valuation(p, r)
        return ("III", v, u % p**precision, precision)
    m = threshold(p, r)
    if m is None:
        return ("II", 2 if r == -1 else 1)
    return ("I", m, unit_order(p, m, r))


def residue_order_mod_p(p: int, residue: int) -> int:
    """Multiplicative order of a unit mod p by repeated multiplication."""
    order, current = 1, residue % p
    while current != 1:
        current = current * residue % p
        order += 1
    return order


def verdict_tuple(verdict) -> tuple:
    """Read a library Classification into the tuple form of expected_verdict."""
    case = type(verdict).__name__
    if case == "CaseI":
        return ("I", verdict.threshold, verdict.order)
    if case == "CaseII":
        return ("II", verdict.order)
    expect(case == "CaseIII", f"unknown classification {verdict!r}")
    return ("III", verdict.valuation, verdict.unit_residue, verdict.precision)


def check_verdict(verdict, expected: tuple, exact: bool, what: str) -> None:
    got = verdict_tuple(verdict)
    expect(got == expected, f"{what}: classified as {got}, expected {expected}")
    expect(verdict.exact is exact, f"{what}: exact flag {verdict.exact}, expected {exact}")


def supernatural_text(p: int, order: int) -> str:
    """The supernatural number with the factorization of order and p^inf."""
    factors: dict[int, int | str] = dict(prime_factors(order))
    factors[p] = "inf"
    parts = []
    for q in sorted(factors):
        e = factors[q]
        parts.append(str(q) if e == 1 else f"{q}^{e}")
    return "*".join(parts)


def atoms(text: str) -> Counter:
    """A printed K-group descriptor as a multiset of atoms; "0" is empty."""
    return Counter() if text == "0" else Counter(text.split(" (+) "))


def expected_k_groups(p: int, verdict: tuple, variant: str) -> tuple[Counter, Counter]:
    """K0 and K1 atom multisets from independently computed invariants.

    variant is "algebra", "ideal", "algebra-primed" or "ideal-primed".
    """
    case = verdict[0]
    if case == "I":
        h = f"c0(Z>=0, H({supernatural_text(p, verdict[2])}))"
        if variant == "algebra":
            return Counter([h, "Z"]), Counter(["Z", "c0(Z>=0, Z)"])
        if variant == "ideal":
            return Counter([h]), Counter(["c0(Z>=0, Z)"])
    elif case == "II":
        seq = "c0(Z>=0 x Zp, Z)"
        n = verdict[1]
        if variant == "algebra":
            return Counter([seq, "Z"]), Counter([seq, "Z"])
        if variant == "ideal":
            return Counter([seq]), Counter([seq])
        if variant == "algebra-primed":
            return Counter([seq, "Z" if n == 1 else f"Z^{n}"]), Counter()
        if variant == "ideal-primed":
            return Counter([seq]), Counter()
    elif variant == "algebra":
        return Counter([f"C(Z_{p ** verdict[1]}^x, Z)"]), Counter()
    raise OracleError(f"no K-group variant {variant} for case {case}")


def check_k_groups(p: int, verdict: tuple, variant: str, k0, k1, what: str) -> None:
    want0, want1 = expected_k_groups(p, verdict, variant)
    expect(atoms(str(k0)) == want0, f"{what} {variant} K0 = {k0}, expected atoms {dict(want0)}")
    expect(atoms(str(k1)) == want1, f"{what} {variant} K1 = {k1}, expected atoms {dict(want1)}")


# --- quotients and orbit decompositions --------------------------------------


def check_quotient(p: int, r: int, quotient) -> None:
    """Level, subgroup, coset representatives and table of a quotient group.

    U_M is cyclic for odd p, so y lies in <r> mod p^M exactly when y^h = 1
    with h = |<r>|, and y, z share a coset exactly when y^h = z^h.  The key
    y -> y^h is multiplicative, which gives every table entry directly.
    """
    what = f"quotient p={p} r={r}"
    level = threshold(p, r)
    expect(quotient.level == level, f"{what}: level {quotient.level}, expected {level}")
    modulus = p**level
    h = quotient.subgroup.order
    check_order(p, level, r % modulus, h)
    elements = quotient.subgroup.elements
    expect(len(elements) == h, f"{what}: {len(elements)} subgroup elements, order {h}")
    expect(
        all(pow(e, h, modulus) == 1 for e in elements), f"{what}: subgroup element outside <r>"
    )
    cosets = (p - 1) * p ** (level - 1) // h
    reps = list(quotient.coset_reps)
    expect(quotient.order == cosets == len(reps), f"{what}: {len(reps)} cosets, expected {cosets}")
    firsts, seen = [], set()
    for y in range(1, modulus):
        if y % p:
            key = pow(y, h, modulus)
            if key not in seen:
                seen.add(key)
                firsts.append(y)
    expect(reps == firsts, f"{what}: coset representatives are not the least of each coset")
    keys = [pow(rep, h, modulus) for rep in reps]
    index = {key: i for i, key in enumerate(keys)}
    table = quotient.table
    expect(len(table) == cosets, f"{what}: table has {len(table)} rows")
    for i, a in enumerate(keys):
        row = tuple(index[a * b % modulus] for b in keys)
        expect(tuple(table[i]) == row, f"{what}: table row {i} is wrong")


def check_orbit_decomposition(p: int, r: int, x: int, precision: int, dec, reps, recomposed) -> None:
    """A Case I orbit decomposition x = p^e * section * tail mod p^(e + precision)."""
    what = f"orbit_decompose p={p} r={r} x={x} precision={precision}"
    e, u = p_valuation(p, x)
    modulus = p**precision
    expect(dec.case == "I", f"{what}: case {dec.case}")
    expect(dec.p_exponent == e, f"{what}: p-exponent {dec.p_exponent}, expected {e}")
    expect(dec.precision == precision, f"{what}: precision {dec.precision}")
    expect(
        0 <= dec.coset_index < len(reps) and dec.section_value == reps[dec.coset_index],
        f"{what}: section {dec.section_value} is not coset representative {dec.coset_index}",
    )
    expect(dec.section_value * dec.tail % modulus == u % modulus, f"{what}: section * tail != unit")
    h = unit_order(p, precision, r % modulus)
    expect(pow(dec.tail, h, modulus) == 1, f"{what}: tail {dec.tail} is not in <r> mod p^{precision}")
    full = p ** (e + precision)
    expect(recomposed % full == x % full, f"{what}: recomposition gives {recomposed}")


# --- operator sections --------------------------------------------------------


def index_key(ix) -> tuple:
    """A basis label as a plain tuple, read from its public attributes."""
    kind = type(ix).__name__
    if kind == "WinZ":
        return ("W", ix.k)
    if kind == "NonNeg":
        return ("N", ix.l)
    if kind == "Word":
        return ("D", tuple(ix.digits))
    if kind == "Cyc":
        return ("C", ix.k, ix.n)
    raise OracleError(f"unknown basis label {ix!r}")


def scalar_pair(s) -> tuple[Fraction, Fraction]:
    return Fraction(s.real), Fraction(s.imag)


def check_entries(op, expected: dict, what: str, rows=None) -> None:
    """op's nonzero entries equal `expected` ({(row key, col key): (re, im)}).

    With `rows`, only entries whose row key lies in that set are compared.
    Zero values in `expected` stand for absent entries.
    """
    got = {}
    for (row, col), s in op.entries.items():
        key = (index_key(row), index_key(col))
        if rows is None or key[0] in rows:
            got[key] = scalar_pair(s)
    want = {k: v for k, v in expected.items() if v != ZERO and (rows is None or k[0] in rows)}
    if got != want:
        wrong = sorted(set(got.items()) ^ set(want.items()))[:3]
        raise OracleError(f"{what}: {len(got)} entries, expected {len(want)}; first differences {wrong}")


def check_basis(basis, expected: list, what: str) -> None:
    got = [index_key(ix) for ix in basis]
    expect(got == expected, f"{what}: basis differs from the expected {len(expected)} labels")


class Fn:
    """A locally constant function on Z_p as plain values: f(y) = values[y mod p^level]."""

    def __init__(self, p: int, level: int, values: list[tuple[Fraction, Fraction]]):
        self.p, self.level, self.values = p, level, values
        self.modulus = p**level

    def __call__(self, y: int) -> tuple[Fraction, Fraction]:
        return self.values[y % self.modulus]

    def alpha(self, r: int) -> "Fn":
        """(alpha_r f)(y) = f(y / r) where r divides y, else 0, as a new Fn.

        For a unit r the level stays; for r = p^N u it rises by N.
        """
        p, m = self.p, self.level
        n, u = p_valuation(p, r)
        inverse = pow(u, -1, self.modulus) if m else 0
        out_level = m + n
        values = []
        for y in range(p**out_level):
            if y % p**n:
                values.append(ZERO)
            else:
                values.append(self(inverse * (y // p**n)))
        return Fn(p, out_level, values)
