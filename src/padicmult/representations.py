"""Finite truncations of the shift/diagonal operator representations, the
orbit and digit decompositions behind them, and the exact relation checks.

Truncation policy: shift sections map a window into a one-step-larger
codomain window instead of being cut square, so isometry relations hold
exactly; relation checks that involve adjoints are asserted on explicitly
declared interiors where no information is lost to the truncation edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .classification import CaseI, CaseII, classify
from .errors import (
    BasisMismatchError,
    CapExceededError,
    DomainError,
    InsufficientPrecisionError,
    NotAUnitError,
    ValuationMismatchError,
)
from .functions import LocallyConstantFn, precompose
from .operators import BasisIndex, Cyc, NonNeg, TruncatedOp, WinZ, Word, _Basis
from .padic import (
    Multiplier,
    MultiplierSpec,
    as_prime,
    divide_step,
    multiplier_valuation,
    teichmuller,
    valuation,
)
from .scalars import Scalar
from .unit_groups import QUOTIENT_MAX_SCAN, CyclicSubgroup, QuotientGroup, _cached_up_to


# --- orbit decompositions -------------------------------------------------------


@dataclass(frozen=True)
class OrbitDecomposition:
    """A nonzero integer factored along the orbit structure of a unit multiplier.

    Case I:  x = p^L * section * tail with the tail in the closed group of
    powers of r at every level up to the precision.
    Case II: x = r^k * p^L * section * tail with the section a root of unity
    and the tail congruent to 1 mod p.
    """

    case: str
    p: int
    p_exponent: int
    coset_index: int
    section_value: int
    tail: int
    precision: int
    k: int | None = None

    def recompose(self, r: int | MultiplierSpec) -> int:
        """The product of the parts, as a residue mod p^(p_exponent + precision).

        r is checked against p in both cases.  In Case II the factor r^k is
        read on the root of unity that r matches, as `orbit_decompose` reads
        it, so r need be known only mod p.
        """
        m = Multiplier.of(r, self.p)
        modulus = self.p**self.precision
        unit = self.section_value * self.tail % modulus
        if self.case == "II":
            root = teichmuller(self.p, m.residue(1), self.precision)
            unit = unit * pow(root, self.k, modulus) % modulus
        return self.p**self.p_exponent * unit


def orbit_decompose(
    p: int,
    r: int | MultiplierSpec,
    x: int,
    precision: int = 6,
) -> OrbitDecomposition:
    """Factor a nonzero integer along the orbits of multiplication by a unit r."""
    m = Multiplier.of(r, p)
    if x == 0:
        raise DomainError("zero admits no orbit decomposition")
    verdict = classify(p, m, precision=precision)
    if not isinstance(verdict, (CaseI, CaseII)):
        raise NotAUnitError("orbit decompositions need a unit multiplier")
    p_exponent, unit = valuation(p, x)
    modulus = p**precision
    unit %= modulus
    case_one = isinstance(verdict, CaseI)
    level = verdict.threshold if case_one else 1
    if precision < level:
        kind = "threshold" if case_one else "root-of-unity"
        raise InsufficientPrecisionError(f"precision {precision} below the {kind} level {level}")
    # the verdict's order is the order of r at the threshold (Case I), or mod p (Case II)
    sub = CyclicSubgroup(p, level, m.residue(level), verdict.order)
    if not case_one and sub.order > QUOTIENT_MAX_SCAN:
        raise CapExceededError(
            f"r has order {sub.order} mod {p}, above the listing limit {QUOTIENT_MAX_SCAN}"
        )
    quotient = QuotientGroup.of(sub)
    index = quotient.coset_index(unit)
    rep = quotient.section(index)
    if case_one:
        tail = unit * pow(rep, -1, modulus) % modulus
        return OrbitDecomposition("I", p, p_exponent, index, rep, tail, precision)
    # omega(x) = r^k * omega(rep): k walks the powers of r mod p up to x / rep
    k, power, target = 0, 1, unit * pow(rep, -1, p) % p
    while power != target:
        k, power = k + 1, power * sub.generator % p
    tail = unit * pow(teichmuller(p, unit, precision), -1, modulus) % modulus
    section = teichmuller(p, rep, precision)
    return OrbitDecomposition("II", p, p_exponent, index, section, tail, precision, k=k)


# --- shared bases and shift sections ----------------------------------------------

# A basis of up to BASIS_CACHE_LABELS labels is built once per size and shared, so
# sections of one size compose on one basis object; a larger one is built on each
# call and dies with its operators.  Each representation's shift section shares the
# gate, on the size of its codomain: it is built once per shape, with its adjoint and
# range projection once read, and shared by every call of that shape.  The limit is
# above every basis `verify` builds (4,002 labels at `--window 2000`).  A full cache of
# 32 bases near the limit holds ~22 MB; 32 window shifts near it hold ~49 MB with their
# bases and ~54 MB with their adjoints and range projections, and no more once every
# other view (`entries`, `to_doc`, a sum or scaling) is read: none of those is kept.
BASIS_CACHE_LABELS = 4096


@_cached_up_to(BASIS_CACHE_LABELS, lambda lo, hi: hi - lo + 1)
def _window(lo: int, hi: int) -> _Basis:
    """The window {lo..hi} of the bilateral basis."""
    return _Basis(WinZ(k) for k in range(lo, hi + 1))


@_cached_up_to(BASIS_CACHE_LABELS, lambda size: size)
def _non_negative(size: int) -> _Basis:
    """The first `size` positions {0..size-1} of l^2(Z>=0)."""
    return _Basis(NonNeg(l) for l in range(size))


@_cached_up_to(BASIS_CACHE_LABELS, lambda s, max_len: s**max_len)
def _words(s: int, max_len: int) -> _Basis:
    return _Basis(canonical_words(s, max_len))


def _section(domain: _Basis, codomain: _Basis, targets: Iterable[int]) -> TruncatedOp:
    """The shift section sending domain position n to codomain position targets[n];
    the domain positions past the end of targets map to zero."""
    rows, size = list(targets), len(codomain)
    ordered = sorted(rows)
    fits = len(rows) <= len(domain) and len(set(rows)) == len(rows)
    if rows and not (fits and 0 <= ordered[0] and ordered[-1] < size):
        raise BasisMismatchError("a shift section needs distinct targets inside its codomain")
    rows.extend([size] * (len(domain) - len(rows)))
    return TruncatedOp._monomial(domain, codomain, tuple(rows))


# The representations' shift sections, keyed on integers and gated on their codomain.


@_cached_up_to(BASIS_CACHE_LABELS, lambda window: 2 * window + 2)
def _window_section(window: int) -> TruncatedOp:
    """The bilateral shift from the window {-K..K} into {-K..K+1}."""
    domain = _window(-window, window)
    # domain position n holds k = n - window, and k + 1 sits at codomain position n + 1
    return _section(domain, _window(-window, window + 1), range(1, len(domain) + 1))


@_cached_up_to(BASIS_CACHE_LABELS, lambda n: n)
def _cycle(n: int) -> TruncatedOp:
    """The n-cycle k -> k + 1 mod n on l^2(Z/nZ)."""
    basis = _Basis(Cyc(k, n) for k in range(n))
    return _section(basis, basis, (*range(1, n), 0))


@_cached_up_to(BASIS_CACHE_LABELS, lambda s, max_len: s ** (max_len + 1))
def _digit_section(s: int, max_len: int) -> TruncatedOp:
    """The digit shift from the words of length <= max_len into those of length <= max_len + 1."""
    domain = _words(s, max_len)
    # the word with key k is entry k, and its shift is the word with key s*k
    return _section(domain, _words(s, max_len + 1), range(0, s * len(domain), s))


@_cached_up_to(BASIS_CACHE_LABELS, lambda s, cutoff: s * cutoff + 1)
def _index_section(s: int, cutoff: int) -> TruncatedOp:
    """The index shift l -> s*l from {0..cutoff} into {0..s*cutoff}."""
    return _section(
        _non_negative(cutoff + 1), _non_negative(s * cutoff + 1), range(0, s * (cutoff + 1), s)
    )


# --- window and cyclic representations ------------------------------------------


def _along(m: Multiplier, f: LocallyConstantFn) -> tuple[int, int]:
    """r mod p^k and p^k at the level k of f, which must lie over r's prime p."""
    if f.p != m.p:
        raise BasisMismatchError("function prime does not match")
    return m.residue(f.level), m.p**f.level


def _ball_diagonal(basis: _Basis, f: LocallyConstantFn, points: Iterable[int]) -> TruncatedOp:
    """The diagonal carrying f(x) at position n for the n-th integer point x.

    Reads f's ball table: the value at x is the entry of the ball x mod p^level,
    and each ball is tested for zero once, not once per position.
    """
    modulus, size = f.p**f.level, len(basis)
    balls = [x % modulus for x in points]
    live = list(map(bool, f.values))
    rows = tuple(n if live[ball] else size for n, ball in enumerate(balls))
    return TruncatedOp._monomial(basis, basis, rows, tuple(map(f.values.__getitem__, balls)))


def _orbit_diagonal(basis: _Basis, m: Multiplier, x: int, f: LocallyConstantFn) -> TruncatedOp:
    """The diagonal carrying f(r^k x) at the basis index of position k, for a unit r.

    The basis holds consecutive k, so the orbit is walked by one product per position.
    """
    rho, modulus = _along(m, f)
    points = [pow(rho, basis[0].k, modulus) * x % modulus]
    for _ in range(len(basis) - 1):
        points.append(points[-1] * rho % modulus)
    return _ball_diagonal(basis, f, points)


def build_orbit_rep(
    p: int,
    r: int | MultiplierSpec,
    x: int,
    f: LocallyConstantFn,
    window: int = 8,
) -> tuple[TruncatedOp, TruncatedOp]:
    """The bilateral-shift section and the diagonal of f along the orbit of x.

    The shift maps the window {-K..K} into {-K..K+1}; the diagonal carries
    f(r^k x) at position k over the domain window.
    """
    m = Multiplier.of(r, p)
    if x == 0:
        raise DomainError("the orbit of zero is trivial; x must be nonzero")
    if m.valuation != 0:
        raise NotAUnitError("orbit representations need an invertible multiplier")
    if window < 0:
        raise DomainError("window must be non-negative")
    shift = _window_section(window)
    return shift, _orbit_diagonal(shift.domain, m, x, f)


def build_cyclic_rep(
    p: int, r: int | MultiplierSpec, x: int, f: LocallyConstantFn
) -> tuple[TruncatedOp, TruncatedOp]:
    """The cyclic-shift representation attached to a finite-order multiplier.

    The shift is the exact n-cycle on l^2(Z/nZ) (a genuine unitary), and the
    diagonal carries f(r^k x).
    """
    m = Multiplier.of(r, p)
    verdict = classify(m.p, m)
    if not isinstance(verdict, CaseII):
        raise DomainError("cyclic representations need a root-of-unity multiplier")
    shift = _cycle(verdict.order)
    return shift, _orbit_diagonal(shift.domain, m, x, f)


# --- digit expansions and the valuation-case representation ----------------------


@dataclass(frozen=True)
class DigitExpansion:
    """Digits of x in powers of r, flagged exact when the expansion terminated.

    Exact expansions never end in a zero digit and so name canonical basis
    words; truncated ones are approximations whose partial sums still match x
    modulo rising powers of p, but they do not label basis vectors.
    """

    digits: tuple[int, ...]
    exact: bool

    @property
    def word(self) -> Word:
        if not self.exact:
            raise DomainError("truncated expansions do not name basis words")
        return Word(self.digits)


def digit_expand(
    p: int, level: int, r: int, x: int, max_len: int
) -> DigitExpansion:
    """Expand x >= 0 in powers of r with digits below p^level.

    Iterates the division step x = q r + c.  Elements of the digit set
    terminate at their exact word; anything else is cut at max_len digits and
    flagged, its partial sums matching x mod p^(n * level) for every n.  The
    first division step is always taken, so (p, level, r) is checked for
    x = 0 too, whose expansion is the zero word.
    """
    p = as_prime(p)
    if x < 0:
        raise DomainError("digit expansion is defined for x >= 0")
    if max_len < 1:
        raise DomainError("max_len must be at least 1")
    quotient, c = divide_step(p, level, r, x)
    digits = [c]
    while quotient != 0 and len(digits) < max_len:
        quotient, c = divide_step(p, level, r, quotient)
        digits.append(c)
    return DigitExpansion(tuple(digits), exact=quotient == 0)


def word_value(word: Word, r: int) -> int:
    """The integer sum of digits times powers of r."""
    return sum(d * r**i for i, d in enumerate(word.digits))


# the digit word read in base s, which pairs words with non-negative positions
word_key = word_value


def word_from_key(key: int, s: int) -> Word:
    """The word whose digits in base s spell the key; only the zero word has base 1."""
    if key < 0 or s < 1 or (key and s < 2):
        raise DomainError(f"no base-{s} word has the key {key}")
    if key == 0:
        return Word((0,))
    digits = []
    while key:
        key, d = divmod(key, s)
        digits.append(d)
    return Word(tuple(digits))


def canonical_words(s: int, max_len: int) -> tuple[Word, ...]:
    """All canonical words of length <= max_len, ordered by their base-s key.

    Not memoised: the word bases built on it are (see `_words`).
    """
    if max_len < 1:
        raise DomainError("max_len must be at least 1")
    if s < 1:
        raise DomainError(f"a word base must be at least 1, got {s}")
    return tuple(word_from_key(k, s) for k in range(s**max_len))


def shift_word(word: Word) -> Word:
    """The word of r*x: prepend a zero digit; the zero word is fixed."""
    if word.is_zero():
        return word
    return Word((0,) + word.digits)


def kappa(word: Word) -> int:
    """Index of the highest nonzero digit (0 for the zero word).

    Canonical words have no trailing zeros, so this is the last position; it
    increases by exactly one under the digit shift.
    """
    return len(word.digits) - 1


def build_digit_rep(
    p: int,
    level: int,
    r: int | MultiplierSpec,
    f: LocallyConstantFn,
    max_len: int,
) -> tuple[TruncatedOp, TruncatedOp]:
    """Multiplication-by-r as a digit shift, and the diagonal of f on words.

    The domain is every canonical word of length <= max_len; the shift
    prepends a zero digit (length may grow to max_len + 1) and is an exact
    isometry on the whole domain.
    """
    m = Multiplier.of(r, p)
    if m.valuation != level or level < 1:
        raise ValuationMismatchError("multiplier valuation mismatch")
    rho, _ = _along(m, f)
    s = m.p**level
    shift = _digit_section(s, max_len)
    domain = shift.domain
    # the word with key q*s + d prepends the digit d to the word with key q, so its
    # value is d + rho * value[q]: value[k] = k % s + rho * value[k // s]
    values = list(range(s))
    for q in range(1, len(domain) // s):
        head = rho * values[q]
        values.extend(range(head, head + s))
    return shift, _ball_diagonal(domain, f, values)


def build_hs_rep(
    p: int, level: int, f: LocallyConstantFn, cutoff: int
) -> tuple[TruncatedOp, TruncatedOp]:
    """The multiply-the-index shift l -> s*l on l^2(Z>=0) with s = p^level,
    and the diagonal of f at the integer points."""
    p = as_prime(p)
    if level < 1:
        raise ValuationMismatchError("the base exponent must be at least 1")
    if cutoff < 0:
        raise DomainError("cutoff must be non-negative")
    if f.p != p:
        raise BasisMismatchError("function prime does not match")
    shift = _index_section(p**level, cutoff)
    return shift, _ball_diagonal(shift.domain, f, range(cutoff + 1))


def _index_diagonal(f: LocallyConstantFn, size: int) -> TruncatedOp:
    """The diagonal of f at the integer points 0..size-1 of l^2(Z>=0)."""
    return _ball_diagonal(_non_negative(size), f, range(size))


def intertwiner(p: int, level: int, r: int, max_len: int) -> TruncatedOp:
    """The basis pairing between non-negative positions and digit words.

    Sends position sum(d_i s^i) to the word (d_0, d_1, ...) with s = p^level;
    a permutation that conjugates the index shift into the digit shift.
    """
    if multiplier_valuation(r, p) != level or level < 1:
        raise ValuationMismatchError("multiplier valuation mismatch")
    codomain = _words(p**level, max_len)
    size = len(codomain)
    return _section(_non_negative(size), codomain, range(size))


# --- symbols of finite sums ------------------------------------------------------

SymbolTerm = tuple[int, Scalar]
Presentation = list[tuple[int, LocallyConstantFn]]


def pi0_symbol(
    terms: Presentation, modulus: int | None = None
) -> list[SymbolTerm]:
    """Image of a finite sum of shift powers times diagonals under evaluation at 0.

    Each term (n, f) contributes f(0) at frequency n; the result is the
    coefficient list of a trigonometric polynomial on the circle.  With a
    modulus, frequencies are folded mod it (the finite-cyclic variant) and
    all residue frequencies are listed.  The element lies in the kernel ideal
    exactly when every coefficient vanishes.
    """
    if modulus is not None and modulus < 1:
        raise DomainError("the folding modulus must be positive")
    coefficients: dict[int, Scalar] = {}
    for n, f in terms:
        key = n % modulus if modulus else n
        coefficients[key] = coefficients.get(key, Scalar()) + f(0)
    if modulus:
        return [(j, coefficients.get(j, Scalar())) for j in range(modulus)]
    return sorted(coefficients.items())


def symbol_vanishes(symbol: list[SymbolTerm]) -> bool:
    return all(not coefficient for _, coefficient in symbol)


def symbol_product(a: Iterable[SymbolTerm], b: Iterable[SymbolTerm]) -> list[SymbolTerm]:
    """Laurent product of two coefficient lists (zero coefficients kept sparse)."""
    out: dict[int, Scalar] = {}
    b = list(b)  # read again for each term of a, so a one-shot iterable is listed
    for n, s in a:
        for m, t in b:
            out[n + m] = out.get(n + m, Scalar()) + s * t
    return sorted(out.items())


def present_product(
    a: Iterable[tuple[int, LocallyConstantFn]],
    b: Iterable[tuple[int, LocallyConstantFn]],
    p: int,
    r: int | MultiplierSpec,
) -> Presentation:
    """The product of two finite sums, re-presented as a finite sum.

    Uses the commutation rule (diagonal of f) . shift = shift . (diagonal of
    f composed with multiplication), which needs an invertible multiplier.
    """
    m = Multiplier.of(r, p)
    if m.valuation != 0:
        raise NotAUnitError("re-presentation of products needs a unit multiplier")
    b = list(b)  # read here and again for each term of a
    for _, g in b:
        _along(m, g)  # refused even when a has no terms
    combined: dict[int, LocallyConstantFn] = {}
    for n_a, f in a:
        rho, modulus = _along(m, f)
        for n_b, g in b:
            moved = precompose(f, pow(rho, n_b, modulus)) * g
            key = n_a + n_b
            combined[key] = combined[key] + moved if key in combined else moved
    return sorted(combined.items())


# --- relation checks --------------------------------------------------------------


def check_covariance(
    shift: TruncatedOp,
    diag: TruncatedOp,
    diag_alpha: TruncatedOp,
    interior: Iterable[BasisIndex] | None = None,
) -> bool:
    """Exact check of shift . diag . shift* = diag_alpha on an interior.

    When no interior is given it defaults to the codomain indices on which
    shift . shift* acts as the identity (shift.range_fixed_points(), kept
    with the shift as its adjoint is), intersected with diag_alpha's
    domain: on those indices the adjoint loses nothing to the truncation.
    The digit and index-shift sections lose nothing anywhere, so callers may
    pass the whole codomain explicitly.  The two sides are compared on the
    shift's codomain, so diag_alpha's bases must lie inside it; that, and an
    interior index outside the codomain or diag_alpha's domain, raises
    BasisMismatchError.
    """
    if diag.domain != shift.domain or diag.codomain != shift.domain:
        raise BasisMismatchError("the middle diagonal must be square on the shift's domain")
    lhs = shift @ diag @ shift.adjoint()
    rhs_domain = diag_alpha.domain._pos
    if interior is None:
        interior = [ix for ix in shift.range_fixed_points() if ix in rhs_domain]
    else:
        interior = list(interior)  # read once: checked here and compared below
        if not all(ix in rhs_domain for ix in interior):
            raise BasisMismatchError("compared index outside diag_alpha's domain")
    return lhs._agrees_at(diag_alpha.extended(lhs.domain, lhs.codomain), interior)


def window_shift(window: int) -> TruncatedOp:
    """The square bilateral-shift section on {-K..K}; the top edge maps out."""
    if window < 0:
        raise DomainError("window must be non-negative")
    basis = _window(-window, window)
    return _section(basis, basis, range(1, len(basis)))


def check_matrix_units(
    p: int, r: int | MultiplierSpec, window: int | None = None
) -> bool:
    """For a finite-order multiplier, verify the matrix-unit form of the shift.

    With n the order, P0 the projection onto window positions divisible by n,
    P_{i,j} = v^i P0 (v*)^j and u = v^n, checks

        v = P_{1,0} + P_{2,1} + ... + P_{n-1,n-2} + u P_{0,n-1}

    and that u commutes with every P_{i,j}, both exactly on window interiors
    wide enough that no composition touches the truncation edge.
    """
    verdict = classify(p, r)
    if not isinstance(verdict, CaseII):
        raise DomainError("matrix-unit structure needs a root-of-unity multiplier")
    n = verdict.order
    K = window if window is not None else 3 * n + 1
    if K < 2 * n + 1:
        raise DomainError("window too small for an edge-free check")
    v = window_shift(K)
    v_star = v.adjoint()
    basis = v.domain
    p0 = TruncatedOp.diagonal(basis, lambda ix: 1 if ix.k % n == 0 else 0)
    # units[i][j] = P_{i,j}, each built once: v^i P0 down the first column,
    # then (v*)^j across each row
    units = [[p0]]
    for _ in range(n - 1):
        units.append([v @ units[-1][0]])
    for row in units:
        for _ in range(n - 1):
            row.append(row[-1] @ v_star)
    u = v.power(n)
    rhs = u @ units[0][n - 1]
    for i in range(1, n):
        rhs = rhs + units[i][i - 1]
    # compared on the window indices -K+n..K-n, then on -K+2n..K-2n
    if not v._agrees_at(rhs, basis[n : len(basis) - n]):
        return False
    inner = basis[2 * n : len(basis) - 2 * n]
    return all((u @ unit)._agrees_at(unit @ u, inner) for row in units for unit in row)
