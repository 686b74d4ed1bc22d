"""Named property suites: every algebraic law the library promises, checked
with exact arithmetic against the independent `oracles` where one exists.

A suite is a generator that yields `(property, ok, detail)` once per check,
declared by `@suite(name, *properties)`.  The decorator lists the properties
in report order, tallies the checks into one `PropertyResult` each (a property
that made no check keeps its row; a check under an undeclared name raises) and
registers the suite in `SUITES`.  A property is one name in the decorator and
one `yield` per check.

The suites power the `verify` CLI command and the acceptance tests.  All
randomness is drawn from per-property seeded generators, so identical bounds
and seed give byte-identical reports.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import wraps

from .classification import CaseII, classify, h_contains, HSubgroup, supernatural_order
from . import oracles
from .errors import CapExceededError, DomainError, ValuationMismatchError
from .functions import LocallyConstantFn, alpha_endo, beta_endo, same_function
from .ktheory import (
    C0SeqH,
    C0SeqZ,
    C0SeqZpZ,
    CFunUnits,
    Free,
    KGroupDescriptor,
    algebra_k_groups,
    hs_k_groups,
    ideal_k_groups,
    primed_algebra_k_groups,
)
from .operators import TruncatedOp, WinZ
from .padic import (
    ExactInt,
    MultiplierSpec,
    TeichProduct,
    as_multiplier,
    multiplier_valuation,
    teichmuller,
    valuation,
)
from .representations import (
    _index_diagonal,
    build_cyclic_rep,
    build_digit_rep,
    build_hs_rep,
    build_orbit_rep,
    canonical_words,
    check_covariance,
    check_matrix_units,
    digit_expand,
    intertwiner,
    kappa,
    orbit_decompose,
    pi0_symbol,
    present_product,
    shift_word,
    symbol_product,
    symbol_vanishes,
    word_key,
    word_value,
)
from .scalars import Scalar
from .unit_groups import (
    find_nr,
    find_primitive_root,
    group_size,
    quotient_group,
    subgroup,
    unit_order,
)

PRIMES = (3, 5, 7)

# The largest sizes run_suites accepts, measured in-process on a 2-vCPU host,
# each suite's first call after the import (seeds 0-2).
# max_level: at 6 the suites took reps 0.085-0.10 s (0.07-0.08 s run again),
# subgroups 0.06-0.07, endos and digits 0.01-0.03, quotients and orders
# 0.01-0.02, and teich and ktheory under 0.01; at 7 no suite took more than
# 0.11 s (reps), subgroups 0.04-0.07.
# window: `--suite reps` grows linearly with it and took 0.5 s at 2000.
# max_len: `--suite reps` took 5.3 s at 5, its word bases growing five-fold per
# digit, and under 1 s at 3.
MAX_LEVEL = 6
MAX_WINDOW = 2000
MAX_WORD_LEN = 3

# samples drawn by the endomorphism, covariance and symbol properties
ENDO_SAMPLES = 200
COVARIANCE_SAMPLES = 100
SYMBOL_SAMPLES = 50


@dataclass
class Bounds:
    """What one run of the suites reads: four sizes, each capped by run_suites, the
    seed of every draw, and the optional pins of the digits suite (`p`, `r`) and
    of every sampled function (`function`)."""

    max_p: int = 7
    max_level: int = 5
    max_len: int = MAX_WORD_LEN
    window: int = 8
    seed: int = 0
    p: int | None = None
    r: MultiplierSpec | None = None
    function: LocallyConstantFn | None = None


@dataclass
class PropertyResult:
    """Pass/fail tally for one named property."""

    suite: str
    name: str
    passed: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, detail: str = "") -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(detail)


def _rng(bounds: Bounds, tag: str) -> random.Random:
    return random.Random(f"{bounds.seed}:{tag}")


def _primes(bounds: Bounds) -> list[int]:
    return [p for p in PRIMES if p <= bounds.max_p]


def _pool(bounds: Bounds) -> list[tuple[int, int]]:
    """Every (p, r) with r in {2..p^2} coprime to p."""
    return [(p, r) for p in _primes(bounds) for r in range(2, p * p + 1) if r % p]


# every scalar random_scalar draws, keyed by its draws: 21 real parts, each alone
# or with one of 10 imaginary parts
_RANDOM_SCALARS = {
    (a, b, *imag): Scalar(Fraction(a, b), Fraction(*imag) if imag else Fraction(0))
    for a in range(-3, 4)
    for b in range(1, 4)
    for imag in [(), *itertools.product(range(-2, 3), range(1, 3))]
}


def random_scalar(rng: random.Random) -> Scalar:
    draws = (rng.randint(-3, 3), rng.randint(1, 3))
    if rng.random() < 0.3:
        draws += (rng.randint(-2, 2), rng.randint(1, 2))
    return _RANDOM_SCALARS[draws]


def random_function(rng: random.Random, p: int, max_level: int) -> LocallyConstantFn:
    level = rng.randint(0, max_level)
    return LocallyConstantFn(p, level, tuple(random_scalar(rng) for _ in range(p**level)))


def _within(bounds: Bounds, configs: Iterable[tuple]) -> list[tuple]:
    """The configs of a table whose leading prime is at most max_p, in order."""
    return [config for config in configs if config[0] <= bounds.max_p]


def _function(bounds: Bounds, rng: random.Random, p: int) -> LocallyConstantFn | None:
    """None (skip the config) above max_p or when the pinned function lies over
    another prime; else the pinned function, or a random one."""
    if p > bounds.max_p:
        return None
    if bounds.function is None:
        return random_function(rng, p, 2)
    return bounds.function if bounds.function.p == p else None


# --- suites ----------------------------------------------------------------------

# one check: (property, whether it held, failure detail)
Checks = Iterator[tuple[str, bool, str]]

SUITES: dict[str, Callable[[Bounds], list[PropertyResult]]] = {}


def suite(name: str, *properties: str):
    """Declare a suite from a generator of checks, and register it in SUITES.

    The suite becomes `bounds -> list[PropertyResult]`: one row per declared
    property, in the declared order, a property that made no check included.
    A check under an undeclared property raises KeyError.
    """

    def register(checks: Callable[[Bounds], Checks]) -> Callable[[Bounds], list[PropertyResult]]:
        @wraps(checks)
        def run(bounds: Bounds) -> list[PropertyResult]:
            results = {prop: PropertyResult(name, prop) for prop in properties}
            for prop, ok, detail in checks(bounds):
                results[prop].check(ok, detail)
            return list(results.values())

        SUITES[name] = run
        return run

    return register


@suite("orders", "fast-path-matches-oracle", "threshold-matches-oracle",
       "order-doubling-past-threshold", "orders-divide-upward")
def suite_orders(bounds: Bounds) -> Checks:
    top = bounds.max_level + 1
    for p, r in _pool(bounds):
        oracle = {level: oracles.lagrange_order(p, level, r) for level in range(1, top + 1)}
        for level in range(1, top + 1):
            yield ("fast-path-matches-oracle", unit_order(p, level, r) == oracle[level],
                   f"unit_order({p},{level},{r}) != oracle")
        threshold = find_nr(p, r)
        # the walk ends: a pool multiplier is an integer in 2..p^2, never +-1
        oracle_threshold = next(
            m for m in itertools.count(1) if oracles.lagrange_order(p, m, r) % p == 0
        )
        yield ("threshold-matches-oracle", threshold == oracle_threshold,
               f"threshold mismatch for p={p}, r={r}")
        for level in range(threshold, top):
            yield ("order-doubling-past-threshold", oracle[level + 1] == p * oracle[level],
                   f"doubling fails at p={p}, r={r}, level={level}")
        for level in range(1, top):
            yield ("orders-divide-upward", oracle[level + 1] % oracle[level] == 0,
                   f"divisibility fails at p={p}, r={r}, level={level}")


@suite("subgroups", "lifting-by-exhaustion", "subgroup-order-divides-group",
       "primitive-root-lifting")
def suite_subgroups(bounds: Bounds) -> Checks:
    top = min(bounds.max_level, 4)
    for p, r in _pool(bounds):
        threshold = find_nr(p, r)
        # each level's subgroup is built and listed once; the lifting check
        # reads one level past the top
        subs = [subgroup(p, level, r) for level in range(1, top + 1)]
        if threshold <= top:
            subs.append(subgroup(p, top + 1, r))
        for level in range(threshold, top + 1):
            low, high = subs[level - 1], subs[level]
            # the preimage of low mod p^(level + 1), built in increasing order
            modulus = p**level
            lifted = tuple([x + j for j in range(0, p * modulus, modulus) for x in low.elements])
            yield ("lifting-by-exhaustion", high.elements == lifted,
                   f"lift mismatch at p={p}, r={r}, level={level}")
        for level, sub in enumerate(subs[:top], start=1):
            yield ("subgroup-order-divides-group",
                   sub.elements == oracles.power_walk(p, level, r)
                   and len(sub.elements) == sub.order
                   and group_size(p, level) % sub.order == 0,
                   f"order bookkeeping broken at p={p}, r={r}, level={level}")
    for p in _primes(bounds):
        a = find_primitive_root(p, 1)
        yield ("primitive-root-lifting",
               any(unit_order(p, 2, b) == group_size(p, 2) for b in {a, a + p}),
               f"neither {a} nor {a + p} generates level 2 for p={p}")
        b = find_primitive_root(p, 2)
        for level in range(2, bounds.max_level + 1):
            yield ("primitive-root-lifting", unit_order(p, level, b) == group_size(p, level),
                   f"level-2 generator stops generating at level {level} for p={p}")


@suite("quotients", "index-stable-past-threshold", "spot-quotient-orders",
       "table-satisfies-group-axioms")
def suite_quotients(bounds: Bounds) -> Checks:
    for p, r in _pool(bounds):
        threshold = find_nr(p, r)
        indexes = {
            group_size(p, level) // unit_order(p, level, r)
            for level in range(threshold, max(threshold, bounds.max_level) + 2)
        }
        yield ("index-stable-past-threshold", len(indexes) == 1,
               f"index drifts for p={p}, r={r}: {sorted(indexes)}")
        quotient = quotient_group(p, r)
        yield ("index-stable-past-threshold",
               quotient.order * quotient.subgroup.order == group_size(p, quotient.level),
               f"coset count mismatch for p={p}, r={r}")
        yield ("table-satisfies-group-axioms",
               oracles.is_group_table(quotient.table) and quotient.coset_reps[0] == 1,
               f"table axioms fail for p={p}, r={r}")
    for p, r, order in _within(bounds, ((3, 2, 1), (5, 7, 5), (5, 2, 1))):
        yield ("spot-quotient-orders", quotient_group(p, r).order == order,
               f"quotient order at ({p}, {r})")


@suite("teich", "closed-form-matches-fixed-point-oracle", "root-of-unity-laws",
       "reduction-compatibility", "distinct-mod-p")
def suite_teich(bounds: Bounds) -> Checks:
    for p in _primes(bounds):
        for precision in range(1, bounds.max_level + 1):
            modulus = p**precision
            lifts = {}
            for i in range(1, p):
                w = teichmuller(p, i, precision)
                lifts[i] = w
                yield ("closed-form-matches-fixed-point-oracle",
                       w == oracles.teichmuller_fixed_point(p, i, precision)
                       and w == pow(i, p ** (precision - 1), modulus),
                       f"oracle mismatch at p={p}, i={i}, precision={precision}")
                yield ("root-of-unity-laws",
                       pow(w, p - 1, modulus) == 1 and w % p == i and pow(w, p, modulus) == w,
                       f"root laws fail at p={p}, i={i}, precision={precision}")
                for lower in range(1, precision + 1):
                    yield ("reduction-compatibility", w % p**lower == teichmuller(p, i, lower),
                           f"reduction breaks at p={p}, i={i}, {precision}->{lower}")
            yield ("root-of-unity-laws", lifts[p - 1] == modulus - 1,
                   f"lift of p-1 is not -1 at p={p}, precision={precision}")
            yield ("distinct-mod-p", len({w % p for w in lifts.values()}) == p - 1,
                   f"collision mod p at p={p}, precision={precision}")


ENDO_CONFIGS = (
    (3, ExactInt(2)),
    (5, ExactInt(7)),
    (7, ExactInt(3)),
    (5, TeichProduct(2)),
    (3, ExactInt(-1)),
    (7, TeichProduct(3, -1)),
    (3, ExactInt(6)),
    (5, ExactInt(50)),
    (7, ExactInt(-21)),
)


@suite("endos", "beta-after-alpha-is-identity", "alpha-after-beta-is-identity-for-units")
def suite_endos(bounds: Bounds) -> Checks:
    rng = _rng(bounds, "endos")
    configs = _within(bounds, ENDO_CONFIGS)
    for sample in range(ENDO_SAMPLES):
        p, spec = configs[sample % len(configs)]
        if (f := _function(bounds, rng, p)) is None:
            continue
        level_r = multiplier_valuation(spec, p)
        back = beta_endo(alpha_endo(f, spec), spec)
        yield ("beta-after-alpha-is-identity",
               back.values == f.refined(f.level + level_r).values and same_function(back, f),
               f"beta(alpha(f)) != f for p={p}, r={spec}")
        if level_r == 0:
            yield ("alpha-after-beta-is-identity-for-units",
                   alpha_endo(beta_endo(f, spec), spec).values == f.values,
                   f"alpha(beta(f)) != f for p={p}, r={spec}")


@suite("reps", "covariance-orbit-window", "covariance-cyclic", "covariance-digit-words",
       "covariance-index-shift", "shift-sections-are-isometries", "cyclic-shift-is-unitary",
       "orbit-diagonal-period-is-subgroup-order", "matrix-unit-form-of-the-shift",
       "symbol-vanishes-iff-coefficients-do", "symbol-of-product-is-product-of-symbols",
       "orbit-decomposition-roundtrip")
def suite_reps(bounds: Bounds) -> Checks:
    yield from _reps_covariance(bounds)
    yield from _reps_unitarity(bounds)
    yield from _reps_periodicity(bounds)
    yield from _reps_matrix_units(bounds)
    yield from _reps_symbols(bounds)
    yield from _reps_decompose(bounds)


def _reps_covariance(bounds: Bounds) -> Checks:
    # each builder gives the shift, the diagonals of f and of alpha(f), and the interior
    def orbit(p, spec, x, f):
        shift, diag = build_orbit_rep(p, spec, x, f, window=bounds.window)
        _, diag_alpha = build_orbit_rep(p, spec, x, alpha_endo(f, spec), window=bounds.window)
        return shift, diag, diag_alpha, None

    def cyclic(p, spec, x, f):
        shift, diag = build_cyclic_rep(p, spec, x, f)
        _, diag_alpha = build_cyclic_rep(p, spec, x, alpha_endo(f, spec))
        return shift, diag, diag_alpha, shift.codomain

    def digit(p, spec, level, f):
        shift, diag = build_digit_rep(p, level, spec, f, bounds.max_len)
        _, diag_alpha = build_digit_rep(p, level, spec, alpha_endo(f, spec), bounds.max_len)
        return shift, diag, diag_alpha, shift.domain

    def index(p, level, f):
        shift, diag = build_hs_rep(p, level, f, cutoff=40)
        diag_alpha = _index_diagonal(alpha_endo(f, ExactInt(p**level)), len(shift.codomain))
        return shift, diag, diag_alpha, shift.codomain

    table = (  # property, builder, configs, failure detail
        ("covariance-orbit-window", orbit, [(3, ExactInt(2), 1), (5, ExactInt(7), 2)], "orbit"),
        ("covariance-cyclic", cyclic, [(5, TeichProduct(2), 1), (7, TeichProduct(3), 3)], "cyclic"),
        ("covariance-digit-words", digit, [(3, ExactInt(6), 1), (5, ExactInt(10), 1)], "digit"),
        ("covariance-index-shift", index, [(3, 1), (5, 1), (3, 2)], "index-shift"),
    )
    rng = _rng(bounds, "covariance")
    for sample in range(COVARIANCE_SAMPLES):
        for prop, build, configs, kind in table:
            config = configs[sample % len(configs)]
            if (f := _function(bounds, rng, config[0])) is not None:
                where = f"p={config[0]}, {'level' if build is index else 'r'}={config[1]}"
                yield (prop, check_covariance(*build(*config, f)),
                       f"{kind} covariance fails at {where}, sample={sample}")


def _isometric(op: TruncatedOp) -> bool:
    """S*S = 1: op is an isometry of its domain (a unitary U is one, and so is U*)."""
    return op.adjoint() @ op == TruncatedOp.identity(op.domain)


def _reps_unitarity(bounds: Bounds) -> Checks:
    isometry = "shift-sections-are-isometries"
    constant = LocallyConstantFn.constant
    for p, spec, x in _within(bounds, ((3, ExactInt(2), 1), (5, ExactInt(7), 1))):
        shift, _ = build_orbit_rep(p, spec, x, constant(p, 1), window=bounds.window)
        yield isometry, _isometric(shift), f"orbit shift not isometric at p={p}"
        fixed = {WinZ(k) for k in range(-bounds.window + 1, bounds.window + 2)}
        yield (isometry, set(shift.range_fixed_points()) == fixed,
               f"range projection has the wrong fixed set at p={p}")
    for p, level in _within(bounds, ((3, 1), (5, 1))):
        shift, _ = build_hs_rep(p, level, constant(p, 1), cutoff=20)
        yield isometry, _isometric(shift), f"index shift not isometric at p={p}"
        word_shift, _ = build_digit_rep(p, level, ExactInt(2 * p**level), constant(p, 1), 3)
        yield isometry, _isometric(word_shift), f"digit shift not isometric at p={p}"
    for p, spec in _within(bounds, ((5, TeichProduct(2)), (7, TeichProduct(3)))):
        shift, _ = build_cyclic_rep(p, spec, 1, constant(p, 1))
        yield ("cyclic-shift-is-unitary", _isometric(shift) and _isometric(shift.adjoint()),
               f"cyclic shift not unitary at p={p}")


def _reps_periodicity(bounds: Bounds) -> Checks:
    window = 24
    for p, r, level in _within(bounds, ((5, 7, 1), (5, 7, 2), (5, 7, 3))):
        f = LocallyConstantFn(p, level, tuple(Scalar.of(j) for j in range(p**level)))
        _, diag = build_orbit_rep(p, ExactInt(r), 1, f, window=window)
        sequence = {ix.k: diag.apply(ix).get(ix, Scalar()) for ix in diag.domain}
        d = unit_order(p, level, r)
        repeats = all(sequence[k + d] == sequence[k] for k in range(-window, window - d + 1))
        minimal = all(
            any(sequence[k + e] != sequence[k] for k in range(-window, window - e + 1))
            for e in range(1, d)
            if d % e == 0
        )
        yield ("orbit-diagonal-period-is-subgroup-order", repeats and minimal and d <= window,
               f"period at level {level} is not {d}")


def _reps_matrix_units(bounds: Bounds) -> Checks:
    for p, spec in _within(bounds, ((5, TeichProduct(2)), (7, TeichProduct(3)))):
        yield ("matrix-unit-form-of-the-shift", check_matrix_units(p, spec),
               f"matrix-unit identity fails at p={p}")


def _random_presentation(rng: random.Random, p: int, vanish: bool) -> list:
    terms = []
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(-3, 3)
        f = random_function(rng, p, 2)
        if vanish:
            values = list(f.values)
            values[0] = Scalar()
            f = LocallyConstantFn(p, f.level, tuple(values))
        terms.append((n, f))
    return terms


def _reps_symbols(bounds: Bounds) -> Checks:
    membership = "symbol-vanishes-iff-coefficients-do"
    rng = _rng(bounds, "symbols")
    for p, spec in _within(bounds, ((3, ExactInt(2)),)):
        for sample in range(SYMBOL_SAMPLES):
            vanish = sample % 2 == 0
            terms = _random_presentation(rng, p, vanish)
            symbol = pi0_symbol(terms)
            expected = oracles.coefficients_vanish(terms)
            yield (membership, symbol_vanishes(symbol) == expected,
                   f"membership mismatch at sample {sample}")
            other = _random_presentation(rng, p, vanish=False)
            product_symbol = pi0_symbol(present_product(terms, other, p, spec))
            yield ("symbol-of-product-is-product-of-symbols",
                   product_symbol == symbol_product(symbol, pi0_symbol(other)),
                   f"symbol product mismatch at sample {sample}")
            if expected:
                # folding frequencies cannot resurrect an element of the ideal
                folded = pi0_symbol(terms, modulus=4)
                yield (membership, len(folded) == 4 and symbol_vanishes(folded),
                       f"folded symbol of an ideal element does not vanish at sample {sample}")


def _reps_decompose(bounds: Bounds) -> Checks:
    roundtrip = "orbit-decomposition-roundtrip"
    rng = _rng(bounds, "decompose")
    configs = [(3, ExactInt(2)), (5, ExactInt(7)), (5, TeichProduct(2)), (7, TeichProduct(3, -1))]
    precision = 5
    for sample in range(60):
        p, spec = configs[sample % len(configs)]
        if p > bounds.max_p:
            continue
        x = rng.randint(1, 5000) * rng.choice((1, -1))
        dec = orbit_decompose(p, spec, x, precision=precision)
        modulus = p ** (dec.p_exponent + precision)
        yield (roundtrip, dec.recompose(spec) % modulus == x % modulus,
               f"recomposition mismatch for p={p}, r={spec}, x={x}")
        if dec.case == "I":
            # the Case I configs are exact integers
            ok = all(
                dec.tail % p**m in oracles.power_walk(p, m, spec.n)
                for m in range(1, min(precision, 4) + 1)
            )
            yield roundtrip, ok, f"tail escapes the subgroup tower for p={p}, x={x}"
        else:
            yield roundtrip, dec.tail % p == 1, f"tail not 1 mod p for p={p}, x={x}"


@suite("digits", "words-biject-onto-residues", "digit-shift-raises-kappa",
       "partial-sums-match-mod-powers", "index-shift-conjugates-to-digit-shift",
       "conjugated-diagonal-matches-composition")
def suite_digits(bounds: Bounds) -> Checks:
    bijection = "words-biject-onto-residues"
    intertwine = "index-shift-conjugates-to-digit-shift"
    rng = _rng(bounds, "digits")
    if bounds.p is not None:  # run_suites checked the pin
        configs = [(bounds.p, as_multiplier(bounds.r).n)]
    else:
        configs = [(3, 6), (5, 10)]
    max_len = bounds.max_len
    for p, r in _within(bounds, configs):
        level = valuation(p, r)[0]
        s = p**level
        for n in range(1, max_len + 1):
            modulus = p ** (n * level)
            values = {
                sum(d * r**i for i, d in enumerate(word)) % modulus
                for word in itertools.product(range(s), repeat=n)
            }
            yield (bijection, len(values) == modulus,
                   f"length-{n} words miss residues for p={p}, r={r}")
        for word in canonical_words(s, max_len):
            expansion = digit_expand(p, level, r, word_value(word, r), max_len)
            yield (bijection, expansion.exact and expansion.word == word,
                   f"expansion does not invert the value map at {word}")
            if not word.is_zero():
                yield ("digit-shift-raises-kappa", kappa(shift_word(word)) == kappa(word) + 1,
                       f"grading fails at {word}")
        for _ in range(20):
            x = rng.randint(0, 10**6)
            expansion = digit_expand(p, level, r, x, max_len)
            digits = expansion.digits
            ok = all(
                sum(d * r**i for i, d in enumerate(digits[:n])) % p ** (n * level)
                == x % p ** (n * level)
                for n in range(1, len(digits) + 1)
            )
            yield ("partial-sums-match-mod-powers", ok,
                   f"partial sums drift for p={p}, r={r}, x={x}")
        pairing = intertwiner(p, level, r, max_len)
        pairing_up = intertwiner(p, level, r, max_len + 1)
        constant = LocallyConstantFn.constant(p, 1)
        index_shift, _ = build_hs_rep(p, level, constant, cutoff=s**max_len - 1)
        index_shift = index_shift.extended(codomain=pairing_up.domain)
        word_shift, _ = build_digit_rep(p, level, ExactInt(r), constant, max_len)
        yield (intertwine, pairing_up @ index_shift == word_shift @ pairing,
               f"intertwining fails for p={p}, r={r}")
        yield (intertwine, _isometric(pairing) and _isometric(pairing.adjoint()),
               f"pairing is not a permutation for p={p}, r={r}")
        for _ in range(10):
            if (f := _function(bounds, rng, p)) is None:
                continue
            mu = TruncatedOp.diagonal(pairing.domain, lambda ix: f(ix.l))
            conjugated = pairing @ mu @ pairing.adjoint()
            direct = TruncatedOp.diagonal(pairing.codomain, lambda w: f(word_key(w, s)))
            yield ("conjugated-diagonal-matches-composition", conjugated == direct,
                   f"conjugated diagonal mismatch for p={p}, r={r}")


@suite("ktheory", "descriptor-strings", "split-sequence-consistency",
       "canonicalization-idempotent", "denominator-group-closure")
def suite_ktheory(bounds: Bounds) -> Checks:
    strings, split = "descriptor-strings", "split-sequence-consistency"
    rng = _rng(bounds, "ktheory")

    verdict = classify(3, 2)
    k0, k1 = algebra_k_groups(verdict, 3)
    yield strings, str(k0) == "c0(Z>=0, H(2*3^inf)) (+) Z", f"K0 printed as {k0}"
    yield strings, str(k1) == "Z (+) c0(Z>=0, Z)", f"K1 printed as {k1}"
    for p, spec in _within(bounds, ((5, TeichProduct(2)),)):
        pk0, pk1 = primed_algebra_k_groups(classify(p, spec), p)
        yield strings, str(pk0) == "c0(Z>=0 x Zp, Z) (+) Z^4", f"primed K0 printed as {pk0}"
        yield strings, str(pk1) == "0", f"primed K1 printed as {pk1}"
    for p, r, pinned in _within(bounds, ((5, 10, "C(Z_5^x, Z)"), (3, 6, "C(Z_3^x, Z)"))):
        hs0, hs1 = algebra_k_groups(classify(p, r), p)
        yield strings, str(hs0) == pinned and str(hs1) == "0", f"got {hs0} / {hs1}"
    yield (strings, algebra_k_groups(classify(3, 18), 3) == hs_k_groups(9),
           "valuation-2 descriptors disagree with the direct construction")

    cases = [(3, ExactInt(2)), (5, ExactInt(7)), (5, TeichProduct(2)), (3, ExactInt(-1))]
    for p, spec in _within(bounds, cases):
        verdict = classify(p, spec)
        ak0, ak1 = algebra_k_groups(verdict, p)
        ik0, ik1 = ideal_k_groups(verdict, p)
        yield (split, ak0 == ik0 + Free(1) and ak1 == ik1 + Free(1),
               f"unsplit descriptors at p={p}, r={spec}")
        if isinstance(verdict, CaseII):
            pk0, pk1 = primed_algebra_k_groups(verdict, p)
            jk0, jk1 = ideal_k_groups(verdict, p, primed=True)
            yield (split, pk0 == jk0 + Free(verdict.order) and pk1.is_zero() and jk1.is_zero(),
                   f"primed split fails at p={p}, r={spec}")

    atoms = [Free(1), Free(3), C0SeqZ(), C0SeqZpZ(), CFunUnits(9)]
    s = supernatural_order(3, 2)
    atoms.append(C0SeqH(s))
    for _ in range(25):
        chosen = [rng.choice(atoms) for _ in range(rng.randint(0, 5))]
        once = KGroupDescriptor(chosen)
        again = KGroupDescriptor(once.atoms)
        yield ("canonicalization-idempotent", again == once and str(again) == str(once),
               f"canonicalization not idempotent on {chosen}")

    h = HSubgroup(s)
    for _ in range(40):
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        b = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        if h_contains(h, a) and h_contains(h, b):
            yield ("denominator-group-closure",
                   h_contains(h, a + b) and h_contains(h, a - b) and h_contains(h, -a),
                   f"closure fails at {a}, {b}")
        yield ("denominator-group-closure", h_contains(h, rng.randint(-100, 100)),
               "integers must belong")


def run_suites(names: list[str], bounds: Bounds) -> list[PropertyResult]:
    """Run the named suites and aggregate results in a fixed order."""
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise DomainError(f"unknown suites: {', '.join(unknown)}")
    if bounds.max_p < PRIMES[0]:
        raise DomainError(f"max_p must be at least {PRIMES[0]}, the smallest odd prime")
    for name, size, cap in (
        ("max_p", bounds.max_p, PRIMES[-1]),
        ("max_level", bounds.max_level, MAX_LEVEL),
        ("window", bounds.window, MAX_WINDOW),
        ("max_len", bounds.max_len, MAX_WORD_LEN),
    ):
        if size < 1:
            raise DomainError(f"{name} must be at least 1")
        if size > cap:
            raise CapExceededError(f"{name} {size} is above {cap}, the largest these suites accept")
    # only the digits suite reads the pin, but every run refuses a malformed one
    if (bounds.p is None) != (bounds.r is None):
        raise DomainError("pin both p and r for the digits suite, or neither")
    if bounds.r is not None:
        r = as_multiplier(bounds.r)
        if not isinstance(r, ExactInt):
            raise DomainError("the digits suite needs an exact integer multiplier")
        if valuation(bounds.p, r.n)[0] < 1:  # digits below p^v need v >= 1
            raise ValuationMismatchError("multiplier valuation mismatch")
        if r.n < 0:  # digit expansion needs a non-negative word value
            raise DomainError("the digits suite needs a non-negative multiplier")
    return [result for n in SUITES if n in names for result in SUITES[n](bounds)]
