"""The benchmark's workloads: seeded rounds of operations on the public API.

A round is a fixed list of operations made from the workload seed; a run
repeats the same round, so every run attempts whole rounds.  Each operation
has a ``run`` callable, the only code that is timed, and a ``check``
callable that compares its outputs with the independent oracles.

Sizes that set an operation's cost (windows, word lengths, the level of a
quotient) are fixed per slot; the seed picks the values that do not change
the cost class (primes of the same size, multipliers, functions, points).
That keeps the spread between seeds small while the inputs still vary.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles as O
from oracles import ONE, expect

import padicmult as pm
from padicmult import cli

ODD_PRIMES = [q for q in range(3, 50) if all(q % d for d in range(2, q))]
# quotient_group and orbit_decompose run only where |U_M| at the threshold is
# at most this many units; their table is quadratic in the number of cosets
QUOTIENT_MAX_UNITS = 5000


@dataclass
class Op:
    run: Callable[[], object]
    check: Callable[[object], None]
    # the 64-level threshold search raises cap-exceeded on this input: a
    # known fault, counted as a failed operation rather than a wrong output
    expect_cap: bool = False


# --- shared input makers -------------------------------------------------------


def random_values(rng: random.Random, p: int, level: int) -> list[tuple[Fraction, Fraction]]:
    values = []
    for _ in range(p**level):
        real = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        imag = Fraction(rng.randint(-2, 2), rng.randint(1, 2)) if rng.random() < 0.3 else Fraction(0)
        values.append((real, imag))
    return values


def random_fn(rng: random.Random, p: int, level: int) -> tuple[O.Fn, pm.LocallyConstantFn]:
    """The same function twice: as oracle values and as a library value."""
    values = random_values(rng, p, level)
    lib = pm.LocallyConstantFn(p, level, tuple(pm.Scalar(a, b) for a, b in values))
    return O.Fn(p, level, values), lib


# --- verify ----------------------------------------------------------------------

SUITES = ("orders", "subgroups", "quotients", "teich", "endos", "reps", "digits", "ktheory")
PROPERTIES = {
    "orders": ["fast-path-matches-oracle", "threshold-matches-oracle",
               "order-doubling-past-threshold", "orders-divide-upward"],
    "subgroups": ["lifting-by-exhaustion", "subgroup-order-divides-group", "primitive-root-lifting"],
    "quotients": ["index-stable-past-threshold", "spot-quotient-orders", "table-satisfies-group-axioms"],
    "teich": ["closed-form-matches-fixed-point-oracle", "root-of-unity-laws",
              "reduction-compatibility", "distinct-mod-p"],
    "endos": ["beta-after-alpha-is-identity", "alpha-after-beta-is-identity-for-units"],
    "reps": ["covariance-orbit-window", "covariance-cyclic", "covariance-digit-words",
             "covariance-index-shift", "shift-sections-are-isometries", "cyclic-shift-is-unitary",
             "orbit-diagonal-period-is-subgroup-order", "matrix-unit-form-of-the-shift",
             "symbol-vanishes-iff-coefficients-do", "symbol-of-product-is-product-of-symbols",
             "orbit-decomposition-roundtrip"],
    "digits": ["words-biject-onto-residues", "digit-shift-raises-kappa", "partial-sums-match-mod-powers",
               "index-shift-conjugates-to-digit-shift", "conjugated-diagonal-matches-composition"],
    "ktheory": ["descriptor-strings", "split-sequence-consistency", "canonicalization-idempotent",
                "denominator-group-closure"],
}


def check_verify_output(out: tuple[int, str], argv: list[str], suites=SUITES) -> int:
    """Exit 0, status ok, the selected suites with all their properties, each
    with checks and no failures.  Returns the number of checks made."""
    code, text = out
    expect(code == 0, f"{' '.join(argv)} exited {code}")
    doc = json.loads(text)
    expect(doc.get("status") == "ok", f"verify status {doc.get('status')!r}")
    seen: dict[str, list[str]] = {}
    checks = 0
    for result in doc["results"]:
        seen.setdefault(result["suite"], []).append(result["property"])
        what = f"{result['suite']}/{result['property']}"
        expect(result["passed"] > 0, f"{what} made no checks")
        expect(result["failed"] == 0 and not result["failures"], f"{what} failed: {result['failures']}")
        checks += result["passed"]
    expect(tuple(seen) == tuple(suites), f"verify suites {list(seen)}, expected {list(suites)}")
    expect(seen == {suite: PROPERTIES[suite] for suite in suites}, "verify properties differ from the expected list")
    return checks


def _verify_op(seed: int, suite: str) -> Op:
    argv = ["verify", "--suite", suite, "--max-N", "6", "--seed", str(seed), "--json"]

    def run():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
        return code, buffer.getvalue()

    suites = SUITES if suite == "all" else (suite,)
    return Op(run, lambda out: check_verify_output(out, argv, suites))


# verify seeds are fixed: about 6 % of seeds make the symbol-membership
# property of the reps suite report a false failure (two terms of one
# frequency whose values at 0 cancel), so a seed drawn from --seed would fail
# on some workload seeds only.  These five pass today.
VERIFY_SEEDS = (0, 1, 2, 3, 4)


def verify_round(seed: int) -> list[Op]:
    return [_verify_op(VERIFY_SEEDS[seed % len(VERIFY_SEEDS)], "all")]


def verify_memory_round(seed: int) -> list[Op]:
    """The suites one by one, for the tracemalloc pass.  orders is left out:
    its brute-force order oracle allocates an int per multiplication, which
    tracemalloc slows about 25-fold, and it holds no memory."""
    verify_seed = VERIFY_SEEDS[seed % len(VERIFY_SEEDS)]
    return [_verify_op(verify_seed, suite) for suite in SUITES if suite != "orders"]


# --- sweep -----------------------------------------------------------------------


def _unit_row(rng: random.Random, p: int, r: int, teich_n: int, quotient: bool = True) -> Op:
    """Case I row for an exact integer unit r that is not +-1."""
    expected = O.expected_verdict(p, r)
    levels = sorted(rng.sample(range(1, 41), 3))
    teich_i = rng.randint(1, p - 1)
    with_quotient = quotient and (p - 1) * p ** (expected[1] - 1) <= QUOTIENT_MAX_UNITS
    x = rng.randint(1, 10**6) * rng.choice((1, -1)) * p ** rng.randint(0, 2)
    precision = expected[1] + rng.randint(0, 3)

    def run():
        out = {"orders": [pm.unit_order(p, n, r) for n in levels]}
        verdict = out["verdict"] = pm.classify(p, r)
        out["nr"] = pm.find_nr(p, r)
        out["algebra"] = pm.algebra_k_groups(verdict, p)
        out["ideal"] = pm.ideal_k_groups(verdict, p)
        out["snumber"] = pm.supernatural_order(p, r)
        out["teich"] = pm.teichmuller(p, teich_i, teich_n)
        if with_quotient:
            out["quotient"] = pm.quotient_group(p, r)
            dec = out["decomposition"] = pm.orbit_decompose(p, r, x, precision=precision)
            out["recomposed"] = dec.recompose(r)
        return out

    def check(out):
        what = f"p={p} r={r}"
        for n, d in zip(levels, out["orders"]):
            O.check_order(p, n, r % p**n, d)
        O.check_verdict(out["verdict"], expected, True, what)
        expect(out["nr"] == expected[1], f"{what}: find_nr {out['nr']}, expected {expected[1]}")
        O.check_k_groups(p, expected, "algebra", *out["algebra"], what)
        O.check_k_groups(p, expected, "ideal", *out["ideal"], what)
        want = O.supernatural_text(p, expected[2])
        expect(str(out["snumber"]) == want, f"{what}: supernatural {out['snumber']}, expected {want}")
        O.check_teichmuller(p, teich_i, teich_n, out["teich"])
        if with_quotient:
            O.check_quotient(p, r, out["quotient"])
            O.check_orbit_decomposition(
                p, r, x, precision, out["decomposition"], out["quotient"].coset_reps, out["recomposed"]
            )

    return Op(run, check)


def _root_row(rng: random.Random, p: int, spec, residue: int, teich_n: int) -> Op:
    """Case II row: -1 or a signed Teichmuller lift; residue is its value mod p."""
    order = O.residue_order_mod_p(p, residue)
    expected = ("II", order)
    levels = sorted(rng.sample(range(1, 41), 3))
    teich_i = rng.randint(1, p - 1)
    variants = [("algebra", pm.algebra_k_groups), ("ideal", pm.ideal_k_groups),
                ("algebra-primed", pm.primed_algebra_k_groups)]

    def run():
        out = {"orders": [pm.unit_order(p, n, spec) for n in levels]}
        verdict = out["verdict"] = pm.classify(p, spec)
        out["k"] = [fn(verdict, p) for _, fn in variants]
        out["ideal-primed"] = pm.ideal_k_groups(verdict, p, primed=True)
        out["teich"] = pm.teichmuller(p, teich_i, teich_n)
        return out

    def check(out):
        what = f"p={p} r={spec!r}"
        expect(out["orders"] == [order] * len(levels), f"{what}: orders {out['orders']}, expected {order}")
        O.check_verdict(out["verdict"], expected, True, what)
        for (variant, _), groups in zip(variants, out["k"]):
            O.check_k_groups(p, expected, variant, *groups, what)
        O.check_k_groups(p, expected, "ideal-primed", *out["ideal-primed"], what)
        O.check_teichmuller(p, teich_i, teich_n, out["teich"])

    return Op(run, check)


def _valuation_row(rng: random.Random, p: int, r: int, teich_n: int) -> Op:
    """Case III row for an exact integer divisible by p."""
    expected = O.expected_verdict(p, r)
    teich_i = rng.randint(1, p - 1)

    def run():
        verdict = pm.classify(p, r)
        return verdict, pm.algebra_k_groups(verdict, p), pm.teichmuller(p, teich_i, teich_n)

    def check(out):
        verdict, groups, teich = out
        what = f"p={p} r={r}"
        O.check_verdict(verdict, expected, True, what)
        O.check_k_groups(p, expected, "algebra", *groups, what)
        O.check_teichmuller(p, teich_i, teich_n, teich)

    return Op(run, check)


def _digits_row(rng: random.Random, p: int, r: int) -> Op:
    """A digit string of an exact integer r, long enough to settle its verdict;
    the verdict must equal the integer's, flagged inexact."""
    if r % p:
        need = O.threshold(p, r)
    else:
        need = O.p_valuation(p, r)[0] + 1
    known = need + rng.randint(0, 4)
    digits = O.digits_of(r % p**known, p)
    digits += (0,) * (known - len(digits))
    spec = pm.Digits(digits)
    expected = O.expected_verdict(p, r, precision=known - O.p_valuation(p, r)[0])
    unit = expected[0] == "I"
    levels = sorted(rng.sample(range(1, known + 1), min(3, known)))

    def run():
        out = {"verdict": pm.classify(p, spec)}
        out["algebra"] = pm.algebra_k_groups(out["verdict"], p)
        if unit:
            out["orders"] = [pm.unit_order(p, n, spec) for n in levels]
            out["nr"] = pm.find_nr(p, spec)
            out["snumber"] = pm.supernatural_order(p, spec)
        return out

    def check(out):
        what = f"p={p} r={spec!r}"
        O.check_verdict(out["verdict"], expected, False, what)
        O.check_k_groups(p, expected, "algebra", *out["algebra"], what)
        if unit:
            for n, d in zip(levels, out["orders"]):
                O.check_order(p, n, r % p**n, d)
            expect(out["nr"] == expected[1], f"{what}: find_nr {out['nr']}")
            expect(str(out["snumber"]) == O.supernatural_text(p, expected[2]), f"{what}: supernatural")

    return Op(run, check)


def _capped_row(p: int, r: int) -> Op:
    """r = 1 + c p^k with k >= 64: the threshold is k + 1, past the 64-level
    search, so classify raises cap-exceeded.  Once that is mended the row is
    an ordinary Case I row and is checked as one."""
    row = _unit_row(random.Random(f"capped:{p}:{r}"), p, r, 100, quotient=False)
    row.expect_cap = True
    return row


# fixed inputs, the same for every seed, so the failed share never varies
CAPPED = [(3, 1 + 3**64), (5, 1 - 2 * 5**70), (43, 1 + 7 * 43**100)]
# The slots below fix what sets a row's cost (the prime, the depth k of
# 1 + c p^k, the level of the Teichmuller lift); the seed draws the rest.
# Deep rows without a quotient: (p - 1) p^k > QUOTIENT_MAX_UNITS.
DEEP_SLOTS = [(3, 9), (3, 35), (3, 60), (5, 6), (5, 48), (7, 5), (7, 60), (11, 3), (11, 30),
              (17, 22), (23, 55), (29, 14), (31, 41), (37, 7), (43, 60), (47, 2)]
# Deep rows with a quotient; its size depends only on p and k.
DEEP_QUOTIENT_SLOTS = [(3, 7), (3, 6), (5, 4), (7, 3), (11, 2), (13, 2)]
TEICH_PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31, 43]
BIG_PRIMES = [3, 7, 13, 23, 37, 47]
MULTIPLE_PRIMES = [3, 5, 11, 19, 31, 41]
DIGIT_SLOTS = [(3, "small"), (5, "deep"), (7, "big"), (13, "multiple"), (29, "small"), (41, "deep")]
LIFT_LEVELS = range(7, 301, 13)


def _deep(rng: random.Random, p: int, k: int) -> int:
    c = rng.choice([c for c in range(1, p * p) if c % p]) * rng.choice((1, -1))
    return 1 + c * p**k


def _unit(rng: random.Random, p: int, lo: int, hi: int) -> int:
    """A random unit r with lo <= |r| <= hi, not +-1."""
    while True:
        r = rng.randint(lo, hi) * rng.choice((1, -1))
        if r % p and r not in (1, -1):
            return r


def sweep_round(seed: int) -> list[Op]:
    rng = random.Random(f"{seed}:sweep")
    lift = itertools.cycle(LIFT_LEVELS)
    small: list[Op] = []
    # small multipliers, |r| <= p^2: for each odd prime below 50, sixteen
    # units, one multiple of p and -1
    for p in ODD_PRIMES:
        for _ in range(16):
            small.append(_unit_row(rng, p, _unit(rng, p, 2, p * p), next(lift)))
        small.append(_valuation_row(rng, p, p * _unit(rng, p, 2, p), next(lift)))
        small.append(_root_row(rng, p, pm.ExactInt(-1), -1, next(lift)))
    # the small rows set op_p50_ms; running them twice per round gives each
    # twice the samples, spread over the round
    ops = small * 2
    for p, k in DEEP_SLOTS:
        ops.append(_unit_row(rng, p, _deep(rng, p, k), next(lift)))
    for p, k in DEEP_QUOTIENT_SLOTS:
        ops.append(_unit_row(rng, p, _deep(rng, p, k), next(lift)))
    for p in TEICH_PRIMES:
        i, sign = rng.randint(2, p - 1), rng.choice((1, -1))
        if (i, sign) == (p - 1, -1):  # -teich(p-1) is 1, an excluded multiplier
            sign = 1
        ops.append(_root_row(rng, p, pm.TeichProduct(i, sign), sign * i, next(lift)))
    for p in BIG_PRIMES:
        ops.append(_unit_row(rng, p, _unit(rng, p, 10**20, 10**30), next(lift)))
    for p in MULTIPLE_PRIMES:
        r = p ** rng.randint(1, 5) * _unit(rng, p, 2, 10**30)
        ops.append(_valuation_row(rng, p, r, next(lift)))
    for p, pool in DIGIT_SLOTS:
        r = {
            "small": lambda: _unit(rng, p, 2, p * p),
            "big": lambda: _unit(rng, p, 10**20, 10**30),
            "deep": lambda: _deep(rng, p, rng.randint(2, 20)),
            "multiple": lambda: p ** rng.randint(1, 5) * _unit(rng, p, 2, 10**6),
        }[pool]()
        ops.append(_digits_row(rng, p, r))
    ops.extend(_capped_row(p, r) for p, r in CAPPED)
    return ops


# --- operators -------------------------------------------------------------------


def _case_one_unit(rng: random.Random, p: int) -> int:
    return rng.choice([r for r in range(2, p * p + 1) if r % p])


def _windows(lo: int, hi: int) -> list[tuple]:
    return [("W", k) for k in range(lo, hi + 1)]


def orbit_covariance(rng: random.Random, p: int, window: int, level: int = 2) -> Op:
    r, x = _case_one_unit(rng, p), rng.randint(1, 50) * rng.choice((1, -1))
    fn, f = random_fn(rng, p, level)

    def run():
        shift, diag = pm.build_orbit_rep(p, r, x, f, window=window)
        _, diag_alpha = pm.build_orbit_rep(p, r, x, pm.alpha_endo(f, r), window=window)
        ok = pm.check_covariance(shift, diag, diag_alpha)
        return shift, diag, diag_alpha, ok, shift @ diag @ shift.adjoint()

    def check(out):
        shift, diag, diag_alpha, ok, lhs = out
        what = f"orbit covariance p={p} r={r} x={x} window={window}"
        m = fn.modulus

        def at(k: int) -> tuple:
            return fn(pow(r, k, m) * x)

        ks = range(-window, window + 1)
        O.check_basis(shift.domain, _windows(-window, window), what)
        O.check_basis(shift.codomain, _windows(-window, window + 1), what)
        O.check_entries(shift, {(("W", k + 1), ("W", k)): ONE for k in ks}, what + " shift")
        O.check_entries(diag, {(("W", k), ("W", k)): at(k) for k in ks}, what + " diagonal")
        O.check_entries(diag_alpha, {(("W", k), ("W", k)): at(k - 1) for k in ks}, what + " alpha diagonal")
        O.check_entries(lhs, {(("W", k), ("W", k)): at(k - 1) for k in range(-window + 1, window + 2)}, what + " V D V*")
        expect(ok is True, f"{what}: check_covariance returned {ok}")

    return Op(run, check)


def own_teichmuller(p: int, i: int, level: int) -> int:
    """Iterate a -> a^p mod p^level from i until it is fixed."""
    modulus = p**level
    current = i % modulus
    while (following := pow(current, p, modulus)) != current:
        current = following
    return current


def cyclic_covariance(rng: random.Random, p: int, level: int = 2) -> Op:
    i, sign = rng.randint(2, p - 2), rng.choice((1, -1))
    spec, x = pm.TeichProduct(i, sign), rng.randint(1, 50)
    n = O.residue_order_mod_p(p, sign * i)
    fn, f = random_fn(rng, p, level)

    def run():
        shift, diag = pm.build_cyclic_rep(p, spec, x, f)
        _, diag_alpha = pm.build_cyclic_rep(p, spec, x, pm.alpha_endo(f, spec))
        ok = pm.check_covariance(shift, diag, diag_alpha, interior=shift.codomain)
        return shift, diag, diag_alpha, ok, shift @ diag @ shift.adjoint()

    def check(out):
        shift, diag, diag_alpha, ok, lhs = out
        what = f"cyclic covariance p={p} r={spec!r} x={x}"
        omega = sign * own_teichmuller(p, i, max(fn.level, 1))

        def at(k: int) -> tuple:
            return fn(pow(omega, k % n, fn.modulus) * x)

        O.check_entries(shift, {(("C", (k + 1) % n, n), ("C", k, n)): ONE for k in range(n)}, what + " shift")
        O.check_entries(diag, {(("C", k, n), ("C", k, n)): at(k) for k in range(n)}, what + " diagonal")
        O.check_entries(diag_alpha, {(("C", k, n), ("C", k, n)): at(k - 1) for k in range(n)}, what + " alpha diagonal")
        O.check_entries(lhs, {(("C", k, n), ("C", k, n)): at(k - 1) for k in range(n)}, what + " V D V*")
        expect(ok is True, f"{what}: check_covariance returned {ok}")

    return Op(run, check)


def _words(s: int, max_len: int) -> list[tuple]:
    return [("D", O.digits_of(key, s)) for key in range(s**max_len)]


def _shift_word(word: tuple) -> tuple:
    return word if word == (0,) else (0,) + word


def _valuation_one(rng: random.Random, p: int) -> int:
    return p * rng.choice([u for u in range(-8, 9) if u % p and p * u != 1])


def digit_covariance(rng: random.Random, p: int, max_len: int, level: int = 2) -> Op:
    r = _valuation_one(rng, p)
    fn, f = random_fn(rng, p, level)
    fa = fn.alpha(r)

    def run():
        shift, diag = pm.build_digit_rep(p, 1, r, f, max_len)
        _, diag_alpha = pm.build_digit_rep(p, 1, r, pm.alpha_endo(f, r), max_len)
        ok = pm.check_covariance(shift, diag, diag_alpha, interior=shift.domain)
        return shift, diag, diag_alpha, ok, shift @ diag @ shift.adjoint()

    def check(out):
        shift, diag, diag_alpha, ok, lhs = out
        what = f"digit covariance p={p} r={r} max_len={max_len}"
        words = [w for _, w in _words(p, max_len)]
        value = {w: sum(d * r**i for i, d in enumerate(w)) for w in words}
        O.check_basis(shift.domain, _words(p, max_len), what)
        O.check_basis(shift.codomain, _words(p, max_len + 1), what)
        O.check_entries(shift, {(("D", _shift_word(w)), ("D", w)): ONE for w in words}, what + " shift")
        O.check_entries(diag, {(("D", w), ("D", w)): fn(value[w]) for w in words}, what + " diagonal")
        O.check_entries(diag_alpha, {(("D", w), ("D", w)): fa(value[w]) for w in words}, what + " alpha diagonal")
        O.check_entries(lhs, {(("D", _shift_word(w)),) * 2: fn(value[w]) for w in words}, what + " V D V*")
        expect(ok is True, f"{what}: check_covariance returned {ok}")

    return Op(run, check)


def index_covariance(rng: random.Random, p: int, level: int, cutoff: int) -> Op:
    s = p**level
    fn, f = random_fn(rng, p, 2)
    fa = fn.alpha(s)

    def run():
        shift, diag = pm.build_hs_rep(p, level, f, cutoff)
        alpha_f = pm.alpha_endo(f, s)
        diag_alpha = pm.TruncatedOp.diagonal(shift.codomain, lambda ix: alpha_f(ix.l))
        ok = pm.check_covariance(shift, diag, diag_alpha, interior=shift.codomain)
        return shift, diag, diag_alpha, ok, shift @ diag @ shift.adjoint()

    def check(out):
        shift, diag, diag_alpha, ok, lhs = out
        what = f"index-shift covariance p={p} s={s} cutoff={cutoff}"
        ls = range(cutoff + 1)
        O.check_entries(shift, {(("N", s * l), ("N", l)): ONE for l in ls}, what + " shift")
        O.check_entries(diag, {(("N", l), ("N", l)): fn(l) for l in ls}, what + " diagonal")
        O.check_entries(diag_alpha, {(("N", l), ("N", l)): fa(l) for l in range(s * cutoff + 1)}, what + " alpha diagonal")
        O.check_entries(lhs, {(("N", s * l), ("N", s * l)): fn(l) for l in ls}, what + " V D V*")
        expect(ok is True, f"{what}: check_covariance returned {ok}")

    return Op(run, check)


def intertwining(rng: random.Random, p: int, max_len: int) -> Op:
    r = _valuation_one(rng, p)
    fn, f = random_fn(rng, p, 2)

    def run():
        pairing = pm.intertwiner(p, 1, r, max_len)
        pairing_up = pm.intertwiner(p, 1, r, max_len + 1)
        constant = pm.LocallyConstantFn.constant(p, 1)
        index_shift, _ = pm.build_hs_rep(p, 1, constant, cutoff=p**max_len - 1)
        index_shift = index_shift.extended(codomain=tuple(pm.NonNeg(l) for l in range(p ** (max_len + 1))))
        word_shift, _ = pm.build_digit_rep(p, 1, r, constant, max_len)
        left = pairing_up @ index_shift
        ok = left == word_shift @ pairing
        mu = pm.TruncatedOp.diagonal(pairing.domain, lambda ix: f(ix.l))
        return pairing, left, ok, pairing @ mu @ pairing.adjoint()

    def check(out):
        pairing, left, ok, conjugated = out
        what = f"intertwiner p={p} r={r} max_len={max_len}"
        keys = range(p**max_len)
        O.check_entries(pairing, {(("D", O.digits_of(k, p)), ("N", k)): ONE for k in keys}, what)
        O.check_entries(left, {(("D", _shift_word(O.digits_of(k, p))), ("N", k)): ONE for k in keys}, what + " U S")
        O.check_entries(conjugated, {(("D", O.digits_of(k, p)),) * 2: fn(k) for k in keys}, what + " U M U*")
        expect(ok is True, f"{what}: intertwining equality returned {ok}")

    return Op(run, check)


def matrix_units(rng: random.Random, p: int, order: int, window: int | None) -> Op:
    choices = [(i, sign) for i in range(2, p) for sign in (1, -1)
               if (i, sign) != (p - 1, -1) and O.residue_order_mod_p(p, sign * i) == order]
    i, sign = rng.choice(choices)
    spec = pm.TeichProduct(i, sign)

    def run():
        return pm.check_matrix_units(p, spec, window=window)

    def check(ok):
        expect(ok is True, f"matrix units p={p} r={spec!r} window={window}: {ok}")

    return Op(run, check)


def isometry(rng: random.Random, family: str, p: int, size: int) -> Op:
    """S* S is the identity on the domain of a shift section; for the orbit
    window also the range projection's fixed set, for the cyclic shift both
    products."""
    r = _valuation_one(rng, p) if family == "digit" else _case_one_unit(rng, p)

    def build():
        constant = pm.LocallyConstantFn.constant(p, 1)
        if family == "orbit":
            return pm.build_orbit_rep(p, r, 1, constant, window=size)[0]
        if family == "index":
            return pm.build_hs_rep(p, 1, constant, cutoff=size)[0]
        if family == "digit":
            return pm.build_digit_rep(p, 1, r, constant, size)[0]
        return pm.build_cyclic_rep(p, pm.TeichProduct(2), 1, constant)[0]

    def run():
        shift = build()
        products = [shift.adjoint() @ shift]
        if family == "cyclic":
            products.append(shift @ shift.adjoint())
        ok = all(prod == pm.TruncatedOp.identity(prod.domain) for prod in products)
        fixed = shift.range_fixed_points() if family == "orbit" else None
        return shift, products, ok, fixed

    def check(out):
        shift, products, ok, fixed = out
        what = f"{family} isometry p={p} size={size}"
        keys = [O.index_key(ix) for ix in shift.domain]
        if family == "orbit":
            expect(keys == _windows(-size, size), f"{what}: domain")
            expect([O.index_key(ix) for ix in fixed] == _windows(-size + 1, size + 1), f"{what}: range fixed points")
        elif family == "index":
            expect(keys == [("N", l) for l in range(size + 1)], f"{what}: domain")
        elif family == "digit":
            expect(keys == _words(p, size), f"{what}: domain")
        for prod in products:
            O.check_entries(prod, {(k, k): ONE for k in keys}, what)
        expect(ok is True, f"{what}: equality with the identity returned {ok}")

    return Op(run, check)


def operators_round(seed: int) -> list[Op]:
    rng = random.Random(f"{seed}:operators")
    small = [
        *(orbit_covariance(rng, p, 8, level) for p, level in ((3, 2), (5, 2), (7, 1), (3, 1))),
        *(cyclic_covariance(rng, p) for p in (5, 7, 11, 13)),
        *(digit_covariance(rng, 3, 3, level) for level in (1, 2, 2, 1)),
        index_covariance(rng, 3, 1, 40), index_covariance(rng, 3, 1, 40), index_covariance(rng, 5, 1, 40),
        intertwining(rng, 3, 3), intertwining(rng, 3, 3), intertwining(rng, 5, 2),
        isometry(rng, "orbit", 5, 8), isometry(rng, "index", 3, 20), isometry(rng, "digit", 3, 3),
        isometry(rng, "cyclic", 7, 0), matrix_units(rng, 5, 4, None), matrix_units(rng, 7, 3, None),
    ]
    medium = [
        orbit_covariance(rng, 5, 100), digit_covariance(rng, 3, 5),
        index_covariance(rng, 3, 1, 150), intertwining(rng, 3, 4),
        matrix_units(rng, 7, 6, 40), isometry(rng, "orbit", 7, 100),
    ]
    large = [
        orbit_covariance(rng, 7, 300), digit_covariance(rng, 3, 6),
        index_covariance(rng, 3, 1, 300), intertwining(rng, 3, 6),
        matrix_units(rng, 7, 6, 60), isometry(rng, "orbit", 3, 300),
    ]
    # the small checks set op_p50_ms; three runs of each per round give each
    # three times the samples, spread over the round
    return small * 3 + medium + large


ROUNDS = {"verify": verify_round, "sweep": sweep_round, "operators": operators_round}
# the tracemalloc pass runs these in place of the round
MEMORY_ROUNDS = {"verify": verify_memory_round}
