import gc
import hashlib
import itertools
import json
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import functions, scalars, sc
from padicmult import (
    Cyc,
    Digits,
    ExactInt,
    LocallyConstantFn,
    NonNeg,
    TeichProduct,
    TruncatedOp,
    WinZ,
    Word,
    alpha_endo,
    build_cyclic_rep,
    build_digit_rep,
    build_hs_rep,
    build_orbit_rep,
    check_covariance,
    check_matrix_units,
    digit_expand,
    function_to_doc,
    intertwiner,
    kappa,
    multiplier_residue,
    orbit_decompose,
    pi0_symbol,
    present_product,
    shift_word,
    subgroup,
    symbol_product,
    symbol_vanishes,
    window_shift,
    word_from_key,
    word_key,
    word_value,
)
import padicmult.operators as operators
from padicmult.errors import (
    BasisMismatchError,
    CapExceededError,
    DomainError,
    InsufficientPrecisionError,
    NotAUnitError,
    ValuationMismatchError,
)
from padicmult.oracles import matrices_equal, matrix_adjoint
from padicmult.representations import BASIS_CACHE_LABELS
from padicmult.scalars import ONE, ZERO

A = (sc(10), sc(11), sc(12))


# -- orbit decompositions ----------------------------------------------------


def test_orbit_decompose_examples():
    dec = orbit_decompose(5, 7, 1715, precision=3)
    # 1715 = 5 * 7^3 and 7^3 = 343 = 93 mod 125, inside the subgroup
    assert (dec.case, dec.p_exponent, dec.coset_index) == ("I", 1, 0)
    assert dec.tail == 93
    assert dec.tail in subgroup(5, 3, 7).element_set

    pure_power = orbit_decompose(5, 7, 25, precision=3)
    assert (pure_power.p_exponent, pure_power.coset_index, pure_power.tail) == (2, 0, 1)

    off_coset = orbit_decompose(5, 7, 50, precision=3)
    assert off_coset.p_exponent == 2
    assert off_coset.coset_index != 0
    assert off_coset.section_value * off_coset.tail % 125 == 2

    # large quotients: decompose reads no table, so its size limit does not apply
    for r, precision in [(1 + 3**8, 9), (1 + 3**10, 11)]:
        dec = orbit_decompose(3, r, 5 * 3**4, precision=precision)
        assert (dec.case, dec.p_exponent, dec.section_value) == ("I", 4, 5)
        assert dec.recompose(r) % 3 ** (4 + precision) == 5 * 3**4


def test_orbit_decompose_case_two():
    dec = orbit_decompose(5, TeichProduct(2), 3, precision=4)
    assert dec.case == "II" and dec.k is not None
    assert dec.tail % 5 == 1
    assert dec.recompose(TeichProduct(2)) % 5**4 == 3


def test_a_case_two_decomposition_recomposes_with_a_multiplier_known_mod_p():
    # r = 3 + O(5) matches the root of unity teich(3); r^k is read on that root
    dec = orbit_decompose(5, Digits((3,)), 17, 4)
    assert (dec.case, dec.k) == ("II", 3)
    assert dec.recompose(Digits((3,))) == 17
    assert dec.recompose(TeichProduct(3)) == 17


def test_orbit_decompose_errors():
    with pytest.raises(DomainError):
        orbit_decompose(5, 7, 0)
    with pytest.raises(NotAUnitError):
        orbit_decompose(5, 10, 3)
    with pytest.raises(InsufficientPrecisionError):
        orbit_decompose(5, 7, 3, precision=2)  # threshold level is 3
    # refused before any quotient work
    with pytest.raises(InsufficientPrecisionError):
        orbit_decompose(3, 1 + 3**10, 5, precision=3)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(3, ExactInt(2)), (5, ExactInt(7)), (5, TeichProduct(2))]),
    st.integers(-4000, 4000).filter(bool),
)
def test_orbit_decompose_roundtrip(config, x):
    p, spec = config
    precision = 4
    dec = orbit_decompose(p, spec, x, precision=precision)
    modulus = p ** (dec.p_exponent + precision)
    assert dec.recompose(spec) % modulus == x % modulus
    if dec.case == "I":
        for level in range(1, precision + 1):
            assert dec.tail % p**level in subgroup(p, level, spec).element_set
    else:
        assert dec.tail % p == 1


def _closed_form_lift(p, i, precision):
    """The Teichmuller lift of i mod p^precision, as the limit i^(p^(precision-1))."""
    return pow(i, p ** (precision - 1), p**precision)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_case_two_decompositions_match_a_brute_force_oracle(p):
    roots = [(ExactInt(-1), lambda n: -1)] + [
        (TeichProduct(i, sign), lambda n, i=i, sign=sign: sign * _closed_form_lift(p, i, n))
        for i in range(2, p)
        for sign in (1, -1)
        if (i, sign) != (p - 1, -1)  # -teich(p-1) is 1, an excluded multiplier
    ]
    xs = [*range(1, p), -5, -p, 7 * p**2, 2 * p**3 + p + 1]
    for spec, lift in roots:
        powers = {pow(lift(1), k, p) for k in range(p)}
        # the cosets of <r mod p> in (Z/p)^x as sets, ordered by least element
        cosets = sorted({frozenset(a * h % p for h in powers) for a in range(1, p)}, key=min)
        for precision in range(1, 6):
            modulus, rho = p**precision, lift(precision)
            for x in xs:
                dec = orbit_decompose(p, spec, x, precision=precision)
                exponent = 0
                while x % p ** (exponent + 1) == 0:
                    exponent += 1
                unit = x // p**exponent % modulus
                assert dec.case == "II" and dec.p_exponent == exponent
                assert unit % p in cosets[dec.coset_index]
                assert dec.section_value == _closed_form_lift(p, min(cosets[dec.coset_index]), precision)
                omega = _closed_form_lift(p, unit, precision)
                assert pow(rho, dec.k, modulus) * dec.section_value % modulus == omega
                assert dec.tail % p == 1
                assert dec.recompose(spec) == x % p ** (exponent + precision)


def test_case_two_decompositions_are_bounded():
    # a Teichmuller section needs one known digit
    with pytest.raises(InsufficientPrecisionError, match="root-of-unity level 1"):
        orbit_decompose(3, -1, 15, precision=0)
    # 500001 cosets of {1, -1}; a walk over the 1000002 powers of teich(2)
    for r, message in [(-1, "500001 cosets"), (TeichProduct(2), "order 1000002")]:
        with pytest.raises(CapExceededError, match=message):
            orbit_decompose(1000003, r, 5, precision=2)


# -- window and cyclic representations ----------------------------------------


def test_orbit_rep_diagonal_example():
    f = LocallyConstantFn(3, 1, A)
    shift, diag = build_orbit_rep(3, 2, 1, f, window=2)
    diagonal = [diag.entries[(WinZ(k), WinZ(k))] for k in range(-2, 3)]
    assert diagonal == [A[1], A[2], A[1], A[2], A[1]]
    assert shift.apply(WinZ(2)) == {WinZ(3): ONE}
    assert shift.adjoint() @ shift == TruncatedOp.identity(shift.domain)


def test_orbit_rep_constant_function():
    c = LocallyConstantFn.constant(5, 9)
    _, diag = build_orbit_rep(5, 7, 1, c, window=3)
    assert diag == TruncatedOp.identity(diag.domain).scale(sc(9))


def test_orbit_rep_periodic_indicator():
    # f is the indicator of 7 mod 25; 7^k = 7, 24, 18, 1 cycles with period 4
    f = LocallyConstantFn.indicator(5, 2, 7)
    _, diag = build_orbit_rep(5, 7, 1, f, window=4)
    hits = [k for k in range(-4, 5) if diag.entries.get((WinZ(k), WinZ(k))) == ONE]
    assert hits == [-3, 1]


def test_orbit_rep_rejects_non_units():
    f = LocallyConstantFn.constant(5, 1)
    with pytest.raises(NotAUnitError):
        build_orbit_rep(5, 10, 1, f)
    with pytest.raises(DomainError):
        build_orbit_rep(5, 7, 0, f)


def test_cyclic_rep_example():
    f = LocallyConstantFn(5, 1, tuple(sc(j) for j in range(5)))
    shift, diag = build_cyclic_rep(5, TeichProduct(2), 1, f)
    diagonal = [diag.entries[(Cyc(k, 4), Cyc(k, 4))] for k in range(4)]
    assert diagonal == [sc(1), sc(2), sc(4), sc(3)]
    assert shift.power(4) == TruncatedOp.identity(shift.domain)
    identity = TruncatedOp.identity(shift.domain)
    assert shift @ shift.adjoint() == identity
    assert shift.adjoint() @ shift == identity


def test_cyclic_rep_needs_root_of_unity():
    f = LocallyConstantFn.constant(5, 1)
    with pytest.raises(DomainError):
        build_cyclic_rep(5, 7, 1, f)


# -- digit machinery -----------------------------------------------------------


def test_digit_expand_examples():
    assert digit_expand(3, 1, 6, 7, 8).word == Word((1, 1))
    assert digit_expand(3, 1, 6, 0, 8).word == Word((0,))
    assert digit_expand(3, 1, 6, 13, 8).word == Word((1, 2))


def test_digit_expand_truncation():
    expansion = digit_expand(3, 1, 6, 4, 4)
    assert not expansion.exact
    assert len(expansion.digits) == 4
    for n in range(1, 5):
        partial = sum(d * 6**i for i, d in enumerate(expansion.digits[:n]))
        assert partial % 3**n == 4 % 3**n
    with pytest.raises(DomainError):
        expansion.word


def test_digit_expand_validation():
    with pytest.raises(DomainError):
        digit_expand(3, 1, 6, -1, 4)
    with pytest.raises(ValuationMismatchError):
        digit_expand(3, 2, 6, 7, 4)


@given(st.integers(0, 3**6 - 1))
def test_word_key_round_trip(key):
    word = word_from_key(key, 3)
    assert word_key(word, 3) == key


def test_kappa_and_shift():
    assert kappa(Word((1, 2))) == 1
    assert kappa(Word((0,))) == 0
    assert shift_word(Word((1, 2))) == Word((0, 1, 2))
    assert kappa(shift_word(Word((1, 2)))) == kappa(Word((1, 2))) + 1
    assert shift_word(Word((0,))) == Word((0,))


def test_digit_bijection_exhaustive():
    for p, r, level in [(3, 6, 1), (5, 10, 1)]:
        s = p**level
        for n in (1, 2, 3):
            modulus = p ** (n * level)
            image = {
                sum(d * r**i for i, d in enumerate(word)) % modulus
                for word in itertools.product(range(s), repeat=n)
            }
            assert len(image) == modulus


def test_digit_rep_shift_and_diagonal():
    f = LocallyConstantFn(3, 1, A)
    shift, diag = build_digit_rep(3, 1, ExactInt(6), f, max_len=3)
    # multiplication by 6 sends 7 = (1,1) to 42 = (0,1,1)
    assert shift.apply(Word((1, 1))) == {Word((0, 1, 1)): ONE}
    assert shift.apply(Word((0,))) == {Word((0,)): ONE}
    assert shift.adjoint() @ shift == TruncatedOp.identity(shift.domain)
    # 13 = (1,2) and 13 = 1 mod 3
    assert diag.entries[(Word((1, 2)), Word((1, 2)))] == A[1]
    assert word_value(Word((1, 2)), 6) == 13


@pytest.mark.parametrize(
    "p, level, r, lengths",
    [
        (3, 1, -3 * 2, (1, 2, 3, 4)),
        (3, 1, 3 * 7, (1, 2, 3, 4)),
        (5, 1, -5 * 3, (1, 2, 3, 4)),
        (7, 1, 7 * 5, (1, 2, 3)),
        (3, 2, -9 * 2, (1, 2, 3, 4)),
        (3, 2, 9 * 4, (1, 2, 3)),
        (5, 2, -25 * 2, (1, 2)),
    ],
)
def test_digit_diagonal_is_f_of_each_word_value(p, level, r, lengths):
    rng = random.Random(p * 100 + level * 10 + (r > 0))
    for max_len in lengths:
        # f at level L reads the digits below p^L, so level * max_len reads them all
        for f_level in (0, 1, level * max_len):
            f = LocallyConstantFn(p, f_level, tuple(
                rng.choice((ZERO, ONE, sc(rng.randint(-5, 5), rng.randint(-1, 1))))
                for _ in range(p**f_level)
            ))
            _, diag = build_digit_rep(p, level, r, f, max_len)
            assert len(diag.domain) == (p**level) ** max_len
            want = {(w, w): f(word_value(w, r)) for w in diag.domain}
            assert diag.entries == {key: value for key, value in want.items() if value}


# root-of-unity multipliers of the cyclic orders 2-6; order 1 is r = 1, which
# every builder refuses
CYCLIC_CONFIGS = [
    (3, ExactInt(-1)), (7, TeichProduct(2)), (5, TeichProduct(2)),
    (11, TeichProduct(3)), (7, TeichProduct(3, -1)), (7, TeichProduct(3)),
]


@st.composite
def ball_functions(draw, p: int, max_level: int):
    """Functions whose ball values mix zero, one, and real and imaginary scalars."""
    level = draw(st.integers(0, max_level))
    value = st.one_of(st.just(ZERO), st.just(ONE), scalars())
    return LocallyConstantFn(p, level, tuple(draw(value) for _ in range(p**level)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_builder_diagonals_read_f_at_each_point(data):
    """Each builder's diagonal is f at the integer point of each basis index."""
    kind = data.draw(st.sampled_from(["orbit", "cyclic", "digit", "index"]))
    if kind in ("orbit", "cyclic"):
        orbit = kind == "orbit"
        configs = [(3, 2), (5, 7), (7, 3), (5, TeichProduct(2))] if orbit else CYCLIC_CONFIGS
        p, r = data.draw(st.sampled_from(configs))
        x = data.draw(st.integers(-200, 200).filter(bool))
        f = data.draw(ball_functions(p, 3))
        if orbit:
            _, diag = build_orbit_rep(p, r, x, f, window=data.draw(st.integers(0, 12)))
        else:
            _, diag = build_cyclic_rep(p, r, x, f)
        rho, modulus = multiplier_residue(r, p, f.level), p**f.level
        want = TruncatedOp.diagonal(diag.domain, lambda ix: f(pow(rho, ix.k, modulus) * x))
    elif kind == "digit":
        p, r = data.draw(st.sampled_from([(3, 6), (3, -3), (5, 10), (3, 21)]))
        max_len = data.draw(st.integers(1, 3))
        f = data.draw(ball_functions(p, max_len + 1))
        _, diag = build_digit_rep(p, 1, r, f, max_len)
        want = TruncatedOp.diagonal(diag.domain, lambda w: f(word_value(w, r)))
    else:
        p, level = data.draw(st.sampled_from([(3, 1), (5, 1), (3, 2)]))
        f = data.draw(ball_functions(p, 3))
        _, diag = build_hs_rep(p, level, f, cutoff=data.draw(st.integers(0, 40)))
        want = TruncatedOp.diagonal(diag.domain, lambda ix: f(ix.l))
    assert diag == want


def test_hs_rep_examples():
    f = LocallyConstantFn(3, 2, tuple(sc(j) for j in range(9)))
    shift, diag = build_hs_rep(3, 1, f, cutoff=10)
    assert shift.apply(NonNeg(1)) == {NonNeg(3): ONE}
    assert shift.apply(NonNeg(2)) == {NonNeg(6): ONE}
    assert shift.adjoint().apply(NonNeg(2)) == {}
    assert shift.adjoint() @ shift == TruncatedOp.identity(shift.domain)
    assert diag.entries[(NonNeg(7), NonNeg(7))] == sc(7)


def test_intertwiner_pairs():
    pairing = intertwiner(3, 1, 6, max_len=3)
    assert pairing.apply(NonNeg(7)) == {Word((1, 2)): ONE}
    assert pairing.apply(NonNeg(0)) == {Word((0,)): ONE}
    assert pairing.apply(NonNeg(4)) == {Word((1, 1)): ONE}
    identity = TruncatedOp.identity(pairing.domain)
    assert pairing.adjoint() @ pairing == identity


def test_intertwiner_conjugates_the_shift():
    p, r, level, max_len = 3, 6, 1, 3
    s = p**level
    pairing = intertwiner(p, level, r, max_len)
    pairing_up = intertwiner(p, level, r, max_len + 1)
    constant = LocallyConstantFn.constant(p, 1)
    index_shift, _ = build_hs_rep(p, level, constant, cutoff=s**max_len - 1)
    index_shift = index_shift.extended(
        codomain=tuple(NonNeg(l) for l in range(s ** (max_len + 1)))
    )
    word_shift, _ = build_digit_rep(p, level, ExactInt(r), constant, max_len)
    assert pairing_up @ index_shift == word_shift @ pairing


# -- symbols --------------------------------------------------------------------


def _fn(p, values):
    import math

    level = round(math.log(len(values), p)) if len(values) > 1 else 0
    return LocallyConstantFn(p, level, tuple(sc(v) for v in values))


def test_symbol_examples():
    vanishing = _fn(3, [0, 2, 5])
    assert pi0_symbol([(1, vanishing)]) == [(1, ZERO)]
    assert symbol_vanishes(pi0_symbol([(1, vanishing)]))

    unit = LocallyConstantFn.constant(3, 1)
    assert pi0_symbol([(0, unit)]) == [(0, ONE)]
    assert not symbol_vanishes(pi0_symbol([(0, unit)]))

    f = _fn(3, [3, 1, 1])
    g = _fn(3, [0, 4, 4])
    assert pi0_symbol([(2, f), (0, g)]) == [(0, ZERO), (2, sc(3))]


def test_symbol_folding():
    unit = LocallyConstantFn.constant(3, 1)
    folded = pi0_symbol([(5, unit), (1, unit)], modulus=4)
    assert folded == [(0, ZERO), (1, sc(2)), (2, ZERO), (3, ZERO)]


def test_symbol_duplicate_frequencies_combine():
    f = LocallyConstantFn.constant(3, 2)
    g = LocallyConstantFn.constant(3, -2)
    assert pi0_symbol([(1, f), (1, g)]) == [(1, ZERO)]


@settings(max_examples=40)
@given(st.data())
def test_symbol_of_product_is_product_of_symbols(data):
    p, spec = 3, ExactInt(2)
    left = [
        (data.draw(st.integers(-3, 3)), data.draw(functions(p)))
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    right = [
        (data.draw(st.integers(-3, 3)), data.draw(functions(p)))
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    product = present_product(left, right, p, spec)
    assert pi0_symbol(product) == symbol_product(pi0_symbol(left), pi0_symbol(right))


def test_products_read_a_one_shot_input_once():
    f = LocallyConstantFn(5, 1, tuple(sc(j + 1) for j in range(5)))
    a, b = [(1, f), (0, LocallyConstantFn.constant(5, 2))], [(2, f), (-1, f)]
    product = present_product(a, b, 5, ExactInt(2))
    assert len(product) == 4
    assert present_product(iter(a), iter(b), 5, ExactInt(2)) == product
    left, right = pi0_symbol(a), pi0_symbol(b)
    assert len(symbol_product(left, right)) == 4
    assert symbol_product(iter(left), iter(right)) == symbol_product(left, right)


def test_present_product_needs_a_unit():
    f = LocallyConstantFn.constant(3, 1)
    with pytest.raises(NotAUnitError):
        present_product([(0, f)], [(0, f)], 3, ExactInt(6))


# -- relation checks --------------------------------------------------------------


def test_covariance_examples():
    f = LocallyConstantFn(3, 1, A)
    shift, diag = build_orbit_rep(3, 2, 1, f, window=4)
    _, diag_alpha = build_orbit_rep(3, 2, 1, alpha_endo(f, ExactInt(2)), window=4)
    assert check_covariance(shift, diag, diag_alpha)

    word_shift, word_diag = build_digit_rep(3, 1, ExactInt(6), f, max_len=2)
    _, word_alpha = build_digit_rep(3, 1, ExactInt(6), alpha_endo(f, ExactInt(6)), max_len=2)
    assert check_covariance(word_shift, word_diag, word_alpha, interior=word_shift.domain)


def test_covariance_constant_function_interior_geometry():
    # with f constant, shift diag shift* = f(0) * (shift shift*), which matches the
    # constant diagonal exactly on the fixed points of the range projection
    c = LocallyConstantFn.constant(3, 4)
    shift, diag = build_orbit_rep(3, 2, 1, c, window=3)
    _, diag_alpha = build_orbit_rep(3, 2, 1, alpha_endo(c, ExactInt(2)), window=3)
    assert check_covariance(shift, diag, diag_alpha)
    fixed = set(shift.range_fixed_points())
    assert fixed == {WinZ(k) for k in range(-2, 5)}
    lhs = shift @ diag @ shift.adjoint()
    assert lhs.apply(WinZ(-3)) == {}  # lost edge: projection kills the bottom index
    assert diag_alpha.apply(WinZ(-3)) == {WinZ(-3): sc(4)}


def test_covariance_builds_one_adjoint(monkeypatch):
    """Without an interior, the range fixed points reuse the adjoint of the shift."""
    f = LocallyConstantFn(5, 1, tuple(sc(j) for j in range(5)))
    shift, diag = build_orbit_rep(5, 7, 1, f, window=8)
    _, diag_alpha = build_orbit_rep(5, 7, 1, alpha_endo(f, ExactInt(7)), window=8)
    calls = []
    adjoint = TruncatedOp.adjoint

    def counted(self):
        calls.append(self)
        return adjoint(self)

    monkeypatch.setattr(TruncatedOp, "adjoint", counted)
    assert check_covariance(shift, diag, diag_alpha)
    assert calls == [shift]


def test_covariance_detects_wrong_rhs():
    f = LocallyConstantFn(3, 1, A)
    shift, diag = build_orbit_rep(3, 2, 1, f, window=4)
    _, wrong = build_orbit_rep(3, 2, 1, f, window=4)  # not alpha of f
    assert not check_covariance(shift, diag, wrong)


def test_covariance_reads_a_one_shot_interior_once():
    f = LocallyConstantFn(5, 1, tuple(sc(j) for j in range(5)))
    shift, diag = build_digit_rep(5, 1, ExactInt(10), f, 2)
    _, diag_alpha = build_digit_rep(5, 1, ExactInt(10), alpha_endo(f, ExactInt(10)), 2)
    for interior in (shift.domain, iter(shift.domain)):
        assert check_covariance(shift, diag, diag_alpha, interior=interior)
    for interior in (shift.domain, iter(shift.domain)):
        assert not check_covariance(shift, diag, diag, interior=interior)  # not alpha of f


def test_covariance_validates_bases():
    f = LocallyConstantFn(3, 1, A)
    shift, diag = build_orbit_rep(3, 2, 1, f, window=4)
    small = diag.restricted(tuple(WinZ(k) for k in range(-2, 3)))
    with pytest.raises(BasisMismatchError):
        check_covariance(shift, small, diag)
    with pytest.raises(BasisMismatchError):
        check_covariance(shift, diag, diag, interior=(WinZ(99),))


def test_covariance_needs_diag_alpha_inside_the_shift_codomain():
    # the sides are compared on the shift's codomain, {-8..9} for window 8
    f = LocallyConstantFn(5, 1, tuple(sc(j) for j in range(5)))
    shift, diag = build_orbit_rep(5, 7, 1, f, window=8)
    _, wide_alpha = build_orbit_rep(5, 7, 1, alpha_endo(f, ExactInt(7)), window=10)
    with pytest.raises(BasisMismatchError, match="must contain the original bases"):
        check_covariance(shift, diag, wide_alpha)
    # an explicit interior index in the codomain but off diag_alpha's domain {-8..8}
    _, diag_alpha = build_orbit_rep(5, 7, 1, alpha_endo(f, ExactInt(7)), window=8)
    assert WinZ(9) in shift.codomain and WinZ(9) not in diag_alpha.domain
    with pytest.raises(BasisMismatchError):
        check_covariance(shift, diag, diag_alpha, interior=(WinZ(9),))
    assert check_covariance(shift, diag, diag_alpha, interior=diag_alpha.domain[1:])


def test_block_family_realizes_the_full_representation():
    # the faithful picture is block diagonal over (power of p, coset); each
    # block is the orbit representation at x = p^L * section(j)
    from padicmult import quotient_group

    f = LocallyConstantFn(5, 2, tuple(sc(j % 7) for j in range(25)))
    alpha_f = alpha_endo(f, ExactInt(7))
    quotient = quotient_group(5, 7)
    for p_exponent in (0, 1, 2):
        for index in range(quotient.order):
            x = 5**p_exponent * quotient.section(index)
            shift, diag = build_orbit_rep(5, 7, x, f, window=5)
            _, diag_alpha = build_orbit_rep(5, 7, x, alpha_f, window=5)
            assert check_covariance(shift, diag, diag_alpha)


def test_matrix_units():
    assert check_matrix_units(5, TeichProduct(2))
    assert check_matrix_units(7, TeichProduct(3))
    with pytest.raises(DomainError):
        check_matrix_units(5, 7)
    with pytest.raises(DomainError):
        check_matrix_units(5, TeichProduct(2), window=3)


def test_matrix_units_fail_on_a_stray_shift_entry(monkeypatch):
    import padicmult.representations as representations

    exact = representations.window_shift

    def stray(window):
        v = exact(window)
        return TruncatedOp.build(v.domain, v.codomain, {**v.entries, (WinZ(0), WinZ(0)): ONE})

    monkeypatch.setattr(representations, "window_shift", stray)
    assert not check_matrix_units(5, TeichProduct(2))
    assert not check_matrix_units(7, TeichProduct(3))


def test_sections_of_one_size_share_their_bases():
    f = LocallyConstantFn.constant(3, 1)
    g = LocallyConstantFn.constant(5, 2)
    orbit, diag = build_orbit_rep(3, 2, 1, f, window=5)
    other, _ = build_orbit_rep(5, 7, 4, g, window=5)
    assert orbit.domain is other.domain is diag.domain is window_shift(5).domain
    assert orbit.codomain is other.codomain
    index, index_diag = build_hs_rep(3, 1, f, cutoff=8)
    assert index.domain is build_hs_rep(3, 2, f, cutoff=8)[0].domain is index_diag.domain
    words, words_diag = build_digit_rep(3, 1, ExactInt(6), f, max_len=2)
    pairing = intertwiner(3, 1, 6, max_len=2)
    assert words.domain is pairing.codomain is words_diag.domain
    assert pairing.domain is build_hs_rep(3, 1, f, cutoff=8)[0].domain
    assert words.codomain is intertwiner(3, 1, -3, max_len=3).codomain
    cyclic, _ = build_cyclic_rep(5, TeichProduct(2), 1, g)
    assert cyclic.domain is cyclic.codomain is build_cyclic_rep(5, TeichProduct(3), 2, g)[0].domain
    for op in (orbit, index, words, pairing, cyclic):
        for basis in (op.domain, op.codomain):
            assert type(basis) is operators._Basis and basis == tuple(basis)


def test_large_bases_are_not_kept_after_their_operators():
    f = LocallyConstantFn.constant(3, 1)
    build_orbit_rep(3, 2, 1, f, window=8)  # warm the small caches
    gc.collect()
    # every basis below has more labels than are cached (3^8 = 6,561 words)
    size = BASIS_CACHE_LABELS
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        ops = [
            *build_orbit_rep(3, 2, 1, f, window=size // 2),
            *build_digit_rep(3, 1, ExactInt(6), f, max_len=8),
            *build_hs_rep(3, 1, f, cutoff=size),
        ]
        built = tracemalloc.get_traced_memory()[0] - baseline
        assert built > 2_000_000
        del ops
        gc.collect()
        assert tracemalloc.get_traced_memory()[0] - baseline < 100_000
    finally:
        tracemalloc.stop()


def test_each_shift_shape_is_built_once():
    f = LocallyConstantFn.constant(3, 1)
    g = LocallyConstantFn(5, 1, tuple(sc(j) for j in range(5)))
    # the shift depends on the shape alone, not on the function, the point or the multiplier
    assert build_orbit_rep(3, 2, 1, f, window=6)[0] is build_orbit_rep(5, 7, 4, g, window=6)[0]
    assert (
        build_cyclic_rep(5, TeichProduct(2), 1, g)[0]
        is build_cyclic_rep(5, TeichProduct(3), 2, LocallyConstantFn.constant(5, 1))[0]
    )
    assert (
        build_digit_rep(3, 1, ExactInt(6), f, max_len=2)[0]
        is build_digit_rep(3, 1, ExactInt(-3), f, max_len=2)[0]
    )
    assert build_hs_rep(3, 1, f, cutoff=8)[0] is build_hs_rep(3, 1, f, cutoff=8)[0]
    assert build_hs_rep(3, 2, f, cutoff=8)[0] is not build_hs_rep(3, 1, f, cutoff=8)[0]
    # a shape whose codomain is above the gate is built on each call
    big = BASIS_CACHE_LABELS // 2
    first = build_orbit_rep(3, 2, 1, f, window=big)[0]
    second = build_orbit_rep(3, 2, 1, f, window=big)[0]
    assert first is not second and first == second


def test_a_shared_shift_still_validates_every_call():
    f = LocallyConstantFn.constant(3, 1)
    build_orbit_rep(3, 2, 1, f, window=4)
    with pytest.raises(DomainError):
        build_orbit_rep(3, 2, 0, f, window=4)
    with pytest.raises(NotAUnitError):
        build_orbit_rep(3, 3, 1, f, window=4)
    with pytest.raises(BasisMismatchError):
        build_orbit_rep(3, 2, 1, LocallyConstantFn.constant(5, 1), window=4)
    build_digit_rep(3, 1, ExactInt(6), f, max_len=2)
    with pytest.raises(ValuationMismatchError):
        build_digit_rep(3, 2, ExactInt(6), f, max_len=2)
    with pytest.raises(BasisMismatchError):
        build_digit_rep(3, 1, ExactInt(6), LocallyConstantFn.constant(5, 1), max_len=2)
    build_hs_rep(3, 1, f, cutoff=8)
    with pytest.raises(BasisMismatchError):
        build_hs_rep(3, 1, LocallyConstantFn.constant(5, 1), cutoff=8)
    with pytest.raises(DomainError):
        build_cyclic_rep(3, 2, 1, f)


def test_a_float_size_gets_the_same_answer_on_a_cold_and_a_warm_cache():
    # a float size is not an int one: it raises before its int shape is kept and after
    f = LocallyConstantFn.constant(3, 1)
    builders = [
        (lambda window: build_orbit_rep(3, 2, 1, f, window=window), 8),
        (window_shift, 8),
        (lambda max_len: intertwiner(3, 1, 3, max_len), 2),
        (lambda max_len: build_digit_rep(3, 1, 3, f, max_len), 3),
    ]
    for build, size in builders:
        with pytest.raises(TypeError):
            build(float(size))
        build(size)
        with pytest.raises(TypeError):
            build(float(size))


def test_every_kept_shape_reads_its_own_cache():
    import padicmult.representations as representations

    shapes = {
        "_window": (-3, 3),
        "_non_negative": (7,),
        "_words": (3, 2),
        "_window_section": (3,),
        "_cycle": (4,),
        "_digit_section": (3, 2),
        "_index_section": (3, 4),
    }
    for name, args in shapes.items():
        build = getattr(representations, name)
        build(*args)
        hits = build.cache_info().hits
        assert build(*args) is build(*args)
        assert build.cache_info().hits == hits + 2
        # the bare builder builds afresh and leaves the cache as it was
        info = build.cache_info()
        assert build.__wrapped__(*args) is not build(*args)
        assert build.cache_info() == info._replace(hits=info.hits + 1)


def shift_sections():
    f = LocallyConstantFn.constant(5, 1)
    return [
        build_orbit_rep(5, 7, 1, f, window=5)[0],
        build_cyclic_rep(5, TeichProduct(2), 1, f)[0],
        build_digit_rep(5, 1, ExactInt(10), f, max_len=2)[0],
        build_hs_rep(5, 1, f, cutoff=7)[0],
        window_shift(4),
        intertwiner(5, 1, 10, max_len=2),
    ]


def test_adjoint_and_range_projection_are_kept_with_the_operator():
    general = TruncatedOp.build(
        (NonNeg(0), NonNeg(1)), (NonNeg(0), NonNeg(1), NonNeg(2)),
        {(NonNeg(1), NonNeg(0)): sc(1, 2), (NonNeg(2), NonNeg(1)): 1, (NonNeg(0), NonNeg(1)): 3},
    )
    for shift in (*shift_sections(), general):
        adjoint = shift.adjoint()
        assert shift.adjoint() is adjoint
        assert matrices_equal(dict(adjoint.entries), matrix_adjoint(dict(shift.entries)))
        fixed = shift.range_fixed_points()
        assert shift.range_fixed_points() is fixed
        assert fixed == (shift @ shift.adjoint())._identity_columns()


@pytest.mark.parametrize("how", range(pickle.HIGHEST_PROTOCOL + 1))
def test_a_shared_shift_pickles_after_its_adjoint_was_read(how):
    for shift in shift_sections():
        shift.adjoint(), shift.range_fixed_points(), shift.entries
        twin = pickle.loads(pickle.dumps(shift, how))
        assert twin == shift and twin is not shift
        assert twin.adjoint() == shift.adjoint()
        assert twin.range_fixed_points() == shift.range_fixed_points()


def test_a_shared_shift_keeps_only_its_row_map_adjoint_and_range_projection():
    f = LocallyConstantFn(3, 1, A)
    shift, _ = build_orbit_rep(3, 2, 1, f, window=5)
    general = TruncatedOp(shift.domain, shift.codomain, dict(shift.entries))
    shift.apply(WinZ(0)), shift.entries, shift.to_doc(), shift.adjoint().entries
    shift.range_fixed_points(), shift + shift, shift.scale(2)
    assert shift == general and general == shift
    kept = {"domain", "codomain", "_rows", "_weights", "_adjoint", "_range_fixed_points"}
    assert vars(shift).keys() == kept
    assert not {"_cols", "entries"} & vars(shift.adjoint()).keys()


def test_covariance_with_a_shift_from_the_constructor():
    f = LocallyConstantFn(3, 1, A)
    section, diag = build_orbit_rep(3, 2, 1, f, window=4)
    _, diag_alpha = build_orbit_rep(3, 2, 1, alpha_endo(f, ExactInt(2)), window=4)
    general = TruncatedOp(section.domain, section.codomain, dict(section.entries))
    assert general._rows is None and general == section
    assert check_covariance(general, diag, diag_alpha)
    assert general.range_fixed_points() == section.range_fixed_points()
    _, wrong = build_orbit_rep(3, 2, 1, f, window=4)
    assert not check_covariance(general, diag, wrong)


def test_window_shift_edges():
    v = window_shift(2)
    assert v.apply(WinZ(1)) == {WinZ(2): ONE}
    assert v.apply(WinZ(2)) == {}


# -- the builders' answers, pinned ------------------------------------------------


def _seeded_fn(rng, p, level):
    values = tuple(sc(rng.randint(-3, 3), rng.choice([0, rng.randint(-2, 2)])) for _ in range(p**level))
    return LocallyConstantFn(p, level, values)


def _builder_docs():
    """The documents of every builder over a fixed grid of primes, multipliers,
    points, sizes and seeded functions of levels 0-2."""
    rng = random.Random(15)
    fns = {p: [_seeded_fn(rng, p, level) for level in range(3)] for p in (3, 5, 7)}
    for p, f in ((p, f) for p in fns for f in fns[p]):
        for r in (2, -1, p + 1, -(p + 2)):
            for x in (1, -4, 3 * p):
                for window in (0, 1, 5):
                    yield [op.to_doc() for op in build_orbit_rep(p, r, x, f, window=window)]
            a = [(0, f), (1, fns[p][0]), (-2, fns[p][2])]
            b = [(2, fns[p][1]), (1, f)]
            yield [[n, function_to_doc(g)] for n, g in present_product(a, b, p, r)]
        for i in range(2, p):
            for sign in (1, -1):
                if (i, sign) != (p - 1, -1):  # -teich(p-1) is 1
                    for x in (1, -4, 3 * p):
                        yield [op.to_doc() for op in build_cyclic_rep(p, TeichProduct(i, sign), x, f)]
        for level in (1, 2):
            for cutoff in range(13):
                yield [op.to_doc() for op in build_hs_rep(p, level, f, cutoff)]
    digit_configs = [
        (3, 1, 6), (3, 1, -3), (3, 1, Digits((0, 2, 1))), (5, 1, 10), (7, 1, -7),
        (3, 2, 18), (3, 2, -9),
    ]
    for p, level, r in digit_configs:
        for max_len in (1, 2, 3):
            for f in fns[p]:
                yield [op.to_doc() for op in build_digit_rep(p, level, r, f, max_len)]
            yield intertwiner(p, level, r, max_len).to_doc()
    for window in range(6):
        yield window_shift(window).to_doc()


# sha256 of json.dumps(list(_builder_docs()), sort_keys=True)
BUILDER_DOCS = "e5f9ddf2550caa500f79fa0fa2aa9e1649c4c564a32658f2aa5fff5965bcfa4e"


def test_builder_documents_are_pinned():
    text = json.dumps(list(_builder_docs()), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == BUILDER_DOCS
