"""Every input check of the library raises its own error class and code."""

import json
from fractions import Fraction

import pytest

from padicmult import (
    CaseI,
    CaseII,
    CaseIII,
    Digits,
    Free,
    KGroupDescriptor,
    LocallyConstantFn,
    NonNeg,
    PadicApprox,
    SupernaturalNumber,
    TeichProduct,
    TruncatedOp,
    algebra_k_groups,
    alpha_endo,
    as_prime,
    beta_endo,
    build_cyclic_rep,
    build_digit_rep,
    build_hs_rep,
    build_orbit_rep,
    canonical_words,
    check_matrix_units,
    classify,
    digit_expand,
    divide_step,
    find_nr,
    find_primitive_root,
    function_from_doc,
    group_size,
    ideal_k_groups,
    intertwiner,
    is_in_subgroup,
    multiplier_residue,
    multiplier_valuation,
    orbit_decompose,
    pi0_symbol,
    present_product,
    primed_algebra_k_groups,
    quotient_group,
    subgroup,
    supernatural_from_unit_order,
    supernatural_order,
    teichmuller,
    unit_groups,
    unit_order,
    unit_order_naive,
    valuation,
    window_shift,
    word_from_key,
)
from padicmult.cli import main
from padicmult.errors import (
    BasisMismatchError,
    CapExceededError,
    DomainError,
    ExcludedMultiplierError,
    InsufficientPrecisionError,
    NotAUnitError,
    NotPrimeError,
    ParseError,
    ValuationMismatchError,
    ZeroValuationError,
)

CONSTANT_3 = LocallyConstantFn.constant(3, 1)

# (call, error class, code, a fragment of the message that names the check)
CHECKS = {
    "padic/rational-residue-precision": (
        lambda: PadicApprox.from_int(3, -1, 2),
        InsufficientPrecisionError, "insufficient-precision", "non-negative",
    ),
    "padic/rational-residue-denominator": (
        lambda: PadicApprox.from_int(3, 2, Fraction(1, 3)),
        NotAUnitError, "not-a-unit", "not a p-adic integer",
    ),
    "padic/divide-step-denominator": (
        lambda: divide_step(3, 1, 3, Fraction(1, 3)),
        NotAUnitError, "not-a-unit", "not a p-adic integer",
    ),
    "padic/approx-precision": (
        lambda: PadicApprox(3, 0, 0),
        InsufficientPrecisionError, "insufficient-precision", "at least 1",
    ),
    "padic/approx-residue-range": (
        lambda: PadicApprox(3, 1, 3),
        ParseError, "parse-error", "out of range",
    ),
    "padic/teich-sign": (
        lambda: TeichProduct(2, 2),
        ParseError, "parse-error", "sign",
    ),
    "padic/teich-index": (
        lambda: TeichProduct(1),
        ExcludedMultiplierError, "excluded-multiplier", "at least 2",
    ),
    "padic/digits-empty": (
        lambda: Digits(()),
        ParseError, "parse-error", "non-empty",
    ),
    "padic/digits-negative": (
        lambda: Digits((1, -1)),
        ParseError, "parse-error", "non-empty",
    ),
    "functions/level": (
        lambda: LocallyConstantFn(3, -1, ()),
        ParseError, "parse-error", "non-negative",
    ),
    "functions/indicator-level": (
        lambda: LocallyConstantFn.indicator(3, -1, 0),
        ParseError, "parse-error", "non-negative",
    ),
    "functions/call-prime": (
        lambda: CONSTANT_3(PadicApprox(5, 1, 1)),
        ParseError, "parse-error", "evaluation",
    ),
    "functions/refined-lowers": (
        lambda: LocallyConstantFn(3, 1, (0, 1, 2)).refined(0),
        InsufficientPrecisionError, "insufficient-precision", "lower the level",
    ),
    "functions/arithmetic-prime": (
        lambda: CONSTANT_3 + LocallyConstantFn.constant(5, 1),
        ParseError, "parse-error", "arithmetic",
    ),
    "representations/orbit-function-prime": (
        lambda: build_orbit_rep(3, 2, 1, LocallyConstantFn.constant(5, 1), window=2),
        BasisMismatchError, "basis-mismatch", "function prime",
    ),
    # every builder that reads a function refuses one over another prime
    "representations/orbit-rep-function-over-3": (
        lambda: build_orbit_rep(5, 7, 1, CONSTANT_3, window=2),
        BasisMismatchError, "basis-mismatch", "function prime",
    ),
    "representations/cyclic-rep-function-over-3": (
        lambda: build_cyclic_rep(5, TeichProduct(2), 1, CONSTANT_3),
        BasisMismatchError, "basis-mismatch", "function prime",
    ),
    "representations/digit-rep-function-over-3": (
        lambda: build_digit_rep(5, 1, 10, CONSTANT_3, 2),
        BasisMismatchError, "basis-mismatch", "function prime",
    ),
    "representations/hs-rep-function-over-3": (
        lambda: build_hs_rep(5, 1, CONSTANT_3, 4),
        BasisMismatchError, "basis-mismatch", "function prime",
    ),
    "representations/product-function-over-3": (
        lambda: present_product([(1, CONSTANT_3)], [(1, CONSTANT_3)], 5, 7),
        BasisMismatchError, "basis-mismatch", "function prime",
    ),
    # the right-hand functions are checked too, with or without left-hand terms
    "representations/product-right-function-over-3": (
        lambda: present_product([(1, LocallyConstantFn.constant(5, 1))], [(1, CONSTANT_3)], 5, 7),
        BasisMismatchError, "basis-mismatch", "function prime",
    ),
    "representations/product-right-function-over-3-alone": (
        lambda: present_product([], [(1, CONSTANT_3)], 5, 7),
        BasisMismatchError, "basis-mismatch", "function prime",
    ),
    "representations/digit-expand-length": (
        lambda: digit_expand(3, 1, 6, 5, 0),
        DomainError, "domain-error", "max_len",
    ),
    # x = 0 takes a division step too, so its (level, r) is checked as for any x
    "representations/digit-expand-zero-valuation": (
        lambda: digit_expand(3, 2, 3, 0, 3),
        ValuationMismatchError, "valuation-mismatch", "valuation mismatch",
    ),
    "representations/digit-expand-zero-unit": (
        lambda: digit_expand(3, 1, 2, 0, 3),
        ValuationMismatchError, "valuation-mismatch", "valuation mismatch",
    ),
    "representations/digit-expand-zero-zero": (
        lambda: digit_expand(3, 1, 0, 0, 3),
        ZeroValuationError, "zero-valuation", "infinite valuation",
    ),
    # sizes: every word basis has a word of length 1, and no window or cutoff is negative
    "representations/digit-rep-length": (
        lambda: build_digit_rep(3, 1, 6, CONSTANT_3, -1),
        DomainError, "domain-error", "max_len must be at least 1",
    ),
    "representations/digit-rep-length-zero": (
        lambda: build_digit_rep(3, 1, 6, CONSTANT_3, 0),
        DomainError, "domain-error", "max_len must be at least 1",
    ),
    "representations/intertwiner-length": (
        lambda: intertwiner(3, 1, 6, -1),
        DomainError, "domain-error", "max_len must be at least 1",
    ),
    "representations/canonical-words-length": (
        lambda: canonical_words(3, -1),
        DomainError, "domain-error", "max_len must be at least 1",
    ),
    "representations/hs-rep-cutoff": (
        lambda: build_hs_rep(3, 1, CONSTANT_3, -5),
        DomainError, "domain-error", "cutoff must be non-negative",
    ),
    "representations/orbit-rep-window": (
        lambda: build_orbit_rep(3, 2, 1, CONSTANT_3, window=-1),
        DomainError, "domain-error", "window must be non-negative",
    ),
    "representations/window-shift-window": (
        lambda: window_shift(-1),
        DomainError, "domain-error", "window must be non-negative",
    ),
    # a word's key is its digits read in base s: no negative key, no base below 2
    "representations/word-key-negative": (
        lambda: word_from_key(-1, 3),
        DomainError, "domain-error", "key -1",
    ),
    "representations/word-base-one": (
        lambda: word_from_key(5, 1),
        DomainError, "domain-error", "base-1",
    ),
    "representations/word-base-zero": (
        lambda: word_from_key(5, 0),
        DomainError, "domain-error", "base-0",
    ),
    # not even the zero word has a base below 1, and no word basis is empty
    "representations/zero-word-base-zero": (
        lambda: word_from_key(0, 0),
        DomainError, "domain-error", "base-0",
    ),
    "representations/zero-word-negative-base": (
        lambda: word_from_key(0, -5),
        DomainError, "domain-error", "base--5",
    ),
    "representations/canonical-words-base-zero": (
        lambda: canonical_words(0, 2),
        DomainError, "domain-error", "word base must be at least 1",
    ),
    "representations/canonical-words-negative-base": (
        lambda: canonical_words(-3, 1),
        DomainError, "domain-error", "word base must be at least 1",
    ),
    "representations/digit-rep-valuation": (
        lambda: build_digit_rep(3, 1, 2, CONSTANT_3, 2),
        ValuationMismatchError, "valuation-mismatch", "valuation mismatch",
    ),
    "representations/hs-rep-level": (
        lambda: build_hs_rep(3, 0, CONSTANT_3, 4),
        ValuationMismatchError, "valuation-mismatch", "base exponent",
    ),
    "representations/intertwiner-valuation": (
        lambda: intertwiner(3, 1, 2, 2),
        ValuationMismatchError, "valuation-mismatch", "valuation mismatch",
    ),
    "representations/symbol-modulus": (
        lambda: pi0_symbol([], modulus=0),
        DomainError, "domain-error", "modulus",
    ),
    "unit_groups/order-level": (
        lambda: unit_order(3, 0, 2),
        InsufficientPrecisionError, "insufficient-precision", "level",
    ),
    "unit_groups/group-size-level": (
        lambda: group_size(3, 0),
        InsufficientPrecisionError, "insufficient-precision", "level must be at least 1",
    ),
    # |U_2| for 9^2 = 81 is 54, not the 72 that the formula gives at p = 9
    "unit_groups/group-size-composite": (
        lambda: group_size(9, 2),
        NotPrimeError, "not-an-odd-prime", "odd prime",
    ),
    "unit_groups/group-size-one": (
        lambda: group_size(1, 3),
        NotPrimeError, "not-an-odd-prime", "odd prime",
    ),
    "unit_groups/primitive-root-level": (
        lambda: find_primitive_root(3, 0),
        InsufficientPrecisionError, "insufficient-precision", "level must be at least 1",
    ),
    "unit_groups/primitive-root-negative-level": (
        lambda: find_primitive_root(3, -2),
        InsufficientPrecisionError, "insufficient-precision", "level must be at least 1",
    ),
    "unit_groups/threshold-of-non-unit": (
        lambda: find_nr(5, 10),
        NotAUnitError, "not-a-unit", "not a unit",
    ),
    "unit_groups/coset-of-non-unit": (
        lambda: quotient_group(5, 7).coset_index(10),
        NotAUnitError, "not-a-unit", "not a unit",
    ),
    # quotient_group(5, 7) has 5 cosets: no index from the end, none past the last
    "unit_groups/section-negative-index": (
        lambda: quotient_group(5, 7).section(-1),
        DomainError, "domain-error", "coset index -1 is outside 0..4",
    ),
    "unit_groups/section-past-the-last": (
        lambda: quotient_group(5, 7).section(5),
        DomainError, "domain-error", "coset index 5 is outside 0..4",
    ),
    # the order is 1,000,008,000,021,000,018: refused before anything is listed
    "unit_groups/subgroup-listing": (
        lambda: subgroup(1000003, 3, 2).elements,
        CapExceededError, "cap-exceeded", "listing limit",
    ),
    "classification/denominator": (
        lambda: SupernaturalNumber.of({3: 1}).admits_denominator(0),
        DomainError, "domain-error", "denominator",
    ),
    "ktheory/free-rank": (
        lambda: KGroupDescriptor([Free(-1)]),
        DomainError, "domain-error", "free rank",
    ),
    "operators/negative-power": (
        lambda: TruncatedOp.identity((NonNeg(0),)).power(-1),
        ParseError, "parse-error", "negative powers",
    ),
}


@pytest.mark.parametrize("call, error, code, message", CHECKS.values(), ids=list(CHECKS))
def test_input_check_raises_its_error(call, error, code, message):
    with pytest.raises(error, match=message) as info:
        call()
    assert type(info.value) is error and info.value.code == code


# an 81-digit prime with p - 1 = 2 * Q1 * Q2, both factors prime, too hard to
# factor in a test's time; the threshold reads no factoring, so it answers
P81 = 144000000000000000000000000000000000262882000000000000000000000000000000002646919
Q1, Q2 = 8000000000000000000000000000000000000081, 9000000000000000000000000000000000016339


def test_the_threshold_answers_for_a_prime_whose_p_minus_1_is_not_factored(monkeypatch, capsys):
    assert P81 - 1 == 2 * Q1 * Q2

    def refuse(p):
        raise AssertionError(f"{p} - 1 was factored")

    monkeypatch.setattr(unit_groups, "_order_primes", refuse)
    assert find_nr(P81, 2) == 2
    assert main(["nr", "-p", str(P81), "-r", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["threshold"] == 2


@pytest.mark.parametrize(
    "command",
    [["order", "-N", "1"], ["classify"], ["quotient"], ["snumber"], ["ktheory"], ["decompose", "-x", "5"]],
)
def test_a_p_minus_1_not_factored_within_the_bound_is_refused(command, capsys):
    # p - 1 = 2 * Q1 * Q2 keeps the composite Q1 * Q2 past trial division, so every
    # command that needs the order of r mod p refuses rather than factoring on
    assert main([command[0], "-p", str(P81), "-r", "2", *command[1:], "--json"]) == 3
    assert json.loads(capsys.readouterr().out)["code"] == "cap-exceeded"


def test_trial_division_answers_a_prime_factor_above_the_bound(capsys):
    # 1000000006 = 2 * 500000003: the factor above the bound is prime, so it is kept
    assert unit_groups.TRIAL_DIVISION_BOUND < 500000003
    assert main(["order", "-p", "1000000007", "-r", "3", "-N", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == 500000003


# --- every public entry checks its p and its multiplier ----------------------------

# each call takes p = 9 and otherwise valid inputs, a function over 3 where one is
# read; the x = 0 and K-group rows are paths where no callee would check p
COMPOSITE_P = {
    "as_prime": lambda p: as_prime(p),
    "valuation": lambda p: valuation(p, 5),
    "teichmuller": lambda p: teichmuller(p, 2, 3),
    "divide_step": lambda p: divide_step(p, 1, p, 5),
    "multiplier_residue": lambda p: multiplier_residue(2, p, 2),
    "multiplier_valuation": lambda p: multiplier_valuation(2, p),
    "PadicApprox": lambda p: PadicApprox(p, 1, 2),
    "PadicApprox.from_int": lambda p: PadicApprox.from_int(p, 1, 2),
    "LocallyConstantFn": lambda p: LocallyConstantFn(p, 0, (1,)),
    "LocallyConstantFn.constant": lambda p: LocallyConstantFn.constant(p, 1),
    "LocallyConstantFn.indicator": lambda p: LocallyConstantFn.indicator(p, 1, 2),
    "function_from_doc": lambda p: function_from_doc({"p": p, "level": 0, "values": ["1/1"]}),
    "group_size": lambda p: group_size(p, 2),
    "unit_order": lambda p: unit_order(p, 2, 2),
    "unit_order_naive": lambda p: unit_order_naive(p, 2, 2),
    "find_primitive_root": lambda p: find_primitive_root(p, 2),
    "find_nr": lambda p: find_nr(p, 2),
    "subgroup": lambda p: subgroup(p, 2, 2),
    "is_in_subgroup": lambda p: is_in_subgroup(p, 2, 2, 4),
    "quotient_group": lambda p: quotient_group(p, 2),
    "classify": lambda p: classify(p, 2),
    "supernatural_from_unit_order": lambda p: supernatural_from_unit_order(6, p),
    "supernatural_order": lambda p: supernatural_order(p, 2),
    "algebra_k_groups-I": lambda p: algebra_k_groups(CaseI(2, 6), p),
    "algebra_k_groups-II": lambda p: algebra_k_groups(CaseII(2), p),
    "algebra_k_groups-III": lambda p: algebra_k_groups(CaseIII(1, 1, 6), p),
    "primed_algebra_k_groups": lambda p: primed_algebra_k_groups(CaseII(2), p),
    "ideal_k_groups": lambda p: ideal_k_groups(CaseII(2), p),
    "orbit_decompose": lambda p: orbit_decompose(p, 2, 5),
    "orbit_decompose-zero": lambda p: orbit_decompose(p, 2, 0),
    "digit_expand": lambda p: digit_expand(p, 1, p, 5, 3),
    "digit_expand-zero": lambda p: digit_expand(p, 1, p, 0, 3),
    "build_orbit_rep": lambda p: build_orbit_rep(p, 2, 1, CONSTANT_3),
    "build_cyclic_rep": lambda p: build_cyclic_rep(p, -1, 1, CONSTANT_3),
    "build_digit_rep": lambda p: build_digit_rep(p, 1, p, CONSTANT_3, 2),
    "build_hs_rep": lambda p: build_hs_rep(p, 1, CONSTANT_3, 4),
    "intertwiner": lambda p: intertwiner(p, 1, p, 2),
    "present_product": lambda p: present_product([], [], p, 2),
    "check_matrix_units": lambda p: check_matrix_units(p, -1),
}


@pytest.mark.parametrize("call", COMPOSITE_P.values(), ids=list(COMPOSITE_P))
def test_every_entry_refuses_a_composite_p(call):
    with pytest.raises(NotPrimeError, match="odd prime") as info:
        call(9)
    assert info.value.code == "not-an-odd-prime"


CONSTANT_5 = LocallyConstantFn.constant(5, 1)

# each call takes a multiplier r over p = 5 and otherwise valid inputs
MULTIPLIER_ENTRIES = {
    "multiplier_residue": lambda r: multiplier_residue(r, 5, 1),
    "multiplier_valuation": lambda r: multiplier_valuation(r, 5),
    "alpha_endo": lambda r: alpha_endo(CONSTANT_5, r),
    "beta_endo": lambda r: beta_endo(CONSTANT_5, r),
    "find_nr": lambda r: find_nr(5, r),
    "quotient_group": lambda r: quotient_group(5, r),
    "classify": lambda r: classify(5, r),
    "supernatural_order": lambda r: supernatural_order(5, r),
    "orbit_decompose": lambda r: orbit_decompose(5, r, 3),
    "recompose-I": lambda r: orbit_decompose(5, 7, 3, precision=4).recompose(r),
    "recompose-II": lambda r: orbit_decompose(5, TeichProduct(2), 3, precision=4).recompose(r),
    "build_orbit_rep": lambda r: build_orbit_rep(5, r, 1, CONSTANT_5),
    "build_cyclic_rep": lambda r: build_cyclic_rep(5, r, 1, CONSTANT_5),
    "build_digit_rep": lambda r: build_digit_rep(5, 1, r, CONSTANT_5, 2),
    "intertwiner": lambda r: intertwiner(5, 1, r, 2),
    "present_product": lambda r: present_product([], [], 5, r),
    "check_matrix_units": lambda r: check_matrix_units(5, r),
}

# the unit-group primitives read a plain int as a residue (1 allowed), so only
# the spec forms are multipliers there
RESIDUE_ENTRIES = {
    "unit_order": lambda r: unit_order(5, 2, r),
    "unit_order_naive": lambda r: unit_order_naive(5, 2, r),
    "subgroup": lambda r: subgroup(5, 2, r),
    "is_in_subgroup": lambda r: is_in_subgroup(5, 2, r, 2),
}

EXCLUDED = {"0": 0, "1": 1, "-teich(4)": TeichProduct(4, -1), "digits:[1]": Digits((1,))}

REFUSED_MULTIPLIERS = [
    pytest.param(call, EXCLUDED[text], ExcludedMultiplierError, id=f"{name}-{text}")
    for entries, forms in ((MULTIPLIER_ENTRIES, EXCLUDED), (RESIDUE_ENTRIES, ("-teich(4)", "digits:[1]")))
    for name, call in entries.items()
    for text in forms
] + [
    pytest.param(call, Digits((2, 5)), ParseError, id=f"{name}-digits:[2,5]")
    for name, call in {**MULTIPLIER_ENTRIES, **RESIDUE_ENTRIES}.items()
]


@pytest.mark.parametrize("call, r, error", REFUSED_MULTIPLIERS)
def test_every_entry_refuses_an_excluded_or_out_of_range_multiplier(call, r, error):
    with pytest.raises(error) as info:
        call(r)
    assert type(info.value) is error
