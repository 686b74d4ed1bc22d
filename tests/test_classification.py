from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padicmult import (
    CaseI,
    CaseII,
    CaseIII,
    Digits,
    HSubgroup,
    SupernaturalNumber,
    TeichProduct,
    classify,
    h_contains,
    supernatural_from_unit_order,
    supernatural_order,
)
from padicmult.classification import INF
from padicmult.errors import (
    DomainError,
    ExcludedMultiplierError,
    InsufficientPrecisionError,
)


def test_classify_examples():
    assert classify(3, 2) == CaseI(threshold=2, order=6)
    assert classify(5, TeichProduct(2)) == CaseII(order=4)
    assert classify(3, 6) == CaseIII(valuation=1, unit_residue=2, precision=6)
    assert classify(5, -1) == CaseII(order=2)
    # thresholds far past any fixed search depth
    assert classify(3, 1 + 3**64) == CaseI(threshold=65, order=3)
    assert classify(5, 1 - 2 * 5**70) == CaseI(threshold=71, order=5)
    assert classify(43, 1 + 7 * 43**100) == CaseI(threshold=101, order=43)
    # a large prime: the tower needs only modular powers, never r^(p-1) itself
    big = 1_000_000_007
    assert classify(big, 3) == CaseI(threshold=2, order=big * (big - 1) // 2)


def test_classify_excludes_zero_and_one():
    with pytest.raises(ExcludedMultiplierError):
        classify(5, 0)
    with pytest.raises(ExcludedMultiplierError):
        classify(5, 1)


def test_cases_are_mutually_exclusive_on_integers():
    for p in (3, 5, 7):
        for n in range(-30, 31):
            if n in (0, 1):
                continue
            verdict = classify(p, n, precision=4)
            kinds = [isinstance(verdict, c) for c in (CaseI, CaseII, CaseIII)]
            assert sum(kinds) == 1
            if n % p == 0:
                assert isinstance(verdict, CaseIII)
            elif n == -1:
                assert isinstance(verdict, CaseII)
            else:
                assert isinstance(verdict, CaseI)


def test_signed_teichmuller_orders():
    # order of -w_2 over p=5 equals the order of -2 = 3 mod 5, which is 4
    assert classify(5, TeichProduct(2, -1)) == CaseII(order=4)
    # order of -w_3 over p=7 equals the order of 4 mod 7, which is 3
    assert classify(7, TeichProduct(3, -1)) == CaseII(order=3)
    assert classify(7, TeichProduct(3)) == CaseII(order=6)


def test_case_three_keeps_negative_units():
    verdict = classify(5, -50, precision=3)
    assert verdict == CaseIII(valuation=2, unit_residue=(-2) % 125, precision=3)


def test_classify_digit_strings():
    # digits of the lift of 2 mod 5^3 (the value 57)
    assert classify(5, Digits((2, 1, 2))) == CaseII(order=4, exact=False)
    # 32 = 2^5 is no root of unity; threshold is visible within three digits
    assert classify(5, Digits((2, 1, 1))) == CaseI(threshold=3, order=20, exact=False)
    assert classify(5, Digits((0, 0, 1))) == CaseIII(
        valuation=2, unit_residue=1, precision=1, exact=False
    )
    # 7 mod 25 coincides with the lift of 2 at two digits, though not at three
    assert classify(5, Digits((2, 1))) == CaseII(order=4, exact=False)
    with pytest.raises(InsufficientPrecisionError):
        classify(5, Digits((0, 0, 0)))
    with pytest.raises(ExcludedMultiplierError):
        classify(5, Digits((1, 0, 0)))  # matches 1 at every known digit


def test_root_of_unity_powers_resolve_at_every_precision():
    from padicmult import multiplier_residue

    verdict = classify(5, TeichProduct(2))
    for precision in range(1, 6):
        modulus = 5**precision
        rho = multiplier_residue(TeichProduct(2), 5, precision)
        assert pow(rho, verdict.order, modulus) == 1
        assert all(pow(rho, j, modulus) != 1 for j in range(1, verdict.order))


def test_supernatural_order_examples():
    assert supernatural_order(3, 2) == SupernaturalNumber.of({2: 1, 3: INF})
    assert supernatural_order(5, 7) == SupernaturalNumber.of({2: 2, 5: INF})
    assert supernatural_order(5, 2) == SupernaturalNumber.of({2: 2, 5: INF})


def test_supernatural_order_needs_case_one():
    with pytest.raises(DomainError):
        supernatural_order(5, TeichProduct(2))
    with pytest.raises(DomainError):
        supernatural_order(5, 10)


def test_supernatural_from_unit_order():
    # unit orders divide (p - 1) * p^k
    assert supernatural_from_unit_order(20, 5) == SupernaturalNumber.of({2: 2, 5: INF})
    assert supernatural_from_unit_order(1, 7) == SupernaturalNumber.of({7: INF})
    assert str(supernatural_from_unit_order(2 * 3 * 7**4, 7)) == "2*3*7^inf"
    for order in (3, 6, 5 * 7, 0, -4):  # a prime outside p - 1 and p, or no order
        with pytest.raises(DomainError):
            supernatural_from_unit_order(order, 5)


def test_infinite_exponents_are_the_sentinel():
    assert supernatural_order(3, 2).exponent(3) is INF
    with pytest.raises(DomainError):
        SupernaturalNumber.of({3: float("inf")})


def test_supernatural_canonical_form_and_text():
    s = SupernaturalNumber.of({2: 1, 3: INF, 7: 0})
    assert s.factors == ((2, 1), (3, INF))
    assert str(s) == "2*3^inf"
    assert str(SupernaturalNumber.of({2: 2, 5: INF})) == "2^2*5^inf"
    assert str(SupernaturalNumber.of({})) == "1"
    assert s.exponent(3) == INF and s.exponent(11) == 0


def test_h_membership_examples():
    h = HSubgroup(SupernaturalNumber.of({2: 1, 3: INF}))
    assert h_contains(h, Fraction(1, 9))
    assert not h_contains(h, Fraction(1, 4))
    assert h_contains(h, 5)
    assert Fraction(7, 6) in h
    assert Fraction(1, 8) not in h


@pytest.mark.parametrize("q", [0.5, 1.0, "1/2", "1", True, None, 1j])
def test_h_membership_takes_only_ints_and_fractions(q):
    h = HSubgroup(SupernaturalNumber.of({2: 1, 3: INF}))
    with pytest.raises(TypeError):
        h_contains(h, q)
    with pytest.raises(TypeError):
        q in h


@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
)
def test_h_membership_closed_under_addition(a, b):
    h = HSubgroup(SupernaturalNumber.of({2: 2, 3: INF, 5: 1}))
    if h_contains(h, a) and h_contains(h, b):
        assert h_contains(h, a + b)
        assert h_contains(h, a - b)
        assert h_contains(h, -a)


SUPERNATURALS = (
    SupernaturalNumber.of({}),
    SupernaturalNumber.of({2: 1, 3: INF}),
    SupernaturalNumber.of({2: 2, 3: INF, 5: 1}),
    SupernaturalNumber.of({2: 12, 5: 3, 11: INF}),
    SupernaturalNumber.of({7: INF, 999_999_937: 1}),
)
SMOOTH = st.builds(
    lambda a, b, c, d, e: 2**a * 3**b * 5**c * 7**d * 11**e,
    st.integers(0, 12),
    st.integers(0, 6),
    st.integers(0, 3),
    st.integers(0, 2),
    st.integers(0, 1),
)


@given(
    st.sampled_from(SUPERNATURALS),
    st.one_of(
        st.integers(1, 10**12),
        SMOOTH,
        st.integers(1, 1000).map(lambda k: 999_999_937 * k),
    ),
)
def test_admits_denominator_matches_factoring(s, denominator):
    from sympy import factorint

    expected = all(
        s.exponent(q) is INF or e <= s.exponent(q) for q, e in factorint(denominator).items()
    )
    assert s.admits_denominator(denominator) == expected
    assert h_contains(HSubgroup(s), Fraction(1, denominator)) == expected


def test_precision_zero_is_accepted():
    # only a negative precision is refused; zero keeps no digit of the cofactor
    assert classify(3, 6, precision=0) == CaseIII(1, 0, 0)
    assert classify(3, 2, precision=0) == CaseI(2, 6)
    assert classify(5, TeichProduct(2), precision=0) == CaseII(4)
