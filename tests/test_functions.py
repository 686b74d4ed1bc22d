import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import functions, sc
from padicmult import (
    Digits,
    ExactInt,
    LocallyConstantFn,
    PadicApprox,
    TeichProduct,
    alpha_endo,
    beta_endo,
    function_from_doc,
    function_to_doc,
    load_function,
    same_function,
    save_function,
)
from padicmult.errors import InsufficientPrecisionError, ParseError

A = (sc(10), sc(11), sc(12))


def test_value_count_must_match_level():
    with pytest.raises(ParseError):
        LocallyConstantFn(3, 1, (sc(1),))


def test_eval_examples():
    constant = LocallyConstantFn.constant(3, 5)
    assert constant(12345) == sc(5)
    f = LocallyConstantFn(3, 1, A)
    assert f(PadicApprox.from_int(3, 2, 7)) == A[1]
    g = LocallyConstantFn(3, 2, tuple(sc(j) for j in range(9)))
    assert g(PadicApprox.from_int(3, 2, 5)) == sc(5)
    assert f(-1) == A[2]


def test_eval_needs_enough_precision():
    g = LocallyConstantFn(3, 2, tuple(sc(j) for j in range(9)))
    with pytest.raises(InsufficientPrecisionError):
        g(PadicApprox.from_int(3, 1, 2))


def test_beta_examples():
    f = LocallyConstantFn(3, 1, A)
    assert beta_endo(f, ExactInt(2)).values == (A[0], A[2], A[1])
    assert beta_endo(f, ExactInt(3)).values == (A[0], A[0], A[0])
    constant = LocallyConstantFn.constant(3, 7)
    assert beta_endo(constant, ExactInt(5)) == constant


def test_alpha_examples():
    f = LocallyConstantFn(3, 1, A)
    assert alpha_endo(f, ExactInt(2)).values == (A[0], A[2], A[1])
    lifted = alpha_endo(f, ExactInt(3))
    assert lifted.level == 2
    zero = sc(0)
    assert lifted.values == (A[0], zero, zero, A[1], zero, zero, A[2], zero, zero)
    constant = LocallyConstantFn.constant(3, 7)
    assert alpha_endo(constant, ExactInt(2)) == constant


def test_alpha_supports_digit_multipliers_with_enough_digits():
    f = LocallyConstantFn(5, 1, tuple(sc(j) for j in range(5)))
    exact = alpha_endo(f, ExactInt(10))
    approx = alpha_endo(f, Digits((0, 2, 1)))
    assert exact == approx
    deeper = LocallyConstantFn(5, 2, tuple(sc(j) for j in range(25)))
    with pytest.raises(InsufficientPrecisionError):
        alpha_endo(deeper, Digits((0, 2)))  # one known unit digit, two needed


CASES = [
    (3, ExactInt(2)),
    (5, ExactInt(7)),
    (5, TeichProduct(2)),
    (3, ExactInt(-1)),
    (3, ExactInt(6)),
    (5, ExactInt(50)),
]


@given(st.sampled_from(CASES), st.data())
def test_beta_after_alpha_is_identity(case, data):
    p, spec = case
    f = data.draw(functions(p))
    back = beta_endo(alpha_endo(f, spec), spec)
    level_gain = back.level - f.level
    assert back.values == f.refined(f.level + level_gain).values
    assert same_function(back, f)


@given(st.sampled_from([c for c in CASES if isinstance(c[1], TeichProduct) or c[1].n % c[0]]), st.data())
def test_alpha_after_beta_is_identity_for_units(case, data):
    p, spec = case
    f = data.draw(functions(p))
    assert alpha_endo(beta_endo(f, spec), spec).values == f.values


@given(functions(3), st.integers(0, 3))
def test_refined_and_reduced_are_inverse(f, extra):
    lifted = f.refined(f.level + extra)
    assert same_function(lifted, f)
    assert lifted.reduced() == f.reduced()
    assert lifted.reduced().reduced() == lifted.reduced()


def test_reduced_compares_equal_values_not_identical_ones():
    # each value built on its own: the repeated blocks are equal but not the same objects
    f = LocallyConstantFn(3, 3, tuple(sc(j % 3 + 10) for j in range(27)))
    assert f.reduced() == LocallyConstantFn(3, 1, A)
    # the level drops only while every block repeats the first
    g = LocallyConstantFn(3, 2, (*A, *A, sc(10), sc(11), sc(13)))
    assert g.reduced() is g
    assert LocallyConstantFn(3, 2, (sc(4),) * 9).reduced() == LocallyConstantFn.constant(3, 4)


def test_pointwise_arithmetic_aligns_levels():
    f = LocallyConstantFn(3, 1, A)
    g = LocallyConstantFn.constant(3, 2)
    assert (f * g).values == tuple(a * sc(2) for a in A)
    assert (f + g).level == 1


@given(functions(5, max_level=2))
def test_document_round_trip(f):
    assert function_from_doc(function_to_doc(f)) == f


def test_file_round_trip(tmp_path):
    f = LocallyConstantFn(3, 1, A)
    path = tmp_path / "fn.json"
    save_function(f, path)
    assert load_function(path) == f


def test_malformed_documents_rejected(tmp_path):
    with pytest.raises(ParseError):
        function_from_doc({"p": 3})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_function(bad)
