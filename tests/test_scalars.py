import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest
from hypothesis import given

from conftest import sc, scalars
from padicmult import ONE, ZERO, Scalar
from padicmult.errors import ParseError


def test_construction_coerces_ints():
    assert Scalar(1, 2) == Scalar(Fraction(1), Fraction(2))
    assert Scalar.of(3) == sc(3)
    assert not ZERO and ONE


@given(scalars(), scalars(), scalars())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a + ZERO == a and a * ONE == a
    assert a - a == ZERO


@given(scalars(), scalars())
def test_real_and_complex_arithmetic_match_the_full_formula(a, b):
    product = a * b
    assert product == Scalar(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)
    assert a + b == Scalar(a.real + b.real, a.imag + b.imag)
    for value in (product, a + b):
        assert type(value.real) is Fraction and type(value.imag) is Fraction


def test_construction_keeps_fractions_and_rejects_other_types():
    half = Fraction(1, 2)
    assert Scalar(half).real is half
    for bad in (True, 0.5, "1"):
        with pytest.raises(TypeError):
            Scalar(bad)
        with pytest.raises(TypeError):
            Scalar.of(bad)


def test_unit_scalars_are_shared():
    assert Scalar.of(1) is ONE and Scalar.of(0) is ZERO
    assert Scalar.of(2) == sc(2) and Scalar.of(-1) == sc(-1)
    for bad in (True, False):
        with pytest.raises(TypeError):
            Scalar.of(bad)


@given(scalars())
def test_unit_and_real_fast_paths_match_the_full_formula(a):
    full = Scalar(a.real * 1 - a.imag * 0, a.real * 0 + a.imag * 1)
    assert ONE * a == full and a * ONE == full
    assert ONE * a is a and a * ONE is a
    assert a.conjugate() == Scalar(a.real, -a.imag)
    if not a.imag:
        assert a.conjugate() is a


@given(scalars(), scalars())
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


@given(scalars(), scalars())
def test_division_inverts_multiplication(a, b):
    if b:
        assert (a * b) / b == a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


@given(scalars())
def test_text_round_trip(a):
    assert Scalar.parse(str(a)) == a


def test_canonical_text_forms():
    assert str(sc(Fraction(1, 2))) == "1/2"
    assert str(sc(3)) == "3/1"
    assert str(Scalar(Fraction(1, 2), Fraction(-3, 4))) == "1/2+-3/4 i"
    assert Scalar.parse("1/2+-3/4 i") == Scalar(Fraction(1, 2), Fraction(-3, 4))
    assert Scalar.parse("0/1") == ZERO


@pytest.mark.parametrize("text", ["", "1", "1/0", "1/2+", "1/2+3/4i", "x/2", "1/2 + 3/4 i"])
def test_malformed_text_rejected(text):
    with pytest.raises(ParseError):
        Scalar.parse(text)


def test_an_int_minus_a_scalar_is_a_scalar():
    assert 3 - Scalar(1) == Scalar(2)
    assert 0 - sc(1, 2) == sc(-1, -2)


def test_a_scalar_is_slotted_and_frozen():
    a = sc(Fraction(1, 3), Fraction(-2, 5))
    assert not hasattr(a, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.real = Fraction(2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del a.imag
    # a name that is no field has no slot; Python 3.11's frozen __setattr__
    # then raises TypeError, not FrozenInstanceError
    with pytest.raises((AttributeError, TypeError)):
        a.extra = 1
    assert a == sc(Fraction(1, 3), Fraction(-2, 5))
    assert repr(Scalar(1, 2)) == "Scalar(real=Fraction(1, 1), imag=Fraction(2, 1))"


@given(scalars())
def test_a_scalar_survives_pickle_and_copy(a):
    for copied in (
        pickle.loads(pickle.dumps(a)),
        pickle.loads(pickle.dumps(a, protocol=0)),
        copy.copy(a),
        copy.deepcopy(a),
    ):
        assert copied == a and hash(copied) == hash(a)
        assert type(copied.real) is Fraction and type(copied.imag) is Fraction


def test_a_public_construction_runs_post_init(monkeypatch):
    calls = []
    post_init = Scalar.__post_init__

    def counted(self):
        calls.append(1)
        post_init(self)

    monkeypatch.setattr(Scalar, "__post_init__", counted)
    made = Scalar(1, 2)
    assert type(made.real) is Fraction and len(calls) == 1
    assert Scalar.of(5) == sc(5) and len(calls) == 3  # sc builds one more
    assert Scalar.of(1) is ONE and ONE * made is made and len(calls) == 3
    made * made
    assert len(calls) == 4
