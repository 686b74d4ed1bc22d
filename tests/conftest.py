"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

from fractions import Fraction

import hypothesis.strategies as st

from padicmult import LocallyConstantFn, Scalar, TruncatedOp, WinZ
from padicmult.operators import _Basis
from padicmult.scalars import ONE

ODD_PRIMES = (3, 5, 7)


def sc(real, imag=0) -> Scalar:
    return Scalar(Fraction(real), Fraction(imag))


@st.composite
def scalars(draw):
    real = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
    imag = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
    if draw(st.booleans()):
        imag = Fraction(0)
    return Scalar(real, imag)


@st.composite
def functions(draw, p: int, max_level: int = 2):
    level = draw(st.integers(0, max_level))
    values = draw(
        st.lists(scalars(), min_size=p**level, max_size=p**level).map(tuple)
    )
    return LocallyConstantFn(p, level, values)


def window_basis(size: int, start: int = 0) -> _Basis:
    return _Basis(WinZ(k) for k in range(start, start + size))


# operator entries: scalars, and the integers and ONE that the constructor converts
entry_values = st.one_of(scalars(), st.sampled_from([0, 1, ONE, -1]))


@st.composite
def general_operators(draw, domain: _Basis, codomain: _Basis) -> TruncatedOp:
    """An operator through the public constructor, with at most 8 entries."""
    if not (domain and codomain):
        return TruncatedOp(domain, codomain, {})
    keys = st.tuples(st.sampled_from(codomain), st.sampled_from(domain))
    return TruncatedOp(domain, codomain, draw(st.dictionaries(keys, entry_values, max_size=8)))
