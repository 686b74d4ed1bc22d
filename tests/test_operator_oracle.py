"""TruncatedOp against the plain-matrix oracles of padicmult.oracles.

Operators are drawn general (the public constructor) and monomial: 0/1 maps
with gaps, weighted maps whose weights include zeros and Gaussian rationals,
and products of sections with diagonals.  Every operation is then compared
with the same operation on the operators' entries, read as plain dicts.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import entry_values, functions, general_operators, sc, window_basis
from padicmult import (
    ExactInt,
    LocallyConstantFn,
    TeichProduct,
    TruncatedOp,
    WinZ,
    alpha_endo,
    build_cyclic_rep,
    build_digit_rep,
    build_hs_rep,
    build_orbit_rep,
    check_covariance,
    check_matrix_units,
    window_shift,
)
from padicmult.classification import classify
from padicmult.operators import _Basis
from padicmult.oracles import matrices_equal, matrix_adjoint, matrix_product, matrix_sum
from padicmult.representations import _index_diagonal, _section
from padicmult.scalars import ONE


def matrix(op: TruncatedOp) -> dict:
    return dict(op.entries)


def identity(basis) -> dict:
    return {(ix, ix): ONE for ix in basis}


def column(a, index) -> dict:
    return {row: s for (row, col), s in a.items() if col == index}


def matches(op: TruncatedOp, domain, codomain, expected) -> None:
    assert tuple(op.domain) == tuple(domain) and tuple(op.codomain) == tuple(codomain)
    assert matrices_equal(matrix(op), expected)


@st.composite
def row_maps(draw, domain: _Basis, codomain: _Basis) -> TruncatedOp:
    """A 0/1 map with gaps: k distinct domain positions to k distinct codomain rows,
    a section after the adjoint of a section."""
    k = draw(st.integers(0, min(len(domain), len(codomain))))
    sources = draw(st.permutations(range(len(domain))))[:k]
    targets = draw(st.permutations(range(len(codomain))))[:k]
    through = window_basis(k, 1000)
    return _section(through, codomain, targets) @ _section(through, domain, sources).adjoint()


def diagonal(draw, basis: _Basis) -> TruncatedOp:
    weights = draw(st.lists(entry_values, min_size=len(basis), max_size=len(basis)))
    return TruncatedOp.diagonal(basis, lambda ix: weights[basis._pos[ix]])


@st.composite
def monomials(draw, domain: _Basis, codomain: _Basis) -> TruncatedOp:
    """A 0/1 map with gaps, a weighted map, a diagonal, or a map between two diagonals."""
    kind = draw(st.sampled_from(["map", "weighted", "diagonal", "product"]))
    if kind == "diagonal" and domain is codomain:
        return diagonal(draw, domain)
    op = draw(row_maps(domain, codomain))
    if kind == "map":
        return op
    op = op @ diagonal(draw, domain)
    return op if kind == "weighted" else diagonal(draw, codomain) @ op


def operators(domain: _Basis, codomain: _Basis):
    return st.one_of(monomials(domain, codomain), general_operators(domain, codomain))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_operators_agree_with_the_matrix_oracle(data):
    sizes = st.integers(0, 5)
    domain, middle, codomain = (window_basis(data.draw(sizes)) for _ in range(3))
    lefts = [data.draw(monomials(middle, codomain)), data.draw(general_operators(middle, codomain))]
    rights = [data.draw(monomials(domain, middle)), data.draw(general_operators(domain, middle))]
    # compose in all four monomial/general pairings
    for left in lefts:
        for right in rights:
            product = matrix_product(matrix(left), matrix(right), codomain, middle, domain)
            matches(left @ right, domain, codomain, product)
    extra = (WinZ(100), WinZ(101))
    for op, other in (lefts, lefts[::-1], rights, rights[::-1]):
        dom, cod, a = op.domain, op.codomain, matrix(op)
        matches(op.adjoint(), cod, dom, matrix_adjoint(a))
        matches(op.adjoint().adjoint(), dom, cod, a)
        matches(op + other, dom, cod, matrix_sum(a, matrix(other)))
        matches(op - op, dom, cod, {})
        c = data.draw(entry_values)
        scaled = {(ix, ix): c for ix in dom} if c else {}
        matches(op.scale(c), dom, cod, matrix_product(a, scaled, cod, dom, dom))
        kept = data.draw(st.permutations(dom))[: data.draw(st.integers(0, len(dom)))]
        matches(op.restricted(kept), kept, cod, {key: s for key, s in a.items() if key[1] in kept})
        # onto a codomain that starts with op's, and onto one that moves every row
        for wider in (cod + extra, extra[:1] + cod[::-1] + extra[1:]):
            matches(op.extended(dom + extra, wider), dom + extra, wider, a)
        twin = pickle.loads(pickle.dumps(op))
        matches(twin, dom, cod, a)
        assert twin == op and op == TruncatedOp(dom, cod, a)
        same = matrices_equal(a, matrix(other))
        assert (op == other) is same and (other == op) is same
        indices = data.draw(st.lists(st.sampled_from(dom), max_size=len(dom))) if dom else []
        agree = all(column(a, ix) == column(matrix(other), ix) for ix in indices)
        assert op._agrees_at(other, indices) is agree and other._agrees_at(op, indices) is agree
    square = data.draw(operators(middle, middle))
    power = identity(middle)
    for exponent in range(4):
        matches(square.power(exponent), middle, middle, power)
        power = matrix_product(matrix(square), power, middle, middle, middle)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_extended_composes_only_with_the_bases_that_grow(data):
    sizes = st.integers(0, 5)
    op = data.draw(operators(window_basis(data.draw(sizes)), window_basis(data.draw(sizes))))
    dom, cod, a = op.domain, op.codomain, matrix(op)
    extra = (WinZ(100), WinZ(101))
    moved = extra[:1] + cod[::-1] + extra[1:]
    assert op.extended() is op and op.extended(tuple(dom), tuple(cod)) is op
    for domain, codomain in ((dom + extra, None), (None, moved), (dom + extra, moved)):
        wider = op.extended(domain, codomain)
        matches(wider, domain or dom, codomain or cod, a)
        # a monomial stays one
        assert (wider._rows is None) is (op._rows is None)


def test_a_shared_section_answers_entries_and_apply_without_building_its_columns():
    # window 7 is used by no other test, so its memoised shift is fresh here
    f = LocallyConstantFn(3, 1, (0, 0, 5))
    shift, diag = build_orbit_rep(3, ExactInt(2), 1, f, window=7)
    ks = range(-7, 8)
    expected_shift = {(WinZ(k + 1), WinZ(k)): ONE for k in ks}
    # the diagonal carries f(2^k) and so is 5 at odd k, 0 (an empty column) at even k
    expected_diag = {(WinZ(k), WinZ(k)): sc(5) for k in ks if k % 2}
    for op, expected in [(shift, expected_shift), (diag, expected_diag)]:
        assert matrices_equal(matrix(op), expected)
        assert all(op.apply(ix) == column(expected, ix) for ix in op.domain)
        assert op.to_doc() == TruncatedOp(op.domain, op.codomain, expected).to_doc()
        assert matrices_equal(matrix(op.adjoint()), matrix_adjoint(expected))
        assert "_cols" not in vars(op)
    adjoint = matrix_adjoint(expected_shift)
    product = matrix_product(adjoint, expected_shift, shift.domain, shift.codomain, shift.domain)
    assert matrices_equal(matrix(shift.adjoint() @ shift), product)
    assert "_cols" not in vars(shift) and shift._rows is not None


def test_monomials_compare_their_weights_at_live_rows_only():
    basis = window_basis(3)
    size = len(basis)
    cases = [
        # equal rows, unequal weights
        (TruncatedOp._monomial(basis, basis, (0, 1, 2), (ONE, ONE, sc(2))),
         TruncatedOp._monomial(basis, basis, (0, 1, 2), (ONE, ONE, sc(3)))),
        # equal rows, weights unequal only at the empty column, which is never read
        (TruncatedOp._monomial(basis, basis, (0, size, 2), (ONE, sc(5), sc(2))),
         TruncatedOp._monomial(basis, basis, (0, size, 2), (ONE, sc(7), sc(2)))),
        # no weights against explicit ONEs
        (TruncatedOp.identity(basis), TruncatedOp.diagonal(basis, lambda ix: 1)),
        (TruncatedOp.identity(basis), TruncatedOp.diagonal(basis, lambda ix: 1 if ix != basis[1] else 2)),
        # unequal rows
        (TruncatedOp.identity(basis), TruncatedOp._monomial(basis, basis, (1, 0, 2))),
    ]
    # a monomial against a general operator with the same entries, and with one changed
    for op in [pair[0] for pair in cases]:
        entries = matrix(op)
        cases.append((op, TruncatedOp(basis, basis, entries)))
        cases.append((op, TruncatedOp(basis, basis, {**entries, (basis[0], basis[2]): 4})))
    assert cases[-2][1]._rows is None
    outcomes = []
    for left, right in cases:
        same = matrices_equal(matrix(left), matrix(right))
        assert (left == right) is same and (right == left) is same
        outcomes.append(same)
    assert outcomes[:5] == [False, True, True, False, False]
    assert outcomes[5:] == [True, False] * 5


# --- the relation checks, evaluated densely ---------------------------------------


def dense_covariance(shift, diag, diag_alpha, interior) -> bool:
    """shift . diag . shift* = diag_alpha, column by column on the interior."""
    s, d, alpha = matrix(shift), matrix(diag), matrix(diag_alpha)
    dom, cod = shift.domain, shift.codomain
    lhs = matrix_product(matrix_product(s, d, cod, dom, dom), matrix_adjoint(s), cod, dom, cod)
    if interior is None:
        fixed = matrix_product(s, matrix_adjoint(s), cod, dom, cod)
        interior = [ix for ix in cod if column(fixed, ix) == {ix: ONE} and ix in diag_alpha.domain]
    return all(column(lhs, ix) == column(alpha, ix) for ix in interior)


@st.composite
def covariance_cases(draw):
    """A builder's shift and diagonal of f, the diagonal of alpha(g) with g = f or
    another function, and the interior that verify uses."""
    kind = draw(st.sampled_from(["orbit", "cyclic", "digit", "index"]))
    p = 5 if kind == "cyclic" else 3
    f, other = draw(functions(p)), draw(functions(p))
    g = f if draw(st.booleans()) else other
    size = draw(st.integers(0, 3))
    if kind == "orbit":
        shift, diag = build_orbit_rep(3, ExactInt(2), 1, f, window=size)
        return shift, diag, build_orbit_rep(3, ExactInt(2), 1, alpha_endo(g, 2), window=size)[1], None
    if kind == "cyclic":
        shift, diag = build_cyclic_rep(5, TeichProduct(2), 1, f)
        alpha = build_cyclic_rep(5, TeichProduct(2), 1, alpha_endo(g, TeichProduct(2)))[1]
        return shift, diag, alpha, shift.codomain
    if kind == "digit":
        max_len = size % 2 + 1  # at most 9 words, into 27
        shift, diag = build_digit_rep(3, 1, ExactInt(6), f, max_len)
        alpha = build_digit_rep(3, 1, ExactInt(6), alpha_endo(g, ExactInt(6)), max_len)[1]
        return shift, diag, alpha, shift.domain
    shift, diag = build_hs_rep(3, 1, f, cutoff=size)
    alpha = _index_diagonal(alpha_endo(g, ExactInt(3)), len(shift.codomain))
    return shift, diag, alpha, shift.codomain


@settings(max_examples=60, deadline=None)
@given(covariance_cases())
def test_check_covariance_agrees_with_the_dense_relation(case):
    assert check_covariance(*case) is dense_covariance(*case)


def dense_matrix_units(p: int, r, window: int) -> bool:
    """v = P_{1,0} + ... + P_{n-1,n-2} + u P_{0,n-1}, and u commutes with every P_{i,j}."""
    n = classify(p, r).order
    v = window_shift(window)
    basis = v.domain
    a, a_star = matrix(v), matrix_adjoint(matrix(v))

    def times(x, y):
        return matrix_product(x, y, basis, basis, basis)

    units = [[{(ix, ix): ONE for ix in basis if ix.k % n == 0}]]
    for _ in range(n - 1):
        units.append([times(a, units[-1][0])])
    for row in units:
        for _ in range(n - 1):
            row.append(times(row[-1], a_star))
    u = identity(basis)
    for _ in range(n):
        u = times(a, u)
    rhs = times(u, units[0][n - 1])
    for i in range(1, n):
        rhs = matrix_sum(rhs, units[i][i - 1])
    if any(column(a, ix) != column(rhs, ix) for ix in basis[n : len(basis) - n]):
        return False
    inner = basis[2 * n : len(basis) - 2 * n]
    return all(
        column(times(u, unit), ix) == column(times(unit, u), ix)
        for row in units
        for unit in row
        for ix in inner
    )


@pytest.mark.parametrize("p, r, window", [(3, TeichProduct(2), 5), (3, TeichProduct(2), 8), (7, TeichProduct(2), 7)])
def test_check_matrix_units_agrees_with_the_dense_relations(p, r, window):
    assert check_matrix_units(p, r, window=window) is dense_matrix_units(p, r, window) is True
