import copy
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import entry_values, general_operators, sc, scalars, window_basis
from padicmult import (
    Cyc,
    ExactInt,
    LocallyConstantFn,
    NonNeg,
    TeichProduct,
    TruncatedOp,
    WinZ,
    Word,
    build_cyclic_rep,
    build_digit_rep,
    build_hs_rep,
    build_orbit_rep,
    intertwiner,
    label,
    parse_label,
    window_shift,
)
from padicmult.errors import BasisMismatchError, ParseError
from padicmult.operators import _EMPTY, _Basis
from padicmult.representations import BASIS_CACHE_LABELS, _section
from padicmult.scalars import ONE, ZERO, Scalar


LABELS = [WinZ(-3), WinZ(0), Cyc(2, 4), NonNeg(0), NonNeg(17), Word((0,)), Word((1, 0, 2))]


@pytest.mark.parametrize("index", LABELS)
def test_label_round_trip(index):
    assert parse_label(label(index)) == index


def test_label_grammar():
    assert label(WinZ(-2)) == "W:-2"
    assert label(Cyc(1, 4)) == "C:1/4"
    assert label(NonNeg(5)) == "N:5"
    assert label(Word((1, 2, 0, 1))) == "D:1.2.0.1"


@pytest.mark.parametrize("text", ["", "W:", "X:1", "C:1", "C:5/4", "D:", "N:-1", "D:1.-2"])
def test_malformed_labels_rejected(text):
    with pytest.raises(ParseError):
        parse_label(text)


def test_word_canonicality():
    Word((0,))
    Word((0, 0, 1))
    with pytest.raises(ParseError):
        Word((1, 0))
    with pytest.raises(ParseError):
        Word(())


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Cyc(4, 4), "cyclic index 4 out of range mod 4"),
        (lambda: Cyc(-1, 4), "cyclic index -1 out of range mod 4"),
        (lambda: Cyc(0, 0), "cyclic index 0 out of range mod 0"),
        (lambda: NonNeg(-1), "non-negative basis index required"),
        (lambda: Word(()), "words need at least one digit, all non-negative"),
        (lambda: Word((1, -2)), "words need at least one digit, all non-negative"),
        (lambda: Word([1, 0]), "non-canonical word (trailing zero): (1, 0)"),
    ],
)
def test_label_constructors_refuse_out_of_range_fields(make, message):
    with pytest.raises(ParseError) as caught:
        make()
    assert str(caught.value) == message


def test_labels_of_different_kinds_are_unequal():
    assert WinZ(0) != NonNeg(0) and NonNeg(0) != WinZ(0)
    assert Cyc(0, 1) != Word((0,)) and WinZ(1) != Cyc(1, 2)
    assert len(set(LABELS) | {NonNeg(3), WinZ(3)}) == len(LABELS) + 2
    # a label is the tuple of its kind tag and fields
    assert (WinZ(3), Cyc(1, 4), NonNeg(5), Word([1, 2])) == (
        (0, 3), (1, 1, 4), (2, 5), (3, (1, 2)),
    )


@pytest.mark.parametrize("index", LABELS)
def test_equal_labels_hash_equally(index):
    twin = parse_label(label(index))
    assert twin is not index and twin == index and hash(twin) == hash(index)
    assert {index: 1}[twin] == 1


def test_labels_keep_their_repr_and_fields():
    assert [repr(ix) for ix in (WinZ(-3), Cyc(2, 4), NonNeg(17), Word([1, 0, 2]))] == [
        "WinZ(k=-3)", "Cyc(k=2, n=4)", "NonNeg(l=17)", "Word(digits=(1, 0, 2))",
    ]
    assert (WinZ(k=2).k, Cyc(k=1, n=3).n, NonNeg(l=4).l) == (2, 3, 4)
    assert Word(digits=iter([0, 1])).digits == (0, 1)
    assert Word((0,)).is_zero() and not Word((0, 1)).is_zero()


@pytest.mark.parametrize("index", LABELS)
def test_a_label_refuses_attribute_assignment(index):
    for name in (*type(index)._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(index, name, 1)
        with pytest.raises(AttributeError):
            delattr(index, name)


@pytest.mark.parametrize("how", [*range(6), "copy", "deepcopy"])
@pytest.mark.parametrize("index", LABELS)
def test_a_copied_label_is_equal_and_of_its_kind(index, how):
    twin = copied(index, how)
    assert twin == index and type(twin) is type(index) and repr(twin) == repr(index)


def test_a_lone_label_is_not_a_basis():
    for make in (TruncatedOp.identity, _Basis, lambda ix: TruncatedOp.zero(ix, (ix,))):
        with pytest.raises(TypeError):
            make(WinZ(3))


def test_label_hashes_do_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); from padicmult import *; "
        f"print([hash(ix) for ix in {LABELS!r}])"
    )
    outputs = {
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            timeout=60, env={**os.environ, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("0", "123")
    }
    assert outputs == {f"{[hash(ix) for ix in LABELS]}\n"}


def test_build_validates_bases():
    basis = (NonNeg(0), NonNeg(1))
    with pytest.raises(BasisMismatchError):
        TruncatedOp.build(basis, (NonNeg(0), NonNeg(0)), {})
    with pytest.raises(BasisMismatchError):
        TruncatedOp.build(basis, basis, {(NonNeg(2), NonNeg(0)): 1})


def shift_pair():
    domain = tuple(NonNeg(l) for l in range(3))
    codomain = tuple(NonNeg(l) for l in range(4))
    shift = TruncatedOp.build(domain, codomain, {(NonNeg(l + 1), NonNeg(l)): 1 for l in range(3)})
    diag = TruncatedOp.diagonal(domain, lambda ix: sc(ix.l + 1))
    return shift, diag


def test_compose_and_adjoint():
    shift, diag = shift_pair()
    moved = shift @ diag
    assert moved.apply(NonNeg(0)) == {NonNeg(1): sc(1)}
    assert moved.apply(NonNeg(2)) == {NonNeg(3): sc(3)}
    assert (shift @ diag).adjoint() == diag.adjoint() @ shift.adjoint()
    assert shift.adjoint() @ shift == TruncatedOp.identity(shift.domain)


def test_compose_requires_matching_bases():
    shift, diag = shift_pair()
    with pytest.raises(BasisMismatchError):
        diag @ shift  # shift's codomain is one longer than diag's domain


def test_apply_validates_index():
    shift, _ = shift_pair()
    with pytest.raises(BasisMismatchError):
        shift.apply(NonNeg(9))
    # the constructor refuses an entry off either basis
    with pytest.raises(BasisMismatchError):
        TruncatedOp((NonNeg(0),), (NonNeg(0),), {(NonNeg(0), NonNeg(7)): ONE})
    with pytest.raises(BasisMismatchError):
        TruncatedOp((NonNeg(0),), (NonNeg(0),), {(NonNeg(5), NonNeg(0)): ONE})


def test_arithmetic_and_scaling():
    _, diag = shift_pair()
    assert diag - diag == TruncatedOp.zero(diag.domain, diag.codomain)
    assert diag + diag == diag.scale(2)
    assert diag.scale(0).entries == {}
    with pytest.raises(BasisMismatchError):
        diag + TruncatedOp.identity((NonNeg(0),))


def test_power_requires_square():
    shift, diag = shift_pair()
    assert diag.power(2).apply(NonNeg(1)) == {NonNeg(1): sc(4)}
    assert diag.power(0) == TruncatedOp.identity(diag.domain)
    with pytest.raises(BasisMismatchError):
        shift.power(2)


def test_restrict_and_extend():
    shift, diag = shift_pair()
    smaller = diag.restricted((NonNeg(0), NonNeg(1)))
    assert smaller.apply(NonNeg(1)) == {NonNeg(1): sc(2)}
    assert NonNeg(2) not in set(smaller.domain)
    bigger = shift.extended(codomain=tuple(NonNeg(l) for l in range(6)))
    assert bigger.apply(NonNeg(2)) == {NonNeg(3): ONE}
    with pytest.raises(BasisMismatchError):
        diag.restricted((NonNeg(9),))
    with pytest.raises(BasisMismatchError):
        shift.extended(codomain=(NonNeg(0),))


def test_range_fixed_points():
    shift, _ = shift_pair()
    assert shift.range_fixed_points() == (NonNeg(1), NonNeg(2), NonNeg(3))


@given(st.lists(scalars(), min_size=4, max_size=4))
def test_document_round_trip(values):
    domain = (NonNeg(0), Word((0,)), Cyc(0, 2), WinZ(-1))
    codomain = (NonNeg(1), Word((2,)), Cyc(1, 2), WinZ(0))
    entries = {
        (codomain[i], domain[j]): values[(i + j) % 4] for i in range(4) for j in range(2)
    }
    op = TruncatedOp.build(domain, codomain, entries)
    doc = op.to_doc()
    assert TruncatedOp.from_doc(doc) == op
    assert doc == TruncatedOp.from_doc(doc).to_doc()
    # an int entry given to the constructor is stored, and written, as a Scalar
    entries[(codomain[3], domain[3])] = 2
    op = TruncatedOp(domain, codomain, entries)
    assert op == TruncatedOp.build(domain, codomain, {**entries, (codomain[3], domain[3]): sc(2)})
    assert TruncatedOp.from_doc(op.to_doc()) == op


def test_from_doc_rejects_malformed():
    with pytest.raises(ParseError):
        TruncatedOp.from_doc({"domain": ["N:0"]})


def test_entries_are_read_only():
    shift, diag = shift_pair()
    with pytest.raises(TypeError):
        shift.entries[(NonNeg(0), NonNeg(0))] = ONE
    with pytest.raises(TypeError):
        del diag.entries[(NonNeg(0), NonNeg(0))]
    with pytest.raises(AttributeError):
        shift.domain = diag.domain
    with pytest.raises(AttributeError):
        del diag.codomain
    source = {(NonNeg(0), NonNeg(0)): ONE, (NonNeg(1), NonNeg(0)): ZERO}
    op = TruncatedOp((NonNeg(0),), (NonNeg(0), NonNeg(1)), source)
    source[(NonNeg(0), NonNeg(0))] = sc(5)
    assert op.entries == {(NonNeg(0), NonNeg(0)): ONE}
    assert op.apply(NonNeg(0)) == {NonNeg(0): ONE}


def test_apply_returns_a_fresh_vector():
    shift, _ = shift_pair()
    image = shift.apply(NonNeg(1))
    image[NonNeg(0)] = sc(7)
    del image[NonNeg(2)]
    assert shift.apply(NonNeg(1)) == {NonNeg(2): ONE}


# --- the column index against brute force, on seeded random operators ----------

DOMAIN = (NonNeg(0), Word((1, 2)), WinZ(-1), Cyc(0, 3), NonNeg(4))
MIDDLE = (WinZ(0), WinZ(1), Word((0,)), Cyc(2, 3), NonNeg(2), NonNeg(3))
CODOMAIN = (Word((2,)), WinZ(5), NonNeg(1))


def random_scalar(rng: random.Random) -> Scalar:
    real = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    imag = Fraction(rng.randint(-2, 2), rng.randint(1, 2)) if rng.random() < 0.4 else 0
    return Scalar(real, imag)


def unit_or_random(rng: random.Random) -> Scalar | int:
    """0, 1 (as an int and as ONE), -1 or a random scalar: products of these
    take the ONE path of Scalar and often cancel to zero."""
    return rng.choice((0, 1, ONE, -1, random_scalar(rng)))


def sign(rng: random.Random) -> Scalar | int:
    """1 or -1: products of these cancel often."""
    return rng.choice((1, ONE, -1))


def random_op(rng: random.Random, domain, codomain, draw=random_scalar) -> TruncatedOp:
    """Entries at about half the positions; the first domain column stays empty."""
    entries = {
        (row, col): draw(rng)
        for row in codomain
        for col in domain[1:]
        if rng.random() < 0.5
    }
    return TruncatedOp.build(domain, codomain, entries)


def scanned(op: TruncatedOp, index) -> dict:
    return {row: s for (row, col), s in op.entries.items() if col == index}


def dense(op: TruncatedOp) -> list[list[Scalar]]:
    return [[op.entries.get((row, col), ZERO) for col in op.domain] for row in op.codomain]


@pytest.mark.parametrize("seed", range(8))
def test_apply_matches_a_scan_of_the_entries(seed):
    rng = random.Random(seed)
    a = random_op(rng, MIDDLE, CODOMAIN)
    b = random_op(rng, DOMAIN, MIDDLE)
    assert a.apply(MIDDLE[0]) == {}
    ops = [
        a,
        b,
        a @ b,
        a.adjoint(),
        b.adjoint() @ a.adjoint(),
        b.restricted(DOMAIN[1:4]),
        b.extended(domain=DOMAIN + (Word((3,)),), codomain=MIDDLE + (WinZ(9),)),
        a.scale(random_scalar(rng)),
        a + random_op(rng, MIDDLE, CODOMAIN),
    ]
    for op in ops:
        for index in op.domain:
            assert op.apply(index) == scanned(op, index)
        with pytest.raises(BasisMismatchError):
            op.apply(Word((8, 8)))


def agrees_with(op: TruncatedOp, domain, codomain, matrix) -> None:
    """op against a dense label-keyed reference: rows over codomain, columns over domain."""
    want = {
        (row, col): matrix[i][j]
        for i, row in enumerate(codomain)
        for j, col in enumerate(domain)
        if matrix[i][j]
    }
    assert (op.domain, op.codomain) == (domain, codomain)
    assert op.entries == want
    assert all(op.entries.values())
    for j, col in enumerate(domain):
        assert op.apply(col) == {row: matrix[i][j] for i, row in enumerate(codomain) if matrix[i][j]}
    assert op == TruncatedOp.build(domain, codomain, want)
    assert op == TruncatedOp(domain, codomain, want)
    if want:
        changed = dict(want)
        changed[next(iter(want))] += ONE
        assert op != TruncatedOp.build(domain, codomain, changed)


def compose_against_dense(rng: random.Random, draw) -> None:
    a = random_op(rng, MIDDLE, CODOMAIN, draw)
    b = random_op(rng, DOMAIN, MIDDLE, draw)
    c = random_op(rng, DOMAIN, CODOMAIN, draw)
    left, right, other = dense(a), dense(b), dense(c)
    product = [
        [sum((row[k] * right[k][j] for k in range(len(MIDDLE))), ZERO) for j in range(len(DOMAIN))]
        for row in left
    ]
    composed = a @ b
    agrees_with(composed, DOMAIN, CODOMAIN, product)
    agrees_with(
        composed.adjoint(),
        CODOMAIN,
        DOMAIN,
        [[product[i][j].conjugate() for i in range(len(CODOMAIN))] for j in range(len(DOMAIN))],
    )
    assert composed.adjoint() == b.adjoint() @ a.adjoint()
    total = [[x + y for x, y in zip(row, row_c)] for row, row_c in zip(product, other)]
    agrees_with(composed + c, DOMAIN, CODOMAIN, total)
    agrees_with(composed - composed, DOMAIN, CODOMAIN, [[ZERO] * len(DOMAIN) for _ in CODOMAIN])
    for factor in (0, 1, -1, ONE, random_scalar(rng)):
        scaled = [[Scalar.of(factor) * x for x in row] for row in product]
        agrees_with(composed.scale(factor), DOMAIN, CODOMAIN, scaled)


@pytest.mark.parametrize("seed", range(8))
def test_compose_matches_the_dense_product(seed):
    rng = random.Random(seed)
    for draw in (random_scalar, unit_or_random, sign):
        compose_against_dense(rng, draw)


# --- column comparison against a label-keyed reference ---------------------------

WINDOW = tuple(WinZ(k) for k in range(-3, 4))
WIDER = WINDOW + (WinZ(4),)


def column(op: TruncatedOp, index) -> dict:
    return {row: s for (row, col), s in op.entries.items() if col == index}


def refuses_two_shapes(op: TruncatedOp) -> None:
    """_agrees_at compares one shape: a wider domain or taller codomain is refused."""
    for other in (
        op.extended(domain=op.domain + (WinZ(99),)),
        op.extended(codomain=op.codomain + (WinZ(99),)),
    ):
        for first, second in ((op, other), (other, op)):
            with pytest.raises(BasisMismatchError, match="shapes do not match"):
                first._agrees_at(second, [])


@st.composite
def operator_pairs(draw):
    """Two operators on one domain window and one codomain, the window or the
    window one larger, the second mostly a copy of the first."""
    codomain = draw(st.sampled_from([WINDOW, WIDER]))
    keys = st.tuples(st.sampled_from(codomain), st.sampled_from(WINDOW))
    entries = draw(st.dictionaries(keys, scalars(), max_size=12))
    copied = {**entries, **draw(st.dictionaries(keys, scalars(), max_size=2))}
    a = TruncatedOp(WINDOW, codomain, entries)
    b = TruncatedOp(WINDOW, codomain, copied)
    return a, b, draw(st.lists(st.sampled_from(WINDOW), max_size=len(WINDOW)))


@given(operator_pairs())
def test_agrees_at_matches_the_label_reference(pair):
    a, b, indices = pair
    want = all(column(a, ix) == column(b, ix) for ix in indices)
    assert a._agrees_at(b, indices) is want
    assert b._agrees_at(a, indices) is want
    assert a._agrees_at(a, indices) is True
    refuses_two_shapes(a)


@given(st.sampled_from([WINDOW, WIDER]), st.data())
def test_agrees_at_sees_one_changed_missing_or_extra_entry(codomain, data):
    keys = st.tuples(st.sampled_from(WINDOW), st.sampled_from(WINDOW))
    # at most 6 entries, so every column of the 7-row window has a free row
    entries = data.draw(st.dictionaries(keys, scalars().filter(bool), min_size=1, max_size=6))
    op = TruncatedOp(WINDOW, codomain, entries)
    key = data.draw(st.sampled_from(sorted(entries, key=repr)))
    changed = {**entries, key: entries[key] + sc(1, 1)}
    missing = {k: s for k, s in entries.items() if k != key}
    row = data.draw(st.sampled_from([ix for ix in codomain if (ix, key[1]) not in entries]))
    extra = {**entries, (row, key[1]): ONE}
    for edited in (changed, missing, extra):
        copy = TruncatedOp(WINDOW, codomain, edited)
        assert not op._agrees_at(copy, WINDOW) and not copy._agrees_at(op, WINDOW)
        assert op._agrees_at(copy, [ix for ix in WINDOW if ix != key[1]])
    assert op._agrees_at(TruncatedOp(WINDOW, codomain, entries), WINDOW)
    refuses_two_shapes(op)


def test_agrees_at_refuses_an_index_outside_a_domain():
    # two builds of one basis: equal bases that are not one object
    narrow, again = TruncatedOp.identity(WINDOW), TruncatedOp.identity(WINDOW)
    assert narrow.domain is not again.domain
    assert narrow._agrees_at(again, WINDOW)
    for first, second in ((narrow, again), (again, narrow)):
        with pytest.raises(BasisMismatchError, match="outside the domain"):
            first._agrees_at(second, [WinZ(4)])
    refuses_two_shapes(narrow)


def test_an_operator_is_unequal_to_other_types_and_shows_its_fields():
    shift, _ = shift_pair()
    assert shift != shift.entries and shift != 0
    text = repr(shift)
    assert text.startswith("TruncatedOp(domain=(NonNeg(l=0), ")
    assert ", codomain=(NonNeg(l=0), " in text
    assert text.endswith(f", entries={dict(shift.entries)!r})")


# --- compose on one-entry columns, and columns shared between operators --------


def weight(rng: random.Random) -> Scalar | int:
    """ONE, 1, -1 or a random nonzero scalar."""
    return rng.choice((ONE, 1, -1, random_scalar(rng))) or ONE


def weighted_partial_permutation(rng: random.Random, domain, codomain) -> TruncatedOp:
    """Each column empty or one entry, each row hit at most once."""
    cols = rng.sample(domain, rng.randint(0, min(len(domain), len(codomain))))
    rows = rng.sample(codomain, len(cols))
    return TruncatedOp.build(domain, codomain, {key: weight(rng) for key in zip(rows, cols)})


def sized_columns(rng: random.Random, domain, codomain) -> TruncatedOp:
    """Column j holds j mod 4 entries (at most one per row), so 0, 1 and several occur."""
    entries = {}
    for j, col in enumerate(domain):
        for row in rng.sample(codomain, min(j % 4, len(codomain))):
            entries[(row, col)] = weight(rng)
    return TruncatedOp.build(domain, codomain, entries)


def dense_product(a: TruncatedOp, b: TruncatedOp) -> list[list[Scalar]]:
    left, right = dense(a), dense(b)
    middle = range(len(b.codomain))
    return [
        [sum((row[k] * right[k][j] for k in middle), ZERO) for j in range(len(b.domain))]
        for row in left
    ]


@pytest.mark.parametrize("seed", range(12))
def test_compose_of_weighted_partial_permutations_matches_the_dense_product(seed):
    rng = random.Random(seed)
    b = weighted_partial_permutation(rng, DOMAIN, MIDDLE)
    assert all(len(b.apply(ix)) <= 1 for ix in DOMAIN)
    lefts = (sized_columns(rng, MIDDLE, CODOMAIN), weighted_partial_permutation(rng, MIDDLE, CODOMAIN))
    for a in lefts:
        agrees_with(a @ b, DOMAIN, CODOMAIN, dense_product(a, b))
        a_star, b_star = a.adjoint(), b.adjoint()
        agrees_with(b_star @ a_star, CODOMAIN, DOMAIN, dense_product(b_star, a_star))
    square = weighted_partial_permutation(rng, MIDDLE, MIDDLE)
    agrees_with(square @ square, MIDDLE, MIDDLE, dense_product(square, square))
    agrees_with(square.power(3), MIDDLE, MIDDLE, dense_product(square, square @ square))


def snapshot(op: TruncatedOp) -> tuple[list, dict]:
    """op's columns read afresh, and its document."""
    return [op.apply(ix) for ix in op.domain], op.to_doc()


@pytest.mark.parametrize("seed", range(8))
def test_operators_built_from_a_product_change_no_factor(seed):
    rng = random.Random(seed)
    a = sized_columns(rng, MIDDLE, CODOMAIN)
    b = weighted_partial_permutation(rng, DOMAIN, MIDDLE)
    c = a @ b
    before = [snapshot(op) for op in (a, b, c)]
    other = random_op(rng, DOMAIN, CODOMAIN)
    derived = [
        c + other,
        other + c,
        c - c,
        c.scale(random_scalar(rng)),
        c.scale(-1),
        c.scale(0),
        c.adjoint(),
        c.adjoint() + c.adjoint().scale(2),
        c.extended(domain=DOMAIN + (Word((3,)),), codomain=CODOMAIN + (WinZ(9),)),
        c.restricted(DOMAIN[1:4]),
        c.restricted(DOMAIN[1:4]) + c.restricted(DOMAIN[1:4]),
        c.adjoint() @ c,
    ]
    for op in derived:
        for index in op.domain:
            image = op.apply(index)
            image[WinZ(99)] = ONE
            assert WinZ(99) not in op.apply(index)
    for index in c.domain:
        image = c.apply(index)
        image.clear()
        assert c.apply(index) == scanned(c, index)
    assert [snapshot(op) for op in (a, b, c)] == before
    # the empty column the operators share is still empty
    assert TruncatedOp.diagonal(DOMAIN, lambda ix: 0).apply(DOMAIN[0]) == {}
    assert TruncatedOp.zero(DOMAIN, CODOMAIN).to_doc()["entries"] == []


@st.composite
def operators_on_one_position_map(draw):
    """An operator on WINDOW, or its extension to a taller codomain, and one of
    its shape that holds its position maps: a scaled copy, or the operator plus
    a few entries."""
    codomain = draw(st.sampled_from([WINDOW, WIDER]))
    keys = st.tuples(st.sampled_from(codomain), st.sampled_from(WINDOW))
    a = TruncatedOp(WINDOW, codomain, draw(st.dictionaries(keys, scalars(), max_size=12)))
    how = draw(st.sampled_from(["scale", "add", "extend"]))
    if how == "extend":
        a = a.extended(codomain=codomain + (WinZ(9),))
    if how == "scale":
        b = a.scale(draw(st.sampled_from([1, -1, ONE, sc(2, 1)])))
    else:
        delta_keys = st.tuples(st.sampled_from(a.codomain), st.sampled_from(WINDOW))
        delta = draw(st.dictionaries(delta_keys, scalars(), max_size=2))
        b = a + TruncatedOp(WINDOW, a.codomain, delta)
    return a, b, draw(st.lists(st.sampled_from(WINDOW), max_size=len(WINDOW)))


@given(operators_on_one_position_map())
def test_agrees_at_on_one_position_map_matches_the_label_reference(pair):
    a, b, indices = pair
    assert a.domain is b.domain and a.codomain is b.codomain
    want = all(column(a, ix) == column(b, ix) for ix in indices)
    assert a._agrees_at(b, indices) is want
    assert b._agrees_at(a, indices) is want
    for first, second in ((a, b), (b, a)):
        with pytest.raises(BasisMismatchError):
            first._agrees_at(second, [WinZ(4)])
    refuses_two_shapes(a)


def test_extended_onto_its_own_bases_is_the_operator():
    op = TruncatedOp(WINDOW, WIDER, {(WinZ(4), WinZ(3)): sc(1, 2), (WinZ(0), WinZ(1)): 3})
    assert op.extended() is op
    assert op.extended(op.domain, op.codomain) is op
    assert op.extended(codomain=WIDER) is op  # an equal basis, not the same object
    taller = op.extended(codomain=WIDER + (WinZ(9),))
    assert taller is not op and taller.entries == op.entries


def test_agrees_at_on_sections_of_one_cached_basis():
    v = window_shift(4)
    square = v @ v
    assert v.domain is square.domain is v.scale(-1).domain
    inner = v.domain[2:-2]
    assert v._agrees_at(v.scale(ONE), v.domain) and not v._agrees_at(v.scale(-1), inner)
    assert not v._agrees_at(square, inner)
    assert square._agrees_at(v @ v.extended(), v.domain)
    # v v* misses the bottom index and v* v the top one, where v maps out
    range_projection, domain_projection = v @ v.adjoint(), v.adjoint() @ v
    assert range_projection._agrees_at(domain_projection, v.domain[1:-1])
    for end in (v.domain[:1], v.domain[-1:]):
        assert not range_projection._agrees_at(domain_projection, end)
    with pytest.raises(BasisMismatchError):
        v._agrees_at(square, [WinZ(5)])


def test_from_doc_refuses_a_repeated_entry():
    doc = {"domain": ["N:0"], "codomain": ["N:0", "N:1"], "entries": [["N:0", "N:0", "1/1"]]}
    assert TruncatedOp.from_doc(doc).entries == {(NonNeg(0), NonNeg(0)): ONE}
    for second in (["N:0", "N:0", "2/1"], ["N:0", "N:0", "1/1"], ["N:00", "N:0", "0/1"]):
        with pytest.raises(ParseError, match="repeats the entry"):
            TruncatedOp.from_doc({**doc, "entries": doc["entries"] + [second]})
    two = {**doc, "entries": doc["entries"] + [["N:1", "N:0", "2/1"]]}
    assert TruncatedOp.from_doc(two).apply(NonNeg(0)) == {NonNeg(0): ONE, NonNeg(1): sc(2)}


def test_operators_on_a_cached_basis_hash_no_label(monkeypatch):
    op, _ = build_orbit_rep(3, 2, 1, LocallyConstantFn.constant(3, 1), window=4)
    hashed = []
    plain = WinZ.__hash__

    def counting(ix):
        hashed.append(ix)
        return plain(ix)

    monkeypatch.setattr(WinZ, "__hash__", counting)
    built = [
        TruncatedOp(op.domain, op.codomain, {}),
        TruncatedOp.identity(op.domain),
        TruncatedOp.diagonal(op.domain, lambda ix: ix.k),
        op.extended(codomain=op.codomain),
    ]
    assert hashed == []
    assert all(new.domain is op.domain for new in built)
    assert built[0].codomain is built[3].codomain is op.codomain
    assert built[1].codomain is built[2].codomain is op.domain
    assert built[3] == op


def copied(op, how):
    if how == "copy":
        return copy.copy(op)
    if how == "deepcopy":
        return copy.deepcopy(op)
    return pickle.loads(pickle.dumps(op, how))


@pytest.mark.parametrize("how", [*range(6), "copy", "deepcopy"])
def test_a_copied_operator_is_equal_and_keeps_its_bases(how):
    square = window_shift(3)
    rectangular = TruncatedOp(WINDOW, WIDER, {(WinZ(4), WinZ(3)): sc(1, 2), (WinZ(0), WinZ(1)): 3})
    for op in (square, rectangular):
        op.adjoint(), op.range_fixed_points()  # the kept views are not part of the copy
        twin = copied(op, how)
        assert twin == op and not {"_adjoint", "_range_fixed_points"} & vars(twin).keys()
        for mine, theirs in ((twin.domain, op.domain), (twin.codomain, op.codomain)):
            assert type(mine) is _Basis and mine._pos == theirs._pos
        assert [twin.apply(ix) for ix in twin.domain] == [op.apply(ix) for ix in op.domain]
        assert (twin.domain is twin.codomain) is (op is square)


def test_a_basis_refuses_attribute_assignment():
    basis = window_shift(3).domain
    for name in ("_pos", "extra"):
        with pytest.raises(AttributeError):
            setattr(basis, name, {})
    with pytest.raises(AttributeError):
        del basis._pos
    assert basis._pos == {ix: n for n, ix in enumerate(basis)}


# --- monomials carry their row map and weights ------------------------------------


def plain(op: TruncatedOp) -> TruncatedOp:
    """op rebuilt from its entries through the public constructor, as a general operator."""
    return TruncatedOp(op.domain, op.codomain, dict(op.entries))


def is_monomial(op: TruncatedOp) -> None:
    """op's injective row map uses no row twice, and its columns, built on read and
    never kept, are {row: weight} at each nonempty row, with a nonzero weight, and the
    shared empty column elsewhere."""
    size, cols = len(op.codomain), op._columns()
    assert op._rows is not None and len(op._rows) == len(cols) == len(op.domain)
    used = [row for row in op._rows if row != size]
    assert len(set(used)) == len(used) and all(0 <= row < size for row in used)
    weights = [ONE] * len(op.domain) if op._weights is None else op._weights
    assert len(weights) == len(op.domain)
    for row, s, column in zip(op._rows, weights, cols):
        if row == size:
            assert column is _EMPTY
        else:
            assert column == {row: s} and s
    assert "_cols" not in vars(op)


def agrees_with_plain(result: TruncatedOp, reference: TruncatedOp, monomial: bool) -> None:
    assert result == reference and reference == result
    assert result.to_doc() == reference.to_doc()
    assert (result._rows is not None) is monomial
    if monomial:
        is_monomial(result)


@st.composite
def partial_permutations(draw, domain: _Basis, codomain: _Basis) -> TruncatedOp:
    """A row map with gaps, each domain position to its own codomain row or to the
    empty column, unweighted or with Gaussian weights; on one basis, sometimes a
    diagonal with zeros among its values instead."""
    if domain is codomain and draw(st.booleans()):
        chosen = draw(st.lists(entry_values, min_size=len(domain), max_size=len(domain)))
        op = TruncatedOp.diagonal(domain, lambda ix: chosen[domain._pos[ix]])
    else:
        size = len(codomain)
        pool = draw(st.permutations([*range(size), *[size] * len(domain)]))
        nonzero = entry_values.map(Scalar.of).filter(bool)
        weights = draw(st.none() | st.lists(nonzero, min_size=len(domain), max_size=len(domain)).map(tuple))
        op = TruncatedOp._monomial(domain, codomain, tuple(pool[: len(domain)]), weights)
    is_monomial(op)
    return op


@given(st.data())
def test_row_maps_agree_with_operators_rebuilt_without_them(data):
    sizes = st.integers(0, 5)
    domain, middle, codomain = (window_basis(data.draw(sizes)) for _ in range(3))
    maps = [data.draw(partial_permutations(d, c)) for d, c in ((middle, codomain), (domain, middle))]
    general = [data.draw(general_operators(d, c)) for d, c in ((middle, codomain), (domain, middle))]
    # compose in all four monomial/general pairings
    for left in (maps[0], general[0]):
        for right in (maps[1], general[1]):
            monomial = left._rows is not None and right._rows is not None
            agrees_with_plain(left @ right, plain(left) @ plain(right), monomial)
    extra = (WinZ(100), WinZ(101))
    for op in (*maps, *general):
        monomial = op._rows is not None
        assert op == plain(op)
        agrees_with_plain(op.adjoint(), plain(op).adjoint(), monomial)
        agrees_with_plain(op.adjoint().adjoint(), plain(op), monomial)
        kept = data.draw(st.permutations(op.domain))[: data.draw(st.integers(0, len(op.domain)))]
        agrees_with_plain(op.restricted(kept), plain(op).restricted(kept), monomial)
        # onto a codomain that starts with op's, and onto one that moves every row
        for wider in (op.codomain + extra, extra[:1] + op.codomain[::-1] + extra[1:]):
            lifted = op.extended(op.domain + extra, wider)
            agrees_with_plain(lifted, plain(op).extended(op.domain + extra, wider), monomial)
        twin = pickle.loads(pickle.dumps(op))
        agrees_with_plain(twin, pickle.loads(pickle.dumps(plain(op))), monomial)
    square = data.draw(st.one_of(partial_permutations(middle, middle), general_operators(middle, middle)))
    for exponent in range(4):
        monomial = square._rows is not None or exponent == 0
        agrees_with_plain(square.power(exponent), plain(square).power(exponent), monomial)


def test_sums_and_scalings_write_into_no_shared_unit_column():
    """A sum or scaling of monomials is a general operator built from fresh columns:
    it writes into neither the inputs' unit columns nor the shared empty column."""
    v = window_shift(4)
    basis = v.domain
    ops = [v, v.adjoint(), TruncatedOp.identity(basis), TruncatedOp.diagonal(basis, lambda ix: ix.k % 2)]
    other = TruncatedOp(basis, basis, {(WinZ(0), WinZ(1)): sc(2, 1), (WinZ(2), WinZ(2)): -1})
    before = [snapshot(op) for op in ops]
    for op in ops:
        is_monomial(op)
        derived = [op + op, op + other, other + op, op - op, op.scale(sc(3, -1)), op.scale(-1), op.scale(0)]
        assert all(new._rows is None for new in derived)
    assert [snapshot(op) for op in ops] == before
    assert _EMPTY == {}


def test_a_large_section_never_keeps_columns():
    v = window_shift(100000)
    assert "_cols" not in vars(v)
    assert v._columns()[BASIS_CACHE_LABELS] == {BASIS_CACHE_LABELS + 1: ONE}
    is_monomial(v)
    assert v.apply(WinZ(100000)) == {}
    assert "_cols" not in vars(v)


def test_the_builders_and_the_covariance_products_are_monomials():
    f = LocallyConstantFn(3, 1, (sc(0), sc(1, 2), sc(-1)))
    built = [
        build_orbit_rep(3, 2, 1, f, window=4),
        build_cyclic_rep(7, TeichProduct(2), 1, LocallyConstantFn.constant(7, 1)),
        build_digit_rep(3, 1, ExactInt(6), f, max_len=2),
        build_hs_rep(3, 1, f, cutoff=6),
    ]
    for shift, diag in built:
        # check_covariance's left-hand side, and its default interior's projection
        for op in (shift, diag, shift @ diag @ shift.adjoint(), shift @ shift.adjoint()):
            is_monomial(op)
    is_monomial(intertwiner(3, 1, 6, max_len=2))


def test_a_section_refuses_repeated_or_outside_targets():
    domain, codomain = window_basis(3), window_basis(4)
    assert _section(domain, codomain, [3, 0]).apply(WinZ(2)) == {}
    for targets in ([1, 1], [0, 4], [-1], [0, 1, 2, 3]):
        with pytest.raises(BasisMismatchError, match="distinct targets"):
            _section(domain, codomain, targets)
