import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import sc, scalars
from padicmult import Cyc, NonNeg, TruncatedOp, WinZ, Word, label, parse_label
from padicmult.errors import BasisMismatchError, ParseError
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


@st.composite
def operator_pairs(draw):
    """Two operators on one domain window, on one codomain or on a window and
    the window one larger, the second mostly a copy of the first."""
    codomains = draw(st.sampled_from([(WINDOW, WINDOW), (WIDER, WINDOW), (WINDOW, WIDER)]))
    keys = [st.tuples(st.sampled_from(codomain), st.sampled_from(WINDOW)) for codomain in codomains]
    entries = draw(st.dictionaries(keys[0], scalars(), max_size=12))
    copied = {key: s for key, s in entries.items() if key[0] in codomains[1]}
    copied.update(draw(st.dictionaries(keys[1], scalars(), max_size=2)))
    a = TruncatedOp(WINDOW, codomains[0], entries)
    b = TruncatedOp(WINDOW, codomains[1], copied)
    return a, b, draw(st.lists(st.sampled_from(WINDOW), max_size=len(WINDOW)))


@given(operator_pairs())
def test_agrees_at_matches_the_label_reference(pair):
    a, b, indices = pair
    want = all(column(a, ix) == column(b, ix) for ix in indices)
    assert a._agrees_at(b, indices) is want
    assert b._agrees_at(a, indices) is want
    assert a._agrees_at(a, indices) is True


@given(st.sampled_from([WINDOW, WIDER]), st.sampled_from([WINDOW, WIDER]), st.data())
def test_agrees_at_sees_one_changed_missing_or_extra_entry(codomain, other, data):
    keys = st.tuples(st.sampled_from(WINDOW), st.sampled_from(WINDOW))
    # at most 6 entries, so every column of the 7-row window has a free row
    entries = data.draw(st.dictionaries(keys, scalars().filter(bool), min_size=1, max_size=6))
    op = TruncatedOp(WINDOW, codomain, entries)
    key = data.draw(st.sampled_from(sorted(entries, key=repr)))
    changed = {**entries, key: entries[key] + sc(1, 1)}
    missing = {k: s for k, s in entries.items() if k != key}
    row = data.draw(st.sampled_from([ix for ix in other if (ix, key[1]) not in entries]))
    extra = {**entries, (row, key[1]): ONE}
    for edited in (changed, missing, extra):
        copy = TruncatedOp(WINDOW, other, edited)
        assert not op._agrees_at(copy, WINDOW) and not copy._agrees_at(op, WINDOW)
        assert op._agrees_at(copy, [ix for ix in WINDOW if ix != key[1]])
    assert op._agrees_at(TruncatedOp(WINDOW, other, entries), WINDOW)


def test_agrees_at_refuses_an_index_outside_a_domain():
    wide = TruncatedOp.identity(WIDER)
    narrow = TruncatedOp.identity(WINDOW)
    assert wide._agrees_at(narrow, WINDOW)
    for first, second in ((wide, narrow), (narrow, wide)):
        with pytest.raises(BasisMismatchError):
            first._agrees_at(second, [WinZ(4)])


def test_an_operator_is_unequal_to_other_types_and_shows_its_fields():
    shift, _ = shift_pair()
    assert shift != shift.entries and shift != 0
    text = repr(shift)
    assert text.startswith("TruncatedOp(domain=(NonNeg(l=0), ")
    assert ", codomain=(NonNeg(l=0), " in text
    assert text.endswith(f", entries={dict(shift.entries)!r})")
