import pytest
from hypothesis import given
from hypothesis import strategies as st

from padicmult import (
    C0SeqH,
    C0SeqZ,
    C0SeqZpZ,
    CFunUnits,
    Free,
    KGroupDescriptor,
    TeichProduct,
    ZERO_GROUP,
    algebra_k_groups,
    classify,
    descriptor,
    hs_k_groups,
    ideal_k_groups,
    primed_algebra_k_groups,
    supernatural_order,
)
from padicmult.errors import DomainError, ExcludedMultiplierError
from padicmult.classification import CaseII


def test_printed_descriptors_match_the_pinned_grammar():
    k0, k1 = algebra_k_groups(classify(3, 2), 3)
    assert str(k0) == "c0(Z>=0, H(2*3^inf)) (+) Z"
    assert str(k1) == "Z (+) c0(Z>=0, Z)"

    k0, k1 = algebra_k_groups(classify(5, TeichProduct(2)), 5)
    assert str(k0) == "c0(Z>=0 x Zp, Z) (+) Z"
    assert str(k1) == "c0(Z>=0 x Zp, Z) (+) Z"

    k0, k1 = primed_algebra_k_groups(classify(5, TeichProduct(2)), 5)
    assert str(k0) == "c0(Z>=0 x Zp, Z) (+) Z^4"
    assert str(k1) == "0"

    k0, k1 = primed_algebra_k_groups(classify(3, -1), 3)
    assert str(k0) == "c0(Z>=0 x Zp, Z) (+) Z^2"
    assert str(k1) == "0"

    k0, k1 = algebra_k_groups(classify(3, 6), 3)
    assert str(k0) == "C(Z_3^x, Z)"
    assert str(k1) == "0"


def test_ideal_descriptors():
    verdict = classify(3, 2)
    k0, k1 = ideal_k_groups(verdict, 3)
    assert k0 == descriptor(C0SeqH(supernatural_order(3, 2)))
    assert k1 == descriptor(C0SeqZ())

    second = classify(5, TeichProduct(2))
    assert ideal_k_groups(second, 5, primed=True) == (descriptor(C0SeqZpZ()), ZERO_GROUP)
    assert ideal_k_groups(second, 5) == (descriptor(C0SeqZpZ()), descriptor(C0SeqZpZ()))


def test_split_sequence_consistency():
    for p, spec in [(3, 2), (5, 7), (5, TeichProduct(2)), (3, -1)]:
        verdict = classify(p, spec)
        ak0, ak1 = algebra_k_groups(verdict, p)
        ik0, ik1 = ideal_k_groups(verdict, p)
        assert ak0 == ik0 + Free(1)
        assert ak1 == ik1 + Free(1)
    verdict = classify(5, TeichProduct(2))
    pk0, pk1 = primed_algebra_k_groups(verdict, 5)
    jk0, jk1 = ideal_k_groups(verdict, 5, primed=True)
    assert pk0 == jk0 + Free(verdict.order)
    assert pk1 == jk1 == ZERO_GROUP


def test_valuation_case_matches_direct_construction():
    assert algebra_k_groups(classify(3, 6), 3) == hs_k_groups(3)
    assert algebra_k_groups(classify(3, 18), 3) == hs_k_groups(9)
    assert algebra_k_groups(classify(5, 10), 5) == hs_k_groups(5)
    assert CFunUnits(9) != CFunUnits(3)


def test_error_paths():
    with pytest.raises(DomainError):
        primed_algebra_k_groups(classify(3, 2), 3)
    with pytest.raises(DomainError):
        ideal_k_groups(classify(3, 6), 3)
    with pytest.raises(DomainError):
        ideal_k_groups(classify(3, 2), 3, primed=True)
    with pytest.raises(ExcludedMultiplierError):
        primed_algebra_k_groups(CaseII(order=1), 5)
    with pytest.raises(DomainError):
        hs_k_groups(1)


def test_free_parts_merge_and_zero_drops():
    assert descriptor(Free(2), C0SeqZ(), Free(3)) == descriptor(Free(5), C0SeqZ())
    assert str(descriptor(Free(2), C0SeqZ(), Free(3))) == "Z^5 (+) c0(Z>=0, Z)"
    assert descriptor(Free(0)) == ZERO_GROUP
    assert str(ZERO_GROUP) == "0"
    assert ZERO_GROUP + descriptor(Free(1)) == descriptor(Free(1))
    assert ZERO_GROUP.is_zero()


def test_equality_is_order_insensitive():
    s = supernatural_order(3, 2)
    a = descriptor(C0SeqH(s), Free(1))
    b = descriptor(Free(1), C0SeqH(s))
    assert a == b
    assert hash(a) == hash(b)
    assert str(a) != str(b)  # printing preserves construction order


ATOMS = st.sampled_from(
    [Free(1), Free(2), C0SeqZ(), C0SeqZpZ(), CFunUnits(3), CFunUnits(9)]
)


@given(st.lists(ATOMS, max_size=6))
def test_canonicalization_is_idempotent(atoms):
    once = KGroupDescriptor(atoms)
    again = KGroupDescriptor(once.atoms)
    assert once == again
    assert once.atoms == again.atoms
    frees = [a for a in once.atoms if isinstance(a, Free)]
    assert len(frees) <= 1


def test_smallest_shift_base():
    k0, k1 = hs_k_groups(2)
    assert str(k0) == "C(Z_2^x, Z)" and str(k1) == "0"


def test_a_descriptor_is_immutable_and_unequal_to_other_types():
    group = descriptor(Free(2), C0SeqZ())
    assert group != "Z^2 (+) c0(Z>=0, Z)" and group != group.atoms
    assert repr(group) == "KGroupDescriptor((Free(rank=2), C0SeqZ()))"
    with pytest.raises(AttributeError, match="immutable"):
        group.atoms = ()
    assert group == descriptor(Free(2), C0SeqZ())
