import copy
import pickle
import random
import time
import tracemalloc
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ODD_PRIMES
from padicmult import (
    Digits,
    ExactInt,
    QuotientGroup,
    TeichProduct,
    classify,
    find_nr,
    find_primitive_root,
    group_size,
    is_in_subgroup,
    orbit_decompose,
    quotient_group,
    subgroup,
    supernatural_order,
    unit_groups,
    unit_order,
    unit_order_naive,
)
from padicmult.classification import CaseI, CaseII, CaseIII
from padicmult.errors import (
    CapExceededError,
    InsufficientPrecisionError,
    NotAUnitError,
    RootOfUnityError,
)
from padicmult.oracles import is_group_table, lagrange_order, power_walk
from padicmult.padic import Multiplier
from padicmult.unit_groups import QUOTIENT_MAX_COSETS, QUOTIENT_MAX_SCAN, CyclicSubgroup
from padicmult.verify import Bounds, _pool


def test_unit_order_examples():
    assert unit_order(3, 1, 2) == 2
    assert unit_order(3, 2, 2) == 6
    assert unit_order(7, 4, 1) == 1
    # oracle: 7^4 = 2401 = 26 mod 125, so the order is not 4; exhaustion gives 20
    assert unit_order_naive(5, 3, 7) == 20
    assert unit_order(5, 3, 7) == 20


def test_unit_order_rejects_non_units():
    with pytest.raises(NotAUnitError):
        unit_order(3, 2, 6)
    with pytest.raises(NotAUnitError):
        is_in_subgroup(5, 2, 7, 10)


@settings(max_examples=60)
@given(st.sampled_from(ODD_PRIMES), st.integers(1, 4), st.integers(2, 200))
def test_fast_order_matches_exhaustion(p, level, r):
    if r % p == 0:
        r += 1
    assert unit_order(p, level, r) == unit_order_naive(p, level, r)


@settings(max_examples=40)
@given(st.sampled_from(ODD_PRIMES), st.integers(1, 4), st.integers(2, 200))
def test_orders_divide_upward(p, level, r):
    if r % p == 0:
        r += 1
    assert unit_order(p, level + 1, r) % unit_order(p, level, r) == 0


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_order_tower_matches_exhaustion(p):
    deep = [1 + c * p**k for c in (1, -1, p + 1) for k in (1, 2, 3)]
    for r in [r for r in range(-p * p, p * p + 1) if r % p and r not in (1, -1)] + deep:
        naive = [unit_order_naive(p, level, r) for level in range(1, 5)]
        assert [unit_order(p, level, r) for level in range(1, 5)] == naive
        first = next((level for level, order in enumerate(naive, 1) if order % p == 0), None)
        assert first in (None, find_nr(p, r))
        for level in (1, 2):
            members = subgroup(p, level, r).element_set
            assert all(
                is_in_subgroup(p, level, r, k) == (k in members)
                for k in range(1, p**level)
                if k % p
            )


def test_primitive_roots():
    assert find_primitive_root(3, 1) == 2
    assert find_primitive_root(3, 2) == 2
    assert find_primitive_root(5, 1) == 2
    for p in ODD_PRIMES:
        for level in (1, 2, 3):
            a = find_primitive_root(p, level)
            assert unit_order(p, level, a) == group_size(p, level)
            target = group_size(p, level)
            assert a == next(b for b in range(1, p**level) if b % p and lagrange_order(p, level, b) == target)


def test_the_least_primitive_root_mod_p_need_not_generate_mod_p_squared():
    # 5 generates U_1 at p = 40487, but 5^(p-1) = 1 mod p^2, so U_2 needs a
    # residue of depth 1: the least is 10, which then generates every U_level
    p = 40487
    assert pow(5, p - 1, p * p) == 1
    assert [find_primitive_root(p, level) for level in (1, 2, 3)] == [5, 10, 10]
    assert lagrange_order(p, 2, 10) == group_size(p, 2)
    assert all(lagrange_order(p, 2, b) < group_size(p, 2) for b in range(2, 10))


def test_find_nr_examples():
    assert find_nr(3, 2) == 2
    assert find_nr(5, 7) == 3
    assert find_nr(5, 2) == 2
    assert find_nr(7, 1 + 3 * 7**60) == 61
    big = 1_000_000_007
    assert find_nr(big, 3) == 2
    assert find_nr(big, 1 + 5 * big**200) == 201
    assert unit_order(big, 3, 3) == big**2 * (big - 1) // 2


def test_find_nr_errors():
    with pytest.raises(RootOfUnityError):
        find_nr(5, -1)
    with pytest.raises(RootOfUnityError):
        find_nr(5, TeichProduct(2))
    # 7 mod 25: the threshold 3 lies past the two known digits
    with pytest.raises(InsufficientPrecisionError, match="not visible within 2 known digits"):
        find_nr(5, Digits((2, 1)))


def test_find_nr_accepts_digit_multipliers_with_enough_digits():
    # digits of 7 mod 5^3: 7 = 2 + 1*5
    assert find_nr(5, Digits((2, 1, 0))) == 3


def test_subgroup_examples():
    sub = subgroup(5, 2, 7)
    assert sub.elements == (1, 7, 18, 24)
    assert sub.order == 4
    assert subgroup(3, 2, 2).elements == (1, 2, 4, 5, 7, 8)
    assert subgroup(7, 3, 1).elements == (1,)


def test_closed_form_elements_match_a_power_walk():
    # every unit generates one: p in {3, 5, 7} at levels 1-4, p in {11, 13} at levels 1-3
    count = 0
    for p, top in [(3, 4), (5, 4), (7, 4), (11, 3), (13, 3)]:
        for level in range(1, top + 1):
            for r in range(1, p**level):
                if r % p:
                    assert subgroup(p, level, r).elements == power_walk(p, level, r)
                    count += 1
    assert count == 6630


def test_subgroup_listing_limit():
    # 2 * 3^11 = 354294 elements are listed, 3^12 = 531441 are refused
    assert 354294 <= QUOTIENT_MAX_SCAN < 531441
    assert len(subgroup(3, 12, 2).elements) == 354294
    with pytest.raises(CapExceededError, match="listing limit"):
        subgroup(3, 13, 4).elements
    # 1,000,008,000,021,000,018 elements: refused before any is listed
    huge = subgroup(1000003, 3, 2)
    start = time.process_time()
    with pytest.raises(CapExceededError, match="listing limit"):
        huge.elements
    assert time.process_time() - start < 0.5
    assert "elements" not in huge.__dict__


def test_unit_order_oracle_listing_limit():
    # the oracle lists every power: U_12 at p = 3 (354294 units) is walked,
    # a group of about 10^18 units is refused before any power is listed
    assert unit_order_naive(3, 12, 2) == 354294
    start = time.process_time()
    with pytest.raises(CapExceededError, match="listing limit"):
        unit_order_naive(1000003, 3, 2)
    assert time.process_time() - start < 0.5


def test_membership_examples():
    assert is_in_subgroup(5, 2, 7, 18)
    assert not is_in_subgroup(5, 2, 7, 2)
    assert is_in_subgroup(5, 2, 7, 1)


def test_subgroup_order_and_membership_match_its_elements():
    for p, r in _pool(Bounds()):
        for level in range(1, 5):
            sub = subgroup(p, level, r)
            assert sub.order == len(sub.elements)
            members = sub.element_set
            assert all((k in sub) == (k in members) for k in range(p**level))


def test_quotient_lists_no_subgroup_elements():
    # a single coset; the subgroup has 2002 * 2003 elements and none is listed
    q = quotient_group(2003, 5)
    assert q.order == 1 and q.coset_reps == (1,)
    assert q.subgroup.order == 2002 * 2003
    assert "elements" not in q.subgroup.__dict__


def lifted_set(p, level, generator):
    low = subgroup(p, level, generator).element_set
    return frozenset(
        k for k in range(1, p ** (level + 1)) if k % p and k % p**level in low
    )


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ODD_PRIMES), st.integers(2, 60))
def test_subgroup_lifting_past_threshold(p, r):
    if r % p == 0:
        r += 1
    threshold = find_nr(p, r)
    for level in range(threshold, 4):
        assert subgroup(p, level + 1, r).element_set == lifted_set(p, level, r)


def test_quotient_examples():
    assert quotient_group(3, 2).order == 1
    assert quotient_group(5, 2).order == 1
    q = quotient_group(5, 7)
    assert q.order == 5
    assert q.level == 3
    assert q.coset_reps[0] == 1
    assert q.order * q.subgroup.order == group_size(5, 3)


def test_quotient_partitions_units():
    for p, r in [(5, 7), (3, 10), (7, 19), (7, 1 + 2 * 7**2), (5, 26)]:
        q = quotient_group(p, r)
        modulus = p**q.level
        seen = {}
        for k in range(1, modulus):
            if k % p == 0:
                continue
            index = q.coset_index(k)
            seen.setdefault(index, set()).add(k)
        assert len(seen) == q.order
        assert all(len(block) == q.subgroup.order for block in seen.values())
        # each block is a coset, and the section is its least element
        for j, rep in enumerate(q.coset_reps):
            assert seen[j] == {rep * g % modulus for g in q.subgroup.elements}
            assert rep == min(seen[j])


def test_quotient_of_any_subgroup_at_any_level():
    # the subgroup's key k -> k^order names its cosets below, at and past the threshold
    for p, top in [(3, 4), (5, 2), (7, 2), (11, 1), (13, 1)]:
        for level in range(1, top + 1):
            modulus = p**level
            units = [k for k in range(1, modulus) if k % p]
            for r in units:
                q = QuotientGroup.of(subgroup(p, level, r))
                members = q.subgroup.element_set
                cosets = sorted({frozenset(a * h % modulus for h in members) for a in units}, key=min)
                assert q.coset_reps == tuple(min(c) for c in cosets)
                assert all(k in cosets[q.coset_index(k)] for k in units)
                assert is_group_table(q.table)
                # the key is multiplicative: the coset of a * b has key key(a) * key(b)
                keys = [pow(rep, q.subgroup.order, modulus) for rep in q.coset_reps]
                index = {key: i for i, key in enumerate(keys)}
                expected = tuple(tuple(index[a * b % modulus] for b in keys) for a in keys)
                assert tuple(map(tuple, q.table)) == expected
                assert sum(len(row) for row in q.table) == q.order**2


def test_quotient_table_is_a_group():
    for p, r in [(3, 2), (5, 7), (7, 8), (5, 24), (5, 26), (7, 19)]:
        q = quotient_group(p, r)
        assert is_group_table(q.table)


def test_quotient_size_limit():
    # the table has cosets^2 entries: 1 + 3^8 (4374 cosets, 4 s) passes and
    # 1 + 3^10 (39366) is refused, while its cosets stay available
    assert 4374 <= QUOTIENT_MAX_COSETS < 39366
    assert len(quotient_group(3, 1 + 3**7).table) == 1458
    q = quotient_group(3, 1 + 3**10)
    assert q.order == 39366 and q.coset_index(q.section(7)) == 7
    with pytest.raises(CapExceededError):
        q.table


def test_quotient_table_is_two_bytes_per_cell():
    # 1458^2 cells of 2 bytes are 4.25 MB, against about 17 MB for tuples of ints
    q = quotient_group(3, 1 + 3**7)
    tracemalloc.start()
    try:
        q.table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    assert sum(len(row) for row in q.table) == q.order**2 == 1458**2


def test_quotient_table_is_read_only():
    q = quotient_group(5, 7)
    with pytest.raises(TypeError):
        q.table[0][0] = 1
    with pytest.raises(TypeError):
        q.table[0] = (0,) * q.order
    assert q.table[0][0] == 0


def test_a_quotient_with_its_table_read_pickles_and_copies():
    q = quotient_group(5, 7)
    rows = tuple(map(tuple, q.table))
    for twin in (pickle.loads(pickle.dumps(q)), copy.deepcopy(q), copy.copy(q)):
        assert twin == q and tuple(map(tuple, twin.table)) == rows


def test_quotient_table_reads_like_a_tuple_of_rows():
    rng = random.Random(22)
    for p, r in [(5, 7), (3, 1 + 3**7)]:
        q = quotient_group(p, r)
        table, n, modulus = q.table, q.order, p**q.level
        assert table[-1] == table[n - 1]
        with pytest.raises(IndexError):
            table[n]
        assert table[2:5] == (table[2], table[3], table[4])
        assert quotient_group(p, r).table == quotient_group(p, r).table
        # the key-product reference: the coset of a * b has the key key(a) * key(b)
        keys = [pow(rep, q.subgroup.order, modulus) for rep in q.coset_reps]
        index = {key: i for i, key in enumerate(keys)}
        for a in [0, 1, n - 1, *(rng.randrange(n) for _ in range(20))]:
            assert table[a] == tuple(index[keys[a] * key % modulus] for key in keys)


def test_quotient_table_keeps_no_cells():
    # 4374 cosets: two lists of 4374 entries and one row, where 4374^2 stored cells took 38 MB
    q = quotient_group(3, 1 + 3**8)
    tracemalloc.start()
    try:
        q.table[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert q.table[0] == tuple(range(q.order)) and q.order == 4374


def test_quotient_scan_limit():
    # cosets are listed up to 1 + 3^12 (354294 of them) and refused from
    # 1 + 3^13 (1062882) on, before any is listed
    assert 354294 <= QUOTIENT_MAX_SCAN < 1062882
    for k in (13, 17, 40):
        start = time.process_time()
        with pytest.raises(CapExceededError, match="listing limit"):
            quotient_group(3, 1 + 3**k)
        assert time.process_time() - start < 0.5


def test_quotient_index_stability():
    for p, r in [(3, 2), (5, 7), (7, 3)]:
        threshold = find_nr(p, r)
        indexes = {
            group_size(p, level) // unit_order(p, level, r)
            for level in range(threshold, threshold + 4)
        }
        assert len(indexes) == 1


def test_order_and_subgroup_accept_exact_specs():
    assert unit_order(5, 2, ExactInt(7)) == 4
    assert subgroup(5, 2, TeichProduct(2)).order == 4
    with pytest.raises(InsufficientPrecisionError):
        unit_order(5, 3, Digits((2, 1)))


def test_the_threshold_takes_no_cap():
    # the tower gives the threshold in closed form, so no level bound is taken
    for call in (
        lambda: find_nr(5, 59, cap=0),
        lambda: quotient_group(5, 7, cap=3),
        lambda: classify(5, 7, cap=3),
        lambda: supernatural_order(3, 10, cap=3),
    ):
        with pytest.raises(TypeError, match="cap"):
            call()
    assert find_nr(5, 59) == 2 and find_nr(5, 7) == 3


def test_the_coset_index_reuses_the_keys_of_the_scan(monkeypatch):
    calls = []
    key = CyclicSubgroup._key
    monkeypatch.setattr(CyclicSubgroup, "_key", lambda sub, k: calls.append(k) or key(sub, k))
    for p, r in ((3, 2), (3, 1 + 3**4), (5, 7), (7, 1 + 2 * 7**2), (11, 12)):
        quotient = quotient_group(p, r)
        expected = {key(quotient.subgroup, rep): j for j, rep in enumerate(quotient.coset_reps)}
        calls.clear()
        assert quotient._index == expected
        assert [quotient.coset_index(rep) for rep in quotient.coset_reps] == list(range(quotient.order))
        assert calls == list(quotient.coset_reps)


def _coset_oracle(p, level, r):
    """The least unit of each coset of the powers of r in U_level, increasing, and
    each unit's coset index, read from oracles.power_walk alone."""
    modulus = p**level
    members = power_walk(p, level, r)
    reps, index = [], {}
    for k in range(1, modulus):
        if k % p and k not in index:
            index.update(dict.fromkeys((k * h % modulus for h in members), len(reps)))
            reps.append(k)
    return reps, index, frozenset(members)


def _check_against_the_coset_oracle(sub, r):
    p, level, modulus = sub.p, sub.level, sub.p**sub.level
    reps, index, members = _coset_oracle(p, level, r)
    quotient = QuotientGroup.of(sub)
    assert quotient.coset_reps == tuple(reps)
    assert [quotient.section(j) for j in range(quotient.order)] == reps
    for k, j in index.items():
        assert quotient.coset_index(k) == j and quotient.coset_index(k - modulus) == j
    assert [k in sub for k in range(1, modulus) if k % p] == [
        k in members for k in range(1, modulus) if k % p
    ]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_cosets_match_an_oracle_built_from_the_power_walk(p):
    # every residue mod p (so every order d dividing p - 1, 1 and p - 1 among them),
    # -1, and units 1 + p^j and 2 (1 + p^2) whose order gains factors of p at depth
    pool = [*range(2, p), -1, 1 + p, 1 + p**2, 1 + p**3, 2 * (1 + p**2)]
    orders = set()
    for level in range(1, 5):
        for r in pool:
            sub = subgroup(p, level, r)
            orders.add(gcd(sub.order, p - 1))
            _check_against_the_coset_oracle(sub, r)
    assert orders == {d for d in range(1, p) if (p - 1) % d == 0}


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_case_two_cosets_match_the_oracle(p):
    # orbit_decompose reads a root of unity's cosets mod p, from its classify order
    for i in range(2, p):
        for sign in (1, -1):
            if (i, sign) == (p - 1, -1):
                continue
            m = Multiplier.of(TeichProduct(i, sign), p)
            sub = CyclicSubgroup(p, 1, m.residue(1), classify(p, m).order)
            _check_against_the_coset_oracle(sub, sign * i)
            reps, index, _ = _coset_oracle(p, 1, sign * i)
            for x in (1, 2, p - 1, 7 * p**2 + 3, -5):
                if x % p:
                    dec = orbit_decompose(p, TeichProduct(i, sign), x, precision=3)
                    assert dec.coset_index == index[x % p]
                    assert dec.section_value % p == reps[dec.coset_index]


def test_a_quotient_past_the_scan_limit_is_refused_before_any_scan(monkeypatch):
    # 1 + 3^13 at level 14 (d = 1) and -(1 + 3^13) at level 15 (d = 2) leave
    # 2 * 3^12 and 3^12 cosets, both above the limit
    subs = [subgroup(3, 14, 1 + 3**13), subgroup(3, 15, -(1 + 3**13))]
    assert [gcd(sub.order, 2) for sub in subs] == [1, 2]
    calls = []
    monkeypatch.setattr(unit_groups, "pow", lambda *args: calls.append(args) or pow(*args), raising=False)
    for sub in subs:
        with pytest.raises(CapExceededError, match="listing limit"):
            QuotientGroup.of(sub)
    assert calls == []


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_kept_scans_match_a_fresh_scan_and_the_coset_oracle(p):
    # a subgroup of every order of U_M, M <= 4, quotiented twice: the second quotient
    # reads the kept scan, which must be the fresh scan's and the oracle's cosets
    for level in range(1, 5):
        size, modulus = group_size(p, level), p**level
        g = find_primitive_root(p, level)
        for order in (n for n in range(1, size + 1) if size % n == 0):
            generator = pow(g, size // order, modulus)
            sub = subgroup(p, level, generator)
            first, kept = QuotientGroup.of(sub), QuotientGroup.of(sub)
            reps, index = unit_groups._scan.__wrapped__(p, *sub._modulus)
            assert sub.order == order and (kept.coset_reps, kept._index) == (reps, index)
            shared = first.coset_reps is kept.coset_reps and first._index is kept._index
            assert shared == (len(reps) <= QUOTIENT_MAX_COSETS)
            _check_against_the_coset_oracle(sub, generator)
            if len(reps) <= QUOTIENT_MAX_COSETS:
                oracle_reps, oracle_index, _ = _coset_oracle(p, level, generator)
                fresh = QuotientGroup(p, level, sub, reps, index)
                for a in {0, len(reps) // 2, len(reps) - 1}:
                    row = tuple(oracle_index[oracle_reps[a] * b % modulus] for b in oracle_reps)
                    assert kept.table[a] == fresh.table[a] == row


def test_multipliers_of_one_order_share_one_scan():
    # 1 + 3^8 and 1 - 3^8 both have order 3 at their threshold 9: one scan of 4374 cosets
    ours, theirs = quotient_group(3, 1 + 3**8), quotient_group(3, 1 - 3**8)
    assert ours.subgroup != theirs.subgroup and ours.subgroup.order == theirs.subgroup.order == 3
    assert ours.coset_reps is theirs.coset_reps and ours._index is theirs._index
    assert ours.subgroup.generator == 1 + 3**8 and theirs.subgroup.generator == 3**9 + 1 - 3**8
    with pytest.raises(TypeError):
        ours._index[1] = 5


def test_a_scan_above_the_table_limit_is_not_kept():
    # 1 + 3^9 leaves 13,122 cosets, above QUOTIENT_MAX_COSETS: scanned on every call
    kept = unit_groups._scan.cache_info().currsize
    first, second = quotient_group(3, 1 + 3**9), quotient_group(3, 1 + 3**9)
    assert first.order == 13122 > QUOTIENT_MAX_COSETS
    assert first.coset_reps == second.coset_reps and first.coset_reps is not second.coset_reps
    assert unit_groups._scan.cache_info().currsize == kept


def test_a_float_level_reads_no_kept_scan():
    # CyclicSubgroup(3, 2.0, 2, 6) builds, and its quotient's range over a float step
    # raises as before the scan was kept, also once the int step's scan is kept
    QuotientGroup.of(subgroup(3, 2, 2))
    sub = CyclicSubgroup(3, 2.0, 2, 6)
    for _ in range(2):
        with pytest.raises(TypeError):
            QuotientGroup.of(sub)


def _exact_valuation(p, x):
    v = 0
    while x % p == 0:
        x, v = x // p, v + 1
    return v


def test_the_threshold_is_one_past_the_depth_of_r_to_its_order_mod_p():
    # find_nr reads v_p(r^(p-1) - 1); by lifting the exponent it equals
    # v_p(r^d - 1) for the order d of r mod p, computed here with exact integers
    pairs = 0
    for p in (3, 5, 7, 11, 13, 101, 1009):
        deep = [1 + (1 + k % 3) * p**k for k in range(1, 71)]
        for r in (*range(2, 400), *deep, -1 + p**5):
            if r % p:
                d = lagrange_order(p, 1, r)
                assert find_nr(p, r) - 1 == _exact_valuation(p, r**d - 1), (p, r)
                pairs += 1
    assert pairs == 2945


def test_classify_and_quotient_factor_p_minus_1_once(monkeypatch):
    # the threshold reads no factoring, so only the order mod p factors p - 1;
    # and Case I reads the depth once, as its order at the threshold is d * p
    calls, depths = [], []
    order_primes, depth = unit_groups._order_primes, unit_groups._depth

    def counted(p):
        calls.append(p)
        return order_primes(p)

    def counted_depth(p, r, known):
        if known != 1:  # a depth mod p is the order mod p, not a second read
            depths.append(p)
        return depth(p, r, known)

    monkeypatch.setattr(unit_groups, "_order_primes", counted)
    monkeypatch.setattr(unit_groups, "_depth", counted_depth)
    for p, r, case, reads, depth_reads in (
        (3, 2, CaseI, 1, 1),
        (5, 7, CaseI, 1, 1),
        (7, 1 + 3 * 7**60, CaseI, 1, 1),
        (3, 1 + 3**64, CaseI, 1, 1),
        (5, Digits((2, 1, 0)), CaseI, 1, 1),
        (5, -1, CaseII, 1, 0),
        (5, TeichProduct(2), CaseII, 1, 0),
        (5, Digits((4, 4)), CaseII, 1, 0),
        (3, 6, CaseIII, 0, 0),
    ):
        calls.clear()
        depths.clear()
        assert type(classify(p, r)) is case
        assert len(calls) == reads, (p, r)
        assert len(depths) == depth_reads, (p, r)
    for p, r in ((3, 2), (5, 7), (7, 1 + 3 * 7**2)):
        calls.clear()
        quotient_group(p, r)
        assert calls == [p]
