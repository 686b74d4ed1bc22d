"""Acceptance criteria, one test per criterion, all with exact arithmetic.

Each test prints a single pass/fail line (run with ``pytest -s`` to see them
on success).  The heavy property sweeps reuse the verify suites at pinned
bounds; every tolerance here is zero.
"""

import pytest

from padicmult import (
    TeichProduct,
    algebra_k_groups,
    check_matrix_units,
    classify,
    hs_k_groups,
    ideal_k_groups,
    primed_algebra_k_groups,
    quotient_group,
    subgroup,
    unit_order,
)
from padicmult.ktheory import Free
from padicmult.oracles import is_group_table
from padicmult.verify import (
    COVARIANCE_SAMPLES,
    ENDO_SAMPLES,
    SYMBOL_SAMPLES,
    Bounds,
    run_suites,
)

BOUNDS = Bounds(max_p=7, max_level=6, max_len=3, window=8, seed=0)


def _by_name(results):
    return {result.name: result for result in results}


@pytest.fixture(scope="module")
def orders_results():
    return _by_name(run_suites(["orders"], BOUNDS))


@pytest.fixture(scope="module")
def reps_results():
    return _by_name(run_suites(["reps"], BOUNDS))


def _report(number: int, title: str, ok: bool) -> None:
    print(f"acceptance {number:02d} {title}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({title}) failed"


def _clean(result) -> bool:
    return result.failed == 0 and result.passed > 0


def test_criterion_01_order_doubling(orders_results):
    doubling = orders_results["order-doubling-past-threshold"]
    oracle = orders_results["fast-path-matches-oracle"]
    threshold = orders_results["threshold-matches-oracle"]
    _report(1, "order doubling", all(map(_clean, (doubling, oracle, threshold))))


def test_criterion_02_subgroup_lifting():
    results = _by_name(run_suites(["subgroups"], BOUNDS))
    _report(2, "subgroup lifting", _clean(results["lifting-by-exhaustion"]))


def test_criterion_03_quotient_finiteness_and_stability():
    results = _by_name(run_suites(["quotients"], BOUNDS))
    spots = (
        quotient_group(3, 2).order == 1
        and quotient_group(5, 7).order == 5
        and is_group_table(quotient_group(5, 7).table)
    )
    ok = spots and all(_clean(r) for r in results.values())
    _report(3, "quotient finiteness and stability", ok)


def test_criterion_04_teichmuller_suite():
    results = _by_name(run_suites(["teich"], BOUNDS))
    _report(4, "root-of-unity lift suite", all(_clean(r) for r in results.values()))


def test_criterion_05_endomorphism_identities():
    results = _by_name(run_suites(["endos"], BOUNDS))
    section = results["beta-after-alpha-is-identity"]
    inverse = results["alpha-after-beta-is-identity-for-units"]
    ok = section.passed == ENDO_SAMPLES and section.failed == 0 and _clean(inverse)
    _report(5, "endomorphism identities", ok)


def test_criterion_06_covariance_families(reps_results):
    families = [
        "covariance-orbit-window",
        "covariance-cyclic",
        "covariance-digit-words",
        "covariance-index-shift",
    ]
    ok = all(
        reps_results[name].failed == 0
        and reps_results[name].passed == COVARIANCE_SAMPLES
        for name in families
    )
    _report(6, "covariance on all four families", ok)


def test_criterion_07_orbit_periodicity(reps_results):
    spot = unit_order(5, 2, 7) == 4 and unit_order(5, 3, 7) == 20
    period = reps_results["orbit-diagonal-period-is-subgroup-order"]
    ok = spot and _clean(period) and subgroup(5, 3, 7).order == 20
    _report(7, "orbit diagonal periodicity", ok)


def test_criterion_08_matrix_unit_identity(reps_results):
    direct = check_matrix_units(5, TeichProduct(2)) and check_matrix_units(7, TeichProduct(3))
    ok = direct and _clean(reps_results["matrix-unit-form-of-the-shift"])
    _report(8, "matrix-unit form of the cyclic shift", ok)


def test_criterion_09_digit_equivalence():
    results = _by_name(run_suites(["digits"], BOUNDS))
    needed = [
        "words-biject-onto-residues",
        "digit-shift-raises-kappa",
        "index-shift-conjugates-to-digit-shift",
        "conjugated-diagonal-matches-composition",
    ]
    _report(9, "digit-shift equivalence", all(_clean(results[name]) for name in needed))


def test_criterion_10_ktheory_descriptors():
    k0, k1 = algebra_k_groups(classify(3, 2), 3)
    strings = str(k0) == "c0(Z>=0, H(2*3^inf)) (+) Z" and str(k1) == "Z (+) c0(Z>=0, Z)"
    pk0, pk1 = primed_algebra_k_groups(classify(5, TeichProduct(2)), 5)
    strings = strings and str(pk0) == "c0(Z>=0 x Zp, Z) (+) Z^4" and str(pk1) == "0"
    hk0, hk1 = algebra_k_groups(classify(3, 6), 3)
    strings = strings and str(hk0) == "C(Z_3^x, Z)" and str(hk1) == "0"
    strings = strings and algebra_k_groups(classify(3, 6), 3) == hs_k_groups(3)

    split = True
    for p, spec in [(3, 2), (5, 7), (5, TeichProduct(2)), (3, -1)]:
        verdict = classify(p, spec)
        ak0, ak1 = algebra_k_groups(verdict, p)
        ik0, ik1 = ideal_k_groups(verdict, p)
        split = split and ak0 == ik0 + Free(1) and ak1 == ik1 + Free(1)
    suite = all(_clean(r) for r in _by_name(run_suites(["ktheory"], BOUNDS)).values())
    _report(10, "K-group descriptors", strings and split and suite)


def test_criterion_11_ideal_membership_symbols(reps_results):
    membership = reps_results["symbol-vanishes-iff-coefficients-do"]
    product = reps_results["symbol-of-product-is-product-of-symbols"]
    ok = (
        membership.failed == 0
        and membership.passed >= SYMBOL_SAMPLES
        and product.failed == 0
        and product.passed == SYMBOL_SAMPLES
    )
    _report(11, "kernel-ideal membership via symbols", ok)
