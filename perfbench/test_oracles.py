"""Tests for the benchmark's oracles: agreement with brute force, and
rejection of deliberately wrong values, so that no check is vacuous.
Also the tracer's self-time arithmetic and its clean uninstall.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles as O  # noqa: E402
import padicmult as pm  # noqa: E402
import workloads  # noqa: E402

CASES = [(p, r) for p in (3, 5, 7) for r in range(2, p * p + 1)]
UNITS = [(p, r) for p, r in CASES if r % p]


def brute_order(p: int, level: int, r: int) -> int:
    modulus = p**level
    current, order = r % modulus, 1
    while current != 1:
        current = current * r % modulus
        order += 1
    return order


def brute_threshold(p: int, r: int) -> int:
    return next(m for m in range(1, 20) if brute_order(p, m, r) % p == 0)


def brute_subgroup(p: int, level: int, r: int) -> list[int]:
    modulus = p**level
    elements, current = [1], r % modulus
    while current != 1:
        elements.append(current)
        current = current * r % modulus
    return sorted(elements)


def brute_quotient(p: int, r: int) -> SimpleNamespace:
    """The quotient at the threshold by enumerating the subgroup's cosets."""
    level = brute_threshold(p, r)
    modulus = p**level
    sub = brute_subgroup(p, level, r)
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for k in range(1, modulus):
        if k % p and k not in coset_of:
            for g in sub:
                coset_of[k * g % modulus] = len(reps)
            reps.append(k)
    table = tuple(tuple(coset_of[a * b % modulus] for b in reps) for a in reps)
    return SimpleNamespace(
        level=level,
        subgroup=SimpleNamespace(order=len(sub), elements=tuple(sub)),
        coset_reps=tuple(reps),
        table=table,
        order=len(reps),
    )


def rejects(check, *args) -> None:
    with pytest.raises(O.OracleError):
        check(*args)


# --- orders and thresholds ---------------------------------------------------------


@pytest.mark.parametrize("p,r", UNITS)
def test_threshold_and_orders_match_brute_force(p, r):
    assert O.threshold(p, r) == brute_threshold(p, r)
    for level in range(1, 5):
        d = brute_order(p, level, r)
        assert O.unit_order(p, level, r) == d
        O.check_order(p, level, r, d)


@pytest.mark.parametrize("p,r", UNITS)
def test_order_check_rejects_wrong_orders(p, r):
    level = 3
    d = brute_order(p, level, r)
    rejects(O.check_order, p, level, r, d * p)  # a multiple: r^d = 1 but not minimal
    rejects(O.check_order, p, level, r, d * 2 if d % 2 else d * 3)
    if d > 1:
        rejects(O.check_order, p, level, r, d - 1)
        rejects(O.check_order, p, level, r, 1)


def test_threshold_rejects_off_by_one():
    for p, r in UNITS:
        m = brute_threshold(p, r)
        verdict = pm.CaseI(m + 1, brute_order(p, m + 1, r))
        rejects(O.check_verdict, verdict, O.expected_verdict(p, r), True, "off by one")


def test_threshold_of_deep_multipliers_is_closed_form():
    for p, k in ((3, 64), (5, 70), (43, 100)):
        assert O.threshold(p, 1 + 2 * p**k) == k + 1
    assert O.threshold(5, -1) is None


def test_prime_factors():
    for n in range(1, 2000):
        factors = O.prime_factors(n)
        product = 1
        for q, e in factors.items():
            assert all(q % d for d in range(2, q))
            product *= q**e
        assert product == n


# --- classification and K-groups ---------------------------------------------------


@pytest.mark.parametrize("p,r", CASES)
def test_verdicts_agree_with_brute_force_and_library(p, r):
    expected = O.expected_verdict(p, r)
    if r % p == 0:
        v, u = 0, r
        while u % p == 0:
            u //= p
            v += 1
        assert expected == ("III", v, u % p**6, 6)
    else:
        m = brute_threshold(p, r)
        assert expected == ("I", m, brute_order(p, m, r))
    O.check_verdict(pm.classify(p, r), expected, True, f"p={p} r={r}")


def test_verdict_check_rejects_wrong_flag_and_case():
    rejects(O.check_verdict, pm.CaseI(2, 6, exact=False), ("I", 2, 6), True, "flag")
    rejects(O.check_verdict, pm.CaseII(2), ("I", 2, 6), True, "case")
    rejects(O.check_verdict, pm.CaseIII(1, 2, 6), ("III", 1, 2, 5), True, "precision")


def test_supernatural_text():
    assert O.supernatural_text(3, 6) == "2*3^inf"
    assert O.supernatural_text(5, 20) == "2^2*5^inf"
    assert O.supernatural_text(7, 7) == "7^inf"


@pytest.mark.parametrize("p,r", CASES)
def test_k_groups_match_library(p, r):
    expected = O.expected_verdict(p, r)
    verdict = pm.classify(p, r)
    O.check_k_groups(p, expected, "algebra", *pm.algebra_k_groups(verdict, p), "")
    if expected[0] == "I":
        O.check_k_groups(p, expected, "ideal", *pm.ideal_k_groups(verdict, p), "")
        assert str(pm.supernatural_order(p, r)) == O.supernatural_text(p, expected[2])


def test_k_groups_of_roots_of_unity():
    for p, i in ((5, 2), (7, 3), (7, 2), (3, 2)):
        spec = pm.TeichProduct(i)
        expected = ("II", O.residue_order_mod_p(p, i))
        verdict = pm.classify(p, spec)
        O.check_verdict(verdict, expected, True, "")
        O.check_k_groups(p, expected, "algebra", *pm.algebra_k_groups(verdict, p), "")
        O.check_k_groups(p, expected, "ideal", *pm.ideal_k_groups(verdict, p), "")
        O.check_k_groups(p, expected, "algebra-primed", *pm.primed_algebra_k_groups(verdict, p), "")
        O.check_k_groups(p, expected, "ideal-primed", *pm.ideal_k_groups(verdict, p, primed=True), "")


def test_k_group_check_rejects_wrong_atoms():
    expected = ("I", 2, 6)
    rejects(O.check_k_groups, 3, expected, "algebra", "c0(Z>=0, H(2*3^inf))", "Z", "missing atom")
    rejects(O.check_k_groups, 3, expected, "algebra", "c0(Z>=0, H(3^inf)) (+) Z", "Z (+) c0(Z>=0, Z)", "S")
    rejects(O.check_k_groups, 3, ("III", 1, 2, 6), "algebra", "C(Z_9^x, Z)", "0", "base")
    rejects(O.check_k_groups, 5, ("II", 4), "algebra-primed", "c0(Z>=0 x Zp, Z) (+) Z^2", "0", "rank")
    O.check_k_groups(3, expected, "algebra", "Z (+) c0(Z>=0, H(2*3^inf))", "c0(Z>=0, Z) (+) Z", "order")


# --- Teichmuller lifts ----------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7])
def test_teichmuller_check_matches_brute_force(p):
    for level in (1, 2, 3):
        modulus = p**level
        for i in range(1, p):
            roots = [w for w in range(modulus) if w % p == i and pow(w, p - 1, modulus) == 1]
            assert len(roots) == 1
            O.check_teichmuller(p, i, level, roots[0])
            assert pm.teichmuller(p, i, level) == roots[0]
            if level > 1:
                wrong_digit = (roots[0] + p ** (level - 1)) % modulus
                rejects(O.check_teichmuller, p, i, level, wrong_digit)
            rejects(O.check_teichmuller, p, i, level, roots[0] + modulus)


# --- quotients and orbit decompositions ------------------------------------------------


@pytest.mark.parametrize("p,r", UNITS)
def test_quotient_check_accepts_brute_force_and_library(p, r):
    O.check_quotient(p, r, brute_quotient(p, r))
    O.check_quotient(p, r, pm.quotient_group(p, r))


def test_quotient_check_rejects_wrong_quotients():
    for p, r in ((5, 7), (7, 19), (5, 26), (7, 18)):
        good = brute_quotient(p, r)
        assert good.order > 2
        table = [list(row) for row in good.table]
        table[1][1], table[1][2] = table[1][2], table[1][1]
        rejects(O.check_quotient, p, r, SimpleNamespace(**{**vars(good), "table": tuple(map(tuple, table))}))
        reps = list(good.coset_reps)
        reps[1], reps[2] = reps[2], reps[1]
        rejects(O.check_quotient, p, r, SimpleNamespace(**{**vars(good), "coset_reps": tuple(reps)}))
        modulus = p**good.level
        bigger = list(good.coset_reps)
        bigger[1] = bigger[1] * r % modulus  # same coset, not its least element
        rejects(O.check_quotient, p, r, SimpleNamespace(**{**vars(good), "coset_reps": tuple(bigger)}))
        rejects(O.check_quotient, p, r, SimpleNamespace(**{**vars(good), "level": good.level + 1}))
        sub = SimpleNamespace(order=good.subgroup.order * p, elements=good.subgroup.elements)
        rejects(O.check_quotient, p, r, SimpleNamespace(**{**vars(good), "subgroup": sub}))


@pytest.mark.parametrize("p,r", [(3, 2), (5, 7), (7, 19), (5, 26), (3, 10)])
def test_orbit_check_accepts_library_and_rejects_wrong_parts(p, r):
    quotient = pm.quotient_group(p, r)
    for x in (1, 2, -5, 1715, 3**4 * 11, 99991):
        precision = quotient.level + 2
        dec = pm.orbit_decompose(p, r, x, precision=precision)
        recomposed = dec.recompose(r)
        O.check_orbit_decomposition(p, r, x, precision, dec, quotient.coset_reps, recomposed)
        modulus = p**precision
        wrong_tail = SimpleNamespace(**{**vars(dec), "tail": dec.tail * 2 % modulus})
        rejects(O.check_orbit_decomposition, p, r, x, precision, wrong_tail, quotient.coset_reps, recomposed)
        wrong_exponent = SimpleNamespace(**{**vars(dec), "p_exponent": dec.p_exponent + 1})
        rejects(O.check_orbit_decomposition, p, r, x, precision, wrong_exponent, quotient.coset_reps, recomposed)
        rejects(O.check_orbit_decomposition, p, r, x, precision, dec, quotient.coset_reps, recomposed + 1)


def test_tail_check_uses_membership_not_the_quotient():
    # (5, 7): tail must lie in <7> mod 5^3, of index 5; 2 is a unit outside it
    p, r, precision = 5, 7, 3
    modulus = p**precision
    assert pow(2, O.unit_order(p, precision, r), modulus) != 1
    dec = SimpleNamespace(case="I", p_exponent=0, precision=precision, coset_index=0, section_value=1, tail=2)
    rejects(O.check_orbit_decomposition, p, r, 2, precision, dec, (1, 2, 3, 4, 6), 2)


# --- functions and operator entries -----------------------------------------------------


def brute_alpha(fn: O.Fn, r: int) -> list:
    """alpha_r f at y is f(x) for the x with r x = y, else 0, by enumeration."""
    n = O.p_valuation(fn.p, r)[0]
    modulus = fn.p ** (fn.level + n)
    image = {r * x % modulus: fn(x) for x in range(fn.modulus)}
    return [image.get(y, O.ZERO) for y in range(modulus)]


@pytest.mark.parametrize("p", [3, 5])
def test_alpha_matches_brute_force_and_library(p):
    import random

    rng = random.Random(p)
    for r in (2, p + 1, -1, p, 2 * p, p * p, -4 * p):
        for _ in range(4):
            fn, f = workloads.random_fn(rng, p, rng.randint(0, 2))
            alpha = fn.alpha(r)
            assert alpha.values == brute_alpha(fn, r)
            lib = pm.alpha_endo(f, r)
            assert lib.level == alpha.level
            assert [O.scalar_pair(s) for s in lib.values] == alpha.values


def test_entry_check_rejects_changed_missing_and_extra_entries():
    basis = [pm.WinZ(k) for k in range(3)]
    op = pm.TruncatedOp.build(basis, basis, {(pm.WinZ(1), pm.WinZ(0)): 1, (pm.WinZ(2), pm.WinZ(1)): pm.Scalar(Fraction(1, 2), 1)})
    good = {(("W", 1), ("W", 0)): O.ONE, (("W", 2), ("W", 1)): (Fraction(1, 2), Fraction(1))}
    O.check_entries(op, good, "")
    O.check_entries(op, {**good, (("W", 0), ("W", 0)): O.ZERO}, "zero stands for absent")
    rejects(O.check_entries, op, {**good, (("W", 2), ("W", 1)): (Fraction(1, 2), Fraction(-1))}, "")
    rejects(O.check_entries, op, {(("W", 1), ("W", 0)): O.ONE}, "")
    rejects(O.check_entries, op, {**good, (("W", 0), ("W", 2)): O.ONE}, "")


def test_operator_ops_pass_and_catch_a_wrong_diagonal():
    import random

    rng = random.Random(0)
    ops = [
        workloads.orbit_covariance(rng, 5, 6), workloads.cyclic_covariance(rng, 7),
        workloads.digit_covariance(rng, 3, 2), workloads.index_covariance(rng, 3, 1, 10),
        workloads.intertwining(rng, 3, 2), workloads.isometry(rng, "orbit", 5, 5),
        workloads.isometry(rng, "cyclic", 7, 0), workloads.matrix_units(rng, 5, 4, None),
    ]
    for op in ops:
        op.check(op.run())
    op = workloads.orbit_covariance(random.Random(1), 5, 6)
    shift, diag, diag_alpha, ok, lhs = op.run()
    rejects(op.check, (shift, diag_alpha, diag_alpha, ok, lhs))
    rejects(op.check, (shift, diag, diag_alpha, False, lhs))


# --- verify output ------------------------------------------------------------------------


def verify_doc(**change) -> tuple[int, str]:
    results = [
        {"suite": suite, "property": name, "passed": 3, "failed": 0, "failures": []}
        for suite, names in workloads.PROPERTIES.items()
        for name in names
    ]
    doc = {"status": "ok", "results": results}
    code = change.pop("code", 0)
    for key, value in change.items():
        results[0][key] = value
    return code, json.dumps(doc)


def test_verify_check_accepts_complete_output_and_rejects_gaps():
    argv = ["verify"]
    assert workloads.check_verify_output(verify_doc(), argv) == 3 * 36
    rejects(workloads.check_verify_output, verify_doc(passed=0), argv)
    rejects(workloads.check_verify_output, verify_doc(failed=1), argv)
    rejects(workloads.check_verify_output, verify_doc(code=1), argv)
    rejects(workloads.check_verify_output, verify_doc(property="renamed"), argv)
    code, text = verify_doc()
    doc = json.loads(text)
    doc["results"] = [r for r in doc["results"] if r["suite"] != "ktheory"]
    rejects(workloads.check_verify_output, (code, json.dumps(doc)), argv)


def test_sweep_rows_pass_on_one_round():
    ops = workloads.sweep_round(7)
    capped = [op for op in ops if op.expect_cap]
    assert len(capped) == len(workloads.CAPPED)
    for op in ops:
        if op.expect_cap:
            with pytest.raises(pm.DomainError):
                op.run()
        else:
            op.check(op.run())


# --- tracer ---------------------------------------------------------------------------------


def test_tracer_counts_self_time_and_restores_originals():
    import tracing
    from padicmult import classification, unit_groups, verify

    originals = (pm.unit_order, unit_groups.unit_order, classification.unit_order, pm.Scalar.__post_init__)
    tracer = tracing.Tracer()
    tracer.install(pm, verify.SUITES)
    try:
        assert classification.unit_order is not originals[2]
        pm.classify(5, 7)
        pm.quotient_group(5, 7)
        pm.Scalar(1)
    finally:
        tracer.uninstall()
    assert (pm.unit_order, unit_groups.unit_order, classification.unit_order, pm.Scalar.__post_init__) == originals
    calls, total, self_time = tracer.totals()
    # classify -> find_nr -> unit_order per level, then unit_order at the threshold
    assert calls["classification.classify"] == 1
    assert calls["unit_groups.find_nr"] == 2  # classify's and quotient_group's
    assert calls["unit_groups.quotient_group"] == 1 and calls["unit_groups.subgroup"] == 1
    assert tracer.counts["unit_groups.quotient_group.table_cells"] == 25
    assert tracer.counts["unit_groups.subgroup.elements"] == 20
    assert tracer.counts["scalars.created"] == 1
    for name in calls:
        assert 0 <= self_time[name] <= total[name] + 1e-9
    assert self_time["classification.classify"] < total["classification.classify"]
