import ast
import itertools
import random
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from pathlib import Path

import pytest

from padicmult import ExactInt, LocallyConstantFn, Scalar, TeichProduct, quotient_group, unit_groups, verify
from padicmult.errors import DomainError, NotAUnitError
from padicmult.oracles import coefficients_vanish, is_group_table, lagrange_order, power_walk
from padicmult.unit_groups import unit_order_naive
from padicmult.verify import (
    SYMBOL_SAMPLES,
    Bounds,
    PropertyResult,
    SUITES,
    _pool,
    _reps_symbols,
    _reps_decompose,
    random_scalar,
    run_suites,
    suite_orders,
    suite_subgroups,
)

SMALL = Bounds(max_p=5, max_level=3, max_len=3, window=4)


def tally(checks) -> dict[str, PropertyResult]:
    """The reps helpers' (property, ok, detail) checks as rows, by property."""
    rows = {}
    for name, ok, detail in checks:
        rows.setdefault(name, PropertyResult("reps", name)).check(ok, detail)
    return rows


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_suite_is_clean_at_small_bounds(name):
    results = run_suites([name], SMALL)
    assert results, "suite produced no properties"
    for result in results:
        assert result.failed == 0, (result.name, result.failures)


def test_symbol_membership_counts_cancelling_terms():
    f = LocallyConstantFn(3, 1, (1, 2, 0))
    g = LocallyConstantFn.constant(3, -1)
    assert coefficients_vanish([(3, f), (3, g)])
    assert not coefficients_vanish([(3, f), (2, g)])
    # seed 11 draws two terms of frequency 3 whose values at 0 cancel
    membership = tally(_reps_symbols(Bounds(seed=11)))["symbol-vanishes-iff-coefficients-do"]
    assert membership.failed == 0 and membership.passed > SYMBOL_SAMPLES


def test_run_suites_rejects_unknown_names():
    with pytest.raises(DomainError):
        run_suites(["orders", "nope"], SMALL)


def test_property_result_collects_failures():
    result = PropertyResult("s", "n")
    for i in range(8):
        result.check(False, f"detail {i}")
    result.check(True)
    assert result.passed == 1 and result.failed == 8
    assert len(result.failures) == 5


def test_a_check_under_an_undeclared_property_raises(monkeypatch):
    monkeypatch.setattr(verify, "SUITES", {})

    @verify.suite("spelling", "declared", "unchecked")
    def spelling(bounds):
        yield "declared", True, ""
        yield "decalred", False, "misspelt"

    assert verify.SUITES == {"spelling": spelling}
    with pytest.raises(KeyError, match="decalred"):
        spelling(SMALL)


def test_digits_suite_pinning():
    pinned = Bounds(max_len=3, p=3, r=ExactInt(6))
    results = run_suites(["digits"], pinned)
    assert all(r.failed == 0 for r in results)
    with pytest.raises(DomainError):
        run_suites(["digits"], Bounds(p=3))
    with pytest.raises(DomainError):
        run_suites(["digits"], Bounds(p=5, r=TeichProduct(2)))


def test_seed_changes_samples_but_not_health():
    a = run_suites(["endos"], Bounds(seed=1))
    b = run_suites(["endos"], Bounds(seed=2))
    assert all(r.failed == 0 for r in a + b)


# (passed at max_p 3, passed at max_p 5) of each property of `run_suites(all,
# Bounds(max_p=P, max_level=3))`; no property fails.  At 3 the configs over 5
# and 7 are skipped, so the cyclic, periodicity and matrix-unit properties
# check nothing.
COVERAGE = {
    "orders/fast-path-matches-oracle": (20, 96),
    "orders/threshold-matches-oracle": (5, 24),
    "orders/order-doubling-past-threshold": (9, 44),
    "orders/orders-divide-upward": (15, 72),
    "subgroups/lifting-by-exhaustion": (9, 44),
    "subgroups/subgroup-order-divides-group": (15, 72),
    "subgroups/primitive-root-lifting": (3, 6),
    "quotients/index-stable-past-threshold": (10, 48),
    "quotients/spot-quotient-orders": (1, 3),
    "quotients/table-satisfies-group-axioms": (5, 24),
    "teich/closed-form-matches-fixed-point-oracle": (6, 18),
    "teich/root-of-unity-laws": (9, 24),
    "teich/reduction-compatibility": (12, 36),
    "teich/distinct-mod-p": (3, 6),
    "endos/beta-after-alpha-is-identity": (200, 200),
    "endos/alpha-after-beta-is-identity-for-units": (134, 134),
    "reps/covariance-orbit-window": (50, 100),
    "reps/covariance-cyclic": (0, 50),
    "reps/covariance-digit-words": (50, 100),
    "reps/covariance-index-shift": (67, 100),
    "reps/shift-sections-are-isometries": (4, 8),
    "reps/cyclic-shift-is-unitary": (0, 1),
    "reps/orbit-diagonal-period-is-subgroup-order": (0, 3),
    "reps/matrix-unit-form-of-the-shift": (0, 1),
    "reps/symbol-vanishes-iff-coefficients-do": (77, 77),
    "reps/symbol-of-product-is-product-of-symbols": (50, 50),
    "reps/orbit-decomposition-roundtrip": (30, 90),
    "digits/words-biject-onto-residues": (30, 158),
    "digits/digit-shift-raises-kappa": (26, 150),
    "digits/partial-sums-match-mod-powers": (20, 40),
    "digits/index-shift-conjugates-to-digit-shift": (2, 4),
    "digits/conjugated-diagonal-matches-composition": (10, 20),
    "ktheory/descriptor-strings": (4, 7),
    "ktheory/split-sequence-consistency": (3, 6),
    "ktheory/canonicalization-idempotent": (25, 25),
    "ktheory/denominator-group-closure": (47, 47),
}


@pytest.mark.parametrize("column, max_p", enumerate((3, 5)))
def test_max_p_keeps_the_configs_over_primes_up_to_it(column, max_p):
    results = run_suites(list(SUITES), Bounds(max_p=max_p, max_level=3))
    counts = {f"{r.suite}/{r.name}": (r.passed, r.failed) for r in results}
    assert counts == {name: (pinned[column], 0) for name, pinned in COVERAGE.items()}


# the properties whose every check needs a prime above 3 or a level above 1
NO_CHECK_AT_SMALLEST = {
    "orders/order-doubling-past-threshold",
    "subgroups/lifting-by-exhaustion",
    "reps/covariance-cyclic",
    "reps/cyclic-shift-is-unitary",
    "reps/orbit-diagonal-period-is-subgroup-order",
    "reps/matrix-unit-form-of-the-shift",
}


def test_every_property_keeps_its_row_when_it_makes_no_check():
    names = [f"{r.suite}/{r.name}" for r in run_suites(list(SUITES), Bounds())]
    results = run_suites(list(SUITES), Bounds(max_p=3, max_level=1))
    assert len(names) == 36 and [f"{r.suite}/{r.name}" for r in results] == names
    idle = {f"{r.suite}/{r.name}" for r in results if r.passed + r.failed == 0}
    assert idle == NO_CHECK_AT_SMALLEST


NON_ASSOCIATIVE_LOOP = (
    (0, 1, 2, 3, 4),
    (1, 0, 3, 4, 2),
    (2, 3, 4, 0, 1),
    (3, 4, 1, 2, 0),
    (4, 2, 0, 1, 3),
)


@pytest.mark.parametrize(
    "table",
    [
        ((0,), (1,)),
        ((1, 0), (0, 1)),
        ((0, 1, 2), (1, 0, 1), (2, 2, 0)),
        ((0, 1, 2), (1, 2, 0), (2, 1, 0)),
        NON_ASSOCIATIVE_LOOP,
    ],
    ids=["not-square", "wrong-identity", "row-repeats", "column-repeats", "not-associative"],
)
def test_group_table_oracle_rejects(table):
    assert not is_group_table(table)


def test_group_table_oracle_accepts_a_quotient_table():
    assert is_group_table(quotient_group(5, 7).table)
    assert is_group_table(((0,),))


def test_group_table_oracle_reads_each_row_once():
    # quotient rows are built on read, so a row read per cell would rebuild each row n times
    table = quotient_group(7, 19).table

    class Counted(Sequence):
        reads = 0

        def __len__(self):
            return len(table)

        def __getitem__(self, i):
            self.reads += 1
            return table[i]

    counted = Counted()
    assert len(table) == 49 and is_group_table(counted)
    assert counted.reads <= 49


def normalized_latin_squares(n):
    """Every n x n Latin square whose first row and column are 0, 1, ..., n - 1."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield tuple(tuple(row) for row in rows)
            return
        i, j = cells[k]
        for v in range(n):
            if v not in rows[i][:j] and all(rows[a][j] != v for a in range(i)):
                rows[i][j] = v
                yield from fill(k + 1)
        rows[i][j] = None

    yield from fill(0)


def cubic_group_table(table):
    """Reference: Latin square, identity 0, and associativity over all n^3 triples."""
    n = len(table)
    full = list(range(n))
    return (
        all(sorted(row) == full for row in table)
        and all(sorted(column) == full for column in zip(*table))
        and all(table[0][j] == j and table[j][0] == j for j in full)
        and all(
            table[table[i][j]][k] == table[i][table[j][k]]
            for i, j, k in itertools.product(full, repeat=3)
        )
    )


@pytest.mark.parametrize("n, squares, groups", [(4, 4, 4), (5, 56, 6)])
def test_group_table_oracle_agrees_with_the_cubic_check(n, squares, groups):
    tables = list(normalized_latin_squares(n))
    assert len(tables) == squares
    verdicts = [is_group_table(table) for table in tables]
    assert verdicts == [cubic_group_table(table) for table in tables]
    # Z/4 three ways and Klein four; Z/5 in 4!/4 = 6 ways
    assert sum(verdicts) == groups


def test_group_table_oracle_rejects_a_loop_and_accepts_klein_four():
    loop = (
        (0, 1, 2, 3, 4),
        (1, 0, 3, 4, 2),
        (2, 4, 0, 1, 3),
        (3, 2, 4, 0, 1),
        (4, 3, 1, 2, 0),
    )
    assert not is_group_table(loop) and not cubic_group_table(loop)
    klein = tuple(tuple(i ^ j for j in range(4)) for i in range(4))
    assert is_group_table(klein)


def test_power_walk_lists_the_sorted_powers():
    assert power_walk(5, 2, 7) == (1, 7, 18, 24)
    assert power_walk(3, 2, 2) == (1, 2, 4, 5, 7, 8)
    assert power_walk(7, 3, 1) == (1,)
    with pytest.raises(NotAUnitError):
        power_walk(5, 2, 10)


def test_subgroups_suite_checks_the_listing_against_the_walk(monkeypatch):
    bounds = Bounds(max_p=5, max_level=3)
    assert all(result.failed == 0 for result in suite_subgroups(bounds))
    # the coset 2H is sorted, of the right size and lifts as H does, but is not H
    # where 2 lies outside H: only the power walk tells them apart
    listed = unit_groups.CyclicSubgroup.elements.func
    doubled = property(lambda sub: tuple(sorted(2 * k % sub.p**sub.level for k in listed(sub))))
    monkeypatch.setattr(unit_groups.CyclicSubgroup, "elements", doubled)
    results = {result.name: result for result in suite_subgroups(bounds)}
    outside = sum(
        2 not in power_walk(p, level, r) for p, r in _pool(bounds) for level in (1, 2, 3)
    )
    assert outside > 0
    assert results["subgroup-order-divides-group"].failed == outside
    assert results["lifting-by-exhaustion"].failed == 0


def test_subgroups_suite_builds_each_subgroup_once(monkeypatch):
    built = Counter()
    original = verify.subgroup

    def counted(p, level, r):
        built[p, level, r] += 1
        return original(p, level, r)

    monkeypatch.setattr(verify, "subgroup", counted)
    assert all(result.failed == 0 for result in suite_subgroups(Bounds(max_level=6)))
    assert built and max(built.values()) == 1


def test_random_scalar_draws_as_the_fraction_form():
    def fraction_form(rng):
        real = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        imag = Fraction(rng.randint(-2, 2), rng.randint(1, 2)) if rng.random() < 0.3 else Fraction(0)
        return Scalar(real, imag)

    fast, slow = random.Random("scalars"), random.Random("scalars")
    for _ in range(10_000):
        assert random_scalar(fast) == fraction_form(slow)
    assert fast.getstate() == slow.getstate()


def test_decompose_roundtrip_reads_no_subgroup_listing(monkeypatch):
    def refuse(*args):
        raise AssertionError("a library subgroup was listed")

    monkeypatch.setattr(verify, "subgroup", refuse)
    monkeypatch.setattr(unit_groups.CyclicSubgroup, "elements", property(refuse))
    result = tally(_reps_decompose(Bounds()))["orbit-decomposition-roundtrip"]
    assert result.failed == 0 and result.passed == 120


def test_lagrange_order_matches_the_multiplying_oracle():
    cases = [(p, level, r) for p, r in _pool(Bounds()) for level in range(1, 5)]
    cases += [(p, level, r) for p in (11, 13) for r in (2, p - 1, p + 1) for level in (1, 2, 3)]
    for p, level, r in cases:
        assert lagrange_order(p, level, r) == unit_order_naive(p, level, r), (p, level, r)
    with pytest.raises(NotAUnitError):
        lagrange_order(5, 2, 10)


def test_lagrange_order_reads_no_order_tower(monkeypatch):
    def refuse(*args):
        raise AssertionError("the order tower was read")

    monkeypatch.setattr(unit_groups, "_tower", refuse)
    with pytest.raises(AssertionError):
        unit_groups.unit_order(7, 3, 2)
    assert [lagrange_order(7, level, 2) for level in (1, 2, 3)] == [3, 21, 147]
    assert lagrange_order(13, 2, 14) == 13


def _orders_by_name(bounds):
    return {result.name: result for result in suite_orders(bounds)}


def test_orders_suite_catches_a_broken_fast_path(monkeypatch):
    bounds = Bounds(max_p=5, max_level=3)
    configs = len(_pool(bounds))
    assert all(result.failed == 0 for result in _orders_by_name(bounds).values())

    def order_off_by_p(p, level, r):
        order = unit_groups.unit_order(p, level, r)
        return p * order if level == 2 else order

    monkeypatch.setattr(verify, "unit_order", order_off_by_p)
    assert _orders_by_name(bounds)["fast-path-matches-oracle"].failed == configs
    monkeypatch.undo()

    monkeypatch.setattr(verify, "find_nr", lambda p, r: unit_groups.find_nr(p, r) + 1)
    assert _orders_by_name(bounds)["threshold-matches-oracle"].failed == configs


def _package_imports(tree):
    """The padicmult modules a syntax tree imports, relative ones by their bare name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            yield from [node.module] if node.module else (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module.partition(".")[0] == "padicmult":
            yield node.module
        elif isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name.partition(".")[0] == "padicmult")


def test_the_oracles_import_nothing_they_check():
    tree = ast.parse(Path(verify.__file__).with_name("oracles.py").read_text())
    assert set(_package_imports(tree)) <= {"errors", "scalars"}
