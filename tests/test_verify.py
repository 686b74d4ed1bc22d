import pytest

from padicmult import ExactInt, LocallyConstantFn, TeichProduct
from padicmult.errors import DomainError
from padicmult.verify import (
    SYMBOL_SAMPLES,
    Bounds,
    PropertyResult,
    SUITES,
    _coefficients_vanish,
    _reps_symbols,
    run_suites,
)

SMALL = Bounds(max_p=5, max_level=3, max_len=3, window=4)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_suite_is_clean_at_small_bounds(name):
    results = run_suites([name], SMALL)
    assert results, "suite produced no properties"
    for result in results:
        assert result.failed == 0, (result.name, result.failures)


def test_symbol_membership_counts_cancelling_terms():
    f = LocallyConstantFn(3, 1, (1, 2, 0))
    g = LocallyConstantFn.constant(3, -1)
    assert _coefficients_vanish([(3, f), (3, g)])
    assert not _coefficients_vanish([(3, f), (2, g)])
    # seed 11 draws two terms of frequency 3 whose values at 0 cancel
    membership, _ = _reps_symbols(Bounds(seed=11))
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
