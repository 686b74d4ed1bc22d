import ast
import importlib
import importlib.util
import inspect
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import padicmult
from conftest import ODD_PRIMES
from padicmult import (
    CaseIII,
    Digits,
    ExactInt,
    LocallyConstantFn,
    PadicApprox,
    TeichProduct,
    as_prime,
    alpha_endo,
    beta_endo,
    classify,
    divide_step,
    find_nr,
    multiplier_residue,
    multiplier_text,
    multiplier_valuation,
    parse_multiplier,
    teichmuller,
    unit_order,
    valuation,
)
from padicmult.errors import (
    ExcludedMultiplierError,
    InsufficientPrecisionError,
    NotAUnitError,
    NotPrimeError,
    ParseError,
    ValuationMismatchError,
    ZeroValuationError,
)
from padicmult.oracles import teichmuller_fixed_point
from padicmult.padic import Multiplier


@pytest.mark.parametrize("bad", [2, 4, 9, 1, 0, -3, 15])
def test_odd_primes_only(bad):
    with pytest.raises(NotPrimeError):
        as_prime(bad)


def test_prime_accepts_odd_primes():
    assert as_prime(3) == 3
    assert as_prime(97) == 97


PUBLIC_NAMES = """
C0SeqH C0SeqZ C0SeqZpZ CFunUnits CaseI CaseII CaseIII Classification Cyc CyclicSubgroup
DigitExpansion Digits DomainError ExactInt Free HSubgroup KGroupDescriptor LocallyConstantFn
MultiplierSpec NonNeg ONE OrbitDecomposition PadicApprox QuotientGroup Scalar
SupernaturalNumber TeichProduct TruncatedOp WinZ Word ZERO ZERO_GROUP algebra_k_groups
alpha_endo as_multiplier as_prime beta_endo build_cyclic_rep build_digit_rep build_hs_rep
build_orbit_rep canonical_words check_covariance check_matrix_units classify descriptor
digit_expand divide_step find_nr find_primitive_root function_from_doc function_to_doc
group_size h_contains hs_k_groups ideal_k_groups intertwiner is_in_subgroup kappa label
load_function multiplier_residue multiplier_text multiplier_valuation orbit_decompose
parse_label parse_multiplier pi0_symbol present_product primed_algebra_k_groups
quotient_group same_function save_function shift_word subgroup supernatural_from_unit_order
supernatural_order symbol_product symbol_vanishes teichmuller unit_order unit_order_naive
valuation window_shift word_from_key word_key word_value
""".split()


def test_public_names_are_pinned():
    # a name added to or dropped from the package shows here
    public = sorted(
        name
        for name, value in vars(padicmult).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert public == PUBLIC_NAMES


TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _resolves(module_name, attribute):
    """Whether the benchmark tracer can patch padicmult.<module>.<attribute>: a
    "Class.method" name must be defined on the class itself."""
    module = importlib.import_module(f"padicmult.{module_name}")
    owner, _, method = attribute.rpartition(".")
    if owner:
        return hasattr(module, owner) and method in vars(getattr(module, owner))
    return hasattr(module, attribute)


def test_traced_names_resolve():
    # the tracer patches these by name, so a name dropped here breaks a traced run
    if not TRACING.exists():
        pytest.skip("no benchmark tracer in this checkout")
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.parse(TRACING.read_text()).body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("SPANS", "COUNTERS")
    }
    names = [(module, attribute) for module, attribute, _ in tables["SPANS"] + tables["COUNTERS"]]
    assert names
    assert [name for name in names if not _resolves(*name)] == []


def test_benchmark_oracle_reads_every_label_kind():
    # perfbench/oracles.py reads labels by class name and by their field names
    oracles = TRACING.with_name("oracles.py")
    if not oracles.exists():
        pytest.skip("no benchmark oracles in this checkout")
    spec = importlib.util.spec_from_file_location("benchmark_oracles", oracles)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    labels = [
        padicmult.WinZ(-3), padicmult.Cyc(2, 4), padicmult.NonNeg(5), padicmult.Word((1, 0, 2)),
    ]
    assert [module.index_key(ix) for ix in labels] == [
        ("W", -3), ("C", 2, 4), ("N", 5), ("D", (1, 0, 2)),
    ]


def test_benchmark_import_rows_are_printed():
    # perfbench/run.py reads the `-X importtime` rows of these three modules by name
    run = TRACING.with_name("run.py")
    if not run.exists() or 'cumulative["sympy"]' not in run.read_text():
        pytest.skip("the benchmark does not read the sympy import row")
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = f"import sys; sys.path.insert(0, {src!r}); import padicmult, padicmult.cli"
    child = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        capture_output=True, text=True, check=True, timeout=60,
    )
    rows = {line.split("|")[-1].strip() for line in child.stderr.splitlines() if "|" in line}
    assert {"sympy", "padicmult", "padicmult.cli"} <= rows


def test_sources_parse_at_the_oldest_supported_python():
    root = Path(__file__).resolve().parents[1]
    floor = re.search(r'requires-python\s*=\s*">=\s*3\.(\d+)"', (root / "pyproject.toml").read_text())
    assert floor is not None
    sources = sorted((root / "src" / "padicmult").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), str(path), feature_version=(3, int(floor[1])))


# -- valuation --------------------------------------------------------------


def valuation_oracle(p, x):
    level = 0
    while x % p == 0:
        x //= p
        level += 1
    return level, x


def test_valuation_examples():
    assert valuation(5, 50) == (2, 2)
    assert valuation(3, 7) == (0, 7)
    assert valuation(5, 1715) == valuation_oracle(5, 1715) == (1, 343)


def test_valuation_of_zero():
    with pytest.raises(ZeroValuationError):
        valuation(3, 0)


@given(st.sampled_from(ODD_PRIMES), st.integers(-10**6, 10**6).filter(bool))
def test_valuation_reconstructs(p, x):
    level, unit = valuation(p, x)
    assert p**level * unit == x
    assert unit % p != 0


# -- Teichmuller lifts -------------------------------------------------------


def test_teichmuller_examples():
    assert teichmuller(5, 1, 4) == 1
    assert teichmuller(5, 4, 2) == 24
    # oracle: iterate a -> a^p from 2; 2^5 = 32 = 7 mod 25 and 7^5 = 7 mod 25
    assert teichmuller_fixed_point(5, 2, 2) == 7
    assert teichmuller(5, 2, 2) == 7


@pytest.mark.parametrize("p", [3, 5, 7, 47, 1009])
def test_newton_lift_matches_the_closed_form(p):
    # the closed form c_N = i^(p^(N-1)) mod p^N obeys c_(N+1) = c_N^p mod p^(N+1),
    # as a^p mod p^(N+1) depends only on a mod p^N; pow is checked at a few N
    for i in [i for i in (1, 2, p - 1, p + 2, -3) if i % p]:
        closed = i % p
        for precision in range(1, 301):
            if precision > 1:
                closed = pow(closed, p, p**precision)
            if precision in (1, 2, 3, 64, 300):
                assert closed == pow(i, p ** (precision - 1), p**precision)
            assert teichmuller(p, i, precision) == closed


@pytest.mark.parametrize("p", [3, 47])
@pytest.mark.parametrize("precision", [65, 129, 257, 513, 1025])
def test_teichmuller_just_past_a_power_of_two(p, precision):
    # at 2^k + 1 the halving schedule is 2^k + 1, 2^(k-1), ..., 2, 1, so each step
    # starts from a root known to just under half its target
    for i in (2, p - 1):
        assert teichmuller(p, i, precision) == pow(i, p ** (precision - 1), p**precision)


@pytest.mark.parametrize("p", [3, 5, 47])
@pytest.mark.parametrize(
    "precision",
    sorted({1, 2, 3, 4, 5, *(2**k for k in range(11)), *(2**k + 1 for k in range(11))}),
)
def test_teichmuller_on_the_floor_halving_schedule(p, precision):
    # a step from a root known mod p^k is exact mod p^(2k+1), so precision, floor(precision/2),
    # ..., 1 suffices: at 3 one step, at 2^k + 1 each step from just under half its target
    modulus = p**precision
    for i in (1, 2, p - 1, p + 2):
        w = teichmuller(p, i, precision)
        assert w == pow(i, p ** (precision - 1), modulus)
        assert w == teichmuller_fixed_point(p, i, precision)


def test_teichmuller_at_high_precision():
    w = teichmuller(47, 2, 4000)
    assert w % 47 == 2
    assert pow(w, 46, 47**4000) == 1


def test_teichmuller_rejects_non_units():
    with pytest.raises(NotAUnitError):
        teichmuller(5, 10, 3)
    with pytest.raises(InsufficientPrecisionError):
        teichmuller(5, 2, 0)


@given(
    st.sampled_from(ODD_PRIMES),
    st.integers(1, 6),
    st.integers(1, 6),
    st.data(),
)
def test_teichmuller_laws(p, precision, lower, data):
    i = data.draw(st.integers(1, p - 1))
    lower = min(lower, precision)
    w = teichmuller(p, i, precision)
    modulus = p**precision
    assert w == teichmuller_fixed_point(p, i, precision)
    assert pow(w, p - 1, modulus) == 1
    assert w % p == i
    assert w % p**lower == teichmuller(p, i, lower)


# -- division step -----------------------------------------------------------


def test_divide_step_examples():
    assert divide_step(3, 1, 6, 7) == (1, 1)
    assert divide_step(3, 1, 6, 0) == (0, 0)
    assert divide_step(3, 1, 6, 25) == (4, 1)


def test_divide_step_valuation_mismatch():
    with pytest.raises(ValuationMismatchError):
        divide_step(3, 2, 6, 7)
    with pytest.raises(ValuationMismatchError):
        divide_step(3, 1, 5, 7)


def test_divide_step_rational_quotient():
    q, c = divide_step(3, 1, 6, 4)
    assert c == 1 and q == Fraction(1, 2)
    assert q * 6 + c == 4


@given(
    st.sampled_from([(3, 6), (3, -3), (5, 10), (7, 21), (5, 75)]),
    st.integers(0, 10**6),
)
def test_divide_step_contract(config, x):
    p, r = config
    level, _ = valuation(p, r)
    q, c = divide_step(p, level, r, x)
    assert 0 <= c < p**level
    assert q * r + c == x
    assert Fraction(q).denominator % p != 0


# -- fixed-precision residues --------------------------------------------------


@given(
    st.sampled_from(ODD_PRIMES),
    st.integers(-10**9, 10**9),
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(1, 8),
)
def test_reduction_compatibility(p, x, n1, n2, n3):
    high, mid, low = sorted((n1, n2, n3), reverse=True)
    a = PadicApprox.from_int(p, high, x)
    assert a.reduce(mid).reduce(low) == a.reduce(low)


def test_reduce_cannot_raise_precision():
    a = PadicApprox.from_int(3, 2, 4)
    with pytest.raises(InsufficientPrecisionError):
        a.reduce(5)


def test_negative_values_normalize():
    assert PadicApprox.from_int(5, 2, -1).residue == 24
    assert multiplier_residue(-1, 5, 2) == 24


# -- multiplier specs ------------------------------------------------------------


def test_excluded_multipliers():
    with pytest.raises(ExcludedMultiplierError):
        ExactInt(0)
    with pytest.raises(ExcludedMultiplierError):
        ExactInt(1)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_the_multiplier_one_is_refused_in_every_form(p):
    f = LocallyConstantFn(p, 1, tuple(range(p)))
    for spec, message in [
        (TeichProduct(p - 1, -1), "r resolves to 1"),
        (Digits((1,)), "digits match 1 at every known digit"),
        (Digits((1, 0, 0)), "digits match 1 at every known digit"),
    ]:
        for call in (
            lambda: Multiplier.of(spec, p),
            lambda: unit_order(p, 2, spec),
            lambda: find_nr(p, spec),
            lambda: classify(p, spec),
            lambda: alpha_endo(f, spec),
        ):
            with pytest.raises(ExcludedMultiplierError, match=message):
                call()
    # -1 and a digit string that is 1 only at its first digit stay multipliers
    assert Multiplier.of(TeichProduct(p - 1), p).residue(2) == p**2 - 1
    assert Multiplier.of(Digits((1, 1)), p).value == 1 + p


def test_multiplier_grammar_round_trip():
    for text, spec in [
        ("7", ExactInt(7)),
        ("-7", ExactInt(-7)),
        ("teich(2)", TeichProduct(2)),
        ("-teich(3)", TeichProduct(3, -1)),
        ("digits:[1,2,0]", Digits((1, 2, 0))),
    ]:
        assert parse_multiplier(text) == spec
        assert parse_multiplier(multiplier_text(spec)) == spec


def test_multiplier_parse_rejects_garbage():
    for text in ["", "teich()", "digits:[]", "1.5", "teich(-2)"]:
        with pytest.raises(ParseError):
            parse_multiplier(text)


def test_teich_product_resolution():
    assert multiplier_residue(TeichProduct(2), 5, 2) == 7
    assert multiplier_residue(TeichProduct(2, -1), 5, 2) == 18
    assert multiplier_valuation(TeichProduct(4), 5) == 0
    with pytest.raises(ExcludedMultiplierError):
        multiplier_residue(TeichProduct(5), 5, 2)


def test_minus_teich_one_is_minus_one():
    for p in (3, 5, 7):
        m = Multiplier.of(TeichProduct(1, -1), p)
        assert [m.residue(n) for n in range(1, 5)] == [p**n - 1 for n in range(1, 5)]
        assert m.root_of_unity and m.valuation == 0
    assert parse_multiplier("-teich(1)") == TeichProduct(1, -1)
    for i, sign in [(1, 1), (0, -1), (-1, -1)]:
        with pytest.raises(ExcludedMultiplierError, match="at least 2"):
            TeichProduct(i, sign)


def test_digits_precision_limits():
    spec = Digits((2, 1, 2))
    assert multiplier_residue(spec, 5, 3) == 57
    assert multiplier_residue(spec, 5, 1) == 2
    with pytest.raises(InsufficientPrecisionError):
        multiplier_residue(spec, 5, 4)
    with pytest.raises(ParseError):
        multiplier_residue(Digits((7,)), 5, 1)
    with pytest.raises(InsufficientPrecisionError):
        multiplier_valuation(Digits((0, 0)), 5)


def unit_split(r, p, precision):
    """Split r = p^N * r' and return (N, r' mod p^precision)."""
    m = Multiplier.of(r, p)
    return m.valuation, m.unit_residue(precision)


def test_digits_unit_split():
    assert unit_split(Digits((0, 2, 1)), 5, 2) == (1, 7)
    assert unit_split(ExactInt(50), 5, 2) == (2, 2)
    with pytest.raises(InsufficientPrecisionError):
        unit_split(Digits((0, 2)), 5, 2)


def test_digits_are_checked_against_p_on_every_path():
    f = LocallyConstantFn(5, 1, tuple(range(5)))
    spec = Digits((0, 7))  # a 7 in base 5, past the valuation digit
    for call in (
        lambda: Multiplier.of(spec, 5),
        lambda: multiplier_valuation(spec, 5),
        lambda: classify(5, spec),
        lambda: alpha_endo(f, spec),
        lambda: beta_endo(f, spec),
        lambda: find_nr(5, Digits((2, 9))),
        lambda: unit_order(5, 1, Digits((2, 9))),
    ):
        with pytest.raises(ParseError):
            call()
    with pytest.raises(ParseError):
        Multiplier.of(Multiplier.of(7, 5), 3)  # resolved for another prime


@pytest.mark.parametrize(
    "spec",
    [ExactInt(10), ExactInt(7), ExactInt(-1), TeichProduct(2), Digits((0, 2, 1)), Digits((2, 1))],
)
def test_negative_precision_is_refused(spec):
    m = Multiplier.of(spec, 5)
    for read in (m.residue, m.unit_residue, lambda n: classify(5, spec, precision=n)):
        with pytest.raises(InsufficientPrecisionError):
            read(-1)
    with pytest.raises(InsufficientPrecisionError):
        multiplier_residue(spec, 5, -1)
    assert m.residue(0) == m.unit_residue(0) == 0


def test_teich_product_resolves_to_its_signed_lift():
    for p in (3, 5, 7):
        for i in range(2, p):
            for sign in (1, -1):
                if (i, sign) == (p - 1, -1):  # -teich(p-1) is 1, an excluded multiplier
                    with pytest.raises(ExcludedMultiplierError, match="resolves to 1"):
                        Multiplier.of(TeichProduct(i, sign), p)
                    continue
                m = Multiplier.of(TeichProduct(i, sign), p)
                assert m.residue(0) == 0
                for n in range(1, 6):
                    assert m.residue(n) == sign * teichmuller(p, i, n) % p**n
                    assert m.unit_residue(n) == m.residue(n)


def p_adic_digits(p, n, count=12):
    return Digits(tuple(n % p ** (k + 1) // p**k for k in range(count)))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_the_three_forms_of_an_integer_agree(p):
    f = LocallyConstantFn(p, 2, tuple(range(p * p)))
    for n in (-21, -9, -2, -1, 2, 3, 6, 7, 10, 18, 50, 75, 98, 343):
        forms = (n, ExactInt(n), p_adic_digits(p, n))
        level = multiplier_valuation(n, p)
        assert {multiplier_valuation(r, p) for r in forms} == {level}
        for k in range(12 - level + 1):
            assert {unit_split(r, p, k) for r in forms} == {
                (level, n // p**level % p**k)
            }
        assert len({beta_endo(f, r) for r in forms}) == 1
        assert len({alpha_endo(f, r) for r in forms}) == 1
        verdicts = {replace(classify(p, r, precision=12 - level), exact=True) for r in forms}
        assert len(verdicts) == 1
        assert isinstance(verdicts.pop(), CaseIII) == (level > 0)
