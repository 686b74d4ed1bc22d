"""Exact arithmetic for multiplication operators on the p-adic integers.

Everything here is computed over exact scalars: unit-group orders and
thresholds, root-of-unity lifts, orbit and digit decompositions, symbolic
K-group descriptors, and finite operator truncations on which the defining
algebraic relations are verified exactly.
"""

from .classification import (
    CaseI,
    CaseII,
    CaseIII,
    Classification,
    HSubgroup,
    SupernaturalNumber,
    classify,
    h_contains,
    supernatural_from_unit_order,
    supernatural_order,
)
from .errors import DomainError
from .functions import (
    LocallyConstantFn,
    alpha_endo,
    beta_endo,
    function_from_doc,
    function_to_doc,
    load_function,
    same_function,
    save_function,
)
from .ktheory import (
    C0SeqH,
    C0SeqZ,
    C0SeqZpZ,
    CFunUnits,
    Free,
    KGroupDescriptor,
    ZERO_GROUP,
    algebra_k_groups,
    descriptor,
    hs_k_groups,
    ideal_k_groups,
    primed_algebra_k_groups,
)
from .operators import Cyc, NonNeg, TruncatedOp, WinZ, Word, label, parse_label
from .padic import (
    Digits,
    ExactInt,
    MultiplierSpec,
    PadicApprox,
    TeichProduct,
    as_multiplier,
    as_prime,
    divide_step,
    multiplier_residue,
    multiplier_text,
    multiplier_valuation,
    parse_multiplier,
    teichmuller,
    valuation,
)
from .representations import (
    DigitExpansion,
    OrbitDecomposition,
    build_cyclic_rep,
    build_digit_rep,
    build_hs_rep,
    build_orbit_rep,
    canonical_words,
    check_covariance,
    check_matrix_units,
    digit_expand,
    intertwiner,
    kappa,
    orbit_decompose,
    pi0_symbol,
    present_product,
    shift_word,
    symbol_product,
    symbol_vanishes,
    window_shift,
    word_from_key,
    word_key,
    word_value,
)
from .scalars import ONE, ZERO, Scalar
from .unit_groups import (
    CyclicSubgroup,
    QuotientGroup,
    find_nr,
    find_primitive_root,
    group_size,
    is_in_subgroup,
    quotient_group,
    subgroup,
    unit_order,
    unit_order_naive,
)

__version__ = "0.1.0"
