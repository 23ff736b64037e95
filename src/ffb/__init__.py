"""Finite-field bilinear equation counting and character-sum toolkit."""

from .bounds import (
    BoundReport,
    cauchy_error_check,
    compute_V,
    compute_W,
    karatsuba_bound,
    solvability_threshold_check,
    vinogradov_bound,
)
from .characters import char_eval, repfn_char_sums, set_char_sums
from .counters import (
    additive_count,
    count_additive_charform,
    count_bilinear,
    count_bilinear_charform,
    exceptional_set,
    fold_products,
    verify_sarkozy_identity,
)
from .errors import (
    BadExponent,
    BadParam,
    DivideByZero,
    FfbError,
    IntegerOverflow,
    InvariantViolation,
    LambdaZero,
    NoNontrivialCharacter,
    NotPrime,
    NotPrimeField,
    Overflow,
    Reducible,
    RoundingDrift,
    UsageError,
)
from .field import (
    FieldSpec,
    field_add,
    field_inv,
    field_mul,
    field_neg,
    field_sub,
    make_field,
)
from .instance import Instance
from .repfn import (
    FqSubset,
    RepFn,
    additive_convolve,
    complement_subset,
    empty_subset,
    full_subset,
    negate_subset,
    rep_product,
    rep_sum,
    shift_repfn,
    subset_from_codes,
)
from .setsgen import SetSpec, derive_seed, parse_setspec, realize
from .sumprod import garaev_inequality_report, garaev_solution_count

__version__ = "0.1.0"
