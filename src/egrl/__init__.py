"""Exact-arithmetic toolkit for extended generalized Roth-Lempel (EGRL) codes.

Builds EGRL generator and parity-check matrices over GF(q), decides the
MDS / dual-AMDS criteria by subset-sum counting, produces closed-form NMDS
weight distributions, and cross-validates every closed form against
brute-force enumeration at desk scale.
"""

from .field import (
    CompositeCharacteristic,
    FieldCtx,
    FieldError,
    NonMonic,
    ReducibleModulus,
    ZeroInverse,
)
from .matrix import (
    DimMismatch,
    FieldMatrix,
    MatrixError,
    NotSquare,
)
from .subsetsum import (
    FULL,
    STAR,
    DomainSize,
    SubsetSumError,
    count_dp,
    count_li_wan,
    find_subset,
    subset_row,
)
from .linear import (
    AMDS_NOT_NMDS,
    DEFAULT_BUDGET,
    MDS,
    NMDS,
    OTHER,
    BudgetExceeded,
    CodeClass,
    CodeError,
    InconsistentInput,
    LinearCode,
    NegativeCount,
    WeightDistribution,
    ZeroCode,
    distribution_from_excess,
    macwilliams,
    nmds_distribution,
)
from .construction import (
    DuplicateAlpha,
    EgrlParams,
    InvalidParams,
    MdsReport,
    RangeViolation,
    SingularM,
    UnsupportedShape,
    ZeroB,
    ZeroV,
    check_mds,
    dual_support_pattern_census,
    egrl_code,
    generator_matrix,
    min_weight_census,
    parity_check_matrix,
    reduced_generator,
    special_construction,
    special_nmds_distribution,
)

__version__ = "0.1.0"
