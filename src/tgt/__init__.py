"""Non-adaptive threshold group testing.

Construction and verification of the pooling matrices, simulation of
threshold test outcomes, and one exact decoder for the error-free and
error-tolerant regimes, with brute-force oracles for desk-scale
validation.
"""

from .bitmat import (
    BitMatrix,
    BitVector,
    DefectiveSet,
    complement,
    deserialize_matrix,
    deserialize_vector,
    load_matrix,
    restrict_row,
    serialize_matrix,
    serialize_vector,
    stack,
)
from .codec import (
    CandidateMultiset,
    DecodeReport,
    Scheme,
    adversarial_flip_positions,
    build_scheme,
    cover_decode,
    decode_blocks,
    encode,
    load_bundle,
    recover_yprime,
    save_bundle,
)
from .constructions import (
    CriticalZeroPair,
    DisjunctCertificate,
    GoodnessReport,
    ThresholdDisjunctReport,
    construct_disjunct,
    construct_good,
    disjunct_row_count,
    good_row_count,
    is_good_for,
    critical_zero_cover,
    validate_good,
    verify_disjunct,
    verify_threshold_disjunct,
)
from .errors import (
    BudgetError,
    ConstructionError,
    CoverOverflowError,
    DimensionError,
    ParameterError,
    ParseError,
    TgtError,
    VerificationError,
)
from .oracle import ConsistencySet, CrossCheckReport, brute_force_decode, cross_check
from .semantics import (
    SchemeParams,
    apply_threshold,
    flip_positions,
    inject_errors,
    or_test,
    threshold_test,
)

__all__ = [
    "BitMatrix", "BitVector", "DefectiveSet", "SchemeParams", "Scheme",
    "CandidateMultiset", "DecodeReport", "ConsistencySet",
    "CrossCheckReport", "DisjunctCertificate", "GoodnessReport",
    "CriticalZeroPair", "ThresholdDisjunctReport",
    "complement", "restrict_row", "stack",
    "serialize_matrix", "deserialize_matrix", "load_matrix",
    "serialize_vector", "deserialize_vector",
    "threshold_test", "or_test", "apply_threshold", "inject_errors",
    "flip_positions",
    "verify_disjunct", "construct_disjunct", "verify_threshold_disjunct",
    "is_good_for", "construct_good", "validate_good", "critical_zero_cover",
    "disjunct_row_count", "good_row_count",
    "build_scheme", "encode", "recover_yprime", "cover_decode",
    "decode_blocks", "adversarial_flip_positions",
    "save_bundle", "load_bundle",
    "brute_force_decode", "cross_check",
    "TgtError", "DimensionError", "ParameterError", "ParseError",
    "BudgetError", "ConstructionError", "VerificationError",
    "CoverOverflowError",
]

__version__ = "0.1.0"
