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
    deserialize_vector,
    load_matrix,
    serialize_matrix,
    serialize_vector,
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
    generate_scheme,
    load_bundle,
    save_bundle,
)
from .constructions import (
    DisjunctCertificate,
    GoodnessReport,
    ThresholdDisjunctReport,
    construct_disjunct,
    construct_good,
    good_row_count,
    is_good_for,
    validate_good,
    verify_disjunct,
    verify_threshold_disjunct,
)
from .errors import (
    BudgetError,
    ConstructionError,
    DimensionError,
    ParameterError,
    ParseError,
    TgtError,
    VerificationError,
)
from .oracle import ConsistencySet, brute_force_decode
from .semantics import (
    SchemeParams,
    apply_threshold,
    flip_positions,
    inject_errors,
)

__all__ = [
    "BitMatrix", "BitVector", "DefectiveSet", "SchemeParams", "Scheme",
    "CandidateMultiset", "DecodeReport", "ConsistencySet",
    "DisjunctCertificate", "GoodnessReport", "ThresholdDisjunctReport",
    "serialize_matrix", "load_matrix", "serialize_vector", "deserialize_vector",
    "apply_threshold", "inject_errors", "flip_positions",
    "verify_disjunct", "construct_disjunct", "verify_threshold_disjunct",
    "is_good_for", "construct_good", "validate_good",
    "good_row_count",
    "build_scheme", "encode", "cover_decode",
    "decode_blocks", "adversarial_flip_positions",
    "generate_scheme", "save_bundle", "load_bundle",
    "brute_force_decode",
    "TgtError", "DimensionError", "ParameterError", "ParseError",
    "BudgetError", "ConstructionError", "VerificationError",
]

__version__ = "0.1.0"
