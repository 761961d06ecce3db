"""Exact-arithmetic toolkit for sum-dominant (MSTD) set theory.

Computes sumsets and difference sets, classifies finite integer sets,
canonically enumerates affine classes to locate minimal sum-dominant sets,
and machine-verifies the structural claims the search relies on.
"""

from .setcore import (
    APSpec,
    EmptySetError,
    IntSet,
    SetClass,
    SetLiteralError,
    SetProfile,
    ap_plus_two_decomposition,
    classify,
    detect_ap,
    diffset,
    equal_pair_counts,
    is_symmetric,
    profile,
    reflect_canonical,
    sum_diff_sizes,
    sumset,
)
from .structure import (
    DeltaProfile,
    cardinality_bounds,
    difference_table,
    gaps,
    insertion_delta,
)
from .reports import DEFAULT_SEED, VerificationReport
from .search import SearchConfig, SearchResult, find_min_mstd

__all__ = [
    "APSpec",
    "DEFAULT_SEED",
    "DeltaProfile",
    "EmptySetError",
    "IntSet",
    "SearchConfig",
    "SearchResult",
    "SetClass",
    "SetLiteralError",
    "SetProfile",
    "VerificationReport",
    "ap_plus_two_decomposition",
    "cardinality_bounds",
    "classify",
    "detect_ap",
    "difference_table",
    "diffset",
    "equal_pair_counts",
    "find_min_mstd",
    "gaps",
    "insertion_delta",
    "is_symmetric",
    "profile",
    "reflect_canonical",
    "sum_diff_sizes",
    "sumset",
]
