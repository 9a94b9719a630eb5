"""Sum-free subset extraction with exact window statistics.

Library layout:

- groups: Z_n^s arithmetic, gcd classes, verified sum-free windows
- oracle: exact sum-freeness checks and maximum subsequence search
- integers: prime-field pipeline pulling a large sum-free subset out of
  any integer sequence
- scanner: exhaustive multiplier scans, exact expectations, extraction
- adjudicate: both readings of the averaging step, counterexample search
- extremal: classical extremal sizes and the Z_7 tightness instance
- cli / jsonio: deterministic reports
"""

from .adjudicate import (
    AdjudicationRecord,
    CounterexampleQuery,
    Finding,
    PrimeCaseReport,
    SearchResult,
    adjudicate,
    counterexample_search,
    divisor_range_bound,
    divisor_range_bound_limit,
    prime_case_check,
)
from .extremal import TightnessReport, density, rhemtulla_street_bound, tightness_instance
from .groups import (
    DivisorProfile,
    GroupSequence,
    GroupSpec,
    Window,
    WindowError,
    window_middle_third,
    window_prime_target,
    window_sixth_bands,
)
from .integers import (
    ColumnSelection,
    IntegerExtraction,
    PrimeChoice,
    best_column,
    choose_prime,
    extract_sum_free_subset,
    parse_integer_lines,
    row_hit_count,
)
from .oracle import (
    EXACT_SEARCH_LIMIT,
    ExactSearchCapExceeded,
    SumFreeWitness,
    is_sum_free,
    max_sum_free,
)
from .primes import is_prime
from .scanner import (
    DEFAULT_SCAN_CAP,
    GroupExtraction,
    InequalityRow,
    ScanReport,
    WindowStats,
    divisor_profile,
    expected_counts,
    extract_sum_free_group,
    full_scan,
    scan_windows,
    verify_report,
    weighted_inequality_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "AdjudicationRecord",
    "ColumnSelection",
    "CounterexampleQuery",
    "DEFAULT_SCAN_CAP",
    "DivisorProfile",
    "EXACT_SEARCH_LIMIT",
    "ExactSearchCapExceeded",
    "Finding",
    "GroupExtraction",
    "GroupSequence",
    "GroupSpec",
    "InequalityRow",
    "IntegerExtraction",
    "PrimeCaseReport",
    "PrimeChoice",
    "ScanReport",
    "SearchResult",
    "SumFreeWitness",
    "TightnessReport",
    "Window",
    "WindowError",
    "WindowStats",
    "adjudicate",
    "best_column",
    "choose_prime",
    "counterexample_search",
    "density",
    "divisor_profile",
    "divisor_range_bound",
    "divisor_range_bound_limit",
    "expected_counts",
    "extract_sum_free_group",
    "extract_sum_free_subset",
    "full_scan",
    "is_prime",
    "is_sum_free",
    "max_sum_free",
    "parse_integer_lines",
    "prime_case_check",
    "rhemtulla_street_bound",
    "row_hit_count",
    "scan_windows",
    "tightness_instance",
    "verify_report",
    "weighted_inequality_sweep",
    "window_middle_third",
    "window_prime_target",
    "window_sixth_bands",
]
