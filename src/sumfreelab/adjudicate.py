"""Side-by-side evaluation of the two readings of the averaging step.

A scan's grand total can be divided by the number of all multipliers or
by the number of nonzero multipliers; the two give different per-column
yardsticks.  An adjudication record reports both, exactly, next to the
quantities that are supposed to certify extraction quality, without
preferring either reading.  The searches then hunt for inputs where the
certified density fails, keeping "our extractor fell short" strictly
apart from "the density bound itself is wrong".
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterator

from .groups import DivisorProfile, Element, GroupSequence, GroupSpec
from .oracle import EXACT_SEARCH_LIMIT, max_sum_free
from .primes import is_prime
from .scanner import GroupExtraction, ScanReport, extract_sum_free_group, full_scan, scan_windows


@dataclass(frozen=True)
class AdjudicationRecord:
    """The scan it judges, the divisor-range bounds and the verdict flags.

    Means, counts and histograms are read from `report`;
    full_mean_matches_expected holds one flag per window of it.
    """

    instance_id: str
    report: ScanReport
    divisor_range_bound: Fraction
    divisor_range_bound_limit: Fraction
    extraction: GroupExtraction
    full_mean_matches_expected: tuple[bool, ...]
    some_column_beats_expected_1: bool


def divisor_range_bound(profile: DivisorProfile, n: int, s: int) -> Fraction:
    """Lower bound on the nonzero-column mean from the divisor range alone.

    Every entry of class d contributes d * n^(s-1) * (multiples of d in
    the middle third) to the grand total, which is at least
    min_divisor * floor(window/max_divisor) * n^(s-1) regardless of d.
    """
    w1 = scan_windows(n)[0]
    a = profile.min_divisor
    b = profile.max_divisor
    num = a * profile.total * (w1.size // b) * n ** (s - 1)
    return Fraction(num, n**s - 1)


def divisor_range_bound_limit(profile: DivisorProfile) -> Fraction:
    """Large-n limit of divisor_range_bound: min/(3 max) per entry."""
    return Fraction(profile.min_divisor * profile.total, 3 * profile.max_divisor)


def adjudicate(
    seq: GroupSequence,
    instance_id: str = "",
    *,
    workers: int = 1,
) -> AdjudicationRecord:
    """Scan exhaustively and lay out both readings next to the facts."""
    report = full_scan(seq, workers=workers)
    profile = report.profile
    first = report.windows[0]
    return AdjudicationRecord(
        instance_id=instance_id,
        report=report,
        divisor_range_bound=divisor_range_bound(profile, report.n, report.s),
        divisor_range_bound_limit=divisor_range_bound_limit(profile),
        extraction=extract_sum_free_group(seq, report),
        full_mean_matches_expected=tuple(w.mean_full == w.expected_count for w in report.windows),
        some_column_beats_expected_1=first.best_count > first.expected_count,
    )


@dataclass(frozen=True)
class CounterexampleQuery:
    """What to search: group, target length, enumeration mode, effort cap."""

    n: int
    s: int
    m: int
    mode: str  # "exhaustive" (all multisets up to length m) or "random"
    budget: int
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown search mode {self.mode!r}")
        if self.m < 1:
            raise ValueError("target length must be at least 1")
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if self.mode == "random" and self.seed is None:
            raise ValueError("random search requires a seed")


@dataclass(frozen=True)
class Finding:
    """One instance that fell at or below the certified density.

    extraction_below_bound says the window extractor failed to beat
    2m/7; max_below_bound says the true maximum itself fails, which
    would refute the 2m/7 guarantee outright.  The second is only ever
    claimed when the exact oracle ran (exact_max_size is set).
    """

    elements: tuple[Element, ...]
    m: int
    extraction_size: int
    exact_max_size: int | None
    extraction_below_bound: bool
    max_below_bound: bool


@dataclass(frozen=True)
class SearchResult:
    query: CounterexampleQuery
    instances: int
    oracle_checked: int
    complete: bool
    findings: tuple[Finding, ...]


def _multiset_count(q: int, m: int) -> int:
    return sum(math.comb(q + k - 1, k) for k in range(1, m + 1))


def _exhaustive_instances(spec: GroupSpec, m: int) -> Iterator[tuple[Element, ...]]:
    pool = [spec.coords_of(i) for i in range(1, spec.size)]
    for k in range(1, m + 1):
        yield from combinations_with_replacement(pool, k)


def _evaluate(spec: GroupSpec, elements: tuple[Element, ...]) -> Finding | None:
    seq = GroupSequence(spec, elements)
    extraction = extract_sum_free_group(seq)
    m = len(elements)
    ext_below = 7 * extraction.size <= 2 * m
    exact_size: int | None = None
    max_below = False
    if m <= EXACT_SEARCH_LIMIT:
        witness = max_sum_free(list(elements), add=spec.add)
        exact_size = witness.size
        max_below = 7 * exact_size <= 2 * m
    if ext_below or max_below:
        return Finding(
            elements=elements,
            m=m,
            extraction_size=extraction.size,
            exact_max_size=exact_size,
            extraction_below_bound=ext_below,
            max_below_bound=max_below,
        )
    return None


def counterexample_search(query: CounterexampleQuery, spec: GroupSpec | None = None) -> SearchResult:
    """Hunt for instances at or below the 2/7 density, per the query.

    Exhaustive mode enumerates every nonzero multiset up to the target
    length (refusing if that count exceeds the budget); random mode
    draws budget sequences of exactly the target length.
    """
    if spec is None:
        spec = GroupSpec(query.n, query.s)
    if (spec.n, spec.s) != (query.n, query.s):
        raise ValueError("group spec disagrees with the query")
    complete = query.mode == "exhaustive"
    if complete:
        total = _multiset_count(spec.size - 1, query.m)
        if total > query.budget:
            raise ValueError(
                f"exhaustive search needs {total} instances, above the "
                f"budget {query.budget}"
            )
        instances = _exhaustive_instances(spec, query.m)
    else:
        rng = random.Random(query.seed)
        instances = (
            tuple(spec.random_nonzero(rng) for _ in range(query.m)) for _ in range(query.budget)
        )
    findings: list[Finding] = []
    checked = oracle_checked = 0
    for elements in instances:
        f = _evaluate(spec, elements)
        checked += 1
        oracle_checked += len(elements) <= EXACT_SEARCH_LIMIT
        if f is not None:
            findings.append(f)

    findings.sort(key=lambda f: (f.m, f.elements))
    return SearchResult(
        query=query,
        instances=checked,
        oracle_checked=oracle_checked,
        complete=complete,
        findings=tuple(findings),
    )


@dataclass(frozen=True)
class PrimeCaseTrial:
    m: int
    extraction_size: int
    beats_two_sevenths: bool
    nonzero_mean_matches_formula: bool


@dataclass(frozen=True)
class PrimeCaseReport:
    """Prime-modulus specialization: every gcd class is 1, the nonzero
    mean collapses to a closed form, and the window density carries 2/7."""

    p: int
    s: int
    trials: int
    seed: int
    window_ratio: Fraction
    window_ratio_ok: bool
    all_divisors_one: bool
    all_nonzero_means_match: bool
    all_extractions_beat: bool
    trial_results: tuple[PrimeCaseTrial, ...]


def prime_case_check(
    p: int,
    s: int,
    *,
    trials: int,
    seed: int,
    m_max: int = 30,
) -> PrimeCaseReport:
    """Random-sequence verification of the prime-modulus shortcuts."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if trials < 1:
        raise ValueError("at least one trial required")
    if m_max < 1:
        raise ValueError(f"m_max (--m-max on the command line) must be at least 1, not {m_max}")
    spec = GroupSpec(p, s)
    w1 = scan_windows(p)[0]
    ratio = Fraction(w1.size, p)
    rng = random.Random(seed)
    results: list[PrimeCaseTrial] = []
    divisors_one = True
    for _ in range(trials):
        m = rng.randint(1, m_max)
        seq = GroupSequence(spec, tuple(spec.random_nonzero(rng) for _ in range(m)))
        report = full_scan(seq)
        if report.profile.pairs != ((1, m),):
            divisors_one = False
        formula = Fraction(m * p ** (s - 1) * w1.size, p**s - 1)
        extraction = extract_sum_free_group(seq, report)
        results.append(
            PrimeCaseTrial(
                m=m,
                extraction_size=extraction.size,
                beats_two_sevenths=extraction.beats_two_sevenths,
                nonzero_mean_matches_formula=report.windows[0].mean_nonzero == formula,
            )
        )
    return PrimeCaseReport(
        p=p,
        s=s,
        trials=trials,
        seed=seed,
        window_ratio=ratio,
        window_ratio_ok=ratio >= Fraction(2, 7),
        all_divisors_one=divisors_one,
        all_nonzero_means_match=all(t.nonzero_mean_matches_formula for t in results),
        all_extractions_beat=all(t.beats_two_sevenths for t in results),
        trial_results=tuple(results),
    )
