"""Side-by-side evaluation of the two readings of the averaging step.

A scan's grand total can be divided by the number of all multipliers or
by the number of nonzero multipliers; the two give different per-column
yardsticks.  An adjudication record reports both, exactly, next to the
quantities that are supposed to certify extraction quality, without
preferring either reading.  The searches then hunt for inputs where the
certified density fails, keeping "our extractor fell short" strictly
apart from "the density bound itself is wrong".

A search scores every instance with one batched kernel over a per-group
hit table H: row b - 1 holds, for every window of scan_windows(n) and
every multiplier x, whether x . b lies in the window.  An instance's
column counts are the sum of its entries' rows, and their largest value
is exactly the size `extract_sum_free_group` would extract.  H is built
and checked once per search, against the exact row totals and the zero
column that `verify_report` holds every exhaustive scan to.  Exhaustive
mode walks the multiset tree level by level, each child being its
parent's counts plus one row; random mode sums the rows of a chunk of
seeded instances.  The exact oracle still runs on every instance of at
most EXACT_SEARCH_LIMIT entries, in instance order, and any instance at
or below 2m/7 is re-run through the verified per-instance path
(`_evaluate`: full scan, pullback and sum-free check), which must agree
with the kernel.  Groups whose table would exceed SEARCH_TABLE_CELLS
cells take that per-instance path for every instance.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, islice
from typing import Iterator

import numpy as np

from .groups import DivisorProfile, Element, GroupSequence, GroupSpec
from .oracle import EXACT_SEARCH_LIMIT, SumFreeWitness, max_sum_free
from .primes import is_prime
from .scanner import (
    _CHUNK_CELLS,
    GroupExtraction,
    ScanReport,
    extract_sum_free_group,
    full_scan,
    scan_windows,
)


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


def _at_or_below(size: int, m: int) -> bool:
    """Whether a sum-free subsequence of `size` out of m entries is at or
    below the guaranteed density 2m/7."""
    return 7 * size <= 2 * m


def _evaluate(
    spec: GroupSpec, elements: tuple[Element, ...], witness: SumFreeWitness | None = None
) -> Finding | None:
    """The verified per-instance path: full scan, pullback, sum-free check
    and, for at most EXACT_SEARCH_LIMIT entries, the exact oracle (whose
    `witness` is reused when the caller already has it)."""
    seq = GroupSequence(spec, elements)
    extraction = extract_sum_free_group(seq)
    m = len(elements)
    if witness is None and m <= EXACT_SEARCH_LIMIT:
        witness = max_sum_free(list(elements), add=spec.add)
    exact_size = None if witness is None else witness.size
    ext_below = _at_or_below(extraction.size, m)
    max_below = exact_size is not None and _at_or_below(exact_size, m)
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


#: Groups whose hit table would have more cells than this are searched
#: one verified instance at a time instead.
SEARCH_TABLE_CELLS = _CHUNK_CELLS


def _hit_table(spec: GroupSpec, m: int) -> np.ndarray:
    """H[b - 1, j * q + x] = [x . b lies in window j], for the q elements x
    and the nonzero elements b of Z_n^s, in the narrowest dtype holding m.

    Raises unless H obeys the exact rules `verify_report` checks on every
    exhaustive scan: row b hits window j exactly d * n^(s-1) * (multiples
    of d in the window) times, d = gcd(n, b), and column 0 never hits.
    """
    n, s, q = spec.n, spec.s, spec.size
    digits = np.arange(q)[:, None] // n ** np.arange(s - 1, -1, -1) % n
    dots = digits[1:] @ digits.T % n
    windows = scan_windows(n)
    table = np.concatenate([w.bitmap()[dots] for w in windows], axis=1)
    table = table.astype(np.min_scalar_type(m))
    gcds = np.gcd.reduce(np.column_stack([digits[1:], np.full(q - 1, n)]), axis=1)
    want = {d: [d * n ** (s - 1) * w.count_multiples(d) for w in windows] for d in set(gcds.tolist())}
    totals = table.reshape(q - 1, len(windows), q).sum(axis=2, dtype=np.int64)
    if (totals != np.array([want[d] for d in gcds.tolist()])).any():
        raise RuntimeError(f"hit table of Z_{n}^{s} breaks the exact row totals")
    if table[:, ::q].any():
        raise RuntimeError(f"hit table of Z_{n}^{s} has zero-multiplier hits")
    return table


def _exhaustive_walk(
    spec: GroupSpec, table: np.ndarray, m: int
) -> Iterator[tuple[list[tuple[Element, ...]], np.ndarray]]:
    """Every nonzero multiset of length 1..m, in `_exhaustive_instances`
    order, with its extraction size, a chunk at a time.

    Level k + 1 is level k expanded: a child is its parent plus one entry
    b at or after the parent's last, and its counts are the parent's
    plus row b of the table.  Each chunk has at most _CHUNK_CELLS counts;
    the level being expanded is held whole, as a list of such chunks.
    """
    pool = [spec.coords_of(i) for i in range(1, spec.size)]
    rows, width = table.shape
    chunk = max(1, _CHUNK_CELLS // width)
    level = [
        (table[lo : lo + chunk], np.arange(lo, min(lo + chunk, rows))[:, None])
        for lo in range(0, rows, chunk)
    ]
    for k in range(1, m + 1):
        for counts, entries in level:
            yield [tuple(map(pool.__getitem__, e)) for e in entries.tolist()], counts.max(axis=1)
        if k == m:
            return
        # A parent has at most `rows` children, so `step` parents fill a chunk.
        step = max(1, chunk // rows)
        children = []
        for counts, entries in level:
            for lo in range(0, len(entries), step):
                parents = entries[lo : lo + step]
                fanout = rows - parents[:, -1]
                parent = np.repeat(np.arange(len(parents)), fanout)
                start = np.cumsum(fanout) - fanout
                b = np.arange(len(parent)) - np.repeat(start - parents[:, -1], fanout)
                children.append(
                    (counts[lo + parent] + table[b], np.column_stack([parents[parent], b]))
                )
        level = children


def _random_instances(
    spec: GroupSpec, m: int, budget: int, seed: int | None
) -> Iterator[tuple[Element, ...]]:
    """`budget` seeded sequences of m nonzero elements, drawn lazily."""
    rng = random.Random(seed)
    for _ in range(budget):
        yield tuple(spec.random_nonzero(rng) for _ in range(m))


def _random_chunks(
    spec: GroupSpec, table: np.ndarray, instances: Iterator[tuple[Element, ...]]
) -> Iterator[tuple[list[tuple[Element, ...]], np.ndarray]]:
    """The instances, drawn lazily, with their extraction sizes, a chunk of
    at most _CHUNK_CELLS counts at a time.  All have the same length."""
    chunk = max(1, _CHUNK_CELLS // table.shape[1])
    place = spec.n ** np.arange(spec.s - 1, -1, -1)
    while batch := list(islice(instances, chunk)):
        rows = np.array(batch, dtype=np.int64) @ place - 1
        counts = np.zeros((len(batch), table.shape[1]), dtype=table.dtype)
        for j in range(rows.shape[1]):
            counts += table[rows[:, j]]
        yield batch, counts.max(axis=1)


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
        instances = _random_instances(spec, query.m, query.budget, query.seed)
    findings: list[Finding] = []
    checked = oracle_checked = 0
    if (spec.size - 1) * len(scan_windows(spec.n)) * spec.size > SEARCH_TABLE_CELLS:
        for elements in instances:
            f = _evaluate(spec, elements)
            checked += 1
            oracle_checked += len(elements) <= EXACT_SEARCH_LIMIT
            if f is not None:
                findings.append(f)
    else:
        table = _hit_table(spec, query.m)
        if complete:
            chunks = _exhaustive_walk(spec, table, query.m)
        else:
            chunks = _random_chunks(spec, table, instances)
        for batch, sizes in chunks:
            for elements, size in zip(batch, sizes.tolist()):
                m = len(elements)
                witness = None
                if m <= EXACT_SEARCH_LIMIT:
                    witness = max_sum_free(list(elements), add=spec.add)
                    oracle_checked += 1
                checked += 1
                if _at_or_below(size, m) or (
                    witness is not None and _at_or_below(witness.size, m)
                ):
                    f = _evaluate(spec, elements, witness)
                    if f is None or f.extraction_size != size:
                        raise RuntimeError(
                            f"batched extraction size {size} of {elements} disagrees "
                            "with the verified scan"
                        )
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
