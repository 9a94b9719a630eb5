"""Side-by-side evaluation of the two readings of the averaging step.

A scan's grand total can be divided by the number of all multipliers or
by the number of nonzero multipliers; the two give different per-column
yardsticks.  An adjudication record reports both, exactly, next to the
quantities that are supposed to certify extraction quality, without
preferring either reading.  The searches then hunt for inputs where the
certified density fails, keeping "our extractor fell short" strictly
apart from "the density bound itself is wrong".

A search scores instances over a per-group hit table H: row b - 1
holds, for every window of scan_windows(n) and every multiplier x,
whether x . b lies in the window.  An instance's largest column count,
the sum of its entries' rows, is the size `extract_sum_free_group`
extracts.  Exhaustive and random instances alike are drawn lazily and
scored by one generator (`_table_chunks`), which sums gathered rows in
chunks bounded both in counts and in entries.  Random instances are
built a chunk at a time from the scanner's replay of the seeded
random.Random (`_random_instances`), equal to drawing them with
`GroupSpec.random_nonzero`.  H's dot products come from the scan core,
and `verify_report` checks it as the scan of all nonzero elements.
Groups above DEFAULT_SCAN_CAP elements, and instances of more than
_CHUNK_CELLS coordinates, are refused before anything is drawn; groups
whose tables would exceed SEARCH_TABLE_BYTES extract each instance
instead, and are refused, before the exhaustive pool is listed, where
instances times the group's size pass SEARCH_SCAN_CELLS.  Every
instance then goes through one loop: the exact oracle for at most
EXACT_SEARCH_LIMIT entries, in instance order, and, at or below 2m/7, a
re-run through the verified path (`_evaluate`), which must agree.
With the hit table, the oracle adds through a sum table of the group
built once per search (`_table_add`); without it, through
`GroupSpec.add`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, groupby, islice
from typing import Callable, Iterator

import numpy as np

from .groups import DivisorProfile, Element, GroupSequence, GroupSpec
from .oracle import EXACT_SEARCH_LIMIT, SumFreeWitness, max_sum_free
from .primes import is_prime
from .scanner import (
    _CHUNK_CELLS,
    DEFAULT_SCAN_CAP,
    GroupExtraction,
    ScanReport,
    _dots,
    _randbelow_draws,
    _report,
    _tally,
    divisor_profile,
    extract_sum_free_group,
    full_scan,
    scan_windows,
    verify_report,
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


def _multiset_count(q: int, m: int, cap: float = math.inf) -> int:
    """Multisets of length 1..m over q elements; once that passes `cap`,
    the first partial count above it.  Each length adds at least one."""
    if m > cap:
        return m
    total, term = 0, 1
    for k in range(1, m + 1):
        term = term * (q + k - 1) // k  # C(q + k - 1, k)
        total += term
        if total > cap:
            break
    return total


def _exhaustive_instances(spec: GroupSpec, m: int) -> Iterator[tuple[Element, ...]]:
    pool = [spec.coords_of(i) for i in range(1, spec.size)]
    for k in range(1, m + 1):
        yield from combinations_with_replacement(pool, k)


def _at_or_below(size: int, m: int) -> bool:
    """Whether a sum-free subsequence of `size` out of m entries is at or
    below the guaranteed density 2m/7."""
    return 7 * size <= 2 * m


def _evaluate(
    spec: GroupSpec, elements: tuple[Element, ...], witness: SumFreeWitness | None
) -> Finding:
    """An instance's Finding from the verified path (full scan, pullback,
    sum-free check) and the oracle's `witness`, None above
    EXACT_SEARCH_LIMIT entries."""
    extraction = extract_sum_free_group(GroupSequence(spec, elements))
    m = len(elements)
    exact_size = None if witness is None else witness.size
    return Finding(
        elements=elements,
        m=m,
        extraction_size=extraction.size,
        exact_max_size=exact_size,
        extraction_below_bound=_at_or_below(extraction.size, m),
        max_below_bound=exact_size is not None and _at_or_below(exact_size, m),
    )


#: Groups whose hit table and sum table (`_table_bytes`) would pass this
#: many bytes extract each instance with a scan instead.
SEARCH_TABLE_BYTES = 1 << 22

#: Searches of those groups are refused when their instances times the
#: group's size pass this: about 30 s of per-instance scans.
SEARCH_SCAN_CELLS = 1 << 25


def _hit_table(spec: GroupSpec, m: int) -> np.ndarray:
    """H[b - 1, j * q + x] = [x . b lies in window j], for the q elements x
    and the nonzero elements b of Z_n^s, in the narrowest dtype holding m.
    Raises unless `verify_report` passes H as the scan of every b.
    """
    n, s, q = spec.n, spec.s, spec.size
    seq = GroupSequence(spec, tuple(map(spec.coords_of, range(1, q))))
    dots = _dots(np.array(seq.elements), 0, n, n)
    windows = scan_windows(n)
    table = np.concatenate([w.bitmap()[dots] for w in windows], axis=1)
    table = table.astype(np.min_scalar_type(m))
    hits = table.reshape(q - 1, len(windows), q)
    tallies = _tally(hits.sum(axis=0, dtype=np.int64), hits.sum(axis=2, dtype=np.int64).T, range(q))
    problems = verify_report(_report(seq, divisor_profile(seq), tallies), seq)
    if problems:
        raise RuntimeError(f"hit table of Z_{n}^{s}: {problems[0]} (of {len(problems)} problems)")
    return table


def _table_bytes(spec: GroupSpec, m: int) -> int:
    """Bytes of the hit table of Z_n^s for instances of up to m entries,
    plus the 8-byte references of `_table_add`'s q^2 sums."""
    q = spec.size
    cells = (q - 1) * len(scan_windows(spec.n)) * q
    return cells * np.min_scalar_type(m).itemsize + 8 * q * q


def _random_instances(
    spec: GroupSpec, m: int, budget: int, seed: int | None
) -> Iterator[tuple[Element, ...]]:
    """`budget` seeded sequences of m nonzero elements, drawn lazily: the
    tuples of `budget` loops of m `spec.random_nonzero(rng)` calls on
    rng = random.Random(seed), built in numpy.

    CPython's randrange(n) is _randbelow(n), and random_nonzero draws all
    s coordinates again while every one is zero.  So the accepted draws
    of `_randbelow_draws`, grouped in s-tuples with the all-zero tuples
    dropped, are the elements, which group in m-tuples.  Each read is
    sized from the elements still missing, and one chunk of at most
    _CHUNK_CELLS // (m * s) instances is built at a time.
    """
    n, s = spec.n, spec.s
    k = n.bit_length()
    rng = random.Random(seed)
    coords = np.empty(0, dtype=np.uint32)  # accepted, not yet a whole s-tuple

    def nonzero(missing: int) -> np.ndarray:
        # Accepted draws per element average s * 2^k n^(s-1) / (n^s - 1).
        nonlocal coords
        c = min(_CHUNK_CELLS, (missing * s * n ** (s - 1) << k) // (n**s - 1)) + 64
        coords = np.concatenate([coords, _randbelow_draws(rng, n, c)])
        whole = len(coords) - len(coords) % s
        tuples, coords = coords[:whole].reshape(-1, s), coords[whole:]
        return tuples[tuples.any(axis=1)].ravel()

    chunk = max(1, _CHUNK_CELLS // (m * s))
    drawn = np.empty(0, dtype=np.uint32)  # coordinates of drawn elements
    for start in range(0, budget, chunk):
        need = min(chunk, budget - start) * m * s
        parts = [drawn]
        while (have := sum(map(len, parts))) < need:
            parts.append(nonzero((need - have) // s))
        drawn = np.concatenate(parts)
        flat = iter(drawn[:need].tolist())
        drawn = drawn[need:]
        # Consecutive s coordinates make an element, m elements an instance.
        yield from zip(*[zip(*[flat] * s)] * m)


def _table_add(spec: GroupSpec) -> Callable[[Element, Element], Element]:
    """`spec.add` through a table: sums[i * q + j] is the element tuple
    e_i + e_j, for the q elements e_i of Z_n^s in index order, found by
    numpy index arithmetic and gathered as references to one of q tuples
    (no Python int per sum); `_table_bytes` counts them."""
    n, q = spec.n, spec.size
    elements = np.fromiter(spec.elements(), dtype=object, count=q)
    digits = np.arange(q)
    index = np.zeros((q, q), dtype=np.intp)
    for place in (n**d for d in range(spec.s)):
        digit = digits // place % n
        index += (digit[:, None] + digit) % n * place
    sums = elements[index.ravel()].tolist()
    row = {e: i * q for i, e in enumerate(elements)}
    col = {e: i for i, e in enumerate(elements)}
    return lambda a, b: sums[row[a] + col[b]]


def _table_chunks(
    spec: GroupSpec, table: np.ndarray, instances: Iterator[tuple[Element, ...]]
) -> Iterator[tuple[list[tuple[Element, ...]], np.ndarray]]:
    """The instances, drawn lazily, with their extraction sizes: the
    largest column of their entries' summed table rows.  A chunk holds
    consecutive instances of one length k, at most
    _CHUNK_CELLS // (width + k) of them, so both its counts and its
    entries stay bounded."""
    row = {spec.coords_of(i): i - 1 for i in range(1, spec.size)}
    width = table.shape[1]
    for k, same_length in groupby(instances, len):
        chunk = max(1, _CHUNK_CELLS // (width + k))
        while batch := list(islice(same_length, chunk)):
            entries = (row[e] for elements in batch for e in elements)
            rows = np.fromiter(entries, dtype=np.intp, count=len(batch) * k)
            counts = np.zeros((len(batch), width), dtype=table.dtype)
            for col in rows.reshape(len(batch), k).T:
                counts += table[col]
            yield batch, counts.max(axis=1)


def counterexample_search(query: CounterexampleQuery) -> SearchResult:
    """Hunt for instances at or below the 2/7 density, per the query.

    Exhaustive mode enumerates every nonzero multiset up to the target
    length (refusing if that count exceeds the budget); random mode
    draws budget sequences of exactly the target length.
    """
    spec = GroupSpec(query.n, query.s)
    if spec.size > DEFAULT_SCAN_CAP:
        raise ValueError(
            f"search of Z_{spec.n}^{spec.s}: the group has {spec.size} elements, "
            f"above the scan cap {DEFAULT_SCAN_CAP}"
        )
    complete = query.mode == "exhaustive"
    if complete:
        total = _multiset_count(spec.size - 1, query.m, query.budget)
        if total > query.budget:
            raise ValueError(
                f"exhaustive search needs at least {total} instances, above the "
                f"budget {query.budget}"
            )
    if query.m * spec.s > _CHUNK_CELLS:
        raise ValueError(
            f"search of Z_{spec.n}^{spec.s}: --m {query.m} entries of rank {spec.s} are "
            f"{query.m * spec.s} coordinates per instance, above {_CHUNK_CELLS}"
        )
    per_instance = _table_bytes(spec, query.m) > SEARCH_TABLE_BYTES
    work = (total if complete else query.budget) * spec.size
    if per_instance and work > SEARCH_SCAN_CELLS:
        raise ValueError(
            f"search of Z_{spec.n}^{spec.s}: {work} scan cells (instances times the "
            f"{spec.size} group elements), above {SEARCH_SCAN_CELLS}; lower --m or --budget"
        )
    if complete:
        instances = _exhaustive_instances(spec, query.m)
    else:
        instances = _random_instances(spec, query.m, query.budget, query.seed)
    if per_instance:
        add = spec.add
        chunks = (
            ([e], np.array([extract_sum_free_group(GroupSequence(spec, e)).size]))
            for e in instances
        )
    else:
        add = _table_add(spec) if query.m <= EXACT_SEARCH_LIMIT else spec.add
        chunks = _table_chunks(spec, _hit_table(spec, query.m), instances)
    findings: list[Finding] = []
    checked = oracle_checked = 0
    for batch, sizes in chunks:
        for elements, size in zip(batch, sizes.tolist()):
            m = len(elements)
            exact = m <= EXACT_SEARCH_LIMIT
            witness = max_sum_free(list(elements), add=add) if exact else None
            checked += 1
            oracle_checked += exact
            if _at_or_below(size, m) or (witness is not None and _at_or_below(witness.size, m)):
                f = _evaluate(spec, elements, witness)
                if f.extraction_size != size:
                    raise RuntimeError(
                        f"search size {size} of {elements} disagrees with the verified scan"
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


#: Prime-case checks are refused when trials times m_max times the
#: group's size pass this: at worst (Z_2, one trial) about 3 s and 150 MiB.
PRIME_CASE_CELLS = 1 << 22


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
    cells = trials * m_max * spec.size
    if cells > PRIME_CASE_CELLS:
        raise ValueError(
            f"prime-case of Z_{p}^{s}: --trials {trials} x --m-max {m_max} x {spec.size} "
            f"multipliers is {cells} scan cells, above {PRIME_CASE_CELLS}"
        )
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
