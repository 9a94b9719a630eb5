"""Multiplier scan kernel against full enumeration, plus exact stats."""

import dataclasses
import math
import os
import random
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import naive
import sumfreelab.scanner as scanner
from sumfreelab.groups import GroupSequence, GroupSpec
from sumfreelab.jsonio import dumps, scan_report_to_dict
from sumfreelab.scanner import (
    divisor_profile,
    expected_counts,
    extract_sum_free_group,
    full_scan,
    verify_report,
    weighted_inequality_sweep,
)


def _random_sequence(rng, n, s, m) -> GroupSequence:
    spec = GroupSpec(n, s)
    return GroupSequence(spec, tuple(spec.random_nonzero(rng) for _ in range(m)))


def test_divisor_profile() -> None:
    seq = GroupSequence(GroupSpec(7, 1), tuple((v,) for v in range(1, 7)))
    prof = divisor_profile(seq)
    assert prof.pairs == ((1, 6),)
    assert prof.min_divisor == prof.max_divisor == 1
    assert prof.total == 6

    seq = GroupSequence(GroupSpec(6, 2), ((2, 4), (3, 3)))
    prof = divisor_profile(seq)
    assert prof.pairs == ((2, 1), (3, 1))
    assert (prof.min_divisor, prof.max_divisor) == (2, 3)
    assert dict(prof.pairs).get(2) == 1 and 5 not in dict(prof.pairs)


def test_expected_counts_frozen() -> None:
    seq = GroupSequence(GroupSpec(7, 1), tuple((v,) for v in range(1, 7)))
    m1, m2 = expected_counts(divisor_profile(seq), 7)
    assert (m1, m2) == (Fraction(12, 7), Fraction(12, 7))

    seq = GroupSequence(GroupSpec(6, 1), ((2,), (4,)))
    m1, m2 = expected_counts(divisor_profile(seq), 6)
    assert (m1, m2) == (Fraction(2, 3), Fraction(2, 3))


def test_expected_counts_match_full_scan_means() -> None:
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 12)
        s = rng.randint(1, 2)
        seq = _random_sequence(rng, n, s, rng.randint(1, 8))
        report = full_scan(seq)
        assert report.mean_full_1 == report.expected_count_1
        assert report.mean_full_2 == report.expected_count_2


def test_inequality_sweep_frozen_rows() -> None:
    rows = {(r.n, r.d): r for r in weighted_inequality_sweep(7)}
    assert len(rows) == 9
    r = rows[(7, 1)]
    assert (r.ratio_1, r.ratio_2, r.lhs, r.passes) == (
        Fraction(2, 7), Fraction(2, 7), Fraction(2, 7), True)
    r = rows[(4, 2)]
    assert (r.ratio_1, r.ratio_2, r.lhs, r.passes) == (
        Fraction(1, 2), Fraction(0), Fraction(2, 7), True)
    r = rows[(6, 3)]
    assert (r.ratio_1, r.ratio_2, r.lhs) == (Fraction(1, 2), Fraction(0), Fraction(2, 7))
    r = rows[(4, 1)]
    assert (r.ratio_1, r.ratio_2, r.lhs) == (
        Fraction(1, 4), Fraction(1, 2), Fraction(5, 14))
    with pytest.raises(ValueError):
        weighted_inequality_sweep(1)


def test_full_scan_matches_enumeration() -> None:
    rng = random.Random(90210)
    for _ in range(30):
        n = rng.randint(2, 8)
        s = rng.randint(1, 2)
        m = rng.randint(1, 6)
        seq = _random_sequence(rng, n, s, m)
        report = full_scan(seq)
        counts1, counts2 = naive.scan_counts(seq)
        rt1, rt2 = naive.row_totals(seq)
        size = n**s

        assert report.grand_total_1 == sum(counts1)
        assert report.grand_total_2 == sum(counts2)
        assert report.row_totals_1 == tuple(rt1)
        assert report.row_totals_2 == tuple(rt2)
        assert report.best_count_1 == max(counts1)
        assert report.best_x_1 == seq.spec.coords_of(counts1.index(max(counts1)))
        assert report.best_count_2 == max(counts2)
        assert report.best_x_2 == seq.spec.coords_of(counts2.index(max(counts2)))
        for counts, hist, mean_full, mean_nonzero in (
            (counts1, report.histogram_1, report.mean_full_1, report.mean_nonzero_1),
            (counts2, report.histogram_2, report.mean_full_2, report.mean_nonzero_2),
        ):
            want = [0] * (m + 1)
            for c in counts:
                want[c] += 1
            assert hist == tuple(want)
            assert mean_full == Fraction(sum(counts), size)
            assert mean_nonzero == Fraction(sum(counts), size - 1)
        assert report.zero_column_count_1 == counts1[0] == 0
        assert report.zero_column_count_2 == counts2[0] == 0
        assert verify_report(report, seq) == []


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 15),
    s=st.integers(1, 4),
    m=st.integers(1, 300),
    workers=st.integers(1, 3),
    budget=st.sampled_from([1, 7, scanner._CHUNK_CELLS]),
    seed=st.integers(0, 2**16),
)
# m = 256 and 300 need uint16 counts; folded odd, folded even and unfolded n
@example(n=4, s=2, m=256, workers=2, budget=7, seed=1)
@example(n=5, s=3, m=300, workers=1, budget=scanner._CHUNK_CELLS, seed=2)
@example(n=9, s=2, m=260, workers=3, budget=1, seed=3)
# s * (n - 1) = 399 and 298 need an index wider than uint8; in uint8, dot
# products from 256 up would wrap onto residues of other membership
@example(n=400, s=1, m=40, workers=2, budget=7, seed=4)
@example(n=150, s=2, m=2, workers=3, budget=scanner._CHUNK_CELLS, seed=5)
# residues mod 128 are summed in uint8 (2 * 127 = 254, folded); mod 129
# they need uint16 (3 | 129, unfolded)
@example(n=128, s=2, m=3, workers=2, budget=7, seed=8)
@example(n=129, s=2, m=3, workers=3, budget=scanner._CHUNK_CELLS, seed=9)
# the smallest moduli: n = 2 is all n/2 digit, n = 3 is unfolded
@example(n=2, s=4, m=12, workers=3, budget=1, seed=6)
@example(n=3, s=1, m=5, workers=1, budget=1, seed=7)
def test_full_scan_matches_brute_force(n, s, m, workers, budget, seed) -> None:
    # Keep the brute force at most ~60000 column-entry pairs.
    while n**s > 25000:
        s -= 1
    m = min(m, max(1, 60000 // n**s))
    seq = _random_sequence(random.Random(seed), n, s, m)
    with mock.patch.object(scanner, "_CHUNK_CELLS", budget):
        report = full_scan(seq, workers=workers)
    _assert_matches_brute_force(report, seq)


def _assert_matches_brute_force(report, seq) -> None:
    """Every WindowStats field against full enumeration, and verify_report."""
    m, size = len(seq), seq.spec.size
    for counts, rows, stats in zip(naive.scan_counts(seq), naive.row_totals(seq), report.windows):
        hist = [0] * (m + 1)
        for c in counts:
            hist[c] += 1
        best = max(counts)
        assert stats == scanner.WindowStats(
            expected_count=Fraction(sum(counts), size),
            grand_total=sum(counts),
            mean_full=Fraction(sum(counts), size),
            mean_nonzero=Fraction(sum(counts), size - 1),
            sample_mean=None,
            row_totals=tuple(rows),
            best_x=seq.spec.coords_of(counts.index(best)),
            best_count=best,
            histogram=tuple(hist),
            zero_column_count=counts[0],
        )
    assert verify_report(report, seq) == []


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 9),
    s=st.integers(3, 6),
    m=st.integers(1, 300),
    workers=st.integers(1, 3),
    budget=st.sampled_from([1, 7, scanner._CHUNK_CELLS]),
    seed=st.integers(0, 2**16),
)
# m = 256 to 300 need uint16 counts: unfolded (3 | n), folded odd and even n
@example(n=3, s=4, m=300, workers=2, budget=7, seed=1)
@example(n=6, s=3, m=256, workers=3, budget=scanner._CHUNK_CELLS, seed=2)
@example(n=5, s=3, m=290, workers=1, budget=1, seed=3)
@example(n=4, s=4, m=270, workers=2, budget=scanner._CHUNK_CELLS, seed=4)
# n = 2: every first digit is its own negation; rank 6 splits 4 + 2
@example(n=2, s=6, m=300, workers=3, budget=1, seed=5)
@example(n=7, s=5, m=9, workers=1, budget=7, seed=6)
@example(n=5, s=6, m=4, workers=2, budget=scanner._CHUNK_CELLS, seed=7)
def test_gather_scan_matches_brute_force(n, s, m, workers, budget, seed) -> None:
    # Ranks 3 and up gather window rows (trailing digits) picked by the
    # leading digits' dot products.  Entries include ones whose leading or
    # trailing digits are all zero, repeats and +-b pairs.
    while n**s > 20000:
        n -= 1
    m = min(m, max(1, 80000 // n**s))
    rng = random.Random(seed)
    spec = GroupSpec(n, s)
    t = scanner._leading_digits(s)
    assert s - t >= 1
    elements: list[tuple[int, ...]] = []
    while len(elements) < m:
        kind = rng.randrange(5)
        if elements and kind == 0:
            elements.append(rng.choice(elements))
        elif elements and kind == 1:
            elements.append(tuple(-c % n for c in rng.choice(elements)))
        else:
            el = spec.random_nonzero(rng)
            if kind == 2:
                el = (0,) * t + el[t:]
            elif kind == 3:
                el = el[:t] + (0,) * (s - t)
            if any(el):
                elements.append(el)
    seq = GroupSequence(spec, tuple(elements))
    with mock.patch.object(scanner, "_CHUNK_CELLS", budget):
        report = full_scan(seq, workers=workers)
    _assert_matches_brute_force(report, seq)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 150), s=st.integers(1, 3), m=st.integers(1, 6),
       seed=st.integers(0, 2**16))
# s * (n - 1) = 255 and 258: three residues sum to either side of 255
@example(n=86, s=3, m=3, seed=1)
@example(n=87, s=3, m=3, seed=2)
# 2 * (n - 1) = 254 is the widest uint8 residue sum; n = 129 needs uint16
@example(n=128, s=1, m=3, seed=1)
@example(n=128, s=2, m=3, seed=2)
@example(n=128, s=3, m=3, seed=3)
@example(n=129, s=1, m=3, seed=4)
@example(n=129, s=2, m=3, seed=5)
@example(n=129, s=3, m=3, seed=6)
@example(n=150, s=2, m=4, seed=3)
def test_dots_match_brute_force(n, s, m, seed) -> None:
    rng = random.Random(seed)
    low = n ** (s - 1)
    # Any first-digit block the kernel can ask for: at most _CHUNK_CELLS
    # columns, or one digit.
    d0 = rng.randrange(n)
    d1 = rng.randint(d0 + 1, min(n, d0 + max(1, scanner._CHUNK_CELLS // low)))
    # Rows drawn from a pool of one to three random rows and the
    # all-(n - 1) row, whose sums wrap the most, so rows repeat.
    pool = [tuple(rng.randrange(n) for _ in range(s)) for _ in range(rng.randint(1, 3))]
    pool.append((n - 1,) * s)
    rows = np.array([rng.choice(pool) for _ in range(m)], dtype=np.int64)
    dtype = np.min_scalar_type(2 * (n - 1))
    dots = scanner._dots(rows, d0, d1, n)
    assert dots.dtype == dtype and dots.shape == (m, (d1 - d0) * low)
    x = np.arange(d0 * low, d1 * low)
    brute = sum(np.multiply.outer(rows[:, j], x // n ** (s - 1 - j) % n) for j in range(s)) % n
    assert (dots == brute).all()


def test_fold_scans_half_the_first_digits() -> None:
    # 3 does not divide n: digit 0, 1..ceil(n/2)-1 at weight 2 and, for
    # even n, n/2; 3 | n: every digit at weight 1.
    for n in range(2, 300):
        folds = all(w.negation_closed for w in scanner.scan_windows(n))
        assert folds == (n % 3 != 0)
    for n in range(2, 40):
        for s in (1, 2):
            blocks = scanner._column_blocks(n, s, scanner.scan_windows(n))
            assert sum(w * (d1 - d0) for d0, d1, w in blocks) == n
            scanned = {d for d0, d1, _ in blocks for d in range(d0, d1)}
            assert scanned == set(range(n if n % 3 == 0 else n // 2 + 1))


def test_exhaustive_scan_builds_no_table_sized_by_n() -> None:
    # Z_9999991 at m = 5: memberships are band tests on reduced residues,
    # so the peak is one worker's scratch, with no window table sized by n
    # (two ~10 MB tables put it at 28.6 MiB).
    spec = GroupSpec(9999991, 1)
    seq = GroupSequence(spec, ((1,), (2,), (5,), (9999990,), (123457,)))
    tracemalloc.start()
    try:
        report = full_scan(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert verify_report(report, seq) == []


def test_gather_scan_scratch_is_bounded_in_m() -> None:
    # Z_50^3 at m = 2000: every entry's window tables together would be
    # 9.5 MiB, and their row indices 38 MiB; chunks of entries keep the
    # peak near 2.5 MiB whatever m is.
    spec = GroupSpec(50, 3)
    rng = random.Random(5)
    seq = GroupSequence(spec, tuple(spec.random_nonzero(rng) for _ in range(2000)))
    tracemalloc.start()
    try:
        report = full_scan(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert verify_report(report, seq) == []


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 5),
    s=st.integers(4, 6),
    mode=st.sampled_from(["one chunk", "several chunks", "single entries"]),
    workers=st.integers(1, 3),
    data=st.data(),
)
@example(n=3, s=4, mode="one chunk", workers=2, data=None)
@example(n=2, s=6, mode="several chunks", workers=3, data=None)
@example(n=5, s=4, mode="single entries", workers=1, data=None)
def test_paired_gather_matches_brute_force(n, s, mode, workers, data) -> None:
    # Rank >= 4 pairs entries in one table.  The cap is patched so that
    # the whole sequence is one chunk built once, or several chunks of
    # pairs, or no pair table fits; odd m leaves one entry out of the
    # pairs.  Entries repeat, come as +-b pairs and have zero parts.
    while n**s > 1000:
        s -= 1
    t = scanner._leading_digits(s)
    pair_bytes = n * n * 2 * n ** (s - t)
    cap, lo_m = {"one chunk": (scanner._CHUNK_CELLS, 2), "several chunks": (pair_bytes, 40),
                 "single entries": (pair_bytes - 1, 1)}[mode]
    if data is None:
        m, seed = lo_m + 1, 1
    else:
        m = data.draw(st.integers(lo_m, lo_m + 21), label="m")
        seed = data.draw(st.integers(0, 2**16), label="seed")
    rng = random.Random(seed)
    spec = GroupSpec(n, s)
    elements: list[tuple[int, ...]] = []
    while len(elements) < m:
        kind = rng.randrange(5)
        if elements and kind == 0:
            elements.append(rng.choice(elements))
        elif elements and kind == 1:
            elements.append(tuple(-c % n for c in rng.choice(elements)))
        else:
            el = spec.random_nonzero(rng)
            if kind == 2:
                el = (0,) * t + el[t:]
            elif kind == 3:
                el = el[:t] + (0,) * (s - t)
            if any(el):
                elements.append(el)
    seq = GroupSequence(spec, tuple(elements))
    rows = np.array(seq.elements, dtype=np.int64)
    with mock.patch.object(scanner, "_CHUNK_CELLS", cap):
        span, chunk = scanner._gather_chunks(rows, n, 2)
        assert chunk(0).g == (1 if mode == "single entries" else 2)
        if mode != "single entries":
            assert (span == m) == (mode == "one chunk")
        report = full_scan(seq, workers=workers)
    _assert_matches_brute_force(report, seq)


def test_paired_scan_scratch_is_bounded() -> None:
    # Z_11^6 at m = 100: its 50 pair tables (1.4 MiB) are built once and
    # held for the scan; one block's gathers and tallies come on top.
    # The peak read 3.86 MiB (2.29 MiB when each chunk's single-entry
    # tables were rebuilt in every block).
    spec = GroupSpec(11, 6)
    rng = random.Random(11)
    seq = GroupSequence(spec, tuple(spec.random_nonzero(rng) for _ in range(100)))
    tracemalloc.start()
    try:
        report = full_scan(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2**20
    assert verify_report(report, seq) == []


def test_band_scan_scratch_is_bounded_per_chunk() -> None:
    # Z_1000^2 at m = 50, two workers: each entry is a chunk of its own.
    # Scratch is allocated chunk by chunk, so the peak is two threads'
    # chunks at once, 4.6-6.2 MiB over 200 runs (7.1-9.1 MiB when each
    # thread kept its scratch for the whole scan).
    spec = GroupSpec(1000, 2)
    rng = random.Random(7)
    seq = GroupSequence(spec, tuple(spec.random_nonzero(rng) for _ in range(50)))
    tracemalloc.start()
    try:
        report = full_scan(seq, workers=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2**20
    assert verify_report(report, seq) == []


def test_full_scan_frozen_z7() -> None:
    seq = GroupSequence(GroupSpec(7, 1), tuple((v,) for v in range(1, 7)))
    r = full_scan(seq)
    assert r.expected_count_1 == Fraction(12, 7)
    assert r.mean_full_1 == Fraction(12, 7)
    assert r.mean_nonzero_1 == Fraction(2)
    assert r.grand_total_1 == 12
    assert r.row_totals_1 == (2, 2, 2, 2, 2, 2)
    assert (r.best_x_1, r.best_count_1) == ((1,), 2)
    assert r.histogram_1 == (1, 0, 6, 0, 0, 0, 0)
    assert r.zero_column_count_1 == 0


def test_worker_counts_identical() -> None:
    rng = random.Random(777)
    seq = _random_sequence(rng, 9, 2, 7)
    base = full_scan(seq, workers=1)
    for workers in (2, 4, 5):
        other = full_scan(seq, workers=workers)
        assert other == base
        assert dumps(scan_report_to_dict(other)) == dumps(scan_report_to_dict(base))


def test_worker_count_clamped_to_cpus(monkeypatch) -> None:
    seen = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            seen.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(scanner, "ThreadPoolExecutor", RecordingPool)
    seq = GroupSequence(GroupSpec(7, 1), tuple((v,) for v in range(1, 7)))
    report = full_scan(seq, workers=10**6)
    assert all(w <= (os.cpu_count() or 1) for w in seen)
    assert report == full_scan(seq, workers=1)


def test_extraction_frozen() -> None:
    seq = GroupSequence(GroupSpec(7, 1), tuple((v,) for v in range(1, 7)))
    ex = extract_sum_free_group(seq)
    assert ex.multiplier == (1,)
    assert ex.window_index == 1
    assert ex.indices == (2, 3)  # the entries 3 and 4
    assert ex.size == 2
    assert ex.verified_sum_free and ex.beats_two_sevenths

    seq = GroupSequence(GroupSpec(3, 1), ((1,),))
    ex = extract_sum_free_group(seq)
    assert ex.multiplier == (2,) and ex.window_index == 1
    assert ex.indices == (0,) and ex.size == 1


def test_extraction_beats_guarantee_everywhere() -> None:
    rng = random.Random(1789)
    for _ in range(60):
        n = rng.randint(2, 12)
        s = rng.randint(1, 2)
        m = rng.randint(1, 12)
        seq = _random_sequence(rng, n, s, m)
        ex = extract_sum_free_group(seq)
        assert ex.verified_sum_free
        assert 7 * ex.size > 2 * m
        values = [seq.elements[i] for i in ex.indices]
        assert naive.sum_free(values, add=seq.spec.add)


def test_nonzero_mean_strictly_above_full_mean() -> None:
    rng = random.Random(60601)
    for _ in range(30):
        seq = _random_sequence(rng, rng.randint(2, 10), rng.randint(1, 2), rng.randint(1, 6))
        r = full_scan(seq)
        assert r.grand_total_1 >= 1
        assert r.mean_nonzero_1 > r.mean_full_1
        assert r.mean_nonzero_2 >= r.mean_full_2


def test_sampled_scan() -> None:
    rng = random.Random(8)
    seq = _random_sequence(rng, 10, 2, 6)
    with pytest.raises(ValueError):
        full_scan(seq, sample=10)  # seed required
    a = full_scan(seq, sample=20, seed=5)
    b = full_scan(seq, sample=20, seed=5)
    assert a == b
    assert not a.exhaustive and a.sample_size == 20 and a.seed == 5
    assert a.mean_full_1 is None and a.mean_nonzero_1 is None
    assert a.sample_mean_1 == Fraction(a.grand_total_1, 20)
    assert a.zero_column_count_1 is None
    full = full_scan(seq)
    assert a.best_count_1 <= full.best_count_1
    # sampling every nonzero multiplier recovers the true best column
    everything = full_scan(seq, sample=10**2 * 10**2, seed=1)
    assert everything.sample_size == seq.spec.size - 1
    assert (everything.best_x_1, everything.best_count_1) == (full.best_x_1, full.best_count_1)
    assert everything.grand_total_1 == full.grand_total_1


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 9),
    s=st.integers(1, 2),
    m=st.integers(1, 6),
    sample=st.integers(1, 90),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_sampled_scan_matches_recount(n, s, m, sample, seed, data) -> None:
    spec = GroupSpec(n, s)
    nonzero = st.tuples(*[st.integers(0, n - 1)] * s).filter(any)
    seq = GroupSequence(spec, tuple(data.draw(st.lists(nonzero, min_size=m, max_size=m))))
    report = full_scan(seq, sample=sample, seed=seed)
    count = min(sample, spec.size - 1)
    idxs = sorted(random.Random(seed).sample(range(1, spec.size), count))
    windows = (naive.middle_third_members(n), naive.sixth_bands_members(n))
    per_window = (
        (report.row_totals_1, report.histogram_1, report.grand_total_1,
         report.best_x_1, report.best_count_1),
        (report.row_totals_2, report.histogram_2, report.grand_total_2,
         report.best_x_2, report.best_count_2),
    )
    for members, (rows, hist, grand, best_x, best_count) in zip(windows, per_window):
        hits = [
            [sum(a * b for a, b in zip(spec.coords_of(i), el)) % n in members for el in seq]
            for i in idxs
        ]
        counts = [sum(h) for h in hits]
        want_hist = [0] * (m + 1)
        for c in counts:
            want_hist[c] += 1
        assert rows == tuple(sum(h[k] for h in hits) for k in range(m))
        assert hist == tuple(want_hist)
        assert grand == sum(counts)
        assert best_count == max(counts)
        assert best_x == spec.coords_of(idxs[counts.index(max(counts))])
    assert verify_report(report, seq) == []


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 300),
    s=st.integers(1, 3),
    m=st.integers(1, 40),
    sample=st.integers(1, 60),
    budget=st.sampled_from([1, 7, 1 << 10, scanner._CHUNK_CELLS]),
    seed=st.integers(0, 2**16),
)
# m = 300 needs uint16 counts; at budget 7 each entry is a span of its own
@example(n=5, s=2, m=300, sample=40, budget=7, seed=1)
@example(n=7, s=3, m=260, sample=30, budget=scanner._CHUNK_CELLS, seed=2)
# 2(n - 1) = 254 still sums in uint8; 256 and 598 need uint16
@example(n=128, s=2, m=9, sample=50, budget=1 << 10, seed=3)
@example(n=129, s=2, m=9, sample=50, budget=scanner._CHUNK_CELLS, seed=4)
@example(n=300, s=3, m=40, sample=60, budget=1 << 10, seed=5)
# every nonzero multiplier of the group
@example(n=2, s=1, m=3, sample=5, budget=7, seed=6)
@example(n=3, s=2, m=4, sample=8, budget=1, seed=7)
def test_sampled_tallies_match_python_recount(n, s, m, sample, budget, seed) -> None:
    # Budgets 1 and 7 split the multipliers into chunks of a few, and
    # budgets 7 and 2^10 split the entries into spans of digit terms.
    rng = random.Random(seed)
    rows = [[rng.randrange(n) for _ in range(s)] for _ in range(m)]
    size = n**s
    with mock.patch.object(scanner, "_CHUNK_CELLS", budget):
        count, tallies = scanner._sampled_tallies(
            size, sample, seed, n, rows, n, scanner.scan_windows(n)
        )
    idxs = _python_draw(size, min(sample, size - 1), seed)
    assert count == len(idxs)
    windows = (naive.middle_third_members(n), naive.sixth_bands_members(n))
    for members, tally in zip(windows, tallies, strict=True):
        hits = [
            [sum(i // n ** (s - 1 - j) % n * b[j] for j in range(s)) % n in members for b in rows]
            for i in idxs
        ]
        counts = [sum(h) for h in hits]
        best = max(counts)
        assert tally.grand == sum(counts)
        assert tally.row_totals.tolist() == [sum(h[k] for h in hits) for k in range(m)]
        assert tally.hist.tolist() == [counts.count(c) for c in range(m + 1)]
        assert (tally.best_idx, tally.best_count) == (idxs[counts.index(best)], best)
        assert tally.zero_count is None


def test_sampled_digit_tables_are_bounded() -> None:
    # Z_4000^2 at m = 2000: one table per digit for every entry would be
    # 16 MB each; spans keep every table within _CHUNK_CELLS bytes, at a
    # size that does not depend on m.  A base whose terms alone pass that
    # cap, or terms that need 64 bits, build no table: Z_1000003 and an
    # integer-path scan at p ~ 2e14 go through the int64 matmul.
    rng = random.Random(9)
    built = []
    real = scanner._digit_terms

    def spy(*args):
        built.append(real(*args))
        return built[-1]

    shapes = set()
    with mock.patch.object(scanner, "_digit_terms", spy):
        for m in (50, 2000):
            rows = [[rng.randrange(4000) for _ in range(2)] for _ in range(m)]
            scanner._sampled_tallies(4000**2, 300, 1, 4000, rows, 4000, scanner.scan_windows(4000))
            assert built and all(t.nbytes <= scanner._CHUNK_CELLS for t in built)
            shapes.add(max(t.shape for t in built))
            built.clear()
        rows = [[rng.randrange(1000003)] for _ in range(5)]
        scanner._sampled_tallies(1000003, 300, 1, 1000003, rows, 1000003, scanner.scan_windows(1000003))
        p = 200000000000003
        rows = [[rng.randrange(p) for _ in range(4)] for _ in range(5)]
        scanner._sampled_tallies(4096**4, 300, 1, 4096, rows, p, scanner.scan_windows(p))
    assert shapes == {(4000, scanner._CHUNK_CELLS // (4000 * 2))}
    assert built == []


def _python_draw(size: int, count: int, seed: int) -> list[int]:
    return sorted(random.Random(seed).sample(range(1, size), count))


def _pool_limit(count: int) -> int:
    """Largest population random.sample draws from a pool, not a set."""
    return 21 + (4 ** math.ceil(math.log(count * 3, 4)) if count > 5 else 0)


@settings(max_examples=200, deadline=None)
@given(
    size_count=st.one_of(
        st.tuples(st.integers(2, 500), st.integers(1, 500)),
        st.tuples(st.sampled_from([2**32 - 1, 2**32, 2**32 + 1, 2**33, 2**63 - 1, 2**63]),
                  st.integers(1, 3000)),
        st.tuples(st.integers(2, 2**63), st.integers(1, 3000)),
    ),
    seed=st.one_of(st.integers(-10, 10), st.integers(-(2**200), 2**200)),
)
@example(size_count=(23, 5), seed=1)
@example(size_count=(2, 1), seed=0)
@example(size_count=(2**32, 1000), seed=-5)
@example(size_count=(2**32 + 1, 1000), seed=7)
@example(size_count=(2**32 - 1, 3000), seed=10**30)
@example(size_count=(2**63, 5000), seed=2)
@example(size_count=(4000**2, 20000), seed=11)
def test_draw_matches_random_sample(size_count, seed) -> None:
    # The numpy draw replays CPython's random.sample bit for bit; a change
    # to CPython's sample or getrandbits shows up here, not as new bytes.
    size, count = size_count
    count = min(count, size - 1)
    drawn = scanner._draw_multipliers(size, count, seed)
    assert drawn.dtype == np.int64
    assert drawn.tolist() == _python_draw(size, count, seed)


@pytest.mark.parametrize("count", [1, 5, 6, 7, 21, 100, 1000, 3000])
def test_draw_at_pool_switch(count) -> None:
    # size - 1 is the population, so these sizes straddle the pool/set switch.
    limit = _pool_limit(count)
    for size in range(limit - 1, limit + 4):
        for seed in (0, -1, 2**100):
            assert scanner._draw_multipliers(size, count, seed).tolist() == _python_draw(
                size, count, seed
            )


@settings(max_examples=100, deadline=None)
@given(n=st.one_of(st.integers(1, 2**64 - 1),
                   st.sampled_from([2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1])),
       draws=st.integers(1, 200), seed=st.integers(-(2**70), 2**70))
def test_randbelow_draws_replay_getrandbits(n, draws, seed) -> None:
    rng, ref = random.Random(seed), random.Random(seed)
    got = scanner._randbelow_draws(rng, n, draws)
    tries = (ref.getrandbits(n.bit_length()) for _ in range(draws))
    assert got.tolist() == [r for r in tries if r < n]
    assert rng.getstate() == ref.getstate()


def test_draw_collision_heavy() -> None:
    # 40 000 of 299 999: the set branch, with thousands of repeats to redraw.
    drawn = scanner._draw_multipliers(300_000, 40_000, 3)
    assert drawn.tolist() == _python_draw(300_000, 40_000, 3)


def test_draw_memory_is_bounded() -> None:
    # 10^6 two-word draws: the Python draw peaked at 111 MiB under tracemalloc.
    tracemalloc.start()
    try:
        drawn = scanner._draw_multipliers(2**62, 10**6, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert len(drawn) == 10**6 and drawn[0] >= 1 and drawn[-1] < 2**62
    assert (np.diff(drawn) > 0).all()


def test_scan_cap_refusal() -> None:
    spec = GroupSpec(4000, 2)  # 16 million elements
    seq = GroupSequence(spec, ((1, 2), (3, 4)))
    with pytest.raises(ValueError, match="cap"):
        full_scan(seq)
    sampled = full_scan(seq, sample=30, seed=3)
    assert not sampled.exhaustive and sampled.sample_size == 30


def test_sampled_scan_refusals() -> None:
    # Too many multipliers, or dot products that could leave int64 (a
    # library GroupSpec with a raised cap), are refused before any draw.
    seq = GroupSequence(GroupSpec(4000, 2), ((1, 2), (3, 4)))
    wide = GroupSequence(GroupSpec(2**32, 1, cap=2**40), ((1,), (2**32 - 1,)))
    deep = GroupSequence(GroupSpec(2, 64, cap=2**70), ((1,) * 64,))
    with mock.patch("random.Random") as draw:
        with pytest.raises(ValueError, match="sampled scan cap"):
            full_scan(seq, sample=scanner.DEFAULT_SCAN_CAP + 1, seed=1)
        for big in (wide, deep):
            with pytest.raises(ValueError, match="2\\*\\*63"):
                full_scan(big, sample=10, seed=1)
        draw.assert_not_called()
    fits = GroupSequence(GroupSpec(2**31, 1, cap=2**40), ((1,), (2**31 - 1,)))
    assert verify_report(full_scan(fits, sample=10, seed=1), fits) == []


def test_scan_input_validation() -> None:
    seq = GroupSequence(GroupSpec(5, 1), ((1,),))
    with pytest.raises(ValueError):
        full_scan(seq, workers=0)
    with pytest.raises(ValueError):
        full_scan(GroupSequence(GroupSpec(5, 1), ()))


def _tamper(report, j: int, **changes):
    """The report with window j's statistics replaced (1-based)."""
    windows = list(report.windows)
    windows[j - 1] = dataclasses.replace(windows[j - 1], **changes)
    return dataclasses.replace(report, windows=tuple(windows))


def test_report_windows_and_flat_names() -> None:
    seq = GroupSequence(GroupSpec(7, 1), tuple((v,) for v in range(1, 7)))
    r = full_scan(seq)
    assert len(r.windows) == len(scanner.scan_windows(7))
    assert (r.best_x_2, r.histogram_1) == (r.windows[1].best_x, r.windows[0].histogram)
    for name in ("best_x_0", "best_x_3", "best_x_01", "windows_1", "nonsense"):
        assert not hasattr(r, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.best_x_1 = (2,)
    short = dataclasses.replace(r, windows=r.windows[:1])
    assert not hasattr(short, "best_x_2")
    assert any("1 windows, not 2" in p for p in verify_report(short, seq))


def test_verify_report_catches_tampering() -> None:
    seq = GroupSequence(GroupSpec(7, 1), tuple((v,) for v in range(1, 7)))
    r = full_scan(seq)
    bad = _tamper(r, 1, row_totals=tuple([99] * 6))
    assert any("row 0" in p for p in verify_report(bad, seq))
    bad = _tamper(r, 1, mean_full=Fraction(1))
    assert any("expected count" in p for p in verify_report(bad, seq))
    bad = _tamper(r, 1, zero_column_count=3)
    assert any("zero multiplier" in p for p in verify_report(bad, seq))
    bad = _tamper(r, 1, best_count=5)
    assert any("histogram" in p for p in verify_report(bad, seq))
    bad = _tamper(r, 2, grand_total=r.grand_total_2 + 1)
    assert any("grand total" in p for p in verify_report(bad, seq))

    sampled = full_scan(seq, sample=4, seed=2)
    assert verify_report(sampled, seq) == []
    rows = list(sampled.row_totals_2)
    rows[0] += 1
    bad = _tamper(sampled, 2, row_totals=tuple(rows))
    assert any("grand total" in p for p in verify_report(bad, seq))
