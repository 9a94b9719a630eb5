"""Integer pipeline: prime choice, column scan, extraction."""

import dataclasses
import random
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive
import sumfreelab.integers as integers
from sumfreelab import jsonio
from sumfreelab.integers import (
    PrimeChoice,
    best_column,
    choose_prime,
    extract_sum_free_subset,
    parse_integer_lines,
    row_hit_count,
)
from sumfreelab.primes import is_prime, next_prime_2_mod_3
from sumfreelab.scanner import DEFAULT_SCAN_CAP


def test_choose_prime_frozen() -> None:
    assert (choose_prime([1, 2, 3]).p, choose_prime([1, 2, 3]).k) == (11, 3)
    assert (choose_prime([1]).p, choose_prime([1]).k) == (5, 1)
    assert (choose_prime([-50, 3]).p, choose_prime([-50, 3]).k) == (101, 33)
    assert (choose_prime([4, 5, 6]).p, choose_prime([4, 5, 6]).k) == (17, 5)


def test_choose_prime_is_smallest_qualifying() -> None:
    rng = random.Random(99)
    for _ in range(50):
        vals = [rng.choice([-1, 1]) * rng.randint(1, 10**5) for _ in range(rng.randint(1, 10))]
        c = choose_prime(vals)
        assert c.bound == 2 * max(abs(v) for v in vals)
        assert c.p == next_prime_2_mod_3(c.bound)
        assert c.p > c.bound and c.p == 3 * c.k + 2


def test_choose_prime_rejections() -> None:
    with pytest.raises(ValueError):
        choose_prime([])
    with pytest.raises(ValueError):
        choose_prime([3, 0, 5])


def test_prime_choice_validation() -> None:
    PrimeChoice(11, 3, 10)
    with pytest.raises(ValueError):
        PrimeChoice(8, 2, 1)  # not prime
    with pytest.raises(ValueError):
        PrimeChoice(7, 1, 1)  # wrong residue class
    with pytest.raises(ValueError):
        PrimeChoice(11, 2, 1)  # k mismatch
    with pytest.raises(ValueError):
        PrimeChoice(11, 3, 12)  # does not exceed the bound


def test_row_hit_count_frozen() -> None:
    c = PrimeChoice(11, 3, 10)
    assert [row_hit_count(b, c) for b in (1, 2, 3)] == [4, 4, 4]
    with pytest.raises(ValueError):
        row_hit_count(22, c)


def test_row_hit_count_refuses_wrapping_products_at_once() -> None:
    # (p - 1)^2 passes 2^63: x * r % p would wrap and count wrong hits
    # (10^6 of them for r = p - 3 in the first chunk, where 0 is exact).
    p = 4_000_000_007
    c = PrimeChoice(p, (p - 2) // 3, 0)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=str(p)):
        row_hit_count(p - 3, c)
    assert time.perf_counter() - t0 < 0.5


def test_row_hit_count_always_k_plus_1() -> None:
    rng = random.Random(2024)
    for _ in range(60):
        p = next_prime_2_mod_3(rng.randint(2, 2000))
        c = PrimeChoice(p, (p - 2) // 3, 0)
        b = rng.choice([-1, 1]) * rng.randint(1, 10**6)
        if b % p == 0:
            b += 1
        assert row_hit_count(b, c) == c.k + 1


def test_best_column_matches_brute_force() -> None:
    rng = random.Random(6174)
    for _ in range(40):
        m = rng.randint(1, 8)
        vals = [rng.choice([-1, 1]) * rng.randint(1, 40) for _ in range(m)]
        c = choose_prime(vals)
        want_x, want_count, want_hits = naive.best_column_brute(vals, c.p, c.k)
        got = best_column(vals, c)
        assert (got.x, got.count, got.hits) == (want_x, want_count, want_hits)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_best_column_fallback_kernel_agrees(data) -> None:
    # The kernel counts x in [0, (p-1)/2] only: interval rows (|b| <= p/6),
    # column rows (|b| > p/6, up to ~p/2), and repeated rows scattered once
    # with their multiplicity.
    top = data.draw(st.integers(1, 2000), label="max |b|")
    mags = data.draw(st.lists(
        st.one_of(st.integers(1, max(1, top // 20)), st.integers(1, top)), max_size=9,
    ))
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=len(mags) + 1,
                               max_size=len(mags) + 1))
    vals = [s * b for s, b in zip(signs, [top] + mags)]
    repeats = data.draw(st.lists(st.tuples(st.integers(0, len(vals) - 1),
                                           st.sampled_from([1, -1])), max_size=3))
    vals += [s * vals[i] for i, s in repeats]  # duplicates and +-b pairs
    vals = data.draw(st.permutations(vals))

    c = choose_prime(vals)
    p, k = c.p, c.k
    want = naive.column_counts_brute(vals, p, k)
    assert all(want[x] == want[p - x] for x in range(1, p))
    counts = integers._column_counts([b % p for b in vals], k, p)
    got = best_column(vals, c)
    assert counts.tolist() == want[: (p - 1) // 2 + 1]
    assert (got.x, got.count, got.hits) == naive.best_column_brute(vals, p, k)


_PRIMES = [p for p in range(5, 2000, 3) if is_prime(p)]  # every p = 2 mod 3 below 2000
# p - 1 = 2q with q prime: p - 1 has the largest prime factor it can have.
_SAFE_PRIMES = [p for p in _PRIMES if is_prime((p - 1) // 2)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_column_kernels_match_brute(data) -> None:
    # Each kernel forced in turn, on residues with m from 1, duplicates and
    # +-b pairs; the FFT kernel must not fall back to the interval kernel.
    p = data.draw(st.sampled_from(_SAFE_PRIMES) | st.sampled_from(_PRIMES), label="p")
    k = (p - 2) // 3
    vals = data.draw(st.lists(st.integers(1, p - 1), min_size=1, max_size=8), label="residues")
    repeats = data.draw(st.lists(st.tuples(st.integers(0, len(vals) - 1), st.booleans()),
                                 max_size=4), label="repeats")
    vals += [p - vals[i] if negate else vals[i] for i, negate in repeats]
    fft = data.draw(st.booleans(), label="fft")

    want = naive.column_counts_brute(vals, p, k)[: (p - 1) // 2 + 1]
    if fft:
        with mock.patch.object(integers, "_column_counts", side_effect=AssertionError("fell back")):
            counts = integers._column_counts_fft(vals, k, p)
    else:
        counts = integers._column_counts(vals, k, p)
    assert counts.tolist() == want
    with mock.patch.object(integers, "_fft_pays", return_value=fft):
        got = best_column(vals, PrimeChoice(p, k, 0))
    assert (got.x, got.count, got.hits) == naive.best_column_brute(vals, p, k)


def _fft_sized_input() -> tuple[list[int], PrimeChoice]:
    rng = random.Random(17)
    vals = [rng.choice([-1, 1]) * rng.randint(1, 1000) for _ in range(400)]
    c = choose_prime(vals)
    assert integers._fft_pays([b % c.p for b in vals], c.p)
    return vals, c


def test_fft_fallbacks_give_interval_selection() -> None:
    vals, c = _fft_sized_input()
    with mock.patch.object(integers, "_fft_pays", return_value=False):
        want = best_column(vals, c)
    irfft = np.fft.irfft
    for failure in (
        mock.patch.object(integers, "_fft_error_bound", return_value=0.25),
        mock.patch.object(np.fft, "irfft", lambda *a: irfft(*a) + 0.15),  # counts 0.3 off
    ):
        interval = mock.Mock(wraps=integers._column_counts)
        with failure, mock.patch.object(integers, "_column_counts", interval):
            assert best_column(vals, c) == want
        interval.assert_called_once()


def test_fft_sum_check() -> None:
    vals, c = _fft_sized_input()
    irfft = np.fft.irfft

    def off_by_one(*args):
        corr = irfft(*args)
        corr[0] += 1
        return corr

    with mock.patch.object(np.fft, "irfft", off_by_one):
        with pytest.raises(RuntimeError, match=r"m\*\(k\+1\)"):
            best_column(vals, c)


def test_dispatch_keeps_criterion_01_on_interval_kernel() -> None:
    # Criterion 01 has m <= 24 and |b| <= 1e6.  The interval kernel's cells
    # grow with each distinct a = min(r, p - r) <= (p - 1)/2, so the 24
    # largest a are the costliest rows any such input can have, for every
    # prime the criterion can reach.
    top = next_prime_2_mod_3(2 * 10**6)
    sieve = bytearray([1]) * (top + 1)
    for q in range(2, int(top**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, top + 1, q)))
    for p in range(5, top + 1, 3):
        if sieve[p]:
            h = (p - 1) // 2
            assert not integers._fft_pays(list(range(h, max(0, h - 24), -1)), p), p


def test_interval_kernel_counts_across_the_dtype_boundary() -> None:
    # Counts are kept in the narrowest dtype that holds m, and the wrapped
    # cumsum must still give every count exactly: m = 255 counts in uint8,
    # 256 and 300 in uint16, and 256 copies of one value put 256 in a column.
    rng = random.Random(255)
    cases = [[rng.choice([-1, 1]) * rng.randint(1, 60) for _ in range(m)] for m in (255, 256, 300)]
    cases += [[7] * 256, [2] * 256 + [45], [40] * 256 + [-3, 50]]
    for vals in cases:
        c = choose_prime(vals)
        counts = integers._column_counts([b % c.p for b in vals], c.k, c.p)
        assert counts.dtype == np.min_scalar_type(len(vals))
        assert counts.tolist() == naive.column_counts_brute(vals, c.p, c.k)[: (c.p - 1) // 2 + 1]
    assert counts.max() >= 256


def test_interval_kernel_scratch_is_bounded_in_m() -> None:
    # 5000 interval rows and one column row at p = 2000003: every distinct a
    # is scattered into one count array (2h bytes of uint16 here), and
    # beyond it scratch stays within one column row, its columns and one
    # temporary of 4 bytes per hit column (h/3 of them).  The peak reads
    # about 4.9h bytes, and 3.75h with 25 rows at the same p.
    vals = [*range(1, 5001), 10**6]
    c = choose_prime(vals)
    assert c.p == 2000003
    residues = [b % c.p for b in vals]
    assert not integers._fft_pays(residues, c.p)
    h = (c.p - 1) // 2
    tracemalloc.start()
    try:
        counts = integers._column_counts(residues, c.k, c.p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * h
    assert 2 * int(counts[1:].sum()) == len(vals) * (c.k + 1)


def test_column_totals_identity() -> None:
    # Summed over every multiplier, each input contributes k+1 hits.
    rng = random.Random(808)
    for _ in range(10):
        m = rng.randint(1, 6)
        vals = [rng.choice([-1, 1]) * rng.randint(1, 25) for _ in range(m)]
        c = choose_prime(vals)
        total = 0
        for x in range(1, c.p):
            total += sum(1 for b in vals if c.k < x * (b % c.p) % c.p <= 2 * c.k + 1)
        assert total == m * (c.k + 1)


def test_extract_frozen_records() -> None:
    assert jsonio.integer_extraction_to_dict(extract_sum_free_subset([1, 2, 3])) == {
        "schema": 1, "p": 11, "k": 3, "x": 2,
        "indices": [1, 2], "size": 2, "verified": True,
    }
    assert jsonio.integer_extraction_to_dict(extract_sum_free_subset([1])) == {
        "schema": 1, "p": 5, "k": 1, "x": 2,
        "indices": [0], "size": 1, "verified": True,
    }
    ex = extract_sum_free_subset([2, 2, 2])
    assert jsonio.integer_extraction_to_dict(ex) == {
        "schema": 1, "p": 5, "k": 1, "x": 1,
        "indices": [0, 1, 2], "size": 3, "verified": True,
    }
    assert ex.subset == (2, 2, 2)


def test_extract_verified_properties() -> None:
    rng = random.Random(314159)
    for _ in range(60):
        m = rng.randint(1, 24)
        vals = [rng.choice([-1, 1]) * rng.randint(1, 10**4) for _ in range(m)]
        ex = extract_sum_free_subset(vals)
        assert ex.verified and not ex.sampled
        assert ex.size >= m // 3 + 1
        assert list(ex.indices) == sorted(set(ex.indices))
        assert naive.sum_free(set(ex.subset))
        assert ex.subset == tuple(vals[i] for i in ex.indices)


def test_extract_rejections() -> None:
    with pytest.raises(ValueError):
        extract_sum_free_subset([])
    with pytest.raises(ValueError):
        extract_sum_free_subset([0])
    with pytest.raises(ValueError):
        extract_sum_free_subset([3, 0])


def test_sampled_column_scan() -> None:
    vals = [17, -4, 23, 5, 9, -11, 2]
    c = choose_prime(vals)
    with pytest.raises(ValueError):
        best_column(vals, c, sample=5)  # seed required
    a = extract_sum_free_subset(vals, sample=8, seed=42)
    b = extract_sum_free_subset(vals, sample=8, seed=42)
    assert a == b and a.sampled
    assert naive.sum_free(set(a.subset))
    # a sample covering every nonzero multiplier finds the true best
    full = best_column(vals, c)
    covered = best_column(vals, c, sample=c.p, seed=7)
    assert (covered.x, covered.count) == (full.x, full.count)


def _sampled_xs(p: int, sample: int, seed: int) -> list[int]:
    return sorted(random.Random(seed).sample(range(1, p), min(sample, p - 1)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sampled_column_scan_matches_brute(data) -> None:
    # Digit widths run from one 31-bit digit down to 58 one-bit digits
    # just below the refusal limit; every count is checked in Python ints.
    top = data.draw(st.sampled_from([2**31, 2**40, 2**52, 79 * 10**15]), label="max |b|")
    mags = data.draw(st.lists(st.integers(1, top), max_size=7), label="mags")
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=len(mags) + 1,
                               max_size=len(mags) + 1))
    vals = [s * b for s, b in zip(signs, [top] + mags)]
    sample = data.draw(st.integers(1, 300), label="sample")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    c = choose_prime(vals)
    got = best_column(vals, c, sample=sample, seed=seed)
    xs = _sampled_xs(c.p, sample, seed)
    counts = naive.sampled_counts_brute(vals, c.p, c.k, xs)
    assert (got.x, got.count) == (xs[counts.index(max(counts))], max(counts))


def test_sampled_scan_beyond_int64_products() -> None:
    # x * b overflows int64 here (p^2 > 2^63); one column holds all six.
    vals = [10**12 + 39, 3 * 10**11 + 7, 5, 77, 10**12 - 11, 123456789012]
    ex = extract_sum_free_subset(vals, sample=2000, seed=1)
    assert ex.size == 6 and ex.verified
    assert naive.sampled_counts_brute(vals, ex.choice.p, ex.choice.k, [ex.column.x]) == [6]


def test_sampled_scan_refusals() -> None:
    # Just below the limit the scan runs on 58 one-bit digits; above it,
    # and above the sample cap, it refuses before drawing anything.
    vals = [79 * 10**15, -3, 10**16 + 1]
    ok = choose_prime(vals)
    counts = naive.sampled_counts_brute(vals, ok.p, ok.k, _sampled_xs(ok.p, 50, 1))
    assert best_column(vals, ok, sample=50, seed=1).count == max(counts)
    with mock.patch("random.Random") as draw:
        for b in (8 * 10**16, 10**18, 10**19):
            with pytest.raises(ValueError, match="2\\*\\*63"):
                best_column([b], choose_prime([b]), sample=5, seed=1)
        with pytest.raises(ValueError, match="sampled scan cap"):
            best_column([10**9], choose_prime([10**9]), sample=DEFAULT_SCAN_CAP + 1, seed=1)
        draw.assert_not_called()


def test_recount_guard(monkeypatch) -> None:
    vals = [17, -4, 23, 5, 9, -11, 2]
    c = choose_prime(vals)
    kernel = integers._sampled_tallies

    def off_by_one(*args):
        count, (tally,) = kernel(*args)
        return count, (dataclasses.replace(tally, best_count=tally.best_count + 1),)

    monkeypatch.setattr(integers, "_sampled_tallies", off_by_one)
    with pytest.raises(RuntimeError, match="recount"):
        best_column(vals, c, sample=8, seed=42)
    column_counts = integers._column_counts
    monkeypatch.setattr(integers, "_column_counts", lambda *a: column_counts(*a) + 1)
    with pytest.raises(RuntimeError, match="recount"):
        best_column(vals, c)


def test_exhaustive_scan_cap() -> None:
    refused = choose_prime([5_000_000])
    assert refused.p == 10_000_019
    with mock.patch.object(integers, "_column_counts") as kernel:
        with pytest.raises(ValueError, match="sample"):
            best_column([5_000_000], refused)
        kernel.assert_not_called()
    assert best_column([5_000_000], refused, sample=10, seed=1).count >= 1
    ex = extract_sum_free_subset([4_999_000])
    assert ex.choice.p == 9_998_033
    assert ex.verified and ex.size == 1


def test_parse_integer_lines() -> None:
    lines = ["3", "", "# all of it ignored", "  -7  # trailing note", "12"]
    assert parse_integer_lines(lines) == [3, -7, 12]
    with pytest.raises(ValueError, match="line 2"):
        parse_integer_lines(["1", "two", "3"])
