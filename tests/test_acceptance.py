"""Acceptance suite: one test per published criterion, tolerances pinned.

Each test prints a single PASS line (visible with -v as the test result,
or with -s as the print) and enforces its stated wall-clock budget where
one applies.  Seeds are frozen so every run checks the same instances.
"""

import json
import random
import time
from fractions import Fraction
from itertools import product

import naive
from sumfreelab.adjudicate import (
    CounterexampleQuery,
    adjudicate,
    counterexample_search,
)
from sumfreelab.cli import main
from sumfreelab.extremal import rhemtulla_street_bound, tightness_instance
from sumfreelab.groups import (
    GroupSequence,
    GroupSpec,
    window_middle_third,
    window_prime_target,
    window_sixth_bands,
)
from sumfreelab.integers import PrimeChoice, extract_sum_free_subset, row_hit_count
from sumfreelab.jsonio import dumps, scan_report_to_dict
from sumfreelab.primes import is_prime, next_prime_2_mod_3
from sumfreelab.scanner import full_scan, verify_report, weighted_inequality_sweep

SEED = 20260818


def _integer_instance(rng) -> list[int]:
    m = rng.randint(1, 24)
    vals: list[int] = []
    for _ in range(m):
        if vals and rng.random() < 0.1:
            vals.append(rng.choice(vals))  # exercise duplicates
            continue
        magnitude = rng.randint(1, 10 ** rng.randint(1, 6))
        vals.append(rng.choice([-1, 1]) * magnitude)
    return vals


def test_criterion_01_thousand_integer_extractions() -> None:
    """1000 seeded inputs (sizes 1-24, magnitudes <= 1e6, mixed signs):
    every extraction verifies sum-free with more than a third of the
    positions, in under 60 s (one warm-up call excluded from the clock)."""
    rng = random.Random(SEED)
    extract_sum_free_subset([3, -5, 7])  # warm-up call, outside the clock
    t0 = time.perf_counter()
    for _ in range(1000):
        vals = _integer_instance(rng)
        ex = extract_sum_free_subset(vals)
        assert ex.verified
        assert ex.size >= len(vals) // 3 + 1
        assert naive.sum_free(set(ex.subset))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    print(f"criterion 01 PASS: 1000 extractions verified in {elapsed:.1f}s (< 60s)")


def test_criterion_02_row_hit_counts() -> None:
    """200 random (b, p) pairs with p <= 1e4: every row of the residue
    table has exactly k+1 hits."""
    rng = random.Random(SEED + 2)
    for _ in range(200):
        p = next_prime_2_mod_3(rng.randint(0, 9900))
        assert p <= 10**4
        choice = PrimeChoice(p, (p - 2) // 3, 0)
        b = rng.choice([-1, 1]) * rng.randint(1, 10**6)
        if b % p == 0:
            b += 1
        assert row_hit_count(b, choice) == choice.k + 1
    print("criterion 02 PASS: 200 row hit counts all equal k+1")


def test_criterion_03_window_families_sum_free() -> None:
    """Every prime-target window with modulus <= 1e4 and both band
    windows for every n <= 2000 pass their construction-time exhaustive
    sum-freeness verification and match the defining inequalities."""
    built = 0
    for k in range(0, (10**4 - 2) // 3 + 1):
        if not is_prime(3 * k + 2):
            continue
        w = window_prime_target(k)  # raises WindowError if not sum-free
        assert set(w.members()) == naive.prime_target_members(k)
        built += 1
    assert built == sum(1 for p in range(2, 10**4 + 1) if is_prime(p) and p % 3 == 2)
    for n in range(2, 2001):
        w1 = window_middle_third(n)
        w2 = window_sixth_bands(n)
        assert set(w1.members()) == naive.middle_third_members(n)
        assert set(w2.members()) == naive.sixth_bands_members(n)
    print(f"criterion 03 PASS: {built} prime windows and 1999 band window pairs verified")


def test_criterion_04_inequality_sweep() -> None:
    """The weighted density inequality holds at every (n, d) with
    n <= 1000, in under 10 s."""
    t0 = time.perf_counter()
    rows = weighted_inequality_sweep(1000)
    elapsed = time.perf_counter() - t0
    assert all(r.passes for r in rows)
    want_rows = sum(1 for n in range(2, 1001) for d in range(1, n) if n % d == 0)
    assert len(rows) == want_rows
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
    print(f"criterion 04 PASS: {len(rows)} rows all >= 2/7 in {elapsed:.2f}s (< 10s)")


def test_criterion_05_uniform_attainment_and_row_totals() -> None:
    """For every group with n <= 10, s <= 3 (all well under 1e5
    elements): each nonzero entry's dot products attain exactly the
    gcd-class subgroup, each value gcd * n^(s-1) times, and scan row
    totals equal their closed form."""
    rng = random.Random(SEED + 5)
    pairs = 0
    for n in range(2, 11):
        for s in range(1, 4):
            spec = GroupSpec(n, s)
            assert spec.size <= 10**5
            multipliers = list(product(range(n), repeat=s))
            for b in spec.elements():
                if not any(b):
                    continue
                d = spec.gcd_class(b)
                seen: dict[int, int] = {}
                for x in multipliers:
                    dot = sum(xi * bi for xi, bi in zip(x, b)) % n
                    seen[dot] = seen.get(dot, 0) + 1
                assert seen == {v: d * n ** (s - 1) for v in range(0, n, d)}
            seq = GroupSequence(spec, tuple(spec.random_nonzero(rng) for _ in range(8)))
            report = full_scan(seq)
            w1 = window_middle_third(n)
            w2 = window_sixth_bands(n)
            for i, b in enumerate(seq):
                d = spec.gcd_class(b)
                assert report.row_totals_1[i] == d * n ** (s - 1) * w1.count_multiples(d)
                assert report.row_totals_2[i] == d * n ** (s - 1) * w2.count_multiples(d)
            assert verify_report(report, seq) == []
            pairs += 1
    print(f"criterion 05 PASS: uniform attainment and row totals exact on {pairs} groups")


def test_criterion_06_adjudication_fields_and_flags() -> None:
    """100 seeded sequences (m <= 50) per group for n in {4,6,7,8,9,10,12},
    s in {1,2}: every record field is an exact rational, and whenever the
    full mean matches its expectation some column strictly beats it."""
    rng = random.Random(SEED + 6)
    records = 0
    for n in (4, 6, 7, 8, 9, 10, 12):
        for s in (1, 2):
            spec = GroupSpec(n, s)
            for _ in range(100):
                m = rng.randint(1, 50)
                seq = GroupSequence(spec, tuple(spec.random_nonzero(rng) for _ in range(m)))
                rec = adjudicate(seq)
                for f in (
                    rec.report.expected_count_1, rec.report.expected_count_2,
                    rec.report.mean_full_1, rec.report.mean_full_2,
                    rec.report.mean_nonzero_1, rec.report.mean_nonzero_2,
                    rec.divisor_range_bound, rec.divisor_range_bound_limit,
                ):
                    assert isinstance(f, Fraction)
                assert rec.full_mean_matches_expected[0]
                assert rec.full_mean_matches_expected[1]
                assert rec.some_column_beats_expected_1  # the implication target
                assert rec.report.mean_nonzero_1 > rec.report.mean_full_1
                records += 1
    assert records == 1400
    print("criterion 06 PASS: 1400 adjudication records exact, implication holds")


def test_criterion_07_exhaustive_counterexample_search() -> None:
    """Exhaustive search over Z_7 up to length 6 and Z_8 up to length 5:
    the exact oracle runs on every instance, no instance falls to
    s(B) <= 2m/7, and the two failure categories stay separate; the
    whole sweep finishes in under 5 minutes."""
    t0 = time.perf_counter()
    res7 = counterexample_search(
        CounterexampleQuery(n=7, s=1, m=6, mode="exhaustive", budget=10**6))
    res8 = counterexample_search(
        CounterexampleQuery(n=8, s=1, m=5, mode="exhaustive", budget=10**6))
    elapsed = time.perf_counter() - t0
    assert res7.instances == 923 and res8.instances == 791
    for res in (res7, res8):
        assert res.complete
        assert res.oracle_checked == res.instances  # oracle cross-check everywhere
        assert res.findings == ()  # no method failure, no bound violation
        for f in res.findings:  # categories would never be conflated
            assert not (f.max_below_bound and f.exact_max_size is None)
    assert elapsed < 300.0, f"took {elapsed:.1f}s, budget 300s"
    print(f"criterion 07 PASS: 1714 instances exhausted in {elapsed:.1f}s, no findings")


def test_criterion_08_z7_tightness() -> None:
    """The nonzero elements of Z_7: the oracle maximum is exactly 2,
    which equals the classical extremal size and (2/7)(m+1)."""
    rep = tightness_instance()
    assert rep.oracle_max == 2
    assert rep.bound == rhemtulla_street_bound(7, 1) == 2
    assert rep.two_sevenths_of_m_plus_1 == Fraction(2, 7) * 7 == 2
    assert rep.matched
    print("criterion 08 PASS: Z_7 oracle max 2 == extremal bound == (2/7)(6+1)")


def test_criterion_09_large_scan_single_and_parallel() -> None:
    """Z_11^6 (1,771,561 multipliers) with a 100-entry sequence: one
    worker finishes in under 60 s, and 4 and 5 workers produce reports
    identical to the byte."""
    rng = random.Random(SEED + 9)
    spec = GroupSpec(11, 6)
    assert spec.size == 1_771_561
    seq = GroupSequence(spec, tuple(spec.random_nonzero(rng) for _ in range(100)))
    t0 = time.perf_counter()
    base = full_scan(seq, workers=1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"single worker took {elapsed:.1f}s, budget 60s"
    assert verify_report(base, seq) == []
    base_bytes = dumps(scan_report_to_dict(base))
    for workers in (4, 5):
        other = full_scan(seq, workers=workers)
        assert other == base
        assert dumps(scan_report_to_dict(other)) == base_bytes
    print(f"criterion 09 PASS: 1.77e6-column scan in {elapsed:.1f}s, workers agree")


def test_criterion_10_byte_identical_reruns(tmp_path) -> None:
    """Seeded CLI runs write byte-identical reports when repeated:
    sampled scan, random search, integer extraction, adjudication."""
    group = tmp_path / "group.json"
    group.write_text(json.dumps(
        {"schema": 1, "n": 4000, "s": 2,
         "elements": [[1, 2], [3, 4], [5, 6], [7, 8]]}))
    small = tmp_path / "z9.json"
    small.write_text(json.dumps(
        {"schema": 1, "n": 9, "s": 2,
         "elements": [[1, 2], [3, 6], [0, 3], [4, 5]]}))
    ints = tmp_path / "ints.txt"
    ints.write_text("\n".join(str(v) for v in [9, -4, 27, 5, -13, 8, 40, 2]))

    def run_twice(args, out_name):
        a = tmp_path / (out_name + ".a")
        b = tmp_path / (out_name + ".b")
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        return a.read_bytes()

    run_twice(["scan", str(group), "--sample", "500", "--seed", "31"], "scan")
    run_twice(["search", "--n", "7", "--s", "1", "--m", "4", "--mode", "random",
               "--budget", "60", "--seed", "13"], "search")
    run_twice(["extract-integers", str(ints)], "extract")
    run_twice(["extract-integers", str(ints), "--sample", "40", "--seed", "5"],
              "extract_sampled")
    run_twice(["adjudicate", str(small), "--id", "rerun"], "adjudicate")
    print("criterion 10 PASS: five seeded report flavors byte-identical on rerun")
