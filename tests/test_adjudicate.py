"""Adjudication records, counterexample search, prime-case checks."""

import importlib
import random
from fractions import Fraction

import pytest

# the package exports a function called `adjudicate`, which shadows the
# submodule attribute, so fetch the module itself for monkeypatching
adjmod = importlib.import_module("sumfreelab.adjudicate")
from sumfreelab.adjudicate import (
    CounterexampleQuery,
    adjudicate,
    counterexample_search,
    divisor_range_bound,
    divisor_range_bound_limit,
    prime_case_check,
)
from sumfreelab.groups import GroupSequence, GroupSpec
from sumfreelab.scanner import GroupExtraction, divisor_profile


def _random_sequence(rng, n, s, m) -> GroupSequence:
    spec = GroupSpec(n, s)
    return GroupSequence(spec, tuple(spec.random_nonzero(rng) for _ in range(m)))


def test_adjudicate_frozen_z7() -> None:
    seq = GroupSequence(GroupSpec(7, 1), tuple((v,) for v in range(1, 7)))
    rec = adjudicate(seq, "z7-nonzero")
    assert rec.instance_id == "z7-nonzero"
    assert (rec.report.n, rec.report.s, rec.report.m) == (7, 1, 6)
    assert rec.report.expected_count_1 == Fraction(12, 7)
    assert rec.report.mean_full_1 == Fraction(12, 7)
    assert rec.report.mean_nonzero_1 == Fraction(2)
    assert rec.divisor_range_bound == Fraction(2)
    assert rec.divisor_range_bound_limit == Fraction(2)
    assert rec.report.best_count_1 == 2
    assert rec.extraction.size == 2
    assert rec.full_mean_matches_expected[0]
    assert rec.some_column_beats_expected_1
    assert rec.extraction.beats_two_sevenths


def test_adjudicate_frozen_z6_pair() -> None:
    seq = GroupSequence(GroupSpec(6, 1), ((2,), (4,)))
    rec = adjudicate(seq, "z6-pair")
    assert rec.report.expected_count_1 == Fraction(2, 3)
    assert rec.report.mean_full_1 == Fraction(2, 3)
    assert rec.report.mean_nonzero_1 == Fraction(4, 5)
    # alpha = beta = 2, window has 2 members, one a multiple of 2
    assert rec.divisor_range_bound == Fraction(4, 5)
    assert rec.divisor_range_bound_limit == Fraction(2, 3)
    assert rec.report.best_count_1 == 1
    assert rec.full_mean_matches_expected[0] and rec.some_column_beats_expected_1


def test_bound_chain_holds_everywhere() -> None:
    rng = random.Random(90125)
    for _ in range(50):
        n = rng.randint(2, 12)
        s = rng.randint(1, 2)
        m = rng.randint(1, 10)
        seq = _random_sequence(rng, n, s, m)
        rec = adjudicate(seq)
        prof = divisor_profile(seq)
        assert rec.divisor_range_bound == divisor_range_bound(prof, n, s)
        assert rec.divisor_range_bound_limit == Fraction(
            prof.min_divisor * m, 3 * prof.max_divisor)
        # the chain: bound <= nonzero mean < max column
        assert rec.divisor_range_bound <= rec.report.mean_nonzero_1
        assert rec.report.best_count_1 >= rec.report.mean_nonzero_1
        assert rec.full_mean_matches_expected[0] and rec.full_mean_matches_expected[1]
        assert rec.some_column_beats_expected_1


def test_flag_implication() -> None:
    rng = random.Random(40)
    for _ in range(40):
        seq = _random_sequence(rng, rng.randint(2, 10), rng.randint(1, 2), rng.randint(1, 8))
        rec = adjudicate(seq)
        if rec.full_mean_matches_expected[0]:
            assert rec.some_column_beats_expected_1


def test_exhaustive_search_z7() -> None:
    q = CounterexampleQuery(n=7, s=1, m=3, mode="exhaustive", budget=10**6)
    res = counterexample_search(q)
    # multisets of nonzero elements of sizes 1..3: 6 + 21 + 56
    assert res.instances == 83
    assert res.oracle_checked == 83
    assert res.complete
    assert res.findings == ()


def test_search_budget_refusal() -> None:
    q = CounterexampleQuery(n=7, s=1, m=3, mode="exhaustive", budget=10)
    with pytest.raises(ValueError, match="budget"):
        counterexample_search(q)


def test_random_search_reproducible() -> None:
    q = CounterexampleQuery(n=8, s=1, m=5, mode="random", budget=40, seed=123)
    a = counterexample_search(q)
    b = counterexample_search(q)
    assert a == b
    assert a.instances == 40 and not a.complete
    assert a.findings == ()


def test_query_validation() -> None:
    with pytest.raises(ValueError):
        CounterexampleQuery(n=7, s=1, m=3, mode="randomized", budget=5, seed=1)
    with pytest.raises(ValueError):
        CounterexampleQuery(n=7, s=1, m=0, mode="exhaustive", budget=5)
    with pytest.raises(ValueError):
        CounterexampleQuery(n=7, s=1, m=3, mode="random", budget=5)  # no seed
    with pytest.raises(ValueError):
        CounterexampleQuery(n=7, s=1, m=3, mode="exhaustive", budget=0)


def test_finding_categories_stay_separate(monkeypatch) -> None:
    # Force the extractor to report an empty pullback: the finding must
    # blame the method, while the oracle cross-check must keep the exact
    # maximum and decline to call it a counterexample to the bound.
    def broken_extract(seq, report=None, **kwargs):
        return GroupExtraction(
            multiplier=(0,), window_index=1, indices=(), size=0,
            verified_sum_free=True, beats_two_sevenths=False)

    monkeypatch.setattr(adjmod, "extract_sum_free_group", broken_extract)
    q = CounterexampleQuery(n=7, s=1, m=2, mode="exhaustive", budget=10**4)
    res = counterexample_search(q)
    assert res.instances == 27  # 6 + 21
    assert len(res.findings) == 27  # every instance "fails" the method
    for f in res.findings:
        assert f.extraction_below_bound
        assert f.exact_max_size is not None and f.exact_max_size >= 1
        assert not f.max_below_bound  # the bound itself never implicated


def test_prime_case_frozen() -> None:
    rep = prime_case_check(7, 1, trials=25, seed=3)
    assert rep.window_ratio == Fraction(2, 7)  # the boundary case
    assert rep.window_ratio_ok
    assert rep.all_divisors_one
    assert rep.all_nonzero_means_match
    assert rep.all_extractions_beat
    assert len(rep.trial_results) == 25

    rep = prime_case_check(2, 1, trials=5, seed=9)
    assert rep.window_ratio == Fraction(1, 2)
    assert rep.window_ratio_ok and rep.all_nonzero_means_match

    rep = prime_case_check(5, 2, trials=10, seed=4)
    assert rep.window_ratio == Fraction(2, 5)
    assert rep.all_divisors_one and rep.all_extractions_beat


def test_prime_case_reproducible_and_validated() -> None:
    a = prime_case_check(11, 1, trials=8, seed=77)
    b = prime_case_check(11, 1, trials=8, seed=77)
    assert a == b
    with pytest.raises(ValueError):
        prime_case_check(4, 1, trials=5, seed=1)
    with pytest.raises(ValueError):
        prime_case_check(7, 1, trials=0, seed=1)
    for m_max in (0, -3):
        with pytest.raises(ValueError, match="m_max"):
            prime_case_check(7, 1, trials=1, seed=1, m_max=m_max)
