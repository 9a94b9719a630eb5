"""Adjudication records, counterexample search, prime-case checks."""

import importlib
import itertools
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# the package exports a function called `adjudicate`, which shadows the
# submodule attribute, so fetch the module itself for monkeypatching
adjmod = importlib.import_module("sumfreelab.adjudicate")
from sumfreelab import groups as groups_mod
from sumfreelab.adjudicate import (
    CounterexampleQuery,
    adjudicate,
    counterexample_search,
    divisor_range_bound,
    divisor_range_bound_limit,
    prime_case_check,
)
from sumfreelab.groups import GroupSequence, GroupSpec, index_add
from sumfreelab.jsonio import search_result_to_dict
from sumfreelab.scanner import GroupExtraction, divisor_profile, extract_sum_free_group


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


def _broken_extract(seq, report=None, **kwargs):
    return GroupExtraction(
        multiplier=(0,), window_index=1, indices=(), size=0,
        verified_sum_free=True, beats_two_sevenths=False)


def _zero_sizes(monkeypatch) -> None:
    """Make the batched kernel report extraction size 0 for every instance."""
    score = adjmod._table_chunks

    def zero_chunks(*args):
        for batch, sizes in score(*args):
            yield batch, np.zeros_like(sizes)

    monkeypatch.setattr(adjmod, "_table_chunks", zero_chunks)


def test_finding_categories_stay_separate(monkeypatch) -> None:
    # Force the extractor to report an empty pullback, in the batched
    # kernel and in the verified re-run alike: the finding must blame the
    # method, while the oracle cross-check must keep the exact maximum
    # and decline to call it a counterexample to the bound.
    monkeypatch.setattr(adjmod, "extract_sum_free_group", _broken_extract)
    _zero_sizes(monkeypatch)
    q = CounterexampleQuery(n=7, s=1, m=2, mode="exhaustive", budget=10**4)
    res = counterexample_search(q)
    assert res.instances == 27  # 6 + 21
    assert len(res.findings) == 27  # every instance "fails" the method
    for f in res.findings:
        assert f.extraction_below_bound
        assert f.exact_max_size is not None and f.exact_max_size >= 1
        assert not f.max_below_bound  # the bound itself never implicated


@pytest.mark.parametrize("broken", ["kernel", "extractor"])
def test_search_raises_when_kernel_and_scan_disagree(monkeypatch, broken) -> None:
    if broken == "kernel":
        _zero_sizes(monkeypatch)
    else:
        # The kernel's sizes are right, so re-run every instance on the
        # verified path, where the broken extractor then disagrees.
        monkeypatch.setattr(adjmod, "extract_sum_free_group", _broken_extract)
        monkeypatch.setattr(adjmod, "_at_or_below", lambda size, m: True)
    q = CounterexampleQuery(n=7, s=1, m=2, mode="exhaustive", budget=10**4)
    with pytest.raises(RuntimeError, match="disagrees with the verified scan"):
        counterexample_search(q)


def _small_group(data) -> GroupSpec:
    """Z_n^s with n from 2 to 13 and s from 1 to 3, small enough that its
    hit table, at the 40 entries these tests draw at most, is within
    SEARCH_TABLE_BYTES."""
    s = data.draw(st.integers(1, 3), label="s")
    n = data.draw(st.integers(2, {1: 13, 2: 13, 3: 7}[s]), label="n")
    spec = GroupSpec(n, s)
    assert adjmod._table_bytes(spec, 40) <= adjmod.SEARCH_TABLE_BYTES
    return spec


def _extract_size(spec, elements) -> int:
    return extract_sum_free_group(GroupSequence(spec, tuple(map(spec.coords_of, elements)))).size


def _assert_chunks_bounded(chunks, width, cells) -> None:
    """Every chunk is one instance, or holds at most `cells` counts and
    entries together."""
    for batch, sizes in chunks:
        assert len(sizes) == len(batch)
        assert len(batch) == 1 or all(len(batch) * (width + len(e)) <= cells for e in batch)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_exhaustive_walk_matches_scans(data) -> None:
    spec = _small_group(data)
    m = data.draw(st.integers(1, 6).filter(
        lambda m: adjmod._multiset_count(spec.size - 1, m) <= 400), label="m")
    cells = data.draw(st.sampled_from([1, 64, adjmod._CHUNK_CELLS]), label="chunk cells")
    table = adjmod._hit_table(spec, m)
    with mock.patch.object(adjmod, "_CHUNK_CELLS", cells):
        chunks = list(adjmod._table_chunks(table, adjmod._exhaustive_instances(spec, m)))
    _assert_chunks_bounded(chunks, table.shape[1], cells)
    walked = [elements for batch, _ in chunks for elements in batch]
    assert walked == list(adjmod._exhaustive_instances(spec, m))
    sizes = [size for _, batch_sizes in chunks for size in batch_sizes.tolist()]
    assert sizes == [_extract_size(spec, elements) for elements in walked]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_random_chunks_match_scans(data) -> None:
    spec = _small_group(data)
    # A small pool of entries, so instances repeat entries.
    pool = data.draw(st.lists(st.integers(1, spec.size - 1), min_size=1, max_size=4),
                     label="pool")
    m = data.draw(st.integers(1, 40), label="m")
    instances = data.draw(st.lists(st.lists(st.sampled_from(pool), min_size=m, max_size=m)
                                   .map(tuple), min_size=1, max_size=8), label="instances")
    cells = data.draw(st.sampled_from([1, 100, adjmod._CHUNK_CELLS]), label="chunk cells")
    table = adjmod._hit_table(spec, m)
    with mock.patch.object(adjmod, "_CHUNK_CELLS", cells):
        chunks = list(adjmod._table_chunks(table, iter(instances)))
    _assert_chunks_bounded(chunks, table.shape[1], cells)
    assert [elements for batch, _ in chunks for elements in batch] == instances
    sizes = [size for _, batch_sizes in chunks for size in batch_sizes.tolist()]
    assert sizes == [_extract_size(spec, elements) for elements in instances]


def test_exhaustive_scorer_memory_bounded() -> None:
    # Z_40, m <= 4: 123 409 instances.  Holding a whole level of the
    # multiset tree peaked at 13.3 MiB here.
    spec, m = GroupSpec(40, 1), 4
    table = adjmod._hit_table(spec, m)
    tracemalloc.start()
    try:
        scored = sum(len(batch) for batch, _ in
                     adjmod._table_chunks(table, adjmod._exhaustive_instances(spec, m)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scored == adjmod._multiset_count(39, m) == 123409
    assert peak < 4 * 2**20


def _python_draws(spec, m, budget, seed):
    rng = random.Random(seed)
    return [tuple(spec.random_nonzero(rng) for _ in range(m)) for _ in range(budget)]


_MODULI = st.one_of(
    st.just(2),
    st.integers(2, 32).map(lambda k: 2**k - 1),
    st.integers(1, 31).map(lambda k: 2**k),
    st.integers(1, 31).map(lambda k: 2**k + 1),
    st.integers(2, 10**5),
)


@settings(max_examples=200, deadline=None)
@given(n=_MODULI, s=st.integers(1, 4), m=st.integers(1, 40), budget=st.integers(1, 20),
       seed=st.integers(0, 2**64), cells=st.sampled_from([1, 64, adjmod._CHUNK_CELLS]))
def test_random_instances_replay_the_python_draws(n, s, m, budget, seed, cells) -> None:
    # Small chunks make instances straddle reads and chunks.
    spec = GroupSpec(n, s, cap=n**s)
    with mock.patch.object(adjmod, "_CHUNK_CELLS", cells):
        drawn = list(adjmod._random_instances(spec, m, budget, seed))
    assert [tuple(map(spec.coords_of, e)) for e in drawn] == _python_draws(spec, m, budget, seed)
    assert all(type(i) is int for elements in drawn for i in elements)


def test_random_instances_memory_bounded() -> None:
    # 10^5 instances of Z_7, m = 8: held all at once, tracemalloc counts
    # 47 MiB; drawn one chunk of 2^18 coordinates at a time, 5.4 MiB.
    spec = GroupSpec(7, 1)
    tracemalloc.start()
    try:
        drawn = sum(1 for _ in adjmod._random_instances(spec, 8, 10**5, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert drawn == 10**5
    assert peak < 8 * 2**20


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_index_add_matches_spec_add(data) -> None:
    spec = _small_group(data)
    add = index_add(spec)
    indices = range(spec.size)
    table = [[add(a, b) for b in indices] for a in indices]
    assert all(spec.coords_of(table[a][b]) == spec.add(spec.coords_of(a), spec.coords_of(b))
               for a in indices for b in indices)
    # Elementwise on int64 arrays, broadcast as the sum-free check tiles them.
    grid = np.arange(spec.size, dtype=np.int64)
    sums = add(grid[:, None], grid)
    assert sums.dtype == np.int64 and sums.tolist() == table
    # A small pool of entries, so multisets repeat entries and clash.
    pool = data.draw(st.lists(st.integers(1, spec.size - 1), min_size=1, max_size=8),
                     label="pool")
    values = data.draw(st.lists(st.sampled_from(pool), max_size=adjmod.EXACT_SEARCH_LIMIT),
                       label="values")
    coords = [spec.coords_of(v) for v in values]
    assert adjmod.max_sum_free(values, add=add) == adjmod.max_sum_free(coords, add=spec.add)


def test_hit_table_rows_checked(monkeypatch) -> None:
    spec = GroupSpec(6, 2)
    table = adjmod._hit_table(spec, 3)
    assert table.shape == (35, 2 * 36) and table.dtype == np.uint8
    assert adjmod._hit_table(spec, 300).dtype == np.uint16
    # Bitmaps hitting every residue break the row totals.
    monkeypatch.setattr(groups_mod.Window, "bitmap", lambda self: np.ones(6, dtype=np.uint8))
    with pytest.raises(RuntimeError, match="window-1 total"):
        adjmod._hit_table(spec, 3)
    # Mod 7 every row hits each residue once, so moving a member to 0
    # keeps the row totals and shows only in the zero column.
    shifted = np.array([1, 0, 0, 1, 0, 0, 0], dtype=np.uint8)  # {0, 3} for {3, 4}
    monkeypatch.setattr(groups_mod.Window, "bitmap", lambda self: shifted)
    with pytest.raises(RuntimeError, match="zero multiplier shows"):
        adjmod._hit_table(GroupSpec(7, 1), 3)


@pytest.mark.parametrize("n, m, largest", [(647, 2, False), (1448, 255, True), (1024, 256, True)])
def test_hit_table_memory_bounded(n, m, largest) -> None:
    # Built at once, the Z_647 table peaked at 6.42 MiB for the 0.80 MiB it
    # keeps, nearly all of it the int64 terms of `_dots`; Z_1448 and Z_1024,
    # the largest rank-1 table groups below and from m = 256, would peak
    # at 32 MiB.
    spec = GroupSpec(n, 1)
    assert adjmod._table_bytes(spec, m) <= adjmod.SEARCH_TABLE_BYTES
    if largest:
        assert adjmod._table_bytes(GroupSpec(n + 1, 1), m) > adjmod.SEARCH_TABLE_BYTES
    tracemalloc.start()
    try:
        table = adjmod._hit_table(spec, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.nbytes == adjmod._table_bytes(spec, m)
    assert peak <= table.nbytes + 2 * 2**20


_WIRE_CASES = {
    "z3x2-random": CounterexampleQuery(n=3, s=2, m=4, mode="random", budget=12, seed=5),
    "z7-exhaustive": CounterexampleQuery(n=7, s=1, m=3, mode="exhaustive", budget=10**4),
}


@pytest.mark.parametrize("case", sorted(_WIRE_CASES))
def test_findings_keep_their_wire_format(monkeypatch, case) -> None:
    # No golden search has a finding, so force every instance to be one:
    # each must list its entries' coordinates, ordered by (m, elements).
    query = _WIRE_CASES[case]
    monkeypatch.setattr(adjmod, "_at_or_below", lambda size, m: True)
    spec = GroupSpec(query.n, query.s)
    if query.mode == "random":
        rng = random.Random(query.seed)
        instances = [tuple(spec.random_nonzero(rng) for _ in range(query.m))
                     for _ in range(query.budget)]
    else:
        pool = [(v,) for v in range(1, query.n)]
        instances = [elements for k in range(1, query.m + 1)
                     for elements in itertools.combinations_with_replacement(pool, k)]
    instances.sort(key=lambda elements: (len(elements), elements))
    findings = search_result_to_dict(counterexample_search(query))["findings"]
    assert [f["elements"] for f in findings] == [[list(e) for e in elements]
                                                  for elements in instances]
    assert [f["m"] for f in findings] == [len(elements) for elements in instances]


_CAP_CASES = {
    "z7-exhaustive": CounterexampleQuery(n=7, s=1, m=4, mode="exhaustive", budget=10**4),
    "z6x2-random": CounterexampleQuery(n=6, s=2, m=5, mode="random", budget=40, seed=4),
}


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("case", sorted(_CAP_CASES))
def test_table_cap_sides_agree(monkeypatch, case, forced) -> None:
    query = _CAP_CASES[case]
    if forced:
        # Every instance is then a finding, so every Finding field is compared.
        monkeypatch.setattr(adjmod, "_at_or_below", lambda size, m: True)
    spec = GroupSpec(query.n, query.s)
    if query.mode == "exhaustive":
        instances = list(adjmod._exhaustive_instances(spec, query.m))
    else:
        instances = list(adjmod._random_instances(spec, query.m, query.budget, query.seed))
    assert max(map(len, instances)) <= adjmod.EXACT_SEARCH_LIMIT
    oracle, calls = adjmod.max_sum_free, []

    def counted(values, **kwargs):
        calls.append(tuple(values))
        return oracle(values, **kwargs)

    monkeypatch.setattr(adjmod, "max_sum_free", counted)
    batched = counterexample_search(query)
    # The oracle runs once per instance, in instance order, and only there.
    assert calls == instances and batched.oracle_checked == len(calls)
    calls.clear()
    monkeypatch.setattr(adjmod, "SEARCH_TABLE_BYTES", 0)
    monkeypatch.setattr(adjmod, "_hit_table", None)  # the per-instance path must not need it
    per_instance = counterexample_search(query)
    assert calls == instances and per_instance.oracle_checked == len(calls)
    assert per_instance == batched
    assert len(batched.findings) == (batched.instances if forced else 0)


def test_z400_search_takes_the_table_path(monkeypatch) -> None:
    # Exhaustive Z_400, m <= 2: 80 199 instances, whose per-instance
    # scans took about 47 s while the table cap counted cells (2^18).
    spec = GroupSpec(400, 1)
    assert adjmod._table_bytes(spec, 2) <= adjmod.SEARCH_TABLE_BYTES

    def no_scan(*args, **kwargs):
        raise AssertionError("an instance was scanned on its own")

    monkeypatch.setattr(adjmod, "extract_sum_free_group", no_scan)
    res = counterexample_search(CounterexampleQuery(n=400, s=1, m=2, mode="exhaustive", budget=10**5))
    assert res.instances == res.oracle_checked == 399 + 399 * 400 // 2
    assert res.findings == ()


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
