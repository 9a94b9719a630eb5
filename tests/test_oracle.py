"""Sum-free checks and the exact maximum search against brute force."""

import hashlib
import importlib
import operator
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import naive
import sumfreelab.oracle as oracle
from sumfreelab.groups import GroupSpec
from sumfreelab.oracle import (
    EXACT_SEARCH_LIMIT,
    ExactSearchCapExceeded,
    SumFreeWitness,
    is_sum_free,
    max_sum_free,
)

adjmod = importlib.import_module("sumfreelab.adjudicate")


def test_is_sum_free_examples() -> None:
    assert is_sum_free(())
    assert is_sum_free([1])
    assert not is_sum_free([1, 2, 3])
    assert not is_sum_free([0])  # 0 + 0 = 0
    assert is_sum_free([2, 3])
    assert not is_sum_free([2, 4])
    assert is_sum_free([-1, -3, 5])
    spec = GroupSpec(7, 1)
    assert is_sum_free([(3,), (4,)], add=spec.add)
    assert not is_sum_free([(2,), (3,), (4,)], add=spec.add)  # 2+2=4


def test_is_sum_free_matches_naive() -> None:
    rng = random.Random(7)
    for _ in range(300):
        m = rng.randint(0, 7)
        vals = [rng.randint(-6, 6) for _ in range(m)]
        assert is_sum_free(set(vals)) == naive.sum_free(set(vals))


# Integers at the int64 edge of the numpy path, just beyond it, and
# pairs whose sum is one of them.
_EDGES = [0, 1, -1, 2**61 - 1, 2**62 - 2, 2**62 - 1, -(2**62 - 1), 2**62, -(2**62), 2**63, -(2**64 + 1)]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.integers(-12, 12), st.sampled_from(_EDGES),
                       st.integers(-(2**64), 2**64)), max_size=12),
    st.sampled_from([1, 2, 3, oracle._SUM_TILE]),
)
def test_is_sum_free_matches_naive_at_int64_edges(values, tile) -> None:
    # Small tiles make every tile boundary of the numpy path occur.
    with mock.patch.object(oracle, "_SUM_TILE", tile):
        assert is_sum_free(values) == naive.sum_free(set(values))


def test_is_sum_free_integer_routing() -> None:
    odd = set(range(1, 2002, 2))  # odd + odd is even: sum-free, over several tiles
    with mock.patch.object(oracle, "_ints_sum_free", wraps=oracle._ints_sum_free) as fast:
        assert is_sum_free(odd)
        assert not is_sum_free(odd | {2000})  # 1 + 1999, in different tiles
        assert not is_sum_free({2**62 - 1, -(2**62 - 1), 0})
        assert fast.call_count == 3
        assert not is_sum_free({2**62, 2**63})  # beyond int64 sums: Python loop
        assert is_sum_free({2**62, 1})
        assert not is_sum_free({True, 2})  # bools are not plain ints: Python loop
        assert not is_sum_free([(2,), (3,), (4,)], add=GroupSpec(7, 1).add)
        assert fast.call_count == 3


@st.composite
def _group_values(draw):
    n = draw(st.integers(2, 12))
    s = draw(st.integers(1, 4))
    spec = GroupSpec(n, s)
    element = st.tuples(*[st.integers(0, n - 1)] * s)
    values = draw(st.lists(element, max_size=10))
    # Plant 2a = b, a + b = a (b = 0) and repeats, each possibly.
    if values and draw(st.booleans()):
        values.append(spec.add(values[0], values[0]))
    if draw(st.booleans()):
        values.append((0,) * s)
    if values and draw(st.booleans()):
        values += values[: draw(st.integers(1, len(values)))]
    return spec, draw(st.permutations(values))


@settings(max_examples=300, deadline=None)
@given(_group_values(), st.sampled_from([1, 2, 3, oracle._SUM_TILE]))
def test_group_sum_free_matches_naive(spec_values, tile) -> None:
    # Elements of Z_n^s under GroupSpec.add take the numpy path; small
    # tiles make every tile boundary occur.
    spec, values = spec_values
    with mock.patch.object(oracle, "_SUM_TILE", tile), mock.patch.object(
        oracle, "_group_sum_free", wraps=oracle._group_sum_free
    ) as fast:
        assert is_sum_free(values, add=spec.add) == naive.sum_free(set(values), add=spec.add)
        assert fast.call_count == 1


def test_group_sum_free_routing() -> None:
    spec = GroupSpec(7, 2)
    with mock.patch.object(oracle, "_group_sum_free", wraps=oracle._group_sum_free) as fast:
        assert not is_sum_free([(1, 2), (2, 4)], add=spec.add)
        assert fast.call_count == 1
        # Another addition, or values that are not elements, keep the loop.
        assert not is_sum_free([(1, 2), (2, 4)], add=lambda a, b: spec.add(a, b))
        assert is_sum_free([(1, 9), (3, 4)], add=spec.add)
        assert fast.call_count == 1
    with pytest.raises(ValueError, match="rank mismatch"):
        is_sum_free([(1, 2), (1,)], add=spec.add)


def test_max_sum_free_frozen() -> None:
    w = max_sum_free([1, 2, 3, 4, 5])
    assert (w.size, w.indices, w.exact) == (3, (0, 2, 4), True)
    w = max_sum_free([1, 2, 3])
    assert (w.size, w.indices) == (2, (0, 2))
    w = max_sum_free([])
    assert (w.size, w.indices) == (0, ())
    w = max_sum_free([4])
    assert (w.size, w.indices) == (1, (0,))
    spec = GroupSpec(7, 1)
    w = max_sum_free([(v,) for v in range(1, 7)], add=spec.add)
    assert (w.size, w.indices) == (2, (0, 2))


def test_max_sum_free_duplicates() -> None:
    spec = GroupSpec(3, 1)
    w = max_sum_free([(1,), (1,), (1,)], add=spec.add)
    assert (w.size, w.indices) == (3, (0, 1, 2))
    w = max_sum_free([1, 1])
    assert (w.size, w.indices) == (2, (0, 1))
    w = max_sum_free([2, 1, 2, 1, 3])
    # supports {2, 3} and {1, 3} both give three positions; the tie goes
    # to the lexicographically smaller index list, which starts at 0
    assert (w.size, w.indices) == (3, (0, 2, 4))


def test_max_matches_brute_force_integers() -> None:
    rng = random.Random(20260818)
    for _ in range(200):
        m = rng.randint(1, 10)
        vals = [rng.choice([-1, 1]) * rng.randint(1, 8) for _ in range(m)]
        size, indices = naive.max_sum_free_brute(vals)
        w = max_sum_free(vals)
        assert w.size == size
        assert w.indices == indices  # same lexicographic tie-break


def test_max_matches_brute_force_groups() -> None:
    rng = random.Random(424242)
    for _ in range(120):
        n = rng.randint(2, 9)
        s = rng.randint(1, 2)
        spec = GroupSpec(n, s)
        m = rng.randint(1, 8)
        vals = [spec.random_nonzero(rng) for _ in range(m)]
        size, indices = naive.max_sum_free_brute(vals, add=spec.add)
        w = max_sum_free(vals, add=spec.add)
        assert (w.size, w.indices) == (size, indices)


@st.composite
def _with_repeats(draw, values: st.SearchStrategy, twin) -> list:
    """Up to 12 values: a base list, then copies of its entries mapped
    through `twin` or kept as they are, shuffled in."""
    base = draw(st.lists(values, max_size=8))
    extra = draw(st.lists(st.sampled_from(base), max_size=12 - len(base))) if base else []
    mapped = [twin(v) if draw(st.booleans()) else v for v in extra]
    return draw(st.permutations(base + mapped))


def _same_as_brute(values, add=operator.add) -> None:
    w = max_sum_free(values, add=add)
    assert (w.size, w.indices) == naive.max_sum_free_brute(values, add=add)


@settings(max_examples=150, deadline=None)
@given(_with_repeats(st.integers(-9, 9), lambda v: -v))
@example([0, 1, 2, 0, 3])  # 0 + 0 = 0: never chosen
@example([1, 2, 2, 5])  # 1 + 1 = 2 against the heavier 2
@example([1, 2, 2, 1])  # {1} and {2} tie at weight 2: the first occurrence wins
@example([3, -3, 0, 6, 3])  # +-pair, 3 + 3 = 6, 3 + (-3) = 0
def test_max_sum_free_matches_brute_integers(values) -> None:
    _same_as_brute(values)


@st.composite
def _group_inputs(draw) -> tuple[GroupSpec, list]:
    spec = GroupSpec(draw(st.integers(2, 13)), draw(st.integers(1, 3)))
    coord = st.integers(0, spec.n - 1)
    negate = lambda b: tuple(-c % spec.n for c in b)  # noqa: E731
    return spec, draw(_with_repeats(st.tuples(*[coord] * spec.s), negate))


@settings(max_examples=60, deadline=None)
@given(_group_inputs())
@example((GroupSpec(7, 1), [(0,), (3,), (0,)]))  # the zero element is dead
@example((GroupSpec(7, 1), [(2,), (4,), (4,)]))  # 2a = c
@example((GroupSpec(7, 1), [(1,), (2,), (2,), (1,)]))  # weighted tie
@example((GroupSpec(2, 2), [(1, 0), (0, 1), (1, 1), (1, 1)]))  # a + b = c, c doubled
def test_max_sum_free_matches_brute_groups(case) -> None:
    spec, values = case
    _same_as_brute(values, spec.add)


# (size, indices) of the first five Z_12^2, m = 20 instances that
# counterexample_search draws from seed 20260818, as the search before
# the bitmask rewrite reported them.  The benchmark's search reports
# list no witness when nothing is found, so these pin the oracle there.
_Z12X2_WITNESSES = [
    (15, (0, 1, 2, 5, 6, 7, 9, 10, 11, 12, 13, 15, 16, 18, 19)),
    (13, (0, 1, 2, 3, 5, 6, 7, 9, 11, 14, 17, 18, 19)),
    (16, (0, 1, 2, 3, 4, 5, 6, 7, 9, 12, 13, 14, 15, 16, 17, 18)),
    (13, (0, 1, 3, 4, 5, 7, 8, 9, 12, 13, 16, 18, 19)),
    (16, (1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 14, 15, 16, 17, 18, 19)),
]


def test_frozen_witnesses_at_benchmark_size() -> None:
    seen = []

    def record(values, add):
        w = max_sum_free(values, add=add)
        seen.append((w.size, w.indices))
        return w

    query = adjmod.CounterexampleQuery(n=12, s=2, m=20, mode="random", budget=5, seed=20260818)
    with mock.patch.object(adjmod, "max_sum_free", record):
        result = adjmod.counterexample_search(query)
    assert result.oracle_checked == 5
    assert seen == _Z12X2_WITNESSES


# sha256 of the (size, indices) reprs, in instance order, of every
# criterion-07 instance (exhaustive Z_7, m <= 6, then Z_8, m <= 5), as
# the occurrence-bit search before the position-bit rewrite gave them.
_CRITERION_07_DIGEST = "fd6d7ab33721e8ac23f5d7441c17f4fb25a4e32e682d20d22a9b2468e56d7328"


def test_frozen_witnesses_of_criterion_07() -> None:
    digest = hashlib.sha256()
    count = 0
    for n, m in ((7, 6), (8, 5)):
        spec = GroupSpec(n, 1)
        add = adjmod._table_add(spec)
        for elements in adjmod._exhaustive_instances(spec, m):
            w = max_sum_free(list(elements), add=add)
            digest.update(repr((w.size, w.indices)).encode())
            count += 1
    assert count == 923 + 791
    assert digest.hexdigest() == _CRITERION_07_DIGEST


def test_max_monotone_under_extension() -> None:
    rng = random.Random(5150)
    for _ in range(60):
        m = rng.randint(1, 8)
        vals = [rng.randint(1, 9) for _ in range(m)]
        base = max_sum_free(vals).size
        extended = max_sum_free(vals + [rng.randint(1, 9)]).size
        assert extended >= base


def test_exact_cap() -> None:
    ok = max_sum_free([5] * EXACT_SEARCH_LIMIT)
    assert ok.size == EXACT_SEARCH_LIMIT
    with pytest.raises(ExactSearchCapExceeded):
        max_sum_free(list(range(1, EXACT_SEARCH_LIMIT + 2)))


def test_witness_validation() -> None:
    with pytest.raises(ValueError):
        SumFreeWitness((0, 0), 2, True)
    with pytest.raises(ValueError):
        SumFreeWitness((2, 1), 2, True)
    with pytest.raises(ValueError):
        SumFreeWitness((0,), 2, True)
