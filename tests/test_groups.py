"""Group arithmetic, gcd classes, and verified windows."""

import random
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive
from sumfreelab.groups import (
    GroupSequence,
    GroupSpec,
    Window,
    WindowError,
    subgroup_multiples,
    window_middle_third,
    window_prime_target,
    window_sixth_bands,
)


def test_add_examples() -> None:
    spec = GroupSpec(5, 2)
    assert spec.add((3, 4), (4, 3)) == (2, 2)
    assert spec.add((0, 0), (4, 1)) == (4, 1)
    assert GroupSpec(7, 1).add((6,), (6,)) == (5,)
    with pytest.raises(ValueError):
        spec.add((1,), (2, 3))


def test_dot_examples() -> None:
    assert GroupSpec(5, 2).dot((1, 2), (3, 4)) == 1
    assert GroupSpec(7, 1).dot((2,), (3,)) == 6
    assert GroupSpec(9, 3).dot((0, 0, 0), (5, 7, 8)) == 0


def test_gcd_class() -> None:
    assert GroupSpec(6, 2).gcd_class((2, 4)) == 2
    assert GroupSpec(6, 2).gcd_class((1, 0)) == 1
    assert GroupSpec(9, 1).gcd_class((3,)) == 3
    assert GroupSpec(12, 2).gcd_class((8, 4)) == 4
    with pytest.raises(ValueError):
        GroupSpec(6, 2).gcd_class((0, 0))


def test_gcd_class_always_proper_divisor() -> None:
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(2, 30)
        s = rng.randint(1, 3)
        spec = GroupSpec(n, s)
        b = spec.random_nonzero(rng)
        d = spec.gcd_class(b)
        assert 1 <= d < n and n % d == 0


def test_subgroup_multiples() -> None:
    assert subgroup_multiples(2, 6) == {0, 2, 4}
    assert subgroup_multiples(1, 5) == {0, 1, 2, 3, 4}
    assert subgroup_multiples(3, 9) == {0, 3, 6}
    with pytest.raises(ValueError):
        subgroup_multiples(4, 6)
    with pytest.raises(ValueError):
        subgroup_multiples(0, 6)


def test_subgroup_closed_under_addition() -> None:
    for n in range(2, 25):
        for d in range(1, n):
            if n % d:
                continue
            sub = subgroup_multiples(d, n)
            assert all((a + b) % n in sub for a in sub for b in sub)


def test_spec_validation() -> None:
    with pytest.raises(ValueError):
        GroupSpec(1, 1)
    with pytest.raises(ValueError):
        GroupSpec(5, 0)
    with pytest.raises(ValueError):
        GroupSpec(10, 9)  # 10**9 above the default cap
    assert GroupSpec(10, 8).size == 10**8  # exactly at the cap is fine
    with pytest.raises(ValueError):
        GroupSpec(2, 20, cap=100)  # custom cap respected


def test_sequence_validation() -> None:
    spec = GroupSpec(6, 2)
    seq = GroupSequence(spec, ([2, 4], (3, 3)))
    assert seq.elements == ((2, 4), (3, 3))  # canonicalized to tuples
    assert len(seq) == 2
    with pytest.raises(ValueError):
        GroupSequence(spec, ((0, 0),))
    with pytest.raises(ValueError):
        GroupSequence(spec, ((6, 1),))
    with pytest.raises(ValueError):
        GroupSequence(spec, ((1, -1),))
    with pytest.raises(ValueError):
        GroupSequence(spec, ((1,),))


def test_index_round_trip() -> None:
    spec = GroupSpec(4, 3)
    listed = list(spec.elements())
    assert listed == sorted(listed)  # lexicographic
    assert len(listed) == 64
    for idx, el in enumerate(listed):
        assert spec.index_of(el) == idx
        assert spec.coords_of(idx) == el
    with pytest.raises(ValueError):
        spec.coords_of(64)


def test_window_members_match_rational_definitions() -> None:
    for n in range(2, 301):
        assert set(window_middle_third(n).members()) == naive.middle_third_members(n)
        assert set(window_sixth_bands(n).members()) == naive.sixth_bands_members(n)
    for k in range(0, 121):
        w = window_prime_target(k)
        assert w.modulus == 3 * k + 2
        assert set(w.members()) == naive.prime_target_members(k)


def test_window_frozen_examples() -> None:
    assert window_middle_third(7).members() == (3, 4)
    assert window_sixth_bands(7).members() == (2, 5)
    assert window_middle_third(6).members() == (3, 4)
    assert window_sixth_bands(6).members() == (2, 5)
    assert window_middle_third(3).members() == (2,)
    assert window_sixth_bands(3).members() == (1,)
    assert window_middle_third(4).members() == (2,)
    assert window_sixth_bands(4).members() == (1, 3)
    assert window_middle_third(2).members() == (1,)
    assert window_sixth_bands(2).members() == ()
    assert window_middle_third(8).members() == (3, 4, 5)
    assert window_prime_target(3).members() == (4, 5, 6, 7)
    assert window_prime_target(0).members() == (1,)


def test_windows_are_sum_free_by_naive_check() -> None:
    for n in range(2, 201):
        for w in (window_middle_third(n), window_sixth_bands(n)):
            members = w.members()
            assert naive.sum_free(members, add=lambda a, b: (a + b) % n)


def test_non_sum_free_window_rejected() -> None:
    with pytest.raises(WindowError):
        Window(10, ((0, 5),))  # 1 + 2 = 3 stays inside
    with pytest.raises(WindowError):
        Window(12, ((3, 8),))  # 4 + 4 = 8 stays inside
    # a legitimate non-family window still constructs
    assert Window(9, ((2, 5),)).members() == (3, 4, 5)
    # the message names the first bad sum and its band pair
    with pytest.raises(WindowError, match=r"sum 7 of members from bands \(6,9\] and \(6,9\] "):
        Window(10, ((6, 9),))  # 8 + 9 = 17 wraps to 7
    with pytest.raises(WindowError, match=r"sum 18 of members from bands \(1,2\] and \(15,18\] "):
        Window(20, ((1, 2), (15, 18)))  # 2 + 16 = 18


def test_window_band_validation() -> None:
    with pytest.raises(ValueError):
        Window(10, ((0, 10),))  # hi out of range
    with pytest.raises(ValueError):
        Window(10, ((5, 3),))
    with pytest.raises(ValueError):
        Window(12, ((0, 4), (2, 6)))  # overlapping bands


def test_prime_target_negation_symmetric() -> None:
    for k in range(0, 60):
        w = window_prime_target(k)
        members = set(w.members())
        assert {(-c) % w.modulus for c in members} == members


def test_count_multiples_matches_enumeration() -> None:
    for n in range(2, 120):
        for w in (window_middle_third(n), window_sixth_bands(n)):
            members = w.members()
            for d in range(1, n + 1):
                assert w.count_multiples(d) == sum(1 for v in members if v % d == 0)


def test_bitmap_matches_contains() -> None:
    for n in (2, 3, 7, 30, 101):
        for w in (window_middle_third(n), window_sixth_bands(n)):
            bm = w.bitmap()
            assert bm.dtype == np.uint8 and len(bm) == n
            for v in range(n):
                assert bool(bm[v]) == w.contains(v)
            assert w.contains(v + n) == w.contains(v)  # modular


def test_inside_matches_contains() -> None:
    # Every residue, in each unsigned width that holds it and in int64;
    # n = 2 and 3 give an empty sixth-bands window, n = 128 and 129 the
    # uint8 and uint16 edges.
    for n in (2, 3, 7, 30, 101, 128, 129, 300):
        for w in (window_middle_third(n), window_sixth_bands(n)):
            want = [w.contains(v) for v in range(n)]
            for dtype in (np.min_scalar_type(2 * (n - 1)), np.uint32, np.uint64, np.int64):
                values = np.arange(n, dtype=dtype).reshape(1, n)
                assert w.inside(values).tolist() == [want]


def test_dot_uniform_over_subgroup() -> None:
    # Over all multipliers x, the dot with a fixed b takes each value of
    # the gcd-class subgroup equally often: gcd * n^(s-1) times.
    for n, s in ((6, 2), (8, 2), (4, 3), (9, 2), (12, 1), (7, 2)):
        spec = GroupSpec(n, s)
        for b in spec.elements():
            if not any(b):
                continue
            d = spec.gcd_class(b)
            got = Counter(spec.dot(x, b) for x in product(range(n), repeat=s))
            want = {v: d * n ** (s - 1) for v in range(0, n, d)}
            assert got == want


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_window_constructs_exactly_when_sum_free(data) -> None:
    n = data.draw(st.integers(2, 60), label="n")
    cuts = data.draw(st.lists(st.integers(0, n - 1), max_size=8, unique=True), label="cuts")
    cuts.sort()
    bands = tuple(zip(cuts[::2], cuts[1::2]))
    members = {v for lo, hi in bands for v in range(lo + 1, hi + 1)}
    try:
        w = Window(n, bands)
    except WindowError:
        assert not naive.sum_free(members, add=lambda a, b: (a + b) % n)
    else:
        assert set(w.members()) == members
        assert naive.sum_free(members, add=lambda a, b: (a + b) % n)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_negation_closed_matches_members(data) -> None:
    n = data.draw(st.integers(2, 60), label="n")
    cuts = data.draw(st.lists(st.integers(0, n - 1), max_size=8, unique=True), label="cuts")
    cuts.sort()
    members = {v for lo, hi in zip(cuts[::2], cuts[1::2]) for v in range(lo + 1, hi + 1)}
    if data.draw(st.booleans(), label="mirror"):
        members |= {n - t for t in members}
    # Bands are the runs of members, some split in two touching bands.
    bands = []
    for t in sorted(members):
        if bands and bands[-1][1] == t - 1:
            bands[-1][1] = t
        else:
            bands.append([t - 1, t])
    split = []
    for lo, hi in bands:
        if hi - lo > 1 and data.draw(st.booleans(), label="split"):
            split += [(lo, lo + 1), (lo + 1, hi)]
        else:
            split.append((lo, hi))
    try:
        w = Window(n, tuple(split))
    except WindowError:
        return
    assert w.negation_closed == ({(-t) % n for t in members} == members)


def test_window_at_integer_scale_modulus() -> None:
    # Construction is interval arithmetic over band pairs: nothing sized by
    # the modulus is built, so the prime-field window of any p is cheap.
    k = 10**15
    w = window_prime_target(k)
    assert w.modulus == 3 * k + 2 and w.size == k + 1
    assert w.inside(np.array([k, k + 1, 2 * k + 1, 2 * k + 2])).tolist() == [False, True, True, False]
