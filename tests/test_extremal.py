"""Extremal sizes and the tightness certification."""

from fractions import Fraction

import pytest

import naive
from sumfreelab.extremal import density, rhemtulla_street_bound, tightness_instance
from sumfreelab.groups import GroupSpec
from sumfreelab.primes import is_prime


def test_bound_frozen() -> None:
    assert rhemtulla_street_bound(7, 1) == 2
    assert rhemtulla_street_bound(7, 2) == 14
    assert rhemtulla_street_bound(7, 3) == 98
    assert rhemtulla_street_bound(13, 1) == 4
    assert rhemtulla_street_bound(13, 2) == 52
    assert rhemtulla_street_bound(31, 1) == 10


def test_bound_rejections() -> None:
    with pytest.raises(ValueError):
        rhemtulla_street_bound(5, 1)  # 2 mod 3
    with pytest.raises(ValueError):
        rhemtulla_street_bound(9, 1)  # not prime
    with pytest.raises(ValueError):
        rhemtulla_street_bound(3, 1)  # 0 mod 3
    with pytest.raises(ValueError):
        rhemtulla_street_bound(7, 0)


def test_density_approaches_one_third_from_below() -> None:
    primes = [p for p in range(7, 101) if is_prime(p) and p % 3 == 1]
    assert primes == [7, 13, 19, 31, 37, 43, 61, 67, 73, 79, 97]
    values = [density(p, 1) for p in primes]
    assert all(v < Fraction(1, 3) for v in values)
    assert all(a < b for a, b in zip(values, values[1:]))  # strictly rising
    assert density(7, 1) == Fraction(2, 7)
    assert density(7, 2) == Fraction(14, 49) == Fraction(2, 7)  # rank-free


def test_bound_is_achieved_in_z7() -> None:
    # brute force over all subsets of Z_7: the maximum sum-free subset
    # really has 2 elements, and {3, 4} is one of them
    spec = GroupSpec(7, 1)
    all_elements = [(v,) for v in range(7)]
    size, indices = naive.max_sum_free_brute(all_elements, add=spec.add)
    assert size == 2
    assert naive.sum_free([(3,), (4,)], add=spec.add)
    assert not naive.sum_free([(2,), (3,), (4,)], add=spec.add)


def test_tightness_instance() -> None:
    rep = tightness_instance()
    assert (rep.p, rep.s, rep.m) == (7, 1, 6)
    assert rep.bound == 2
    assert rep.oracle_max == 2
    assert rep.two_sevenths_of_m_plus_1 == Fraction(2)
    assert rep.matched
    assert rep.witness.size == 2 and rep.witness.exact
