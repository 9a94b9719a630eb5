"""Primality helper checks."""

import pytest

from sumfreelab.primes import PROVEN_LIMIT, is_prime, next_prime_2_mod_3


def test_small_primes() -> None:
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-5, 50):
        assert is_prime(n) == (n in primes)


def test_carmichael_and_large() -> None:
    assert not is_prime(561)  # Carmichael number
    assert not is_prime(341)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    assert is_prime(10**9 + 7)


def test_next_prime_2_mod_3() -> None:
    assert next_prime_2_mod_3(0) == 2
    assert next_prime_2_mod_3(2) == 5
    assert next_prime_2_mod_3(4) == 5
    assert next_prime_2_mod_3(5) == 11
    assert next_prime_2_mod_3(10) == 11
    assert next_prime_2_mod_3(100) == 101
    for lower in (0, 1, 7, 50, 1234, 99990):
        p = next_prime_2_mod_3(lower)
        assert p > lower and p % 3 == 2 and is_prime(p)
        # nothing smaller qualifies
        for q in range(lower + 1, p):
            assert q % 3 != 2 or not is_prime(q)


def test_proven_range() -> None:
    assert PROVEN_LIMIT == 3_317_044_064_679_887_385_961_981
    # The least strong pseudoprime to the first twelve prime bases.
    assert not is_prime(318665857834031151167461)
    assert is_prime(PROVEN_LIMIT - 168)  # the largest prime below the limit
    assert not is_prime(PROVEN_LIMIT - 2)
    for n in (PROVEN_LIMIT, PROVEN_LIMIT + 2, 10**30):
        with pytest.raises(ValueError):
            is_prime(n)
    with pytest.raises(ValueError):
        next_prime_2_mod_3(PROVEN_LIMIT - 100)
