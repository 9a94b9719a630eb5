"""Deterministic primality testing below 3.3e24."""

from __future__ import annotations

# The first 13 primes as witnesses are proven sufficient for every n below
# PROVEN_LIMIT, the least strong pseudoprime to all of them (Sorenson &
# Webster, 2017).  The first 12 are not: 318665857834031151167461 fools them.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PROVEN_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n < PROVEN_LIMIT.

    Larger n raise ValueError rather than get an unproven answer.
    """
    if n < 2:
        return False
    if n >= PROVEN_LIMIT:
        raise ValueError(f"{n} is not below {PROVEN_LIMIT}, where primality is proven")
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime_2_mod_3(lower: int) -> int:
    """Smallest prime p with p % 3 == 2 and p > lower."""
    p = max(lower + 1, 2)
    while p % 3 != 2:
        p += 1
    while not is_prime(p):
        p += 3
    return p
