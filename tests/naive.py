"""Slow, obviously-correct reference implementations used as oracles.

Everything here is written directly from definitions (rational
inequalities, triple loops, full enumeration) with none of the library's
shortcuts, so agreement is meaningful evidence.
"""

from __future__ import annotations

import operator
from itertools import product


def middle_third_members(n: int) -> set[int]:
    # n/3 < x <= 2n/3 as exact integer comparisons
    return {x for x in range(n) if 3 * x > n and 3 * x <= 2 * n}


def sixth_bands_members(n: int) -> set[int]:
    # n/6 < x <= n/3 or 2n/3 < x <= 5n/6
    return {
        x
        for x in range(n)
        if (6 * x > n and 3 * x <= n) or (3 * x > 2 * n and 6 * x <= 5 * n)
    }


def prime_target_members(k: int) -> set[int]:
    p = 3 * k + 2
    return {x for x in range(p) if x > k and x <= 2 * k + 1}


def sum_free(values, add=operator.add) -> bool:
    """Triple loop over positions, straight from the definition."""
    vals = list(values)
    for a in vals:
        for b in vals:
            t = add(a, b)
            if any(c == t for c in vals):
                return False
    return True


def max_sum_free_brute(values, add=operator.add):
    """Best (size, then lexicographically smallest indices) by full
    enumeration of all index subsets."""
    m = len(values)
    best_size = 0
    best: tuple[int, ...] = ()
    for mask in range(1 << m):
        idx = tuple(i for i in range(m) if mask >> i & 1)
        sub = [values[i] for i in idx]
        if not sum_free(sub, add):
            continue
        if len(idx) > best_size or (len(idx) == best_size and idx < best):
            best_size = len(idx)
            best = idx
    return best_size, best


def scan_counts(seq) -> tuple[list[int], list[int]]:
    """Window hit counts for every multiplier, in lexicographic order."""
    spec = seq.spec
    n, s = spec.n, spec.s
    w1 = middle_third_members(n)
    w2 = sixth_bands_members(n)
    counts1: list[int] = []
    counts2: list[int] = []
    for x in product(range(n), repeat=s):
        c1 = c2 = 0
        for b in seq:
            dot = sum(xi * bi for xi, bi in zip(x, b)) % n
            if dot in w1:
                c1 += 1
            if dot in w2:
                c2 += 1
        counts1.append(c1)
        counts2.append(c2)
    return counts1, counts2


def row_totals(seq) -> tuple[list[int], list[int]]:
    """Per-entry totals over all multipliers, by direct enumeration."""
    spec = seq.spec
    n, s = spec.n, spec.s
    w1 = middle_third_members(n)
    w2 = sixth_bands_members(n)
    rt1 = [0] * len(seq)
    rt2 = [0] * len(seq)
    for x in product(range(n), repeat=s):
        for i, b in enumerate(seq):
            dot = sum(xi * bi for xi, bi in zip(x, b)) % n
            if dot in w1:
                rt1[i] += 1
            if dot in w2:
                rt2[i] += 1
    return rt1, rt2


def column_counts_brute(values: list[int], p: int, k: int) -> list[int]:
    """Band hits of every multiplier x in [0, p), input by input."""
    return [
        sum(1 for b in values if k < x * (b % p) % p <= 2 * k + 1) for x in range(p)
    ]


def best_column_brute(values: list[int], p: int, k: int):
    """Winning multiplier by scanning every x and every input directly."""
    best_x, best_count, best_hits = None, -1, ()
    for x in range(1, p):
        hits = tuple(
            i for i, b in enumerate(values) if k < x * (b % p) % p <= 2 * k + 1
        )
        if len(hits) > best_count:
            best_x, best_count, best_hits = x, len(hits), hits
    return best_x, best_count, best_hits


def sampled_counts_brute(values: list[int], p: int, k: int, xs) -> list[int]:
    """Band hits of each multiplier in xs, input by input, in Python ints."""
    return [sum(1 for b in values if k < x * (b % p) % p <= 2 * k + 1) for x in xs]
