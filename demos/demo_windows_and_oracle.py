#!/usr/bin/env python3
"""
Sum-free windows and the exact subset oracle -- walkthrough

Two ingredients that the extraction pipelines share:

  1. Residue windows: intervals (lo, hi] mod n whose member sets are
     sum-free in Z_n.  Every window construction re-verifies this
     exhaustively at build time, so a bad band is impossible to ship.

  2. The exact oracle: branch-and-bound maximum sum-free subsequence,
     used to certify extractions and to hunt for counterexamples.

Usage: python demo_windows_and_oracle.py
"""

import random

from sumfreelab.groups import (
    window_middle_third,
    window_prime_target,
    window_sixth_bands,
)
from sumfreelab.integers import extract_sum_free_subset
from sumfreelab.oracle import is_sum_free, max_sum_free

random.seed(7)

BAR = "=" * 78


def show_window(label, w):
    members = sorted(w.members())
    print(f"  {label:<14} mod {w.modulus:<5} size {w.size:<4} members {members}")


def main():
    print(BAR)
    print("  EXP 1: The three window families, small moduli")
    print(BAR)
    for n in (7, 10, 13, 24):
        show_window(f"middle third", window_middle_third(n))
        show_window(f"sixth bands", window_sixth_bands(n))
    for k in (1, 3, 5):
        show_window(f"prime k={k}", window_prime_target(k))

    print()
    print(BAR)
    print("  EXP 2: Windows really are sum-free (spot check by brute force)")
    print(BAR)
    for n in (9, 14, 23):
        w = window_middle_third(n)
        members = set(w.members())
        bad = [(a, b) for a in members for b in members if (a + b) % n in members]
        print(f"  n={n:<4} members={sorted(members)}  closing pairs: {bad}")
        assert not bad

    print()
    print(BAR)
    print("  EXP 3: Prime-window extraction vs exact oracle on random integer multisets")
    print(BAR)
    print(f"  {'m':>4} {'window':>7} {'exact':>6} {'gap':>4}   values")
    gaps = 0
    for _ in range(12):
        m = random.randint(5, 14)
        vals = [random.randint(-30, 30) or 1 for _ in range(m)]
        x = extract_sum_free_subset(vals)
        e = max_sum_free(vals)
        assert is_sum_free([vals[i] for i in e.indices])
        # Both beat the m/3 of the averaging argument; the oracle is exact.
        assert e.exact and x.subset_sum_free and 3 * len(x.indices) > m
        assert len(x.indices) <= e.size
        gaps += e.size - len(x.indices)
        print(f"  {m:>4} {len(x.indices):>7} {e.size:>6} {e.size - len(x.indices):>4}   {vals}")
    print(f"\n  total window shortfall over 12 instances: {gaps}")

    print()
    print(BAR)
    print("  EXP 4: Oracle works over group elements too (Z_7 nonzero)")
    print(BAR)
    elems = [(x,) for x in range(1, 7)]
    w = max_sum_free(elems, add=lambda a, b: ((a[0] + b[0]) % 7,))
    chosen = [elems[i] for i in w.indices]
    print(f"  maximum sum-free subset of Z_7 \\ 0 has size {w.size}: {chosen}")
    assert w.size == 2


if __name__ == "__main__":
    main()
