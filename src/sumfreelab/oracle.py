"""Exact sum-freeness checks and maximum sum-free subsequence search.

The search is branch and bound over distinct values (positions sharing a
value stand or fall together: a multiset is sum-free exactly when its
support set is).  Each pairwise sum is computed once, into conflict
bitmasks in which bit p stands for input position p, so a value owns
the bits of its positions.  The depth-first search then works on Python
ints only, bounds a subtree by the bit count of the positions that can
still join, and reads the witness off the set bits of the best mask.
It is intended for short sequences; above the size cap it refuses, and
callers such as the counterexample search report the window extraction
alone.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .groups import GroupSpec, index_add

#: Hard ceiling on exact-search input length.
EXACT_SEARCH_LIMIT = 24

AddFn = Callable[[object, object], object]


class ExactSearchCapExceeded(RuntimeError):
    """Exact maximum search refused: input longer than EXACT_SEARCH_LIMIT."""


@dataclass(frozen=True)
class SumFreeWitness:
    """Positions of a sum-free subsequence, with an exactness flag."""

    indices: tuple[int, ...]
    size: int
    exact: bool

    def __post_init__(self) -> None:
        if self.size != len(self.indices):
            raise ValueError("witness size disagrees with its index list")
        if list(self.indices) != sorted(set(self.indices)):
            raise ValueError("witness indices must be strictly increasing")


#: Integers below this magnitude, and the element indices of groups of at
#: most this many elements, have every pairwise sum inside int64.
_INT64_SAFE = 1 << 62
#: Side of the square tiles of pairwise sums tested at a time (2^18 cells).
_SUM_TILE = 1 << 9


def _sum_free_keys(a: np.ndarray, add: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> bool:
    """`is_sum_free` for distinct int64 keys `a`, in increasing order,
    under `add`: `np.add` for integers of magnitude below 2^62, the
    `index_add` of a group of at most 2^62 elements for its element
    indices.  Each tile add(a[i:i+T, None], a[j:j+T]), j >= i, of
    pairwise sums is tested for membership in a.  While a's range is at
    most 6 per sum in the tile, `np.isin` does it through a lookup table
    over that range (a full tile of 750 values below 1e5 in magnitude:
    0.34 ms against 1.2 ms); otherwise a binary search does, where
    `np.isin` would sort the tile (16 ms).  Scratch memory stays near a
    few tiles either way."""
    last = a.size - 1
    for i in range(0, a.size, _SUM_TILE):
        rows = a[i : i + _SUM_TILE, None]
        for j in range(i, a.size, _SUM_TILE):
            sums = add(rows, a[j : j + _SUM_TILE])
            if a[last] - a[0] <= 6 * sums.size:
                hit = np.isin(sums, a, kind="table")
            else:
                hit = a[np.minimum(np.searchsorted(a, sums), last)] == sums
            if hit.any():
                return False
    return True


def _valid_elements(vs: set, spec: GroupSpec) -> bool:
    """Whether every value is a rank-s tuple of plain ints in [0, n)."""
    n, s = spec.n, spec.s
    return all(
        type(v) is tuple and len(v) == s and all(type(c) is int and 0 <= c < n for c in v)
        for v in vs
    )


def is_sum_free(values, add: AddFn = operator.add) -> bool:
    """True when no a1 + a2 with a1, a2 in values (a1 = a2 allowed) is in values.

    Works on any hashable values given a matching addition; defaults to
    integer addition.  Note a set containing 0 is never sum-free.
    Integers of magnitude below 2^62 are checked in numpy as they are;
    valid elements of a GroupSpec of at most 2^62 elements, under its
    own `add`, as their indices under `index_add`.
    """
    vs = set(values)
    if add is operator.add and all(type(v) is int and -_INT64_SAFE < v < _INT64_SAFE for v in vs):
        return _sum_free_keys(np.array(sorted(vs), dtype=np.int64), np.add)
    spec = getattr(add, "__self__", None)
    if (
        type(spec) is GroupSpec
        and getattr(add, "__func__", None) is GroupSpec.add
        and spec.size <= _INT64_SAFE
        and _valid_elements(vs, spec)
    ):
        # Tuples sort in index order, so the indices come out increasing.
        coords = np.array(sorted(vs), dtype=np.int64).reshape(len(vs), spec.s)
        return _sum_free_keys(coords @ np.array(spec.places, dtype=np.int64), index_add(spec))
    for a in vs:
        for b in vs:
            if add(a, b) in vs:
                return False
    return True


def max_sum_free(values: Sequence, add: AddFn = operator.add) -> SumFreeWitness:
    """Exact maximum sum-free subsequence; ties resolved to the
    lexicographically smallest position list.  `add` must be commutative.

    Bit p of every mask stands for position p; a value owns the bits of
    its positions.  The sum of each pair of distinct values, and of each
    value with itself, is computed once.  When a + b is a value c,
    {a, b, c} may not be chosen whole: with three distinct values,
    clash[a][b] gets c's bits, and likewise for the other two pairs; with
    two (a + a = c, or a + b = a), each goes into the other's diagonal
    entry; with one (a + a = a), the value is never available.

    The search is include-first over the values in first-occurrence
    order: a node branches on the value i that owns the lowest bit of
    `avail`, the positions that can still join those `taken`.  Including
    i removes from `avail` its own bits, clash[i][i] and clash[i][u] for
    every chosen u; excluding it, the next turn of the loop, removes only
    its bits.  A node is cut when `taken` plus `avail` cannot strictly
    beat the incumbent, and a node whose `avail` is empty is a leaf.

    Tie-break: the result is the first leaf, in the order of the search
    with no cuts at all, that reaches the global maximum W.  Every leaf
    reached before it has fewer positions than W, so on the way down to
    it the incumbent stays below W while each ancestor's bound is at
    least W: no ancestor is cut.  Only strict improvements replace the
    incumbent, so later leaves of size W do not.  Any valid upper bound
    gives the same witness; the first leaf has the lexicographically
    smallest position list among the maxima.
    """
    if len(values) > EXACT_SEARCH_LIMIT:
        raise ExactSearchCapExceeded(
            f"exact search limited to {EXACT_SEARCH_LIMIT} values, got {len(values)}"
        )
    index: dict = {}  # value -> its index in first-occurrence order
    owner = [index.setdefault(v, len(index)) for v in values]  # by position
    own = [0] * len(values)
    for p, i in enumerate(owner):
        own[i] |= 1 << p
    order = list(index)
    q = len(order)
    clash = [[0] * q for _ in range(q)]
    live = (1 << len(values)) - 1
    for i, a in enumerate(order):
        for j in range(i, q):
            k = index.get(add(a, order[j]))
            if k is None:
                continue
            if i == j == k:
                live &= ~own[i]
            elif i == j or k == i or k == j:
                x, y = (i, k) if i == j else (i, j)
                clash[x][x] |= own[y]
                clash[y][y] |= own[x]
            else:
                clash[i][j] |= own[k]
                clash[j][i] |= own[k]
                clash[i][k] |= own[j]
                clash[k][i] |= own[j]
                clash[j][k] |= own[i]
                clash[k][j] |= own[i]
    chosen: list[int] = []
    best = 0
    best_size = -1

    def dfs(taken: int, avail: int) -> None:
        nonlocal best, best_size
        while (taken | avail).bit_count() > best_size:
            if not avail:
                best, best_size = taken, taken.bit_count()
                return
            i = owner[(avail & -avail).bit_length() - 1]
            avail ^= own[i]
            row = clash[i]
            blocked = row[i]
            for u in chosen:
                blocked |= row[u]
            chosen.append(i)
            dfs(taken | own[i], avail & ~blocked)
            chosen.pop()

    dfs(0, live)
    indices = tuple(p for p in range(len(values)) if best >> p & 1)
    return SumFreeWitness(indices, best_size, True)
