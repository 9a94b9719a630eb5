"""Exact sum-freeness checks and maximum sum-free subsequence search.

The search is branch and bound over distinct values (positions sharing a
value stand or fall together: a multiset is sum-free exactly when its
support set is).  Each pairwise sum is computed once, into conflict
bitmasks in which every value owns one bit per occurrence.  The
depth-first search then works on Python ints only, and bounds a subtree
by the bit count of the values that can still join, which is their
total multiplicity.  It is intended for short sequences; above the size
cap it refuses, and callers fall back to `greedy_sum_free`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

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


#: Integers below this magnitude have every pairwise sum inside int64.
_INT64_SAFE = 1 << 62
#: Side of the square tiles of pairwise sums tested at a time (2^18 cells).
_SUM_TILE = 1 << 9


def _ints_sum_free(vs: set[int]) -> bool:
    """`is_sum_free` for plain integers of magnitude below 2^62, in numpy:
    each tile a[i:i+T] + a[j:j+T], j >= i, of the sorted values is looked
    up with a binary search, so scratch memory stays at one tile."""
    a = np.array(sorted(vs), dtype=np.int64)
    last = a.size - 1
    for i in range(0, a.size, _SUM_TILE):
        rows = a[i : i + _SUM_TILE, None]
        for j in range(i, a.size, _SUM_TILE):
            sums = (rows + a[j : j + _SUM_TILE]).ravel()
            found = np.minimum(np.searchsorted(a, sums), last)
            if (a[found] == sums).any():
                return False
    return True


def is_sum_free(values, add: AddFn = operator.add) -> bool:
    """True when no a1 + a2 with a1, a2 in values (a1 = a2 allowed) is in values.

    Works on any hashable values given a matching addition; defaults to
    integer addition.  Note a set containing 0 is never sum-free.
    """
    vs = set(values)
    if add is operator.add and all(type(v) is int and -_INT64_SAFE < v < _INT64_SAFE for v in vs):
        return _ints_sum_free(vs)
    for a in vs:
        for b in vs:
            if add(a, b) in vs:
                return False
    return True


def _distinct_in_order(values: Sequence) -> tuple[list, dict]:
    """Distinct values by first occurrence, plus value -> positions map."""
    order: list = []
    positions: dict = {}
    for i, v in enumerate(values):
        if v not in positions:
            positions[v] = []
            order.append(v)
        positions[v].append(i)
    return order, positions


def _conflict_masks(order: list, own: list[int], add: AddFn) -> tuple[list[list[int]], int]:
    """Pairwise conflicts of the distinct values, as bitmasks.

    own[i] is the mask of value order[i].  Each sum order[i] + order[j],
    i <= j, is computed once.  When it is a value order[k], the set
    {i, j, k} may not be chosen whole.  Three distinct values: clash[i][j]
    gets k's bits, and likewise for the other two pairs.  Two (a + a = c,
    or a + b = a): each goes into the other's diagonal entry, so choosing
    one blocks the other.  One (a + a = a): the value is dead.  Returns
    (clash, dead).
    """
    q = len(order)
    index = {v: k for k, v in enumerate(order)}
    clash = [[0] * q for _ in range(q)]
    dead = 0
    for i, a in enumerate(order):
        for j in range(i, q):
            k = index.get(add(a, order[j]))
            if k is None:
                continue
            if i == j == k:
                dead |= own[i]
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
    return clash, dead


def _best_support(order: list, weight: list[int], add: AddFn) -> list[int]:
    """Indices into `order` of the heaviest sum-free support, by an
    include-first depth-first search in first-occurrence order.

    A node holds the chosen values and `avail`, the bits of the values
    after the last decision that can still join them.  Including value i
    removes from `avail` its own bits, clash[i][i] and clash[i][u] for
    every chosen u; excluding it removes only its bits.  A subtree is cut
    when the chosen weight plus the bit count of `avail` cannot strictly
    beat the incumbent, and a node whose `avail` is empty is a leaf.

    Tie-break: the result is the first leaf, in the order of the search
    with no cuts at all, that reaches the global maximum W.  Every leaf
    reached before it weighs less than W, so on the way down to it the
    incumbent stays below W while each ancestor's bound is at least W:
    no ancestor is cut.  Only strict improvements replace the incumbent,
    so later leaves of weight W do not.  Any valid upper bound gives the
    same witness; the first leaf has the lexicographically smallest
    position list among the maxima.
    """
    own: list[int] = []
    value_of_bit: list[int] = []
    for i, w in enumerate(weight):
        own.append(((1 << w) - 1) << len(value_of_bit))
        value_of_bit += [i] * w
    clash, dead = _conflict_masks(order, own, add)
    chosen: list[int] = []
    best: list[int] = []
    best_weight = -1

    def dfs(w: int, avail: int) -> None:
        nonlocal best, best_weight
        if w + avail.bit_count() <= best_weight:
            return  # cannot strictly beat the incumbent
        if not avail:
            best_weight = w
            best = list(chosen)
            return
        i = value_of_bit[(avail & -avail).bit_length() - 1]
        rest = avail ^ own[i]
        row = clash[i]
        blocked = row[i]
        for u in chosen:
            blocked |= row[u]
        chosen.append(i)
        dfs(w + weight[i], rest & ~blocked)
        chosen.pop()
        dfs(w, rest)

    dfs(0, ((1 << len(value_of_bit)) - 1) & ~dead)
    return best


def max_sum_free(values: Sequence, add: AddFn = operator.add) -> SumFreeWitness:
    """Exact maximum sum-free subsequence; ties resolved to the
    lexicographically smallest position list.  `add` must be commutative."""
    if len(values) > EXACT_SEARCH_LIMIT:
        raise ExactSearchCapExceeded(
            f"exact search limited to {EXACT_SEARCH_LIMIT} values, got {len(values)}; "
            "use greedy_sum_free for an inexact witness"
        )
    if not values:
        return SumFreeWitness((), 0, True)
    order, positions = _distinct_in_order(values)
    best = _best_support(order, [len(positions[v]) for v in order], add)
    indices = sorted(i for k in best for i in positions[order[k]])
    return SumFreeWitness(tuple(indices), len(indices), True)


def greedy_sum_free(values: Sequence, add: AddFn = operator.add) -> SumFreeWitness:
    """First-fit sum-free subsequence: scan positions, keep what stays legal."""
    chosen: list = []
    chosen_set: set = set()
    sums: set = set()
    indices: list[int] = []
    for i, v in enumerate(values):
        if v in chosen_set:
            indices.append(i)  # same value as an accepted one: rides along
            continue
        if v in sums or add(v, v) == v:
            continue
        if any(add(u, v) in chosen_set or add(u, v) == v for u in chosen):
            continue
        if add(v, v) in chosen_set:
            continue
        for u in chosen:
            sums.add(add(u, v))
        sums.add(add(v, v))
        chosen.append(v)
        chosen_set.add(v)
        indices.append(i)
    return SumFreeWitness(tuple(indices), len(indices), False)
