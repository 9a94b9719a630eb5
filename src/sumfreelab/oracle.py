"""Exact sum-freeness checks and maximum sum-free subsequence search.

The search is branch and bound over distinct values (positions sharing a
value stand or fall together: a multiset is sum-free exactly when its
support set is).  It is intended for short sequences; above the size cap
it refuses, and callers fall back to `greedy_sum_free`.
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


class _Search:
    """Include-first depth-first search over distinct values.

    Visiting values in first-occurrence order and only accepting strict
    improvements makes the reported maximum the one with the
    lexicographically smallest position list.
    """

    def __init__(self, order: list, weight: dict, add: AddFn):
        self.order = order
        self.weight = weight
        self.add = add
        self.suffix = [0] * (len(order) + 1)
        for i in range(len(order) - 1, -1, -1):
            self.suffix[i] = self.suffix[i + 1] + weight[order[i]]
        self.chosen: list = []
        self.chosen_set: set = set()
        self.sums: set = set()
        self.best_weight = -1
        self.best: list = []

    def _compatible(self, v) -> bool:
        if v in self.sums:
            return False
        if self.add(v, v) in self.chosen_set or self.add(v, v) == v:
            return False
        for u in self.chosen:
            t = self.add(u, v)
            if t in self.chosen_set or t == v:
                return False
        return True

    def run(self) -> list:
        self._dfs(0, 0)
        return self.best

    def _dfs(self, i: int, weight: int) -> None:
        if weight + self.suffix[i] <= self.best_weight:
            return  # cannot strictly beat the incumbent
        if i == len(self.order):
            self.best_weight = weight
            self.best = list(self.chosen)
            return
        v = self.order[i]
        if self._compatible(v):
            added = []
            for u in self.chosen:
                t = self.add(u, v)
                if t not in self.sums:
                    self.sums.add(t)
                    added.append(t)
            t = self.add(v, v)
            if t not in self.sums:
                self.sums.add(t)
                added.append(t)
            self.chosen.append(v)
            self.chosen_set.add(v)
            self._dfs(i + 1, weight + self.weight[v])
            self.chosen.pop()
            self.chosen_set.discard(v)
            for t in added:
                self.sums.discard(t)
        self._dfs(i + 1, weight)


def max_sum_free(
    values: Sequence,
    add: AddFn = operator.add,
    limit: int = EXACT_SEARCH_LIMIT,
) -> SumFreeWitness:
    """Exact maximum sum-free subsequence; ties resolved to the
    lexicographically smallest position list."""
    if len(values) > limit:
        raise ExactSearchCapExceeded(
            f"exact search limited to {limit} values, got {len(values)}; "
            "use greedy_sum_free for an inexact witness"
        )
    if not values:
        return SumFreeWitness((), 0, True)
    order, positions = _distinct_in_order(values)
    weight = {v: len(positions[v]) for v in order}
    best = _Search(order, weight, add).run()
    indices = sorted(i for v in best for i in positions[v])
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
