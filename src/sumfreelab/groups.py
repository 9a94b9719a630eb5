"""Elements, sequences, and residue windows of the groups Z_n^s.

Everything here is exact integer arithmetic.  A window is a union of
residue bands (lo, hi] that is verified sum-free at construction time,
so downstream extraction code never has to re-prove it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Iterator, Sequence

import numpy as np

#: Refuse to build group descriptors whose element count would make an
#: exhaustive multiplier scan hopeless.  Overridable per GroupSpec.
DEFAULT_CARDINALITY_CAP = 10**8

Element = tuple[int, ...]


@dataclass(frozen=True)
class GroupSpec:
    """The group Z_n^s: rank-s tuples of residues modulo n."""

    n: int
    s: int
    cap: int = field(default=DEFAULT_CARDINALITY_CAP, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"modulus must be at least 2, got {self.n}")
        if self.s < 1:
            raise ValueError(f"rank must be at least 1, got {self.s}")
        # n >= 2, so n**s > cap once s reaches cap's bit length: no huge n**s is built.
        if self.s >= self.cap.bit_length() or self.n**self.s > self.cap:
            raise ValueError(
                f"group Z_{self.n}^{self.s} has {self.n}**{self.s} elements, "
                f"above the cardinality cap {self.cap}"
            )

    @property
    def size(self) -> int:
        return self.n**self.s

    def validate(self, el: Sequence[int]) -> Element:
        """Return el as a canonical tuple, rejecting out-of-range coordinates."""
        t = tuple(el)
        if len(t) != self.s:
            raise ValueError(f"element {t} has rank {len(t)}, expected {self.s}")
        for c in t:
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"coordinate {c!r} is not an integer")
            if not 0 <= c < self.n:
                raise ValueError(f"coordinate {c} outside [0, {self.n})")
        return t

    def add(self, a: Sequence[int], b: Sequence[int]) -> Element:
        if len(a) != self.s or len(b) != self.s:
            raise ValueError("rank mismatch in add")
        return tuple((x + y) % self.n for x, y in zip(a, b))

    def dot(self, x: Sequence[int], b: Sequence[int]) -> int:
        """Coordinate-wise product sum modulo n.  Exact (Python ints)."""
        if len(x) != self.s or len(b) != self.s:
            raise ValueError("rank mismatch in dot")
        return sum(xi * bi for xi, bi in zip(x, b)) % self.n

    def gcd_class(self, b: Sequence[int]) -> int:
        """gcd of the coordinates together with n; defined for nonzero b only."""
        t = self.validate(b)
        if all(c == 0 for c in t):
            raise ValueError("gcd class of the zero element is undefined")
        return math.gcd(self.n, *t)

    def coords_of(self, index: int) -> Element:
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} outside [0, {self.size})")
        out = []
        for _ in range(self.s):
            index, c = divmod(index, self.n)
            out.append(c)
        return tuple(reversed(out))

    def elements(self) -> Iterator[Element]:
        """All elements in lexicographic order."""
        for idx in range(self.size):
            yield self.coords_of(idx)

    def random_nonzero(self, rng) -> Element:
        while True:
            t = tuple(rng.randrange(self.n) for _ in range(self.s))
            if any(t):
                return t


@dataclass(frozen=True)
class GroupSequence:
    """A finite sequence of nonzero elements of one group; repeats allowed."""

    spec: GroupSpec
    elements: tuple[Element, ...]

    def __post_init__(self) -> None:
        canon = []
        for el in self.elements:
            t = self.spec.validate(el)
            if not any(t):
                raise ValueError("sequences must not contain the zero element")
            canon.append(t)
        object.__setattr__(self, "elements", tuple(canon))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)


@dataclass(frozen=True)
class DivisorProfile:
    """Multiplicity of each gcd class occurring in a sequence."""

    pairs: tuple[tuple[int, int], ...]  # (divisor, multiplicity), sorted

    @property
    def min_divisor(self) -> int:
        return self.pairs[0][0]

    @property
    def max_divisor(self) -> int:
        return self.pairs[-1][0]

    @property
    def total(self) -> int:
        return sum(m for _, m in self.pairs)


def _join_touching(bands: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sorted disjoint bands with each run of touching bands made one."""
    out: list[tuple[int, int]] = []
    for lo, hi in bands:
        if out and out[-1][1] == lo:
            out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


class WindowError(ValueError):
    """Raised when a residue band union fails its sum-freeness check."""


@dataclass(frozen=True)
class Window:
    """A union of residue bands (lo, hi] modulo `modulus`, proven sum-free.

    Construction checks every pair of bands by interval arithmetic (the
    sums of two integer bands form one contiguous integer range) and
    rejects the window if any sum lands back inside it.  Nothing sized
    by the modulus is built, so any modulus is cheap.
    """

    modulus: int
    bands: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError(f"modulus must be at least 2, got {self.modulus}")
        kept = []
        for lo, hi in self.bands:
            if not 0 <= lo <= hi < self.modulus:
                raise ValueError(f"band ({lo}, {hi}] outside 0..{self.modulus - 1}")
            if lo < hi:
                kept.append((lo, hi))
        kept.sort()
        for (_, h1), (l2, _) in zip(kept, kept[1:]):
            if l2 < h1:
                raise ValueError("bands overlap")
        object.__setattr__(self, "bands", tuple(kept))
        self._check_sum_free()

    def inside(self, values: np.ndarray) -> np.ndarray:
        """Elementwise membership of residues already reduced mod modulus."""
        out = np.empty(values.shape, dtype=bool)
        band, upper = np.empty_like(out), np.empty_like(out)
        if not self.bands:
            out[...] = False
        for i, (lo, hi) in enumerate(self.bands):
            into = band if i else out
            np.greater(values, lo, out=into)
            into &= np.less_equal(values, hi, out=upper)
            if i:
                out |= band
        return out

    def _first_member(self, start: int, stop: int) -> int | None:
        """Smallest member in [start, stop], if any."""
        for lo, hi in self.bands:  # sorted and disjoint, so the first overlap wins
            first = max(start, lo + 1)
            if first <= min(stop, hi):
                return first
        return None

    def _check_sum_free(self) -> None:
        # For bands (a1, b1] and (a2, b2] the achievable sums are exactly
        # the integers in [a1 + a2 + 2, b1 + b2], inside [2, 2n - 2]:
        # those below n reduce to themselves, the rest to the sum minus n.
        # The first bad sum is the smallest member of the lower piece, or
        # failing that of the upper piece shifted down by n.
        n = self.modulus
        for (a1, b1), (a2, b2) in combinations_with_replacement(self.bands, 2):
            lo, hi = a1 + a2 + 2, b1 + b2
            bad = self._first_member(lo, min(hi, n - 1))
            if bad is None:
                bad = self._first_member(max(lo, n) - n, hi - n)
            if bad is not None:
                raise WindowError(
                    f"window mod {n} is not sum-free: sum {bad} of members "
                    f"from bands ({a1},{b1}] and ({a2},{b2}] is itself a member"
                )

    @property
    def size(self) -> int:
        return sum(hi - lo for lo, hi in self.bands)

    def members(self) -> tuple[int, ...]:
        out: list[int] = []
        for lo, hi in self.bands:
            out.extend(range(lo + 1, hi + 1))
        return tuple(out)

    @property
    def negation_closed(self) -> bool:
        """Whether -t is a member whenever t is, by interval arithmetic.

        Band (lo, hi] mirrors to (n-1-hi, n-1-lo]; the mirrored bands must
        cover the same residues, so touching bands are joined first.
        """
        n = self.modulus
        mirrored = sorted((n - 1 - hi, n - 1 - lo) for lo, hi in self.bands)
        return _join_touching(mirrored) == _join_touching(self.bands)

    def contains(self, value: int) -> bool:
        v = value % self.modulus
        return any(lo < v <= hi for lo, hi in self.bands)

    def count_multiples(self, d: int) -> int:
        """How many members are multiples of d.  O(bands), no enumeration."""
        if d < 1:
            raise ValueError(f"divisor must be positive, got {d}")
        return sum(hi // d - lo // d for lo, hi in self.bands)

    def bitmap(self) -> np.ndarray:
        """uint8 membership table indexed by residue, for bulk lookups."""
        bm = np.zeros(self.modulus, dtype=np.uint8)
        for lo, hi in self.bands:
            bm[lo + 1 : hi + 1] = 1
        return bm


def window_prime_target(k: int) -> Window:
    """The middle band (k, 2k+1] modulo 3k+2 used by the prime-field extractor."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    return Window(3 * k + 2, ((k, 2 * k + 1),))


def window_middle_third(n: int) -> Window:
    """The band (floor(n/3), floor(2n/3)] modulo n."""
    return Window(n, ((n // 3, 2 * n // 3),))


def window_sixth_bands(n: int) -> Window:
    """The bands (floor(n/6), floor(n/3)] and (floor(2n/3), floor(5n/6)] modulo n."""
    return Window(n, ((n // 6, n // 3), (2 * n // 3, 5 * n // 6)))
