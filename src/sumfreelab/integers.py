"""Sum-free subset extraction for integer sequences.

Pipeline: embed the integers in a prime field F_p with p = 3k + 2 large
enough that distinct inputs stay distinct and no product wraps, scan all
multipliers x for the one pushing the most inputs into the sum-free
middle band (k, 2k+1], and pull those positions back out.  The counting
guarantees the winning column holds more than a third of the sequence.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .groups import Window, window_prime_target
from .oracle import is_sum_free
from .primes import is_prime, next_prime_2_mod_3
from .scanner import DEFAULT_SCAN_CAP, _sampled_tallies, dots_fit_int64

@dataclass(frozen=True)
class PrimeChoice:
    """A prime p = 3k + 2 exceeding twice the largest input magnitude."""

    p: int
    k: int
    bound: int

    def __post_init__(self) -> None:
        if self.p % 3 != 2:
            raise ValueError(f"{self.p} is not 2 mod 3")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.k != (self.p - 2) // 3:
            raise ValueError(f"k={self.k} inconsistent with p={self.p}")
        if self.p <= self.bound:
            raise ValueError(f"p={self.p} does not exceed the bound {self.bound}")

    def target_window(self) -> Window:
        return window_prime_target(self.k)


@dataclass(frozen=True)
class ColumnSelection:
    """The winning multiplier x and which input positions it captures."""

    x: int
    hits: tuple[int, ...]
    count: int

    def __post_init__(self) -> None:
        if self.count != len(self.hits):
            raise ValueError("count disagrees with hit list")


def _require_nonzero(values: Sequence[int]) -> None:
    if not values:
        raise ValueError("input sequence is empty")
    for i, b in enumerate(values):
        if b == 0:
            raise ValueError(f"zero at position {i}: zeros are never sum-free")


def choose_prime(values: Sequence[int]) -> PrimeChoice:
    """Smallest prime p = 2 mod 3 with p > 2 * max |b|."""
    _require_nonzero(values)
    bound = 2 * max(abs(b) for b in values)
    p = next_prime_2_mod_3(bound)
    return PrimeChoice(p, (p - 2) // 3, bound)


def row_hit_count(b: int, choice: PrimeChoice) -> int:
    """Count multipliers x in [1, p) with x*b mod p inside the target band.

    Computed by direct enumeration.  Always equals k + 1: as x runs over
    the nonzero field elements, so does x*b.
    """
    p, window = choice.p, choice.target_window()
    r = b % p
    if r == 0:
        raise ValueError(f"{b} vanishes mod {p}")
    total = 0
    for lo in range(1, p, 1 << 20):
        xs = np.arange(lo, min(lo + (1 << 20), p), dtype=np.int64)
        total += int(window.inside(xs * r % p).sum())
    return total


# Pending interval endpoints and hit columns are flushed into the counts
# after this many cells, so scratch memory stays bounded whatever m is.
_FLUSH_CELLS = 1 << 18


def _column_counts(residues: Sequence[int], k: int, p: int) -> np.ndarray:
    """counts[x] = number of inputs landing in the band under multiplier x,
    for 0 <= x <= (p - 1) / 2.

    The band (k, 2k+1] is closed under negation mod p, so counts[x] equals
    counts[p - x] and the upper half is never computed; the first maximum
    over 1 <= x < p always lies in this half.  A row and its negation hit
    the same columns, so rows are grouped by a = min(r, p - r) and each
    distinct a is counted once, weighted by its multiplicity:

    - small a: x*a mod p lands in the band exactly for x in the intervals
      [(j*p + k)//a + 1, (j*p + 2k + 1)//a], j < ceil(a/2), which go into a
      difference array (O(a) per row);
    - large a: the band's lower half c in (k, (p-1)/2] pulls back to the
      columns c * a^-1 mod p, folded into the half, one of each pair +-c
      (O(p/6) per row).
    """
    h = (p - 1) // 2
    small = p // 6  # endpoints of a small row cost about as much as columns at a = p/6
    edges = np.zeros(h + 2, dtype=np.int64)  # difference array of the interval rows
    direct = np.zeros(h + 1, dtype=np.int64)  # hit counts of the column rows
    half_band = np.arange(k + 1, h + 1, dtype=np.int64)
    starts: list[np.ndarray] = []
    ends: list[np.ndarray] = []
    cols: list[np.ndarray] = []

    # Scatter-adds update in place: a bincount per flush would allocate and
    # fault in a fresh h-sized array each time, the dominant cost at small m.
    def flush(weight: int) -> None:
        if starts:
            np.add.at(edges, np.concatenate(starts), weight)
            np.subtract.at(edges, np.concatenate(ends), weight)
        if cols:
            np.add.at(direct, np.concatenate(cols), weight)
        starts.clear()
        ends.clear()
        cols.clear()

    # Rows go in order of multiplicity, so that each flush adds one scalar
    # weight rather than an array of per-cell weights.
    pending, weight = 0, 1
    for a, w in sorted(Counter(min(r, p - r) for r in residues).items(), key=lambda aw: aw[1]):
        if w != weight or pending >= _FLUSH_CELLS:
            flush(weight)
            pending, weight = 0, w
        if a <= small:
            jp = np.arange((a + 1) // 2, dtype=np.int64) * p
            starts.append((jp + k) // a + 1)  # a <= p/6 keeps every start <= h
            ends.append(np.minimum((jp + (2 * k + 1)) // a + 1, h + 1))
            pending += 2 * jp.size
        else:
            x = half_band * pow(a, -1, p)
            x %= p
            cols.append(np.minimum(x, p - x, out=x))
            pending += x.size
    flush(weight)
    counts = np.cumsum(edges[: h + 1], out=edges[: h + 1])
    counts += direct
    return counts


def _primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group mod the prime p,
    from the prime factors of p - 1 found by trial division."""
    factors, n, q = [], p - 1, 2
    while q * q <= n:
        if n % q == 0:
            factors.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        factors.append(n)
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


def _smooth_length(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n: a transform length numpy's FFT handles fast."""
    best = 1 << (n - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            f = f35
            while f < n:
                f *= 2
            best = min(best, f)
            f35 *= 3
        f5 *= 5
    return best


def _fft_error_bound(rows_norm: float, band_norm: float, length: int) -> float:
    """A priori bound on the float error of one folded count of the FFT kernel.

    Percival ("Rapid multiplication modulo the sum and difference of highly
    composite numbers", Math. Comp. 72, 2003) bounds every entry of a cyclic
    convolution of x and y computed through FFTs of length 2^n, twiddles
    correct to one rounding, by

        |x|_2 |y|_2 ((1 + eps)^(6n) (1 + sqrt(5) eps)^(3n + 1) - 1),  eps = 2^-53.

    Here n = ceil(log2 L) + 2: the two extra stages stand in for the real
    transforms' pre/post-processing pass and for numpy's radix-3 and
    radix-5 butterflies, which the radix-2 proof does not cover, so the
    figure is a model rather than a theorem.  A folded count adds two
    correlation entries, hence the factor 2.  `_column_counts_fft` uses the
    FFT only while this is below 1/4, and still checks every entry.
    """
    n = (length - 1).bit_length() + 2
    eps = 2.0**-53
    growth = math.expm1(6 * n * math.log1p(eps) + (3 * n + 1) * math.log1p(math.sqrt(5) * eps))
    return 2 * rows_norm * band_norm * growth


def _column_counts_fft(residues: Sequence[int], k: int, p: int) -> np.ndarray:
    """The counts of `_column_counts`, in O(p log p) time whatever m is.

    Rader's reindexing: with g a primitive root, x = g^i and r = g^j, x*r
    lands in the band exactly when g^(i+j) does, so counts[g^i] is the
    cyclic cross-correlation sum_j H[j] * band[i + j] of the rows' log
    histogram H with the band's indicator in log coordinates.  Since
    -1 = g^h with h = (p-1)/2 and the band is closed under negation, both
    fold to period h: log l stands for the pair +-g^l, whose member in
    [1, h] is f(l) = min(g^l, p - g^l), and a row sits at the l with
    f(l) = min(r, p - r).  Duplicate and +-b rows become one weighted entry.
    The correlation runs through numpy's real FFT at a 2*3*5-smooth length
    L >= 2h, so nothing aliases: the count at l is corr[l] + corr[L - h + l],
    the terms with l + j < h plus those that wrap past h.

    Exactness: the float counts are rounded, and the interval/column kernel
    computes the counts instead when `_fft_error_bound` reaches 1/4 or any
    count lies more than 1/4 from an integer.  The rounded counts must sum,
    over all p - 1 nonzero columns, to exactly m*(k+1), since every row
    hits the band k + 1 times; a RuntimeError is raised if they do not.
    """
    from numpy import fft  # loaded on first use, so importing the package stays cheap

    h = (p - 1) // 2
    rows = np.array(residues, dtype=np.int64)
    weight = np.bincount(np.minimum(rows, p - rows), minlength=h + 1)  # rows per a
    length = _smooth_length(2 * h)
    if _fft_error_bound(math.sqrt(int(np.dot(weight, weight))), math.sqrt(h - k), length) >= 0.25:
        return _column_counts(residues, k, p)

    g = _primitive_root(p)
    fold = np.empty(h, dtype=np.int32)  # g^l mod p, by doubling, then f(l)
    fold[0] = 1
    n = 1
    while n < h:
        step = min(n, h - n)
        fold[n : n + step] = fold[:step].astype(np.int64) * pow(g, n, p) % p
        n += step
    np.minimum(fold, p - fold, out=fold)
    # Each buffer is dropped once used: the peak near DEFAULT_SCAN_CAP stays under 300 MiB.
    hist = weight[fold].astype(np.float64)
    del weight
    spectrum = fft.rfft((fold > k).astype(np.float64), length)
    spectrum *= np.conjugate(fft.rfft(hist, length))
    del hist
    corr = fft.irfft(spectrum, length)
    del spectrum
    folded = corr[:h] + corr[length - h :]
    del corr
    rounded = np.rint(folded)
    folded -= rounded
    if np.abs(folded, out=folded).max() > 0.25:
        return _column_counts(residues, k, p)

    counts = np.zeros(h + 1, dtype=np.int64)
    counts[fold] = rounded
    if 2 * int(counts.sum()) != len(residues) * (k + 1):
        raise RuntimeError(
            f"FFT column counts sum to {2 * int(counts.sum())} over the nonzero columns, "
            f"not m*(k+1) = {len(residues) * (k + 1)}"
        )
    return counts


#: The FFT kernel's cost in cells of the interval/column kernel (one interval
#: endpoint or one hit column, about 11 ns each on a 2-core x86-64 machine with
#: numpy 2.4): 0.4 per p*log2(p), the median of the crossovers measured there
#: at p = 2e4, 2e5, 1e6, 2e6 and 4e6 with uniform residues (0.52, 0.32, 0.37,
#: 0.42, 0.41), plus 5000 for its fixed cost (about 55 us, at p = 11).  The
#: interval kernel's Python overhead of 6-8 us per row is left out, so below
#: p ~ 1e4, where either kernel takes under a millisecond, the model keeps the
#: interval kernel; every input with m <= 24 and |b| <= 1e6 stays on it.
_FFT_CELLS_PER_PLOGP = 0.4
_FFT_FIXED_CELLS = 5000


def _fft_pays(residues: Sequence[int], p: int) -> bool:
    """True when the FFT kernel is estimated to beat the interval/column
    kernel, whose cells are the sum over distinct a = min(r, p - r) of
    min(a, p/6)."""
    small = p // 6
    cells = sum(min(a, small) for a in {min(r, p - r) for r in residues})
    return cells > _FFT_CELLS_PER_PLOGP * p * math.log2(p) + _FFT_FIXED_CELLS


def _hits_for(values: Sequence[int], choice: PrimeChoice, x: int) -> list[int]:
    window = choice.target_window()
    return [i for i, b in enumerate(values) if window.contains(x * b)]


def _digit_width(p: int) -> tuple[int, int]:
    """Widest digit width t, with the digit count, that keeps the sampled
    scan's int64 dot products sum_j digit_j(x) * (r * 2^(t*j) mod p) below
    2^63 for every x and r in [1, p)."""
    bits = (p - 1).bit_length()
    for t in range(bits, 0, -1):
        width = -(-bits // t)
        if dots_fit_int64(width, 1 << t, p):
            return t, width
    raise ValueError(
        f"p = {p} is too large for the sampled scan: even one-bit digits of x "
        "times residues mod p can reach 2**63 (p must stay below about 1.59e17)"
    )


def best_column(
    values: Sequence[int],
    choice: PrimeChoice,
    sample: int | None = None,
    seed: int | None = None,
) -> ColumnSelection:
    """Multiplier with the most hits; ties go to the smallest x.

    With `sample`, only that many distinct random multipliers are
    examined (seed required); the result is then a lower bound, not
    necessarily the true best column.  The sampled scan is exact for
    every p it accepts, below about 1.59e17, and takes at most
    DEFAULT_SCAN_CAP multipliers.  Without it every multiplier is
    scanned, by `_column_counts_fft` when `_fft_pays` estimates it the
    cheaper kernel and by `_column_counts` otherwise, and p above
    DEFAULT_SCAN_CAP is refused.
    """
    _require_nonzero(values)
    p, k = choice.p, choice.k
    residues = [b % p for b in values]
    if any(r == 0 for r in residues):
        raise ValueError("some input vanishes mod p; prime too small")

    if sample is not None:
        # x * r = sum_j digit_j(x) * (r * 2^(t*j)) mod p, over the base-2^t
        # digits of x, most significant first: the group scan's dot product.
        t, width = _digit_width(p)
        rows = [[r * pow(2, t * j, p) % p for j in reversed(range(width))] for r in residues]
        _, (tally,) = _sampled_tallies(p, sample, seed, 1 << t, rows, p, (choice.target_window(),))
        x, count = tally.best_idx, tally.best_count
    else:
        if p > DEFAULT_SCAN_CAP:
            raise ValueError(
                f"p = {p} is above the exhaustive scan cap {DEFAULT_SCAN_CAP}; "
                "pass sample= (--sample on the command line) for a sampled scan"
            )
        kernel = _column_counts_fft if _fft_pays(residues, p) else _column_counts
        counts = kernel(residues, k, p)
        x = 1 + int(np.argmax(counts[1:]))  # first max: counts[x] == counts[p - x]
        count = int(counts[x])

    hits = _hits_for(values, choice, x)
    if len(hits) != count:
        raise RuntimeError(f"recount found {len(hits)} hits for x = {x}, the scan promised {count}")
    return ColumnSelection(x, tuple(hits), len(hits))


@dataclass(frozen=True)
class IntegerExtraction:
    """Extraction outcome plus every verification the pipeline promises."""

    choice: PrimeChoice
    column: ColumnSelection
    subset: tuple[int, ...]
    injective: bool
    residues_in_window: bool
    subset_sum_free: bool
    size_bound_met: bool
    sampled: bool

    @property
    def indices(self) -> tuple[int, ...]:
        return self.column.hits

    @property
    def size(self) -> int:
        return self.column.count

    @property
    def verified(self) -> bool:
        return (
            self.injective
            and self.residues_in_window
            and self.subset_sum_free
            and self.size_bound_met
        )


def extract_sum_free_subset(
    values: Sequence[int],
    sample: int | None = None,
    seed: int | None = None,
) -> IntegerExtraction:
    """Full pipeline: prime, column scan, pullback, and verification.

    In the default exhaustive mode the result always carries more than a
    third of the input positions and verifies sum-free.
    """
    choice = choose_prime(values)
    column = best_column(values, choice, sample=sample, seed=seed)
    p, x = choice.p, column.x
    subset = tuple(values[i] for i in column.hits)

    distinct = {b % p for b in set(values)}
    injective = len(distinct) == len(set(values))
    window = choice.target_window()
    residues_ok = all(window.contains(x * b) for b in subset)
    sum_free = is_sum_free(set(subset))
    bound_met = column.count >= len(values) // 3 + 1

    return IntegerExtraction(
        choice=choice,
        column=column,
        subset=subset,
        injective=injective,
        residues_in_window=residues_ok,
        subset_sum_free=sum_free,
        size_bound_met=bound_met,
        sampled=sample is not None,
    )


def parse_integer_lines(lines: Iterable[str]) -> list[int]:
    """One integer per line; blank lines and text after '#' are ignored."""
    out: list[int] = []
    for ln, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            out.append(int(text))
        except ValueError:
            raise ValueError(f"line {ln}: {text!r} is not an integer") from None
    return out
