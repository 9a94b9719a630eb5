"""Exhaustive multiplier scans over Z_n^s, exact expectations, extraction.

For every multiplier x the scan counts how many sequence entries b land
in each sum-free residue window under x . b.  The windows come from
`scan_windows(n)`, and a report's `windows` statistics follow its
order.

The exhaustive kernel, `_scan_blocks`, splits the multiplier columns
into blocks by first digit.  When every window is negation-closed
(whenever 3 does not divide n), column -x counts what x counts, so only
first digits 0 to n/2 are scanned and the digits between count twice.
Within a block it never materializes the multiplier tuples.  Its dot
builder, `_dots`, which also builds the search's hit table in
`adjudicate`, makes a chunk of entries' dot products one coordinate at
a time as broadcast sums of per-coordinate terms mod n, each reduced as
min(d, d - n) in the narrowest unsigned dtype that holds 2(n-1).  At
rank s >= 3 a multiplier is t = s // 2 + 1 leading digits u and s - t
trailing digits v, and x . b = alpha_b(u) + beta_b(v) mod n.  Each entry
b gets, per window, the table R_b[a, v] = [a + beta_b(v) mod n lies in
the window], and a block's counts are the sum over b of the rows
R_b[alpha_b(u)], gathered with np.take: a copy and an add per cell.
Where a pair table of n^2 rows fits _CHUNK_CELLS bytes (and t >= 3),
entries go in pairs, whose table row a n + a' is R_b[a] + R_b'[a'], so
one gather reads two entries.  A sequence whose tables, leading-part
dot products and histograms fit 16 * _CHUNK_CELLS bytes (4 MiB) has
them built once per scan and shared by every block and worker thread;
a longer one is split into chunks of about _CHUNK_CELLS bytes, built
again in every block.  Row totals come from the same tables: the
histogram of each entry's leading-part dot products times its rows'
hits.  At ranks 1 and 2 each window's bands are tested on the dot
products by `Window.inside`, as in the sampled kernel.  Counts are
kept in the narrowest dtype that holds m.  All counting is integer
exact, and block results merge into sums and a smallest-index best
whatever their order, so any worker count produces the identical
report.  Sampled scans, of groups
and of integers alike, all run through one chunked kernel,
`_sampled_tallies`.  Where one entry's digit terms digit * b_j mod n, a
column of `base` cells in the narrowest unsigned dtype that holds
2(n - 1), fit in _CHUNK_CELLS bytes and that dtype is narrower than 64
bits, it builds per-coordinate term tables for a span of entries at a
time and makes each chunk's dot products by gathering and adding their
rows, reduced as min(d, d - n).  Otherwise (the integer path's widest
digits or its p above 2^31, a rank-1 group of more than 2^16 elements)
it keeps one int64 matmul and `%`, so no table is sized by the base.
Its multipliers are exactly
sorted(random.Random(seed).sample(...)).  `_draw_multipliers` reproduces
them in numpy, replaying random.sample's set-branch rejections on the
_randbelow draws that `_randbelow_draws` rebuilds from bulk getrandbits
words of the seeded generator; random search instances in `adjudicate`
come from the same reader.  It calls random.sample itself only where
that takes its pool branch (a small population).  So the sampled bytes
depend on CPython's random.sample and getrandbits algorithms, which
tests compare against the numpy draw.
"""

from __future__ import annotations

import functools
import math
import os
import random
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .groups import (
    DivisorProfile,
    Element,
    GroupSequence,
    Window,
    window_middle_third,
    window_sixth_bands,
)
from .oracle import is_sum_free

#: Exhaustive scans refuse groups larger than this unless sampling.
DEFAULT_SCAN_CAP = 10**7


@functools.lru_cache(maxsize=256)
def scan_windows(n: int) -> tuple[Window, ...]:
    """The windows every scan of Z_n^s counts, in report order.

    Window 1 is the middle third, window 2 the sixth bands.  Windows are
    frozen, so one proven instance per modulus is shared by all callers.
    """
    return window_middle_third(n), window_sixth_bands(n)


def divisor_profile(seq: GroupSequence) -> DivisorProfile:
    """Multiplicity of each gcd class in the sequence.

    `GroupSequence` has already validated its entries as nonzero, so the
    class is gcd(n, *b) directly, without `GroupSpec.gcd_class`'s checks.
    """
    n = seq.spec.n
    counts = Counter(math.gcd(n, *b) for b in seq)
    return DivisorProfile(tuple(sorted(counts.items())))


def expected_counts(profile: DivisorProfile, n: int) -> tuple[Fraction, ...]:
    """Mean hits per multiplier for each window, exactly.

    An entry of gcd class d spreads its n^s dot products uniformly over
    the subgroup of multiples of d, so it contributes
    (multiples of d in the window) / (n/d) to the mean.  Rank cancels.
    """
    return tuple(
        Fraction(sum(mult * d * w.count_multiples(d) for d, mult in profile.pairs), n)
        for w in scan_windows(n)
    )


@dataclass(frozen=True)
class InequalityRow:
    """One (modulus, divisor) cell of the weighted window-density check."""

    n: int
    d: int
    ratio_1: Fraction
    ratio_2: Fraction
    lhs: Fraction
    passes: bool


#: Largest modulus of the inequality sweep: its rows, held in a list and
#: written as one CSV string, take about 5 s and 70 MiB there.
INEQUALITY_MAX_N = 10_000


def weighted_inequality_sweep(max_n: int) -> list[InequalityRow]:
    """Check 4/7 * r1 + 3/7 * r2 >= 2/7 for every modulus and divisor.

    r_j is the density of window j members among the multiples of d.
    This is the inequality that makes the 2/7 extraction bound work for
    arbitrary composition of gcd classes.
    """
    if not 2 <= max_n <= INEQUALITY_MAX_N:
        raise ValueError(
            f"max_n (--max-n on the command line) must be from 2 to {INEQUALITY_MAX_N}, not {max_n}"
        )
    rows: list[InequalityRow] = []
    for n in range(2, max_n + 1):
        w1, w2 = scan_windows(n)[:2]
        for d in range(1, n):
            if n % d != 0:
                continue
            r1 = Fraction(w1.count_multiples(d), n // d)
            r2 = Fraction(w2.count_multiples(d), n // d)
            lhs = Fraction(4, 7) * r1 + Fraction(3, 7) * r2
            rows.append(InequalityRow(n, d, r1, r2, lhs, lhs >= Fraction(2, 7)))
    return rows


@dataclass(frozen=True)
class WindowStats:
    """What one scan measured for one window.  Exact integers/rationals.

    The full-domain means and the zero column are set by exhaustive
    scans only, the sample mean by sampled scans only.
    """

    expected_count: Fraction
    grand_total: int
    mean_full: Fraction | None
    mean_nonzero: Fraction | None
    sample_mean: Fraction | None
    row_totals: tuple[int, ...]
    best_x: Element
    best_count: int
    histogram: tuple[int, ...]
    zero_column_count: int | None


_WINDOW_STATS = frozenset(f.name for f in fields(WindowStats))


@dataclass(frozen=True)
class ScanReport:
    """Everything one multiplier scan measured.  Exact integers/rationals.

    Exhaustive reports cover all n^s columns (the zero multiplier
    included; it never hits a window).  Sampled reports cover
    sample_size distinct nonzero multipliers.  `windows` holds one
    WindowStats per window of scan_windows(n), in its order; window j's
    statistics also read under their flat names `<stat>_<j>`, which are
    the report's JSON keys.
    """

    n: int
    s: int
    m: int
    exhaustive: bool
    sample_size: int | None
    seed: int | None
    profile: DivisorProfile
    windows: tuple[WindowStats, ...]

    def __getattr__(self, name: str):
        stat, _, j = name.rpartition("_")
        if stat in _WINDOW_STATS:
            for i, w in enumerate(self.windows, start=1):
                if j == str(i):
                    return getattr(w, stat)
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")


@dataclass(frozen=True)
class _Tally:
    """One window's counts over a run of columns."""

    grand: int
    hist: np.ndarray
    best_idx: int
    best_count: int
    row_totals: np.ndarray
    zero_count: int | None


#: Cells per chunk of either kernel (sequence entry x column, or sampled
#: multiplier x sequence entry), so scratch memory stays bounded whatever
#: the group, sequence or sample size.
_CHUNK_CELLS = 1 << 18


def _tally(
    counts: np.ndarray, row_totals: np.ndarray, columns: Sequence[int] | np.ndarray, weight: int = 1
) -> list[_Tally]:
    """Summarize per-column counts, one row of counts and of row_totals per
    window; columns[i] is the group index of counts[:, i].

    Each column stands for `weight` columns of equal counts, all of
    larger index, so the best index is unchanged.  The grand total is
    read off the histogram, with no pass over the counts of its own.
    """
    size = row_totals.shape[1] + 1
    tallies = []
    for c, rt, i in zip(counts, weight * row_totals, counts.argmax(axis=1)):
        hist = weight * np.bincount(c, minlength=size)
        tallies.append(
            _Tally(
                grand=int(hist @ np.arange(size)),
                hist=hist,
                best_idx=int(columns[i]),
                best_count=int(c[i]),
                row_totals=rt,
                zero_count=int(c[0]) if columns[0] == 0 else None,
            )
        )
    return tallies


def _merge(tallies: Sequence[_Tally]) -> _Tally:
    """Fold one window's block tallies; a tied best goes to the smallest index."""
    best = min(tallies, key=lambda t: (-t.best_count, t.best_idx))
    return _Tally(
        grand=sum(t.grand for t in tallies),
        hist=sum(t.hist for t in tallies),
        best_idx=best.best_idx,
        best_count=best.best_count,
        row_totals=sum(t.row_totals for t in tallies),
        zero_count=next(t.zero_count for t in tallies if t.zero_count is not None),
    )


@functools.lru_cache(maxsize=256)
def _window_rows(n: int) -> np.ndarray:
    """rows[a, j * n + o] = [a + o mod n lies in window j of scan_windows(n)].

    Read-only and shared.  Only scans of rank 3 and up read it; under
    the default scan cap their n is at most 215, so it holds under 100 kB.
    """
    sums = np.add.outer(np.arange(n), np.arange(n)) % n
    rows = np.concatenate([w.bitmap()[sums] for w in scan_windows(n)], axis=1)
    rows.flags.writeable = False
    return rows


def _column_blocks(n: int, s: int, windows: Sequence[Window]) -> list[tuple[int, int, int]]:
    """First-digit blocks (d0, d1, weight) that together stand for every column.

    When every window is negation-closed, column -x counts what x counts.
    Then only first digits 0, 1..ceil(n/2)-1 and, for even n, n/2 are
    scanned.  A digit d in the middle range has weight 2: it stands for
    itself and for n - d > d, whose columns are the negations of its own.
    Digits 0 and n/2 are their own negations, so they keep weight 1.
    Blocks are at most _CHUNK_CELLS columns, or one digit.
    """
    if all(w.negation_closed for w in windows):
        half = (n + 1) // 2
        ranges = [(0, 1, 1), (1, half, 2), (half, n // 2 + 1, 1)]
    else:
        ranges = [(0, n, 1)]
    step = max(1, _CHUNK_CELLS // n ** (s - 1))
    return [(d, min(d + step, hi), w) for lo, hi, w in ranges for d in range(lo, hi, step)]


def _dots(b: np.ndarray, d0: int, d1: int, n: int) -> np.ndarray:
    """Dot products x . b mod n of the int64 entries b with the columns x
    whose first digit is in [d0, d1), in index order, in the narrowest
    unsigned dtype that holds 2(n - 1)."""
    rows, s = b.shape
    dtype = np.min_scalar_type(2 * (n - 1))
    # Prepend coordinates last to first, so each broadcast sum runs its
    # inner loop over the long table built so far.  d - n wraps above d
    # where d < n, so min(d, d - n) is d mod n.
    dots = np.zeros((rows, 1), dtype=dtype)
    for j in reversed(range(s)):
        x = np.arange(n) if j else np.arange(d0, d1)
        term = (np.multiply.outer(b[:, j], x) % n).astype(dtype)
        dots = np.add(term[:, :, None], dots[:, None, :]).reshape(rows, -1)
        np.minimum(dots, dots - n, out=dots)
    return dots


def _leading_digits(s: int) -> int:
    """How many leading multiplier digits, t, the exhaustive kernel turns
    into the dot product that picks a window row; the other s - t index
    within the row.  At t = s // 2 + 1 an entry's table, n rows of
    n^(s - t) cells, is no larger than the n^t leading parts that read
    it, and from rank 4 a pair table's n^2 rows are no more than one first
    digit's n^(t - 1) leading parts.  With tables built once per scan,
    the smaller t = ceil(s/2), whose Z_11^6 tables are too large to pair,
    scanned Z_11^6 at m = 100 in 23.2 ms against 15.2 ms, and Z_20^4 at
    m = 60 in 2.55 against 1.84 ms (min of 9, 2-core x86-64).  Ranks 1
    and 2 have no trailing digit: there a row would be read about once.
    """
    return s // 2 + 1


@dataclass(frozen=True)
class _Chunk:
    """The rank >= 3 kernel's tables for a chunk of entries, read-only.

    Entry i's leading part (x0, u) has alpha_i = first[i, x0] + later[i, u]
    less n if that is reached.  The entries go in units of g, in order,
    and unit k's table row (a_0 n + ... + a_{g-1}) * units + k, for the
    alphas a_q of its entries, is the sum of their window rows, every
    window side by side.  shifted[i, f] is the histogram of later[i]
    rotated by f, and row_hits[i, j, a] is the number of window-j hits in
    entry i's row a.
    """

    g: int
    units: int
    table: np.ndarray
    first: np.ndarray
    later: np.ndarray
    shifted: np.ndarray
    row_hits: np.ndarray

    def rows(self, first: np.ndarray, u0: int, u1: int) -> np.ndarray:
        """The table rows of units u0..u1 at the leading parts whose first
        digits are first's columns (first = self.first[:, d0:d1]), in the
        narrowest unsigned dtype that holds them."""
        g, n = self.g, self.first.shape[1]
        # Unsigned, so below n the subtraction wraps above the sum and the
        # minimum keeps it.
        a = first[u0 * g : u1 * g, :, None] + self.later[u0 * g : u1 * g, None, :]
        np.minimum(a, a - n, out=a)
        a = a.reshape(u1 - u0, g, -1)
        at = a[:, 0].astype(np.min_scalar_type(len(self.table) - 1))
        for q in range(1, g):
            at *= n
            at += a[:, q]
        if self.units > 1:
            at *= self.units
            at += np.arange(u0, u1, dtype=at.dtype)[:, None]
        return at


def _gather_chunk(part: np.ndarray, n: int, t: int, nw: int, g: int) -> _Chunk:
    """The `_Chunk` of the entries `part`, in units of g entries.  An odd
    entry out of pairs is paired with the zero entry, whose alpha and
    beta are 0: its rows are [0 in window], which is never."""
    if len(part) % g:
        part = np.concatenate([part, np.zeros((1, part.shape[1]), dtype=part.dtype)])
    r = len(part)
    beta = _dots(part[:, t:], 0, n, n)
    trail = beta.shape[1]
    cols = (beta[:, None, :] + (np.arange(nw) * n)[:, None]).reshape(r, -1)
    # rows[a, i] is entry i's row a: _window_rows is symmetric in a and
    # the offset, and its column j * n + o is window j at a + o.
    rows = np.take(_window_rows(n), cols, axis=1)
    row_hits = rows.reshape(n, r, nw, trail).sum(axis=3, dtype=np.min_scalar_type(trail))
    row_hits = row_hits.transpose(1, 2, 0)
    if g == 2:
        rows = np.add(rows[:, None, 0::2], rows[None, :, 1::2])
    first = (np.multiply.outer(part[:, 0], np.arange(n)) % n).astype(beta.dtype)
    later = _dots(part[:, 1:t], 0, n, n)
    hist = np.zeros((r, 2 * n), dtype=np.min_scalar_type(later.shape[1]))
    # bincount takes intp: slices of entries keep that copy near
    # _CHUNK_CELLS bytes.
    step = max(1, _CHUNK_CELLS // (8 * later.shape[1]))
    for lo in range(0, r, step):
        # Row k of the slice counts into k * n + residue.
        k = min(step, r - lo)
        at = later[lo : lo + k] + (np.arange(k) * n)[:, None]
        hist[lo : lo + k, :n] = np.bincount(at.ravel(), minlength=k * n).reshape(k, n)
    hist[:, n:] = hist[:, :n]
    # shifted[i, f, a] = hist[i, f + a], which is entry i's count of
    # later dots equal to a - (n - f) mod n.
    row, cell = hist.strides
    shifted = np.lib.stride_tricks.as_strided(hist, (r, n + 1, n), (row, cell, cell))
    return _Chunk(g, r // g, rows.reshape(n**g * (r // g), -1), first, later, shifted, row_hits)


def _gather_chunks(rows: np.ndarray, n: int, nw: int) -> tuple[int, Callable[[int], _Chunk]]:
    """Entries per chunk, and the chunk of entries from lo, for the rank
    >= 3 kernel.  A whole sequence whose tables fit 16 * _CHUNK_CELLS
    bytes is one chunk, built here once per scan and shared by every
    block and thread; a longer one goes in chunks of about _CHUNK_CELLS
    bytes, each built again in every block.  Entries are paired where a
    pair table fits _CHUNK_CELLS bytes and t >= 3, so its n^2 rows are
    no more than one first digit's leading parts."""
    m, s = rows.shape
    t = _leading_digits(s)
    tw = nw * n ** (s - t)
    g = 2 if t >= 3 and m > 1 and n * n * tw <= _CHUNK_CELLS else 1
    # An entry's share of its table, first and later, and at most its
    # histogram and row hits.
    dots = np.min_scalar_type(2 * (n - 1)).itemsize
    entry = n**g * tw // g + (n + n ** (t - 1)) * dots + 2 * n * 4 + nw * n * 8
    if m * entry <= 16 * _CHUNK_CELLS:
        span = m
    else:
        span = max(g, _CHUNK_CELLS // entry // g * g)

    @functools.lru_cache(maxsize=1)
    def chunk(lo: int) -> _Chunk:
        return _gather_chunk(rows[lo : lo + span], n, t, nw, g)

    if span == m:
        chunk(0)
    return span, chunk


def _scan_blocks(
    blocks: Sequence[tuple[int, int, int]],
    rows: np.ndarray,
    n: int,
    windows: Sequence[Window],
    count_dtype: np.dtype,
    chunks: tuple[int, Callable[[int], _Chunk]] | None,
) -> list[list[_Tally]]:
    """Exact tallies, per block and window, of blocks (d0, d1, weight): the
    columns whose first digit is in [d0, d1), each standing for `weight`
    columns.  rows is the m x s sequence.

    With no trailing digit (s <= 2) each window's bands are tested on a
    chunk of entries' dot products at a time, by `Window.inside`.
    Otherwise `chunks` is `_gather_chunks`' (span, chunk): a column x
    splits into its t leading digits u and the rest v (see
    `_leading_digits`), x . b = alpha_b(u) + beta_b(v) mod n, and a
    block's counts are the sum of the table rows its leading parts pick
    (see `_Chunk`), gathered with np.take a few units at a time: a copy
    and an add per cell for each unit, which is two entries wherever
    they are paired.  The row indices are made for about _CHUNK_CELLS
    leading parts at a time, in the narrowest unsigned dtype that holds
    them, so neither their calls nor their bytes grow with the block.
    Entry b's row total is
    the sum over a of uses[b, a] * (hits in row a), where uses[b, a], the
    leading parts of the block with alpha_b = a, is the histogram of
    later[b] rotated by first[b, x0], summed over the block's first
    digits x0.
    """
    m, s = rows.shape
    nw = len(windows)
    low, trail = n ** (s - 1), n ** (s - _leading_digits(s))
    tallies = []
    for d0, d1, weight in blocks:
        width = (d1 - d0) * low
        per = max(1, _CHUNK_CELLS // width)
        row_totals = np.empty((m, nw), dtype=np.int64)
        if chunks is None:
            counts = np.zeros((nw, width), dtype=count_dtype)
            row_dtype = np.min_scalar_type(width)
            for lo in range(0, m, per):
                dots = _dots(rows[lo : lo + per], d0, d1, n)
                for j, w in enumerate(windows):
                    h = w.inside(dots)
                    counts[j] += h.sum(axis=0, dtype=count_dtype)
                    row_totals[lo : lo + per, j] = h.sum(axis=1, dtype=row_dtype)
        else:
            span, chunk = chunks
            counts = np.zeros((width // trail, nw * trail), dtype=count_dtype)
            for lo in range(0, m, span):
                c = chunk(lo)
                r = min(span, m - lo)
                first = c.first[:, d0:d1]
                uses = c.shifted[np.arange(r)[:, None], n - first[:r]].sum(axis=1, dtype=np.int64)
                row_totals[lo : lo + r] = np.matmul(c.row_hits[:r], uses[:, :, None])[:, :, 0]
                batch = per * max(1, _CHUNK_CELLS // (per * c.g * (width // trail)))
                for v0 in range(0, c.units, batch):
                    at = c.rows(first, v0, min(v0 + batch, c.units))
                    for u0 in range(0, len(at), per):
                        got = np.take(c.table, at[u0 : u0 + per], axis=0)
                        # One unit's rows are added as they are: a sum along
                        # an axis of length one would be another full pass.
                        counts += got[0] if len(got) == 1 else got.sum(axis=0, dtype=count_dtype)
            # Gathered counts interleave the windows by table row.
            counts = counts.reshape(-1, nw, trail).transpose(1, 0, 2)
        columns = range(d0 * low, d1 * low)
        tallies.append(_tally(counts.reshape(nw, width), row_totals.T, columns, weight))
    return tallies


def _report(
    seq: GroupSequence,
    profile: DivisorProfile,
    tallies: Sequence[_Tally],
    *,
    sample_size: int | None = None,
    seed: int | None = None,
) -> ScanReport:
    """Fill a ScanReport from one tally per window, exhaustive or sampled."""
    spec = seq.spec
    size = spec.size
    exhaustive = sample_size is None
    windows = tuple(
        WindowStats(
            expected_count=expected,
            grand_total=t.grand,
            mean_full=Fraction(t.grand, size) if exhaustive else None,
            mean_nonzero=Fraction(t.grand, size - 1) if exhaustive else None,
            sample_mean=None if exhaustive else Fraction(t.grand, sample_size),
            row_totals=tuple(t.row_totals.tolist()),
            best_x=spec.coords_of(t.best_idx),
            best_count=t.best_count,
            histogram=tuple(t.hist.tolist()),
            zero_column_count=t.zero_count,
        )
        for expected, t in zip(expected_counts(profile, spec.n), tallies)
    )
    return ScanReport(
        n=spec.n,
        s=spec.s,
        m=len(seq),
        exhaustive=exhaustive,
        sample_size=sample_size,
        seed=seed,
        profile=profile,
        windows=windows,
    )


def full_scan(
    seq: GroupSequence,
    *,
    workers: int = 1,
    sample: int | None = None,
    seed: int | None = None,
) -> ScanReport:
    """Scan every multiplier (or a seeded sample) and report exact counts.

    At most os.cpu_count() threads run, however many workers are asked
    for; the report does not depend on how the columns are split.
    """
    if len(seq) == 0:
        raise ValueError("cannot scan an empty sequence")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    spec = seq.spec
    n, s = spec.n, spec.s
    profile = divisor_profile(seq)

    if sample is not None:
        return _sampled_scan(seq, profile, sample, seed)

    if spec.size > DEFAULT_SCAN_CAP:
        raise ValueError(
            f"group has {spec.size} elements, above the exhaustive scan cap "
            f"{DEFAULT_SCAN_CAP}; pass sample= for a sampled scan"
        )

    windows = scan_windows(n)
    count_dtype = np.min_scalar_type(len(seq))
    rows = np.array(seq.elements, dtype=np.int64)

    chunks = _gather_chunks(rows, n, len(windows)) if _leading_digits(s) < s else None

    def scan(blocks: list[tuple[int, int, int]]) -> list[list[_Tally]]:
        return _scan_blocks(blocks, rows, n, windows, count_dtype, chunks)

    blocks = _column_blocks(n, s, windows)
    threads = min(workers, os.cpu_count() or 1, len(blocks))
    if threads == 1:
        results = scan(blocks)
    else:
        # Each thread takes every threads-th block, so blocks of one width
        # spread evenly.
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = pool.map(scan, [blocks[i::threads] for i in range(threads)])
            results = [per_block for part in parts for per_block in part]
    tallies = [_merge(per_block) for per_block in zip(*results)]
    return _report(seq, profile, tallies)


def dots_fit_int64(width: int, base: int, n: int) -> bool:
    """Whether every dot product of `width` base-`base` digits with
    residues mod n stays below 2^63, the sampled kernel's int64 range."""
    return width * (base - 1) * (n - 1) < 2**63


#: Most draws per read in `_draw_multipliers`, so its scratch beyond the
#: sample itself stays small.
_DRAW_CHUNK = 1 << 16


def _randbelow_draws(rng: random.Random, n: int, draws: int) -> np.ndarray:
    """The accepted values, in stream order, among the next `draws`
    getrandbits(k) calls of CPython's rng._randbelow(n), for n below 2^64.

    With k the bit length of n, getrandbits(k) is one 32-bit word shifted
    right by 32 - k for k <= 32, and otherwise a low word and then a high
    word shifted right by 64 - k; draws of n or more are rejected.  The
    words come from one getrandbits(32 * c), whose little-endian bytes are
    c getrandbits(32) words in order.  The result is uint32 for k <= 32,
    else uint64.  This follows CPython's _randbelow and getrandbits
    algorithms.
    """
    k = n.bit_length()
    c = draws if k <= 32 else 2 * draws
    w = np.frombuffer(rng.getrandbits(32 * c).to_bytes(4 * c, "little"), "<u4")
    if k <= 32:
        r = w >> (32 - k)
    else:
        r = w[::2] | (w[1::2] >> (64 - k)).astype(np.uint64) << 32
    return r[r < n]


def _draw_multipliers(size: int, count: int, seed: int) -> np.ndarray:
    """sorted(random.Random(seed).sample(range(1, size), count)) as int64.

    For a population too large for its pool branch, random.sample keeps
    the first `count` distinct values of _randbelow(size - 1), which
    `_randbelow_draws` replays.  Each round takes as many draws as values
    are still missing, so every new value it finds is kept.  This follows
    CPython's random.sample algorithm; the pool branch keeps the Python
    call.
    """
    n = size - 1
    if count == n:
        return np.arange(1, size, dtype=np.int64)
    pool = 21 + (4 ** math.ceil(math.log(count * 3, 4)) if count > 5 else 0)
    rng = random.Random(seed)
    if n <= pool:
        return np.array(sorted(rng.sample(range(1, size), count)), dtype=np.int64)
    k = n.bit_length()

    def below_n(missing: int) -> np.ndarray:
        # About missing * 2^k / n draws, and 64 more, so one read usually
        # finds what is missing; the stream is read in order whatever the
        # read sizes.
        draws = min(_DRAW_CHUNK, (missing << k) // n + 64)
        return _randbelow_draws(rng, n, draws).astype(np.int64)

    picked = left = np.empty(0, dtype=np.int64)
    while len(picked) < count:
        batch = np.empty(count - len(picked), dtype=np.int64)
        got = 0
        while got < len(batch):
            if not len(left):
                left = below_n(len(batch) - got)
            take = min(len(left), len(batch) - got)
            batch[got : got + take], left = left[:take], left[take:]
            got += take
        batch.sort()
        batch = batch[np.r_[True, batch[1:] != batch[:-1]]]
        if not len(picked):
            picked = batch
            continue
        at = np.searchsorted(picked, batch)
        fresh = picked[np.minimum(at, len(picked) - 1)] != batch
        picked = np.insert(picked, at[fresh], batch[fresh])
    picked += 1
    return picked


def _digit_terms(b: np.ndarray, base: int, n: int, dtype: np.dtype) -> np.ndarray:
    """T[digit, i] = digit * b[i] mod n for digits in [0, base), residues b
    in [0, n), in the unsigned `dtype`, which holds 2(n - 1).

    Built by doubling, T[h + d] = T[d] + (h * b mod n), with every sum
    reduced as min(d, d - n), so no cell is multiplied or divided.
    """
    terms = np.empty((base, len(b)), dtype=dtype)
    terms[0] = 0
    step = b.astype(dtype)
    h = 1
    while h < base:
        k = min(h, base - h)
        block = terms[h : h + k]
        np.add(terms[:k], step, out=block)
        np.minimum(block, block - n, out=block)
        step += step
        np.minimum(step, step - n, out=step)
        h += k
    return terms


def _sampled_tallies(
    size: int,
    sample: int,
    seed: int | None,
    base: int,
    rows: Sequence[Sequence[int]],
    n: int,
    windows: Sequence[Window],
) -> tuple[int, list[_Tally]]:
    """The one sampled scan: exact window counts over min(sample, size - 1)
    seeded distinct multipliers in 1..size-1, ascending, so a tied best
    goes to the smallest.  A multiplier's coordinates are the base-`base`
    digits of its index, most significant first, one per row entry; its
    value on a row is their dot product mod n.  Returns the number of
    multipliers scanned and one tally per window.  Samples above
    DEFAULT_SCAN_CAP, and dot products that could reach 2^63, are refused
    before anything is drawn.

    Which dot builder runs depends only on base and n against the table
    cap: one entry's digit terms, base cells in the narrowest unsigned
    dtype that holds 2(n - 1), must fit in _CHUNK_CELLS bytes, and that
    dtype must be narrower than 64 bits.  Then the entries go in spans of
    as many as fit, coordinate j of a span gets the table T_j[digit, i] =
    digit * b_ij mod n (`_digit_terms`), and a chunk's dot products are
    T_0's rows gathered by digit 0 plus each later T_j's rows, reduced as
    min(d, d - n) after each add; each span's hits add up.  Otherwise the
    digits go through one int64 matmul and `%`: a wider base, such as the
    integer path's widest digits or a rank-1 group of more than 2^16
    elements, would need tables sized by the base, and 64-bit terms are
    as wide as the matmul's own cells but take three passes per digit
    (gathering them for 20000 multipliers, m = 24, p ~ 2e14 and 2e15,
    took 6.9 and 10.0 ms against 4.3 and 5.9 ms for the matmul and `%`;
    2-core x86-64).  So integer sampled scans with p above 2^31 keep the
    matmul.  Hits per multiplier are counted in the narrowest dtype that
    holds m.
    """
    if seed is None:
        raise ValueError("sampled scans require a seed")
    if sample < 1:
        raise ValueError("sample size must be positive")
    count = min(sample, size - 1)
    if count > DEFAULT_SCAN_CAP:
        raise ValueError(
            f"a sample of {count} multipliers is above the sampled scan cap {DEFAULT_SCAN_CAP}"
        )
    width = len(rows[0])
    if size > 2**63 or not dots_fit_int64(width, base, n):
        raise ValueError(
            f"multipliers below {size} as {width} base-{base} digits times residues mod {n} "
            "can reach 2**63; the sampled scan needs exact int64 indices and dot products"
        )
    multipliers = _draw_multipliers(size, count, seed)
    entries = np.array(rows, dtype=np.int64)
    m = len(entries)
    counts = np.zeros((len(windows), count), dtype=np.min_scalar_type(m))
    row_totals = np.zeros((len(windows), m), dtype=np.int64)
    dtype = np.min_scalar_type(2 * (n - 1))
    entry_bytes = base * dtype.itemsize
    tables = entry_bytes <= _CHUNK_CELLS and dtype.itemsize < 8
    span = _CHUNK_CELLS // entry_bytes if tables else m
    for e0 in range(0, m, span):
        part = entries[e0 : e0 + span]
        if tables:
            terms = [_digit_terms(b, base, n, dtype) for b in part.T]
        chunk = max(1, _CHUNK_CELLS // (len(part) + width))
        chunk_dtype = np.min_scalar_type(chunk)
        for lo in range(0, count, chunk):
            q = multipliers[lo : lo + chunk]
            coords = np.empty((width, q.size), dtype=np.int64)
            for j in reversed(range(width)):
                q, coords[j] = np.divmod(q, base)
            if tables:
                dots = np.take(terms[0], coords[0], axis=0)
                for term, digits in zip(terms[1:], coords[1:]):
                    dots += np.take(term, digits, axis=0)
                    np.minimum(dots, dots - n, out=dots)
                # Entry-major, so both sums below run along contiguous rows.
                dots = np.ascontiguousarray(dots.T)
            else:
                dots = part @ coords
                dots %= n
            for w, c, rt in zip(windows, counts, row_totals):
                hit = w.inside(dots)
                c[lo : lo + chunk] += hit.sum(axis=0, dtype=c.dtype)
                rt[e0 : e0 + span] += hit.sum(axis=1, dtype=chunk_dtype)
    return count, _tally(counts, row_totals, multipliers)


def _sampled_scan(
    seq: GroupSequence,
    profile: DivisorProfile,
    sample: int,
    seed: int | None,
) -> ScanReport:
    # A multiplier's coordinates are the base-n digits of its index.
    spec = seq.spec
    count, tallies = _sampled_tallies(
        spec.size, sample, seed, spec.n, seq.elements, spec.n, scan_windows(spec.n)
    )
    return _report(seq, profile, tallies, sample_size=count, seed=seed)


def verify_report(report: ScanReport, seq: GroupSequence) -> list[str]:
    """Internal consistency checks; returns human-readable violations.

    Every report must agree with itself: per window, the grand total,
    the row totals and the histogram count the same hits, and the
    histogram covers every scanned column.  For exhaustive scans the row
    totals and the full-domain mean are also forced by the
    uniform-attainment structure, so any mismatch means a broken kernel,
    not an interesting input.
    """
    problems: list[str] = []
    spec = seq.spec
    n, s = spec.n, spec.s
    columns = spec.size if report.exhaustive else report.sample_size
    windows = scan_windows(n)
    gcds = [math.gcd(n, *b) for b in seq]  # entries already validated nonzero
    if len(report.windows) != len(windows):
        problems.append(f"report has {len(report.windows)} windows, not {len(windows)}")
    for j, (w, stats) in enumerate(zip(windows, report.windows), start=1):
        rows, hist = stats.row_totals, stats.histogram
        if report.exhaustive:
            for i, d in enumerate(gcds):
                want = d * n ** (s - 1) * w.count_multiples(d)
                if rows[i] != want:
                    problems.append(f"row {i}: window-{j} total {rows[i]} != {want}")
            if stats.mean_full != stats.expected_count:
                problems.append(f"full-domain mean disagrees with the expected count (window {j})")
            if stats.zero_column_count != 0:
                problems.append(f"zero multiplier shows {stats.zero_column_count} window-{j} hits")
        hist_hits = sum(c * v for c, v in enumerate(hist))
        if not stats.grand_total == sum(rows) == hist_hits:
            problems.append(
                f"window-{j} grand total {stats.grand_total}, row-total sum {sum(rows)} and "
                f"histogram hits {hist_hits} disagree"
            )
        if sum(hist) != columns:
            problems.append(f"window-{j} histogram covers {sum(hist)} columns, not {columns}")
        top = max(i for i, v in enumerate(hist) if v) if any(hist) else 0
        if stats.best_count != top:
            problems.append(f"window-{j} best count {stats.best_count} != histogram maximum {top}")
    return problems


@dataclass(frozen=True)
class GroupExtraction:
    """Positions pulled back from the best window column, verified."""

    multiplier: Element
    window_index: int
    indices: tuple[int, ...]
    size: int
    verified_sum_free: bool
    beats_two_sevenths: bool


def extract_sum_free_group(
    seq: GroupSequence,
    report: ScanReport | None = None,
) -> GroupExtraction:
    """Pick the best of the windows' best columns and pull back.

    Ties prefer the middle-third window.  The pulled-back subsequence is
    re-verified sum-free with the oracle, and the 7 * size > 2 * m flag
    records whether this instance beats the guaranteed density.
    """
    if report is None:
        report = full_scan(seq)
    spec = seq.spec
    # max keeps the first of equal counts, so ties go to window 1.
    which = max(range(len(report.windows)), key=lambda j: report.windows[j].best_count)
    x, expect = report.windows[which].best_x, report.windows[which].best_count
    window = scan_windows(spec.n)[which]
    indices = tuple(
        i for i, b in enumerate(seq) if window.contains(spec.dot(x, b))
    )
    if len(indices) != expect:
        raise RuntimeError(
            f"pullback found {len(indices)} positions, scan promised {expect}"
        )
    values = {tuple(seq.elements[i]) for i in indices}
    ok = is_sum_free(values, add=spec.add)
    return GroupExtraction(
        multiplier=x,
        window_index=which + 1,
        indices=indices,
        size=len(indices),
        verified_sum_free=ok,
        beats_two_sevenths=7 * len(indices) > 2 * len(seq),
    )
