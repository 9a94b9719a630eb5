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
b of a chunk gets, per window, the table R_b[a, v] = [a + beta_b(v) mod
n lies in the window], and a block's counts are the sum over b of the
rows R_b[alpha_b(u)], gathered with np.take: a copy and an add per cell
and window.  At ranks 1 and 2 each window's bands are tested on the
dot products by `Window.inside`, as in the sampled kernel.  Counts are
kept in the narrowest dtype that holds m.  A chunk's scratch, tables
and row indices included, stays within about _CHUNK_CELLS bytes per
array whatever m is.  All counting is integer exact, and block results
merge into sums and a smallest-index best whatever their order, so any
worker count produces the identical report.  Sampled scans, of groups
and of integers alike, all run through one chunked kernel,
`_sampled_tallies`.  Its multipliers are exactly
sorted(random.Random(seed).sample(...)).  `_draw_multipliers` reproduces
them in numpy, by loading the seeded Mersenne Twister state into
numpy's MT19937 and replaying CPython's getrandbits words and
random.sample's set-branch rejections.  It calls random.sample itself
only where that takes its pool branch (a small population).  So the
sampled bytes depend on CPython's random.sample and getrandbits
algorithms, which tests compare against the numpy draw.
"""

from __future__ import annotations

import functools
import math
import os
import random
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Sequence

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


def weighted_inequality_sweep(max_n: int) -> list[InequalityRow]:
    """Check 4/7 * r1 + 3/7 * r2 >= 2/7 for every modulus and divisor.

    r_j is the density of window j members among the multiples of d.
    This is the inequality that makes the 2/7 extraction bound work for
    arbitrary composition of gcd classes.
    """
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
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
    workers: int = field(compare=False)
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
    larger index, so the best index is unchanged.
    """
    size = row_totals.shape[1] + 1
    return [
        _Tally(
            grand=weight * int(grand),
            hist=weight * np.bincount(c, minlength=size),
            best_idx=int(columns[i]),
            best_count=int(c[i]),
            row_totals=rt,
            zero_count=int(c[0]) if columns[0] == 0 else None,
        )
        for c, grand, rt, i in zip(
            counts, counts.sum(axis=1, dtype=np.int64), weight * row_totals, counts.argmax(axis=1)
        )
    ]


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
    it.  In an earlier form of this kernel the smaller t = ceil(s/2),
    whose larger tables were rebuilt in every block, scanned Z_11^6 at
    m = 100 in 68-76 ms against 42-57 ms (2-core x86-64).  Ranks 1 and 2
    have no trailing digit: there a row would be read about once.
    """
    return s // 2 + 1


def _scan_blocks(
    blocks: Sequence[tuple[int, int, int]],
    rows: np.ndarray,
    n: int,
    windows: Sequence[Window],
    count_dtype: np.dtype,
) -> list[list[_Tally]]:
    """Exact tallies, per block and window, of blocks (d0, d1, weight): the
    columns whose first digit is in [d0, d1), each standing for `weight`
    columns.  rows is the m x s sequence, scanned a chunk of entries at a
    time.

    A column x splits into its t leading digits u and the rest v (see
    `_leading_digits`), and x . b = alpha_b(u) + beta_b(v) mod n.  Entry
    b's table R_b[a, v] = [a + beta_b(v) mod n lies in the window] is
    built per chunk of entries (once per scan when one chunk holds them
    all), from `_window_rows` and beta, for every window side by side; a
    block's counts are the sum over b of the rows R_b[alpha_b(u)],
    gathered with np.take and added up, so each cell costs a copy and an
    add.  Entry b's row total is the sum over a
    of (leading parts u with alpha_b(u) = a) * (hits in row a).  With no
    trailing digit (s <= 2) each window's bands are tested on the dot
    products instead, by `Window.inside`.
    """
    m, s = rows.shape
    nw = len(windows)
    t = _leading_digits(s)
    low, trail = n ** (s - 1), n ** (s - t)
    widths = [(d1 - d0) * low for d0, d1, _ in blocks]
    pers = [max(1, _CHUNK_CELLS // width) for width in widths]
    if t < s:
        # A chunk's tables (bytes), and a block's row indices for it (intp),
        # each stay within _CHUNK_CELLS bytes.
        index_bytes = np.dtype(np.intp).itemsize * max(widths) // trail
        span = min(m, max(1, _CHUNK_CELLS // max(n * nw * trail, index_bytes)))
        offsets = (np.arange(nw) * n)[:, None]
        window_rows = _window_rows(n)

        @functools.lru_cache(maxsize=1)
        def chunk(lo: int):
            # No block enters here, so a sequence of one chunk builds this
            # once per scan.  Row a * r + i of the table is R_i[a] of each
            # window in turn.  Leading part (x0, u) picks the row first[i,
            # x0] + later[i, u], less n * r if that is reached: the row of
            # a = x0 b_i0 + (dots of u) mod n.
            part = rows[lo : lo + span]
            r = len(part)
            beta = (_dots(part[:, t:], 0, n, n)[:, None, :] + offsets).reshape(-1)
            table = np.take(window_rows, beta, axis=1)
            row_hits = table.reshape(n, r, nw, trail).sum(axis=3, dtype=np.int64)
            first = (np.multiply.outer(part[:, 0], np.arange(n)) % n * r).astype(np.uintp)
            later = np.multiply(_dots(part[:, 1:t], 0, n, n), r, dtype=np.uintp)
            later += np.arange(r, dtype=np.uintp)[:, None]
            return table.reshape(n * r, -1), row_hits, first, later

    tallies = []
    for (d0, d1, weight), width, per in zip(blocks, widths, pers):
        counts = np.zeros(nw * width, dtype=count_dtype)
        row_totals = np.empty((m, nw), dtype=np.int64)
        if t == s:
            row_dtype = np.min_scalar_type(width)
            for lo in range(0, m, per):
                dots = _dots(rows[lo : lo + per], d0, d1, n)
                for j, w in enumerate(windows):
                    h = w.inside(dots)
                    counts[j * width : (j + 1) * width] += h.sum(axis=0, dtype=count_dtype)
                    row_totals[lo : lo + per, j] = h.sum(axis=1, dtype=row_dtype)
        else:
            for lo in range(0, m, span):
                table, row_hits, first, later = chunk(lo)
                r = len(later)
                # Unsigned, so where a row index is below n * r the
                # subtraction wraps above it and the minimum keeps it.
                at = first[:, d0:d1, None] + later[:, None, :]
                np.minimum(at, at - n * r, out=at)
                at = at.view(np.intp).reshape(r, -1)
                uses = np.bincount(at.ravel(), minlength=n * r).reshape(n, r, 1)
                row_totals[lo : lo + r] = (row_hits * uses).sum(axis=0)
                for i in range(0, r, per):
                    g = np.take(table, at[i : i + per], axis=0)
                    g = g.reshape(len(g), -1)
                    # One entry's rows are added as they are: a sum along
                    # an axis of length one would be another full pass.
                    counts += g[0] if len(g) == 1 else g.sum(axis=0, dtype=count_dtype)
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
    workers: int,
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
        workers=workers,
        sample_size=sample_size,
        seed=seed,
        profile=profile,
        windows=windows,
    )


def full_scan(
    seq: GroupSequence,
    *,
    workers: int = 1,
    cap: int = DEFAULT_SCAN_CAP,
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
        return _sampled_scan(seq, profile, sample, seed, workers)

    if spec.size > cap:
        raise ValueError(
            f"group has {spec.size} elements, above the exhaustive scan cap "
            f"{cap}; pass sample= for a sampled scan"
        )

    windows = scan_windows(n)
    count_dtype = np.min_scalar_type(len(seq))
    rows = np.array(seq.elements, dtype=np.int64)

    def scan(blocks: list[tuple[int, int, int]]) -> list[list[_Tally]]:
        return _scan_blocks(blocks, rows, n, windows, count_dtype)

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
    return _report(seq, profile, tallies, workers=workers)


def dots_fit_int64(width: int, base: int, n: int) -> bool:
    """Whether every dot product of `width` base-`base` digits with
    residues mod n stays below 2^63, the sampled kernel's int64 range."""
    return width * (base - 1) * (n - 1) < 2**63


#: Draws per read of the numpy generator in `_draw_multipliers`, so its
#: scratch beyond the sample itself stays small.
_DRAW_CHUNK = 1 << 16


def _draw_multipliers(size: int, count: int, seed: int) -> np.ndarray:
    """sorted(random.Random(seed).sample(range(1, size), count)) as int64.

    For a population too large for its pool branch, random.sample keeps
    the first `count` distinct values of _randbelow(size - 1).  That
    stream is replayed in numpy: the seeded state of random.Random goes
    into a numpy MT19937, whose raw output is CPython's 32-bit words.
    With k the bit length of size - 1, getrandbits(k) is one word
    shifted right by 32 - k for k <= 32, and otherwise a low word and
    then a high word shifted right by 64 - k; draws of size - 1 or more
    are rejected.  Each round takes as many draws as values are still
    missing, so every new value it finds is kept.  This follows
    CPython's random.sample and getrandbits algorithms; the pool branch
    keeps the Python call.
    """
    n = size - 1
    if count == n:
        return np.arange(1, size, dtype=np.int64)
    pool = 21 + (4 ** math.ceil(math.log(count * 3, 4)) if count > 5 else 0)
    rng = random.Random(seed)
    if n <= pool:
        return np.array(sorted(rng.sample(range(1, size), count)), dtype=np.int64)
    from numpy.random import MT19937  # not imported by `import numpy`; ~9 ms

    *key, pos = rng.getstate()[1]
    mt = MT19937()
    mt.state = {"bit_generator": "MT19937",
                "state": {"key": np.array(key, dtype=np.uint32), "pos": pos}}
    k = n.bit_length()

    def below_n():
        while True:
            if k <= 32:
                r = mt.random_raw(_DRAW_CHUNK) >> (32 - k)
            else:
                w = mt.random_raw(2 * _DRAW_CHUNK)
                r = w[::2] | w[1::2] >> (64 - k) << 32
            yield r[r < n].astype(np.int64)

    stream = below_n()
    picked = left = np.empty(0, dtype=np.int64)
    while len(picked) < count:
        batch = np.empty(count - len(picked), dtype=np.int64)
        got = 0
        while got < len(batch):
            if not len(left):
                left = next(stream)
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
    rmat = np.array(rows, dtype=np.int64).T
    m = rmat.shape[1]
    counts = np.empty((len(windows), count), dtype=np.int64)
    row_totals = np.zeros((len(windows), m), dtype=np.int64)
    chunk = max(1, _CHUNK_CELLS // (m + width))
    for lo in range(0, count, chunk):
        q = multipliers[lo : lo + chunk]
        coords = np.empty((q.size, width), dtype=np.int64)
        for j in reversed(range(width)):
            q, coords[:, j] = np.divmod(q, base)
        dots = coords @ rmat
        dots %= n
        for w, c, rt in zip(windows, counts, row_totals):
            hit = w.inside(dots)
            c[lo : lo + chunk] = hit.sum(axis=1)
            rt += hit.sum(axis=0)
    return count, _tally(counts, row_totals, multipliers)


def _sampled_scan(
    seq: GroupSequence,
    profile: DivisorProfile,
    sample: int,
    seed: int | None,
    workers: int,
) -> ScanReport:
    # A multiplier's coordinates are the base-n digits of its index.
    spec = seq.spec
    count, tallies = _sampled_tallies(
        spec.size, sample, seed, spec.n, seq.elements, spec.n, scan_windows(spec.n)
    )
    return _report(seq, profile, tallies, workers=workers, sample_size=count, seed=seed)


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
