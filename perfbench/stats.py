"""Arithmetic behind the benchmark's numbers, kept free of I/O so the
self-tests in perfbench/tests can pin it down."""

from __future__ import annotations

import math

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
#: A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """The q-th percentile by the nearest-rank rule (no interpolation)."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(len(sorted_values) * q / 100))
    return sorted_values[rank - 1]


def beyond(n: int, q: float) -> int:
    """How many of n samples rank above the nearest-rank q-th percentile."""
    return n - max(1, math.ceil(n * q / 100))


def tail(values: list[float]) -> tuple[float, str, int]:
    """(value, label, sample count) of the highest percentile that has at
    least MIN_BEYOND samples beyond it; the maximum when none has."""
    xs = sorted(values)
    for q in TAIL_PERCENTILES:
        if beyond(len(xs), q) >= MIN_BEYOND:
            return nearest_rank(xs, q), f"p{q:g}", len(xs)
    return xs[-1], "max", len(xs)


def covered(interval: tuple[float, float], others: list[tuple[float, float]]) -> float:
    """Length of the part of `interval` covered by the union of `others`."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for a, b in sorted(others):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_time(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (interval[1] - interval[0]) - covered(interval, children)


def parallel_eff(t_one: float, t_many: float, workers: int) -> float:
    """Speed-up per worker: t(1 worker) / (workers * t(workers))."""
    return t_one / (workers * t_many)


def ratio(num: float, den: float) -> float:
    """num / den, or 0 when there is nothing to divide by."""
    return num / den if den else 0.0


# Job outcomes.  A job that raised, exited with an unexpected code or
# failed an output check has failed; a job whose report claims success
# but is wrong (or differs from a rerun of the same input) is also wrong,
# which makes the whole run incorrect.
OK, FAILED, WRONG = "ok", "failed", "wrong"


def job_status(expected_code: int, code: int | None, raised: str | None, problems: list[str],
               wrong: list[str]) -> str:
    if wrong:
        return WRONG
    if raised is not None or code != expected_code or problems:
        return FAILED
    return OK


def fail_ratio(statuses: list[str]) -> float:
    """Failed jobs (wrong ones included) over attempted jobs."""
    if not statuses:
        raise ValueError("no jobs attempted")
    return sum(s != OK for s in statuses) / len(statuses)
