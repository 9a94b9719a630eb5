"""Self-tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import stats  # noqa: E402
from spans import Tracer, layer_totals  # noqa: E402


def test_tail_uses_max_below_a_hundred_samples():
    values = [float(i) for i in range(1, 100)]
    assert stats.tail(values) == (99.0, "max", 99)


def test_tail_picks_highest_percentile_with_ten_beyond():
    values = [float(i) for i in range(1, 101)]
    assert stats.tail(values) == (90.0, "p90", 100)  # exactly ten samples above 90
    values = [float(i) for i in range(1, 201)]
    assert stats.tail(values) == (190.0, "p95", 200)
    values = [float(i) for i in range(1, 1001)]
    assert stats.tail(values) == (990.0, "p99", 1000)
    values = [float(i) for i in range(1, 10001)]
    assert stats.tail(values) == (9990.0, "p99.9", 10000)


def test_tail_ignores_input_order():
    assert stats.tail([5.0, 1.0, 3.0]) == (5.0, "max", 3)


def test_self_time_subtracts_covered_child_intervals():
    assert stats.self_time((0.0, 10.0), []) == 10.0
    assert stats.self_time((0.0, 10.0), [(1.0, 3.0), (5.0, 6.0)]) == 7.0
    # Overlapping children count once; parts outside the span not at all.
    assert stats.self_time((0.0, 10.0), [(1.0, 4.0), (2.0, 5.0), (9.0, 12.0)]) == 5.0
    assert stats.self_time((0.0, 10.0), [(2.0, 8.0), (3.0, 4.0)]) == 4.0
    assert stats.self_time((0.0, 10.0), [(-5.0, 20.0)]) == 0.0


def test_layer_totals_nest_spans_by_caller():
    tracer = Tracer()
    tracer.job = "j1"

    def inner(x):
        return x + 1

    def outer(x):
        return tracer.call("inner", inner, (x,), {}) * 2

    assert tracer.call("outer", outer, (1,), {}) == 4
    totals = layer_totals(tracer.spans)
    outer_span, inner_span = tracer.spans
    assert inner_span.parent == outer_span.sid and inner_span.job == "j1"
    assert totals["outer"]["self_s"] == pytest.approx(
        (outer_span.t1 - outer_span.t0) - (inner_span.t1 - inner_span.t0))
    assert totals["inner"]["calls"] == 1


def test_parallel_eff():
    assert stats.parallel_eff(3.0, 1.5, 2) == 1.0
    assert stats.parallel_eff(2.68, 1.5, 2) == pytest.approx(0.8933, abs=1e-4)


def test_fail_ratio_counts_raised_and_nonzero_exit_jobs():
    statuses = [
        stats.job_status(0, 0, None, [], []),                     # ok
        stats.job_status(0, 1, None, ["verified: false"], []),    # nonzero exit
        stats.job_status(2, None, "MemoryError", ["raised"], []),  # raised
        stats.job_status(2, 2, None, [], []),                     # expected refusal: ok
        stats.job_status(0, 0, None, [], ["not sum-free"]),       # wrong counts as failed
    ]
    assert statuses == [stats.OK, stats.FAILED, stats.FAILED, stats.OK, stats.WRONG]
    assert stats.fail_ratio(statuses) == pytest.approx(3 / 5)
    # A nonzero exit alone fails a job even when no check looked at it.
    assert stats.job_status(0, 1, None, [], []) == stats.FAILED
    with pytest.raises(ValueError):
        stats.fail_ratio([])
