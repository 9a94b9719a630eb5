"""Span recording from outside the program.

`instrument` swaps each public function named in LAYERS for a wrapper
that records one span per call, in every sumfreelab module that holds a
reference to it, and puts the originals back afterwards.  The CLI then
runs unchanged: each wrapped call nests under the span of its caller,
and every span of one job carries that job's id.  Spans stay in memory;
`layer_totals` folds them into per-layer self times and counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import tracemalloc
from contextlib import contextmanager
from time import perf_counter

from stats import self_time


_signature = functools.cache(inspect.signature)


def _args(fn, args, kwargs) -> dict:
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _best_column(fn, args, kwargs, result) -> dict:
    a = _args(fn, args, kwargs)
    m, p = len(a["values"]), a["choice"].p
    cols = p - 1 if a["sample"] is None else min(a["sample"], p - 1)
    return {"x": result.x, "count": result.count, "cells": m * cols}


def _full_scan(fn, args, kwargs, result) -> dict:
    a = _args(fn, args, kwargs)
    seq = a["seq"]
    cells = len(seq) * seq.spec.size if a["sample"] is None else 0
    return {
        "cells": cells,
        "workers": a["workers"],
        "best": [list(result.best_x_1), result.best_count_1,
                 list(result.best_x_2), result.best_count_2],
    }


# (module, public function, span name, note taken from the call).
LAYERS = (
    ("integers", "extract_sum_free_subset", "integers.extract",
     lambda fn, a, k, r: {"verified": r.verified, "size": r.size}),
    ("integers", "choose_prime", "integers.choose_prime", lambda fn, a, k, r: {"p": r.p}),
    ("integers", "best_column", "integers.best_column", _best_column),
    ("primes", "next_prime_2_mod_3", "primes.next_prime_2_mod_3", None),
    ("oracle", "is_sum_free", "oracle.is_sum_free", None),
    ("oracle", "max_sum_free", "oracle.max_sum_free", None),
    ("groups", "window_middle_third", "groups.windows", None),
    ("groups", "window_sixth_bands", "groups.windows", None),
    ("groups", "GroupSequence", "groups.GroupSequence", None),
    ("scanner", "full_scan", "scanner.full_scan", _full_scan),
    ("scanner", "_sampled_scan", "scanner.sampled_scan", None),
    ("scanner", "divisor_profile", "scanner.divisor_profile", None),
    ("scanner", "expected_counts", "scanner.expected_counts", None),
    ("scanner", "verify_report", "scanner.verify_report", None),
    ("scanner", "extract_sum_free_group", "scanner.extract_sum_free_group",
     lambda fn, a, k, r: {"size": r.size}),
    ("adjudicate", "adjudicate", "adjudicate.adjudicate", None),
    ("adjudicate", "counterexample_search", "adjudicate.counterexample_search",
     lambda fn, a, k, r: {"instances": r.instances, "oracle_checked": r.oracle_checked,
                          "findings": len(r.findings)}),
    ("jsonio", "dumps", "jsonio.dumps", None),
    ("jsonio", "load_group_sequence", "jsonio.load_group_sequence", None),
)

#: Layers whose calls also record the tracemalloc peak (MiB) around them.
MEMORY_LAYERS = {"integers.best_column"}


class Span:
    __slots__ = ("sid", "parent", "job", "name", "t0", "t1", "note")

    def __init__(self, sid, parent, job, name):
        self.sid, self.parent, self.job, self.name = sid, parent, job, name
        self.t0 = self.t1 = 0.0
        self.note = None


class Tracer:
    """Spans of one traced pass, recorded from the thread that made it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job: str | None = None
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def call(self, name, fn, args, kwargs, note=None):
        if threading.get_ident() != self._thread:
            return fn(*args, **kwargs)
        span = Span(len(self.spans), self._stack[-1] if self._stack else None, self.job, name)
        self.spans.append(span)
        self._stack.append(span.sid)
        memory = name in MEMORY_LAYERS
        if memory:
            tracemalloc.start()
        span.t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.t1 = perf_counter()
            self._stack.pop()
            if memory:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        span.note = note(fn, args, kwargs, result) if note else {}
        if memory:
            span.note["peak_mib"] = peak / 2**20
        return result

    def wrap(self, name, fn, note):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, note)

        return traced


@contextmanager
def instrument(tracer: Tracer):
    """Route every LAYERS call through `tracer` for the duration."""
    package = [m for k, m in sys.modules.items() if k == "sumfreelab" or k.startswith("sumfreelab.")]
    swapped = []
    for module, attr, name, note in LAYERS:
        original = getattr(importlib.import_module(f"sumfreelab.{module}"), attr)
        wrapper = tracer.wrap(name, original, note)
        for mod in package:
            for key in [k for k, v in vars(mod).items() if v is original]:
                setattr(mod, key, wrapper)
                swapped.append((mod, key, original))
    try:
        yield tracer
    finally:
        for mod, key, original in swapped:
            setattr(mod, key, original)


def layer_totals(spans: list[Span]) -> dict[str, dict]:
    """Per span name: call count, summed self and inclusive seconds, and
    the notes of every call."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.t0, s.t1))
    out: dict[str, dict] = {}
    for s in spans:
        own = self_time((s.t0, s.t1), children.get(s.sid, []))
        row = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "notes": []})
        row["calls"] += 1
        row["self_s"] += own
        row["total_s"] += s.t1 - s.t0
        row["notes"].append((s.job, s.t1 - s.t0, own, s.note))
    return out
