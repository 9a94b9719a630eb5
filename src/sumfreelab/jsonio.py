"""Canonical JSON and CSV forms for every report the toolkit emits.

Serialization rules: keys sorted, two-space indent, trailing newline,
rationals as {"num", "den"} in lowest terms, no floats and no
environment-dependent fields, so reruns are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import fields
from fractions import Fraction
from typing import Any

from .adjudicate import (
    AdjudicationRecord,
    Finding,
    PrimeCaseReport,
    SearchResult,
)
from .extremal import TightnessReport
from .groups import GroupSequence, GroupSpec
from .scanner import GroupExtraction, InequalityRow, ScanReport, WindowStats

SCHEMA = 1


def frac(value: Fraction | None) -> dict[str, int] | None:
    if value is None:
        return None
    return {"num": value.numerator, "den": value.denominator}


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def group_sequence_to_dict(seq: GroupSequence) -> dict:
    return {
        "schema": SCHEMA,
        "n": seq.spec.n,
        "s": seq.spec.s,
        "elements": [list(e) for e in seq.elements],
    }


def load_group_sequence(text: str) -> GroupSequence:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("group file must hold a JSON object")
    if data.get("schema") != SCHEMA:
        raise ValueError(f"unsupported schema {data.get('schema')!r}")
    for key in ("n", "s", "elements"):
        if key not in data:
            raise ValueError(f"group file missing {key!r}")
    n, s = data["n"], data["s"]
    if not isinstance(n, int) or not isinstance(s, int):
        raise ValueError("n and s must be integers")
    elements = data["elements"]
    if not isinstance(elements, list) or not all(isinstance(e, list) for e in elements):
        raise ValueError("elements must be a list of coordinate lists")
    spec = GroupSpec(n, s)
    return GroupSequence(spec, tuple(tuple(e) for e in elements))


def extraction_to_dict(e: GroupExtraction) -> dict:
    return {
        "multiplier": list(e.multiplier),
        "window_index": e.window_index,
        "indices": list(e.indices),
        "size": e.size,
        "verified_sum_free": e.verified_sum_free,
        "beats_two_sevenths": e.beats_two_sevenths,
    }


#: Per-window keys as (JSON key stem, WindowStats field): window j's
#: statistic goes under `<stem>_<j>`.  Scan reports write every field.
_SCAN_WINDOW_KEYS = tuple((f.name, f.name) for f in fields(WindowStats))
_ADJUDICATION_WINDOW_KEYS = (
    ("expected_count", "expected_count"), ("mean_full", "mean_full"),
    ("mean_nonzero", "mean_nonzero"), ("max_count", "best_count"), ("histogram", "histogram"),
)


def _window_keys(windows: tuple[WindowStats, ...], table: tuple[tuple[str, str], ...]) -> dict:
    out = {}
    for j, w in enumerate(windows, start=1):
        for key, stat in table:
            value = getattr(w, stat)
            if isinstance(value, Fraction):
                value = frac(value)
            out[f"{key}_{j}"] = list(value) if isinstance(value, tuple) else value
    return out


def scan_report_to_dict(r: ScanReport, extraction: GroupExtraction | None = None) -> dict:
    out = {
        "schema": SCHEMA,
        "kind": "scan",
        "n": r.n,
        "s": r.s,
        "m": r.m,
        "exhaustive": r.exhaustive,
        "sample_size": r.sample_size,
        "seed": r.seed,
        "divisor_profile": [list(p) for p in r.profile.pairs],
        **_window_keys(r.windows, _SCAN_WINDOW_KEYS),
    }
    if extraction is not None:
        out["extraction"] = extraction_to_dict(extraction)
    return out


def adjudication_to_dict(rec: AdjudicationRecord) -> dict:
    r = rec.report
    return {
        "schema": SCHEMA,
        "kind": "adjudication",
        "instance_id": rec.instance_id,
        "n": r.n,
        "s": r.s,
        "m": r.m,
        "divisor_profile": [list(p) for p in r.profile.pairs],
        **_window_keys(r.windows, _ADJUDICATION_WINDOW_KEYS),
        "divisor_range_bound": frac(rec.divisor_range_bound),
        "divisor_range_bound_limit": frac(rec.divisor_range_bound_limit),
        "extraction": extraction_to_dict(rec.extraction),
        **{f"full_mean_matches_expected_{j}": ok
           for j, ok in enumerate(rec.full_mean_matches_expected, start=1)},
        "some_column_beats_expected_1": rec.some_column_beats_expected_1,
        "extraction_beats_two_sevenths": rec.extraction.beats_two_sevenths,
    }


def finding_to_dict(f: Finding) -> dict:
    return {
        "elements": [list(e) for e in f.elements],
        "m": f.m,
        "extraction_size": f.extraction_size,
        "exact_max_size": f.exact_max_size,
        "extraction_below_bound": f.extraction_below_bound,
        "max_below_bound": f.max_below_bound,
    }


def search_result_to_dict(res: SearchResult) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "search",
        "query": {
            "n": res.query.n,
            "s": res.query.s,
            "m": res.query.m,
            "mode": res.query.mode,
            "budget": res.query.budget,
            "seed": res.query.seed,
        },
        "instances": res.instances,
        "oracle_checked": res.oracle_checked,
        "complete": res.complete,
        "findings": [finding_to_dict(f) for f in res.findings],
    }


def prime_case_to_dict(rep: PrimeCaseReport) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "prime-case",
        "p": rep.p,
        "s": rep.s,
        "trials": rep.trials,
        "seed": rep.seed,
        "window_ratio": frac(rep.window_ratio),
        "window_ratio_ok": rep.window_ratio_ok,
        "all_divisors_one": rep.all_divisors_one,
        "all_nonzero_means_match": rep.all_nonzero_means_match,
        "all_extractions_beat": rep.all_extractions_beat,
        "trial_results": [
            {
                "m": t.m,
                "extraction_size": t.extraction_size,
                "beats_two_sevenths": t.beats_two_sevenths,
                "nonzero_mean_matches_formula": t.nonzero_mean_matches_formula,
            }
            for t in rep.trial_results
        ],
    }


def tightness_to_dict(rep: TightnessReport) -> dict:
    return {
        "p": rep.p,
        "s": rep.s,
        "m": rep.m,
        "bound": rep.bound,
        "oracle_max": rep.oracle_max,
        "witness_indices": list(rep.witness.indices),
        "two_sevenths_of_m_plus_1": frac(rep.two_sevenths_of_m_plus_1),
        "matched": rep.matched,
    }


def inequality_rows_to_csv(rows: list[InequalityRow]) -> str:
    lines = ["n,d,ratio_1,ratio_2,lhs,passes"]
    for r in rows:
        lines.append(
            f"{r.n},{r.d},{r.ratio_1},{r.ratio_2},{r.lhs},"
            f"{'true' if r.passes else 'false'}"
        )
    return "\n".join(lines) + "\n"
