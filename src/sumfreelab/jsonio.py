"""Canonical JSON and CSV forms for every report the toolkit emits.

Serialization rules: keys sorted, two-space indent, trailing newline,
rationals as {"num", "den"} in lowest terms, no floats and no
environment-dependent fields, so reruns are byte-identical.
"""

from __future__ import annotations

import json
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
from .scanner import GroupExtraction, InequalityRow, ScanReport

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
        "expected_count_1": frac(r.expected_count_1),
        "expected_count_2": frac(r.expected_count_2),
        "grand_total_1": r.grand_total_1,
        "grand_total_2": r.grand_total_2,
        "mean_full_1": frac(r.mean_full_1),
        "mean_full_2": frac(r.mean_full_2),
        "mean_nonzero_1": frac(r.mean_nonzero_1),
        "mean_nonzero_2": frac(r.mean_nonzero_2),
        "sample_mean_1": frac(r.sample_mean_1),
        "sample_mean_2": frac(r.sample_mean_2),
        "row_totals_1": list(r.row_totals_1),
        "row_totals_2": list(r.row_totals_2),
        "best_x_1": list(r.best_x_1),
        "best_count_1": r.best_count_1,
        "best_x_2": list(r.best_x_2),
        "best_count_2": r.best_count_2,
        "histogram_1": list(r.histogram_1),
        "histogram_2": list(r.histogram_2),
        "zero_column_count_1": r.zero_column_count_1,
        "zero_column_count_2": r.zero_column_count_2,
    }
    if extraction is not None:
        out["extraction"] = extraction_to_dict(extraction)
    return out


def adjudication_to_dict(rec: AdjudicationRecord) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "adjudication",
        "instance_id": rec.instance_id,
        "n": rec.n,
        "s": rec.s,
        "m": rec.m,
        "divisor_profile": [list(p) for p in rec.profile.pairs],
        "expected_count_1": frac(rec.expected_count_1),
        "expected_count_2": frac(rec.expected_count_2),
        "mean_full_1": frac(rec.mean_full_1),
        "mean_full_2": frac(rec.mean_full_2),
        "mean_nonzero_1": frac(rec.mean_nonzero_1),
        "mean_nonzero_2": frac(rec.mean_nonzero_2),
        "divisor_range_bound": frac(rec.divisor_range_bound),
        "divisor_range_bound_limit": frac(rec.divisor_range_bound_limit),
        "max_count_1": rec.max_count_1,
        "max_count_2": rec.max_count_2,
        "histogram_1": list(rec.histogram_1),
        "histogram_2": list(rec.histogram_2),
        "extraction": extraction_to_dict(rec.extraction),
        "full_mean_matches_expected_1": rec.full_mean_matches_expected_1,
        "full_mean_matches_expected_2": rec.full_mean_matches_expected_2,
        "some_column_beats_expected_1": rec.some_column_beats_expected_1,
        "extraction_beats_two_sevenths": rec.extraction_beats_two_sevenths,
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
