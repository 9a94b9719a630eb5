"""Canonical JSON and CSV forms for every report the toolkit emits.

This is the only module that knows the wire format.  One field-driven
encoder writes every report: a dataclass as an object of its fields, a
tuple as a list and a `Fraction` as {"num", "den"} in lowest terms.
Each report is a record: `schema` (always `SCHEMA`), a `kind` for all
but the integer witness, and the encoded fields of its dataclass.  The
few keys that are not plain fields (the scans' per-window `<stat>_<j>`
keys, the tightness witness) are renamed here and nowhere else.

Serialization rules: keys sorted, two-space indent, trailing newline,
no floats and no environment-dependent fields, so reruns are
byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import fields
from fractions import Fraction
from typing import Any, Iterable

from .adjudicate import AdjudicationRecord, PrimeCaseReport, SearchResult
from .extremal import TightnessReport
from .groups import GroupSequence, GroupSpec
from .integers import IntegerExtraction
from .scanner import GroupExtraction, InequalityRow, ScanReport, WindowStats

SCHEMA = 1


def _encode(value: Any) -> Any:
    """A report value as JSON data: dataclasses by field, tuples as lists."""
    if value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return _encode(_fields(value))


def _fields(obj: Any, *omit: str) -> dict:
    """A dataclass's fields by name, without those in `omit`."""
    return {f.name: getattr(obj, f.name) for f in fields(obj) if f.name not in omit}


def _record(**values: Any) -> dict:
    return _encode({"schema": SCHEMA, **values})


def _numbered(stem: str, values: Iterable[Any]) -> dict:
    """`<stem>_<j>` keys for a per-window sequence, j counting from 1."""
    return {f"{stem}_{j}": v for j, v in enumerate(values, start=1)}


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def load_group_sequence(text: str) -> GroupSequence:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("group file must hold a JSON object")
    # JSON true/false load as bool, a subclass of int, so they are refused by type.
    schema = data.get("schema")
    if type(schema) is not int or schema != SCHEMA:
        raise ValueError(f"unsupported schema {schema!r}")
    for key in ("n", "s", "elements"):
        if key not in data:
            raise ValueError(f"group file missing {key!r}")
    n, s = data["n"], data["s"]
    if type(n) is not int or type(s) is not int:
        raise ValueError("n and s must be integers")
    elements = data["elements"]
    if not isinstance(elements, list) or not all(isinstance(e, list) for e in elements):
        raise ValueError("elements must be a list of coordinate lists")
    spec = GroupSpec(n, s)
    return GroupSequence(spec, tuple(tuple(e) for e in elements))


def integer_extraction_to_dict(e: IntegerExtraction) -> dict:
    """The flat integer witness record: prime, multiplier and positions."""
    return _record(p=e.choice.p, k=e.choice.k, x=e.column.x, indices=e.indices,
                   size=e.size, verified=e.verified)


#: Per-window keys as (JSON key stem, WindowStats field): window j's
#: statistic goes under `<stem>_<j>`.  Scan reports write every field.
_SCAN_WINDOW_KEYS = tuple((f.name, f.name) for f in fields(WindowStats))
_ADJUDICATION_WINDOW_KEYS = (
    ("expected_count", "expected_count"), ("mean_full", "mean_full"),
    ("mean_nonzero", "mean_nonzero"), ("max_count", "best_count"), ("histogram", "histogram"),
)


def _scan_keys(r: ScanReport, table: tuple[tuple[str, str], ...], *omit: str) -> dict:
    """A scan's own fields, its divisor profile and its per-window keys."""
    out = _fields(r, "profile", "windows", *omit)
    out["divisor_profile"] = r.profile.pairs
    for key, stat in table:
        out.update(_numbered(key, (getattr(w, stat) for w in r.windows)))
    return out


def scan_report_to_dict(r: ScanReport, extraction: GroupExtraction | None = None) -> dict:
    out = _record(kind="scan", **_scan_keys(r, _SCAN_WINDOW_KEYS))
    if extraction is not None:
        out["extraction"] = _encode(extraction)
    return out


def adjudication_to_dict(rec: AdjudicationRecord) -> dict:
    # An adjudication always scans exhaustively, so it omits the sampling fields.
    return _record(
        kind="adjudication",
        **_scan_keys(rec.report, _ADJUDICATION_WINDOW_KEYS, "exhaustive", "sample_size", "seed"),
        **_fields(rec, "report", "full_mean_matches_expected"),
        **_numbered("full_mean_matches_expected", rec.full_mean_matches_expected),
        extraction_beats_two_sevenths=rec.extraction.beats_two_sevenths,
    )


def search_result_to_dict(res: SearchResult) -> dict:
    return _record(kind="search", **_fields(res))


def prime_case_to_dict(rep: PrimeCaseReport) -> dict:
    return _record(kind="prime-case", **_fields(rep))


def tightness_to_dict(rep: TightnessReport) -> dict:
    return _encode({**_fields(rep, "witness"), "witness_indices": rep.witness.indices})


def extremal_to_dict(p: int, s: int, bound: int, density: Fraction,
                     tightness: TightnessReport | None) -> dict:
    """The extremal size and density of Z_p^s, with the Z_7 certificate if run."""
    return _record(kind="extremal", p=p, s=s, bound=bound, density=density,
                   tightness=None if tightness is None else tightness_to_dict(tightness))


def inequality_rows_to_csv(rows: list[InequalityRow]) -> str:
    lines = ["n,d,ratio_1,ratio_2,lhs,passes"]
    for r in rows:
        lines.append(
            f"{r.n},{r.d},{r.ratio_1},{r.ratio_2},{r.lhs},"
            f"{'true' if r.passes else 'false'}"
        )
    return "\n".join(lines) + "\n"
