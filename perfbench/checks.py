"""Output checks, made with Python integers and independent of the program.

`check` returns two lists for a job's first run: problems (the job
failed: unexpected exit code, no report, a report that says it did not
verify) and wrongs (the report claims success but the benchmark's own
check disagrees).  `replay_check` compares what the traced run's spans
saw with the report the untraced run wrote for the same job.
"""

from __future__ import annotations

import json


def _sum_free(values: set, add) -> bool:
    return not any(add(a, b) in values for a in values for b in values)


def _check_ints(expect: dict, rep: dict, problems: list, wrongs: list) -> None:
    values = expect["values"]
    p, k, x, idx = rep["p"], rep["k"], rep["x"], rep["indices"]
    if not rep["verified"]:
        problems.append("report says verified: false")
        return
    if p % 3 != 2 or k != (p - 2) // 3 or p <= 2 * max(abs(b) for b in values):
        wrongs.append(f"prime p={p} does not fit the input")
    hits = [i for i, b in enumerate(values) if k < x * (b % p) % p <= 2 * k + 1]
    if idx != hits or rep["size"] != len(hits):
        wrongs.append("indices are not exactly the inputs the multiplier maps into the band")
    if not _sum_free({values[i] for i in idx}, lambda a, b: a + b):
        wrongs.append("extracted subset is not sum-free")
    if not expect["sampled"] and 3 * rep["size"] <= len(values):
        wrongs.append("exhaustive extraction holds no more than a third of the input")


def _check_extraction(ex: dict, group: dict, wrongs: list) -> None:
    n = group["n"]
    els = [tuple(e) for e in group["elements"]]
    picked = {els[i] for i in ex["indices"]}
    if not _sum_free(picked, lambda a, b: tuple((u + v) % n for u, v in zip(a, b))):
        wrongs.append("extracted subsequence is not sum-free")
    if ex["size"] != len(ex["indices"]):
        wrongs.append("extraction size disagrees with its indices")


def check(job: dict, code: int | None, raised: str | None, data: bytes | None,
          group: dict | None) -> tuple[list[str], list[str]]:
    expect = job["expect"]
    problems: list[str] = []
    wrongs: list[str] = []
    if raised is not None:
        problems.append(f"raised {raised}")
    elif code != expect["code"]:
        problems.append(f"exit code {code}, expected {expect['code']}")
    if job["kind"] == "refusal" or raised is not None:
        return problems, wrongs
    if data is None:
        problems.append("no report written")
        return problems, wrongs
    try:
        rep = json.loads(data)
    except ValueError:
        problems.append("report is not JSON")
        return problems, wrongs
    kind = job["kind"]
    if kind == "ints":
        _check_ints(expect, rep, problems, wrongs)
    elif kind in ("scan", "adjudicate"):
        ex = rep["extraction"]
        if not ex["verified_sum_free"]:
            problems.append("report says verified_sum_free: false")
        _check_extraction(ex, group, wrongs)
        if kind == "adjudicate":
            if not (rep["full_mean_matches_expected_1"] and rep["full_mean_matches_expected_2"]):
                problems.append("full mean does not match the expected count")
            best = (rep["max_count_1"], rep["max_count_2"])
        else:
            best = (rep["best_count_1"], rep["best_count_2"])
        if ex["size"] != best[ex["window_index"] - 1]:
            wrongs.append("extraction size is not the chosen window's best count")
    elif kind == "search":
        if rep["findings"]:
            problems.append(f"{len(rep['findings'])} finding(s)")
        for key in ("instances", "oracle_checked"):
            if rep[key] != expect[key]:
                wrongs.append(f"{key} {rep[key]}, expected {expect[key]}")
        if rep["query"]["mode"] == "exhaustive" and not rep["complete"]:
            wrongs.append("exhaustive search not complete")
    return problems, wrongs


def replay_check(job: dict, data: bytes | None, notes: dict[str, list]) -> list[str]:
    """Mismatches between the spans of a traced job and its untraced report.

    notes maps span name to the notes recorded under this job."""
    if data is None:
        return []
    rep = json.loads(data)
    out = []

    def same(label, seen, want):
        if seen != want:
            out.append(f"replay {label}: spans saw {seen}, report has {want}")

    kind = job["kind"]
    if kind == "ints":
        same("p", [n["p"] for n in notes.get("integers.choose_prime", [])], [rep["p"]])
        same("x/size", [(n["x"], n["count"]) for n in notes.get("integers.best_column", [])],
             [(rep["x"], rep["size"])])
    elif kind in ("scan", "adjudicate"):
        scans = notes.get("scanner.full_scan", [])
        if kind == "scan":
            want = [rep["best_x_1"], rep["best_count_1"], rep["best_x_2"], rep["best_count_2"]]
            same("best", [n["best"] for n in scans], [want])
        else:
            same("best counts", [(n["best"][1], n["best"][3]) for n in scans],
                 [(rep["max_count_1"], rep["max_count_2"])])
        same("extraction size", [n["size"] for n in notes.get("scanner.extract_sum_free_group", [])],
             [rep["extraction"]["size"]])
    elif kind == "search":
        same("instances/oracle", [(n["instances"], n["oracle_checked"])
                                  for n in notes.get("adjudicate.counterexample_search", [])],
             [(rep["instances"], rep["oracle_checked"])])
        same("oracle calls", len(notes.get("oracle.max_sum_free", [])), rep["oracle_checked"])
    return out
