"""Runs one workload's job list in a fresh interpreter.

    python3 perfbench/worker.py JOBS.json RESULT.json --seconds S --trace 0|1 [--ready-only]

Prints "ready" once sumfreelab is imported and the job list is loaded
(the end of set-up), then runs the job list in passes, each job one
in-process call of sumfreelab.cli.main: one untimed warm-up pass, then
timed passes until the next would end after S seconds.  With --trace 1
timed passes alternate between untraced and traced (see spans.py).  Writes per-job records, pass times and per-layer
numbers to RESULT.json.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import sys
import traceback
from contextlib import nullcontext, redirect_stderr
from pathlib import Path
from time import perf_counter

import checks
import spans
import stats

ROOT = Path(__file__).resolve().parents[1]


def load_program():
    sys.path.insert(0, str(ROOT / "src"))
    from sumfreelab import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"sumfreelab imported from {cli.__file__}, not from {ROOT / 'src'}")
    return cli


def run_job(cli, job: dict, tracer) -> tuple[float, int | None, str | None, bytes | None, str]:
    """(latency, exit code, exception raised, report bytes, stderr text)."""
    out = Path(job["out"])
    out.unlink(missing_ok=True)
    err = io.StringIO()
    code = raised = None
    t0 = perf_counter()
    try:
        with redirect_stderr(err):
            if tracer is None:
                code = cli.main(job["argv"])
            else:
                tracer.job = job["id"]
                code = tracer.call("cli.main", cli.main, (job["argv"],), {})
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a job that raises is recorded as failed, never aborts the run
        raised = "".join(traceback.format_exception_only(exc)).strip()
    latency = perf_counter() - t0
    data = out.read_bytes() if out.exists() else None
    return latency, code, raised, data, err.getvalue()


def first_record(job: dict, code, raised, data, err, first: dict) -> dict:
    """Check a job's first run and start its record."""
    group = json.loads(Path(job["argv"][1]).read_text()) if job["kind"] in ("scan", "adjudicate") else None
    problems, wrongs = checks.check(job, code, raised, data, group)
    ref = job["expect"].get("same_as")
    if ref and first[ref]["sha256"] != sha256(data):
        wrongs.append(f"report differs from {ref}'s")
    return {
        "argv": job["argv"], "code": code, "raised": raised, "sha256": sha256(data),
        "bytes": len(data) if data is not None else 0, "stderr": err.strip()[-300:],
        "problems": problems, "wrong": wrongs, "defect": job["expect"].get("defect"),
        "status": stats.job_status(job["expect"]["code"], code, raised, problems, wrongs),
    }


def sha256(data: bytes | None) -> str | None:
    return hashlib.sha256(data).hexdigest() if data is not None else None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("jobs")
    ap.add_argument("result")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--ready-only", action="store_true")
    args = ap.parse_args(argv)

    cli = load_program()
    jobs = json.loads(Path(args.jobs).read_text())
    print("ready", flush=True)
    if args.ready_only:
        return 0

    first: dict[str, dict] = {}
    passes: list[dict] = []

    def run_pass(traced: bool, warmup: bool = False) -> None:
        tracer = spans.Tracer() if traced else None
        t0 = perf_counter()
        with spans.instrument(tracer) if traced else nullcontext():
            results = [run_job(cli, job, tracer) for job in jobs]
        wall = perf_counter() - t0
        layers = spans.layer_totals(tracer.spans) if traced else {}
        for job, (_, code, raised, data, err) in zip(jobs, results):
            if job["id"] not in first:
                first[job["id"]] = first_record(job, code, raised, data, err, first)
            rec = first[job["id"]]
            mismatch = []
            if (code, raised, sha256(data)) != (rec["code"], rec["raised"], rec["sha256"]):
                mismatch.append(f"rerun gave exit {code}, {raised}, sha256 {sha256(data)}")
            if traced:
                notes = {name: [n for j, _, _, n in row["notes"] if j == job["id"] and n is not None]
                         for name, row in layers.items()}
                mismatch += checks.replay_check(job, data, notes)
            if mismatch:
                rec["wrong"] += mismatch
                rec["status"] = stats.WRONG
        passes.append({
            "traced": traced, "warmup": warmup, "wall_s": wall,
            "latencies": [r[0] for r in results],
            "statuses": [first[job["id"]]["status"] for job in jobs],
            "report_bytes": sum(len(r[3]) for r in results if r[3] is not None),
            "layers": per_layer(layers) if traced else None,
        })

    # The first pass is checked and counted but not timed: it pays for
    # lazy initialisation and first-touch page faults that later passes
    # do not, and would otherwise weigh on runs that fit fewer passes.
    start = perf_counter()
    run_pass(traced=False, warmup=True)
    # Later passes reuse a heap that glibc has grown and fragmented, so
    # the peak is read here, independent of how many passes fit the run.
    maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    modes = [False, True] if args.trace else [False]
    while True:
        for traced in modes:
            run_pass(traced)
        cycle = sum(p["wall_s"] for p in passes[-len(modes):])
        if perf_counter() - start + cycle > args.seconds:
            break

    Path(args.result).write_text(json.dumps({"passes": passes, "jobs": first, "maxrss_kib": maxrss_kib}))
    return 0


def per_layer(layers: dict) -> dict:
    """One traced pass's per-layer numbers (names as in BENCHMARK.json)."""
    def row(name):
        return layers.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "notes": []})

    def notes(name):
        return [n for _, _, _, n in row(name)["notes"] if n is not None]

    out = {}
    for name in ("integers.best_column", "integers.choose_prime", "integers.extract",
                 "primes.next_prime_2_mod_3", "oracle.is_sum_free", "oracle.max_sum_free",
                 "groups.windows", "groups.GroupSequence", "scanner.full_scan",
                 "scanner.sampled_scan", "scanner.divisor_profile", "scanner.expected_counts",
                 "scanner.verify_report", "scanner.extract_sum_free_group",
                 "adjudicate.counterexample_search", "adjudicate.adjudicate", "jsonio.dumps",
                 "jsonio.load_group_sequence", "cli.main"):
        out[f"{name}.self_s"] = row(name)["self_s"]

    bc = row("integers.best_column")
    cells = sum(n["cells"] for n in notes("integers.best_column"))
    out["integers.best_column.cells"] = cells
    out["integers.best_column.cells_per_s"] = stats.ratio(cells, bc["self_s"])
    out["integers.best_column.peak_mib"] = max((n["peak_mib"] for n in notes("integers.best_column")),
                                               default=0.0)
    out["integers.extract.unverified"] = sum(not n["verified"] for n in notes("integers.extract"))
    out["oracle.max_sum_free.calls"] = row("oracle.max_sum_free")["calls"]

    scans = [(j, total, own, n) for j, total, own, n in row("scanner.full_scan")["notes"] if n]
    out["scanner.full_scan.calls"] = row("scanner.full_scan")["calls"]
    out["scanner.full_scan.cells_per_s"] = stats.ratio(
        sum(n["cells"] for _, _, _, n in scans), sum(own for _, _, own, n in scans if n["cells"]))
    by_job = {j: total for j, total, _, n in scans}
    out["scanner.full_scan.parallel_eff"] = (
        stats.parallel_eff(by_job["scan-w1"], by_job["scan-w2"], 2)
        if "scan-w1" in by_job and "scan-w2" in by_job else 0.0)

    searches = notes("adjudicate.counterexample_search")
    instances = sum(n["instances"] for n in searches)
    out["adjudicate.instances_per_s"] = stats.ratio(
        instances, row("adjudicate.counterexample_search")["total_s"])
    out["adjudicate.oracle_checked"] = sum(n["oracle_checked"] for n in searches)
    out["adjudicate.findings"] = sum(n["findings"] for n in searches)
    return out


if __name__ == "__main__":
    sys.exit(main())
