"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Generates the workload's inputs
from the seed, times set-up in fresh interpreters, runs the job list in
perfbench/worker.py and prints, as the last line of stdout, one JSON
object with the metrics BENCHMARK.json lists: the end-to-end ones with
--trace 0, the per-layer ones with --trace 1.  A human-readable table,
the run's facts and every failed check go to stderr; the full record
(per-job exit codes, report sha256, check results) is written to
perfbench/out/.  Exits 1 without a result when the program is missing
or a worker fails.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import stats
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: Set-up is timed this many times: in ready-only interpreters, plus the worker itself.
SETUP_PROBES = 7
#: Seconds a worker may run beyond --seconds before it is killed.
GRACE_S = 120


def spawn(args: list[str], timeout: float) -> float:
    """Run the worker; return seconds from launch until it printed "ready"."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            line = proc.stdout.readline()
            ready = perf_counter() - t0
            proc.stdout.read()
            proc.wait()
        finally:
            timer.cancel()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode} before finishing")
    return ready


def version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.exists():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def facts(workload: str, seed: int, seconds: float, trace: int) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sumfreelab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "why": workloads.WHY[workload], "seed": seed,
        "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": version("numpy"), "scipy": version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "commit": commit(), "src_sha256": src.hexdigest(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    work.mkdir()
    try:
        jobs = workloads.generate(workload, seed, work)
        jobs_path, result_path = work / "jobs.json", work / "result.json"
        jobs_path.write_text(json.dumps(jobs))
        args = [str(jobs_path), str(result_path), "--seconds", str(seconds), "--trace", str(trace)]
        setups = [spawn(args + ["--ready-only"], GRACE_S) for _ in range(SETUP_PROBES)]
        setups.append(spawn(args, seconds + GRACE_S))
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = result["passes"]
    plain = [p for p in passes if not p["traced"] and not p["warmup"]]
    # A job's latency is the median over the untraced passes, which keeps
    # a burst of load on the shared machine from setting the tail.
    latencies = [statistics.median(runs) for runs in zip(*(p["latencies"] for p in plain))]
    statuses = [s for p in passes for s in p["statuses"]]
    tail_s, tail_label, n = stats.tail(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median([p["wall_s"] for p in plain]),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail_s,
        "peak_rss_mib": result["maxrss_kib"] / 1024,
        "ok_ratio": 1 - stats.fail_ratio(statuses),
    }
    if trace:
        traced = [p for p in passes if p["traced"]]
        values = {k: statistics.median([p["layers"][k] for p in traced]) for k in traced[0]["layers"]}
        values["jsonio.report_bytes"] = statistics.median([p["report_bytes"] for p in traced])
        values["trace.overhead_ratio"] = (statistics.median([p["wall_s"] for p in traced])
                                          / statistics.median([p["wall_s"] for p in plain]))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    jobs_rec = result["jobs"]
    summary = {
        "correct": all(s != stats.WRONG for s in statuses),
        "attempted": len(statuses),
        "failed": sum(s != stats.OK for s in statuses),
        "metrics": metrics,
    }
    record = {
        "facts": facts(workload, seed, seconds, trace),
        "passes": {"untraced": len(plain), "traced": sum(p["traced"] for p in passes),
                   "wall_s": [(p["traced"], p["wall_s"]) for p in passes]},
        "samples": {"wall_s": f"median of {len(plain)} passes",
                    "job_p50_s": f"median of {n} jobs, each the median of {len(plain)} runs",
                    "job_tail_s": f"{tail_label} of {n} jobs, each the median of {len(plain)} runs",
                    "setup_s": f"median of {len(setups)} set-ups"},
        "setup_s": setups,
        "jobs": jobs_rec,
        "result": summary,
    }
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    report(record)
    return summary


def report(record: dict) -> None:
    f, res = record["facts"], record["result"]
    say = functools.partial(print, file=sys.stderr)
    say(f"== {f['workload']}  seed {f['seed']}  trace {f['trace']}  "
        f"(warm-up + {record['passes']['untraced']} untraced + {record['passes']['traced']} traced passes)")
    say(f"   why: {f['why']}")
    say(f"   facts: nproc {f['nproc']}, python {f['python']}, numpy {f['numpy']}, scipy {f['scipy']}, "
        f"numba importable {f['numba_importable']}, commit {f['commit']}, src {f['src_sha256'][:12]}")
    for name, m in res["metrics"].items():
        note = record["samples"].get(name, "")
        say(f"   {name:<44} {m['value']:>14.6g} {m['unit']:<6} {note}")
    jobs = record["jobs"]
    counts = {s: sum(j["status"] == s for j in jobs.values()) for s in (stats.OK, stats.FAILED, stats.WRONG)}
    say(f"   output checks: {counts[stats.OK]} jobs ok, {counts[stats.FAILED]} failed, "
        f"{counts[stats.WRONG]} wrong; correct={res['correct']} "
        f"attempted={res['attempted']} failed={res['failed']} "
        f"fail_ratio={res['failed'] / res['attempted']:.4g}")
    for jid, j in jobs.items():
        if j["status"] != stats.OK:
            cause = "; ".join(j["wrong"] + j["problems"])
            say(f"   {j['status'].upper():<6} {jid}: {cause}")
            if j["defect"]:
                say(f"          known defect, {j['defect']}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.GENERATORS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "sumfreelab" / "cli.py").exists():
        print(f"error: no sumfreelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, spec) for w in names}
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
