"""The benchmark's workloads: fixed job lists generated from a seed.

A job is one command a user would type, as CLI argv, with its inputs
written to files under the run's work directory and its report sent to
a file there with -o.  Each job also says what a correct outcome looks
like, for perfbench/checks.py.  All workloads are closed loops
with one client; only the --workers 2 scan uses a second thread.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

#: One line per workload: why it is in the benchmark.
WHY = {
    "integers": "extract-integers: small criterion-01 jobs set job_p50_s, m 500-2000 jobs set "
                "job_tail_s; sampled huge-|b| jobs and a refusal keep ROADMAP item 2 visible",
    "group-scan": "Z_11^6 scans at 1 and 2 workers, a sampled Z_4000^2 scan and an adjudication: "
                  "the scanner block kernel, merge and parallel path",
    "search": "counterexample searches: per-instance full_scan and window overhead (criterion 07) "
              "and the exact oracle (random Z_12^2, m=20)",
}

#: The sampled integer jobs and the search oracle jobs use this fixed
#: seed rather than the workload seed; see their generators for why.
PINNED_SEED = 20260818

#: Known defects of the program that some jobs are expected to hit.
OVERFLOW = ("ROADMAP item 2: best_column(sample=...) computes x*r % p in int64, "
            "which overflows once p > ~3.04e9")
NO_CAP = ("ROADMAP item 2: exhaustive extract-integers has no cap, so np.zeros(p) "
          "raises instead of a clean refusal with exit 2")


def _write_ints(path: Path, values: list[int]) -> None:
    path.write_text("".join(f"{v}\n" for v in values))


def _write_group(path: Path, n: int, s: int, elements: list[tuple[int, ...]]) -> None:
    path.write_text(json.dumps({"schema": 1, "n": n, "s": s, "elements": [list(e) for e in elements]}))


def _random_elements(rng: random.Random, n: int, s: int, m: int) -> list[tuple[int, ...]]:
    out = []
    while len(out) < m:
        e = tuple(rng.randrange(n) for _ in range(s))
        if any(e):
            out.append(e)
    return out


def _job(work: Path, jid: str, argv: list[str], kind: str, code: int = 0, **expect) -> dict:
    out = str(work / f"{jid}.out")
    return {"id": jid, "kind": kind, "argv": argv + ["-o", out], "out": out,
            "expect": {"code": code, **expect}}


def criterion01_instance(rng: random.Random) -> list[int]:
    """One input of acceptance criterion 01: length 1-24, magnitudes up to
    1e6 on a log-uniform scale, mixed signs, ~10% repeated entries."""
    m = rng.randint(1, 24)
    vals: list[int] = []
    for _ in range(m):
        if vals and rng.random() < 0.1:
            vals.append(rng.choice(vals))
            continue
        vals.append(rng.choice([-1, 1]) * rng.randint(1, 10 ** rng.randint(1, 6)))
    return vals


def stratified(rng: random.Random, pool: list, cost, k: int) -> list:
    """k draws from pool, one from each of k equal cost strata.

    The draws follow the pool's distribution, but every seed gets the
    same cost quantiles, so the job list's total work barely varies
    between seeds."""
    ranked = sorted(pool, key=cost)
    size = len(ranked) // k
    return [rng.choice(ranked[i * size:(i + 1) * size]) for i in range(k)]


def _signed(rng: random.Random, lo: int, hi: int) -> int:
    return rng.choice([-1, 1]) * rng.randint(lo, hi)


def integers(rng: random.Random, work: Path) -> list[dict]:
    jobs = []

    def add(jid, values, extra, kind="ints", **expect):
        path = work / f"{jid}.txt"
        _write_ints(path, values)
        jobs.append(_job(work, jid, ["extract-integers", str(path)] + extra, kind,
                         values=values, sampled=bool(extra), **expect))

    # Small exhaustive jobs drawn from criterion 01.  Exhaustive cost is
    # m * p with p ~ 2 max|b|, so stratify on m * max|b|.  The cost
    # distribution is lumpy (magnitudes come in decades), so the pool
    # must be large for its strata to stay put between seeds.
    pool = [criterion01_instance(rng) for _ in range(30 * 400)]
    for i, values in enumerate(stratified(rng, pool, lambda v: len(v) * max(abs(b) for b in v), 30)):
        add(f"c01-{i:02d}", values, [])
    # Exhaustive, large m at p ~ 2e5: where the m*p kernel meets p log p.
    for m in (500, 1250, 2000):
        values = [_signed(rng, 1, 10**5) for _ in range(m)]
        add(f"wide-m{m}", values, [])
    # Sampled, two inputs per decade of max|b| from 1e9 to 1e15.  Above
    # ~1.5e9 about half of all inputs hit the int64 overflow, at random;
    # drawn from the workload seed, their failure count (and so ok_ratio)
    # would swing by several jobs between seeds, so they are pinned.
    pinned = random.Random(PINNED_SEED)
    for d in range(9, 16):
        for j in range(2):
            values = [_signed(pinned, 1, 10**d) for _ in range(24)]
            add(f"sampled-1e{d}-{j}", values, ["--sample", "20000", "--seed", str(d * 10 + j)],
                defect=OVERFLOW)
    # Exhaustive at |b| ~ 2e13: the right outcome is a refusal with exit 2.
    # Above 1.76e13, np.zeros(p) asks for more than the 128 TiB address
    # space and fails at once under any overcommit policy, so the job
    # can never touch memory.  (Exhaustive p in ~1e8..3e9 could allocate
    # lazily and exhaust RAM, so no job uses that range.)
    values = [_signed(rng, 18 * 10**12, 2 * 10**13)] + [_signed(rng, 1, 10**13) for _ in range(23)]
    add("refuse-2e13", values, [], kind="refusal", code=2, defect=NO_CAP)
    return jobs


def group_scan(rng: random.Random, work: Path) -> list[dict]:
    big = work / "z11-6.json"
    _write_group(big, 11, 6, _random_elements(rng, 11, 6, 100))
    wide = work / "z4000-2.json"
    _write_group(wide, 4000, 2, _random_elements(rng, 4000, 2, 50))
    mid = work / "z11-5.json"
    _write_group(mid, 11, 5, _random_elements(rng, 11, 5, 60))
    return [
        _job(work, "scan-w1", ["scan", str(big), "--workers", "1"], "scan"),
        _job(work, "scan-w2", ["scan", str(big), "--workers", "2"], "scan", same_as="scan-w1"),
        _job(work, "scan-sampled", ["scan", str(wide), "--sample", "200000",
                                    "--seed", str(rng.randrange(10**6))], "scan"),
        _job(work, "adjudicate", ["adjudicate", str(mid), "--id", "mid"], "adjudicate"),
    ]


def search(rng: random.Random, work: Path) -> list[dict]:
    def cmd(n, s, m, mode, extra):
        return ["search", "--n", str(n), "--s", str(s), "--m", str(m), "--mode", mode] + extra

    jobs = [
        # Criterion 07: overhead-bound, every instance also goes to the oracle.
        _job(work, "z7-m6", cmd(7, 1, 6, "exhaustive", []), "search",
             instances=923, oracle_checked=923),
        _job(work, "z8-m5", cmd(8, 1, 5, "exhaustive", []), "search",
             instances=791, oracle_checked=791),
    ]
    # Oracle-bound: max_sum_free at m = 20 is ~95% of the time.  Its time
    # per instance varies with a coefficient of variation of ~0.75, so 60
    # instances drawn from the workload seed would move wall_s by ~6%
    # between seeds; the two jobs keep fixed search seeds instead.
    for j in range(2):
        jobs.append(_job(work, f"z12x2-m20-{j}",
                         cmd(12, 2, 20, "random", ["--budget", "30", "--seed", str(PINNED_SEED + j)]),
                         "search", instances=30, oracle_checked=30))
    # Above the 24-entry oracle limit: scan-only, from the workload seed.
    for j in range(3):
        jobs.append(_job(work, f"z10x2-m30-{j}",
                         cmd(10, 2, 30, "random", ["--budget", "100", "--seed", str(rng.randrange(10**6))]),
                         "search", instances=100, oracle_checked=0))
    return jobs


GENERATORS = {"integers": integers, "group-scan": group_scan, "search": search}


def generate(workload: str, seed: int, work: Path) -> list[dict]:
    """Write the inputs of `workload` for `seed` under `work`; return its jobs."""
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, work)
