"""Command line front end.

Exit codes: 0 clean run, 1 a finding (failed verification, a falsified
inequality row, a counterexample candidate, an internal invariant
violation), 2 bad input or usage.  All report bytes go to stdout or the
-o file; anything meant for humans goes to stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import jsonio
from .adjudicate import (
    CounterexampleQuery,
    adjudicate,
    counterexample_search,
    prime_case_check,
)
from .extremal import density, rhemtulla_street_bound, tightness_instance
from .integers import extract_sum_free_subset, parse_integer_lines
from .scanner import (
    DEFAULT_SCAN_CAP,
    extract_sum_free_group,
    full_scan,
    verify_report,
    weighted_inequality_sweep,
)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def cmd_extract_integers(args: argparse.Namespace) -> int:
    if args.input == "-":
        lines = sys.stdin.read().splitlines()
    else:
        lines = Path(args.input).read_text().splitlines()
    values = parse_integer_lines(lines)
    extraction = extract_sum_free_subset(values, sample=args.sample, seed=args.seed)
    _emit(jsonio.dumps(extraction.to_record()), args.output)
    if not extraction.verified:
        print("extraction failed verification", file=sys.stderr)
        return 1
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    seq = jsonio.load_group_sequence(Path(args.group).read_text())
    report = full_scan(
        seq,
        workers=args.workers,
        cap=args.cap,
        sample=args.sample,
        seed=args.seed,
    )
    extraction = extract_sum_free_group(seq, report)
    _emit(jsonio.dumps(jsonio.scan_report_to_dict(report, extraction)), args.output)
    problems = verify_report(report, seq)
    if not extraction.verified_sum_free:
        problems.append("extracted subsequence failed the sum-free oracle")
    if problems:
        for p in problems:
            print(f"invariant violation: {p}", file=sys.stderr)
        return 1
    return 0


def cmd_inequality(args: argparse.Namespace) -> int:
    rows = weighted_inequality_sweep(args.max_n)
    _emit(jsonio.inequality_rows_to_csv(rows), args.output)
    failures = [r for r in rows if not r.passes]
    if failures:
        for r in failures:
            print(f"inequality fails at n={r.n}, d={r.d}: {r.lhs} < 2/7", file=sys.stderr)
        return 1
    return 0


def cmd_adjudicate(args: argparse.Namespace) -> int:
    seq = jsonio.load_group_sequence(Path(args.group).read_text())
    instance_id = args.id if args.id is not None else Path(args.group).stem
    record = adjudicate(seq, instance_id, workers=args.workers)
    _emit(jsonio.dumps(jsonio.adjudication_to_dict(record)), args.output)
    problems = [
        f"window-{j} full mean broke its identity"
        for j, ok in enumerate(record.full_mean_matches_expected, start=1)
        if not ok
    ]
    if not record.extraction.verified_sum_free:
        problems.append("extracted subsequence failed the sum-free oracle")
    if problems:
        for p in problems:
            print(f"invariant violation: {p}", file=sys.stderr)
        return 1
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    budget = args.budget
    if budget is None:
        if args.mode == "random":
            raise ValueError("random mode requires --budget")
        budget = 1_000_000
    query = CounterexampleQuery(
        n=args.n, s=args.s, m=args.m, mode=args.mode, budget=budget, seed=args.seed
    )
    result = counterexample_search(query)
    _emit(jsonio.dumps(jsonio.search_result_to_dict(result)), args.output)
    if result.findings:
        print(f"{len(result.findings)} finding(s) recorded", file=sys.stderr)
        return 1
    return 0


def cmd_prime_case(args: argparse.Namespace) -> int:
    report = prime_case_check(
        args.p, args.s, trials=args.trials, seed=args.seed, m_max=args.m_max
    )
    _emit(jsonio.dumps(jsonio.prime_case_to_dict(report)), args.output)
    ok = (
        report.window_ratio_ok
        and report.all_divisors_one
        and report.all_nonzero_means_match
        and report.all_extractions_beat
    )
    if not ok:
        print("prime-case check failed", file=sys.stderr)
        return 1
    return 0


def cmd_extremal(args: argparse.Namespace) -> int:
    bound = rhemtulla_street_bound(args.p, args.s)
    out = {
        "schema": jsonio.SCHEMA,
        "kind": "extremal",
        "p": args.p,
        "s": args.s,
        "bound": bound,
        "density": jsonio.frac(density(args.p, args.s)),
        "tightness": None,
    }
    code = 0
    if (args.p, args.s) == (7, 1):
        tight = tightness_instance()
        out["tightness"] = jsonio.tightness_to_dict(tight)
        if not tight.matched:
            code = 1
    _emit(jsonio.dumps(out), args.output)
    if code:
        print("tightness instance failed to match", file=sys.stderr)
    return code


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--output", help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumfreelab",
        description="Sum-free subset extraction and exact window statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "extract-integers",
        help="extract a sum-free subset of more than a third of the input integers",
    )
    p.add_argument("input", help="text file, one integer per line ('-' for stdin)")
    p.add_argument("--sample", type=int, help="scan only this many random multipliers")
    p.add_argument("--seed", type=int, help="seed for --sample")
    _add_output(p)
    p.set_defaults(func=cmd_extract_integers)

    p = sub.add_parser("scan", help="exhaustive multiplier scan of a group sequence")
    p.add_argument("group", help="group sequence JSON file")
    p.add_argument("--workers", type=int, default=1, help="thread count (default 1)")
    p.add_argument("--cap", type=int, default=DEFAULT_SCAN_CAP,
                   help="largest group order scanned exhaustively")
    p.add_argument("--sample", type=int, help="scan only this many random multipliers")
    p.add_argument("--seed", type=int, help="seed for --sample")
    _add_output(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("inequality", help="weighted window-density inequality sweep")
    p.add_argument("--max-n", type=int, required=True, help="check all moduli up to this")
    _add_output(p)
    p.set_defaults(func=cmd_inequality)

    p = sub.add_parser("adjudicate", help="report both readings of the averaging step")
    p.add_argument("group", help="group sequence JSON file")
    p.add_argument("--id", help="instance id for the record (default: file stem)")
    p.add_argument("--workers", type=int, default=1, help="thread count (default 1)")
    _add_output(p)
    p.set_defaults(func=cmd_adjudicate)

    p = sub.add_parser("search", help="hunt for instances at or below the 2/7 density")
    p.add_argument("--n", type=int, required=True, help="modulus")
    p.add_argument("--s", type=int, required=True, help="rank")
    p.add_argument("--m", type=int, required=True, help="target sequence length")
    p.add_argument("--mode", choices=["exhaustive", "random"], required=True)
    p.add_argument("--budget", type=int,
                   help="instance cap (exhaustive) or trial count (random)")
    p.add_argument("--seed", type=int, help="seed, required for random mode")
    _add_output(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("prime-case", help="verify the prime-modulus specialization")
    p.add_argument("--p", type=int, required=True, help="prime modulus")
    p.add_argument("--s", type=int, required=True, help="rank")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--m-max", type=int, default=30, help="largest random length")
    _add_output(p)
    p.set_defaults(func=cmd_prime_case)

    p = sub.add_parser("extremal", help="classical extremal bound and Z_7 tightness")
    p.add_argument("p", type=int)
    p.add_argument("s", type=int)
    _add_output(p)
    p.set_defaults(func=cmd_extremal)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
