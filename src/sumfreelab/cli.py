"""Command line front end.

Each `cmd_*` function runs one subcommand and returns its report text
and the problems its checks found; `main` alone writes the report to
stdout or the -o file, prints the problems to stderr and picks the exit
code.  Report bytes come from `jsonio`; anything meant for humans goes
to stderr.
"""

from __future__ import annotations

import argparse
import functools
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
from .groups import GroupSequence
from .integers import extract_sum_free_subset, parse_integer_lines
from .scanner import (
    GroupExtraction,
    ScanReport,
    extract_sum_free_group,
    full_scan,
    verify_report,
    weighted_inequality_sweep,
)


Outcome = tuple[str, list[str]]  # (report text, problems its checks found)


def _group_problems(
    report: ScanReport, seq: GroupSequence, extraction: GroupExtraction
) -> list[str]:
    """The exact invariants every group scan is held to, as stderr lines."""
    problems = verify_report(report, seq)
    if not extraction.verified_sum_free:
        problems.append("extracted subsequence failed the sum-free oracle")
    return [f"invariant violation: {p}" for p in problems]


def cmd_extract_integers(args: argparse.Namespace) -> Outcome:
    if args.input == "-":
        lines = sys.stdin.read().splitlines()
    else:
        lines = Path(args.input).read_text().splitlines()
    values = parse_integer_lines(lines)
    extraction = extract_sum_free_subset(values, sample=args.sample, seed=args.seed)
    problems = [] if extraction.verified else ["extraction failed verification"]
    return jsonio.dumps(jsonio.integer_extraction_to_dict(extraction)), problems


def cmd_scan(args: argparse.Namespace) -> Outcome:
    seq = jsonio.load_group_sequence(Path(args.group).read_text())
    report = full_scan(seq, workers=args.workers, sample=args.sample, seed=args.seed)
    extraction = extract_sum_free_group(seq, report)
    text = jsonio.dumps(jsonio.scan_report_to_dict(report, extraction))
    return text, _group_problems(report, seq, extraction)


def cmd_inequality(args: argparse.Namespace) -> Outcome:
    rows = weighted_inequality_sweep(args.max_n)
    problems = [
        f"inequality fails at n={r.n}, d={r.d}: {r.lhs} < 2/7" for r in rows if not r.passes
    ]
    return jsonio.inequality_rows_to_csv(rows), problems


def cmd_adjudicate(args: argparse.Namespace) -> Outcome:
    seq = jsonio.load_group_sequence(Path(args.group).read_text())
    instance_id = args.id if args.id is not None else Path(args.group).stem
    record = adjudicate(seq, instance_id, workers=args.workers)
    text = jsonio.dumps(jsonio.adjudication_to_dict(record))
    return text, _group_problems(record.report, seq, record.extraction)


def cmd_search(args: argparse.Namespace) -> Outcome:
    budget = args.budget
    if budget is None:
        if args.mode == "random":
            raise ValueError("random mode requires --budget")
        budget = 1_000_000
    query = CounterexampleQuery(
        n=args.n, s=args.s, m=args.m, mode=args.mode, budget=budget, seed=args.seed
    )
    result = counterexample_search(query)
    problems = [f"{len(result.findings)} finding(s) recorded"] if result.findings else []
    return jsonio.dumps(jsonio.search_result_to_dict(result)), problems


def cmd_prime_case(args: argparse.Namespace) -> Outcome:
    report = prime_case_check(
        args.p, args.s, trials=args.trials, seed=args.seed, m_max=args.m_max
    )
    ok = (
        report.window_ratio_ok
        and report.all_divisors_one
        and report.all_nonzero_means_match
        and report.all_extractions_beat
    )
    problems = [] if ok else ["prime-case check failed"]
    return jsonio.dumps(jsonio.prime_case_to_dict(report)), problems


def cmd_extremal(args: argparse.Namespace) -> Outcome:
    bound = rhemtulla_street_bound(args.p, args.s)
    tight = tightness_instance() if (args.p, args.s) == (7, 1) else None
    record = jsonio.extremal_to_dict(args.p, args.s, bound, density(args.p, args.s), tight)
    problems = ["tightness instance failed to match"] if tight and not tight.matched else []
    return jsonio.dumps(record), problems


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--output", help="write the report here instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parse_args fills a
    fresh namespace on every call, so nothing carries over between calls."""
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
    """Run one subcommand; the only place that writes its report and exit code.

    The report goes to stdout or the -o file, then each problem its
    checks found goes to stderr on a line of its own.  Exit codes: 0 a
    clean run, 1 a report written with problems (failed verification, a
    falsified inequality row, a counterexample candidate, an internal
    invariant violation), 2 bad input or usage, with no report.
    """
    args = build_parser().parse_args(argv)
    try:
        text, problems = args.func(args)
        if args.output is None:
            sys.stdout.write(text)
        else:
            Path(args.output).write_text(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
