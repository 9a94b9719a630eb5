"""Command line protocol: schemas, exit codes, determinism."""

import dataclasses
import importlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sumfreelab.cli as climod
from sumfreelab.adjudicate import Finding
from sumfreelab.cli import main
from sumfreelab.groups import GroupSpec
from sumfreelab.integers import choose_prime
from sumfreelab.primes import PROVEN_LIMIT
from sumfreelab.scanner import DEFAULT_SCAN_CAP, InequalityRow


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(args, env=None, timeout=60, preexec_fn=None):
    """The CLI in a fresh interpreter, with this checkout's package first;
    env entries set to None are removed from the environment."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    environ = {**os.environ, **(env or {}), "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", "sumfreelab.cli", *args],
        env={k: v for k, v in environ.items() if v is not None},
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=preexec_fn,
    )


def write_group(tmp_path, name, n, s, elements):
    path = tmp_path / name
    path.write_text(json.dumps({"schema": 1, "n": n, "s": s, "elements": elements}))
    return path


@pytest.fixture
def z7_file(tmp_path):
    return write_group(tmp_path, "z7.json", 7, 1, [[v] for v in range(1, 7)])


def test_extract_integers_roundtrip(tmp_path, capsys) -> None:
    src = tmp_path / "ints.txt"
    src.write_text("1\n2\n3\n")
    assert main(["extract-integers", str(src)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record == {
        "schema": 1, "p": 11, "k": 3, "x": 2,
        "indices": [1, 2], "size": 2, "verified": True,
    }


def test_extract_integers_output_file(tmp_path) -> None:
    src = tmp_path / "ints.txt"
    src.write_text("4\n-7\n# note\n9\n12\n")
    out = tmp_path / "witness.json"
    assert main(["extract-integers", str(src), "-o", str(out)]) == 0
    record = json.loads(out.read_text())
    assert set(record) == {"schema", "p", "k", "x", "indices", "size", "verified"}
    assert record["verified"] is True
    assert record["size"] >= 4 // 3 + 1


def test_extract_integers_bad_inputs(tmp_path, capsys) -> None:
    bad = tmp_path / "bad.txt"
    bad.write_text("1\nnope\n")
    assert main(["extract-integers", str(bad)]) == 2
    zero = tmp_path / "zero.txt"
    zero.write_text("0\n")
    assert main(["extract-integers", str(zero)]) == 2
    assert main(["extract-integers", str(tmp_path / "missing.txt")]) == 2
    capsys.readouterr()


def test_extract_integers_refusals(tmp_path, capsys) -> None:
    src = tmp_path / "huge.txt"
    src.write_text(f"{10**13}\n")
    assert main(["extract-integers", str(src)]) == 2  # exhaustive scan above the cap
    err = capsys.readouterr().err
    assert "--sample" in err and "Traceback" not in err
    src.write_text(f"{2 * 10**24}\n")
    assert main(["extract-integers", str(src), "--sample", "10", "--seed", "1"]) == 2
    assert "proven" in capsys.readouterr().err
    for b in (10**18, 10**19):  # int64 dot products could overflow: no sampled scan
        src.write_text(f"{b}\n")
        assert main(["extract-integers", str(src), "--sample", "10", "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert "2**63" in err and "Traceback" not in err
    src.write_text(f"{10**15}\n")
    assert main(["extract-integers", str(src), "--sample", "20000000", "--seed", "1"]) == 2
    assert "sampled scan cap" in capsys.readouterr().err
    assert main(["prime-case", "--p", str(PROVEN_LIMIT), "--s", "1",
                 "--trials", "1", "--seed", "1"]) == 2
    capsys.readouterr()


def test_scan_report(z7_file, capsys) -> None:
    assert main(["scan", str(z7_file)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == 1 and report["kind"] == "scan"
    assert report["expected_count_1"] == {"num": 12, "den": 7}
    assert report["mean_full_1"] == {"num": 12, "den": 7}
    assert report["mean_nonzero_1"] == {"num": 2, "den": 1}
    assert report["best_count_1"] == 2
    assert report["extraction"]["size"] == 2
    assert report["extraction"]["verified_sum_free"] is True
    assert report["exhaustive"] is True


def test_scan_rationals_in_lowest_terms(z7_file, capsys) -> None:
    assert main(["scan", str(z7_file)]) == 0
    report = json.loads(capsys.readouterr().out)
    from math import gcd
    for key in ("expected_count_1", "expected_count_2", "mean_full_1", "mean_nonzero_1"):
        f = report[key]
        assert gcd(f["num"], f["den"]) == 1 and f["den"] >= 1


def test_scan_worker_bytes_identical(z7_file, capsys) -> None:
    assert main(["scan", str(z7_file), "--workers", "1"]) == 0
    one = capsys.readouterr().out
    assert main(["scan", str(z7_file), "--workers", "4"]) == 0
    four = capsys.readouterr().out
    assert one == four


def test_scan_errors(tmp_path, capsys) -> None:
    bad_schema = tmp_path / "bad.json"
    bad_schema.write_text(json.dumps({"schema": 2, "n": 7, "s": 1, "elements": [[1]]}))
    assert main(["scan", str(bad_schema)]) == 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert main(["scan", str(garbage)]) == 2
    tiny = write_group(tmp_path, "tiny.json", 1, 1, [[0]])
    assert main(["scan", str(tiny)]) == 2
    zero_el = write_group(tmp_path, "zero.json", 7, 1, [[0]])
    assert main(["scan", str(zero_el)]) == 2
    bare = write_group(tmp_path, "bare.json", 7, 1, [3, 4])
    assert main(["scan", str(bare)]) == 2
    null = write_group(tmp_path, "null.json", 7, 1, [[3], None])
    assert main(["scan", str(null)]) == 2
    capsys.readouterr()
    # JSON booleans are not integers, though Python's bool subclasses int.
    for fields in ({"schema": True, "n": 7, "s": True}, {"schema": True, "n": 7, "s": 1},
                   {"schema": 1, "n": 7, "s": True}, {"schema": 1, "n": True, "s": 1}):
        flagged = tmp_path / "flagged.json"
        flagged.write_text(json.dumps({**fields, "elements": [[1], [2], [3]]}))
        assert main(["scan", str(flagged)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "Traceback" not in captured.err


def test_scan_cap_and_sample(tmp_path, capsys) -> None:
    big = write_group(tmp_path, "big.json", 4000, 2, [[1, 2], [3, 4]])
    assert main(["scan", str(big)]) == 2  # refuses: above exhaustive cap
    capsys.readouterr()
    assert main(["scan", str(big), "--sample", "25", "--seed", "6"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["exhaustive"] is False
    assert report["sample_size"] == 25 and report["seed"] == 6
    assert report["mean_full_1"] is None
    assert main(["scan", str(big), "--sample", "25"]) == 2  # seed required
    capsys.readouterr()


def test_inequality_csv(capsys) -> None:
    assert main(["inequality", "--max-n", "7"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "n,d,ratio_1,ratio_2,lhs,passes"
    assert "7,1,2/7,2/7,2/7,true" in out
    assert "4,2,1/2,0,2/7,true" in out
    assert len(out.splitlines()) == 10  # header + 9 divisor rows
    assert main(["inequality", "--max-n", "1"]) == 2


def test_inequality_failure_exit(monkeypatch, capsys) -> None:
    from fractions import Fraction
    row = InequalityRow(5, 1, Fraction(0), Fraction(0), Fraction(0), False)
    monkeypatch.setattr(climod, "weighted_inequality_sweep", lambda max_n: [row])
    assert main(["inequality", "--max-n", "5"]) == 1
    assert "inequality fails" in capsys.readouterr().err


def test_adjudicate(z7_file, capsys) -> None:
    assert main(["adjudicate", str(z7_file)]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["kind"] == "adjudication"
    assert rec["instance_id"] == "z7"  # defaults to the file stem
    assert rec["mean_full_1"] == {"num": 12, "den": 7}
    assert rec["mean_nonzero_1"] == {"num": 2, "den": 1}
    assert rec["divisor_range_bound"] == {"num": 2, "den": 1}
    assert rec["full_mean_matches_expected_1"] is True
    assert rec["some_column_beats_expected_1"] is True
    assert rec["extraction_beats_two_sevenths"] is True
    assert main(["adjudicate", str(z7_file), "--id", "mine"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["instance_id"] == "mine"


@pytest.mark.parametrize("command", ["scan", "adjudicate"])
def test_scan_invariant_violation_exit(command, z7_file, monkeypatch, capsys) -> None:
    monkeypatch.setattr(climod, "verify_report", lambda report, seq: ["boom"])
    assert main([command, str(z7_file)]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["extraction"]["verified_sum_free"] is True
    assert captured.err == "invariant violation: boom\n"


def test_search_exhaustive(capsys) -> None:
    assert main(["search", "--n", "7", "--s", "1", "--m", "2",
                 "--mode", "exhaustive"]) == 0
    res = json.loads(capsys.readouterr().out)
    assert res["kind"] == "search"
    assert res["instances"] == 27
    assert res["oracle_checked"] == 27
    assert res["complete"] is True
    assert res["findings"] == []


def test_search_random_and_errors(capsys) -> None:
    args = ["search", "--n", "6", "--s", "1", "--m", "4",
            "--mode", "random", "--budget", "30", "--seed", "12"]
    assert main(args) == 0
    a = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == a
    # random mode without budget or without seed is a usage error
    assert main(["search", "--n", "6", "--s", "1", "--m", "4", "--mode", "random",
                 "--seed", "1"]) == 2
    assert main(["search", "--n", "6", "--s", "1", "--m", "4", "--mode", "random",
                 "--budget", "5"]) == 2
    capsys.readouterr()


def test_search_budget_refused_at_once(capsys) -> None:
    # Each length adds at least one multiset, so m = 10**8 is above the
    # default budget of 10**6 before any count is summed.
    start = time.perf_counter()
    assert main(["search", "--n", "2", "--s", "1", "--m", str(10**8),
                 "--mode", "exhaustive"]) == 2
    assert time.perf_counter() - start < 2
    assert "above the budget" in capsys.readouterr().err


def test_search_above_scan_cap_refused_before_drawing(monkeypatch, capsys) -> None:
    def no_draw(*args):
        raise AssertionError("an instance was drawn")

    monkeypatch.setattr(GroupSpec, "random_nonzero", no_draw)
    monkeypatch.setattr(importlib.import_module("sumfreelab.adjudicate"), "_random_instances", no_draw)
    assert main(["search", "--n", str(2 * DEFAULT_SCAN_CAP), "--s", "1", "--m", "1",
                 "--mode", "random", "--budget", "1", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert "search of Z_" in err and "scan cap" in err and "sample=" not in err


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (300 * 2**20, 300 * 2**20))


# Argvs that size an allocation or a loop by one user number, each with
# the flag its refusal names.  Each must be refused before any work,
# under a 300 MiB address space limit set in the child only.
_REFUSED = {
    # One instance of 10^8 entries: an allocation sized by --m alone.
    "search-m": (["search", "--n", "7", "--s", "1", "--m", str(10**8), "--mode", "random",
                  "--budget", "1", "--seed", "1"], "--m"),
    # Z_10^6 has no hit table, so each of its 999 999 length-1 instances
    # would be scanned; listing them alone took 84 MiB.  Refused by scan
    # work before the pool is built.
    "search-budget": (["search", "--n", "10", "--s", "6", "--m", "1", "--mode", "exhaustive",
                       "--budget", "2000000"], "--budget"),
    # One trial of up to 10^9 entries: a MemoryError after 4.6 s unrefused.
    "prime-case-m-max": (["prime-case", "--p", "7", "--s", "1", "--trials", "1", "--seed", "1",
                          "--m-max", str(10**9)], "--m-max"),
    # Every row held in a list: 350 s and 580 MiB unrefused.
    "inequality-max-n": (["inequality", "--max-n", str(10**5)], "--max-n"),
}


@pytest.mark.parametrize("case", sorted(_REFUSED))
def test_refused_in_bounded_memory(case) -> None:
    # One BLAS thread keeps numpy's own reservations independent of the
    # core count.
    argv, flag = _REFUSED[case]
    start = time.monotonic()
    proc = run_cli(argv, env={"OPENBLAS_NUM_THREADS": "1"}, timeout=30,
                   preexec_fn=_limit_address_space)
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr and flag in proc.stderr
    assert "Traceback" not in proc.stderr
    assert time.monotonic() - start < 10


def test_sampled_scans_do_not_import_numpy_random(tmp_path) -> None:
    # The multiplier draw replays CPython's generator from getrandbits
    # words; p above 2^32 makes every integer draw two words.
    values = [(-1) ** i * (2**40 + 17 * i + 1) for i in range(30)]
    ints = tmp_path / "ints.txt"
    ints.write_text("\n".join(map(str, values)) + "\n")
    assert choose_prime(values).p > 2**32
    group = write_group(tmp_path, "z4000x2.json", 4000, 2,
                        [[i % 3999 + 1, 7 * i % 4000] for i in range(100)])
    code = (
        "import sys\n"
        "from sumfreelab.cli import main\n"
        f"assert main(['scan', {str(group)!r}, '--sample', '5000', '--seed', '3',"
        f" '-o', {str(tmp_path / 'scan.json')!r}]) == 0\n"
        f"assert main(['extract-integers', {str(ints)!r}, '--sample', '1000', '--seed', '3',"
        f" '-o', {str(tmp_path / 'ints.json')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert json.loads((tmp_path / "ints.json").read_text())["verified"] is True


def test_extremal(capsys) -> None:
    assert main(["extremal", "7", "1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["bound"] == 2
    assert rep["density"] == {"num": 2, "den": 7}
    assert rep["tightness"]["matched"] is True
    assert rep["tightness"]["oracle_max"] == 2

    assert main(["extremal", "13", "2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["bound"] == 52 and rep["tightness"] is None

    assert main(["extremal", "5", "1"]) == 2
    assert main(["extremal", "9", "1"]) == 2
    capsys.readouterr()


def test_extremal_huge_rank_refused_at_once() -> None:
    # 7**(10**7) once took ~38 s, and was refused only by the int-to-str
    # digit limit; the rank is now checked before the power is built.
    t0 = time.perf_counter()
    proc = run_cli(["extremal", "7", "10000000"], timeout=30)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 2
    assert "rank s = 10000000" in proc.stderr and "Traceback" not in proc.stderr
    assert elapsed < 2


def test_extract_integers_long_line_refused_by_length(tmp_path) -> None:
    # The same refusal whatever Python's int-to-str digit limit: before
    # the length check, the default limit refused this line with a
    # message that echoed all 5001 digits, and with no limit the
    # primality range refused it instead.
    src = tmp_path / "long.txt"
    src.write_text("1\n2\n" + "1" + "0" * 5000 + "\n")
    errs = set()
    for limit in (None, "0"):
        proc = run_cli(["extract-integers", str(src)], env={"PYTHONINTMAXSTRDIGITS": limit})
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and "0" * 200 not in proc.stderr
        errs.add(proc.stderr)
    (err,) = errs
    assert "line 3: 5001 characters" in err


def test_prime_case_command(capsys) -> None:
    assert main(["prime-case", "--p", "7", "--s", "1", "--trials", "5", "--seed", "2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["kind"] == "prime-case"
    assert rep["window_ratio"] == {"num": 2, "den": 7}
    assert rep["all_extractions_beat"] is True
    assert main(["prime-case", "--p", "4", "--s", "1", "--trials", "5", "--seed", "2"]) == 2
    capsys.readouterr()


def test_prime_case_m_max_refused(capsys) -> None:
    argv = ["prime-case", "--p", "7", "--s", "1", "--trials", "1", "--seed", "1", "--m-max", "0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: m_max (--m-max on the command line) must be at least 1, not 0\n"


def test_stdout_deterministic(z7_file, capsys) -> None:
    assert main(["scan", str(z7_file)]) == 0
    first = capsys.readouterr().out
    assert main(["scan", str(z7_file)]) == 0
    assert capsys.readouterr().out == first
    assert main(["adjudicate", str(z7_file)]) == 0
    a = capsys.readouterr().out
    assert main(["adjudicate", str(z7_file)]) == 0
    assert capsys.readouterr().out == a


#: One run of every subcommand; {ints} and {z7} name input files.
COMMANDS = {
    "extract-integers": ["extract-integers", "{ints}"],
    "scan": ["scan", "{z7}"],
    "inequality": ["inequality", "--max-n", "12"],
    "adjudicate": ["adjudicate", "{z7}"],
    "search": ["search", "--n", "5", "--s", "1", "--m", "2", "--mode", "exhaustive"],
    "prime-case": ["prime-case", "--p", "7", "--s", "1", "--trials", "3", "--seed", "2"],
    "extremal": ["extremal", "7", "1"],
}


def _argv(command, tmp_path, z7_file):
    ints = tmp_path / "ints.txt"
    ints.write_text("1\n2\n3\n")
    return [a.format(ints=ints, z7=z7_file) for a in COMMANDS[command]]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_stdout_bytes_equal_output_file(command, tmp_path, z7_file, capsysbinary) -> None:
    argv = _argv(command, tmp_path, z7_file)
    assert main(argv) == 0
    stdout = capsysbinary.readouterr().out
    out = tmp_path / "report.out"
    assert main(argv + ["-o", str(out)]) == 0
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert stdout and out.read_bytes() == stdout


_FINDING = Finding(elements=((1,),), m=1, extraction_size=0, exact_max_size=1,
                   extraction_below_bound=True, max_below_bound=False)

#: subcommand -> (cli function to falsify, fields replaced in its result, stderr)
FAILURES = {
    "extract-integers": ("extract_sum_free_subset", {"subset_sum_free": False},
                         "extraction failed verification\n"),
    "prime-case": ("prime_case_check", {"all_extractions_beat": False},
                   "prime-case check failed\n"),
    "extremal": ("tightness_instance", {"matched": False},
                 "tightness instance failed to match\n"),
    "search": ("counterexample_search", {"findings": (_FINDING,)},
               "1 finding(s) recorded\n"),
}


@pytest.mark.parametrize("command", sorted(FAILURES))
def test_failed_check_exit_and_stderr(command, tmp_path, z7_file, monkeypatch, capsys) -> None:
    name, changes, err = FAILURES[command]
    real = getattr(climod, name)
    monkeypatch.setattr(climod, name,
                        lambda *a, **k: dataclasses.replace(real(*a, **k), **changes))
    assert main(_argv(command, tmp_path, z7_file)) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["schema"] == 1  # the report is still written
    assert captured.err == err


def test_cached_parser_carries_nothing_between_calls(tmp_path, z7_file, capsysbinary) -> None:
    # One process, one parser: each report must equal the one a freshly
    # built parser gives, whatever ran before it.
    ints = tmp_path / "ints.txt"
    ints.write_text("".join(f"{b}\n" for b in range(1, 31)))
    out = tmp_path / "report.out"
    runs = [
        ["extract-integers", str(ints), "--sample", "3", "--seed", "1"],
        ["extract-integers", str(ints)],
        ["scan", str(z7_file), "--sample", "2", "--seed", "4", "-o", str(out)],
        ["scan", str(z7_file)],
        ["scan", str(z7_file), "--workers", "2"],
        ["adjudicate", str(z7_file), "--id", "first"],
        ["adjudicate", str(z7_file)],
        ["extremal", "7", "1"],
        ["extract-integers", str(ints)],
    ]

    def report(argv):
        assert main(argv) == 0
        text = capsysbinary.readouterr().out
        return out.read_bytes() if "-o" in argv else text

    fresh = []
    for argv in runs:
        climod.build_parser.cache_clear()
        fresh.append(report(argv))
    assert all(fresh) and fresh[0] != fresh[1] and fresh[2] != fresh[3] and fresh[5] != fresh[6]
    assert climod.build_parser() is climod.build_parser()
    assert [report(argv) for argv in runs] == fresh
