"""The benchmark's trace hooks still fit the program.

perfbench/spans.py wraps program functions by name and reads report
fields by name, so a rename would only show in a traced benchmark run.
This runs each kind of command the benchmark traces once under its
tracer and checks that every hook fired and saw what the report says.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
from sumfreelab.cli import main  # noqa: E402
from sumfreelab.scanner import scan_windows  # noqa: E402


def test_cli_under_the_benchmark_tracer(tmp_path) -> None:
    small = tmp_path / "small.json"
    small.write_text(json.dumps(
        {"schema": 1, "n": 7, "s": 2, "elements": [[1, 2], [3, 0], [5, 6], [2, 2], [0, 4]]}))
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(
        {"schema": 1, "n": 400, "s": 2, "elements": [[1, 2], [3, 399], [250, 7], [0, 9]]}))
    ints = tmp_path / "ints.txt"
    ints.write_text("3\n-5\n7\n12\n400\n")
    jobs = {
        "scan": ["scan", str(small)],
        "sampled": ["scan", str(wide), "--sample", "500", "--seed", "3"],
        "adjudicate": ["adjudicate", str(small)],
        "ints": ["extract-integers", str(ints)],
        "search": ["search", "--n", "5", "--s", "1", "--m", "3", "--mode", "exhaustive"],
    }
    scan_windows.cache_clear()  # so the window constructors run and are traced
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        for job, argv in jobs.items():
            tracer.job = job
            assert main(argv + ["-o", str(tmp_path / f"{job}.out")]) == 0, job

    assert {s.name for s in tracer.spans} >= {name for _, _, name, _ in spans.LAYERS}
    for job in ("scan", "sampled", "adjudicate"):
        rep = json.loads((tmp_path / f"{job}.out").read_text())
        [best] = [s.note["best"] for s in tracer.spans
                  if s.job == job and s.name == "scanner.full_scan"]
        if job == "adjudicate":
            assert (best[1], best[3]) == (rep["max_count_1"], rep["max_count_2"])
        else:
            assert best == [rep["best_x_1"], rep["best_count_1"],
                            rep["best_x_2"], rep["best_count_2"]]
