"""Every demo in demos/ runs to completion against the sources in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = (
    "demo_windows_and_oracle",
    "demo_integer_extraction",
    "demo_group_scan",
    "demo_search_and_extremal",
)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo: str) -> None:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
