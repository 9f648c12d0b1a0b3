"""Experiment scripts: inputs they cannot serve end in one `error:` line and exit 1."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script,args",
    [
        ("run_copies_scaling.py", ["--threshold", "2"]),
        ("run_copies_scaling.py", ["--d", "2"]),
        ("run_haar_gap_grid.py", ["--d", "64", "--N", "4"]),
        ("run_separation_demo.py", ["--n", "0"]),
        ("run_separation_demo.py", ["--n", "63"]),
        ("run_separation_demo.py", ["--C", "1"]),
        ("run_separation_demo.py", ["--budget", "-1"]),
        ("run_separation_demo.py", ["--n", "1"]),
    ],
    ids=["copies-threshold-2", "copies-no-valid-row", "haar-grid-all-over-budget", "demo-n-0", "demo-n-63",
         "demo-one-vector", "demo-negative-budget", "demo-n-1"],
)
def test_script_rejects_in_one_line(tmp_path, script, args):
    out = tmp_path / "out.csv"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    # the demo writes no file, only stdout
    out_flag = [] if script == "run_separation_demo.py" else ["--out", str(out)]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, *out_flag],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert proc.stdout == "" and not out.exists()
