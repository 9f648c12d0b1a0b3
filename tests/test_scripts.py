"""Experiment scripts: inputs they cannot serve end in one `error:` line and exit 1."""

import contextlib
import importlib.util
import io
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
        ("run_separation_demo.py", ["--baseline-trials", "-1"]),
        ("run_separation_demo.py", ["--baseline-trials", "0"]),
    ],
    ids=["copies-threshold-2", "copies-no-valid-row", "haar-grid-all-over-budget", "demo-n-0", "demo-n-63",
         "demo-one-vector", "demo-negative-budget", "demo-n-1", "demo-negative-trials", "demo-zero-trials"],
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


def _load_demo():
    spec = importlib.util.spec_from_file_location("run_separation_demo", ROOT / "scripts" / "run_separation_demo.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_DEMO = _load_demo()


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=-2, max_value=6),
    C=st.integers(min_value=-1, max_value=6),
    budget=st.integers(min_value=-2, max_value=50),
    trials=st.integers(min_value=-2, max_value=5),
)
@example(n=3, C=4, budget=10, trials=0)
def test_demo_integer_flags_serve_or_reject_in_one_line(n, C, budget, trials):
    argv = ["run_separation_demo.py", "--n", str(n), "--C", str(C), "--budget", str(budget),
            "--baseline-trials", str(trials)]
    out, err = io.StringIO(), io.StringIO()
    # in-process, so an uncaught exception (a traceback from the command line) fails the test
    with mock.patch.object(sys, "argv", argv), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _DEMO.main()
    if code == 0:
        assert err.getvalue() == "" and out.getvalue().startswith(f"n={n} ")
        # a served rate was measured: at least one trial, at most one hit each
        hits, served = re.search(r"^sample-only baseline: (\d+)/(-?\d+) correct ", out.getvalue(), re.M).groups()
        assert int(served) == trials >= 1 and 0 <= int(hits) <= trials
    else:
        assert code == 1
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert out.getvalue() == ""
