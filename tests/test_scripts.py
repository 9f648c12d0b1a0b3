"""Experiment scripts and `sqlab`: inputs they cannot serve end in one `error:` line and exit 1."""

import contextlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqlab import cli, haar_moments

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
        ("run_separation_demo.py", ["--n", "x"]),
        ("run_copies_scaling.py", ["--d", "64", "2.5"]),
        ("run_haar_gap_grid.py", ["--d", "2.5"]),
        ("run_haar_gap_grid.py", ["--seed", "1e3"]),
        ("run_haar_gap_grid.py", ["--threads", "2"]),
        ("run_haar_gap_grid.py", ["--mc-samples", "99999999999999999999"]),
    ],
    ids=["copies-threshold-2", "copies-no-valid-row", "haar-grid-all-over-budget", "demo-n-0", "demo-n-63",
         "demo-one-vector", "demo-negative-budget", "demo-n-1", "demo-negative-trials", "demo-zero-trials",
         "demo-n-x", "copies-d-2.5", "haar-grid-d-2.5", "haar-grid-seed-1e3",
         "haar-grid-removed-threads-flag", "haar-grid-mc-samples-past-the-cap"],
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



@pytest.mark.parametrize(
    "script,args",
    [("run_copies_scaling.py", ["--d", "64", "128"]), ("run_haar_gap_grid.py", ["--d", "4", "8"])],
    ids=["copies", "haar-grid"],
)
def test_sweep_script_refuses_an_out_path_under_a_file_in_one_line(tmp_path, script, args):
    blocker = tmp_path / "afile"
    blocker.write_text("")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(blocker / "x.csv")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert proc.stdout == "" and blocker.read_text() == ""

def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_DEMO = _load_script("run_separation_demo")
_COPIES = _load_script("run_copies_scaling")
_GRID = _load_script("run_haar_gap_grid")
_BENCH = _load_script("bench_layers")


def _run_in_process(module, argv):
    """(exit code, stdout, stderr) of `module.main()`; an uncaught exception fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "argv", argv), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = module.main()
    return code, out.getvalue(), err.getvalue()


def _no_work(*args, **kwargs):
    raise AssertionError("the work started before --out was checked")


_SQLAB_COMMANDS = [
    ["sample-test", "--dim", "8"],
    ["gen-instance", "--kind", "minus-sign", "--n", "3", "--dir", "{tmp}/inst"],
    ["solve", "minus-sign", "--instance", "{tmp}/inst"],
    ["discriminate", "--family", "minus-sign"],
    ["haar-gap", "--d", "2", "--N", "1"],
    ["copies-sweep", "--d", "64"],
    ["sharp-p", "--circuit", "{tmp}/c.txt"],
    ["encoding-demo", "--n", "3"],
]
_SCRIPTS = [(_GRID, ["run_haar_gap_grid.py", "--mc-samples", "5000"]), (_COPIES, ["run_copies_scaling.py"])]


@pytest.mark.parametrize(
    "entry,argv,refusal",
    [(cli, ["sqlab", "--out", "{blocker}/x.csv", *command], "[Errno 20] Not a directory: '{blocker}/x.csv'")
     for command in _SQLAB_COMMANDS]
    # a script first makes the parent directory of --out, which refuses a path under a file
    + [(script, [*argv, "--out", "{blocker}/x.csv"], "[Errno 17] File exists: '{blocker}'") for script, argv in _SCRIPTS]
    + [(script, [*argv, "--out", "{tmp}"], "[Errno 21] Is a directory: '{tmp}'") for script, argv in _SCRIPTS],
    ids=[f"sqlab-{command[0]}" for command in _SQLAB_COMMANDS]
    + ["haar-grid-under-a-file", "copies-under-a-file", "haar-grid-directory", "copies-directory"],
)
def test_every_entry_point_refuses_an_unwritable_out_before_any_work(tmp_path, monkeypatch, entry, argv, refusal):
    blocker = tmp_path / "afile"
    blocker.write_text("")
    for name in cli._HANDLERS:
        monkeypatch.setitem(cli._HANDLERS, name, _no_work)
    for script, _ in _SCRIPTS:
        monkeypatch.setattr(script, "run_sweep", _no_work)
    code, out, err = _run_in_process(entry, [arg.format(tmp=tmp_path, blocker=blocker) for arg in argv])
    assert (code, out) == (1, "")
    assert err == "error: " + refusal.format(tmp=tmp_path, blocker=blocker) + "\n"
    assert blocker.read_text() == ""


_CAP = "2^24"
# each count flag of the two scripts that take counts, at low - 1 and at high + 1:
# (script, its other arguments, names a refusal must not reach, cases)
_SCRIPT_COUNT_FLAGS = [
    (_DEMO, ["--n", "20"], ("gen_minus_sign", "gen_unnormalized_minus", "gen_real_vector_search", "solve_sample_only"),
     [("--budget", "-1", f"[0, {_CAP}]"), ("--budget", "16777217", f"[0, {_CAP}]"),
      ("--C", "1", "[2, 2^16]"), ("--C", "65537", "[2, 2^16]"),
      ("--baseline-trials", "0", f"[1, {_CAP}]"), ("--baseline-trials", "16777217", f"[1, {_CAP}]")]),
    (_GRID, ["--d", "2", "--N", "2"], ("ExperimentConfig", "_check_out", "run_sweep"),
     [("--mc-samples", "0", f"[1, {_CAP}]"), ("--mc-samples", "16777217", f"[1, {_CAP}]")]),
]


@pytest.mark.parametrize(
    "script,argv,unreached,flag,value,refusal",
    [(script, argv, unreached, flag, value, f"value must be in {span}, got {value}")
     for script, argv, unreached, cases in _SCRIPT_COUNT_FLAGS for flag, value, span in cases]
    + [(script, argv, unreached, "--seed", "-1", "value must be at least 0, got -1")
       for script, argv, unreached, _ in _SCRIPT_COUNT_FLAGS],
    ids=[f"{script.__name__}{flag}-{value}" for script, _, _, cases in _SCRIPT_COUNT_FLAGS for flag, value, _ in cases]
    + [f"{script.__name__}--seed--1" for script, *_ in _SCRIPT_COUNT_FLAGS],
)
def test_script_count_flags_are_refused_while_parsing(monkeypatch, script, argv, unreached, flag, value, refusal):
    # the demo once generated and solved three instances before it refused its budget
    for name in unreached:
        monkeypatch.setattr(script, name, _no_work)
    code, out, err = _run_in_process(script, [f"{script.__name__}.py", *argv, flag, value])
    assert (code, out, err) == (1, "", f"error: argument {flag}: {refusal}\n")


@pytest.mark.parametrize("n", [63, 1024, 10**9])
@pytest.mark.parametrize(
    "entry,argv",
    [(cli, ["sqlab", "gen-instance", "--kind", kind, "--dir", "{tmp}/inst"])
     for kind in ("minus-sign", "unnormalized-minus")]
    + [(_DEMO, ["run_separation_demo.py"])],
    ids=["sqlab-minus-sign", "sqlab-unnormalized-minus", "demo"],
)
def test_a_minus_sign_n_past_62_is_refused_in_one_line(tmp_path, entry, argv, n):
    # n >= 1024 ended in an OverflowError traceback from 1 / sqrt(1 << n)
    code, out, err = _run_in_process(entry, [arg.format(tmp=tmp_path) for arg in argv] + ["--n", str(n)])
    assert (code, out, err) == (1, "", f"error: n must be in [1, 62], got {n}\n")
    assert not (tmp_path / "inst").exists()


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
    code, out, err = _run_in_process(_DEMO, argv)
    if code == 0:
        assert err == "" and out.startswith(f"n={n} ")
        # a served rate was measured: at least one trial, at most one hit each
        hits, served = re.search(r"^sample-only baseline: (\d+)/(-?\d+) correct ", out, re.M).groups()
        assert int(served) == trials >= 1 and 0 <= int(hits) <= trials
    else:
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out == ""


def _tokens(ints):
    """Integer flag values as text; about one in five is a token no integer flag accepts."""
    bad = st.sampled_from(["x", "2.5", "1e3", "", "0x10", "nan", "4,8"])
    return st.integers(min_value=0, max_value=4).flatmap(lambda k: bad if k == 4 else ints.map(str))


def _assert_report_or_one_line_refusal(code, out, err, path):
    if code == 0:
        assert err == "" and out.startswith("wrote ") and path.exists()
    else:
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out == "" and not path.exists()


@settings(max_examples=25, deadline=None)
@given(d=st.lists(_tokens(st.integers(min_value=-2, max_value=64)), min_size=1, max_size=3))
@example(d=["64", "2.5"])
def test_copies_integer_flags_serve_or_reject_in_one_line(d):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        code, out, err = _run_in_process(_COPIES, ["run_copies_scaling.py", "--d", *d, "--out", str(path)])
        _assert_report_or_one_line_refusal(code, out, err, path)
        if code == 0:
            assert "\nfit: N = " in out


# threshold values as text: specials, values inside and outside (0, 2), and non-numbers
_THRESHOLD_TOKENS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-0", "0", "2", "1e400", "1e-400", "x", "", "1.6.0", "0x1p0"]),
    st.floats(min_value=-1.0, max_value=3.0).map(repr),
)


@settings(max_examples=25, deadline=None)
@given(
    d=st.lists(st.integers(min_value=-2, max_value=4096).map(str), min_size=1, max_size=3),
    threshold=_THRESHOLD_TOKENS,
)
@example(d=["64", "128"], threshold="nan")
@example(d=["64", "128"], threshold="1e400")
def test_copies_threshold_serves_or_rejects_in_one_line(d, threshold):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        argv = ["run_copies_scaling.py", "--d", *d, "--threshold", threshold, "--out", str(path)]
        code, out, err = _run_in_process(_COPIES, argv)
        _assert_report_or_one_line_refusal(code, out, err, path)
        if code == 0:  # only a threshold some pair of states can reach, and not every pair does
            assert 0.0 < float(threshold) < 2.0 and "\nfit: N = " in out


@settings(max_examples=25, deadline=None)
@given(
    d=st.lists(_tokens(st.integers(min_value=-2, max_value=64)), min_size=1, max_size=2),
    N=st.lists(_tokens(st.integers(min_value=0, max_value=3)), min_size=1, max_size=2),
    mc=st.one_of(st.none(), _tokens(st.integers(min_value=-1, max_value=200))),
    seed=_tokens(st.integers(min_value=-1, max_value=2**64)),
)
@example(d=["4"], N=["2"], mc=None, seed="1e3")
@example(d=["2.5"], N=["1"], mc="200", seed="0")
def test_haar_grid_integer_flags_serve_or_reject_in_one_line(d, N, mc, seed):
    argv = ["run_haar_gap_grid.py", "--d", *d, "--N", *N, "--seed", seed]
    if mc is not None:
        argv += ["--mc-samples", mc]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        # a 32 MiB Monte Carlo budget keeps each example small; larger estimates are refused per cell
        with mock.patch.object(haar_moments, "MC_ESTIMATE_BYTE_BUDGET", 1 << 25):
            code, out, err = _run_in_process(_GRID, argv + ["--out", str(path)])
        _assert_report_or_one_line_refusal(code, out, err, path)


def test_bench_layers_writes_every_layer(tmp_path, monkeypatch):
    path = tmp_path / "bench" / "BENCH_layers.json"
    monkeypatch.setattr(_BENCH, "REPEATS", 1)
    code, out, err = _run_in_process(_BENCH, ["bench_layers.py", "--out", str(path)])
    assert (code, err) == (0, "")
    assert out.startswith(f"wrote the real_moment and sampler layers to {path}\n")
    report = json.loads(path.read_text())
    assert report["repeats"] == 1

    moment = report["real_moment"]
    assert [(c["d"], c["N"]) for c in moment["bounds_grid"]] == _BENCH.BOUNDS_GRID_CELLS
    assert [(c["d"], c["N"]) for c in moment["guard"]] == [(9, 8), (12, 6), (24, 4), (40, 3), (199, 2), (2000, 1)]
    for cell in moment["bounds_grid"] + moment["guard"]:
        assert 0 < cell["moment_operator_s"]
        assert cell["assembly_s"] == cell["real_moment_s"] - cell["moment_operator_s"]
    assert moment["bounds_grid_total"]["real_moment_s"] == sum(c["real_moment_s"] for c in moment["bounds_grid"])

    sampler = report["sampler"]
    assert (sampler["dim"], sampler["batch"], sampler["small_batch"], sampler["single_calls"]) == (
        1 << 20, 1 << 19, 1 << 14, 1000)
    # the batch walks the guide table; the small batch is below d/4 and does not
    assert 4 * sampler["small_batch"] < sampler["dim"] <= 4 * sampler["batch"]
    for key in ("cdf_build_ns_per_entry", "guide_build_ns_per_entry", "first_batch_ns_per_draw",
                "batch_ns_per_draw", "first_small_batch_ns_per_draw", "small_batch_ns_per_draw", "sample_call_us"):
        assert 0 < sampler[key]
    # a first Sample keeps 8 B per entry, a first batch 16 B per entry, and a batch its 8 B per draw
    assert 8 * sampler["dim"] <= sampler["first_sample_peak_bytes"] < 16 * sampler["dim"]
    assert 16 * sampler["dim"] <= sampler["first_batch_peak_bytes"]
    assert 8 * sampler["batch"] <= sampler["batch_peak_bytes"]


@pytest.mark.parametrize(
    "argv,refusal",
    [(["--out", "{blocker}/x.json"], "[Errno 17] File exists: '{blocker}'"),
     (["--out", "{tmp}"], "[Errno 21] Is a directory: '{tmp}'")],
    ids=["out-under-a-file", "out-a-directory"],
)
def test_bench_layers_refuses_in_one_line_before_any_work(tmp_path, monkeypatch, argv, refusal):
    blocker = tmp_path / "afile"
    blocker.write_text("")
    monkeypatch.setattr(_BENCH, "real_moment", _no_work)
    monkeypatch.setattr(_BENCH, "haar_unit_vector", _no_work)
    argv = ["bench_layers.py", *[arg.format(tmp=tmp_path, blocker=blocker) for arg in argv]]
    code, out, err = _run_in_process(_BENCH, argv)
    assert (code, out) == (1, "")
    assert err == "error: " + refusal.format(tmp=tmp_path, blocker=blocker) + "\n"
    assert blocker.read_text() == ""
