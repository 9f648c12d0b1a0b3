"""Sweep and CLI tests: determinism, error records, exit codes, file formats."""

import csv
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sqlab import circuit_bridge
from sqlab.cli import _SOLVER_NAMES, main
from sqlab.experiments import (
    ConfigError,
    ExperimentConfig,
    ResultRecord,
    chi_square_gof,
    linear_fit,
    render_records,
    run_sweep,
)
from sqlab.quantum_sim import ncopy_minus_sign_tracenorm
from test_instances import copy_as_legacy_directory


def _gap_config(**overrides):
    base = dict(subcommand="haar-gap", d_values=(2, 4), copies_values=(1, 2), seed=3)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError, match="format"):
        render_records(run_sweep(_gap_config(copies_values=(1,))), "xml")
    with pytest.raises(ConfigError, match="threads"):
        ExperimentConfig(subcommand="haar-gap", threads=0)
    with pytest.raises(ConfigError, match="nonempty"):
        run_sweep(ExperimentConfig(subcommand="haar-gap", d_values=(), copies_values=(1,)))
    with pytest.raises(ConfigError, match="unknown sweep"):
        run_sweep(ExperimentConfig(subcommand="teleport", d_values=(2,)))


def test_haar_gap_sweep_produces_ordered_records():
    records = run_sweep(_gap_config())
    assert [r.params for r in records] == [
        {"d": 2, "N": 1},
        {"d": 2, "N": 2},
        {"d": 4, "N": 1},
        {"d": 4, "N": 2},
    ]
    assert all(r.error is None for r in records)
    assert all(r.values["gap"] <= r.values["bound_two_term"] + 1e-9 for r in records)


def test_sweep_is_deterministic_and_thread_count_invariant():
    config = _gap_config(mc_samples=2000)
    text_a = render_records(run_sweep(config), "csv")
    text_b = render_records(run_sweep(config), "csv")
    text_c = render_records(run_sweep(_gap_config(mc_samples=2000, threads=4)), "csv")
    assert text_a == text_b == text_c


def test_budget_exceeded_becomes_error_record():
    records = run_sweep(_gap_config(d_values=(2, 64), copies_values=(4,)))
    by_d = {r.params["d"]: r for r in records}
    assert by_d[2].error is None
    assert by_d[64].error.startswith("budget-exceeded")
    assert by_d[64].values == {}
    # the failing cell still renders as a complete row
    lines = render_records(records, "csv").splitlines()
    assert len(lines) == 3
    assert lines[1].count(",") == lines[2].count(",")


def test_copies_sweep_records():
    config = ExperimentConfig(subcommand="copies-sweep", d_values=(64, 128, 2), seed=0)
    records = run_sweep(config)
    by_d = {r.params["d"]: r for r in records}
    assert by_d[2].error.startswith("invalid-cell")
    assert by_d[128].values["min_copies"] > by_d[64].values["min_copies"]


def test_render_json_lines_round_trip():
    records = run_sweep(_gap_config())
    text = render_records(records, "json-lines")
    rows = [json.loads(line) for line in text.splitlines()]
    assert len(rows) == 4
    assert rows[0]["d"] == 2 and rows[0]["seed"] == 3
    assert rows[1]["gap"] == pytest.approx(1 / 3, abs=1e-9)


def test_render_csv_float_format_round_trips():
    records = run_sweep(_gap_config(d_values=(2,), copies_values=(2,)))
    text = render_records(records, "csv")
    header, row = text.splitlines()
    gap = float(row.split(",")[header.split(",").index("gap")])
    assert gap == records[0].values["gap"]


def test_timings_column_is_opt_in():
    records = run_sweep(_gap_config(d_values=(2,), copies_values=(1,)))
    assert "seconds" not in render_records(records, "csv").splitlines()[0]
    timed = render_records(records, "csv", timings=True)
    assert timed.splitlines()[0].endswith("seconds")


def test_render_rejects_mixed_kinds():
    a = ResultRecord(kind="haar-gap", params={}, values={}, seed=0)
    b = ResultRecord(kind="copies-sweep", params={}, values={}, seed=0)
    with pytest.raises(ValueError, match="mix"):
        render_records([a, b], "csv")


def test_chi_square_gof_accepts_true_distribution():
    rng = np.random.default_rng(0)
    probs = np.array([0.5, 0.25, 0.125, 0.125])
    draws = rng.choice(4, size=50_000, p=probs) + 1
    _, dof, p_value = chi_square_gof(draws, probs)
    assert dof == 3
    assert p_value >= 1e-3


def test_chi_square_gof_rejects_wrong_distribution():
    rng = np.random.default_rng(1)
    draws = rng.integers(1, 5, size=50_000)  # uniform over 4
    _, _, p_value = chi_square_gof(draws, np.array([0.4, 0.3, 0.2, 0.1]))
    assert p_value < 1e-6


def test_chi_square_gof_pools_tiny_bins():
    rng = np.random.default_rng(2)
    probs = np.array([0.9989, 0.001, 1e-4, 1e-6])
    draws = rng.choice(4, size=10_000, p=probs / probs.sum()) + 1
    statistic, dof, p_value = chi_square_gof(draws, probs)
    assert dof == 1  # the tiny bins pool into the 0.001 bin, leaving two cells
    assert p_value >= 1e-3


def test_chi_square_gof_point_mass_degenerates_gracefully():
    draws = np.ones(1000, dtype=int)
    statistic, dof, p_value = chi_square_gof(draws, np.array([1.0, 0.0]))
    assert (statistic, dof, p_value) == (0.0, 0, 1.0)


def test_linear_fit_recovers_exact_line():
    xs = np.arange(1, 8)
    slope, intercept, r2 = linear_fit(xs, 3.5 * xs - 2.0)
    assert slope == pytest.approx(3.5)
    assert intercept == pytest.approx(-2.0)
    assert r2 == pytest.approx(1.0)


# --- CLI surface ---


def test_cli_unknown_flag_is_config_error(capsys):
    assert main(["haar-gap", "--wat"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_empty_d_list_is_config_error(capsys):
    assert main(["haar-gap", "--d", ",", "--N", "1"]) == 1


def test_cli_haar_gap_writes_deterministic_csv(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"

    def run(out):
        return main(
            ["--seed", "5", "--out", str(out), "haar-gap", "--d", "2,4", "--N", "1,2", "--mc-samples", "1000"]
        )

    assert run(out_a) == 0
    assert run(out_b) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    header = out_a.read_text().splitlines()[0]
    assert header == "d,N,sym_dim,gap,bound_two_term,bound_final,o_rest_min_eig,mc_max_dev,seed,error"


def _exact_columns_are_kept(capsys, d, n, row):
    # a refused Monte Carlo stage leaves the cell's exact, checked columns as served without it
    assert row["mc_max_dev"] == ""
    assert main(["haar-gap", "--d", d, "--N", n]) == 0
    (exact,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
    exact_columns = ("sym_dim", "gap", "bound_two_term", "bound_final", "o_rest_min_eig")
    assert all(row[c] != "" and row[c] == exact[c] for c in exact_columns)


def test_cli_haar_gap_refuses_a_monte_carlo_estimate_over_budget(capsys):
    # (24, 4) passes the size budget, but its estimate would take 4.9 GB
    assert main(["haar-gap", "--d", "24", "--N", "4", "--mc-samples", "200"]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    (row,) = csv.DictReader(io.StringIO(captured.out))
    assert row["error"].startswith("budget-exceeded: Monte Carlo estimate")
    _exact_columns_are_kept(capsys, "24", "4", row)


def test_cli_solve_pipeline(tmp_path, capsys):
    inst_dir = tmp_path / "inst"
    assert main(["--seed", "21", "gen-instance", "--kind", "real-search", "--n", "6", "--C", "3", "--dir", str(inst_dir)]) == 0
    capsys.readouterr()
    assert main(["solve", "real-search", "--instance", str(inst_dir)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["correct"] is True
    assert [c["query"] for c in payload["calls"]] == [1, 1, 1]
    assert [c["sample"] for c in payload["calls"]] == [0, 0, 0]


def test_cli_haar_gap_refuses_a_monte_carlo_draw_chunk_over_budget(capsys):
    # (2000, 1) has a 64 MB estimate, but a 100 000-vector draw chunk would take 6.4 GB
    assert main(["haar-gap", "--d", "2000", "--N", "1", "--mc-samples", "100000"]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    (row,) = csv.DictReader(io.StringIO(captured.out))
    assert row["error"].startswith("budget-exceeded: Monte Carlo estimate")
    assert "draw chunk" in row["error"]
    _exact_columns_are_kept(capsys, "2000", "1", row)


def _solve_line(capsys, solver, directory):
    assert main(["solve", solver, "--instance", str(directory)]) == 0
    return re.sub(r'"elapsed_ns":\d+,', "", capsys.readouterr().out)


def test_cli_solve_report_is_the_same_for_npy_and_legacy_text(tmp_path, capsys):
    inst_dir = tmp_path / "inst"
    assert main(["--seed", "26", "gen-instance", "--kind", "real-search", "--n", "10", "--C", "4", "--dir", str(inst_dir)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in inst_dir.iterdir()) == ["manifest.txt"] + [f"vector_{j}.npy" for j in range(1, 5)]
    copy_as_legacy_directory(inst_dir, tmp_path / "legacy")
    npy_line = _solve_line(capsys, "real-search", inst_dir)
    assert '"correct":true' in npy_line and "elapsed_ns" not in npy_line
    assert _solve_line(capsys, "real-search", tmp_path / "legacy") == npy_line


def _pickled_object_array(path):
    np.save(path, np.array([1.0, None], dtype=object), allow_pickle=True)


def _npz_archive(path):
    with open(path, "wb") as fh:
        np.savez(fh, a=np.full(4, 0.5 + 0j))


def _npy_bytes(values):
    buffer = io.BytesIO()
    np.save(buffer, values)
    return buffer.getvalue()


_VALID = _npy_bytes(np.full(4, 0.5 + 0j))
_MALFORMED_NPY = {
    "empty": lambda p: p.write_bytes(b""),
    "truncated header": lambda p: p.write_bytes(_VALID[:20]),
    "truncated data": lambda p: p.write_bytes(_VALID[:-5]),
    "header claims 2^50 entries": lambda p: p.write_bytes(_VALID.replace(b"(4,)", b"(1125899906842624,)")),
    "pickled object array": _pickled_object_array,
    "text renamed": lambda p: p.write_text("0.5 0\n0.5 0\n0.5 0\n0.5 0\n"),
    "2-d array": lambda p: np.save(p, np.full((2, 2), 0.5 + 0j)),
    "string dtype": lambda p: np.save(p, np.array(["0.5", "0.5", "0.5", "0.5"])),
    "npz archive": _npz_archive,
    "wrong length": lambda p: np.save(p, np.array([0.6, 0.8j])),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_NPY))
def test_cli_solve_rejects_a_malformed_npy_vector(tmp_path, capsys, case):
    inst_dir = tmp_path / "inst"
    assert main(["--seed", "27", "gen-instance", "--kind", "real-search", "--n", "2", "--C", "2", "--dir", str(inst_dir), "--reveal"]) == 0
    capsys.readouterr()
    _MALFORMED_NPY[case](inst_dir / "vector_2.npy")
    for solver in _SOLVER_NAMES:
        assert main(["solve", solver, "--instance", str(inst_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.strip().count("\n") == 0
        assert "vector_2.npy" in captured.err


_MALFORMED_MANIFEST_LINES = {
    "key without value": ("n 8", "n"),
    "non-integer n": ("n 8", "n eight"),
    "non-integer C": ("C 2", "C two"),
    "non-integer seed": ("seed 28", "seed 0x1c"),
    "non-integer vector index": ("vector 1 ", "vector one "),
    "vector without backing": (None, "vector 3"),
    "unknown kind": ("kind minus-sign", "kind mystery"),
    "repeated key": (None, "seed 28"),
    "repeated kind": (None, "kind minus-sign"),
    "repeated vector": (None, "vector 2 implicit all-plus n=8 scale=0.0625"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_MANIFEST_LINES))
def test_cli_solve_rejects_a_malformed_manifest_line(tmp_path, capsys, case):
    inst_dir = tmp_path / "inst"
    assert main(["--seed", "28", "gen-instance", "--kind", "minus-sign", "--n", "8", "--C", "2", "--dir", str(inst_dir)]) == 0
    capsys.readouterr()
    manifest = inst_dir / "manifest.txt"
    old, new = _MALFORMED_MANIFEST_LINES[case]
    lines = manifest.read_text().splitlines()
    if old is None:  # appended: the line repeats one already there
        lines.append(new)
        lineno = len(lines)
    else:
        lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith(old))
        lines[lineno - 1] = lines[lineno - 1].replace(old, new, 1)
    manifest.write_text("\n".join(lines) + "\n")
    assert main(["solve", "minus-sign", "--instance", str(inst_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.strip().count("\n") == 0
    assert f"manifest.txt:{lineno}:" in captured.err


def test_cli_solve_sample_only(tmp_path, capsys):
    inst_dir = tmp_path / "inst"
    main(["--seed", "22", "gen-instance", "--kind", "minus-sign", "--n", "8", "--C", "2", "--dir", str(inst_dir)])
    capsys.readouterr()
    assert main(["--seed", "1", "solve", "sample-only", "--instance", str(inst_dir), "--budget", "100"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [c["sample"] for c in payload["calls"]] == [100, 100]
    assert [c["query"] for c in payload["calls"]] == [0, 0]


def test_cli_sample_test_passes_on_honest_sampler(capsys):
    assert main(["--seed", "2", "sample-test", "--dim", "32", "--draws", "20000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True


def test_cli_discriminate_family(capsys):
    assert main(["--seed", "3", "discriminate", "--family", "minus-sign", "--d", "4", "--copies", "2", "--trials", "2000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == 256
    sigma = (payload["optimal_success"] * (1 - payload["optimal_success"]) / 2000) ** 0.5
    assert abs(payload["empirical_success"] - payload["optimal_success"]) < 3 * sigma + 1e-9


def test_cli_discriminate_family_runs_no_eigensolve(capsys, monkeypatch):
    calls = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, lambda *a, _name=name, **k: calls.append(_name))
    assert main(["--seed", "3", "discriminate", "--family", "minus-sign", "--d", "4", "--copies", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 256
    assert calls == []


def test_cli_discriminate_family_at_pair_dimension_4096(capsys):
    # the largest pair the former cap admitted, which as two dense 4096^2 density
    # operators took about 80 s
    assert main(["discriminate", "--family", "minus-sign", "--d", "8", "--copies", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == 4096
    assert abs(payload["schatten1_diff"] - ncopy_minus_sign_tracenorm(8, 2)) <= 1e-12


def test_cli_discriminate_family_memory_is_a_few_pair_vectors(capsys):
    main(["discriminate", "--family", "minus-sign", "--d", "2", "--copies", "1"])  # first-call caches
    capsys.readouterr()
    dim = 4**10
    tracemalloc.start()
    try:
        assert main(["discriminate", "--family", "minus-sign", "--d", "4", "--copies", "5"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert json.loads(capsys.readouterr().out)["dim"] == dim
    assert peak <= 4 * dim * 8


def test_cli_discriminate_family_refuses_past_the_dense_vector_budget(capsys):
    assert main(["discriminate", "--family", "minus-sign", "--d", "2", "--copies", "13"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: minus-sign pair dimension {2**26} exceeds {2**24}\n"


def test_cli_discriminate_files(tmp_path, capsys):
    from sqlab.quantum_sim import random_density_operator, save_density_operator

    rng = np.random.default_rng(9)
    for name in ("a", "b"):
        save_density_operator(tmp_path / f"{name}.txt", random_density_operator(4, rng))
    assert main(["discriminate", "--a", str(tmp_path / "a.txt"), "--b", str(tmp_path / "b.txt"), "--trials", "1000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.5 <= payload["optimal_success"] <= 1.0


def test_cli_discriminate_needs_a_source(capsys):
    assert main(["discriminate", "--trials", "10"]) == 1


@pytest.mark.parametrize("copies", ["0", "-1"])
def test_cli_discriminate_rejects_nonpositive_copies(capsys, copies):
    assert main(["discriminate", "--family", "minus-sign", "--d", "4", "--copies", copies]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().count("\n") == 0 and "copies" in err


@pytest.mark.parametrize(
    "argv,code",
    [
        (["sample-test", "--kind", "all-plus", "--n", "62", "--draws", "1000"], 1),
        (["encoding-demo", "--n", "100000", "--trials", "10"], 0),
        (["sample-test", "--vector", "{nan_file}"], 1),
        (["copies-sweep", "--d", str(1 << 55)], 0),
        (["discriminate", "--a", "{nan_density}", "--b", "{one_density}"], 1),
        (["discriminate", "--a", "{overflow_offdiagonal}", "--b", "{one_density}"], 1),
        (["discriminate", "--a", "{overflow_trace}", "--b", "{one_density}"], 1),
        (["discriminate", "--a", "{word_dim}", "--b", "{one_density}"], 1),
        (["discriminate", "--a", "{negative_dim}", "--b", "{one_density}"], 1),
        (["discriminate", "--a", "{word_entry}", "--b", "{one_density}"], 1),
        (["discriminate", "--a", "{undecodable}", "--b", "{one_density}"], 1),
        (["sharp-p", "--circuit", "{bad_circuit}"], 1),
        (["discriminate", "--family", "minus-sign", "--d", "4", "--copies", "5000"], 1),
        (["discriminate", "--family", "minus-sign", "--d", "9" * 2200, "--copies", "1"], 1),
        (["discriminate", "--family", "minus-sign", "--d", "4", "--copies", "100000000"], 1),
    ],
    ids=[
        "sample-test-no-dof",
        "encoding-demo-huge-n",
        "sample-test-nan-vector",
        "copies-sweep-huge-d",
        "discriminate-nan-density",
        "discriminate-overflowing-off-diagonal",
        "discriminate-overflowing-trace",
        "discriminate-non-integer-dim",
        "discriminate-negative-dim",
        "discriminate-non-numeric-entry",
        "discriminate-undecodable-density",
        "sharp-p-bad-qubit-index",
        "discriminate-many-copies",
        "discriminate-huge-d",
        "discriminate-huge-copies",
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_serves_or_rejects_in_one_line(tmp_path, capsys, argv, code):
    files = {
        "nan_file": "nan 0\n1 0\n",
        "nan_density": "dim 2\nnan 0 0 0\n0 0 1 0\n",
        "one_density": "dim 2\n1 0 0 0\n0 0 0 0\n",
        # finite entries whose Hermitian part or trace overflows
        "overflow_offdiagonal": "dim 2\n0.5 0 1e308 0\n1e308 0 0.5 0\n",
        "overflow_trace": "dim 2\n1e308 0 0 0\n0 0 -1e308 0\n",
        "word_dim": "dim abc\n",
        "negative_dim": "dim -1\n1 0\n",
        "word_entry": "dim 1\n1 x\n",
        "bad_circuit": "qubits 2\nH x\n",
        "undecodable": "dim 1\n\xff 0\n",  # byte 0xff, which is not UTF-8
    }
    for name, text in files.items():
        (tmp_path / f"{name}.txt").write_bytes(text.encode("latin-1"))
    paths = {name: tmp_path / f"{name}.txt" for name in files}
    assert main([arg.format(**paths) for arg in argv]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.strip().count("\n") == 0
    if argv[0] == "encoding-demo":
        assert json.loads(captured.out)["amplitude_single_copy_success"] == 0.5
    if "--family" in argv:
        assert captured.err.startswith("error: minus-sign pair dimension d^(2N) with d=")
    for flag in ("--a", "--circuit"):  # a refused density or circuit file is named
        if flag in argv:
            assert captured.err.startswith(f"error: {argv[argv.index(flag) + 1].format(**paths)}:")


@pytest.mark.parametrize(
    "argv",
    [
        ["sharp-p", "--circuit", "{dir}"],
        ["sample-test", "--vector", "{dir}"],
        ["discriminate", "--a", "{dir}", "--b", "{dir}"],
    ],
    ids=["sharp-p", "sample-test", "discriminate"],
)
def test_cli_rejects_a_directory_as_file_argument(tmp_path, capsys, argv):
    assert main([arg.format(dir=tmp_path) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.strip().count("\n") == 0
    assert str(tmp_path) in captured.err


def test_cli_solve_real_search_refuses_in_one_stderr_line(tmp_path):
    # a subprocess, so that anything logged would reach stderr as it does for a user
    inst_dir = tmp_path / "inst"
    assert main(["--seed", "5", "gen-instance", "--kind", "minus-sign", "--n", "6", "--C", "4", "--dir", str(inst_dir)]) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "sqlab.cli", "solve", "real-search", "--instance", str(inst_dir)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: expected exactly one real first component, found 4\n"


def test_cli_sharp_p(tmp_path, capsys, monkeypatch):
    circuit = tmp_path / "c.txt"
    circuit.write_text("qubits 3\nH 0\nT 1\nCNOT 0 2\n")
    assert main(["sharp-p", "--circuit", str(circuit)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["identity_ok"] is True
    assert payload["abs_diff"] <= 1e-12
    # a wrong reference probability exercises the violation exit code
    monkeypatch.setattr(circuit_bridge, "p_zero_first_qubit", lambda c: payload["p_zero"] + 1e-9)
    assert main(["sharp-p", "--circuit", str(circuit)]) == 2
    assert json.loads(capsys.readouterr().out)["identity_ok"] is False


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--significance", "0"),
        ("--significance", "1.5"),
        ("--significance", "nan"),
        ("--tolerance", "-1"),
        ("--tolerance", "inf"),
        ("--tolerance", "nan"),
        ("--threshold", "2"),
        ("--threshold", "nan"),
    ],
)
def test_cli_rejects_vacuous_or_impossible_thresholds(tmp_path, capsys, flag, value):
    circuit = tmp_path / "c.txt"
    circuit.write_text("qubits 2\nH 0\n")
    command = {
        "--significance": ["sample-test", "--dim", "8"],
        "--tolerance": ["sharp-p", "--circuit", str(circuit)],
        "--threshold": ["copies-sweep", "--d", "64"],
    }[flag]
    assert main(command + [flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.strip().count("\n") == 0


def test_cli_encoding_demo(capsys):
    assert main(["--seed", "4", "encoding-demo", "--n", "6", "--trials", "200"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["product_successes"] == 200
    assert payload["measurements_per_object"] == 1
    expected = 0.5 + 0.5 * (1 - (1 - 2 / 64) ** 2) ** 0.5
    assert payload["amplitude_single_copy_success"] == pytest.approx(expected, abs=1e-12)


def test_cli_missing_instance_dir_is_config_error(capsys):
    assert main(["solve", "minus-sign", "--instance", "/nonexistent/path"]) == 1
