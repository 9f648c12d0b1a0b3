"""Sweep and CLI tests: determinism, error records, exit codes, file formats."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sqlab import circuit_bridge, cli, experiments, haar_moments, inputs, instances, quantum_sim, sq_oracle
from sqlab.cli import _SOLVER_NAMES, main
from sqlab.experiments import (
    ExperimentConfig,
    ResultRecord,
    chi_square_gof,
    linear_fit,
    render_records,
    run_sweep,
)
from sqlab.haar_moments import BoundViolationError, trace_norm_gap
from sqlab.quantum_sim import ncopy_minus_sign_tracenorm
from sqlab.inputs import DENSE_BUDGET_N

from _fixtures import random_density_operator, sparse_npy


def _gap_config(**overrides):
    base = dict(subcommand="haar-gap", d_values=(2, 4), copies_values=(1, 2), seed=3)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError, match="format"):
        render_records(run_sweep(_gap_config(copies_values=(1,))), "xml")
    with pytest.raises(ValueError, match=r"^threads must be at least 1, got 0$"):
        ExperimentConfig(subcommand="haar-gap", threads=0)
    for mc_samples in (0, (1 << DENSE_BUDGET_N) + 1):
        with pytest.raises(ValueError, match=rf"^mc_samples must be in \[1, 2\^24\], got {mc_samples}$"):
            _gap_config(mc_samples=mc_samples)
    with pytest.raises(ValueError, match="nonempty"):
        run_sweep(ExperimentConfig(subcommand="haar-gap", d_values=(), copies_values=(1,)))
    with pytest.raises(ValueError, match="unknown sweep"):
        run_sweep(ExperimentConfig(subcommand="teleport", d_values=(2,)))


@pytest.mark.parametrize("mc_samples", ["0", "-1", str((1 << DENSE_BUDGET_N) + 1), "99999999999999999999"])
def test_cli_haar_gap_refuses_mc_samples_outside_the_cap_before_any_cell(capsys, monkeypatch, mc_samples):
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(experiments, "trace_norm_gap", no_cell)
    assert main(["haar-gap", "--d", "2", "--N", "2", "--mc-samples", mc_samples]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: argument --mc-samples: value must be in [1, 2^{DENSE_BUDGET_N}], got {mc_samples}\n"
    assert _gap_config(mc_samples=1 << DENSE_BUDGET_N).mc_samples == 1 << DENSE_BUDGET_N


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


def test_haar_gap_cells_key_a_generator_only_for_monte_carlo(monkeypatch):
    keyed = []
    keyed_stream = experiments.keyed_stream

    def counting(seed, *key):
        keyed.append(key)
        return keyed_stream(seed, *key)

    monkeypatch.setattr(experiments, "keyed_stream", counting)
    exact = render_records(run_sweep(_gap_config()), "csv")
    assert keyed == []
    # the exact columns are the same with or without a Monte Carlo stage
    with_mc = run_sweep(_gap_config(mc_samples=200))
    assert keyed == [(2, 1), (2, 2), (4, 1), (4, 2)]
    for record in with_mc:
        record.values["mc_max_dev"] = None
    assert render_records(with_mc, "csv") == exact


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


@pytest.mark.parametrize("draws", [1 << 16, 1 << 20, 1 << 22], ids=["all-pooled", "mostly-pooled", "mostly-kept"])
def test_chi_square_gof_holds_at_most_26_bytes_per_probability(draws):
    import scipy.special  # noqa: F401  (its first import is not the test's memory)

    rng = np.random.default_rng(5)
    probs = rng.random(1 << 20)
    indices = rng.integers(1, probs.size + 1, size=draws)
    tracemalloc.start()
    try:
        chi_square_gof(indices, probs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 26 * probs.size


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


def test_cli_generates_real_search_through_the_module_level_generator(tmp_path, capsys, monkeypatch):
    # a wrapper on the module attribute sees every generation, as tracing tools rely on
    calls = []
    original = instances.gen_real_vector_search

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(instances, "gen_real_vector_search", counting)
    inst_dir = tmp_path / "inst"
    assert main(["--seed", "3", "gen-instance", "--kind", "real-search", "--n", "4", "--C", "3", "--dir", str(inst_dir)]) == 0
    assert calls == [(4, 3, 3)]
    assert main(["solve", "real-search", "--instance", str(inst_dir)]) == 0  # regenerates k* from the seed
    assert calls == [(4, 3, 3)] * 2
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is True


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


def _pickled_object_array(path):
    np.save(path, np.array([1.0, None], dtype=object), allow_pickle=True)


def _npz_archive(path):
    with open(path, "wb") as fh:
        np.savez(fh, a=np.full(4, 0.5 + 0j))


def _npy_bytes(values):
    buffer = io.BytesIO()
    np.save(buffer, values)
    return buffer.getvalue()


def _npy_header_only(path, shape):
    """A `.npy` file holding only a version-1.0 complex128 header with this `shape`, or with none.

    The header is written by hand, as numpy's writer needs a shape and one it accepts.
    """
    header = {"descr": "<c16", "fortran_order": False}
    if shape is not None:
        header["shape"] = shape
    text = repr(header).encode("latin-1")
    pad = -(10 + len(text) + 1) % 64  # magic, version and length take 10 bytes; the header ends in \n
    path.write_bytes(b"\x93NUMPY\x01\x00" + (len(text) + pad + 1).to_bytes(2, "little") + text + b" " * pad + b"\n")


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
    rng = np.random.default_rng(9)
    for name in ("a", "b"):
        np.save(tmp_path / f"{name}.npy", random_density_operator(4, rng).matrix)
    assert main(["discriminate", "--a", str(tmp_path / "a.npy"), "--b", str(tmp_path / "b.npy"), "--trials", "1000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.5 <= payload["optimal_success"] <= 1.0


def test_cli_discriminate_files_eigensolves_the_difference_once(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(9)
    for name in ("a", "b"):
        np.save(tmp_path / f"{name}.npy", random_density_operator(4, rng).matrix)
    calls = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _name=name, _f=original, **k: calls.append(_name) or _f(*a, **k))
    assert main(["discriminate", "--a", str(tmp_path / "a.npy"), "--b", str(tmp_path / "b.npy")]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 4
    # each state's PSD check, then one eigendecomposition of their difference for the whole report
    assert calls == ["eigvalsh", "eigvalsh", "eigh"]


def _no_heavy_work(*args, **kwargs):
    raise AssertionError("the heavy work ran before the refusal")


def test_cli_discriminate_refuses_a_dimension_mismatch_before_any_eigensolve(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(9)
    for name, dim in (("a", 4), ("b", 2)):
        np.save(tmp_path / f"{name}.npy", random_density_operator(dim, rng).matrix)
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, _no_heavy_work)
    assert main(["discriminate", "--a", str(tmp_path / "a.npy"), "--b", str(tmp_path / "b.npy")]) == 1
    assert capsys.readouterr() == ("", "error: dimension mismatch: 4 vs 2\n")


def test_cli_discriminate_refuses_a_dimension_mismatch_from_the_headers(tmp_path, capsys, monkeypatch):
    sparse_npy(tmp_path / "a.npy", (1024, 1024), np.complex128)  # 16 MB, never copied
    np.save(tmp_path / "b.npy", np.eye(16) / 16)
    monkeypatch.setattr(inputs, "load_npy", _no_heavy_work)  # the complex128 copy
    monkeypatch.setattr(quantum_sim, "load_density_operator", _no_heavy_work)
    tracemalloc.start()
    try:
        assert main(["discriminate", "--a", str(tmp_path / "a.npy"), "--b", str(tmp_path / "b.npy")]) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert capsys.readouterr() == ("", "error: dimension mismatch: 1024 vs 16\n")
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "source,refusal",
    [
        (["--dim", "64"], "3 draws leave the chi-square test no degrees of freedom; use at least 100 draws"),
        (["--vector", "{vector}"], "3 draws leave the chi-square test no degrees of freedom; use at least 110 draws"),
        (["--n", "10"], "3 draws leave the chi-square test no degrees of freedom; use at least 5120 draws"),
        (["--dim", "1"], "the sampling distribution has one outcome; there is nothing to test"),
    ],
    ids=["dim", "vector", "n", "one-outcome"],
)
def test_cli_sample_test_refuses_too_few_draws_before_any_draw(tmp_path, capsys, monkeypatch, source, refusal):
    np.save(tmp_path / "v.npy", np.arange(1, 65, dtype=float))
    monkeypatch.setattr(sq_oracle.SqHandle, "sample_many", _no_heavy_work)
    argv = ["sample-test", *[arg.format(vector=tmp_path / "v.npy") for arg in source], "--draws", "3"]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {refusal}\n")


def test_cli_file_reports_are_pinned(tmp_path, capsys):
    # the bytes the text formats gave for these arrays, written with `%.17g` and read back exactly
    rng = np.random.default_rng(2024)
    rho_a, rho_b = random_density_operator(5, rng), random_density_operator(5, rng)
    vector = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    for name, values in {"a": rho_a.matrix, "b": rho_b.matrix, "v": vector}.items():
        np.save(tmp_path / f"{name}.npy", values)
    assert main(["--seed", "3", "discriminate", "--a", str(tmp_path / "a.npy"), "--b", str(tmp_path / "b.npy"), "--trials", "1000"]) == 0
    assert capsys.readouterr().out == (
        '{"experiment":"discriminate","source":"files","dim":5,"schatten1_diff":1.1182197760921966,'
        '"optimal_success":0.7795549440230491,"empirical_success":0.775,"trials":1000,"seed":3}\n'
    )
    assert main(["--seed", "3", "sample-test", "--vector", str(tmp_path / "v.npy"), "--draws", "4000"]) == 0
    assert capsys.readouterr().out == (
        '{"experiment":"sample-test","dim":64,"draws":4000,"chi_square":44.3770149024154,"dof":56,'
        '"p_value":0.8688179563590457,"significance":0.001,"pass":true,"seed":3}\n'
    )


@pytest.mark.parametrize(
    "argv,shape",
    [(["sample-test", "--vector", "{path}"], ((1 << 24) + 1,)), (["discriminate", "--a", "{path}", "--b", "{path}"], (8192, 4096))],
    ids=["vector", "density"],
)
def test_a_file_past_the_cap_is_refused_from_its_header(tmp_path, capsys, argv, shape):
    path = tmp_path / "big.npy"
    sparse_npy(path, shape, np.int8)
    tracemalloc.start()
    try:
        assert main([arg.format(path=path) for arg in argv]) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == f"error: {path}: {math.prod(shape)} entries exceed the cap of {1 << 24}\n"
    assert peak < 2 << 20  # the file holds 16 MB or more


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
        (["sample-test", "--n", "62", "--draws", "1000"], 1),
        (["encoding-demo", "--n", "100000", "--trials", "10"], 0),
        (["sample-test", "--vector", "{nan_file}"], 1),
        (["sample-test", "--vector", "{undecodable_vector}"], 1),
        (["solve", "minus-sign", "--instance", "{undecodable_manifest}"], 1),
        (["copies-sweep", "--d", str(1 << 55)], 0),
        (["discriminate", "--a", "{nan_density}", "--b", "{one_density}"], 1),
        (["discriminate", "--a", "{overflow_offdiagonal}", "--b", "{one_density}"], 1),
        (["discriminate", "--a", "{overflow_trace}", "--b", "{one_density}"], 1),
        (["discriminate", "--a", "{word_dim}", "--b", "{one_density}"], 1),
        (["discriminate", "--a", "{negative_dim}", "--b", "{one_density}"], 1),
        (["discriminate", "--a", "{word_entry}", "--b", "{one_density}"], 1),
        (["discriminate", "--a", "{undecodable}", "--b", "{one_density}"], 1),
        (["discriminate", "--a", "{huge_dim}", "--b", "{one_density}"], 1),
        (["sharp-p", "--circuit", "{bad_circuit}"], 1),
        (["discriminate", "--family", "minus-sign", "--d", "4", "--copies", "5000"], 1),
        (["discriminate", "--family", "minus-sign", "--d", "9" * 2200, "--copies", "1"], 1),
        (["discriminate", "--family", "minus-sign", "--d", "4", "--copies", "100000000"], 1),
        (["encoding-demo", "--n", "1000000", "--trials", "1000"], 0),
        (["solve", "minus-sign", "--instance", "{unknown_key}"], 1),
        (["solve", "minus-sign", "--instance", "{no_seed}"], 1),
        (["solve", "minus-sign", "--instance", "{n_zero}"], 1),
        (["solve", "minus-sign", "--instance", "{huge_n}"], 1),
        (["solve", "minus-sign", "--instance", "{huge_C}"], 1),
        (["solve", "minus-sign", "--instance", "{missing_vector}"], 1),
        (["solve", "minus-sign", "--instance", "{unknown_backing}"], 1),
        (["solve", "minus-sign", "--instance", "{not_its_seed}"], 1),
        (["discriminate", "--a", "{no_dim}", "--b", "{one_density}"], 1),
        (["discriminate", "--a", "{no_content}", "--b", "{one_density}"], 1),
        (["sample-test", "--vector", "{empty_vector}"], 1),
        (["sample-test", "--vector", "{subnormal_vector}"], 1),
        (["sample-test", "--n", "0"], 1),
        (["sample-test", "--dim", "0"], 1),
        (["sample-test", "--vector", "{one_entry}"], 1),
        (["sharp-p", "--circuit", "{zero_qubits}"], 1),
        (["copies-sweep", "--d", ","], 1),
        (["haar-gap", "--d", "x", "--N", "1"], 1),
        (["--threads", "2", "haar-gap", "--d", "2", "--N", "1"], 1),
        (["sample-test", "--dim", "1099511627776"], 1),
        (["discriminate", "--family", "minus-sign", "--d", "4", "--trials", "1099511627776"], 1),
        (["encoding-demo", "--n", "3", "--trials", "99999999999999999999"], 1),
        (["encoding-demo", "--n", "3", "--trials", "1", "--C", "1099511627776"], 1),
        (["gen-instance", "--kind", "minus-sign", "--n", "3", "--C", "100000000", "--dir", "{fresh_dir}"], 1),
        (["gen-instance", "--kind", "real-search", "--n", "24", "--C", "5", "--dir", "{fresh_dir}"], 1),
        (["discriminate", "--family", "minus-sign", "--a", "{missing}", "--b", "{missing}"], 1),
        (["discriminate", "--family", "minus-sign", "--a", "{one_density}", "--b", "{one_density}"], 1),
        (["discriminate", "--family", "minus-sign", "--b", "{one_density}"], 1),
        (["discriminate", "--a", "{one_density}", "--b", "{one_density}", "--d", "4"], 1),
        (["discriminate", "--a", "{one_density}", "--b", "{one_density}", "--copies", "1"], 1),
        (["--out", "{one_entry}/gap.csv", "haar-gap", "--d", "4", "--N", "1"], 1),
        (["sample-test", "--vector", "{archive}"], 1),
        (["discriminate", "--a", "{archive}", "--b", "{one_density}"], 1),
        (["discriminate", "--a", "{text_density}", "--b", "{one_density}"], 1),
        (["solve", "minus-sign", "--instance", "{infinite_scale}"], 1),
        (["solve", "sample-only", "--instance", "{infinite_scale}"], 1),
    ],
    ids=[
        "sample-test-no-dof",
        "encoding-demo-huge-n",
        "sample-test-nan-vector",
        "sample-test-undecodable-vector",
        "solve-undecodable-manifest",
        "copies-sweep-huge-d",
        "discriminate-nan-density",
        "discriminate-overflowing-off-diagonal",
        "discriminate-overflowing-trace",
        "discriminate-non-integer-dim",
        "discriminate-negative-dim",
        "discriminate-non-numeric-entry",
        "discriminate-undecodable-density",
        "discriminate-huge-dim",
        "sharp-p-bad-qubit-index",
        "discriminate-many-copies",
        "discriminate-huge-d",
        "discriminate-huge-copies",
        "encoding-demo-million-n",
        "solve-unknown-manifest-key",
        "solve-manifest-without-seed",
        "solve-manifest-n-zero",
        "solve-manifest-huge-n",
        "solve-manifest-huge-C",
        "solve-manifest-missing-vector",
        "solve-manifest-unknown-backing",
        "solve-implicit-vector-not-its-seed",
        "discriminate-density-without-dim",
        "discriminate-density-without-content",
        "sample-test-empty-vector",
        "sample-test-subnormal-norm-vector",
        "sample-test-n-zero",
        "sample-test-dim-zero",
        "sample-test-one-entry-vector",
        "sharp-p-zero-qubits",
        "copies-sweep-empty-d-list",
        "haar-gap-non-integer-d",
        "removed-threads-flag",
        "sample-test-dim-past-dense-budget",
        "discriminate-trials-past-dense-budget",
        "encoding-demo-trials-past-dense-budget",
        "encoding-demo-C-past-vector-cap",
        "gen-instance-C-past-vector-cap",
        "gen-instance-real-search-past-entry-cap",
        "discriminate-family-with-missing-files",
        "discriminate-family-with-files",
        "discriminate-family-with-one-file",
        "discriminate-files-with-d",
        "discriminate-files-with-copies",
        "haar-gap-out-under-a-file",
        "sample-test-archive-vector",
        "discriminate-archive-density",
        "discriminate-text-density",
        "solve-revealed-infinite-scale",
        "solve-sample-only-revealed-infinite-scale",
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_serves_or_rejects_in_one_line(tmp_path, capsys, argv, code):
    texts = {
        "bad_circuit": "qubits 2\nH x\n",
        "zero_qubits": "qubits 0\n",
        # files that are not .npy: the former text formats, one with a byte 0xff that is not UTF-8
        "undecodable": "dim 1\n\xff 0\n",
        "undecodable_vector": "\xff 0\n1 0\n",
        "text_density": "dim 1\n1 0\n",
    }
    paths = {name: tmp_path / f"{name}.txt" for name in texts}
    for name, text in texts.items():
        paths[name].write_bytes(text.encode("latin-1"))
    arrays = {
        "nan_file": np.array([np.nan, 1.0]),
        "nan_density": np.array([[np.nan, 0.0], [0.0, 1.0]]),
        "one_density": np.array([[1.0, 0.0], [0.0, 0.0]]),
        # finite entries whose Hermitian part or trace overflows
        "overflow_offdiagonal": np.array([[0.5, 1e308], [1e308, 0.5]]),
        "overflow_trace": np.array([[1e308, 0.0], [0.0, -1e308]]),
        "word_entry": np.array([["1", "0"], ["0", "0"]]),
        "no_content": np.zeros((0, 0)),
        "empty_vector": np.zeros(0, dtype=np.complex128),
        # squared norm 2.09e-320, a subnormal
        "subnormal_vector": np.array([1e-160, 3e-161, 0.0, 1e-160]),
        "one_entry": np.array([1.0]),
    }
    for name, values in arrays.items():
        paths[name] = tmp_path / f"{name}.npy"
        np.save(paths[name], values)
    # .npy headers that no array has: a word, a negative and a 4001-digit dimension, and no shape
    headers = {"word_dim": ("a", 2), "negative_dim": (-1, 2), "huge_dim": (10**4000, 1), "no_dim": None}
    for name, shape in headers.items():
        paths[name] = tmp_path / f"{name}.npy"
        _npy_header_only(paths[name], shape)
    paths["archive"] = tmp_path / "archive.npy"
    _npz_archive(paths["archive"])
    head, plus = "kind minus-sign\nn 2\nC 2\n", "implicit all-plus n=2 scale=0.5"
    manifests = {
        "undecodable_manifest": "kind \xff\n",
        "unknown_key": head + "seed 0\ncolour red\n",
        "no_seed": head + f"vector 1 {plus}\nvector 2 {plus}\n",
        "n_zero": "kind minus-sign\nn 0\nC 2\nseed 0\n",
        "huge_n": "kind real-search\nn 1000000000000\nC 2\nseed 0\nvector 1 npy vector_1.npy\n"
        "vector 2 npy vector_2.npy\n",
        "huge_C": "kind minus-sign\nn 2\nC 1000000000000\nseed 0\n",
        "missing_vector": head + f"seed 0\nvector 1 {plus}\n",
        "unknown_backing": head + f"seed 0\nvector 1 {plus}\nvector 2 zip vector_2.zip\n",
        "not_its_seed": head + f"seed 0\nvector 1 {plus}\nvector 2 {plus}\n",  # seed 0 has a minus vector
        "infinite_scale": head + "seed 0\nk_star 2\nvector 1 implicit all-plus n=2 scale=inf\n"
        "vector 2 implicit minus-at-index n=2 scale=inf minus_index=1\n",
    }
    for name, text in manifests.items():
        paths[name] = tmp_path / name
        paths[name].mkdir()
        (paths[name] / "manifest.txt").write_bytes(text.encode("latin-1"))
    paths["fresh_dir"] = tmp_path / "fresh"
    paths["missing"] = tmp_path / "missing.npy"
    assert main([arg.format(**paths) for arg in argv]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.strip().count("\n") == 0
    if argv[0] == "encoding-demo" and code == 0:
        assert json.loads(captured.out)["amplitude_single_copy_success"] == 0.5
    # --family and the file pair exclude each other, and are refused before a file is opened
    mixed = "--b" in argv and any(flag in argv for flag in ("--family", "--d", "--copies"))
    if mixed:
        assert captured.err.startswith(("error: --family excludes --a and --b\n",
                                        "error: --d and --copies apply only to --family\n"))
    elif "--family" in argv and "--trials" not in argv:
        assert captured.err.startswith("error: minus-sign pair dimension d^(2N) with d=")
    # a refused density, circuit, vector or manifest file is named; a one-entry vector
    # is a readable file, and what is refused is a test with one outcome
    for flag in ("--a", "--circuit", "--vector", "--instance"):
        if flag in argv and "{one_entry}" not in argv and not mixed:
            path = Path(argv[argv.index(flag) + 1].format(**paths))
            assert captured.err.startswith(f"error: {path / 'manifest.txt' if flag == '--instance' else path}:")
    if "{huge_dim}" in argv:
        assert "not a readable .npy array" in captured.err and len(captured.err) < 300
    if argv[0] == "gen-instance":  # refused before anything is written
        assert not paths["fresh_dir"].exists()


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


def test_importing_the_cli_leaves_scipy_to_the_chi_square_test():
    # a fresh interpreter, so that no other test has imported scipy already
    code = (
        "import sys, sqlab.cli\n"
        "assert 'scipy.special' not in sys.modules, 'scipy.special imported with sqlab.cli'\n"
        "sys.exit(sqlab.cli.main(['sample-test', '--dim', '8', '--draws', '2000']))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pass"] is True


def test_cli_sharp_p(tmp_path, capsys, monkeypatch):
    circuit = tmp_path / "c.txt"
    circuit.write_text("qubits 3\nH 0\nT 1\nCNOT 0 2\n")
    assert main(["sharp-p", "--circuit", str(circuit)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["identity_ok"] is True
    assert payload["abs_diff"] <= 1e-12
    # a wrong reference probability exercises the violation exit code
    build_psi_u = circuit_bridge.build_psi_u

    def shifted(c):
        probe, p_zero = build_psi_u(c)
        return probe, p_zero + 1e-9

    monkeypatch.setattr(circuit_bridge, "build_psi_u", shifted)
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
    assert capsys.readouterr().out == (
        '{"experiment":"encoding-demo","n":6,"C":2,"trials":200,"product_successes":200,'
        '"product_success_rate":1.0,"measurements_per_object":1,'
        '"amplitude_single_copy_success":0.6240195927061527,"seed":4}\n'
    )


_MANIFEST_HEAD = "kind minus-sign\nC 2\nseed 0\n"


@pytest.mark.parametrize(
    "name,text,reason",
    [
        ("circuit.txt", "qubits " + "9" * 5000 + "\n", "longer than"),
        ("circuit.txt", "qubits 1\n" + "G" * 5000 + " 0\n", "unknown gate"),
        ("manifest.txt", _MANIFEST_HEAD + "n " + "9" * 5000 + "\n", "longer than"),
        (
            "manifest.txt",
            _MANIFEST_HEAD + "n 2\nvector 1 implicit all-plus n=2 scale=1\n"
            "vector 2 implicit " + "k" * 5000 + " n=2 scale=1\n",
            "unsupported implicit kind",
        ),
        ("circuit.txt", "qubits " + "9" * 4000 + "\n", "qubits exceed the budget"),
        ("circuit.txt", "qubits 2\nH " + "9" * 4000 + "\n", "out of range"),
        (
            "manifest.txt",
            _MANIFEST_HEAD + "n 2\nvector 1 implicit all-plus n=" + "9" * 4000 + " scale=1\n"
            "vector 2 implicit all-plus n=2 scale=1\n",
            "n must be in [1, 62]",
        ),
        (
            "manifest.txt",
            _MANIFEST_HEAD + "n 2\nvector 1 implicit all-plus n=2 scale=1\nvector 2 npy " + "v" * 5000 + ".npy\n",
            "vector 2: 'vvvv",
        ),
    ],
    ids=["circuit-qubits", "circuit-gate", "manifest-n", "manifest-descriptor", "circuit-qubits-in-digit-limit",
         "circuit-gate-qubit-in-digit-limit", "manifest-descriptor-n-in-digit-limit", "manifest-npy-name"],
)
def test_a_long_token_gives_a_short_refusal(tmp_path, capsys, name, text, reason):
    (tmp_path / name).write_text(text)
    path = str(tmp_path / name)
    argv = {
        "circuit.txt": ["sharp-p", "--circuit", path],
        "manifest.txt": ["solve", "minus-sign", "--instance", str(tmp_path)],
    }[name]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and err.count("\n") == 1
    assert reason in err and "characters)" in err
    assert len(err.encode()) < 300, err
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("value", ["9" * 5000, "x" * 5000], ids=["digits", "letters"])
@pytest.mark.parametrize(
    "argv", [["haar-gap", "--N", "1", "--d"], ["discriminate", "--family", "minus-sign", "--d"]], ids=["list", "int"]
)
def test_a_long_integer_flag_gives_a_short_refusal(capsys, argv, value):
    assert main(argv + [value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: argument --d: ") and err.count("\n") == 1
    assert len(err.encode()) < 300, err
    # only a token that int() would take past the digit limit is called an integer
    assert ("longer than" if value[0] == "9" else "expected an integer") in err


@pytest.mark.parametrize(
    "d,copies", [("4", "9" * 4000), ("1" + "0" * 3000, "2")], ids=["copies-past-the-cap", "sym-dim-past-the-digit-limit"]
)
def test_a_huge_integer_cell_is_a_short_budget_record(capsys, d, copies):
    # the refused N, and the symmetric dimension C(d+1, 2) of about 6000 digits, are quoted, not formatted
    assert main(["haar-gap", "--d", d, "--N", copies]) == 0
    (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert row["error"].startswith("budget-exceeded: ") and len(row["error"]) < 200, row["error"]


def test_a_bound_violation_is_a_record_and_exit_2(tmp_path, capsys, monkeypatch):
    def violate(d, copies, **kwargs):
        raise BoundViolationError(f"negative gap at d={d}, N={copies}")

    monkeypatch.setattr(experiments, "trace_norm_gap", violate)
    out = tmp_path / "gap.csv"
    assert main(["--out", str(out), "haar-gap", "--d", "2", "--N", "1,2"]) == 2
    assert capsys.readouterr() == ("", "")
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert [row["error"] for row in rows] == [
        "bound-violation: negative gap at d=2, N=1",
        "bound-violation: negative gap at d=2, N=2",
    ]


def test_a_failed_moment_operator_invariant_is_a_bound_violation_and_exit_2(tmp_path, capsys, monkeypatch):
    exact = haar_moments._block_counts

    def asymmetric(pairs, runs, s, d):  # one more matching above the diagonal; a 1 x 1 block is unchanged
        count = exact(pairs, runs, s, d)
        return count + np.triu(np.ones_like(count), 1)

    monkeypatch.setattr(haar_moments, "_block_counts", asymmetric)
    out = tmp_path / "gap.csv"
    assert main(["--out", str(out), "haar-gap", "--d", "2,4", "--N", "1,2"]) == 2
    assert capsys.readouterr() == ("", "")
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert [(row["d"], row["N"]) for row in rows] == [("2", "1"), ("2", "2"), ("4", "1"), ("4", "2")]
    for row in rows:
        if row["N"] == "1":
            assert row["error"] == "" and row["gap"] != ""
        else:
            assert row["error"].startswith("bound-violation: moment operator not Hermitian (deviation ")
            assert row["gap"] == ""


def test_haar_gap_names_the_d_or_n_below_one(capsys):
    assert main(["haar-gap", "--d", "0,2", "--N", "1"]) == 1
    assert capsys.readouterr() == ("", "error: d must be at least 1, got 0\n")
    assert main(["haar-gap", "--d", "2", "--N", "1,0"]) == 1
    assert capsys.readouterr() == ("", "error: N must be at least 1, got 0\n")


def test_a_middle_term_below_half_the_gap_is_a_bound_violation(tmp_path, capsys, monkeypatch):
    honest = trace_norm_gap(4, 2)
    shifted = honest.gap / 2 - 1e-6  # breaks gap <= 2 * middle_term by far more than BOUND_SLACK
    # trace_norm_gap builds its scalar as a Fraction and takes middle_term = 1 - sym_dim * scalar
    monkeypatch.setattr(haar_moments, "Fraction", lambda num, den: (1 - Fraction(shifted)) / honest.sym_dim)
    out = tmp_path / "gap.csv"
    assert main(["--out", str(out), "haar-gap", "--d", "4", "--N", "2"]) == 2
    assert capsys.readouterr() == ("", "")
    (row,) = csv.DictReader(io.StringIO(out.read_text()))
    assert row["error"].startswith(f"bound-violation: gap {honest.gap!r} exceeds 2*middle term ")
    assert row["error"].endswith(" at d=4, N=2")


_HAAR_ARGV = ["--seed", "2", "haar-gap", "--d", "2,4", "--N", "1,2", "--mc-samples", "300"]


def test_cli_json_lines_carry_the_csv_values(capsys):
    assert main(_HAAR_ARGV) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert main(["--format", "json-lines", *_HAAR_ARGV]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [list(line) for line in lines] == [list(row) for row in rows]  # same columns in the same order
    for row, line in zip(rows, lines):
        for column, value in line.items():
            if value is None:
                assert row[column] == ""
            elif isinstance(value, float):
                assert float(row[column]) == value
            else:
                assert row[column] == str(value)


def test_cli_timings_add_exactly_the_seconds_column(capsys):
    assert main(_HAAR_ARGV) == 0
    plain = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert main(["--timings", *_HAAR_ARGV]) == 0
    timed = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert list(timed[0]) == [*plain[0], "seconds"]
    assert [{k: v for k, v in row.items() if k != "seconds"} for row in timed] == plain
    assert all(float(row["seconds"]) >= 0.0 for row in timed)


@pytest.mark.parametrize(
    "flag", [["--format", "csv"], ["--format", "json-lines"], ["--timings"]], ids=["csv", "json-lines", "timings"]
)
@pytest.mark.parametrize(
    "argv",
    [
        ["sample-test", "--dim", "8"],
        ["gen-instance", "--kind", "minus-sign", "--n", "3", "--dir", "{dir}/inst"],
        ["solve", "minus-sign", "--instance", "{dir}/inst"],
        ["discriminate", "--family", "minus-sign"],
        ["sharp-p", "--circuit", "{dir}/c.txt"],
        ["encoding-demo", "--n", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_sweep_output_flags_are_refused_outside_the_sweeps(tmp_path, capsys, flag, argv):
    assert main([*flag, *(arg.format(dir=tmp_path) for arg in argv)]) == 1
    assert capsys.readouterr() == ("", "error: --format and --timings apply only to haar-gap and copies-sweep\n")
    assert not (tmp_path / "inst").exists()


def test_out_writes_the_line_stdout_would_get(tmp_path, capsys):
    inst_dir = tmp_path / "inst"
    assert main(["gen-instance", "--kind", "minus-sign", "--n", "5", "--dir", str(inst_dir)]) == 0
    capsys.readouterr()
    printed = _solve_line(capsys, "sample-only", inst_dir)
    out = tmp_path / "solve.json"
    assert main(["--out", str(out), "solve", "sample-only", "--instance", str(inst_dir)]) == 0
    assert capsys.readouterr() == ("", "")
    assert re.sub(r'"elapsed_ns":\d+,', "", out.read_text()) == printed


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["sample-test", "--dim", "8", "--draws", "1000000000"], "--draws"),
        (["solve", "sample-only", "--budget", "1000000000", "--instance", "{inst}"], "--budget"),
    ],
    ids=["sample-test", "solve-sample-only"],
)
def test_a_sample_count_past_the_budget_is_refused_in_one_line(tmp_path, capsys, argv, flag):
    assert main(["gen-instance", "--kind", "minus-sign", "--n", "3", "--dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main([arg.format(inst=tmp_path) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: argument {flag}: value must be in [0, 2^{DENSE_BUDGET_N}], got 1000000000\n"


class _NoDraws:
    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} ran before the count flag was checked")


@pytest.fixture
def no_work_past_parsing(monkeypatch):
    """Make every file read, array build, RNG and the `--out` check fail if a run reaches it."""

    def refuse(name):
        def costly(*args, **kwargs):
            raise AssertionError(f"{name} ran before the count flag was checked")
        return costly

    for module, name in [
        (cli, "_check_out"),
        (quantum_sim, "load_density_operator"),
        (quantum_sim, "minus_sign_product_vectors"),
        (inputs, "load_npy"),
        (inputs, "open_npy"),
        (sq_oracle, "build_dense"),
        (sq_oracle, "build_implicit"),
        (instances, "load_instance"),
        (instances, "generate"),
    ]:
        monkeypatch.setattr(module, name, refuse(name))
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: _NoDraws())


_CAP, _C_CAP = 1 << DENSE_BUDGET_N, instances.MAX_VECTORS
# each count flag of sqlab, in a command that would otherwise read a file or build an array:
# (argv, flag, low, high, the test ids at low - 1 and at high + 1)
_COUNT_FLAGS = [
    (["sample-test", "--dim", "16777216"], "--draws", 0, _CAP, ("sample-test-dim-negative-draws", "sample-test-dim")),
    (["sample-test", "--vector", "v.npy"], "--draws", 0, _CAP, ("sample-test-vector", "sample-test-vector-past-cap")),
    (["sample-test"], "--dim", 1, _CAP, ("dim-0", "dim-past-cap")),
    (["gen-instance", "--kind", "real-search", "--n", "4", "--dir", "inst"], "--C", 2, _C_CAP,
     ("gen-instance-C-1", "gen-instance-C-past-cap")),
    (["solve", "sample-only", "--instance", "inst"], "--budget", 0, _CAP,
     ("solve-budget-negative", "solve-budget-past-cap")),
    # a flag out of range is refused whatever the subcommand uses it for
    (["solve", "minus-sign", "--instance", "inst"], "--budget", 0, _CAP,
     ("minus-sign-budget-negative", "minus-sign-budget-past-cap")),
    (["discriminate", "--a", "a.npy", "--b", "b.npy"], "--trials", 1, _CAP, ("files-trials-0", "files-trials-past-cap")),
    (["discriminate", "--family", "minus-sign", "--d", "4096"], "--trials", 1, _CAP,
     ("family-trials-0", "family-trials-past-cap")),
    (["haar-gap", "--d", "2", "--N", "2"], "--mc-samples", 1, _CAP, ("mc-samples-0", "mc-samples-past-cap")),
    (["encoding-demo", "--n", "3"], "--trials", 1, _CAP, ("encoding-trials-0", "encoding-trials-past-cap")),
    (["encoding-demo", "--n", "3"], "--C", 2, _C_CAP, ("encoding-C-1", "encoding-C-past-cap")),
]


@pytest.mark.parametrize(
    "argv,flag,value,message",
    [
        (argv, flag, value, f"value must be in [{low}, 2^{high.bit_length() - 1}], got {value}")
        for argv, flag, low, high, _ in _COUNT_FLAGS
        for value in (low - 1, high + 1)
    ],
    ids=[test_id for *_, ids in _COUNT_FLAGS for test_id in ids],
)
def test_a_count_flag_is_refused_before_any_file_read_or_array_build(
    capsys, no_work_past_parsing, argv, flag, value, message
):
    assert main([*argv, flag, str(value)]) == 1
    assert capsys.readouterr() == ("", f"error: argument {flag}: {message}\n")


# one command of each subcommand that would run if its seed were accepted
_SEED_COMMANDS = [
    ["sample-test", "--dim", "8"],
    ["gen-instance", "--kind", "minus-sign", "--n", "3", "--dir", "inst"],
    ["solve", "sample-only", "--instance", "inst"],
    ["discriminate", "--family", "minus-sign"],
    ["haar-gap", "--d", "2", "--N", "2", "--mc-samples", "100"],
    ["copies-sweep", "--d", "64"],
    ["sharp-p", "--circuit", "c.txt"],
    ["encoding-demo", "--n", "3"],
]


@pytest.mark.parametrize("argv", _SEED_COMMANDS, ids=[argv[0] for argv in _SEED_COMMANDS])
def test_a_negative_seed_is_refused_by_every_subcommand(capsys, no_work_past_parsing, argv):
    assert sorted(a[0] for a in _SEED_COMMANDS) == sorted(cli._HANDLERS)
    assert main(["--seed", "-1", *argv]) == 1
    assert capsys.readouterr() == ("", "error: argument --seed: value must be at least 0, got -1\n")


def test_cli_missing_instance_dir_is_config_error(capsys):
    assert main(["solve", "minus-sign", "--instance", "/nonexistent/path"]) == 1
