#!/usr/bin/env python3
"""Time sqlab layer by layer: exact and Monte Carlo Haar moments, the dense sampler and the circuit simulator.

Every time is the best of REPEATS = 15 timed calls after one warm-up call,
with any setup untimed. The JSON holds the platform and one section per layer:
- "real_moment": for the 19 exact cells of the benchmark's `bounds_grid`
  workload and six guard cells (large admitted cells for N = 8, 6, 4, 3, 2,
  1), `real_moment` and `MomentOperator` rebuilt from the finished blocks:
  its row-partition, symmetry, trace and PSD checks and its eigensolves.
  Assembly is the difference.
- "monte_carlo": for the four Monte Carlo cells of `bounds_grid`, one
  `mc_moment` estimate of MC_SAMPLES = 20 000 samples, real and complex, and
  the normalization alone (`_normalize_rows`) on a fresh copy of MC_SAMPLES
  draws of each field.
- "sampler": on a Haar-random complex vector of DIM = 2^20 entries, building
  the running sums (`DenseVector.cdf`) and the guide table over built running
  sums (`DenseVector.guide`); `sample_many(BATCH)` with BATCH = 2^19, at
  least d/4 draws, which walks the guide table, and `sample_many(SMALL_BATCH)`
  with SMALL_BATCH = 2^14, fewer than d/4, which binary-searches its sorted
  points, each on a fresh handle (so the first includes both builds and the
  second the running sums) and on a built handle; SINGLE_CALLS = 1000
  `sample()` calls; the tracemalloc peaks of a first Sample (the running
  sums only), of a first BATCH (both tables) and of a BATCH on a built handle;
  QUERIES = 1000 `query()` calls on that dense handle and on an implicit
  sign-pattern vector of 2^62 entries; and the solvers at the benchmark's
  `sq_search` sizes, on C = 4 implicit minus-sign vectors of 2^10 entries:
  `solve_minus_sign`, and `solve_sample_only` with the vectors restricted to
  Sample and a budget of 1000 draws per vector.
- "circuit": `build_psi_u` on CIRCUITS = 3 circuits of QUBITS = 16 qubits and
  GATES = 200 gates, drawn by this script's seeded generator with the
  benchmark's `cli_session` gate mix (each of H, T, S, X, Z and CNOT equally
  likely, qubits uniform); and, for each gate kind, `build_psi_u` on a
  GATES-gate circuit of that kind alone over 2*GATES = 400: the time per gate
  application, U and U^dag each applying every gate once.
Run as a script, it pins BLAS to one thread before numpy is imported, so its
figures do not move with the thread count; the header records the setting.
The JSON goes to --out (default BENCH_layers.json); run it on each tree to
compare, on one machine, with sqlab importable (installed, or PYTHONPATH=src
from the root of the checkout).
An --out that cannot be written is refused with one `error:` line on stderr
and exit code 1, before any work.
"""

import json
import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path

if __name__ == "__main__":  # before numpy is first imported, which reads the thread count once
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np

from sqlab.circuit_bridge import Circuit, Gate, build_psi_u
from sqlab.cli import _ArgumentParser, _check_out, _write_out  # the sqlab command line's rules
from sqlab.haar_moments import MomentOperator, _normalize_rows, mc_moment, real_moment
from sqlab.instances import gen_minus_sign, haar_unit_vector
from sqlab.learners import solve_minus_sign, solve_sample_only
from sqlab.sq_oracle import Capability, DenseVector, ImplicitVector, build_dense, build_implicit

REPEATS = 15
BOUNDS_GRID_CELLS = [(d, n) for d in (2, 4, 8, 16) for n in (1, 2, 3, 4)] + [(12, 4), (8, 6), (6, 8)]
GUARD_CELLS = [(9, 8), (12, 6), (24, 4), (40, 3), (199, 2), (2000, 1)]
MC_CELLS = [(2, 2), (3, 2), (4, 2), (2, 3)]
MC_SAMPLES = 20_000
DIM = 1 << 20
BATCH = 1 << 19
SMALL_BATCH = 1 << 14
SINGLE_CALLS = 1000
QUERIES = 1000
SOLVE_N, SOLVE_C, SOLVE_BUDGET = 10, 4, 1000
QUBITS, GATES, CIRCUITS = 16, 200, 3
GATE_KINDS = ("H", "T", "S", "Z", "X", "CNOT")


def _best(call, setup=lambda: None) -> float:
    """Fastest of REPEATS timed `call(setup())`, after one warm-up; `setup()` runs untimed."""
    call(setup())
    best = float("inf")
    for _ in range(REPEATS):
        arg = setup()
        t0 = time.perf_counter()
        call(arg)
        best = min(best, time.perf_counter() - t0)
    return best


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _moment_cell(d: int, copies: int) -> dict:
    op = real_moment(d, copies)
    total = _best(lambda _: real_moment(d, copies))
    checks = _best(lambda _: MomentOperator(d=d, N=copies, blocks=op.blocks))
    return {"d": d, "N": copies, "real_moment_s": total, "moment_operator_s": checks, "assembly_s": total - checks}


def _real_moment() -> dict:
    grid = [_moment_cell(d, n) for d, n in BOUNDS_GRID_CELLS]
    return {
        "bounds_grid_total": {
            key: sum(c[key] for c in grid) for key in ("real_moment_s", "moment_operator_s", "assembly_s")
        },
        "bounds_grid": grid,
        "guard": [_moment_cell(d, n) for d, n in GUARD_CELLS],
    }


def _monte_carlo() -> dict:
    rng = np.random.default_rng(3)
    cells = []
    for d, n in MC_CELLS:
        cell = {"d": d, "N": n}
        for field in ("real", "complex"):
            draws = rng.standard_normal((MC_SAMPLES, d))
            if field == "complex":
                draws = draws + 1j * rng.standard_normal((MC_SAMPLES, d))
            cell[f"{field}_ms"] = _best(lambda _: mc_moment(d, n, MC_SAMPLES, field, rng)) * 1e3
            cell[f"{field}_normalize_ms"] = _best(_normalize_rows, setup=draws.copy) * 1e3
        cells.append(cell)
    keys = ("real_ms", "complex_ms", "real_normalize_ms", "complex_normalize_ms")
    return {"samples": MC_SAMPLES, "total": {key: sum(c[key] for c in cells) for key in keys}, "cells": cells}


def _sampler() -> dict:
    values = haar_unit_vector(DIM, "complex", np.random.default_rng(0))
    rng = np.random.default_rng(1)

    def built_cdf():
        vec = DenseVector.from_values(values)
        vec.cdf
        return vec

    cdf_s = _best(lambda vec: vec.cdf, setup=lambda: DenseVector.from_values(values))
    guide_s = _best(lambda vec: vec.guide, setup=built_cdf)
    first_batch_s = _best(lambda handle: handle.sample_many(BATCH, rng), setup=lambda: build_dense(values))
    first_small_s = _best(lambda handle: handle.sample_many(SMALL_BATCH, rng), setup=lambda: build_dense(values))
    handle = build_dense(values)
    handle.sample_many(BATCH, rng)
    batch_s = _best(lambda _: handle.sample_many(BATCH, rng))
    small_s = _best(lambda _: handle.sample_many(SMALL_BATCH, rng))
    single_s = _best(lambda _: [handle.sample(rng) for _ in range(SINGLE_CALLS)])
    fresh, fresh_batch = build_dense(values), build_dense(values)
    spec = ImplicitVector(kind="sign-pattern-product", n=62, scale=2.0**-31, sign_mask=(1 << 61) + 1)
    implicit = build_implicit(spec)
    dense_queries = rng.integers(1, DIM + 1, size=QUERIES).tolist()
    implicit_queries = rng.integers(1, implicit.dim + 1, size=QUERIES).tolist()
    dense_query_s = _best(lambda _: [handle.query(i) for i in dense_queries])
    implicit_query_s = _best(lambda _: [implicit.query(i) for i in implicit_queries])
    minus = gen_minus_sign(SOLVE_N, SOLVE_C, 0).handles
    sample_only = [h.restrict({Capability.SAMPLE}) for h in minus]
    query_solve_s = _best(lambda _: solve_minus_sign(minus))
    sample_only_solve_s = _best(lambda _: solve_sample_only(sample_only, SOLVE_BUDGET, rng))
    return {
        "dim": DIM,
        "batch": BATCH,
        "small_batch": SMALL_BATCH,
        "single_calls": SINGLE_CALLS,
        "queries": QUERIES,
        "solve": {"n": SOLVE_N, "C": SOLVE_C, "budget": SOLVE_BUDGET},
        "cdf_build_ns_per_entry": cdf_s / DIM * 1e9,
        "guide_build_ns_per_entry": guide_s / DIM * 1e9,
        "first_batch_ns_per_draw": first_batch_s / BATCH * 1e9,
        "batch_ns_per_draw": batch_s / BATCH * 1e9,
        "first_small_batch_ns_per_draw": first_small_s / SMALL_BATCH * 1e9,
        "small_batch_ns_per_draw": small_s / SMALL_BATCH * 1e9,
        "sample_call_us": single_s / SINGLE_CALLS * 1e6,
        "first_sample_peak_bytes": _peak_bytes(lambda: fresh.sample(rng)),
        "first_batch_peak_bytes": _peak_bytes(lambda: fresh_batch.sample_many(BATCH, rng)),
        "batch_peak_bytes": _peak_bytes(lambda: handle.sample_many(BATCH, rng)),
        "dense_query_ns": dense_query_s / QUERIES * 1e9,
        "implicit_query_ns": implicit_query_s / QUERIES * 1e9,
        "query_solve_us": query_solve_s * 1e6,
        "sample_only_solve_us": sample_only_solve_s * 1e6,
    }


def _random_circuit(kinds, rng: np.random.Generator) -> Circuit:
    """GATES gates, each of a kind drawn uniformly from `kinds`, on uniform qubits (a CNOT on two distinct ones)."""
    gates = []
    for _ in range(GATES):
        name = kinds[int(rng.integers(len(kinds)))]
        count = 2 if name == "CNOT" else 1
        gates.append(Gate(name, tuple(int(q) for q in rng.choice(QUBITS, size=count, replace=False))))
    return Circuit(n=QUBITS, gates=tuple(gates))


def _circuit() -> dict:
    rng = np.random.default_rng(2)
    mixed = [_random_circuit(GATE_KINDS, rng) for _ in range(CIRCUITS)]
    single = {kind: _random_circuit((kind,), rng) for kind in GATE_KINDS}
    return {
        "qubits": QUBITS,
        "gates": GATES,
        "build_psi_u_ms": [_best(lambda _: build_psi_u(c)) * 1e3 for c in mixed],
        "gate_us": {kind: _best(lambda _: build_psi_u(c)) / (2 * GATES) * 1e6 for kind, c in single.items()},
    }


def main() -> int:
    parser = _ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_layers.json")

    try:
        args = parser.parse_args()
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        _check_out(args.out)
        report = {
            "repeats": REPEATS,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),  # None: numpy's default
            "real_moment": _real_moment(),
            "monte_carlo": _monte_carlo(),
            "sampler": _sampler(),
            "circuit": _circuit(),
        }
        _write_out(json.dumps(report, indent=1) + "\n", args.out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    totals, sampler, circuit = report["real_moment"]["bounds_grid_total"], report["sampler"], report["circuit"]
    mc = report["monte_carlo"]["total"]
    print(f"wrote the real_moment, monte_carlo, sampler and circuit layers to {args.out}")
    print(f"bounds_grid cells: real_moment {totals['real_moment_s'] * 1e3:.2f} ms, "
          f"of which assembly {totals['assembly_s'] * 1e3:.2f} ms")
    print(f"bounds_grid Monte Carlo cells: mc_moment {mc['real_ms']:.2f} ms (real) and {mc['complex_ms']:.2f} ms "
          f"(complex), of which normalization {mc['real_normalize_ms']:.2f} and {mc['complex_normalize_ms']:.2f} ms")
    print(f"sampler: builds {sampler['cdf_build_ns_per_entry']:.1f} + {sampler['guide_build_ns_per_entry']:.1f} ns "
          f"per entry, batches {sampler['batch_ns_per_draw']:.1f} and {sampler['small_batch_ns_per_draw']:.1f} ns "
          f"per draw, sample() {sampler['sample_call_us']:.2f} us, query() {sampler['dense_query_ns']:.0f} "
          f"(dense) and {sampler['implicit_query_ns']:.0f} ns (implicit), solves {sampler['query_solve_us']:.1f} us "
          f"(query) and {sampler['sample_only_solve_us']:.0f} us (sample-only)")
    print("circuit: build_psi_u " + " / ".join(f"{ms:.1f}" for ms in circuit["build_psi_u_ms"]) + " ms, per gate "
          + ", ".join(f"{kind} {us:.1f}" for kind, us in circuit["gate_us"].items()) + " us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
