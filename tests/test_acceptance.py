"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines live. Every statistical check runs on a fixed seed, so the suite is
deterministic; the quoted tolerances are the acceptance thresholds.
"""

import math
import time

import numpy as np

from sqlab.circuit_bridge import (
    amplitude_single_copy_success,
    build_psi_u,
    measure_product_encoding,
)
from sqlab.experiments import (
    ExperimentConfig,
    chi_square_gof,
    linear_fit,
    render_records,
    run_sweep,
)
from sqlab.haar_moments import mc_moment, real_moment, trace_norm_gap
from sqlab.instances import gen_minus_sign, gen_real_vector_search
from sqlab.learners import solve_minus_sign, solve_real_search, solve_sample_only
from sqlab.quantum_sim import (
    discriminate_mixed_pair,
    min_copies_minus_sign,
    ncopy_minus_sign_tracenorm,
    ncopy_minus_sign_tracenorm_dense,
)
from sqlab.sq_oracle import Capability, OracleStats, build_dense

from _fixtures import forward_run, random_circuit, random_density_operator


def _finish(num: int, name: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget:.0f}s"
    print(f"ACCEPTANCE {num} {name}: PASS ({elapsed:.2f}s / budget {budget:.0f}s)")


def test_criterion_1_sampler_fidelity():
    started = time.perf_counter()
    handle = build_dense([0.6, 0.8j])
    rng = np.random.default_rng(1001)
    draws = handle.sample_many(100_000, rng)
    frequency = float(np.mean(draws == 2))
    assert abs(frequency - 0.64) <= 0.005

    for trial in range(20):
        vec_rng = np.random.default_rng(2000 + trial)
        values = vec_rng.standard_normal(64) + 1j * vec_rng.standard_normal(64)
        vector = build_dense(values)
        samples = vector.sample_many(100_000, vec_rng)
        _, _, p_value = chi_square_gof(samples, np.abs(values) ** 2)
        assert p_value >= 1e-3, f"chi-square rejected at vector {trial} (p={p_value:.2e})"
    _finish(1, "SQ sampler fidelity", started, 5.0)


def test_criterion_2_constant_query_solvers():
    started = time.perf_counter()
    for seed in range(1000):
        instance = gen_minus_sign(10, 4, seed=seed)
        report = solve_minus_sign(instance.handles)
        assert instance.verify_answer(report.answer)
        assert report.per_handle_stats == (OracleStats(0, 1, 0),) * 4
    for seed in range(1000):
        instance = gen_real_vector_search(10, 4, seed=seed)
        report = solve_real_search(instance.handles)
        assert instance.verify_answer(report.answer)
        assert report.per_handle_stats == (OracleStats(0, 1, 0),) * 4

    batches = {n: [gen_minus_sign(n, 4, seed=s) for s in range(1000)] for n in (10, 30)}
    for batch in batches.values():
        for inst in batch[:100]:  # warmup
            solve_minus_sign(inst.handles)
    fastest = {n: math.inf for n in batches}
    for _ in range(5):  # the sizes alternate, and each keeps its fastest batch, so host load cannot favour one
        for n, batch in batches.items():
            fastest[n] = min(fastest[n], sum(solve_minus_sign(inst.handles).elapsed_ns for inst in batch))
    t10, t30 = fastest[10], fastest[30]
    assert t30 < 2.0 * t10, f"n=30 solves took {t30 / t10:.2f}x the n=10 time"
    _finish(2, "constant-query solvers", started, 30.0)


def test_criterion_3_sample_only_carries_no_signal():
    started = time.perf_counter()
    rng = np.random.default_rng(3001)
    trials = 1000
    hits = 0
    for seed in range(trials):
        instance = gen_minus_sign(10, 2, seed=seed)
        restricted = [h.restrict({Capability.SAMPLE}) for h in instance.handles]
        report = solve_sample_only(restricted, 10_000, rng)
        assert report.per_handle_stats == (OracleStats(10_000, 0, 0),) * 2
        hits += int(instance.verify_answer(report.answer))
    rate = hits / trials
    assert abs(rate - 0.5) <= 0.05, f"sample-only rate {rate} leaves chance level"
    _finish(3, "restricted access at chance level", started, 60.0)


def test_criterion_4_discrimination_simulation_matches_formula():
    started = time.perf_counter()
    rng = np.random.default_rng(4001)
    for _ in range(10):
        dim = int(rng.integers(2, 17))
        rho_a = random_density_operator(dim, rng)
        rho_b = random_density_operator(dim, rng)
        _, predicted, empirical = discriminate_mixed_pair(rho_a, rho_b, 10_000, rng)
        sigma = math.sqrt(predicted * (1 - predicted) / 10_000)
        assert abs(empirical - predicted) <= 3 * sigma + 1e-12
    _finish(4, "optimal-measurement simulation", started, 60.0)


def test_criterion_5_copy_complexity_scales_linearly():
    started = time.perf_counter()
    for d in (2, 3, 4):
        for copies in (1, 2, 3):
            closed = ncopy_minus_sign_tracenorm(d, copies)
            dense = ncopy_minus_sign_tracenorm_dense(d, copies)
            assert abs(closed - dense) <= 1e-9

    dims = [64 << k for k in range(7)]  # 64 ... 4096
    minimal = [min_copies_minus_sign(d) for d in dims]
    _, _, r_squared = linear_fit(dims, minimal)
    assert r_squared >= 0.99, f"linear fit R^2 = {r_squared}"
    assert minimal == sorted(minimal)
    _finish(5, "N-copy trace norm and linear copy scaling", started, 60.0)


def test_criterion_6_haar_moment_gap_grid():
    started = time.perf_counter()
    for d in (2, 4, 8, 16):
        for copies in (1, 2, 3, 4):
            e_real = real_moment(d, copies)
            assert float(np.max(np.abs(e_real.matrix - e_real.matrix.T))) <= 1e-10
            assert float(np.min(e_real.eigenvalues)) >= -1e-10
            assert abs(float(np.trace(e_real.matrix)) - 1.0) <= 1e-10

            report = trace_norm_gap(d, copies)
            if copies == 1:
                assert report.gap < 1e-10
            assert 0.0 <= report.gap <= report.bound_two_term + 1e-9
            assert report.bound_two_term <= report.bound_final + 1e-9
            assert report.o_rest_min_eig >= -1e-9

    exact_gap = trace_norm_gap(2, 2).gap
    assert abs(exact_gap - 1 / 3) <= 1e-9

    rng = np.random.default_rng(6001)
    mc_real = mc_moment(2, 2, 1_000_000, "real", rng)
    mc_complex = mc_moment(2, 2, 1_000_000, "complex", rng)
    assert float(np.max(np.abs(mc_real - real_moment(2, 2).matrix))) <= 5e-3
    assert float(np.max(np.abs(mc_complex - np.eye(3) / 3))) <= 5e-3
    mc_gap = float(np.sum(np.abs(np.linalg.eigvalsh(mc_complex - mc_real))))
    assert abs(mc_gap - 1 / 3) <= 5e-3
    _finish(6, "moment-gap bound chain on the (d, N) grid", started, 600.0)


def test_criterion_7_probe_state_amplitude_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(7001)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        depth = int(rng.integers(0, 21))
        circuit = random_circuit(n, depth, rng)
        handle = build_dense(build_psi_u(circuit)[0])
        # p_zero from a separate forward run of U, not the probe's own
        state = forward_run(circuit)
        deviation = abs(handle.query(1) - np.sum(np.abs(state[: state.size // 2]) ** 2))
        assert deviation <= 1e-12
    _finish(7, "probe-state amplitude identity", started, 60.0)


def test_criterion_8_encoding_contrast():
    started = time.perf_counter()
    rng = np.random.default_rng(8001)
    # a product-encoded object is its first factor, the one qubit the measurement reads
    plus, minus = (math.sqrt(0.5), math.sqrt(0.5)), (math.sqrt(0.5), -math.sqrt(0.5))
    successes = 0
    for _ in range(1000):
        k_star = int(rng.integers(1, 3))
        encoded = [minus if k == k_star else plus for k in (1, 2)]
        successes += int(measure_product_encoding(encoded) == k_star)
    assert successes == 1000

    assert amplitude_single_copy_success(10) <= 0.54
    curve = [amplitude_single_copy_success(n) for n in range(2, 21)]
    assert all(a > b for a, b in zip(curve, curve[1:]))
    assert curve[-1] > 0.5  # decreasing toward, never below, chance level
    _finish(8, "product vs amplitude encoding", started, 60.0)


def test_criterion_9_sweeps_are_byte_identical():
    started = time.perf_counter()
    gap_config = ExperimentConfig(
        subcommand="haar-gap", d_values=(2, 4, 8), copies_values=(1, 2), mc_samples=20_000, seed=9
    )
    first = render_records(run_sweep(gap_config), "csv")
    second = render_records(run_sweep(gap_config), "csv")
    assert first.encode() == second.encode()

    copies_config = ExperimentConfig(subcommand="copies-sweep", d_values=(64, 256, 1024), seed=9)
    assert (
        render_records(run_sweep(copies_config), "json-lines").encode()
        == render_records(run_sweep(copies_config), "json-lines").encode()
    )
    _finish(9, "byte-identical sweep reruns", started, 60.0)
