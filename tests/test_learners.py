"""Solver tests: correctness, exact call accounting, and the no-signal baseline."""

import numpy as np
import pytest

from sqlab.instances import (
    dump_instance,
    gen_minus_sign,
    gen_real_vector_search,
    gen_unnormalized_minus,
    load_instance,
)
from sqlab.learners import (
    solve_minus_sign,
    solve_real_search,
    solve_sample_only,
)
from sqlab.sq_oracle import (
    Capability,
    ImplicitVector,
    OracleStats,
    build_dense,
    build_implicit,
)


def _sample_only(instance):
    return [h.restrict({Capability.SAMPLE}) for h in instance.handles]


@pytest.mark.parametrize("gen", [gen_minus_sign, gen_unnormalized_minus])
def test_solve_minus_sign_families(gen):
    for seed in range(50):
        instance = gen(10, 4, seed=seed)
        report = solve_minus_sign(instance.handles)
        assert instance.verify_answer(report.answer)
        assert report.per_handle_stats == (OracleStats(0, 1, 0),) * 4
        assert report.total_calls() == OracleStats(0, 4, 0)


def test_solve_minus_sign_call_counts_independent_of_n():
    small = solve_minus_sign(gen_minus_sign(10, 4, seed=1).handles)
    large = solve_minus_sign(gen_minus_sign(50, 4, seed=1).handles)
    assert small.total_calls() == large.total_calls() == OracleStats(0, 4, 0)


def test_solve_minus_sign_rejects_malformed():
    all_plus = [
        build_implicit(ImplicitVector(kind="all-plus", n=3, scale=1.0)) for _ in range(3)
    ]
    with pytest.raises(ValueError, match="found 0"):
        solve_minus_sign(all_plus)
    two_minus = [
        build_implicit(ImplicitVector(kind="minus-at-index", n=3, scale=1.0, minus_index=1))
        for _ in range(2)
    ]
    with pytest.raises(ValueError, match="found 2"):
        solve_minus_sign(two_minus)


def test_solve_real_search_batch():
    for seed in range(200):
        instance = gen_real_vector_search(10, 4, seed=seed)
        report = solve_real_search(instance.handles)
        assert instance.verify_answer(report.answer)
        assert report.total_calls() == OracleStats(0, 4, 0)


def test_query_only_paths_build_no_sampling_tree(tmp_path):
    dump_instance(gen_real_vector_search(10, 4, seed=3), tmp_path)
    instance = load_instance(tmp_path)  # also regenerates the instance to recover k*
    report = solve_real_search(instance.handles)
    assert instance.verify_answer(report.answer)
    assert not any("cdf" in vars(h.backing) or "guide" in vars(h.backing) for h in instance.handles)
    instance.handles[0].sample(np.random.default_rng(0))
    assert [vars(h.backing).get("cdf", np.empty(0)).size for h in instance.handles] == [1 << 10, 0, 0, 0]
    assert not any("guide" in vars(h.backing) for h in instance.handles)
    instance.handles[0].sample_many(1 << 8, np.random.default_rng(0))  # a batch of d/4 builds the guide
    assert [vars(h.backing).get("guide", np.empty(0)).size for h in instance.handles] == [(1 << 11) + 1, 0, 0, 0]


def test_solve_real_search_tracks_vector_not_position():
    instance = gen_real_vector_search(8, 2, seed=7)
    forward = solve_real_search(instance.handles)
    swapped = solve_real_search(instance.handles[::-1])
    assert forward.answer == 3 - swapped.answer


def test_solve_real_search_tolerance_variant():
    rng = np.random.default_rng(5)
    real_with_dust = rng.standard_normal(8) + 1j * rng.standard_normal(8) * 1e-14
    complex_one = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    handles = [
        build_dense(v / np.linalg.norm(v)) for v in (complex_one, real_with_dust)
    ]
    with pytest.raises(ValueError):
        solve_real_search(handles)  # exact test sees no exactly-real component


def test_solver_stats_are_deltas():
    instance = gen_minus_sign(6, 3, seed=9)
    instance.handles[0].query_norm()  # pre-use the handle
    report = solve_minus_sign(instance.handles)
    assert report.per_handle_stats[0] == OracleStats(0, 1, 0)


def test_sample_only_requires_restricted_handles():
    instance = gen_minus_sign(5, 2, seed=0)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="restricted"):
        solve_sample_only(instance.handles, 10, rng)
    state = rng.bit_generator.state
    for budget in (-1, (1 << 24) + 1):  # one rule refuses the sign and the cap before any draw
        with pytest.raises(ValueError, match=rf"^budget must be in \[0, 2\^24\], got {budget}$"):
            solve_sample_only(_sample_only(instance), budget, rng)
    assert rng.bit_generator.state == state


def test_sample_only_uses_exactly_the_budget():
    instance = gen_minus_sign(8, 3, seed=2)
    handles = _sample_only(instance)
    rng = np.random.default_rng(3)
    report = solve_sample_only(handles, 500, rng)
    assert report.per_handle_stats == (OracleStats(500, 0, 0),) * 3
    assert 1 <= report.answer <= 3


def test_sample_only_budget_zero_guesses_uniformly():
    rng = np.random.default_rng(4)
    counts = np.zeros(4)
    for seed in range(400):
        handles = _sample_only(gen_minus_sign(4, 4, seed=seed))
        counts[solve_sample_only(handles, 0, rng).answer - 1] += 1
    # exchangeable scores: answer uniform over 4; 3 sigma of 100 is ~26
    assert np.all(np.abs(counts - 100) < 60)


def test_sample_only_success_rate_is_chance_level():
    rng = np.random.default_rng(6)
    trials = 400
    hits = 0
    for seed in range(trials):
        instance = gen_minus_sign(10, 2, seed=seed)
        report = solve_sample_only(_sample_only(instance), 1000, rng)
        hits += int(instance.verify_answer(report.answer))
    rate = hits / trials
    assert abs(rate - 0.5) < 0.075  # 3 sigma at 400 trials


def test_sample_only_answers_are_uniform_over_c():
    # answer distribution indistinguishable from uniform over {1..C}
    from sqlab.experiments import chi_square_gof

    rng = np.random.default_rng(7)
    answers = []
    for seed in range(400):
        handles = _sample_only(gen_minus_sign(8, 4, seed=seed))
        answers.append(solve_sample_only(handles, 500, rng).answer)
    _, _, p_value = chi_square_gof(np.array(answers), np.full(4, 0.25))
    assert p_value >= 1e-3


def test_sample_only_detects_an_actually_skewed_handle():
    # sanity check that the statistic is not vacuous: a point mass collides maximally
    skewed = build_dense([1.0, 0.0])
    uniform = build_dense([1.0, 1.0])
    handles = [
        uniform.restrict({Capability.SAMPLE}),
        skewed.restrict({Capability.SAMPLE}),
    ]
    rng = np.random.default_rng(8)
    report = solve_sample_only(handles, 200, rng)
    assert report.answer == 2


def test_wall_time_roughly_independent_of_n():
    import time

    def total_seconds(n):
        instances = [gen_minus_sign(n, 4, seed=s) for s in range(300)]
        for inst in instances[:50]:  # warmup
            solve_minus_sign(inst.handles)
        start = time.perf_counter()
        for inst in instances:
            solve_minus_sign(inst.handles)
        return time.perf_counter() - start

    t10 = total_seconds(10)
    t30 = total_seconds(30)
    assert t30 < 2.0 * t10
