"""Oracle-layer tests: distributions, exactness, gating, counters, timing.

Statistical checks run on fixed seeds, so they are deterministic; the seeds
were not tuned, and any reseeding keeps each 3-sigma assertion valid except
with probability around 1e-3 (chi-square tests run at that significance).
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlab.experiments import chi_square_gof
from sqlab.sq_oracle import (
    ALL_CAPABILITIES,
    Capability,
    CapabilityError,
    ImplicitVector,
    OracleStats,
    build_dense,
    build_implicit,
    content_lines,
    load_dense_vector,
    materialize,
)


def test_point_mass_always_samples_index_one():
    handle = build_dense([1, 0, 0, 0])
    rng = np.random.default_rng(0)
    assert all(handle.sample(rng) == 1 for _ in range(50))


def test_query_norm_examples():
    assert build_dense([0.6, 0.8j]).query_norm() == pytest.approx(1.0, abs=1e-15)
    assert build_dense([3, 4]).query_norm() == pytest.approx(5.0, abs=1e-15)
    s = 1 / math.sqrt(2)
    assert build_dense([s, s]).query_norm() == pytest.approx(1.0, abs=1e-15)


def test_sample_distribution_one_to_four():
    # x = (1, 2i) induces probabilities (1/5, 4/5)
    handle = build_dense([1, 2j])
    rng = np.random.default_rng(11)
    draws = handle.sample_many(100_000, rng)
    freq_two = np.mean(draws == 2)
    assert abs(freq_two - 0.8) < 0.005


def test_sample_frequency_point_six_point_eight():
    # exact distribution (0.36, 0.64); 3-sigma binomial half-width ~ 0.0046
    handle = build_dense([0.6, 0.8j])
    rng = np.random.default_rng(5)
    draws = handle.sample_many(100_000, rng)
    assert abs(np.mean(draws == 2) - 0.64) < 0.005


def test_sample_frequency_symmetric_pair():
    s = 1 / math.sqrt(2)
    handle = build_dense([s, s])
    rng = np.random.default_rng(6)
    draws = handle.sample_many(100_000, rng)
    assert abs(np.mean(draws == 1) - 0.5) < 0.005


def test_build_rejects_bad_vectors():
    with pytest.raises(ValueError, match="zero vector"):
        build_dense([0, 0, 0, 0])
    with pytest.raises(ValueError, match="power of two"):
        build_dense([1, 2, 3])
    with pytest.raises(ValueError):
        build_dense([])


@given(
    st.lists(
        st.complex_numbers(
            min_magnitude=1e-3, max_magnitude=1e6, allow_nan=False, allow_infinity=False
        )
        | st.just(0j),
        min_size=2,
        max_size=16,
    )
)
def test_query_returns_stored_values_bit_for_bit(values):
    size = 1 << (len(values) - 1).bit_length()
    values = (values + [0j] * size)[:size]
    if not any(v != 0 for v in values):
        values[0] = 1.0 + 0j
    handle = build_dense(values)
    stored = handle.backing.entries
    for i in range(size):
        assert handle.query(i + 1) == complex(stored[i])


def test_query_validates_index():
    handle = build_dense([3, 4j])
    assert handle.query(2) == 4j
    with pytest.raises(ValueError, match="out of range"):
        handle.query(0)
    with pytest.raises(ValueError, match="out of range"):
        handle.query(3)


def test_implicit_minus_at_index_large_n_exact():
    spec = ImplicitVector(kind="minus-at-index", n=50, scale=2.0**-25, minus_index=1)
    handle = build_implicit(spec)
    assert handle.query(1) == complex(-(2.0**-25))
    assert handle.query(2) == complex(2.0**-25)
    assert handle.query(1 << 50) == complex(2.0**-25)


def test_implicit_all_plus_norms():
    unit = build_implicit(ImplicitVector(kind="all-plus", n=3, scale=1 / math.sqrt(8)))
    assert unit.query_norm() == pytest.approx(1.0, abs=1e-15)
    flat = build_implicit(ImplicitVector(kind="all-plus", n=4, scale=1.0))
    assert flat.query_norm() == pytest.approx(4.0, abs=1e-15)
    wide = build_implicit(ImplicitVector(kind="all-plus", n=10, scale=1.0))
    assert wide.query(777) == 1.0


def test_implicit_uniform_sampling():
    spec = ImplicitVector(kind="minus-at-index", n=2, scale=0.5, minus_index=1)
    handle = build_implicit(spec)
    assert handle.query(1) == -0.5  # the flipped component at d=4
    rng = np.random.default_rng(3)
    draws = handle.sample_many(40_000, rng)
    _, _, p_value = chi_square_gof(draws, np.full(4, 0.25))
    assert p_value >= 1e-3


def test_implicit_rejects_bad_specs():
    with pytest.raises(ValueError, match="unsupported"):
        ImplicitVector(kind="diagonal", n=3, scale=1.0)
    with pytest.raises(ValueError):
        ImplicitVector(kind="all-plus", n=0, scale=1.0)
    with pytest.raises(ValueError):
        ImplicitVector(kind="minus-at-index", n=2, scale=1.0, minus_index=5)
    with pytest.raises(ValueError):
        ImplicitVector(kind="sign-pattern-product", n=2, scale=1.0, sign_mask=4)


def test_sign_pattern_product_components():
    spec = ImplicitVector(kind="sign-pattern-product", n=3, scale=1.0, sign_mask=0b101)
    handle = build_implicit(spec)
    dense = materialize(spec)
    for i in range(8):
        expected = -1.0 if bin(i & 0b101).count("1") % 2 else 1.0
        assert handle.query(i + 1) == expected
        assert dense[i] == expected


def test_restrict_gates_operations():
    full = build_dense([1, 1j])
    rng = np.random.default_rng(0)

    sample_only = full.restrict({Capability.SAMPLE})
    sample_only.sample(rng)
    with pytest.raises(CapabilityError):
        sample_only.query(1)
    with pytest.raises(CapabilityError):
        sample_only.query_norm()

    both = full.restrict({Capability.SAMPLE, Capability.QUERY_NORM})
    both.sample(rng)
    assert both.query_norm() == pytest.approx(math.sqrt(2))

    with pytest.raises(CapabilityError, match="cannot grant"):
        sample_only.restrict({Capability.QUERY})


def test_stats_counting_and_independence():
    handle = build_dense([1, 2, 3, 4])
    s = handle.stats()
    assert (s.sample_calls, s.query_calls, s.norm_calls) == (0, 0, 0)
    for _ in range(3):
        handle.query(1)
    assert handle.stats().query_calls == 3

    child = handle.restrict(ALL_CAPABILITIES)
    assert child.stats().query_calls == 0
    child.query_norm()
    assert child.stats().norm_calls == 1
    assert handle.stats().norm_calls == 0  # parent unaffected


def test_stats_subtraction():
    handle = build_dense([1, 1])
    before = handle.stats()
    handle.query(1)
    handle.query_norm()
    delta = handle.stats() - before
    assert (delta.sample_calls, delta.query_calls, delta.norm_calls) == (0, 1, 1)
    assert delta.total() == 2


def test_rejected_calls_do_not_count():
    handle = build_dense([1, 1])
    with pytest.raises(ValueError):
        handle.query(5)
    gated = handle.restrict({Capability.QUERY})
    with pytest.raises(CapabilityError):
        gated.query_norm()
    assert handle.stats().total() == 0
    assert gated.stats().total() == 0


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_chi_square_goodness_of_fit_dense(seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    handle = build_dense(values)
    draws = handle.sample_many(100_000, rng)
    _, _, p_value = chi_square_gof(draws, np.abs(values) ** 2)
    assert p_value >= 1e-3


def test_implicit_and_dense_backings_agree():
    spec = ImplicitVector(kind="minus-at-index", n=4, scale=0.25, minus_index=3)
    implicit = build_implicit(spec)
    dense = build_dense(materialize(spec))
    for i in range(1, 17):
        assert implicit.query(i) == dense.query(i)
    assert implicit.query_norm() == pytest.approx(dense.query_norm(), rel=1e-12)

    rng = np.random.default_rng(17)
    probs = np.abs(materialize(spec)) ** 2
    for handle in (implicit, dense):
        draws = handle.sample_many(50_000, rng)
        _, _, p_value = chi_square_gof(draws, probs)
        assert p_value >= 1e-3


def test_prefix_tree_leaves_match_squared_magnitudes():
    rng = np.random.default_rng(23)
    values = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    handle = build_dense(values)
    leaves = handle.backing.prefix_tree.leaf_weights
    np.testing.assert_allclose(leaves, np.abs(values) ** 2, rtol=1e-12)


def test_concurrent_counters_are_exact():
    handle = build_dense(np.ones(16))
    rng_pool = [np.random.default_rng(i) for i in range(8)]

    def hammer(rng):
        for _ in range(250):
            handle.sample(rng)
            handle.query(1)
            handle.query_norm()

    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(hammer, rng_pool))
    s = handle.stats()
    assert (s.sample_calls, s.query_calls, s.norm_calls) == (2000, 2000, 2000)


def _per_draw_seconds(handle, draws, rng):
    start = time.perf_counter()
    handle.sample_many(draws, rng)
    return (time.perf_counter() - start) / draws


def test_sampling_time_scales_gently():
    """Dense sampling is O(log d) descents; implicit is O(poly n).

    Theoretical dense ratio for 2^16 vs 2^10 is 1.6; the bound of 8 leaves
    generous room for scheduler noise.
    """
    rng = np.random.default_rng(0)
    small = build_dense(np.random.default_rng(1).random(1 << 10) + 0.01)
    large = build_dense(np.random.default_rng(2).random(1 << 16) + 0.01)
    _per_draw_seconds(small, 1000, rng)  # warmup
    t_small = _per_draw_seconds(small, 200_000, rng)
    t_large = _per_draw_seconds(large, 200_000, rng)
    assert t_large < 8 * t_small

    shallow = build_implicit(ImplicitVector(kind="all-plus", n=10, scale=1.0))
    deep = build_implicit(ImplicitVector(kind="all-plus", n=40, scale=1.0))
    t_shallow = _per_draw_seconds(shallow, 200_000, rng)
    t_deep = _per_draw_seconds(deep, 200_000, rng)
    assert t_deep < 8 * max(t_shallow, 1e-9)


def write_legacy_dense_vector(path, values):
    """Write a vector in the text format `load_dense_vector` reads: one `%.17g` pair per line.

    Instance directories used to hold their dense vectors in this format;
    tests use it to build legacy directories.
    """
    arr = np.asarray(values, dtype=np.complex128)
    with open(path, "w") as fh:
        fh.write("# dense vector: one component per line as `<re> <im>`\n")
        for z in arr:
            fh.write(f"{z.real:.17g} {z.imag:.17g}\n")


def test_dense_vector_file_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    values = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    values[:6] = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308j, 1.0, complex(-0.0, -0.0)]
    values[8:12] = values[8:12].real  # exact-zero imaginary parts
    path = tmp_path / "vec.txt"
    write_legacy_dense_vector(path, values)
    loaded = load_dense_vector(path)
    assert loaded.tobytes() == values.tobytes()  # bit-exact, signed zeros included


def test_dense_vector_file_parsing(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("# comment\n1.5 0\n-2e-3 7\n")
    loaded = load_dense_vector(path)
    assert loaded.tolist() == [1.5 + 0j, -0.002 + 7j]
    bad = tmp_path / "bad.txt"
    bad.write_text("1.5\n")
    with pytest.raises(ValueError, match="expected"):
        load_dense_vector(bad)


def test_content_lines_skip_blank_and_comment_lines():
    lines = ["# head", "", "  \t", "a  b\tc", "  #x y", "x # y", "#", "1"]
    assert list(content_lines(lines)) == [(4, ["a", "b", "c"]), (6, ["x", "#", "y"]), (8, ["1"])]


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=200))
def test_sample_many_count_matches_budget(exp, k):
    handle = build_dense(np.arange(1, (1 << exp) + 1, dtype=float))
    rng = np.random.default_rng(99)
    draws = handle.sample_many(k, rng)
    assert draws.shape == (k,)
    assert handle.stats().sample_calls == k
    if k:
        assert draws.min() >= 1 and draws.max() <= handle.dim


_STREAM_CASES = [
    pytest.param(lambda: build_dense([0.5j]), id="dense-1"),
    pytest.param(lambda: build_dense([0, 1, 0, 0, 2, 0, 0, 3]), id="dense-8-zero-leaves"),
    pytest.param(lambda: build_dense(np.random.default_rng(41).random(1 << 20)), id="dense-2^20"),
    pytest.param(
        lambda: build_implicit(ImplicitVector(kind="all-plus", n=3, scale=1.0)), id="all-plus-n3"
    ),
    pytest.param(
        lambda: build_implicit(
            ImplicitVector(kind="minus-at-index", n=62, scale=1.0, minus_index=1 << 62)
        ),
        id="minus-at-index-n62",
    ),
    pytest.param(
        lambda: build_implicit(
            ImplicitVector(kind="sign-pattern-product", n=62, scale=2.0, sign_mask=(1 << 62) - 1)
        ),
        id="sign-pattern-n62",
    ),
]


@pytest.mark.parametrize("make", _STREAM_CASES)
def test_single_sample_matches_batch_of_one(make):
    single, batched = make(), make()
    rng_single, rng_batched = np.random.default_rng(7), np.random.default_rng(7)
    draws = [single.sample(rng_single) for _ in range(1000)]
    expected = [int(batched.sample_many(1, rng_batched)[0]) for _ in range(1000)]
    assert all(type(i) is int for i in draws)
    assert draws == expected
    assert rng_single.bit_generator.state == rng_batched.bit_generator.state
    assert single.stats() == batched.stats() == OracleStats(sample_calls=1000)


def test_single_sample_is_gated_and_uncounted_without_capability():
    for full in (build_dense([1, 2]), build_implicit(ImplicitVector(kind="all-plus", n=5, scale=1.0))):
        gated = full.restrict({Capability.QUERY})
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(CapabilityError):
            gated.sample(rng)
        assert gated.stats().total() == 0
        assert rng.bit_generator.state == state


def test_prefix_tree_is_built_on_first_sample_and_shared():
    handle = build_dense([1, 2, 3, 4])
    child = handle.restrict({Capability.SAMPLE})
    handle.query(1)
    handle.query_norm()
    assert "prefix_tree" not in vars(handle.backing)
    child.sample(np.random.default_rng(0))
    assert child.backing is handle.backing
    assert "prefix_tree" in vars(handle.backing)
