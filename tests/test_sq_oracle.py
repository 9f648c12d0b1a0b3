"""Oracle-layer tests: distributions, exactness, gating, counters, timing.

Statistical checks run on fixed seeds, so they are deterministic; the seeds
were not tuned, and any reseeding keeps each 3-sigma assertion valid except
with probability around 1e-3 (chi-square tests run at that significance).
"""

import hashlib
import math
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlab import sq_oracle
from sqlab.experiments import chi_square_gof
from sqlab.instances import haar_unit_vector
from sqlab.sq_oracle import (
    ALL_CAPABILITIES,
    DENSE_BUDGET_N,
    Capability,
    CapabilityError,
    ImplicitVector,
    OracleStats,
    build_dense,
    build_implicit,
    content_lines,
    load_npy,
    materialize,
    parse_int,
    quoted,
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
    # the largest scale served at n=62, whose norm is the largest finite float
    top = build_implicit(ImplicitVector(kind="all-plus", n=62, scale=np.finfo(np.float64).max / 2**31))
    assert top.query_norm() == np.finfo(np.float64).max


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


@pytest.mark.parametrize(
    "scale,n,refusal",
    [
        (math.inf, 2, r"^scale must be positive and finite, got inf$"),
        (math.nan, 2, r"^scale must be positive and finite, got nan$"),
        (0.0, 2, r"^scale must be positive and finite, got 0\.0$"),
        (1e300, 62, r"^the norm scale\*sqrt\(2\^n\) overflows at scale=1e\+300, n=62$"),
    ],
    ids=["inf", "nan", "zero", "norm-overflow"],
)
def test_implicit_refuses_a_non_finite_scale_or_an_overflowing_norm(scale, n, refusal):
    with pytest.raises(ValueError, match=refusal):
        ImplicitVector(kind="all-plus", n=n, scale=scale)


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
    with pytest.raises(ValueError, match=rf"^refusing to materialize 2\^{DENSE_BUDGET_N + 1} entries"):
        materialize(ImplicitVector(kind="all-plus", n=DENSE_BUDGET_N + 1, scale=1.0))

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
    assert handle.backing.cdf.tobytes() == np.cumsum(values.real**2 + values.imag**2).tobytes()


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
    """A dense draw is a binary search over d running sums; implicit is O(poly n).

    Theoretical dense ratio for 2^16 vs 2^10 is at most 1.6 (log2 d), and the
    sort of the batch costs the same at both sizes; the bound of 8 leaves
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


def test_dense_vector_file_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    values = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    values[:6] = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308j, 1.0, complex(-0.0, -0.0)]
    values[8:12] = values[8:12].real  # exact-zero imaginary parts
    path = tmp_path / "vec.npy"
    np.save(path, values)
    loaded = load_npy(path, 1, 16)
    assert loaded.tobytes() == values.tobytes()  # bit-exact, signed zeros included


def test_dense_vector_file_parsing(tmp_path):
    # every numeric dtype is read as complex128; any other dtype or shape is refused, naming the file
    path = tmp_path / "vec.npy"
    for values in (np.array([3, -2], dtype=np.int8), np.array([1.5, -2e-3], dtype=">f4"), np.array([1 + 7j, 0j])):
        np.save(path, values)
        loaded = load_npy(path, 1, 2)
        assert loaded.dtype == np.complex128 and loaded.tolist() == values.astype(np.complex128).tolist()
    for values in (np.array([True, False]), np.array(["1", "0"]), np.full((2, 1), 0.5)):
        np.save(path, values)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: expected a 1-d numeric array, got shape"):
            load_npy(path, 1, 2)


def test_dense_vector_file_is_refused_past_the_component_cap(tmp_path):
    path = tmp_path / "vec.npy"
    np.save(path, np.arange(4))
    assert load_npy(path, 1, 4).size == 4
    np.save(path, np.arange(6))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: 6 entries exceed the cap of 4$"):
        load_npy(path, 1, 4)


def test_content_lines_skip_blank_and_comment_lines():
    lines = ["# head", "", "  \t", "a  b\tc", "  #x y", "x # y", "#", "1"]
    assert list(content_lines(lines)) == [(4, ["a", "b", "c"]), (6, ["x", "#", "y"]), (8, ["1"])]


def test_refusals_quote_a_bounded_prefix_and_parse_int_refuses_in_its_own_words():
    assert quoted("dim x") == "'dim x'"
    assert quoted("y" * 5000) == repr("y" * 40) + "... (5000 characters)"
    # past Python's int-to-str digit limit, where str() itself refuses
    assert quoted(-(10**6000)) == repr("-1" + "0" * 38) + "... (6002 characters)"
    assert parse_int("-12") == -12
    with pytest.raises(ValueError, match=r"^expected an integer, got 'x'$"):
        parse_int("x")
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ValueError, match=rf"\({limit + 1} characters\) is longer than {limit} digits$"):
        parse_int("9" * (limit + 1))
    assert parse_int("9" * limit) == 10**limit - 1


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
    assert "cdf" not in vars(handle.backing)
    child.sample(np.random.default_rng(0))
    assert child.backing is handle.backing
    assert "cdf" in vars(handle.backing)


# sha256 of `sample_many(2**16)` and of 1000 `sample()` draws, recorded with the
# prefix-sum tree that drew them before the running sums did
_PINNED_STREAMS = [
    pytest.param(
        lambda: haar_unit_vector(1 << 20, "complex", np.random.default_rng(31)),
        "3b8f5fae6acce06322d37e907b3d981312b74c50ec6e72394be913c1bfed7f15",
        "f49525141a5aecb86cf50cc4e90091f60ae9d9f95d36d93ecdd30595d7c23a60",
        id="haar-2^20",
    ),
    pytest.param(
        lambda: [0, 1, 0, 0, 2, 0, 0, 3],
        "bb523890914f56f9c36c6aa62b044116a8a42f6548d04b8bf5a4befadfc8ca46",
        "f87b93172fba5f59228ac6cef78fc148bafd0b0e0a88525855b3a3506ff9432f",
        id="dense-8-zero-leaves",
    ),
    pytest.param(
        lambda: np.exp(5 * np.random.default_rng(32).standard_normal(1 << 12)),
        "ed7a91a31258fcabadedd2d1bcd79701f8af5b544ea1f1e57a378a6e48855c2b",
        "4bb6eec28b833e4c8c66c13054585117e3953a066dbc5632e6c5fef787117026",
        id="heavy-tailed-2^12",
    ),
    pytest.param(
        lambda: np.ones(1 << 10),
        "1dfad62d659396cdd860d58eb76977c8b711eefa6c731cf5fe69eecd0f1351af",
        "dcb846fabfbe66a3b50cdeb5ade0cd92ae7ed3247fceb46ef04b2bc3928955fb",
        id="uniform-2^10",
    ),
]


@pytest.mark.parametrize("make,many_sha,single_sha", _PINNED_STREAMS)
def test_draws_are_pinned(make, many_sha, single_sha):
    handle = build_dense(make())
    many = handle.sample_many(1 << 16, np.random.default_rng(7))
    rng = np.random.default_rng(8)
    single = np.array([handle.sample(rng) for _ in range(1000)], dtype="<i8")
    assert hashlib.sha256(many.astype("<i8").tobytes()).hexdigest() == many_sha
    assert hashlib.sha256(single.tobytes()).hexdigest() == single_sha


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.just(0.0) | st.floats(min_value=1e-150, max_value=1e150) | st.floats(min_value=0.0, max_value=1.0),
        min_size=1,
        max_size=64,
    ),
    st.integers(min_value=0, max_value=2**32),
)
def test_draws_lie_in_range_and_never_on_a_zero_weight(magnitudes, seed):
    size = 1 << (len(magnitudes) - 1).bit_length()
    values = np.zeros(size)
    values[: len(magnitudes)] = magnitudes
    if not np.sum(values**2) >= np.finfo(np.float64).tiny:
        values[-1] = 1.0
    handle = build_dense(values)
    draws = handle.sample_many(2000, np.random.default_rng(seed))
    assert draws.min() >= 1 and draws.max() <= size
    assert np.all((values**2)[draws - 1] > 0.0)  # a weight that underflows to 0 counts as zero


def test_build_refuses_a_subnormal_squared_norm():
    # without this refusal, 23 of 200 000 draws from this vector were index 5 of 4
    with pytest.raises(ValueError, match=r"^squared norm 2\.09e-320 is subnormal"):
        build_dense([1e-160, 3e-161, 0, 1e-160])
    assert build_dense([np.sqrt(np.finfo(np.float64).tiny), 0]).dim == 2


def test_sample_count_is_refused_past_the_budget_before_drawing():
    for handle in (build_dense([1, 2]), build_implicit(ImplicitVector(kind="all-plus", n=62, scale=1.0))):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for k in (-1, (1 << DENSE_BUDGET_N) + 1, 10**9):
            with pytest.raises(ValueError, match=rf"^sample count must be in \[0, 2\^{DENSE_BUDGET_N}\], got {k}$"):
                handle.sample_many(k, rng)
        assert rng.bit_generator.state == state
        assert handle.stats().total() == 0
