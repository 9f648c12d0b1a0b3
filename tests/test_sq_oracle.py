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
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlab import sq_oracle
from sqlab.experiments import chi_square_gof
from sqlab.inputs import DENSE_BUDGET_N, check_count, content_lines, load_npy, parse_int, quoted
from sqlab.instances import haar_unit_vector
from sqlab.sq_oracle import (
    ALL_CAPABILITIES,
    Capability,
    CapabilityError,
    ImplicitVector,
    OracleStats,
    build_dense,
    build_implicit,
)

from _fixtures import materialize


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


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def test_query_returns_a_python_complex_with_the_stored_bits():
    tiny = 5e-324  # the smallest subnormal
    entries = np.array([complex(-0.0, tiny), complex(tiny, -0.0), -0.0j, 1.0 - 2.0j])
    dense = build_dense(entries)
    for i, entry in enumerate(entries, start=1):
        value = dense.query(i)
        assert type(value) is complex
        assert _bits(value) == (float(entry.real).hex(), float(entry.imag).hex())
    implicit = [
        ImplicitVector(kind="all-plus", n=3, scale=tiny),
        ImplicitVector(kind="minus-at-index", n=62, scale=tiny, minus_index=2),
        ImplicitVector(kind="sign-pattern-product", n=62, scale=tiny, sign_mask=1),
    ]
    for spec in implicit:
        handle = build_implicit(spec)
        for i, sign in ((1, 1.0), (2, -1.0)):
            value = handle.query(i)
            assert type(value) is complex
            want = sign if spec.kind != "all-plus" else 1.0
            assert _bits(value) == ((want * tiny).hex(), (0.0).hex())


def test_refused_query_on_a_restricted_handle_leaves_every_counter():
    for full in (build_dense([1, 2, 3, 4]), build_implicit(ImplicitVector(kind="all-plus", n=62, scale=1.0))):
        rng = np.random.default_rng(5)
        sample_only = full.restrict({Capability.SAMPLE})
        sample_only.sample(rng)
        sample_only.sample_many(3, rng)
        query_only = full.restrict({Capability.QUERY})
        query_only.query(2)
        before = (full.stats(), sample_only.stats(), query_only.stats())
        with pytest.raises(CapabilityError, match="^query not in capability set$"):
            sample_only.query(1)
        with pytest.raises(ValueError, match="out of range"):
            query_only.query(full.dim + 1)
        assert (full.stats(), sample_only.stats(), query_only.stats()) == before
        assert before[1:] == (OracleStats(sample_calls=4), OracleStats(query_calls=1))


def test_oracle_stats_are_values():
    big = 1 << 70  # exact past int64: the counts are Python ints
    a, b = OracleStats(big + 5, 7, 3), OracleStats(5, 2, 3)
    assert a == OracleStats(big + 5, 7, 3) and a != b and OracleStats() == OracleStats(0, 0, 0)
    assert a.total() == big + 15 and b.total() == 10
    assert a - b == OracleStats(big, 5, 0) and b - a == OracleStats(-big, -5, 0)
    with pytest.raises(TypeError):
        a + b  # no sum of snapshots, and never a tuple concatenation
    handle = build_dense([1, 1])
    handle.query(1)
    first, second = handle.stats(), handle.stats()
    assert first == second and first is not second
    first.query_calls = 99
    handle.query_norm()
    assert second == OracleStats(0, 1, 0) and handle.stats() == OracleStats(0, 1, 1)


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
    assert handle.backing.cdf.tobytes() == np.cumsum(values.real**2 + values.imag**2).tobytes()


def _per_draw_seconds(handle, draws, rng):
    start = time.perf_counter()
    handle.sample_many(draws, rng)
    return (time.perf_counter() - start) / draws


def test_sampling_time_scales_gently():
    """A dense draw takes O(1) expected steps from its guide entry; implicit is O(poly n).

    The steps per draw are the same at 2^16 as at 2^10, so the dense ratio
    is set by cache misses on the larger tables; the bound of 8 leaves
    generous room for those and for scheduler noise.
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


@settings(max_examples=50)
@given(low=st.integers(min_value=-3, max_value=1), k=st.integers(min_value=0, max_value=80))
def test_check_count_accepts_exactly_low_through_high(low, k):
    high = 1 << k
    for value in (low, high):
        assert check_count("n", value, low, high) is None
    for value in (low - 1, high + 1):
        with pytest.raises(ValueError, match=rf"^n must be in \[{low}, 2\^{k}\], got {value}$"):
            check_count("n", value, low, high)
    # without a cap, only the low end refuses
    assert check_count("seed", 10**400, low, None) is None
    with pytest.raises(ValueError, match=rf"^seed must be at least {low}, got {low - 1}$"):
        check_count("seed", low - 1, low, None)


def test_check_count_quotes_a_long_count_in_one_short_line():
    assert check_count("n", 1 << DENSE_BUDGET_N, 0) is None  # the default cap is the dense budget
    # 5000 digits, past Python's int-to-str limit: the refusal stays one short line
    for value, bounds in ((10**4999, (0,)), (-(10**4999), (0, None))):
        with pytest.raises(ValueError) as info:
            check_count("n", value, *bounds)
        assert str(info.value).endswith("... (5000 characters)" if value > 0 else "... (5001 characters)")
        assert len(str(info.value)) < 100


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


def _zero_runs() -> np.ndarray:
    """2^12 weights, nine in ten zero, with zero runs at both ends: many running sums repeat."""
    rng = np.random.default_rng(43)
    values = np.where(rng.random(1 << 12) < 0.9, 0.0, rng.random(1 << 12))
    values[:64] = values[-64:] = 0.0
    return values


_STREAM_CASES = [
    pytest.param(lambda: build_dense([0.5j]), id="dense-1"),
    pytest.param(lambda: build_dense([0, 1, 0, 0, 2, 0, 0, 3]), id="dense-8-zero-leaves"),
    pytest.param(lambda: build_dense(_zero_runs()), id="dense-2^12-zero-runs"),
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
    handle = build_dense(np.arange(1, 17))
    child = handle.restrict({Capability.SAMPLE})
    handle.query(1)
    handle.query_norm()
    assert "cdf" not in vars(handle.backing) and "guide" not in vars(handle.backing)
    child.sample(np.random.default_rng(0))
    assert child.backing is handle.backing
    assert "cdf" in vars(handle.backing)
    # the guide table waits for a batch of d/4 draws
    child.sample_many(3, np.random.default_rng(0))
    assert "guide" not in vars(handle.backing)
    child.sample_many(4, np.random.default_rng(0))
    assert "guide" in vars(handle.backing)


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


def _plain_inversion(cdf, k, rng):
    """Reference draws: one binary search of each uniform point over the running sums."""
    return np.searchsorted(cdf, rng.random(k) * cdf[-1], side="right") + 1


def _guide_reference(cdf):
    buckets = 2 * cdf.size
    return np.searchsorted(cdf, np.arange(buckets + 1) / buckets * cdf[-1], side="right")


def _half_zeros(rng):
    values = rng.random(1 << 12)
    values[rng.random(1 << 12) < 0.5] = 0.0
    return values


# 4094 small weights: their running sums crowd into two of the 8192 buckets
_CROWDED = np.r_[1.0, np.full((1 << 12) - 2, 3e-5), 1.0]


@pytest.mark.parametrize(
    "values",
    [
        pytest.param(haar_unit_vector(1 << 16, "complex", np.random.default_rng(51)), id="haar-2^16"),
        pytest.param(np.exp(5 * np.random.default_rng(52).standard_normal(1 << 12)), id="heavy-tailed-2^12"),
        pytest.param(_half_zeros(np.random.default_rng(53)), id="half-zeros-2^12"),
        pytest.param(np.ones(1 << 10), id="ones-2^10"),
        pytest.param(1e-150 * np.random.default_rng(54).random(1 << 12), id="scaled-1e-150-2^12"),
        pytest.param(np.array([0, 1, 0, 0, 2, 0, 0, 3.0]), id="zero-leaves-8"),
        pytest.param(np.r_[np.zeros((1 << 10) - 1), 1.0], id="last-entry-2^10"),
        pytest.param(_CROWDED, id="crowded-bucket-2^12"),
        # the first running sum equals the rounded edge 3/4 * total; its ratio to the total rounds above 3/4
        pytest.param(np.array([1.091845477420242, 0.6303772803020521]), id="sum-on-an-edge-2"),
    ],
)
def test_guide_table_draws_equal_plain_inversion(values):
    handle = build_dense(values)
    chunk, d = sq_oracle._CHUNK, values.size
    # below d/4 draws a batch binary-searches its sorted points; from d/4 on it walks the guide table
    for k in (0, 1, 7, max(d // 4 - 1, 0), d // 4, chunk, 3 * chunk + 5):
        rng, reference_rng = np.random.default_rng(k), np.random.default_rng(k)
        draws = handle.sample_many(k, rng)
        assert draws.dtype == np.int64
        assert np.array_equal(draws, _plain_inversion(handle.backing.cdf, k, reference_rng))
        assert rng.bit_generator.state == reference_rng.bit_generator.state
    assert np.array_equal(handle.backing.guide, _guide_reference(handle.backing.cdf))


# a total of 2^-1022 has subnormal edges j * 2^-1043; adding 2^-1062 makes them inexact
@pytest.mark.parametrize("head", [[1.0], [1.0, 2**-20]], ids=["exact-edges", "inexact-edges"])
def test_guide_table_is_exact_at_a_total_near_the_smallest_normal(head):
    # cdf * (M / total) overflows here, and inf * 0 is NaN; (cdf / total) * M does not
    values = np.zeros(1 << 20)
    values[: len(head)] = np.multiply(head, np.sqrt(np.finfo(np.float64).tiny))
    handle = build_dense(values)
    with np.errstate(all="raise"):
        guide = handle.backing.guide
    assert np.array_equal(guide, _guide_reference(handle.backing.cdf))
    assert set(handle.sample_many(1000, np.random.default_rng(0)).tolist()) == {1}


class _FixedUniforms:
    """Stands in for a Generator whose `random(n)` returns the given points in turn."""

    def __init__(self, points):
        self.points = list(points)

    def random(self, n):
        drawn, self.points = self.points[:n], self.points[n:]
        return np.array(drawn)


@pytest.mark.parametrize(
    "values,total,sums,drawn",
    [
        # squares 1,1,1,1,4,4,16,36: running sums 1,2,3,4,8,12,28,64
        ([1, 1, 1, 1, 2, 2, 4, 6], 64, [0, 1, 2, 3, 4, 8, 12, 28, 63], [1, 2, 3, 4, 5, 6, 7, 8, 8]),
        # the same, padded to 64 entries: nine draws are below d/4, so they are binary-searched
        ([1, 1, 1, 1, 2, 2, 4, 6] + [0] * 56, 64, [0, 1, 2, 3, 4, 8, 12, 28, 63], [1, 2, 3, 4, 5, 6, 7, 8, 8]),
        # squares 1, sixteen of 2^-20, then 65535/65536 over four entries: the running sums
        # 1 + k*2^-20 crowd one bucket of width 1/32, so the point on the 12th walks past the step bound
        ([1] + [2**-10] * 16 + [255 / 256, 22 / 256, 5 / 256, 1 / 256] + [0] * 11, 2,
         [1, 1 + 2**-20, 1 + 12 * 2**-20, 1 + 16 * 2**-20], [2, 3, 14, 18]),
    ],
    ids=["small", "small-sorted", "crowded"],
)
def test_a_point_on_a_running_sum_draws_the_next_index(values, total, sums, drawn):
    handle = build_dense(values)
    assert handle.backing.cdf[-1] == total
    assert handle.sample_many(len(sums), _FixedUniforms([s / total for s in sums])).tolist() == drawn
    assert ("guide" in vars(handle.backing)) == (4 * len(sums) >= len(values))


def test_guide_build_raises_past_its_fixup_bound(monkeypatch):
    monkeypatch.setattr(sq_oracle, "_GUIDE_FIXUP_ROUNDS", 0)
    with pytest.raises(RuntimeError, match=r"^guide table edges did not settle in 0 rounds$"):
        build_dense([1, 2]).backing.guide


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_batch_below_a_quarter_of_d_equals_plain_inversion_and_builds_no_guide():
    handle = build_dense(np.random.default_rng(55).random(1 << 20))
    k = 3 * sq_oracle._CHUNK + 5  # sorted a slice at a time
    for count in (k, handle.dim // 4 - 1):
        rng, reference_rng = np.random.default_rng(count), np.random.default_rng(count)
        draws = handle.sample_many(count, rng)
        assert np.array_equal(draws, _plain_inversion(handle.backing.cdf, count, reference_rng))
        assert rng.bit_generator.state == reference_rng.bit_generator.state
    assert "guide" not in vars(handle.backing)
    handle.sample_many(handle.dim // 4, np.random.default_rng(0))
    assert "guide" in vars(handle.backing)


@pytest.mark.parametrize("d,k", [(1 << 10, 1 << 22), (1 << 20, (1 << 18) - 1)], ids=["guided", "sorted"])
def test_a_batch_holds_eight_bytes_per_draw_plus_one_slice(d, k):
    handle = build_dense(haar_unit_vector(d, "complex", np.random.default_rng(61)))
    handle.sample_many(d, np.random.default_rng(0))  # builds the running sums and the guide table
    peak = _traced_peak(lambda: handle.sample_many(k, np.random.default_rng(1)))
    assert peak <= 8 * k + 64 * sq_oracle._CHUNK  # an argsort of the whole batch held 32 B per draw


def test_first_sample_and_first_guided_batch_hold_their_tables_plus_one_slice():
    d = 1 << 20
    values = haar_unit_vector(d, "complex", np.random.default_rng(62))
    handle = build_dense(values)
    # a single draw builds only the running sums, 8 B per entry
    assert _traced_peak(lambda: handle.sample(np.random.default_rng(0))) <= 8 * d + 64 * sq_oracle._CHUNK
    handle = build_dense(values)
    k = d // 4
    peak = _traced_peak(lambda: handle.sample_many(k, np.random.default_rng(0)))
    # 8 B per entry each for the running sums and the guide table, and 8 B per draw
    assert peak <= 16 * d + 8 * k + 64 * sq_oracle._CHUNK


def test_build_holds_one_slice_beside_the_vector():
    values = haar_unit_vector(1 << 20, "complex", np.random.default_rng(63))
    # |x_i|^2 of the whole vector held 16 B per entry: a 16.0 MB peak at this size
    assert _traced_peak(lambda: build_dense(values)) <= 64 * sq_oracle._CHUNK


def test_squared_norm_is_summed_slice_by_slice():
    chunk = sq_oracle._CHUNK
    values = haar_unit_vector(4 * chunk, "complex", np.random.default_rng(64))
    one_slice = values[:chunk]
    assert build_dense(one_slice).backing.squared_norm == float(np.sum(one_slice.real**2 + one_slice.imag**2))
    assert build_dense(values).backing.squared_norm == pytest.approx(float(np.sum(np.abs(values) ** 2)), rel=1e-14)


@pytest.mark.parametrize(
    "entries,refusal",
    [
        ({3 * sq_oracle._CHUNK - 1: math.nan}, r"^squared norm nan is not finite"),
        ({sq_oracle._CHUNK: math.inf}, r"^squared norm inf is not finite"),
        ({sq_oracle._CHUNK: 1e200}, r"^squared norm inf is not finite"),
        # each slice's sum is finite, their total is not
        ({0: 1.3e154, sq_oracle._CHUNK: 1.3e154}, r"^squared norm inf is not finite"),
        ({}, r"^zero vector"),
        ({0: 1e-160, sq_oracle._CHUNK: 1e-160}, r"^squared norm 2e-320 is subnormal"),
    ],
    ids=["nan", "inf", "overflowing-entry", "overflowing-total", "zero", "subnormal"],
)
def test_build_refuses_a_bad_norm_in_any_slice(entries, refusal):
    values = np.zeros(4 * sq_oracle._CHUNK, dtype=np.complex128)
    for i, value in entries.items():
        values[i] = value
    with pytest.raises(ValueError, match=refusal):
        build_dense(values)
