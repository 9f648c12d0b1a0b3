"""Discrimination-toolkit tests: norms, success probabilities, N-copy forms."""

import dataclasses
import json
import math
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from sqlab import quantum_sim
from sqlab.cli import main
from sqlab.quantum_sim import (
    _EIG_ZERO_REL,
    DensityOperator,
    discriminate_mixed_pair,
    discriminate_pure_pair,
    min_copies_minus_sign,
    minus_sign_product_vectors,
    ncopy_minus_sign_tracenorm,
    ncopy_minus_sign_tracenorm_dense,
    success_from_schatten1,
)

from _fixtures import random_density_operator


def _pure(vec) -> DensityOperator:
    vec = np.asarray(vec, dtype=np.complex128)
    return DensityOperator.from_pure(vec / np.linalg.norm(vec))


def _schatten1(a: DensityOperator, b: DensityOperator) -> float:
    """`discriminate_mixed_pair`'s Schatten-1 distance, its one trial drawn from a generator of its own."""
    return discriminate_mixed_pair(a, b, 1, np.random.default_rng(0))[0]


def _schatten1_eigvalsh(a: DensityOperator, b: DensityOperator) -> float:
    """||a - b||_1 from `eigvalsh`'s spectrum, with the same floor: the reference for the `eigh` one."""
    eigs = np.linalg.eigvalsh(a.matrix - b.matrix)
    return float(np.sum(np.abs(np.where(np.abs(eigs) < _EIG_ZERO_REL * a.dim, 0.0, eigs))))


def _overlap_pair(c: float) -> tuple[DensityOperator, DensityOperator]:
    """Two real pure states with inner product c."""
    a = np.array([1.0, 0.0])
    b = np.array([c, math.sqrt(1 - c * c)])
    return _pure(a), _pure(b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_states_refuse_nan_and_infinite_entries(bad):
    with pytest.raises(ValueError, match="norm"):
        DensityOperator.from_pure(np.array([bad, 0.0]))
    for entry in [(0, 0), (0, 1)]:
        matrix = np.diag([1.0, 0.0]).astype(complex)
        matrix[entry] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            DensityOperator.from_matrix(matrix)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_density_operator_refuses_finite_entries_whose_sums_overflow():
    # finite entries whose Hermitian part, difference or trace leaves the float range
    cases = [
        ([[0.5, 1e308], [1e308, 0.5]], "PSD"),
        (np.diag([1e308, -1e308]), "trace"),
        (np.diag([1.7e308, 1.7e308]), "trace"),
        ([[0.5, 1.7e308], [-1.7e308, 0.5]], "non-Hermitian"),
    ]
    for matrix, match in cases:
        with pytest.raises(ValueError, match=match):
            DensityOperator.from_matrix(np.array(matrix))


def test_density_operator_holds_only_its_matrix():
    rho = random_density_operator(3, np.random.default_rng(4))
    assert [f.name for f in dataclasses.fields(DensityOperator)] == ["matrix"]
    assert rho.dim == 3 and DensityOperator.from_pure(np.array([0.6, 0.8j])).dim == 2


def test_density_operator_symmetrizes_as_the_mean_with_its_adjoint():
    # M/2 + M^dag/2 equals (M + M^dag)/2 bit for bit on normal entries
    rng = np.random.default_rng(11)
    for _ in range(200):
        dim = int(rng.integers(1, 6))
        m = random_density_operator(dim, rng).matrix
        m = m + 1e-12 * (rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape))
        m /= np.trace(m).real
        rho = DensityOperator.from_matrix(m)
        assert rho.matrix.tobytes() == ((m + m.conj().T) / 2.0).tobytes()


def test_density_operator_validation():
    with pytest.raises(ValueError, match="non-Hermitian"):
        DensityOperator.from_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        DensityOperator.from_matrix(np.eye(2))
    with pytest.raises(ValueError, match="PSD"):
        DensityOperator.from_matrix(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError, match="square"):
        DensityOperator.from_matrix(np.ones((2, 3)))


def test_schatten_basics():
    rho = random_density_operator(4, np.random.default_rng(0))
    assert _schatten1(rho, rho) == 0.0
    zero, one = _pure([1, 0]), _pure([0, 1])
    assert _schatten1(zero, one) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError, match="mismatch"):
        _schatten1(zero, random_density_operator(4, np.random.default_rng(1)))


@pytest.mark.parametrize("c", [0.0, 0.25, 0.5, 0.9, 0.999])
def test_schatten_pure_overlap_closed_form(c):
    a, b = _overlap_pair(c)
    assert _schatten1(a, b) == pytest.approx(2.0 * math.sqrt(1 - c * c), abs=1e-10)


def test_schatten_metric_properties_on_random_triples():
    rng = np.random.default_rng(42)
    for _ in range(100):
        dim = int(rng.integers(2, 17))
        a, b, c = (random_density_operator(dim, rng) for _ in range(3))
        d_ab, d_ba = _schatten1(a, b), _schatten1(b, a)
        assert d_ab == pytest.approx(d_ba, abs=1e-10)
        assert d_ab >= 0.0
        assert d_ab <= _schatten1(a, c) + _schatten1(c, b) + 1e-10


def test_helstrom_success_range_and_extremes():
    rho = random_density_operator(3, np.random.default_rng(7))
    assert success_from_schatten1(_schatten1(rho, rho)) == 0.5
    zero, one = _pure([1, 0]), _pure([0, 1])
    assert success_from_schatten1(_schatten1(zero, one)) == pytest.approx(1.0, abs=1e-12)
    for c in (0.1, 0.5, 0.9):
        a, b = _overlap_pair(c)
        assert 0.5 <= success_from_schatten1(_schatten1(a, b)) <= 1.0


def test_helstrom_one_iff_orthogonal_supports():
    # block-diagonal states with disjoint supports vs overlapping ones
    disjoint_a = DensityOperator.from_matrix(np.diag([0.5, 0.5, 0.0, 0.0]))
    disjoint_b = DensityOperator.from_matrix(np.diag([0.0, 0.0, 0.7, 0.3]))
    assert success_from_schatten1(_schatten1(disjoint_a, disjoint_b)) == pytest.approx(
        1.0, abs=1e-12
    )
    overlapping = DensityOperator.from_matrix(np.diag([0.4, 0.2, 0.4, 0.0]))
    assert success_from_schatten1(_schatten1(disjoint_a, overlapping)) < 1.0 - 1e-6


def test_minus_sign_pair_orthogonal_at_d2():
    # at d=2 the flipped vector is orthogonal, so one copy discriminates perfectly
    assert ncopy_minus_sign_tracenorm(2, 1) == pytest.approx(2.0)
    plus = np.full(2, 1 / math.sqrt(2))
    minus = plus * np.array([-1, 1])
    success = success_from_schatten1(_schatten1(_pure(plus), _pure(minus)))
    assert success == pytest.approx(1.0, abs=1e-12)


def test_ncopy_examples():
    assert ncopy_minus_sign_tracenorm(4, 1) == pytest.approx(2 * math.sqrt(15 / 16), abs=1e-12)
    # overlap -> 1 as d grows, so the one-copy norm tends to zero
    assert ncopy_minus_sign_tracenorm(1 << 20, 1) < 0.01
    with pytest.raises(ValueError):
        ncopy_minus_sign_tracenorm(1, 1)
    with pytest.raises(ValueError):
        ncopy_minus_sign_tracenorm(4, 0)


@pytest.mark.parametrize(
    "d,copies,pinned",
    [
        (3, 1, "0x1.fcd4669f1b2f1p+0"),
        (4, 7, "0x1.fffffff000000p+0"),
        (64, 1, "0x1.61a193f327660p-1"),
        (4096, 100, "0x1.af5f4e4b4ed92p-1"),
        (1 << 55, 3, "0x1.bb67ae8584ca9p-25"),
        (1 << 60, 100, "0x1.c48c6001f0abfp-25"),
    ],
)
def test_ncopy_closed_form_bytes_are_pinned(d, copies, pinned):
    # recorded before the one-copy amplitude success came to share this closed form
    assert ncopy_minus_sign_tracenorm(d, copies).hex() == pinned


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("copies", [1, 2, 3])
def test_ncopy_closed_form_matches_dense(d, copies):
    closed = ncopy_minus_sign_tracenorm(d, copies)
    dense = ncopy_minus_sign_tracenorm_dense(d, copies)
    assert closed == pytest.approx(dense, abs=1e-9)


def test_ncopy_dense_budget():
    with pytest.raises(ValueError, match="exceeds"):
        ncopy_minus_sign_tracenorm_dense(64, 4)


@pytest.mark.parametrize("d,copies", [(2, 7), (4, 4)])
def test_ncopy_dense_serves_pairs_up_to_the_dense_vector_budget(d, copies):
    # D = 2^14 and 2^16, past the 8192 that once capped this check
    assert ncopy_minus_sign_tracenorm_dense(d, copies) == pytest.approx(
        ncopy_minus_sign_tracenorm(d, copies), abs=1e-12
    )
    with pytest.raises(ValueError, match=f"dimension {2**26} exceeds {2**24}"):
        ncopy_minus_sign_tracenorm_dense(2, 13)


@pytest.mark.parametrize("d,copies", [(2, 3), (3, 2)])
def test_ncopy_gram_path_matches_dense_eigensolve(d, copies):
    plus = np.full(d, 1 / math.sqrt(d))
    minus = plus * np.r_[-1.0, np.ones(d - 1)]
    u = reduce(np.kron, [minus] * copies + [plus] * copies)
    v = reduce(np.kron, [plus] * copies + [minus] * copies)
    dense = float(np.sum(np.abs(np.linalg.eigvalsh(np.outer(u, u) - np.outer(v, v)))))
    assert ncopy_minus_sign_tracenorm_dense(d, copies) == pytest.approx(dense, abs=1e-12)


def test_minus_sign_product_vectors():
    u, v = minus_sign_product_vectors(3, 2)
    assert u.shape == v.shape == (81,)
    assert float(u @ u) == pytest.approx(1.0, abs=1e-12)
    assert float(u @ v) == pytest.approx((1 / 3) ** 4, abs=1e-12)
    with pytest.raises(ValueError, match="copies"):
        minus_sign_product_vectors(4, 0)
    with pytest.raises(ValueError, match="dimension must"):
        minus_sign_product_vectors(1, 2)
    with pytest.raises(ValueError, match="exceeds"):
        minus_sign_product_vectors(2, 13)


@pytest.mark.parametrize("d", [3, 256, 1 << 30, 1 << 55, 1 << 62, 1 << 100, (1 << 1023) + 1])
@pytest.mark.parametrize("copies", [1, 3])
def test_ncopy_closed_form_relative_error_against_exact(d, copies):
    exact_sq = 1 - Fraction(d - 2, d) ** (4 * copies)
    exact = 2 * math.sqrt(float(exact_sq))
    assert abs(ncopy_minus_sign_tracenorm(d, copies) - exact) <= 1e-15 * exact


def test_ncopy_monotone_in_copies():
    for d in (3, 4, 16, 1024):
        values = [ncopy_minus_sign_tracenorm(d, n) for n in range(1, 30)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


def test_min_copies_examples():
    assert min_copies_minus_sign(4, 0.8) == 1
    assert min_copies_minus_sign(3, 1.99) >= 1  # finite: the limit is 2
    with pytest.raises(ValueError):
        min_copies_minus_sign(2, 0.8)
    with pytest.raises(ValueError):
        min_copies_minus_sign(8, 2.0)


def test_min_copies_is_exact_threshold():
    for d, threshold in ((64, 0.8), (256, 1.6), (4096, 1.2)):
        n_min = min_copies_minus_sign(d, threshold)
        assert ncopy_minus_sign_tracenorm(d, n_min) >= threshold
        if n_min > 1:
            assert ncopy_minus_sign_tracenorm(d, n_min - 1) < threshold


@pytest.mark.parametrize("d", [3, 4096, 2**53 + 2, 2**60, 2**62, 2**100, 2**1000])
@pytest.mark.parametrize("threshold", [1e-9, 1.6, 1.9999999])
def test_min_copies_is_smallest_reaching_copy_count_at_any_d(d, threshold):
    # from d ~ 2^53 one more copy no longer moves the closed form, so a unit-step
    # search from the estimate never terminated there
    n_min = min_copies_minus_sign(d, threshold)
    assert ncopy_minus_sign_tracenorm(d, n_min) >= threshold
    assert n_min == 1 or ncopy_minus_sign_tracenorm(d, n_min - 1) < threshold


def test_closed_forms_refuse_dimensions_past_the_float_range():
    # 2/d cannot be formed there; the closed forms raised OverflowError
    for d in (2**1024, 10**400):
        with pytest.raises(ValueError, match="float range"):
            ncopy_minus_sign_tracenorm(d, 1)
        with pytest.raises(ValueError, match="float range"):
            min_copies_minus_sign(d)
    with pytest.raises(ValueError, match="float range"):
        ncopy_minus_sign_tracenorm(3, 2**1022)


def test_min_copies_doubling_ratio():
    # linear-in-d scaling: doubling d doubles the copy requirement within 10%
    for d in (512, 1024, 2048):
        ratio = min_copies_minus_sign(2 * d, 0.8) / min_copies_minus_sign(d, 0.8)
        assert abs(ratio - 2.0) < 0.2


def test_mixed_pair_empirical_rate_extremes():
    rng = np.random.default_rng(10)
    rho = random_density_operator(4, rng)
    rate_same = discriminate_mixed_pair(rho, rho, 10_000, rng)[2]
    assert abs(rate_same - 0.5) < 0.015  # 3 sigma
    zero, one = _pure([1, 0]), _pure([0, 1])
    assert discriminate_mixed_pair(zero, one, 10_000, rng)[2] == 1.0


def test_mixed_pair_empirical_rate_matches_formula():
    rng = np.random.default_rng(11)
    for _ in range(5):
        dim = int(rng.integers(2, 17))
        a, b = random_density_operator(dim, rng), random_density_operator(dim, rng)
        schatten, p, rate = discriminate_mixed_pair(a, b, 10_000, rng)
        assert p == success_from_schatten1(schatten)
        sigma = math.sqrt(p * (1 - p) / 10_000)
        assert abs(rate - p) <= 3 * sigma + 1e-12
    with pytest.raises(ValueError):
        discriminate_mixed_pair(a, b, 0, rng)


def test_mixed_pair_schatten1_matches_an_eigvalsh_reference():
    # the distance is read from eigh's eigenvalues, which differ from eigvalsh's in
    # the last bits, so the two agree to a tolerance, not byte for byte
    rng = np.random.default_rng(26)
    for dim in (2, 3, 5, 8, 17, 32, 64, 100, 128, 256):
        full_rank = [random_density_operator(dim, rng) for _ in range(2)]
        rank_one = [DensityOperator.from_pure(v) for v in _random_pure_pair(dim, rng)]
        for a, b in (full_rank, rank_one, (full_rank[0], rank_one[0])):
            reference = _schatten1_eigvalsh(a, b)
            assert abs(_schatten1(a, b) - reference) <= 1e-12 * reference


def test_density_operator_file_round_trip(tmp_path, capsys, monkeypatch):
    rho = random_density_operator(5, np.random.default_rng(12))
    path = tmp_path / "rho.npy"
    np.save(path, rho.matrix)
    loaded = []
    discriminate = quantum_sim.discriminate_mixed_pair

    def recording(a, b, trials, rng):
        loaded.extend((a, b))
        return discriminate(a, b, trials, rng)

    monkeypatch.setattr(quantum_sim, "discriminate_mixed_pair", recording)
    assert main(["discriminate", "--a", str(path), "--b", str(path)]) == 0
    assert [op.matrix.tobytes() for op in loaded] == [rho.matrix.tobytes()] * 2
    assert json.loads(capsys.readouterr().out)["schatten1_diff"] == 0.0
    bad = tmp_path / "bad.npy"
    np.save(bad, np.eye(2)[:1])
    assert main(["discriminate", "--a", str(path), "--b", str(bad)]) == 1
    assert capsys.readouterr() == ("", f"error: {bad}: density operator must be a square matrix\n")


def _random_pure_pair(dim, rng):
    u, v = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(2))
    return u / np.linalg.norm(u), v / np.linalg.norm(v)


@pytest.mark.parametrize("dim", [2, 3, 16, 64])
def test_pure_pair_gram_form_matches_the_dense_density_operators(dim):
    rng = np.random.default_rng(100 + dim)
    for k in range(5):
        u, v = _random_pure_pair(dim, rng)
        schatten, success, empirical = discriminate_pure_pair(u, v, 10_000, np.random.default_rng(k))
        rho_u, rho_v = DensityOperator.from_pure(u), DensityOperator.from_pure(v)
        dense = discriminate_mixed_pair(rho_u, rho_v, 10_000, np.random.default_rng(k))
        assert abs(schatten - dense[0]) <= 1e-12
        assert abs(success - dense[1]) <= 1e-12
        # the optimal projector's click probabilities agree far below 1/trials,
        # so the same draws give the same rate
        assert empirical == dense[2]


def test_pure_pair_gram_form_is_exact_for_identical_and_orthogonal_pairs():
    rng = np.random.default_rng(7)
    for dim in (2, 3, 16, 64):
        u, v = _random_pure_pair(dim, rng)
        assert discriminate_pure_pair(u, u, 10, rng)[:2] == (0.0, 0.5)
        w = v - np.vdot(u, v) * u
        w /= np.linalg.norm(w)
        assert discriminate_pure_pair(u, w, 10, rng)[:2] == (2.0, 1.0)
        assert discriminate_mixed_pair(
            DensityOperator.from_pure(u), DensityOperator.from_pure(w), 1000, np.random.default_rng(dim)
        )[2] == discriminate_pure_pair(u, w, 1000, np.random.default_rng(dim))[2] == 1.0
        # for identical states every measurement is optimal: the dense path always clicks,
        # the Gram path clicks with probability 1/2, and both rates sit at 1/2
        rho_u = DensityOperator.from_pure(u)
        schatten, _, dense_rate = discriminate_mixed_pair(rho_u, rho_u, 10_000, np.random.default_rng(dim))
        assert schatten == 0.0
        for rate in (dense_rate, discriminate_pure_pair(u, u, 10_000, np.random.default_rng(dim))[2]):
            assert abs(rate - 0.5) < 0.015  # 3 sigma


def test_pure_pair_checks_norms_dimensions_and_trials():
    u, v = np.array([1.0, 0.0]), np.array([0.6, 0.8])
    with pytest.raises(ValueError, match="norm"):
        discriminate_pure_pair(u, 2 * v, 10, np.random.default_rng(0))
    with pytest.raises(ValueError, match="norm"):
        discriminate_pure_pair(np.array([np.nan, 0.0]), v, 10, np.random.default_rng(0))
    with pytest.raises(ValueError, match="mismatch"):
        discriminate_pure_pair(u, np.array([1.0, 0.0, 0.0]), 10, np.random.default_rng(0))
    for trials in (0, (1 << 24) + 1):
        with pytest.raises(ValueError, match=rf"^trials must be in \[1, 2\^24\], got {trials}$"):
            discriminate_pure_pair(u, v, trials, np.random.default_rng(0))
