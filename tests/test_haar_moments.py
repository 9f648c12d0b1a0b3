"""Moment-operator tests: counting, monomials vs matching enumeration, the gap chain."""

import itertools
import math
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlab import haar_moments
from sqlab.haar_moments import (
    MAX_MOMENT_COPIES,
    MC_ESTIMATE_BYTE_BUDGET,
    BoundViolationError,
    BudgetExceededError,
    MomentOperator,
    mc_moment,
    real_moment,
    sym_basis,
    trace_norm_gap,
)

from _fixtures import symmetric_embedding


def _double_factorial(k):
    """k!! for k >= -1, so (-1)!! = 0!! = 1."""
    return math.prod(range(k, 0, -2))


def test_sym_basis_small_cases():
    basis = sym_basis(2, 2)
    assert basis.indices.tolist() == [[0, 0], [0, 1], [1, 1]]
    assert basis.norm_factors == pytest.approx([1.0, math.sqrt(2), 1.0])
    assert sym_basis(4, 1).size == 4
    assert sym_basis(16, 4).size == 3876 == math.comb(19, 4)


def test_sym_basis_counts_and_budget():
    for d, copies in ((2, 3), (3, 3), (5, 2), (7, 4)):
        assert sym_basis(d, copies).size == math.comb(d + copies - 1, copies)
    with pytest.raises(BudgetExceededError):
        sym_basis(32, 4)  # C(35,4) = 52360 > default budget
    with pytest.raises(ValueError):
        sym_basis(0, 1)
    with pytest.raises(BudgetExceededError, match="exceeds the cap"):
        sym_basis(2, MAX_MOMENT_COPIES + 1)


def _sym_basis_by_itertools(d, copies):
    """Reference: the rows as `combinations_with_replacement` yields them, and
    each norm factor from Python's exact integers, rounded once."""
    rows = list(itertools.combinations_with_replacement(range(d), copies))
    norm = [
        math.sqrt(math.factorial(copies) / math.prod(math.factorial(m) for m in Counter(row).values()))
        for row in rows
    ]
    return np.array(rows, dtype=np.int64).reshape(len(rows), copies), np.array(norm)


_ADMITTED_SMALL_CELLS = [
    (d, copies)
    for d in range(1, 41)
    for copies in range(1, MAX_MOMENT_COPIES + 1)
    if math.comb(d + copies - 1, copies) <= haar_moments.SYM_DIM_BUDGET
]


def test_sym_basis_matches_the_itertools_enumeration():
    for d, copies in _ADMITTED_SMALL_CELLS + [(20000, 1)]:
        basis = sym_basis(d, copies)
        indices, norm = _sym_basis_by_itertools(d, copies)
        assert np.array_equal(basis.indices, indices), (d, copies)
        assert basis.norm_factors.tobytes() == norm.tobytes(), (d, copies)


MAX_PAIRING_POINTS = 2 * MAX_MOMENT_COPIES


@dataclass(frozen=True)
class Pairing:
    """A perfect matching of {1, ..., 2N} as N disjoint unordered pairs."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for a, b in self.pairs:
            if a == b or a in seen or b in seen:
                raise ValueError("pairs must be disjoint")
            seen.update((a, b))
        if seen and seen != set(range(1, 2 * len(self.pairs) + 1)):
            raise ValueError("pairs must cover {1, ..., 2N}")


def enumerate_pairings(num_points: int) -> list[Pairing]:
    """All perfect matchings of {1, ..., num_points}; there are (2N-1)!! of them.

    The independent reference against which `real_monomial_moment`'s
    double-factorial count is checked.
    """
    if num_points % 2:
        raise ValueError("cannot pair an odd number of points")
    if num_points > MAX_PAIRING_POINTS:
        raise BudgetExceededError(f"{num_points} points exceed the cap {MAX_PAIRING_POINTS}")

    def rec(points: list[int]) -> list[list[tuple[int, int]]]:
        if not points:
            return [[]]
        first, rest = points[0], points[1:]
        out = []
        for i, partner in enumerate(rest):
            for tail in rec(rest[:i] + rest[i + 1 :]):
                out.append([(first, partner)] + tail)
        return out

    return [Pairing(tuple(p)) for p in rec(list(range(1, num_points + 1)))]


def real_monomial_moment(indices, d) -> Fraction:
    """E[x_{a_1} ... x_{a_2N}] for x uniform on the real unit sphere in R^d.

    Equals the number of perfect matchings of the positions whose paired
    indices agree, divided by d(d+2)...(d+2N-2). The count factorizes as a
    product of double factorials over index multiplicities. The reference
    that `real_moment`'s assembly is compared against.
    """
    for a in indices:
        if not 1 <= a <= d:
            raise ValueError(f"index {a} out of range [1, {d}]")
    count = 1
    for m in Counter(int(a) for a in indices).values():
        if m % 2:
            return Fraction(0)  # an odd power admits no equal-index matching
        count *= _double_factorial(m - 1)
    return Fraction(count, haar_moments._sphere_moment_denominator(d, len(indices) // 2))


def test_enumerate_pairings_counts():
    assert len(enumerate_pairings(2)) == 1
    assert len(enumerate_pairings(4)) == 3
    assert len(enumerate_pairings(8)) == 105  # 7!!
    for copies in range(1, 7):
        expected = math.prod(range(2 * copies - 1, 0, -2))
        assert len(enumerate_pairings(2 * copies)) == expected


def test_enumerate_pairings_structure_and_errors():
    pairings = enumerate_pairings(6)
    assert len(set(pairings)) == len(pairings)
    for pairing in pairings:
        covered = sorted(p for pair in pairing.pairs for p in pair)
        assert covered == [1, 2, 3, 4, 5, 6]
    with pytest.raises(ValueError, match="odd"):
        enumerate_pairings(3)
    with pytest.raises(BudgetExceededError):
        enumerate_pairings(18)
    with pytest.raises(ValueError, match="disjoint"):
        Pairing(((1, 1),))
    with pytest.raises(ValueError, match="cover"):
        Pairing(((1, 3),))


def test_real_monomial_moment_examples():
    assert real_monomial_moment([1, 1], 2) == Fraction(1, 2)
    assert real_monomial_moment([1, 1, 1, 1], 2) == Fraction(3, 8)
    assert real_monomial_moment([1, 1, 1, 2], 5) == 0
    assert real_monomial_moment([2, 1, 2, 1], 3) == Fraction(1, 15)
    with pytest.raises(ValueError, match="out of range"):
        real_monomial_moment([0, 1], 2)
    with pytest.raises(ValueError, match="out of range"):
        real_monomial_moment([1, 3], 2)


def _moment_by_matching_enumeration(indices, d):
    """Independent oracle: count matchings with equal paired indices directly."""
    if len(indices) % 2:
        return Fraction(0)
    copies = len(indices) // 2
    count = 0
    for pairing in enumerate_pairings(len(indices)):
        if all(indices[a - 1] == indices[b - 1] for a, b in pairing.pairs):
            count += 1
    denom = 1
    for k in range(copies):
        denom *= d + 2 * k
    return Fraction(count, denom)


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=4),
    st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=6),
)
def test_real_monomial_moment_matches_enumeration(d, indices):
    indices = [min(i, d) for i in indices]
    if len(indices) % 2:
        indices = indices[:-1]
    assert real_monomial_moment(indices, d) == _moment_by_matching_enumeration(indices, d)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 9])
def test_normalization_identity_holds_for_odd_and_even_d(d):
    # the denominator helper raises internally if the log-gamma identity fails
    for copies in range(1, 9):
        value = real_monomial_moment([1] * (2 * copies), d)
        assert value > 0


def test_real_moment_first_copy_is_isotropic():
    op = real_moment(2, 1)
    np.testing.assert_allclose(op.matrix, np.eye(2) / 2, atol=1e-15)


def test_real_moment_d2_n2_matrix_and_eigenvalues():
    op = real_moment(2, 2)
    expected = np.array([[3 / 8, 0, 1 / 8], [0, 1 / 4, 0], [1 / 8, 0, 3 / 8]])
    np.testing.assert_allclose(op.matrix, expected, atol=1e-15)
    assert sorted(op.eigenvalues) == pytest.approx([0.25, 0.25, 0.5], abs=1e-12)


@pytest.mark.parametrize("d,copies", [(2, 2), (3, 2), (4, 3), (6, 2), (5, 4)])
def test_moment_operators_are_states(d, copies):
    op = real_moment(d, copies)
    assert float(np.trace(op.matrix)) == pytest.approx(1.0, abs=1e-10)
    assert float(np.min(op.eigenvalues)) >= -1e-10
    np.testing.assert_allclose(op.matrix, op.matrix.T, atol=1e-10)


def test_complex_moment_is_scalar():
    # The complex moment is P_sym / dim Sym^N (Schur), and P_sym is the average of
    # the N! permutations of the tensor factors. In the symmetric basis that is
    # identity/size, the constant `trace_norm_gap` compares against.
    for d, copies in ((2, 2), (4, 1), (3, 3), (2, 4)):
        basis = sym_basis(d, copies)
        full = d**copies
        identity = np.eye(full).reshape((d,) * copies + (full,))
        p_sym = sum(
            identity.transpose(perm + (copies,)).reshape(full, full)
            for perm in itertools.permutations(range(copies))
        ) / math.factorial(copies)
        v = symmetric_embedding(basis)
        np.testing.assert_allclose(v @ v.T, p_sym, atol=1e-12)
        assert float(np.trace(p_sym)) == pytest.approx(basis.size, abs=1e-12)
        np.testing.assert_allclose(v.T @ (p_sym / basis.size) @ v, np.eye(basis.size) / basis.size, atol=1e-15)


def test_real_moment_budget_checks():
    with pytest.raises(BudgetExceededError):
        real_moment(2, 9)
    with pytest.raises(BudgetExceededError):
        real_moment(64, 4)


def test_real_moment_blocks_match_dense_eigh():
    for d, copies in ((3, 3), (4, 2), (5, 3)):
        op = real_moment(d, copies)
        np.testing.assert_allclose(
            op.eigenvalues, np.linalg.eigvalsh(op.matrix), atol=1e-12
        )


def _real_moment_by_monomials(d, copies):
    """Independent oracle: every matrix element from the Fraction monomial moment."""
    basis = sym_basis(d, copies)
    idx, nf = basis.indices + 1, basis.norm_factors
    matrix = np.zeros((basis.size, basis.size))
    for a in range(basis.size):
        for b in range(basis.size):
            indices = idx[a].tolist() + idx[b].tolist()
            matrix[a, b] = nf[a] * nf[b] * float(real_monomial_moment(indices, d))
    return matrix


@pytest.mark.parametrize("d,copies", [(2, 2), (3, 3), (4, 4), (5, 3), (2, 6)])
def test_real_moment_block_assembly_is_bit_identical_to_monomials(d, copies):
    assert np.array_equal(real_moment(d, copies).matrix, _real_moment_by_monomials(d, copies))


@pytest.mark.parametrize("d,copies", [(12, 4), (8, 6), (6, 8)])
def test_real_moment_blocks_match_dense_eigh_at_larger_cells(d, copies):
    op = real_moment(d, copies)
    assert np.all(np.diff(op.eigenvalues) >= 0)
    np.testing.assert_allclose(op.eigenvalues, np.linalg.eigvalsh(op.matrix), atol=1e-12)


def test_moment_operator_checks_every_block_and_the_row_partition(monkeypatch):
    first = (np.array([[0]]), np.full((1, 1, 1), 1 / 5))
    rows = np.array([[1, 2], [4, 3]])
    stack = np.stack([np.eye(2), np.eye(2)]) / 5
    # only the second member of the stack is asymmetric, at first by less than any float tolerance
    for below_diagonal in (1e-15, 1e-6):
        stack[1, 1, 0] = below_diagonal
        with pytest.raises(BoundViolationError, match=rf"not Hermitian \(deviation {below_diagonal:.3e}\)"):
            MomentOperator(d=5, N=1, blocks=(first, (rows, stack)))
    stack[1, 0, 1] = 1e-6
    op = MomentOperator(d=5, N=1, blocks=(first, (rows, stack)))
    assert op.matrix[3, 4] == op.matrix[4, 3] == 1e-6
    for bad in ([[1, 2], [2, 3]], [[1, 2], [3, 5]], [[1, 2]]):  # overlap, outside, missing
        bad = np.array(bad)
        with pytest.raises(BoundViolationError, match="partition"):
            MomentOperator(d=5, N=1, blocks=(first, (bad, np.stack([np.eye(2)] * len(bad)) / 5)))
    # a stack whose blocks do not match the group's row count is refused
    with pytest.raises(BoundViolationError, match="do not index"):
        MomentOperator(d=5, N=1, blocks=(first, (rows, np.stack([np.eye(3)] * 2) / 7.5)))
    # classes of one odd-set size that differ in size are refused when grouped:
    # at d=2, N=3 the classes {0} = (000), (011) and {1} = (001), (111) lose
    # one row, the smaller class listed last or first
    full = sym_basis(2, 3)
    for dropped in (3, 2):
        keep = np.arange(full.size) != dropped
        basis = haar_moments.SymBasis(d=2, N=3, indices=full.indices[keep], norm_factors=full.norm_factors[keep])
        monkeypatch.setattr(haar_moments, "sym_basis", lambda d, copies: basis)
        with pytest.raises(BoundViolationError, match="differ in size"):
            real_moment(2, 3)


def _real_moment_per_class(d, copies):
    """Reference: the per-parity-class assembly that the stacked one replaced.

    One Python iteration and one eigensolve per class, each class's rows
    ascending. Returns (rows, block) per class and the sorted eigenvalues.
    """
    basis = sym_basis(d, copies)
    pos = haar_moments._run_positions(basis.indices)
    run_end = np.diff(basis.indices, axis=1, append=basis.d) != 0
    odd = np.sort(np.where(run_end & (pos % 2 == 1), basis.indices, basis.d), axis=1)
    _, parity_class = np.unique(odd, axis=0, return_inverse=True)
    order = np.argsort(parity_class, kind="stable")
    nf = basis.norm_factors
    denom = haar_moments._sphere_moment_denominator(d, copies)
    matchings = np.array([_double_factorial(a - 1) for a in range(2 * copies + 1)], dtype=np.int64)
    blocks, eigenvalues = [], []
    for rows in np.split(order, np.flatnonzero(np.diff(parity_class[order])) + 1):
        idx = basis.indices[rows]
        o = (idx[:, :, None] == np.unique(idx)).sum(axis=1)
        count = np.empty((len(o), len(o)), dtype=matchings.dtype)
        step = max(1, haar_moments._GATHER_CAP // o.size)
        for a in range(0, len(o), step):
            np.multiply.reduce(matchings[o[a : a + step, None] + o], axis=2, out=count[a : a + step])
        block = np.multiply.outer(nf[rows], nf[rows]) * (count / denom)
        blocks.append((rows, block))
        eigenvalues.append(np.linalg.eigvalsh(block))
    return blocks, np.sort(np.concatenate(eigenvalues))


@pytest.mark.parametrize(
    "d,copies",
    [cell for cell in _ADMITTED_SMALL_CELLS if cell[0] <= 16]
    # large admitted cells for N = 3, 2, 4, 1, where the keys take large bases;
    # (12, 6) and (9, 8) are among the small cells above
    + [(40, 3), (199, 2), (24, 4), (2000, 1)],
)
def test_stacked_moment_is_byte_identical_to_the_per_class_assembly(d, copies):
    op = real_moment(d, copies)
    blocks, eigenvalues = _real_moment_per_class(d, copies)
    assert op.eigenvalues.tobytes() == eigenvalues.tobytes()
    # the blocks, keyed by each class's first row, fix every entry of the matrix
    stacked = {int(r[0]): (r, block) for rows, stack in op.blocks for r, block in zip(rows, stack)}
    assert len(stacked) == len(blocks)
    for rows, block in blocks:
        got_rows, got_block = stacked[int(rows[0])]
        assert np.array_equal(got_rows, rows)
        assert got_block.tobytes() == block.tobytes()
    if op.size <= 200:
        dense = np.zeros((op.size, op.size))
        for rows, block in blocks:
            dense[np.ix_(rows, rows)] = block
        assert op.matrix.tobytes() == dense.tobytes()


@pytest.mark.parametrize("d,copies", [(5, 3), (12, 4), (16, 4), (8, 6), (6, 8), (40, 3), (199, 2), (300, 1)])
def test_real_moment_makes_one_eigensolve_per_odd_set_size(monkeypatch, d, copies):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    real_moment(d, copies)
    assert len(calls) <= copies // 2 + 1


@pytest.mark.parametrize("d,copies", [(5, 3), (12, 4), (16, 4), (8, 6), (6, 8), (40, 3), (199, 2), (300, 1)])
def test_real_moment_gathers_matching_counts_for_one_class_per_odd_set_size(monkeypatch, d, copies):
    gathered = []
    block_counts = haar_moments._block_counts

    def counting(pairs, runs, s, d):
        gathered.append((s, pairs.shape))
        return block_counts(pairs, runs, s, d)

    monkeypatch.setattr(haar_moments, "_block_counts", counting)
    op = real_moment(d, copies)
    assert len(gathered) == len(op.blocks) <= copies // 2 + 1
    for (s, shape), (rows, _) in zip(gathered, op.blocks):
        assert shape == (rows.shape[1], (copies - s) // 2)  # one class's k rows, t = (N - s)/2 pairs, never d


# gap and o_rest_min_eig of the per-class assembly, as float.hex()
_PINNED_GAPS = {
    (16, 4): ("0x1.06bca1af286bcp-1", "-0x1.7c00000000000p-59"),
    (12, 4): ("0x1.37c57c57c57c5p-1", "-0x1.9000000000000p-58"),
    (8, 6): ("0x1.1989d89d89d8bp+0", "-0x1.d800000000000p-59"),
    (6, 8): ("0x1.2389d89d89d8ap+0", "-0x1.0b00000000000p-58"),
    (199, 2): ("0x1.46088aba95804p-7", "-0x1.d200000000000p-59"),
}


@pytest.mark.parametrize("cell", sorted(_PINNED_GAPS))
def test_gap_bytes_are_pinned(cell):
    report = trace_norm_gap(*cell)
    assert (report.gap.hex(), report.o_rest_min_eig.hex()) == _PINNED_GAPS[cell]


def test_real_moment_memory_stays_far_below_the_dense_matrix():
    real_moment(2, 2)  # first-call caches outside the measurement
    tracemalloc.start()
    try:
        op = real_moment(24, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < op.size**2 * 8 / 10


def test_small_copy_cells_take_memory_linear_in_d():
    trace_norm_gap(8, 1)  # first-call caches outside the measurement
    tracemalloc.start()
    try:
        trace_norm_gap(4000, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert sym_basis(20000, 1).indices.shape == (20000, 1)


def test_large_parity_block_gathers_in_bounded_chunks():
    # at N=2 the 199 rows (i, i) form one parity block; gathered whole it is 199^3 int64
    trace_norm_gap(8, 2)  # first-call caches outside the measurement
    tracemalloc.start()
    try:
        trace_norm_gap(199, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


@pytest.mark.parametrize("d,copies", [(5, 3), (12, 4), (9, 8)])
def test_block_counts_match_the_d_wide_product_in_bounded_memory(monkeypatch, d, copies):
    # each representative's counts are prod_j (o_a[j] + o_b[j] - 1)!! over all
    # d indices, bit for bit, from a few k x k temporaries
    basis = sym_basis(d, copies)
    matchings = np.array([_double_factorial(a - 1) for a in range(2 * copies + 1)], dtype=np.int64)
    block_counts = haar_moments._block_counts
    measured = []

    def tracing(pairs, runs, s, d):
        tracemalloc.start()
        try:
            count = block_counts(pairs, runs, s, d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        measured.append((count, peak))
        return count

    monkeypatch.setattr(haar_moments, "_block_counts", tracing)
    op = real_moment(d, copies)
    assert len(measured) == len(op.blocks)
    for (rows, _), (count, peak) in zip(op.blocks, measured):
        o = (basis.indices[rows[0]][:, :, None] == np.arange(d)).sum(axis=1)
        reference = matchings[o[:, None, :] + o[None, :, :]].prod(axis=2)
        assert count.dtype == np.int64
        assert np.array_equal(count, reference)
        k = rows.shape[1]
        assert peak < 8 * (6 * k * k + d * k) + (16 << 10)


def test_symmetric_embedding_is_isometry():
    for d, copies in ((2, 2), (3, 2), (2, 3)):
        basis = sym_basis(d, copies)
        v = symmetric_embedding(basis)
        np.testing.assert_allclose(v.T @ v, np.eye(basis.size), atol=1e-12)
        lifted = v @ real_moment(d, copies).matrix @ v.T
        assert np.trace(lifted) == pytest.approx(1.0, abs=1e-10)


def test_mc_moment_converges_to_real_moment():
    rng = np.random.default_rng(100)
    exact = real_moment(2, 2).matrix
    estimate = mc_moment(2, 2, 100_000, "real", rng)
    assert isinstance(estimate, np.ndarray) and estimate.dtype == np.float64
    assert float(np.max(np.abs(estimate - exact))) < 0.01


def test_mc_moment_converges_to_complex_moment():
    rng = np.random.default_rng(101)
    estimate = mc_moment(2, 2, 100_000, "complex", rng)
    np.testing.assert_allclose(estimate, np.eye(3) / 3, atol=0.01)
    assert np.array_equal(estimate, estimate.conj().T)  # exactly Hermitian


def test_mc_moment_single_sample_is_rank_one_state():
    rng = np.random.default_rng(102)
    estimate = mc_moment(3, 2, 1, "real", rng)
    eigs = np.linalg.eigvalsh(estimate)
    assert eigs[-1] == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.abs(eigs[:-1]) < 1e-10)


def test_mc_moment_error_scales_like_inverse_sqrt_samples():
    rng = np.random.default_rng(103)
    exact = real_moment(2, 2).matrix
    devs = {}
    for samples in (10_000, 100_000, 1_000_000):
        estimate = mc_moment(2, 2, samples, "real", rng)
        devs[samples] = float(np.max(np.abs(estimate - exact)))
    scaled = [devs[s] * math.sqrt(s) for s in devs]
    assert max(scaled) < 3 * min(scaled)


def test_mc_moment_validation():
    rng = np.random.default_rng(104)
    for samples in (0, (1 << 24) + 1):
        with pytest.raises(ValueError, match=rf"^samples must be in \[1, 2\^24\], got {samples}$"):
            mc_moment(2, 2, samples, "real", rng)
    with pytest.raises(ValueError):
        mc_moment(2, 2, 10, "rational", rng)


def _mc_moment_by_per_row_loop(d, copies, samples, field, rng):
    """Reference: vectors drawn 100 000 at a time, real parts before imaginary
    parts, and one column of coefficients per basis row, as prod_j v_j ** m_j."""
    basis = sym_basis(d, copies)
    accum = 0.0
    for start in range(0, samples, 100_000):
        m = min(100_000, samples - start)
        vecs = rng.standard_normal((m, d))
        if field == "complex":
            vecs = vecs + 1j * rng.standard_normal((m, d))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        w = np.empty((m, basis.size), dtype=vecs.dtype)
        for b in range(basis.size):
            col = np.full(m, basis.norm_factors[b], dtype=vecs.dtype)
            for j, m_j in zip(*np.unique(basis.indices[b], return_counts=True)):
                col = col * vecs[:, j] ** int(m_j)
            w[:, b] = col
        accum = accum + w.T @ w.conj()
    estimate = accum / samples
    return (estimate + estimate.conj().T) / 2.0


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("cap", [7, 1 << 20])
def test_mc_moment_gather_matches_per_row_loop(monkeypatch, field, cap):
    # the gather multiplies N factors where the loop takes powers, and sums in
    # sub-chunks: equal up to rounding of a few float64 operations per entry
    monkeypatch.setattr(haar_moments, "_GATHER_CAP", cap)
    estimate = mc_moment(4, 3, 3000, field, np.random.default_rng(110))
    reference = _mc_moment_by_per_row_loop(4, 3, 3000, field, np.random.default_rng(110))
    np.testing.assert_allclose(estimate, reference, rtol=1e-13, atol=1e-16)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_mc_moment_sub_chunks_keep_the_rng_stream(monkeypatch, field):
    # 150 000 samples span two draw chunks, and a small gather cap splits each
    # into sub-chunks of 682 samples; the vectors and the stream stay the same
    monkeypatch.setattr(haar_moments, "_GATHER_CAP", 1 << 12)
    rng, reference_rng = np.random.default_rng(106), np.random.default_rng(106)
    estimate = mc_moment(3, 2, 150_000, field, rng)
    reference = _mc_moment_by_per_row_loop(3, 2, 150_000, field, reference_rng)
    np.testing.assert_allclose(estimate, reference, rtol=1e-12, atol=1e-16)
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_mc_moment_refuses_an_estimate_over_the_byte_budget():
    size = math.comb(24 + 3, 4)
    assert size * size * 16 > MC_ESTIMATE_BYTE_BUDGET
    rng = np.random.default_rng(107)
    state = rng.bit_generator.state
    for field in ("real", "complex"):
        with pytest.raises(BudgetExceededError, match="Monte Carlo estimate"):
            mc_moment(24, 4, 200, field, rng)
    assert rng.bit_generator.state == state  # refused before any draw


def test_mc_moment_refuses_a_draw_chunk_over_the_byte_budget():
    # at (2000, 1) the estimate is 64 MB, but one 100 000-vector draw chunk is 6.4 GB
    assert 2 * 100_000 * 2000 * 16 > MC_ESTIMATE_BYTE_BUDGET > 2000 * 2000 * 16
    mc_moment(2, 1, 10, "real", np.random.default_rng(0))  # first-call caches
    rng = np.random.default_rng(111)
    state = rng.bit_generator.state
    tracemalloc.start()
    try:
        for field in ("real", "complex"):
            with pytest.raises(BudgetExceededError, match="draw chunk of 6400000000 bytes"):
                mc_moment(2000, 1, 100_000, field, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # refused before the estimate or any chunk is allocated
    assert rng.bit_generator.state == state  # and before any draw


def test_mc_cross_check_memory_is_one_estimate_plus_bounded_temporaries():
    trace_norm_gap(4, 2, mc_samples=10, rng=np.random.default_rng(0))  # first-call caches
    size = math.comb(12 + 3, 4)
    tracemalloc.start()
    try:
        trace_norm_gap(12, 4, mc_samples=2000, rng=np.random.default_rng(108))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one complex estimate (29.8 MB) plus a few temporaries of _GATHER_CAP complex
    # entries; two live estimates, or the 2000 x size coefficient table, would exceed it
    assert peak < size * size * 16 + 4 * haar_moments._GATHER_CAP * 16


def test_no_eigensolve_runs_on_a_monte_carlo_estimate(monkeypatch):
    shapes = []

    def counting(fn):
        def wrapped(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return fn(a, *args, **kwargs)

        return wrapped

    for name in ("eigvalsh", "eigh", "eigvals", "eig"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    trace_norm_gap(8, 3, mc_samples=500, rng=np.random.default_rng(109))
    monkeypatch.undo()
    block_shapes = [block.shape for _, block in real_moment(8, 3).blocks]
    assert sorted(shapes) == sorted(block_shapes)


def test_gap_vanishes_at_single_copy():
    for d in (2, 3, 4, 8, 16):
        assert trace_norm_gap(d, 1).gap < 1e-10


def test_gap_report_d2_n2_exact_values():
    report = trace_norm_gap(2, 2)
    assert report.gap == pytest.approx(1 / 3, abs=1e-9)
    assert report.bound_two_term == pytest.approx(16 / 9, abs=1e-12)
    assert report.bound_final == pytest.approx(8.0, abs=1e-12)
    assert report.middle_term == pytest.approx(1 / 4, abs=1e-10)
    assert report.o_rest_min_eig >= -1e-9
    assert report.sym_dim == 3
    assert report.mc_max_dev is None


def test_gap_matches_direct_eigendecomposition():
    for d, copies in ((2, 2), (3, 2), (4, 3), (6, 2)):
        report = trace_norm_gap(d, copies)
        e_real = real_moment(d, copies)
        direct = float(np.sum(np.abs(np.linalg.eigvalsh(np.eye(e_real.size) / e_real.size - e_real.matrix))))
        assert report.gap == pytest.approx(direct, abs=1e-10)


def test_gap_bound_chain_on_grid():
    for d in (2, 4, 8):
        for copies in (1, 2, 3):
            report = trace_norm_gap(d, copies)
            assert 0 <= report.gap <= report.bound_two_term + 1e-9
            assert report.bound_two_term <= report.bound_final + 1e-9
            assert report.o_rest_min_eig >= -1e-9


def test_gap_monte_carlo_hook():
    rng = np.random.default_rng(105)
    report = trace_norm_gap(2, 2, mc_samples=50_000, rng=rng)
    assert report.mc_max_dev is not None and report.mc_max_dev < 0.02
    with pytest.raises(ValueError, match="rng"):
        trace_norm_gap(2, 2, mc_samples=10)


def test_middle_term_equals_scalar_trace_deficit():
    # the reported middle quantity equals 1 - sym_dim * N!/(d(d+2)...(d+2N-2))
    for d, copies in ((2, 2), (4, 3), (7, 2)):
        report = trace_norm_gap(d, copies)
        denom = math.prod(d + 2 * k for k in range(copies))
        explicit = 1 - math.comb(d + copies - 1, copies) * math.factorial(copies) / denom
        assert report.middle_term == pytest.approx(explicit, abs=1e-10)


def _full_space_swapped_distance(d, copies):
    """Distance between the swapped 2N-copy pairs, built densely in the d^2N tensor space."""
    v = symmetric_embedding(sym_basis(d, copies))
    e_real_full = v @ real_moment(d, copies).matrix @ v.T
    e_complex_full = (v @ v.T) / v.shape[1]
    difference = np.kron(e_complex_full, e_real_full) - np.kron(e_real_full, e_complex_full)
    return float(np.sum(np.abs(np.linalg.eigvalsh(difference))))


def test_swapped_pair_check_runs_at_tiny_sizes(monkeypatch):
    # the d <= 3, N <= 2 branch builds the 2N-copy pair in the symmetric basis; V (x) V keeps its distance
    tiny = [(d, copies) for d in (1, 2, 3) for copies in (1, 2)]
    full_space = [_full_space_swapped_distance(d, copies) for d, copies in tiny]
    eigvalsh = np.linalg.eigvalsh
    distances = []

    def recording(a):  # the stacks are 3-d, the swapped-pair difference 2-d
        w = eigvalsh(a)
        if a.ndim == 2:
            distances.append(float(np.sum(np.abs(w))))
        return w

    monkeypatch.setattr(haar_moments.np.linalg, "eigvalsh", recording)
    for (d, copies), reference in zip(tiny, full_space):
        distances.clear()
        trace_norm_gap(d, copies)
        assert len(distances) == 1
        assert abs(distances[0] - reference) <= 1e-15
    trace_norm_gap(4, 2)
    trace_norm_gap(2, 3)
    assert len(distances) == 1  # no swapped pair outside d <= 3, N <= 2


def test_a_swapped_pair_distance_past_twice_the_gap_is_a_bound_violation(monkeypatch):
    eigvalsh = np.linalg.eigvalsh
    shifted = lambda a: eigvalsh(a) + (1.0 if a.ndim == 2 else 0.0)  # the moment's stacks are untouched
    monkeypatch.setattr(haar_moments.np.linalg, "eigvalsh", shifted)
    with pytest.raises(BoundViolationError, match="^swapped-pair distance .* exceeds 2\\*gap .* at d=2, N=2$"):
        trace_norm_gap(2, 2)
