"""Moment operators of Haar-random unit vectors on the symmetric subspace.

The N-th moment of a Haar-random complex unit vector is a scalar on the
symmetric subspace: identity divided by binomial(d+N-1, N), the normalised
projector onto Sym^N (Harrow, "The Church of the Symmetric Subspace"), so it
is used as that constant and never built. The real-sphere moment is not
scalar; its matrix elements in the symmetric basis follow from monomial
sphere moments, products of double factorials over index multiplicities
(Isserlis' theorem restricted to the sphere) divided by d(d+2)...(d+2N-2).
Each basis element is stored as its nondecreasing index tuple, so the basis
takes binomial(d+N-1, N) rows of N entries instead of d^N dimensions, and
nothing in it grows with d beyond the row count.

The real moment is block diagonal over the sets of indices that occur an odd
number of times, and a `MomentOperator` holds only those blocks. Index
permutations map one such set onto any other of the same size s and commute
with the moment, so every block of one s is an exact row and column
permutation of any other. One representative block per s is assembled from
int64 keys and lookups, with no d-wide gather per row, and permuted into the
rest; each s is eigensolved as one (classes, k, k) stack, at most N/2 + 1 in
all. The dense matrix is built only for tests and the swapped-pair check.

The real moment commutes with O(d): `moment_spectrum` gives its exact spectrum,
which `MomentOperator` checks its eigenvalues against and on which the bound
chain of `trace_norm_gap`'s Schatten-1 distance is checked exactly. For d <= 3,
N <= 2 `trace_norm_gap` checks the swapped 2N-copy pair's distance against
2 * gap in the symmetric basis: V (x) V, for the isometry V of Sym^N into the
d^N space, leaves the distance unchanged, so nothing d^N wide is built.
Its optional Monte Carlo cross-check (`mc_moment`) works on one plain
size x size estimate at a time, admitted only within `MC_ESTIMATE_BYTE_BUDGET`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .quantum_sim import TRACE_ATOL
from .inputs import check_count, quoted

__all__ = [
    "BoundViolationError",
    "BudgetExceededError",
    "GapReport",
    "MAX_MOMENT_COPIES",
    "MC_ESTIMATE_BYTE_BUDGET",
    "MomentOperator",
    "SYM_DIM_BUDGET",
    "SymBasis",
    "mc_moment",
    "moment_spectrum",
    "real_moment",
    "sym_basis",
    "trace_norm_gap",
]

SYM_DIM_BUDGET = 20_000
MAX_MOMENT_COPIES = 8
# Bytes of one size x size Monte Carlo estimate plus one draw chunk and its
# temporary, counted as complex128 for either field so that a cell is admitted
# for both fields or for neither.
MC_ESTIMATE_BYTE_BUDGET = 1 << 30

BOUND_SLACK = 1e-9

# Elements per temporary in the coefficient gather and accumulation of
# `mc_moment` and its deviation checks (one row at least).
_GATHER_CAP = 1 << 20
# Unit vectors drawn per RNG call in `mc_moment` (real parts before imaginary parts).
_MC_DRAW_CHUNK = 100_000


class BudgetExceededError(Exception):
    """A requested (d, N) cell does not fit its memory budget.

    When `trace_norm_gap` refuses only its Monte Carlo stage, `exact` holds
    the cell's checked report (with `mc_max_dev` None); otherwise it is None.
    """

    exact: "GapReport | None" = None


class BoundViolationError(RuntimeError):
    """A proven property or inequality failed numerically; indicates an implementation bug."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise BoundViolationError(message)


@dataclass(frozen=True)
class SymBasis:
    """Basis of the N-fold symmetric subspace over dimension d.

    Row b of the size x N array `indices` is the nondecreasing index tuple of
    the b-th element, in the order `combinations_with_replacement` yields
    them, so for d=2, N=2 the rows are (0,0), (0,1), (1,1). An index j that
    occurs m_j times in a row has occupation m_j. `norm_factors[b]` is
    sqrt(N!/prod_j m_j!), the normalization of the b-th basis state.
    """

    d: int
    N: int
    indices: np.ndarray
    norm_factors: np.ndarray

    @property
    def size(self) -> int:
        return self.indices.shape[0]


def _fold_rows(ufunc: np.ufunc, a: np.ndarray) -> np.ndarray:
    """ufunc.reduce(a, axis=1), bit for bit, a column at a time, for rows of a few entries.

    numpy reduces each row on its own, at about 20 ns per row. An integer
    result does not depend on the order, and numpy adds a float row of fewer
    than 8 entries left to right, the order of the column loop.
    """
    if a.shape[1] == 0:
        return ufunc.reduce(a, axis=1)
    out = a[:, 0].copy()
    for k in range(1, a.shape[1]):
        ufunc(out, a[:, k], out=out)
    return out


def _run_positions(indices: np.ndarray) -> np.ndarray:
    """1-based position of each entry in its run of equal values; a row's product is prod_j m_j!."""
    pos = np.ones(indices.shape, dtype=np.int64)
    for k in range(1, indices.shape[1]):
        pos[:, k] = np.where(indices[:, k] == indices[:, k - 1], pos[:, k - 1] + 1, 1)
    return pos


def sym_basis(d: int, copies: int) -> SymBasis:
    """Enumerate the index-tuple basis; errors out above the copy cap or the dimension budget."""
    if copies > MAX_MOMENT_COPIES:  # keeps N! and so every multinomial exact in int64
        raise BudgetExceededError(f"N={quoted(copies)} exceeds the cap {MAX_MOMENT_COPIES}")
    check_count("d", d, 1, None)
    check_count("N", copies, 1, None)
    size = math.comb(d + copies - 1, copies)
    if size > SYM_DIM_BUDGET:
        raise BudgetExceededError(f"symmetric dimension {quoted(size)} exceeds budget {SYM_DIM_BUDGET}")
    # Lexicographic order: row (..., v) is followed by its d - v extensions (..., v, v), ..., (..., v, d-1).
    indices = np.arange(d, dtype=np.int64)[:, None]
    for _ in range(1, copies):
        reps = d - indices[:, -1]
        ends = reps.cumsum()
        nxt = np.arange(ends[-1]) - (ends - d).repeat(reps)
        indices = np.concatenate((indices.repeat(reps, axis=0), nxt[:, None]), axis=1)
    # N!/prod_j m_j! is an integer below 8!, so it converts to float64 exactly.
    norm = np.sqrt((math.factorial(copies) // _fold_rows(np.multiply, _run_positions(indices))).astype(np.float64))
    return SymBasis(d=d, N=copies, indices=indices, norm_factors=norm)


@lru_cache(maxsize=None)
def moment_spectrum(d: int, copies: int) -> tuple[tuple[Fraction, int], ...]:
    """Exact (eigenvalue, multiplicity) pairs of the real moment, eigenvalues ascending, checked with no slack.

    The moment commutes with O(d), so it is a scalar on each harmonic component of Sym^N(R^d): lambda_j =
    N!/(2^m m! d(d+2)...(d+N+j-2)) for j = N - 2m, of multiplicity C(j+d-1, d-1) - C(j+d-3, d-1), the second term 0
    for j < 2. The first is lambda_N, the scalar part (multiplicity 0 at d = 1 from N = 2). The multiplicities
    must sum to the basis size, the trace must be 1 and 0 <= gap <= 2 * middle term <= two-term bound <= 4N^2/d.
    """
    size = math.comb(d + copies - 1, copies)
    spectrum = []
    for j in range(copies, -1, -2):
        m = (copies - j) // 2
        lam = Fraction(math.factorial(copies), 2**m * math.factorial(m) * math.prod(range(d, d + copies + j - 1, 2)))
        spectrum.append((lam, math.comb(j + d - 1, d - 1) - (math.comb(j + d - 3, d - 1) if j >= 2 else 0)))
    _check(sum(mult for _, mult in spectrum) == size, f"spectrum multiplicities do not sum to {size}")
    _check(sum(lam * mult for lam, mult in spectrum) == 1, "spectrum trace is not 1")
    gap = sum(mult * abs(Fraction(1, size) - lam) for lam, mult in spectrum)
    middle, two_term = 1 - size * spectrum[0][0], 2 * (1 - Fraction(d, d + 2 * copies) ** copies)
    _check(
        0 <= gap <= 2 * middle <= two_term <= Fraction(4 * copies**2, d),
        f"bound chain 0 <= gap {gap} <= 2*middle term {2 * middle} <= two-term bound {two_term} <= 4N^2/d fails",
    )
    return tuple(spectrum)


@dataclass(frozen=True)
class MomentOperator:
    """Expected N-fold tensor power of a real random rank-one projector, in SymBasis.

    Held as symmetric diagonal blocks, one per parity class, stacked by odd-set
    size s (the number of indices a row holds an odd number of times): each
    entry of `blocks` pairs a (classes, k) array, whose c-th row lists the
    basis rows of class c in ascending order, with the (classes, k, k) stack
    of their blocks. `real_moment` assembles one representative block per s
    and permutes it into the rest of its stack, every index found by integer
    keys. Construction checks that the rows of all stacks partition the basis,
    that every stack equals its transpose exactly (the assembly is symmetric by
    construction), and that its `eigenvalues` (ascending, from the stacks) lie
    within the bound slack times lambda_max of `moment_spectrum`. The dense
    `matrix` is built only when read, by tests and the swapped-pair check.
    """

    d: int
    N: int
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]
    eigenvalues: np.ndarray = dataclasses.field(init=False)

    def __post_init__(self):
        for rows, stack in self.blocks:
            fits = rows.ndim == 2 and stack.shape == (*rows.shape, rows.shape[1])
            _check(fits, f"block rows of shape {rows.shape} do not index a stack of shape {stack.shape}")
        rows = np.sort(np.concatenate([r.ravel() for r, _ in self.blocks]))
        _check(np.array_equal(rows, np.arange(self.size)), f"block rows do not partition the {self.size} basis rows")
        for _, stack in self.blocks:  # exactly: counts and norm factors are symmetric, rows and columns permute alike
            if not np.array_equal(stack, stack.swapaxes(1, 2)):
                dev = float(np.max(np.abs(stack - stack.swapaxes(1, 2))))
                raise BoundViolationError(f"moment operator not Hermitian (deviation {dev:.3e})")
        eigenvalues = np.sort(np.concatenate([np.linalg.eigvalsh(stack).ravel() for _, stack in self.blocks]))
        lam, mult = zip(*moment_spectrum(self.d, self.N))
        exact = np.repeat([float(x) for x in lam], mult)
        dev = float(np.max(np.abs(eigenvalues - exact)))
        _check(dev <= BOUND_SLACK * exact[-1], f"eigenvalues deviate from the exact spectrum by {dev:.3e}")
        object.__setattr__(self, "eigenvalues", eigenvalues)

    @property
    def size(self) -> int:
        return math.comb(self.d + self.N - 1, self.N)

    @property
    def matrix(self) -> np.ndarray:
        """Dense size x size assembly of the blocks (tests and the swapped-pair check)."""
        m = np.zeros((self.size, self.size))
        for rows, stack in self.blocks:
            m[rows[:, :, None], rows[:, None, :]] = stack
        return m


def _block_counts(pairs: np.ndarray, runs: np.ndarray, s: int, d: int) -> np.ndarray:
    """Exact int64 matching counts of the representative block of odd-set size s.

    Row a is {0..s-1} plus the pairs listed in `pairs[a]`, ascending; `runs[a, u]` is the place
    of pair u among the row's pairs on its index. With q_a[j] the pairs of row a on j,
    count[a, b] = prod_j h_j(q_a[j] + q_b[j]), where h_j(q) = (2q + 1)!! for j < s and (2q - 1)!!
    otherwise. That is r_b = prod_j h_j(q_b[j]) times, for the u-th pair of row a on j, the odd
    number h_j(u + q_b[j]) / h_j(u - 1 + q_b[j]): one (k, k) layer per pair, none per index of [d].
    """
    k, t = pairs.shape
    # held[j, b] = q_b[j], the pairs of row b on index j
    held = np.bincount((k * pairs + np.arange(k)[:, None]).ravel(), minlength=k * d).reshape(d, k)
    step = 2 * runs + 2 * (pairs < s) - 1  # h_j(u) / h_j(u - 1)
    count = _fold_rows(np.multiply, step)[None, :]  # r_b
    for u in range(t):
        count = count * (2 * held[pairs[:, u]] + step[:, u, None])
    return count


def real_moment(d: int, copies: int) -> MomentOperator:
    """Exact real-sphere moment operator assembled from monomial moments.

    A matrix element <m|E|m'> equals norm_m * norm_m' times the monomial
    moment of the combined occupation m + m', which vanishes unless m and m'
    hold the same set S of indices an odd number of times. The operator is
    therefore block diagonal over these parity classes. A row of class S is S
    plus (N - |S|)/2 pairs on any indices. The order-preserving relabelling
    that takes S to another set S' of the same size s, and the rest of [d] to
    the rest, maps the rows of S one-to-one onto those of S' and keeps every
    occupation multiset, so norm factors and matching counts agree entry for
    entry. Only the block of S = {0..s-1} is therefore assembled; every other
    block of that s is its exact row and column permutation, with each
    class's rows kept ascending, and each s is eigensolved as one stack.

    Bookkeeping runs on integer keys, nothing d wide per row: one stable
    argsort of odd-set keys groups the rows by s and class, and a (classes, d)
    relabelling table takes each class's sorted pair lists, keyed in base d,
    to the representative's rows by one `searchsorted`. The exact counts take
    one (k, k) layer per pair of a row (`_block_counts`).
    """
    basis = sym_basis(d, copies)
    x, nf = basis.indices, basis.norm_factors
    denom = math.prod(range(d, d + 2 * copies, 2))  # d(d+2)...(d+2N-2)
    pos = _run_positions(x)
    run_end = np.ones(x.shape, dtype=bool)
    run_end[:, :-1] = x[:, 1:] != x[:, :-1]
    odd = run_end & (pos % 2 == 1)  # each index of a row's odd set, once
    rank = odd.astype(np.int64)  # a running count of each row's odd set, a column at a time
    for k in range(1, copies):
        rank[:, k] += rank[:, k - 1]
    odd_size = rank[:, -1]
    power = d ** np.arange(copies + 1)  # odd_key: s, then the members of S, as base-d digits
    odd_key = power[copies] * odd_size + _fold_rows(np.add, np.where(odd, x, 0) * power[odd_size[:, None] - rank])
    order = np.argsort(odd_key, kind="stable")  # by s, then S; rows ascending within each class
    sorted_keys, pos = odd_key[order], pos[order]
    paired = pos % 2 == 0
    pairs, runs = x[order][paired], pos[paired] // 2  # each pair a row holds, and its place on its index
    blocks = []
    lo = at = 0  # first row of the group in `order`, and its first entry in `pairs`
    sizes = np.bincount(odd_size)
    for s in np.flatnonzero(sizes):  # s = N mod 2, N mod 2 + 2, ..., at most N
        group, t = sizes[s], (copies - s) // 2
        starts = np.flatnonzero(sorted_keys[lo + 1 : lo + group] != sorted_keys[lo : lo + group - 1]) + 1
        k = int(starts[0]) if len(starts) else group
        same_size = group % k == 0 and np.array_equal(starts, np.arange(k, group, k))
        _check(same_size, f"classes of odd-set size {s} differ in size")
        rows = order[lo : lo + group].reshape(-1, k)
        classes, rep = len(rows), slice(at, at + k * t)  # rep: the pairs of class 0, S = {0..s-1}
        count = _block_counts(pairs[rep].reshape(k, t), runs[rep].reshape(k, t), s, d)
        # count and denom stay below 2^53 in every admitted cell: the quotient is rounded once, as float(Fraction)
        e0 = np.multiply.outer(nf[rows[0]], nf[rows[0]]) * (count / denom)
        if classes == 1 or k == 1:  # nothing to permute: one class, or equal 1 x 1 blocks
            stack = np.repeat(e0[None], classes, axis=0)
        else:  # relabel S to 0..s-1 and the rest of [d] to s..d-1, both in order
            in_set = np.zeros((classes, d), dtype=bool)
            in_set[np.arange(classes)[:, None], x[rows[:, 0]][odd[rows[:, 0]]].reshape(classes, s)] = True
            below = in_set.cumsum(axis=1)
            relabel = np.where(in_set, below - 1, s + np.arange(d) - below)
            class_pairs = pairs[at : at + group * t].reshape(classes, k, t)
            keys = np.sort(relabel[np.arange(classes)[:, None, None], class_pairs], axis=2) @ power[t - 1 :: -1]
            pi = np.searchsorted(keys[0], keys)  # class 0 is the representative, its keys ascending
            stack = np.take(e0, k * pi[:, :, None] + pi[:, None, :])
        blocks.append((rows, stack))
        lo, at = lo + group, at + group * t
    return MomentOperator(d=d, N=copies, blocks=tuple(blocks))


def mc_moment(d: int, copies: int, samples: int, field: str, rng: np.random.Generator) -> np.ndarray:
    """Monte Carlo estimate of the real or complex moment operator, as a size x size array.

    Each sampled unit vector v contributes the rank-one projector onto its
    symmetric coefficients w_b = norm_b * v_{i_1} ... v_{i_N}, where i_1..i_N
    is row b of the basis; |w| is a unit vector, so the estimate has trace
    one, which is checked. The mean is made exactly Hermitian as (E + E^H)/2.

    Unit vectors are drawn `_MC_DRAW_CHUNK` at a time, real parts before
    imaginary parts, and normalized by `_normalize_rows`, whose norms are
    column sums (`_row_norms`): numpy reduces a row of d < 8 entries at about
    20 ns per row, while adding the columns left to right gives the same bits
    in a fraction of that. Nothing real is cast to complex: complex draws are
    written into the two parts of one array, and draws and coefficients are
    scaled on their float64 view, by 1/norm and by norm_b. Against
    `re + 1j * im`, complex division by the norm and complex multiplication
    by norm_b, this differs at most in the sign of a zero component, which
    needs an exactly zero Gaussian draw; every value, so every |entry| and
    `mc_max_dev`, is unchanged. Each chunk is gathered into coefficients
    and accumulated in sub-chunks of at most `_GATHER_CAP` entries. Memory is
    therefore one estimate, one draw chunk and bounded temporaries. A cell
    whose estimate plus draw chunk (min(samples, `_MC_DRAW_CHUNK`) x d complex
    entries and their temporary) would exceed `MC_ESTIMATE_BYTE_BUDGET` raises
    BudgetExceededError before the estimate is allocated or any vector drawn.
    """
    check_count("samples", samples, 1)
    if field not in ("real", "complex"):
        raise ValueError(f"unknown field {field!r}")
    basis = sym_basis(d, copies)
    size = basis.size
    itemsize = np.dtype(np.complex128).itemsize
    nbytes = size * size * itemsize
    chunk_bytes = 2 * min(samples, _MC_DRAW_CHUNK) * d * itemsize
    if nbytes + chunk_bytes > MC_ESTIMATE_BYTE_BUDGET:
        raise BudgetExceededError(
            f"Monte Carlo estimate of {nbytes} bytes and draw chunk of {chunk_bytes} bytes"
            f" exceed budget {MC_ESTIMATE_BYTE_BUDGET}"
        )
    estimate = np.zeros((size, size), dtype=np.float64 if field == "real" else np.complex128)
    step = max(1, _GATHER_CAP // size)  # samples per sub-chunk, and estimate rows per product

    for start in range(0, samples, _MC_DRAW_CHUNK):
        m = min(_MC_DRAW_CHUNK, samples - start)
        vecs = rng.standard_normal((m, d))
        if field == "complex":
            real_parts, vecs = vecs, np.empty((m, d), dtype=np.complex128)
            vecs.real = real_parts
            vecs.imag = rng.standard_normal((m, d))
        _normalize_rows(vecs)
        for a in range(0, m, step):
            sub = vecs[a : a + step]
            w = sub[:, basis.indices[:, 0]]  # column-major, as numpy lays out a gather along axis 1
            scaled = w.T.view(np.float64)  # row b holds coefficient b of every sample, in float64
            scaled *= basis.norm_factors[:, None]
            for k in range(1, copies):
                w *= sub[:, basis.indices[:, k]]
            w_conj = w.conj()
            for r in range(0, size, step):
                estimate[r : r + step] += w[:, r : r + step].T @ w_conj

    estimate /= samples
    _hermitian_part_in_place(estimate)
    tr = float(np.trace(estimate).real)
    _check(abs(tr - 1.0) <= TRACE_ATOL, f"Monte Carlo estimate trace {tr} deviates from 1")
    return estimate


def _row_norms(vecs: np.ndarray) -> np.ndarray:
    """np.linalg.norm(vecs, axis=1, keepdims=True), bit for bit, at the cost of d column passes.

    The squares are numpy's own, (v.conj() * v).real or v * v, summed by
    `_fold_rows` below d = 8; from 8 on numpy sums pairwise, and the rows go to
    numpy.
    """
    d = vecs.shape[1]
    if d >= 8:
        return np.linalg.norm(vecs, axis=1, keepdims=True)
    if np.iscomplexobj(vecs):
        product = vecs.conj()
        product *= vecs  # in place: one complex temporary, not two
        squares = product.real
    else:
        squares = vecs * vecs
    total = _fold_rows(np.add, squares)
    return np.sqrt(total, out=total)[:, None]


def _normalize_rows(vecs: np.ndarray) -> None:
    """vecs <- vecs / its row norms, in place; complex rows by their float64 view times 1/norm.

    numpy divides a complex a + bi by a real n as ((a + b*0) + (b - a*0)i) * (1/n),
    so the view's product differs only where a or b is an exact zero, in its sign.
    """
    norms = _row_norms(vecs)
    if np.iscomplexobj(vecs):
        flat = vecs.view(np.float64)
        flat *= 1.0 / norms
    else:
        vecs /= norms


def _hermitian_part_in_place(a: np.ndarray) -> None:
    """a <- (a + a^H) / 2, one pair of mirrored tiles at a time."""
    t = max(1, math.isqrt(_GATHER_CAP))
    for i in range(0, a.shape[0], t):
        for j in range(i, a.shape[0], t):
            h = (a[i : i + t, j : j + t] + a[j : j + t, i : i + t].conj().T) / 2.0
            a[i : i + t, j : j + t] = h
            a[j : j + t, i : i + t] = h.conj().T


def _max_abs(a: np.ndarray) -> float:
    """max |a_ij| in row chunks of at most `_GATHER_CAP` entries."""
    step = max(1, _GATHER_CAP // a.shape[1])
    return max(float(np.max(np.abs(a[r : r + step]))) for r in range(0, a.shape[0], step))


@dataclass(frozen=True)
class GapReport:
    """Trace-norm gap between the two moment operators and its bound chain."""

    d: int
    N: int
    sym_dim: int
    gap: float
    bound_two_term: float
    bound_final: float
    middle_term: float
    o_rest_min_eig: float
    mc_max_dev: float | None = None


def trace_norm_gap(
    d: int, copies: int, mc_samples: int | None = None, rng: np.random.Generator | None = None
) -> GapReport:
    """Gap ||E_complex - E_real||_1 with every inequality of its bound chain checked.

    The gap comes from `real_moment`'s eigenvalues, checked against the exact spectrum, on which `moment_spectrum`
    checks 0 <= gap <= 2 * middle term <= 2(1 - (1+2N/d)^-N) <= 4N^2/d exactly; the middle term is the trace of
    E_real - lambda_N * I, whose least eigenvalue is `o_rest_min_eig`. The emitted two-term bound is checked against
    its exact value. For d <= 3, N <= 2 the swapped 2N-copy pair's distance, from size^2-wide Kronecker products, is
    checked against 2 * gap.
    Violations raise BoundViolationError: they indicate a bug, not bad luck.
    A Monte Carlo stage over its byte budget raises BudgetExceededError with
    the checked exact report in `exact`; `mc_samples` without an `rng`, or
    outside [1, 2^24], is refused before any moment is computed.
    """
    if mc_samples is not None:
        if rng is None:
            raise ValueError("mc_samples requires an rng")
        check_count("samples", mc_samples, 1)
    e_real = real_moment(d, copies)
    size = e_real.size
    lam = e_real.eigenvalues

    # E_complex is identity/size on the same basis, so the difference spectrum is 1/size - lam exactly.
    gap = float(np.sum(np.abs(1.0 / size - lam)))

    scalar = moment_spectrum(d, copies)[0][0]  # lambda_N = N!/(d(d+2)...(d+2N-2))
    o_rest_min_eig = float(lam[0]) - float(scalar)
    middle_term = float(1 - size * scalar)
    bound_two_term = 2.0 * (1.0 - (1.0 + 2.0 * copies / d) ** (-copies))
    bound_final = 4.0 * copies**2 / d
    two_term = 2 * (1 - Fraction(d, d + 2 * copies) ** copies)  # its exact value
    _check(abs(bound_two_term - two_term) <= BOUND_SLACK, f"two-term bound {bound_two_term} is not {two_term}")

    if d <= 3 and copies <= 2:
        m, scalar_part = e_real.matrix, np.eye(size) / size
        swapped = float(np.sum(np.abs(np.linalg.eigvalsh(np.kron(scalar_part, m) - np.kron(m, scalar_part)))))
        _check(
            swapped <= 2.0 * gap + BOUND_SLACK,
            f"swapped-pair distance {swapped} exceeds 2*gap {2 * gap} at d={d}, N={copies}",
        )

    report = GapReport(
        d=d,
        N=copies,
        sym_dim=size,
        gap=gap,
        bound_two_term=bound_two_term,
        bound_final=bound_final,
        middle_term=middle_term,
        o_rest_min_eig=o_rest_min_eig,
    )
    if mc_samples is None:
        return report
    try:
        mc_max_dev = _mc_max_dev(e_real, mc_samples, rng)
    except BudgetExceededError as exc:
        exc.exact = report
        raise
    return dataclasses.replace(report, mc_max_dev=mc_max_dev)


def _mc_max_dev(e_real: MomentOperator, samples: int, rng: np.random.Generator) -> float:
    """Largest entry deviation of the real and complex Monte Carlo estimates from the exact moments."""
    d, copies, size = e_real.d, e_real.N, e_real.size
    # Deviations are taken in place: the real estimate minus each exact
    # block (it is 0 off the blocks), the complex one minus I/size.
    estimate = mc_moment(d, copies, samples, "real", rng)
    for rows, stack in e_real.blocks:
        estimate[rows[:, :, None], rows[:, None, :]] -= stack
    dev_real = _max_abs(estimate)
    del estimate
    estimate = mc_moment(d, copies, samples, "complex", rng)
    estimate[np.diag_indices(size)] -= 1.0 / size
    return max(dev_real, _max_abs(estimate))
