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
number of times, and a `MomentOperator` holds only those blocks; the dense
matrix is assembled on request, for tests and tiny-cell cross-checks.

`trace_norm_gap` computes the Schatten-1 distance between the two moments
and checks it against the two-term and 4N^2/d bounds, along with positivity
of the remainder left after subtracting the scalar part from the real moment.
Its optional Monte Carlo cross-check (`mc_moment`) works on one plain
size x size estimate at a time, admitted only within `MC_ESTIMATE_BYTE_BUDGET`.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .quantum_sim import HERMITIAN_ATOL, PSD_ATOL, TRACE_ATOL

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
    "real_moment",
    "real_monomial_moment",
    "sym_basis",
    "symmetric_embedding",
    "trace_norm_gap",
]

SYM_DIM_BUDGET = 20_000
MAX_MOMENT_COPIES = 8
# Bytes of one size x size Monte Carlo estimate plus one draw chunk and its
# temporary, counted as complex128 for either field so that a cell is admitted
# for both fields or for neither.
MC_ESTIMATE_BYTE_BUDGET = 1 << 30

BOUND_SLACK = 1e-9

# Elements per temporary in the block gather of `real_moment` and in the
# coefficient gather and accumulation of `mc_moment` (one row at least).
_GATHER_CAP = 1 << 20
# Unit vectors drawn per RNG call in `mc_moment` (real parts before imaginary parts).
_MC_DRAW_CHUNK = 100_000
# Largest d^N that `symmetric_embedding` materializes.
_MAX_EMBED_DIM = 1 << 16


class BudgetExceededError(Exception):
    """A requested (d, N) cell does not fit its memory budget.

    When `trace_norm_gap` refuses only its Monte Carlo stage, `exact` holds
    the cell's checked report (with `mc_max_dev` None); otherwise it is None.
    """

    exact: "GapReport | None" = None


class BoundViolationError(RuntimeError):
    """A proven inequality failed numerically; indicates an implementation bug."""


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


def _run_positions(indices: np.ndarray) -> np.ndarray:
    """1-based position of each entry in its run of equal values; a row's product is prod_j m_j!."""
    pos = np.ones(indices.shape, dtype=np.int64)
    for k in range(1, indices.shape[1]):
        pos[:, k] = np.where(indices[:, k] == indices[:, k - 1], pos[:, k - 1] + 1, 1)
    return pos


def sym_basis(d: int, copies: int) -> SymBasis:
    """Enumerate the index-tuple basis; errors out above the dimension budget."""
    if d < 1 or copies < 1:
        raise ValueError("d and N must be at least 1")
    size = math.comb(d + copies - 1, copies)
    if size > SYM_DIM_BUDGET:
        raise BudgetExceededError(f"symmetric dimension {size} exceeds budget {SYM_DIM_BUDGET}")
    indices = np.array(list(itertools.combinations_with_replacement(range(d), copies)), dtype=np.int64)
    # Python ints keep N!/prod_j m_j! exact for every N before one correct rounding.
    denom = np.prod(_run_positions(indices), axis=1, dtype=object)
    norm = np.sqrt((math.factorial(copies) / denom).astype(np.float64))
    return SymBasis(d=d, N=copies, indices=indices, norm_factors=norm)


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


@lru_cache(maxsize=None)
def _sphere_moment_denominator(d: int, copies: int) -> int:
    """d(d+2)...(d+2N-2), cross-checked against its Gamma form via log-gamma."""
    denom = 1
    for k in range(copies):
        denom *= d + 2 * k
    gamma_form = copies * math.log(2.0) + math.lgamma(copies + d / 2.0) - math.lgamma(d / 2.0)
    if abs(math.log(float(denom)) - gamma_form) > 1e-10 * max(1.0, abs(gamma_form)):
        raise RuntimeError(f"normalization identity failed at d={d}, N={copies}")
    return denom


def real_monomial_moment(indices: Sequence[int], d: int) -> Fraction:
    """E[x_{a_1} ... x_{a_2N}] for x uniform on the real unit sphere in R^d.

    Equals the number of perfect matchings of the positions whose paired
    indices agree, divided by d(d+2)...(d+2N-2). The count factorizes as a
    product of double factorials over index multiplicities.
    """
    for a in indices:
        if not 1 <= a <= d:
            raise ValueError(f"index {a} out of range [1, {d}]")
    count = 1
    for m in Counter(int(a) for a in indices).values():
        if m % 2:
            return Fraction(0)  # an odd power admits no equal-index matching
        count *= _double_factorial(m - 1)
    return Fraction(count, _sphere_moment_denominator(d, len(indices) // 2))


@dataclass(frozen=True)
class MomentOperator:
    """Expected N-fold tensor power of a real random rank-one projector, in SymBasis.

    Held as symmetric diagonal blocks: each entry of `blocks` pairs the basis
    rows of one block with the block itself, and the rows of all blocks
    partition the basis. `eigenvalues` (ascending) are computed from the
    blocks on construction. The dense `matrix` is built only when the
    property is read, by tests and by the tiny-cell cross-check of
    `trace_norm_gap`.
    """

    d: int
    N: int
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]
    eigenvalues: np.ndarray = dataclasses.field(init=False)

    def __post_init__(self):
        rows = np.sort(np.concatenate([r for r, _ in self.blocks]))
        if not np.array_equal(rows, np.arange(self.size)):
            raise ValueError(f"block rows do not partition the {self.size} basis rows")
        for _, block in self.blocks:
            dev = float(np.max(np.abs(block - block.T)))
            if dev > HERMITIAN_ATOL:
                raise ValueError(f"moment operator not Hermitian (deviation {dev:.3e})")
        tr = sum(float(np.trace(block)) for _, block in self.blocks)
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"moment operator trace {tr} deviates from 1")
        eigenvalues = np.sort(np.concatenate([np.linalg.eigvalsh(b) for _, b in self.blocks]))
        if float(eigenvalues[0]) < -PSD_ATOL:
            raise ValueError(f"moment operator not PSD (min eigenvalue {float(eigenvalues[0]):.3e})")
        object.__setattr__(self, "eigenvalues", eigenvalues)

    @property
    def size(self) -> int:
        return math.comb(self.d + self.N - 1, self.N)

    @property
    def matrix(self) -> np.ndarray:
        """Dense size x size assembly of the blocks (tests and tiny-cell cross-checks)."""
        m = np.zeros((self.size, self.size))
        for rows, block in self.blocks:
            m[np.ix_(rows, rows)] = block
        return m


def _parity_classes(basis: SymBasis) -> list[np.ndarray]:
    """Basis rows, ascending, grouped by the set of indices they hold an odd number of times."""
    pos = _run_positions(basis.indices)
    run_end = np.diff(basis.indices, axis=1, append=basis.d) != 0
    odd = np.sort(np.where(run_end & (pos % 2 == 1), basis.indices, basis.d), axis=1)
    _, parity_class = np.unique(odd, axis=0, return_inverse=True)
    order = np.argsort(parity_class, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(parity_class[order])) + 1)


def real_moment(d: int, copies: int) -> MomentOperator:
    """Exact real-sphere moment operator assembled from monomial moments.

    A matrix element <m|E|m'> equals norm_m * norm_m' times the monomial
    moment of the combined occupation m + m', which vanishes unless m and m'
    have identical parity patterns. The operator is therefore block diagonal
    over parity classes, and each block is assembled in one vectorised step
    from the occupations of the indices its rows use.
    """
    if copies > MAX_MOMENT_COPIES:
        raise BudgetExceededError(f"N={copies} exceeds the cap {MAX_MOMENT_COPIES}")
    basis = sym_basis(d, copies)
    nf = basis.norm_factors
    denom = _sphere_moment_denominator(d, copies)
    # (a-1)!! for even a; a combined occupation within a parity class is even.
    matchings = np.array([_double_factorial(a - 1) for a in range(2 * copies + 1)], dtype=np.int64)
    blocks = []
    for rows in _parity_classes(basis):
        idx = basis.indices[rows]
        # occupations of the indices the block uses; any other index adds the factor (-1)!! = 1
        o = (idx[:, :, None] == np.unique(idx)).sum(axis=1)
        # prod_j matchings[o_a[j] + o_b[j]], in row chunks of at most _GATHER_CAP gathered elements
        count = np.empty((len(o), len(o)), dtype=matchings.dtype)
        step = max(1, _GATHER_CAP // o.size)
        for a in range(0, len(o), step):
            np.multiply.reduce(matchings[o[a : a + step, None] + o], axis=2, out=count[a : a + step])
        # count and denom stay below 2^53 for every cell whose basis fits in
        # memory, so the quotient is the correctly rounded one, as float(Fraction).
        blocks.append((rows, np.multiply.outer(nf[rows], nf[rows]) * (count / denom)))
    return MomentOperator(d=d, N=copies, blocks=tuple(blocks))


def symmetric_embedding(basis: SymBasis) -> np.ndarray:
    """Isometry V from the symmetric basis into the full d^N tensor space.

    Column b spreads amplitude sqrt(prod_j m_j!/N!) over every distinct
    arrangement of the element's index tuple; V^T V = identity.
    """
    full_dim = basis.d**basis.N
    if full_dim > _MAX_EMBED_DIM:
        raise BudgetExceededError(f"full tensor dimension {full_dim} exceeds {_MAX_EMBED_DIM}")
    v = np.zeros((full_dim, basis.size), dtype=np.float64)
    for b in range(basis.size):
        amp = 1.0 / basis.norm_factors[b]
        for arrangement in set(itertools.permutations(basis.indices[b].tolist())):
            row = 0
            for idx in arrangement:
                row = row * basis.d + idx
            v[row, b] = amp
    return v


def mc_moment(d: int, copies: int, samples: int, field: str, rng: np.random.Generator) -> np.ndarray:
    """Monte Carlo estimate of the real or complex moment operator, as a size x size array.

    Each sampled unit vector v contributes the rank-one projector onto its
    symmetric coefficients w_b = norm_b * v_{i_1} ... v_{i_N}, where i_1..i_N
    is row b of the basis; |w| is a unit vector, so the estimate has trace
    one, which is checked. The mean is made exactly Hermitian as (E + E^H)/2.

    Unit vectors are drawn `_MC_DRAW_CHUNK` at a time, real parts before
    imaginary parts; each chunk is gathered into coefficients and accumulated
    in sub-chunks of at most `_GATHER_CAP` entries. Memory is therefore one
    estimate, one draw chunk and bounded temporaries. A cell whose estimate
    plus draw chunk (min(samples, `_MC_DRAW_CHUNK`) x d complex entries and
    their temporary) would exceed `MC_ESTIMATE_BYTE_BUDGET` raises
    BudgetExceededError before the estimate is allocated or any vector drawn.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
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
            vecs = vecs + 1j * rng.standard_normal((m, d))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        for a in range(0, m, step):
            sub = vecs[a : a + step]
            w = sub[:, basis.indices[:, 0]]
            w *= basis.norm_factors
            for k in range(1, copies):
                w *= sub[:, basis.indices[:, k]]
            w_conj = w.conj()
            for r in range(0, size, step):
                estimate[r : r + step] += w[:, r : r + step].T @ w_conj

    estimate /= samples
    _hermitian_part_in_place(estimate)
    tr = float(np.trace(estimate).real)
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValueError(f"Monte Carlo estimate trace {tr} deviates from 1")
    return estimate


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


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise BoundViolationError(message)


def trace_norm_gap(
    d: int, copies: int, mc_samples: int | None = None, rng: np.random.Generator | None = None
) -> GapReport:
    """Gap ||E_complex - E_real||_1 with every inequality of its bound chain checked.

    Verifies 0 <= gap <= 2(1 - (1+2N/d)^-N) <= 4N^2/d and that the remainder
    E_real - (N!/(d(d+2)...(d+2N-2))) * I is PSD. The middle quantity
    1 - (d+N-1)!(d/2-1)!/(2^N (d/2+N-1)!(d-1)!) is reported for inspection
    but not asserted against on its own. At tiny sizes the swapped 2N-copy
    pair is materialized densely and its distance checked against 2 * gap.
    Violations raise BoundViolationError: they indicate a bug, not bad luck.
    A Monte Carlo stage over its byte budget raises BudgetExceededError with
    the checked exact report in `exact`.
    """
    e_real = real_moment(d, copies)
    size = e_real.size
    lam = e_real.eigenvalues

    # E_complex is identity/size on the same basis, so the difference spectrum
    # is 1/size - lam exactly.
    gap = float(np.sum(np.abs(1.0 / size - lam)))

    scalar = Fraction(math.factorial(copies), _sphere_moment_denominator(d, copies))
    o_rest_min_eig = float(lam[0]) - float(scalar)

    middle_term = 1.0 - math.exp(
        math.lgamma(d + copies)
        - math.lgamma(d)
        + math.lgamma(d / 2.0)
        - copies * math.log(2.0)
        - math.lgamma(d / 2.0 + copies)
    )
    bound_two_term = 2.0 * (1.0 - (1.0 + 2.0 * copies / d) ** (-copies))
    bound_final = 4.0 * copies**2 / d

    _check(gap >= -BOUND_SLACK, f"negative gap {gap} at d={d}, N={copies}")
    _check(
        gap <= bound_two_term + BOUND_SLACK,
        f"gap {gap} exceeds two-term bound {bound_two_term} at d={d}, N={copies}",
    )
    _check(
        bound_two_term <= bound_final + BOUND_SLACK,
        f"two-term bound {bound_two_term} exceeds {bound_final} at d={d}, N={copies}",
    )
    _check(
        o_rest_min_eig >= -BOUND_SLACK,
        f"scalar-subtracted remainder not PSD ({o_rest_min_eig}) at d={d}, N={copies}",
    )

    if d <= 3 and copies <= 2:
        v = symmetric_embedding(sym_basis(d, copies))
        e_real_full = v @ e_real.matrix @ v.T
        e_complex_full = (v @ v.T) / size
        rho_a = np.kron(e_complex_full, e_real_full)
        rho_b = np.kron(e_real_full, e_complex_full)
        swapped = float(np.sum(np.abs(np.linalg.eigvalsh(rho_a - rho_b))))
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


def _mc_max_dev(e_real: MomentOperator, samples: int, rng: np.random.Generator | None) -> float:
    """Largest entry deviation of the real and complex Monte Carlo estimates from the exact moments."""
    if rng is None:
        raise ValueError("mc_samples requires an rng")
    d, copies, size = e_real.d, e_real.N, e_real.size
    # Deviations are taken in place: the real estimate minus each exact
    # block (it is 0 off the blocks), the complex one minus I/size.
    estimate = mc_moment(d, copies, samples, "real", rng)
    for rows, block in e_real.blocks:
        estimate[np.ix_(rows, rows)] -= block
    dev_real = _max_abs(estimate)
    del estimate
    estimate = mc_moment(d, copies, samples, "complex", rng)
    estimate[np.diag_indices(size)] -= 1.0 / size
    return max(dev_real, _max_abs(estimate))
