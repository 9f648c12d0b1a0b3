"""Density-operator discrimination: trace norms, optimal-measurement success,
and the closed forms for the minus-sign (sign-flip) pair.

A pair of pure states is reported from its overlap alone
(`discriminate_pure_pair`), a pair of density operators read from `.npy` files
from one eigendecomposition of their difference (`discriminate_mixed_pair`).

Convention: ||M||_1 is the Schatten-1 norm (sum of singular values), so two
orthogonal pure states differ by norm 2 and the optimal success probability
for equal priors is 1/2 + ||rho_a - rho_b||_1 / 4 (`success_from_schatten1`).
A success threshold of 0.9 therefore corresponds to Schatten-1 norm 1.6
(trace distance 0.8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from pathlib import Path

import numpy as np

from .inputs import DENSE_BUDGET_N, check_count, open_npy, quoted, refusals_from

__all__ = [
    "DensityOperator",
    "HELSTROM_SCHATTEN_THRESHOLD",
    "check_schatten_threshold",
    "discriminate_mixed_pair",
    "discriminate_pure_pair",
    "load_density_operator",
    "min_copies_minus_sign",
    "minus_sign_product_vectors",
    "ncopy_minus_sign_tracenorm",
    "ncopy_minus_sign_tracenorm_dense",
    "success_from_schatten1",
]

HERMITIAN_ATOL = 1e-10
PSD_ATOL = 1e-10
TRACE_ATOL = 1e-10
STATE_NORM_ATOL = 1e-10

# Schatten-1 threshold equivalent to distinguishing with probability 0.9.
HELSTROM_SCHATTEN_THRESHOLD = 1.6

# Relative eigenvalue floor: |lambda| below this times dimension counts as zero.
_EIG_ZERO_REL = 1e-12


def _unit_norm_sq(vec: np.ndarray) -> float:
    """<vec|vec>, after refusing a vector whose 2-norm is not 1 within STATE_NORM_ATOL."""
    norm_sq = float(np.vdot(vec, vec).real)
    nrm = math.sqrt(norm_sq)
    if not abs(nrm - 1.0) <= STATE_NORM_ATOL:  # a NaN or infinite amplitude fails too
        raise ValueError(f"state norm {nrm} deviates from 1 beyond {STATE_NORM_ATOL}")
    return norm_sq


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, positive semi-definite, trace-one matrix.

    Construction symmetrizes floating-point drift via M/2 + M^dag/2, which
    cannot overflow and equals (M + M^dag)/2 for normal entries, when the
    deviation is within tolerance and rejects anything worse.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density operator must be a square matrix")
        if not np.isfinite(m).all():
            raise ValueError("density operator has NaN or infinite entries")
        # a difference or trace past the float range is inf, which the checks refuse
        with np.errstate(over="ignore"):
            dev = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
            m = m / 2.0 + m.conj().T / 2.0
            tr = float(np.trace(m).real)
        if not dev <= HERMITIAN_ATOL:
            raise ValueError(f"matrix is non-Hermitian beyond tolerance ({dev:.3e})")
        if not abs(tr - 1.0) <= TRACE_ATOL:
            raise ValueError(f"trace {tr} deviates from 1 beyond {TRACE_ATOL}")
        object.__setattr__(self, "matrix", m)
        min_eig = float(np.linalg.eigvalsh(m)[0])
        if not min_eig >= -PSD_ATOL:
            raise ValueError(f"matrix is not PSD (min eigenvalue {min_eig:.3e})")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "DensityOperator":
        return cls(matrix)

    @classmethod
    def from_pure(cls, state: np.ndarray) -> "DensityOperator":
        vec = np.asarray(state, dtype=np.complex128)
        _unit_norm_sq(vec)
        return cls(np.outer(vec, vec.conj()))


def success_from_schatten1(schatten: float) -> float:
    """Optimal equal-prior success 1/2 + ||a - b||_1 / 4, clamped to [1/2, 1]."""
    return min(max(0.5 + 0.25 * schatten, 0.5), 1.0)


def _pure_pair_schatten1(u: np.ndarray, v: np.ndarray) -> float:
    """||uu^H - vv^H||_1 = 2 sqrt(1 - s) for unit vectors, s = |<u|v>|^2 / (<u|u><v|v>).

    The difference has rank 2, so its trace norm follows from the Gram
    matrix of u and v; the three inner products are taken numerically, with
    no closed form. Identical rays give exactly 0, orthogonal ones exactly 2.
    """
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.size} vs {v.size}")
    uu, vv = _unit_norm_sq(u), _unit_norm_sq(v)
    overlap = abs(np.vdot(u, v)) ** 2 / (uu * vv)
    return 2.0 * math.sqrt(max(1.0 - overlap, 0.0))


def _check_minus_sign_pair(d: int, copies: int) -> None:
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if copies < 1:
        raise ValueError("copies must be at least 1")


def _minus_sign_schatten1(two_over_d: float, power: int) -> float:
    """2 sqrt(1 - c^p) with c = 1 - 2/d: the sign-flip pair's Schatten-1 distance.

    |+> is uniform on d entries and |-> is |+> with its first entry negated,
    so <+|-> = c. The two pure states compared have squared overlap c^p:
    p = 2 for one copy of each, p = 4N for the N-copy product pair.
    1 - c^p is evaluated as -expm1(p log1p(-2/d)), which keeps full relative
    precision for every d a float can hold (1 - 2/d itself rounds to 1 from
    d = 2^55). Callers pass 2/d, since d itself may lie past the float range.
    """
    if two_over_d == 1.0:
        return 2.0  # d = 2, c = 0: the two hypotheses are orthogonal
    return 2.0 * math.sqrt(-math.expm1(power * math.log1p(-two_over_d)))


def ncopy_minus_sign_tracenorm(d: int, copies: int) -> float:
    """Closed-form Schatten-1 distance between the N-copy sign-flip pair.

    The two hypotheses are pure product states whose overlap is c^(2N) with
    c = 1 - 2/d, giving 2*sqrt(1 - c^(4N)) (`_minus_sign_schatten1`). Grows
    toward 2 as N grows, so a fixed discrimination threshold forces N to
    scale linearly with d. A d or 4N past the float range raises ValueError.
    """
    _check_minus_sign_pair(d, copies)
    try:
        return _minus_sign_schatten1(2.0 / d, 4 * copies)
    except OverflowError:
        raise ValueError("dimension and 4 * copies must lie below 2^1024, the float range") from None


def minus_sign_product_vectors(d: int, copies: int) -> tuple[np.ndarray, np.ndarray]:
    """The N-copy sign-flip pair as real product vectors of dimension d^(2N).

    With |+> uniform and |-> the same vector with its first entry negated,
    returns |->^N |+>^N and |+>^N |->^N. Refuses d < 2, copies < 1 and any
    dimension above 2^DENSE_BUDGET_N before materializing anything.
    """
    _check_minus_sign_pair(d, copies)
    cap = 1 << DENSE_BUDGET_N
    # With d >= 2 either bound alone puts d^(2N) past the cap, so a pair that
    # large is refused before its dimension is formed as an integer.
    if d > cap or copies > DENSE_BUDGET_N:
        raise ValueError(
            f"minus-sign pair dimension d^(2N) with d={quoted(d)}, N={quoted(copies)} exceeds {cap}"
        )
    dim = d ** (2 * copies)
    if dim > cap:
        raise ValueError(f"minus-sign pair dimension {dim} exceeds {cap}")
    plus = np.full(d, 1.0 / math.sqrt(d))
    minus = plus.copy()
    minus[0] *= -1.0
    u = reduce(np.kron, [minus] * copies + [plus] * copies)
    v = reduce(np.kron, [plus] * copies + [minus] * copies)
    return u, v


def ncopy_minus_sign_tracenorm_dense(d: int, copies: int) -> float:
    """Independent check of the closed form from the materialized N-copy pair.

    The trace norm of uu^T - vv^T comes from the inner products of the
    vectors (`_pure_pair_schatten1`); c = 1 - 2/d is never used.
    """
    return _pure_pair_schatten1(*minus_sign_product_vectors(d, copies))


def check_schatten_threshold(threshold: float) -> None:
    """Refuse a Schatten-1 threshold outside (0, 2).

    A Schatten-1 distance between states lies in [0, 2]: at 0 or below every
    pair reaches the threshold, at 2 or above only orthogonal states do, and
    at NaN none does.
    """
    if not 0.0 < threshold < 2.0:
        raise ValueError(f"threshold must lie in (0, 2), got {threshold}")


def min_copies_minus_sign(d: int, threshold: float = HELSTROM_SCHATTEN_THRESHOLD) -> int:
    """Smallest N whose N-copy trace norm reaches the threshold."""
    if d < 3:
        raise ValueError("dimension must be at least 3 (at d=2 one copy is already perfect)")
    check_schatten_threshold(threshold)
    # The closed form is nondecreasing in N, in floating point too, so doubling and then
    # bisection find the smallest N. Unit steps stall from d ~ 2^53, where one more
    # copy no longer moves the rounded value.
    short, reached = 0, 1
    while ncopy_minus_sign_tracenorm(d, reached) < threshold:
        short, reached = reached, 2 * reached
    while reached - short > 1:
        mid = (short + reached) // 2
        if ncopy_minus_sign_tracenorm(d, mid) >= threshold:
            reached = mid
        else:
            short = mid
    return reached


def discriminate_mixed_pair(
    a: DensityOperator, b: DensityOperator, trials: int, rng: np.random.Generator
) -> tuple[float, float, float]:
    """Schatten-1 distance, optimal success and empirical success rate for density operators a, b.

    All three come from one eigendecomposition of a - b: the distance sums its
    absolute eigenvalues, |lambda| < _EIG_ZERO_REL * dim counted as 0, and the
    measurement P projects onto the unfloored nonnegative eigenspace, guessing `a`
    on that outcome, each click probability tr(P rho) read as sum_ij P_ij rho_ji.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    eigvals, eigvecs = np.linalg.eigh(a.matrix - b.matrix)
    schatten = float(np.sum(np.abs(np.where(np.abs(eigvals) < _EIG_ZERO_REL * a.dim, 0.0, eigvals))))
    positive = eigvecs[:, eigvals >= 0.0]
    projector = positive @ positive.conj().T
    p_click_a, p_click_b = (float(np.einsum("ij,ji->", projector, rho.matrix).real) for rho in (a, b))
    return schatten, success_from_schatten1(schatten), _click_success_rate(p_click_a, p_click_b, trials, rng)


def discriminate_pure_pair(
    u: np.ndarray, v: np.ndarray, trials: int, rng: np.random.Generator
) -> tuple[float, float, float]:
    """Schatten-1 distance, optimal success and empirical success rate for pure states u, v.

    The same report as `discriminate_mixed_pair` on `DensityOperator.from_pure(u)`
    and `(v)`, from the overlap of u and v alone: the optimal projector clicks
    with probability `success` on u and `1 - success` on v, and the random
    draws are those of `discriminate_mixed_pair`.
    """
    schatten = _pure_pair_schatten1(u, v)
    success = success_from_schatten1(schatten)
    return schatten, success, _click_success_rate(success, 1.0 - success, trials, rng)


def _click_success_rate(
    p_click_a: float, p_click_b: float, trials: int, rng: np.random.Generator
) -> float:
    """Success rate of guessing `a` on a click, over `trials` equal-prior draws."""
    check_count("trials", trials, 1)  # about 30 bytes per trial in the arrays below
    p_click_a = min(max(p_click_a, 0.0), 1.0)
    p_click_b = min(max(p_click_b, 0.0), 1.0)
    truth_is_a = rng.integers(2, size=trials).astype(bool)
    click_prob = np.where(truth_is_a, p_click_a, p_click_b)
    clicked = rng.random(trials) < click_prob
    successes = np.sum(clicked == truth_is_a)
    return float(successes) / trials


def load_density_operator(path: str | Path, mapped: np.ndarray | None = None) -> DensityOperator:
    """The density operator in the `.npy` file at `path`: a square 2-d numeric array.

    At most 2^DENSE_BUDGET_N entries (dim <= 4096), checked from the file's
    header before any entry is read. A file that cannot be opened raises the
    OSError; every other refusal is a ValueError naming the file. `mapped` is
    the file's array when the caller has opened it already with `open_npy`.
    The operator's checks and symmetrization read the map, so a complex128
    file is not copied first.
    """
    if mapped is None:
        mapped = open_npy(path, 2, 1 << DENSE_BUDGET_N)
    with refusals_from(path):
        return DensityOperator.from_matrix(mapped)
