"""Classical solvers over SQ handles, plus the sample-only baseline.

The two query solvers read one component per vector and finish in time
independent of the vector length: the flipped sign shows up in the sign of
the first component, and the real vector is the only one whose first
component has an exactly-zero imaginary part. The sample-only solver
demonstrates the converse: with sampling alone, the minus-sign families are
information-free (every vector induces the same uniform distribution), so no
budget helps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .sq_oracle import Capability, OracleStats, SqHandle

__all__ = [
    "MalformedInstanceError",
    "SolveReport",
    "solve_minus_sign",
    "solve_real_search",
    "solve_sample_only",
]

class MalformedInstanceError(Exception):
    """The handles do not contain exactly one distinguished vector."""


@dataclass
class SolveReport:
    """Outcome of one solve: answer index, per-handle oracle usage, wall time.

    `per_handle_stats` are deltas over the solve only, so a report is exact
    even when the handles had been used before. `success` is filled by the
    harness via `verify_answer`; solvers never see the hidden index.
    """

    answer: int
    per_handle_stats: tuple[OracleStats, ...]
    elapsed_ns: int
    success: bool | None = None

    def total_calls(self) -> OracleStats:
        return sum(self.per_handle_stats, OracleStats())


def _finish(handles: Sequence[SqHandle], before: list[OracleStats], answer: int, t0: int) -> SolveReport:
    elapsed = time.perf_counter_ns() - t0
    deltas = tuple(h.stats() - b for h, b in zip(handles, before))
    return SolveReport(answer=answer, per_handle_stats=deltas, elapsed_ns=elapsed)


def solve_minus_sign(handles: Sequence[SqHandle]) -> SolveReport:
    """Find the vector with the negative first component using C Query calls.

    The imaginary part is ignored: the minus-sign families are real-valued.
    """
    before = [h.stats() for h in handles]
    t0 = time.perf_counter_ns()
    firsts = [h.query(1) for h in handles]
    negatives = [k for k, z in enumerate(firsts, start=1) if z.real < 0.0]
    if len(negatives) != 1:
        raise MalformedInstanceError(
            f"expected exactly one negative first component, found {len(negatives)}"
        )
    return _finish(handles, before, negatives[0], t0)


def solve_real_search(handles: Sequence[SqHandle]) -> SolveReport:
    """Find the real vector by testing Im of the first component, C Query calls.

    The test is exact (Im == 0.0): generated real vectors store literal zero
    imaginary parts, while complex Gaussian components are never exactly real
    in double precision except with negligible probability.
    """
    before = [h.stats() for h in handles]
    t0 = time.perf_counter_ns()
    firsts = [h.query(1) for h in handles]
    real_ones = [k for k, z in enumerate(firsts, start=1) if z.imag == 0.0]
    if len(real_ones) != 1:
        raise MalformedInstanceError(
            f"expected exactly one real first component, found {len(real_ones)}"
        )
    return _finish(handles, before, real_ones[0], t0)


def _collision_score(indices: np.ndarray) -> int:
    """Number of colliding sample pairs, a standard uniformity statistic."""
    _, counts = np.unique(indices, return_counts=True)
    return int(np.sum(counts * (counts - 1) // 2))


def solve_sample_only(
    handles: Sequence[SqHandle], budget: int, rng: np.random.Generator
) -> SolveReport:
    """Best-effort guess from `budget` samples per handle.

    Scores each handle by its sample-collision count and returns an arg-max,
    breaking ties uniformly at random. On the minus-sign families every
    handle samples from the same uniform distribution, so the scores are
    exchangeable and the answer is uniform over {1, ..., C} no matter the
    budget: the restricted oracle carries no signal for these tasks.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    for h in handles:
        if h.capabilities != frozenset({Capability.SAMPLE}):
            raise ValueError("sample-only solver requires handles restricted to {Sample}")
    before = [h.stats() for h in handles]
    t0 = time.perf_counter_ns()
    scores = []
    for h in handles:
        draws = h.sample_many(budget, rng)
        scores.append(_collision_score(draws) if budget > 0 else 0)
    best = max(scores)
    candidates = [k for k, s in enumerate(scores, start=1) if s == best]
    answer = candidates[int(rng.integers(len(candidates)))]
    return _finish(handles, before, answer, t0)
