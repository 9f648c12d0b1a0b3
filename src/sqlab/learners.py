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
from typing import Callable, Sequence

import numpy as np

from .sq_oracle import Capability, OracleStats, SqHandle, check_count

__all__ = [
    "SolveReport",
    "solve_minus_sign",
    "solve_real_search",
    "solve_sample_only",
]


@dataclass
class SolveReport:
    """Outcome of one solve: answer index, per-handle oracle usage, wall time.

    `per_handle_stats` are deltas over the solve only, so a report is exact
    even when the handles had been used before. Solvers never see the hidden
    index; the caller checks the answer with `ProblemInstance.verify_answer`.
    """

    answer: int
    per_handle_stats: tuple[OracleStats, ...]
    elapsed_ns: int

    def total_calls(self) -> OracleStats:
        return sum(self.per_handle_stats, OracleStats())


def _finish(handles: Sequence[SqHandle], before: list[OracleStats], answer: int, t0: int) -> SolveReport:
    elapsed = time.perf_counter_ns() - t0
    deltas = tuple(h.stats() - b for h, b in zip(handles, before))
    return SolveReport(answer=answer, per_handle_stats=deltas, elapsed_ns=elapsed)


def _solve_by_first_component(
    handles: Sequence[SqHandle], distinguished: Callable[[complex], bool], word: str
) -> SolveReport:
    """Query component 1 of every handle and return the one handle it marks as `distinguished`."""
    before = [h.stats() for h in handles]
    t0 = time.perf_counter_ns()
    firsts = [h.query(1) for h in handles]
    marked = [k for k, z in enumerate(firsts, start=1) if distinguished(z)]
    if len(marked) != 1:
        raise ValueError(f"expected exactly one {word} first component, found {len(marked)}")
    return _finish(handles, before, marked[0], t0)


def solve_minus_sign(handles: Sequence[SqHandle]) -> SolveReport:
    """Find the vector with the negative first component using C Query calls.

    The imaginary part is ignored: the minus-sign families are real-valued.
    """
    return _solve_by_first_component(handles, lambda z: z.real < 0.0, "negative")


def solve_real_search(handles: Sequence[SqHandle]) -> SolveReport:
    """Find the real vector by testing Im of the first component, C Query calls.

    The test is exact (Im == 0.0): generated real vectors store literal zero
    imaginary parts, while complex Gaussian components are never exactly real
    in double precision except with negligible probability.
    """
    return _solve_by_first_component(handles, lambda z: z.imag == 0.0, "real")


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
    check_count("budget", budget, 0)
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
