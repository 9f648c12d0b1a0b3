"""Experiment configs, sweep execution, and deterministic record rendering.

Sweeps run one cell per parameter combination, each with a seed derived from
(global seed, cell coordinates). By default cells run one at a time; only
`threads > 1` runs them in a thread pool, and neither thread count nor
completion order changes the output. Rendered output is byte-identical across
reruns with the same seed; wall-clock columns are therefore opt-in
(`render_records(..., timings=True)`) because they are the one field that
honest reruns cannot reproduce.
"""

from __future__ import annotations

import csv
import io
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .haar_moments import BoundViolationError, BudgetExceededError, GapReport, trace_norm_gap
from .instances import keyed_stream
from .quantum_sim import (
    HELSTROM_SCHATTEN_THRESHOLD,
    check_schatten_threshold,
    min_copies_minus_sign,
    ncopy_minus_sign_tracenorm,
)
from .sq_oracle import check_count

__all__ = [
    "ExperimentConfig",
    "MIN_EXPECTED_COUNT",
    "ResultRecord",
    "chi_square_gof",
    "linear_fit",
    "render_records",
    "run_sweep",
]


# Bins expected to hold fewer draws than this are pooled before a chi-square test.
MIN_EXPECTED_COUNT = 5.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one sweep invocation; every row it produces records the seed."""

    subcommand: str
    d_values: tuple[int, ...] = ()
    copies_values: tuple[int, ...] = ()
    threshold: float = HELSTROM_SCHATTEN_THRESHOLD
    mc_samples: int | None = None
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        check_count("threads", self.threads, 1, None)
        check_schatten_threshold(self.threshold)  # else every copies-sweep cell is invalid
        # refused before any cell runs: a count past the cap would draw for hours
        if self.mc_samples is not None:
            check_count("mc_samples", self.mc_samples, 1)


@dataclass
class ResultRecord:
    """One output row: parameters, measured values, provenance, optional error."""

    kind: str
    params: dict
    values: dict
    seed: int
    elapsed_ns: int = 0
    error: str | None = None


_SCHEMAS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "haar-gap": (
        ("d", "N"),
        ("sym_dim", "gap", "bound_two_term", "bound_final", "o_rest_min_eig", "mc_max_dev"),
    ),
    "copies-sweep": (("d", "threshold"), ("min_copies", "tracenorm_at_min")),
}


def _gap_values(report: GapReport) -> dict:
    return {name: getattr(report, name) for name in _SCHEMAS["haar-gap"][1]}


def _haar_gap_cell(config: ExperimentConfig, d: int, copies: int) -> ResultRecord:
    record = ResultRecord(
        kind="haar-gap", params={"d": d, "N": copies}, values={}, seed=config.seed
    )
    t0 = time.perf_counter_ns()
    try:
        rng = None if config.mc_samples is None else keyed_stream(config.seed, d, copies)
        report = trace_norm_gap(d, copies, mc_samples=config.mc_samples, rng=rng)
        record.values = _gap_values(report)
    except BudgetExceededError as exc:
        if exc.exact is not None:  # only the Monte Carlo stage was refused
            record.values = _gap_values(exc.exact)
        record.error = f"budget-exceeded: {exc}"
    except BoundViolationError as exc:
        record.error = f"bound-violation: {exc}"
    record.elapsed_ns = time.perf_counter_ns() - t0
    return record


def _copies_cell(config: ExperimentConfig, d: int) -> ResultRecord:
    record = ResultRecord(
        kind="copies-sweep",
        params={"d": d, "threshold": config.threshold},
        values={},
        seed=config.seed,
    )
    t0 = time.perf_counter_ns()
    try:
        n_min = min_copies_minus_sign(d, config.threshold)
        record.values = {
            "min_copies": n_min,
            "tracenorm_at_min": ncopy_minus_sign_tracenorm(d, n_min),
        }
    except ValueError as exc:
        record.error = f"invalid-cell: {exc}"
    record.elapsed_ns = time.perf_counter_ns() - t0
    return record


def run_sweep(config: ExperimentConfig) -> list[ResultRecord]:
    """Run every cell of the sweep; per-cell failures become error records.

    Cells run serially, or in a thread pool of `config.threads` when that is
    above 1; either way results come back in sorted cell order, so outputs
    are deterministic for a given seed.
    """
    if config.subcommand == "haar-gap":
        if not config.d_values or not config.copies_values:
            raise ValueError("haar-gap needs nonempty --d and --N lists")
        cells = sorted((d, n) for d in config.d_values for n in config.copies_values)
        runner = lambda cell: _haar_gap_cell(config, *cell)
    elif config.subcommand == "copies-sweep":
        if not config.d_values:
            raise ValueError("copies-sweep needs a nonempty --d list")
        cells = sorted(config.d_values)
        runner = lambda d: _copies_cell(config, d)
    else:
        raise ValueError(f"unknown sweep {config.subcommand!r}")

    if config.threads == 1:
        return [runner(cell) for cell in cells]
    with ThreadPoolExecutor(max_workers=config.threads) as pool:
        return list(pool.map(runner, cells))


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def render_records(records: list[ResultRecord], fmt: str, timings: bool = False) -> str:
    """Render records as CSV (header + rows) or JSON lines.

    17 significant digits for floats so values round-trip exactly. Timing
    columns are included only on request: they vary across reruns and would
    break byte-identical reproducibility.
    """
    if not records:
        return ""
    kind = records[0].kind
    if any(r.kind != kind for r in records):
        raise ValueError("cannot mix record kinds in one output")
    param_names, value_names = _SCHEMAS[kind]
    columns = list(param_names) + list(value_names) + ["seed", "error"]
    if timings:
        columns.append("seconds")

    def row_items(rec: ResultRecord):
        items = {**rec.params, **rec.values, "seed": rec.seed, "error": rec.error}
        if timings:
            items["seconds"] = rec.elapsed_ns / 1e9
        return items

    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for rec in records:
            items = row_items(rec)
            writer.writerow([_format_value(items.get(c)) for c in columns])
        return buf.getvalue()
    if fmt == "json-lines":
        lines = []
        for rec in records:
            items = row_items(rec)
            lines.append(json.dumps({c: items.get(c) for c in columns}, separators=(",", ":")))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown output format {fmt!r}")


def chi_square_gof(indices: np.ndarray, probabilities: np.ndarray) -> tuple[float, int, float]:
    """Chi-square goodness of fit of sampled 1-based indices against probabilities.

    Bins with expected count below `MIN_EXPECTED_COUNT` are pooled into one cell
    (the usual validity rule for the chi-square approximation). Returns
    (statistic, degrees of freedom, p-value).
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 1 or idx.max() > probabilities.size):
        raise ValueError("indices must be 1-based within the probability support")
    # at most three d-length float arrays live at once: counts, expected, and a compressed copy or the residual
    counts = np.bincount(idx, minlength=probabilities.size + 1)[1:].astype(float)  # no shifted copy of idx
    expected = probabilities / probabilities.sum()
    expected *= counts.sum()

    small = expected < MIN_EXPECTED_COUNT
    if small.any():
        pooled_obs = counts[small].sum()
        pooled_exp = expected[small].sum()
        keep = np.logical_not(small, out=small)
        counts = counts[keep]
        expected = expected[keep]
        if pooled_exp >= MIN_EXPECTED_COUNT or expected.size == 0:
            counts = np.append(counts, pooled_obs)
            expected = np.append(expected, pooled_exp)
        elif pooled_exp > 0.0 or pooled_obs > 0.0:
            # an under-threshold pool merges into the smallest kept bin
            j = int(np.argmin(expected))
            counts[j] += pooled_obs
            expected[j] += pooled_exp
    if expected.size < 2:
        return 0.0, 0, 1.0

    # imported here: scipy.special takes most of `import sqlab.cli`, and only this test needs it
    from scipy.special import chdtrc

    statistic = float(np.sum(np.square(counts - expected, out=counts) / expected))  # counts is not read again
    dof = expected.size - 1
    p_value = float(chdtrc(dof, statistic))
    return statistic, dof, p_value


def linear_fit(xs, ys) -> tuple[float, float, float]:
    """Least-squares line fit; returns (slope, intercept, R^2)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    design = np.vstack([xs, np.ones_like(xs)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, ys, rcond=None)
    predicted = design @ np.array([slope, intercept])
    ss_res = float(np.sum((ys - predicted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r_squared
