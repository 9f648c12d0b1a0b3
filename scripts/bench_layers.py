#!/usr/bin/env python3
"""Time sqlab layer by layer: the exact real Haar moment and the dense sampler.

Every time is the best of REPEATS = 15 timed calls after one warm-up call,
with any setup untimed. The JSON holds the platform and one section per layer:
- "real_moment": for the 19 exact cells of the benchmark's `bounds_grid`
  workload and six guard cells (large admitted cells for N = 8, 6, 4, 3, 2,
  1), `real_moment` and `MomentOperator` rebuilt from the finished blocks:
  its row-partition, symmetry, trace and PSD checks and its eigensolves.
  Assembly is the difference.
- "sampler": on a Haar-random complex vector of DIM = 2^20 entries, building
  the running sums (`DenseVector.cdf`) and the guide table over built running
  sums (`DenseVector.guide`); `sample_many(BATCH)` with BATCH = 2^19, at
  least d/4 draws, which walks the guide table, and `sample_many(SMALL_BATCH)`
  with SMALL_BATCH = 2^14, fewer than d/4, which binary-searches its sorted
  points, each on a fresh handle (so the first includes both builds and the
  second the running sums) and on a built handle; SINGLE_CALLS = 1000
  `sample()` calls; and the tracemalloc peaks of a first Sample (the running
  sums only), of a first BATCH (both tables) and of a BATCH on a built handle.
The JSON goes to --out (default BENCH_layers.json); run it on each tree to
compare, on one machine, with sqlab importable (installed, or PYTHONPATH=src
from the root of the checkout).
An --out that cannot be written is refused with one `error:` line on stderr
and exit code 1, before any work.
"""

import json
import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from sqlab.cli import _ArgumentParser, _check_out, _write_out  # the sqlab command line's rules
from sqlab.haar_moments import MomentOperator, real_moment
from sqlab.instances import haar_unit_vector
from sqlab.sq_oracle import DenseVector, build_dense

REPEATS = 15
BOUNDS_GRID_CELLS = [(d, n) for d in (2, 4, 8, 16) for n in (1, 2, 3, 4)] + [(12, 4), (8, 6), (6, 8)]
GUARD_CELLS = [(9, 8), (12, 6), (24, 4), (40, 3), (199, 2), (2000, 1)]
DIM = 1 << 20
BATCH = 1 << 19
SMALL_BATCH = 1 << 14
SINGLE_CALLS = 1000


def _best(call, setup=lambda: None) -> float:
    """Fastest of REPEATS timed `call(setup())`, after one warm-up; `setup()` runs untimed."""
    call(setup())
    best = float("inf")
    for _ in range(REPEATS):
        arg = setup()
        t0 = time.perf_counter()
        call(arg)
        best = min(best, time.perf_counter() - t0)
    return best


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _moment_cell(d: int, copies: int) -> dict:
    op = real_moment(d, copies)
    total = _best(lambda _: real_moment(d, copies))
    checks = _best(lambda _: MomentOperator(d=d, N=copies, blocks=op.blocks))
    return {"d": d, "N": copies, "real_moment_s": total, "moment_operator_s": checks, "assembly_s": total - checks}


def _real_moment() -> dict:
    grid = [_moment_cell(d, n) for d, n in BOUNDS_GRID_CELLS]
    return {
        "bounds_grid_total": {
            key: sum(c[key] for c in grid) for key in ("real_moment_s", "moment_operator_s", "assembly_s")
        },
        "bounds_grid": grid,
        "guard": [_moment_cell(d, n) for d, n in GUARD_CELLS],
    }


def _sampler() -> dict:
    values = haar_unit_vector(DIM, "complex", np.random.default_rng(0))
    rng = np.random.default_rng(1)

    def built_cdf():
        vec = DenseVector.from_values(values)
        vec.cdf
        return vec

    cdf_s = _best(lambda vec: vec.cdf, setup=lambda: DenseVector.from_values(values))
    guide_s = _best(lambda vec: vec.guide, setup=built_cdf)
    first_batch_s = _best(lambda handle: handle.sample_many(BATCH, rng), setup=lambda: build_dense(values))
    first_small_s = _best(lambda handle: handle.sample_many(SMALL_BATCH, rng), setup=lambda: build_dense(values))
    handle = build_dense(values)
    handle.sample_many(BATCH, rng)
    batch_s = _best(lambda _: handle.sample_many(BATCH, rng))
    small_s = _best(lambda _: handle.sample_many(SMALL_BATCH, rng))
    single_s = _best(lambda _: [handle.sample(rng) for _ in range(SINGLE_CALLS)])
    fresh, fresh_batch = build_dense(values), build_dense(values)
    return {
        "dim": DIM,
        "batch": BATCH,
        "small_batch": SMALL_BATCH,
        "single_calls": SINGLE_CALLS,
        "cdf_build_ns_per_entry": cdf_s / DIM * 1e9,
        "guide_build_ns_per_entry": guide_s / DIM * 1e9,
        "first_batch_ns_per_draw": first_batch_s / BATCH * 1e9,
        "batch_ns_per_draw": batch_s / BATCH * 1e9,
        "first_small_batch_ns_per_draw": first_small_s / SMALL_BATCH * 1e9,
        "small_batch_ns_per_draw": small_s / SMALL_BATCH * 1e9,
        "sample_call_us": single_s / SINGLE_CALLS * 1e6,
        "first_sample_peak_bytes": _peak_bytes(lambda: fresh.sample(rng)),
        "first_batch_peak_bytes": _peak_bytes(lambda: fresh_batch.sample_many(BATCH, rng)),
        "batch_peak_bytes": _peak_bytes(lambda: handle.sample_many(BATCH, rng)),
    }


def main() -> int:
    parser = _ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_layers.json")

    try:
        args = parser.parse_args()
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        _check_out(args.out)
        report = {
            "repeats": REPEATS,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "real_moment": _real_moment(),
            "sampler": _sampler(),
        }
        _write_out(json.dumps(report, indent=1) + "\n", args.out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    totals, sampler = report["real_moment"]["bounds_grid_total"], report["sampler"]
    print(f"wrote the real_moment and sampler layers to {args.out}")
    print(f"bounds_grid cells: real_moment {totals['real_moment_s'] * 1e3:.2f} ms, "
          f"of which assembly {totals['assembly_s'] * 1e3:.2f} ms")
    print(f"sampler: builds {sampler['cdf_build_ns_per_entry']:.1f} + {sampler['guide_build_ns_per_entry']:.1f} ns "
          f"per entry, batches {sampler['batch_ns_per_draw']:.1f} and {sampler['small_batch_ns_per_draw']:.1f} ns "
          f"per draw, sample() {sampler['sample_call_us']:.2f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
