#!/usr/bin/env python3
"""Time the dense sampler: its builds, batches on each side of the guide threshold, single draws.

On a Haar-random complex vector of DIM = 2^20 entries it records the best of
REPEATS = 15 runs (after one warm-up run) of: building the running sums
(`DenseVector.cdf`); building the guide table over built running sums
(`DenseVector.guide`); `sample_many(BATCH)` with BATCH = 2^19, at least d/4
draws, which walks the guide table, and `sample_many(SMALL_BATCH)` with
SMALL_BATCH = 2^14, fewer than d/4, which binary-searches its sorted points,
each on a fresh handle (so the first includes both builds and the second the
running sums) and on a built handle; and SINGLE_CALLS = 1000 `sample()` calls.
It also records the tracemalloc peaks of a first Sample (the running sums
only), of a first BATCH (both tables) and of a BATCH on a built handle. The
JSON goes to --out (default BENCH_sampler.json); run it on each tree to
compare, on one machine, with sqlab importable (installed, or PYTHONPATH=src
from the root of the checkout).
An --out that cannot be written is refused with one `error:` line on stderr
and exit code 1.
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
from sqlab.instances import haar_unit_vector
from sqlab.sq_oracle import DenseVector, build_dense

DIM = 1 << 20
BATCH = 1 << 19
SMALL_BATCH = 1 << 14
SINGLE_CALLS = 1000
REPEATS = 15


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


def _measure() -> dict:
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
    parser.add_argument("--out", default="BENCH_sampler.json")

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
            "dim": DIM,
            "batch": BATCH,
            "small_batch": SMALL_BATCH,
            "single_calls": SINGLE_CALLS,
            **_measure(),
        }
        _write_out(json.dumps(report, indent=1) + "\n", args.out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote the sampler timings to {args.out}")
    print(f"builds {report['cdf_build_ns_per_entry']:.1f} + {report['guide_build_ns_per_entry']:.1f} ns per entry, "
          f"batches {report['batch_ns_per_draw']:.1f} and {report['small_batch_ns_per_draw']:.1f} ns per draw, "
          f"sample() {report['sample_call_us']:.2f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
