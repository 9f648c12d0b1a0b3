#!/usr/bin/env python3
"""Time the exact real Haar moment per cell, split into assembly and checks.

For the 19 exact cells of the benchmark's `bounds_grid` workload and six
guard cells (large admitted cells for N = 8, 6, 4, 3, 2, 1), it records the
best of REPEATS = 15 calls (after one warm-up call) of `real_moment`, and of
`MomentOperator` rebuilt from the finished blocks: its row-partition,
symmetry, trace and PSD checks and its eigensolves. Assembly is the
difference. The JSON goes to --out (default BENCH_real_moment.json); run
it on each tree to compare, on one machine, with sqlab importable (installed,
or PYTHONPATH=src from the root of the checkout).
An --out that cannot be written is refused with one `error:` line on stderr
and exit code 1.
"""

import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from sqlab.cli import _ArgumentParser, _check_out, _write_out  # the sqlab command line's rules
from sqlab.haar_moments import MomentOperator, real_moment

BOUNDS_GRID_CELLS = [(d, n) for d in (2, 4, 8, 16) for n in (1, 2, 3, 4)] + [(12, 4), (8, 6), (6, 8)]
GUARD_CELLS = [(9, 8), (12, 6), (24, 4), (40, 3), (199, 2), (2000, 1)]
REPEATS = 15


def _best(call) -> float:
    call()
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best


def _cell(d: int, copies: int) -> dict:
    op = real_moment(d, copies)
    total = _best(lambda: real_moment(d, copies))
    checks = _best(lambda: MomentOperator(d=d, N=copies, blocks=op.blocks))
    return {"d": d, "N": copies, "real_moment_s": total, "moment_operator_s": checks, "assembly_s": total - checks}


def main() -> int:
    parser = _ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_real_moment.json")

    try:
        args = parser.parse_args()
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        _check_out(args.out)
        grid = [_cell(d, n) for d, n in BOUNDS_GRID_CELLS]
        guard = [_cell(d, n) for d, n in GUARD_CELLS]
        report = {
            "repeats": REPEATS,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "bounds_grid_total": {
                key: sum(c[key] for c in grid) for key in ("real_moment_s", "moment_operator_s", "assembly_s")
            },
            "bounds_grid": grid,
            "guard": guard,
        }
        _write_out(json.dumps(report, indent=1) + "\n", args.out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    totals = report["bounds_grid_total"]
    print(f"wrote {len(grid) + len(guard)} cells to {args.out}")
    print(f"bounds_grid cells: real_moment {totals['real_moment_s'] * 1e3:.2f} ms, "
          f"of which assembly {totals['assembly_s'] * 1e3:.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
