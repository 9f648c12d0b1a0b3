#!/usr/bin/env python3
"""Fit the minimal-copies curve N(d) for the sign-flip discrimination task.

The closed-form trace norm forces N to grow linearly in d = 2^n, i.e.
exponentially in the qubit count; this script sweeps d, fits N = alpha*d +
beta, and prints the fit alongside the per-d values. An invalid threshold,
fewer than two distinct d with a valid cell, or an --out that cannot be
written is refused with one `error:` line on stderr and exit code 1.
"""

import sys
from pathlib import Path

from sqlab.cli import _ArgumentParser, _check_out, _float, _int, _write_out  # the sqlab command line's rules
from sqlab.experiments import ExperimentConfig, linear_fit, render_records, run_sweep
from sqlab.quantum_sim import HELSTROM_SCHATTEN_THRESHOLD


def main() -> int:
    parser = _ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=_int, nargs="+", default=[64 << k for k in range(7)])
    parser.add_argument("--threshold", type=_float, default=HELSTROM_SCHATTEN_THRESHOLD)
    parser.add_argument("--out", default="results/copies_scaling.csv")

    try:
        args = parser.parse_args()
        config = ExperimentConfig(
            subcommand="copies-sweep", d_values=tuple(args.d), threshold=args.threshold
        )
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        _check_out(args.out)
        records = run_sweep(config)
        good = [r for r in records if r.error is None]
        dims = [r.params["d"] for r in good]
        copies = [r.values["min_copies"] for r in good]
        if len(set(dims)) < 2:
            raise ValueError(f"a line fit needs valid cells at two distinct d, got {len(set(dims))}")
        _write_out(render_records(records, "csv"), args.out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    slope, intercept, r_squared = linear_fit(dims, copies)
    print(f"wrote {len(records)} rows to {args.out}")
    for d, n_min in zip(dims, copies):
        print(f"  d={d:>5}  min copies={n_min}")
    print(f"fit: N = {slope:.6f} * d + {intercept:.3f}   (R^2 = {r_squared:.6f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
