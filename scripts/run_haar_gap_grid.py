#!/usr/bin/env python3
"""Sweep the moment-operator gap over the desk-scale (d, N) grid.

Writes a CSV (default results/haar_gap_grid.csv) with the gap, both bounds,
and the minimum eigenvalue of the scalar-subtracted remainder per cell, plus
a Monte Carlo deviation column when --mc-samples is given. Invalid options,
a grid none of whose cells is served, or an --out that cannot be written are
refused with one `error:` line on stderr and exit code 1.
"""

import sys
from pathlib import Path

from sqlab.cli import _ArgumentParser, _check_out, _count, _int, _write_out  # the sqlab command line's rules
from sqlab.experiments import ExperimentConfig, render_records, run_sweep


def main() -> int:
    parser = _ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=_int, nargs="+", default=[2, 4, 8, 16])
    parser.add_argument("--N", type=_int, nargs="+", default=[1, 2, 3, 4])
    parser.add_argument("--mc-samples", type=_count(1), default=None)
    parser.add_argument("--seed", type=_count(0, None), default=0)
    parser.add_argument("--out", default="results/haar_gap_grid.csv")

    try:
        args = parser.parse_args()
        config = ExperimentConfig(
            subcommand="haar-gap",
            d_values=tuple(args.d),
            copies_values=tuple(args.N),
            mc_samples=args.mc_samples,
            seed=args.seed,
        )
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        _check_out(args.out)
        records = run_sweep(config)
        failures = [r for r in records if r.error]
        if len(failures) == len(records):
            raise ValueError(f"no cell was served; d={records[0].params['d']} N={records[0].params['N']}: "
                             f"{records[0].error}")
        _write_out(render_records(records, "csv"), args.out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    worst_slack = min(
        r.values["bound_two_term"] - r.values["gap"] for r in records if r.error is None
    )
    print(f"wrote {len(records)} cells to {args.out}")
    print(f"tightest two-term slack: {worst_slack:.6f}")
    if failures:
        print(f"cells with errors: {[(r.params, r.error) for r in failures]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
