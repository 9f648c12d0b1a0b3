#!/usr/bin/env python3
"""End-to-end separation demo on one instance of each search task.

Shows the two constant-query solvers finding the hidden vector with exactly
C component reads, the sample-only baseline stuck at chance level, and the
copy requirement of the corresponding state-discrimination problem. Options
no task can serve are refused with one `error:` line on stderr and exit code
1, before anything is printed.
"""

import sys

from sqlab.cli import _ArgumentParser, _count, _int  # the sqlab command line's rules for flags
from sqlab.instances import MAX_VECTORS, gen_minus_sign, gen_real_vector_search, gen_unnormalized_minus
from sqlab.learners import solve_minus_sign, solve_real_search, solve_sample_only
from sqlab.quantum_sim import min_copies_minus_sign
from sqlab.sq_oracle import Capability

import numpy as np


def _line(label, instance, report):
    calls = report.total_calls()
    return (
        f"{label:<20} answer={report.answer} correct={instance.verify_answer(report.answer)} "
        f"queries={calls.query_calls} samples={calls.sample_calls} "
        f"elapsed={report.elapsed_ns / 1e3:.1f}us"
    )


def _report(args) -> list[str]:
    minus = gen_minus_sign(args.n, args.C, args.seed)
    unnorm = gen_unnormalized_minus(args.n, args.C, args.seed)
    real = gen_real_vector_search(min(args.n, 20), args.C, args.seed)
    lines = [
        f"n={args.n} (d=2^{args.n}), C={args.C}, seed={args.seed}",
        "",
        _line("sign flip", minus, solve_minus_sign(minus.handles)),
        _line("unnormalized flip", unnorm, solve_minus_sign(unnorm.handles)),
        _line("real vector", real, solve_real_search(real.handles)),
    ]

    rng = np.random.default_rng(args.seed)
    hits = 0
    for seed in range(args.baseline_trials):
        inst = gen_minus_sign(args.n, args.C, seed)
        restricted = [h.restrict({Capability.SAMPLE}) for h in inst.handles]
        report = solve_sample_only(restricted, args.budget, rng)
        hits += int(inst.verify_answer(report.answer))

    d = 1 << args.n
    copies = min_copies_minus_sign(d)
    return lines + [
        "",
        f"sample-only baseline: {hits}/{args.baseline_trials} correct "
        f"(chance level 1/{args.C} = {1 / args.C:.3f}) with budget {args.budget} per handle",
        f"state-input route: reaching 0.9 discrimination success at d={d} "
        f"needs {copies} copies of each state (grows linearly in d)",
    ]


def main() -> int:
    parser = _ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=_int, default=12)
    parser.add_argument("--C", type=_count(2, MAX_VECTORS), default=4)
    parser.add_argument("--seed", type=_count(0, None), default=0)
    parser.add_argument("--budget", type=_count(0), default=10_000)
    # at least one trial: a zero-trial rate would print as if it were measured
    parser.add_argument("--baseline-trials", type=_count(1), default=200)

    try:
        args = parser.parse_args()
        lines = _report(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
