"""sqlab benchmark: one workload per call, run from the root of a checkout.

    python3 perfbench/run.py --workload bounds_grid --seed 1 --seconds 35 --trace 0

Workloads: bounds_grid, sq_search, cli_session (see metrics.WORKLOADS and
perfbench/README.md). With `--trace 0` the last stdout line holds the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a
separate traced run. Either way it is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The lines before it are a
human-readable report: environment, seed, error rate, pass count, the median
pass and the highest pass-time percentile with ten samples beyond it.

`wall_s` is the sum over the steps of a pass of each step's fastest time in
the run. Load from outside the process only ever slows a step, and on a
shared host it comes and goes in stretches of seconds to minutes; the
fastest time of each step is the part of the figure that the program, not
the host, decides.

sqlab is imported from `src/` of the current directory, never from an
installed copy; without it the benchmark exits 2 and prints no result.
BLAS threads are fixed (BLAS_THREADS, at most nproc) for every process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

BLAS_THREADS = 2
SETUP_REPEATS = 4  # fresh set-up-only processes, plus the measuring process
DEADLINE_S = 175
HERE = Path(__file__).resolve().parent


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_worker(args, extra: list[str], env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.small:
        cmd.append("--small")
    if args.wrong_reference:
        cmd.append("--wrong-reference")
    # own process group, so a timeout also stops the sqlab processes it started
    proc = subprocess.Popen(cmd + extra, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(stderr[-4000:])
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def tail_percentile(samples: list[float]) -> str:
    """Highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return f"none (n={n} < 11)"
    p = math.floor(100 * (n - 10) / n)
    value = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return f"p{p}={value:.6g}s"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true", help="reduced sizes, for the self-test")
    parser.add_argument("--wrong-reference", action="store_true",
                        help="perturb one reference value so the checks must fail (self-test)")
    args = parser.parse_args()

    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    root = Path.cwd()
    if not (root / "src" / "sqlab" / "__init__.py").is_file():
        print(f"error: no sqlab sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = child_env(root)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                setups.append(run_worker(args, ["--setup-only"], env, deadline)["setup_s"])
        result = run_worker(args, [], env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    walls = result["walls"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(f"error_rate {failed / attempted:.6g} ({failed} failed / {attempted} attempted)")
    for message in result["failures"]:
        print(f"check failed: {message}")
    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}
        traced = result["traced_walls"]
        print(f"untraced passes {len(walls)} median {statistics.median(walls):.6g}s; "
              f"traced passes {len(traced)} median {statistics.median(traced):.6g}s")
        print(f"spans written to {result['trace_file']}")
    else:
        setups.append(result["setup_s"])
        steps = result["step_times"]
        wall_s = sum(min(times) for times in steps.values())
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall_s,
            "ops_per_s": attempted / len(walls) / wall_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": END_TO_END[name][0]} for name in END_TO_END}
        print(f"wall_s: sum of the fastest time of each of {len(steps)} steps over {len(walls)} passes")
        print(f"pass time: median {statistics.median(walls):.6g}s (min {min(walls):.6g}s, "
              f"max {max(walls):.6g}s); tail {tail_percentile(walls)}")
        print(f"setup_s samples {[round(s, 4) for s in setups]}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    record = root / ".perfbench_work" / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"args": vars(args), "setup_samples": setups, "metrics": metrics, **result},
                                 indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
