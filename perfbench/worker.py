"""One workload in one fresh process: set-up, timed passes, checks, one JSON line.

Started by run.py; not meant to be run by hand. The first statement takes
the clock, so `setup_s` covers the imports (numpy, scipy, sqlab), the BLAS
warm-up and input generation, up to the first timed pass.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import sqlab  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# The first eigensolve of order ~700 pays for OpenBLAS buffers and threads;
# an 8x8 call does not, so warm up at a size the workloads actually reach.
WARMUP_ORDER = 700
IMPORT_REPEATS = 3


def warm_blas(seed: int) -> None:
    a = np.random.default_rng(seed).standard_normal((WARMUP_ORDER, WARMUP_ORDER))
    np.linalg.eigvalsh(a + a.T)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2),
        "machine": platform.machine(),
    }


def cli_import_s() -> float:
    """Interpreter start plus `import sqlab.cli`, minus a bare interpreter start."""

    def median_run(code):
        times = []
        for _ in range(IMPORT_REPEATS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    return median_run("import sqlab.cli") - median_run("pass")


def timed_passes(run_pass, seconds: float, min_passes: int, walls: list, totals: list) -> None:
    """Call `run_pass` until the next pass would overrun `seconds` (at least `min_passes`)."""
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(walls) >= min_passes and elapsed + statistics.median(walls) > seconds:
            return
        t0 = time.perf_counter()
        attempted, failed = run_pass()
        walls.append(time.perf_counter() - t0)
        totals[0] += attempted
        totals[1] += failed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--wrong-reference", action="store_true")
    args = parser.parse_args()

    if not Path(sqlab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: sqlab imported from {sqlab.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, args.small, args.wrong_reference, workdir)
    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    try:
        warm_blas(args.seed)
        workload.setup()
        setup_s = time.perf_counter() - T0
        result = {"setup_s": setup_s, "env": environment()}
        if args.setup_only:
            print(json.dumps(result))
            return 0

        walls, totals = [], [0, 0]
        if tracer is None:
            timed_passes(workload.run_pass, args.seconds, 2, walls, totals)
        else:
            # untraced half first, then the traced half
            tracer.uninstall()
            timed_passes(workload.run_pass, args.seconds / 2, 1, walls, totals)
            untraced_wall = statistics.median(walls)
            traced_walls = []
            tracer.install()
            tracer.harvest_oracle_calls(count=False)
            tracer.pass_id = 0
            workload.counts.clear()

            def traced_pass():
                attempted, failed = workload.run_pass()
                tracer.harvest_oracle_calls(count=True)
                tracer.pass_id += 1
                return attempted, failed

            timed_passes(traced_pass, args.seconds / 2, 1, traced_walls, totals)
            tracer.uninstall()
            per_layer = layer_metrics(tracer, len(traced_walls), sum(traced_walls), workload.counts)
            per_layer["cli.import_s"] = cli_import_s()
            per_layer["trace.overhead_s"] = statistics.median(traced_walls) - untraced_wall
            result["per_layer"] = per_layer
            result["traced_walls"] = traced_walls
            trace_file = ROOT / ".perfbench_work" / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(trace_file)
            result["trace_file"] = str(trace_file.relative_to(ROOT))

        result.update(
            walls=walls,
            step_times=workload.step_times,
            attempted=totals[0],
            failed=totals[1],
            failures=workload.failures,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
