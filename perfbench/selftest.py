"""Self-test of the benchmark itself, at reduced size (about two minutes).

    python3 perfbench/selftest.py

Checks, for every workload, that:
  * an untraced and a traced run exit 0, report no failure, and print every
    metric of metrics.py by name with its unit, and nothing else;
  * a run with a deliberately wrong reference value reports failed > 0;
and that BENCHMARK.json lists the same workloads and metrics as metrics.py,
and that the benchmark refuses to run where there are no sqlab sources.
Run it from the root of a checkout. Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, trace: int, *extra: str, cwd: Path | None = None) -> tuple[int, dict | None]:
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "2", "--trace", str(trace), "--small", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, cwd=cwd)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL {message}")
        sys.exit(1)
    print(f"ok   {message}")


def check_benchmark_json() -> None:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    check({w["name"] for w in spec["workloads"]} == set(WORKLOADS), "BENCHMARK.json workloads")
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    check(e2e == END_TO_END, "BENCHMARK.json end_to_end metrics")
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    check(layer == {k: v[:2] for k, v in PER_LAYER.items()}, "BENCHMARK.json per_layer metrics")


def main() -> int:
    check_benchmark_json()
    for workload in WORKLOADS:
        for trace, expected in ((0, END_TO_END), (1, PER_LAYER)):
            code, result = run(workload, trace)
            label = f"{workload} trace={trace}"
            check(code == 0 and result is not None and set(result) == RESULT_KEYS, f"{label}: result line")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{label}: all checks pass")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            check(units == {name: spec[0] for name, spec in expected.items()}, f"{label}: metric names and units")
        code, result = run(workload, 0, "--wrong-reference")
        check(code == 0 and result["failed"] > 0 and not result["correct"],
              f"{workload}: a wrong reference value raises the error rate")

    bare = Path(".perfbench_work") / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    code, result = run("sq_search", 0, cwd=bare)
    shutil.rmtree(bare)
    check(code != 0 and result is None, "no sqlab sources: nonzero exit and no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
