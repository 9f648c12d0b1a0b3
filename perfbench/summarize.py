"""Summarize recorded runs into a trajectory point and check their spread.

    python3 perfbench/summarize.py --first 401-410 --second 501-510 [--per-layer-seed 401]
        [--program "sqlab at commit abc1234"] [--append]

Reads the records that run.py leaves in `.perfbench_work/runs/` for the
given seeds (every workload of BENCHMARK.json; `--trace 0` records for the
two sets, `--trace 1` records for the per-layer seed). For every workload
and end-to-end metric it prints the median, the quartiles and the spread
((q3 - q1) / median, quartiles as `statistics.quantiles(values, n=4)` gives
them) of each set, the shift of the second median against the first, and
whether both stay within the metric's bound. With `--append` the point is
added to `perfbench/trajectory.json`. Exits 1 if a record is missing or a
spread or shift is past its bound (`setup_s` is held to the shift only).
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = Path(".perfbench_work") / "runs"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load(workload: str, seed: int, trace: int) -> dict:
    return json.loads((RUNS / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def quartiles(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--first", type=seed_range, required=True)
    parser.add_argument("--second", type=seed_range, required=True)
    parser.add_argument("--per-layer-seed", type=int)
    parser.add_argument("--program", default="sqlab")
    parser.add_argument("--append", action="store_true")
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    ok = True
    end_to_end, env = {}, None
    try:
        for workload in workloads:
            sets = [[load(workload, s, 0) for s in seeds] for seeds in (args.first, args.second)]
            env = env or sets[0][0]["env"]
            end_to_end[workload] = {}
            for metric in spec["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                first, second = ([r["metrics"][name]["value"] for r in runs] for runs in sets)
                q1, median, q3, spread = quartiles(first)
                _, median2, _, spread2 = quartiles(second)
                worse = (median2 - median) / median * (1 if metric["better"] == "lower" else -1)
                held = worse <= bound and (name == "setup_s" or max(spread, spread2) <= bound)
                ok &= held
                print(f"{workload:12s} {name:12s} median {median:<10.5g} spread {spread:.3f} / {spread2:.3f}"
                      f"  second median {median2:<10.5g} worse by {worse:+.3f}  bound {bound}"
                      f"  {'ok' if held else 'PAST BOUND'}")
                end_to_end[workload][name] = {
                    "unit": metric["unit"], "median": median, "q1": q1, "q3": q3, "spread": spread,
                    "second_set_median": median2, "second_set_spread": spread2,
                }
        per_layer = {}
        if args.per_layer_seed is not None:
            per_layer = {
                w: {k: m["value"] for k, m in load(w, args.per_layer_seed, 1)["metrics"].items()} for w in workloads
            }
    except FileNotFoundError as exc:
        print(f"error: missing record {exc.filename}", file=sys.stderr)
        return 1

    if args.append:
        path = HERE / "trajectory.json"
        trajectory = json.loads(path.read_text())
        trajectory["points"].append({
            "program": args.program,
            "measured": datetime.date.today().isoformat(),
            "env": env,
            "run_seconds": spec["run_seconds"],
            "seeds": {"first_set": args.first, "second_set": args.second},
            "end_to_end": end_to_end,
            "per_layer_seed": args.per_layer_seed,
            "per_layer": per_layer,
        })
        path.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
