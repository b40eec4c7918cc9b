"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/spread.py --workloads mc_trials,long_horizon,clip_scoring \
        --seeds 1-10 [--trace 0] [--save bench/_out/spread.json]

Runs are sequential, one ``run.py`` process at a time, with BENCHMARK.json's
``run_seconds``. For every workload and metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound. ``--save`` writes the summary, with the environment of the
first run, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The run's result line and its environment record."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, check=True, capture_output=True, text=True, timeout=180)
    lines = done.stdout.splitlines()
    env = json.loads(next(line for line in lines if line.startswith("env: "))[5:])
    env["run_wall_s"] = time.perf_counter() - start
    return json.loads(lines[-1]), env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma list")
    parser.add_argument("--seeds", default="1-10", help="N or LO-HI")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write the summary here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {"run_seconds": spec["run_seconds"], "seeds": seed_list(args.seeds),
               "trace": args.trace, "env": None, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in summary["seeds"]:
            result, env = run_once(workload, seed, spec["run_seconds"], args.trace)
            summary["env"] = summary["env"] or env
            failed += result["failed"] + (not result["correct"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed} ({env['run_wall_s']:.1f} s): " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if k in bounds and bounds[k] is not None), flush=True)
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds.get(name), "values": vals}
            if bounds.get(name) is not None:
                print(f"  {workload} {name}: median {med:.6g}, quartiles {q1:.6g}..{q3:.6g}, "
                      f"spread {spread:.3f} (bound {bounds[name]})")
        print(f"  {workload}: {failed} failed ops or incorrect runs", flush=True)
        summary["workloads"][workload] = {"failed": failed, "metrics": rows}
    if args.save:
        Path(args.save).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
