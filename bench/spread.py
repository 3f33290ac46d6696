#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --workload orbits --runs 10 [--first-seed 1] [--seconds S]

Runs ``bench/run.py`` once per seed (seeds first-seed .. first-seed+runs-1),
one run at a time, untraced, and prints for each end-to-end metric its
median, quartiles and quartile spread ``(Q3 - Q1) / median`` next to the
bound in BENCHMARK.json.  The last line is the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    failed = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            sys.exit(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
        lines = done.stdout.strip().splitlines()
        detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
        failed += result["failed"]
        row = {name: metric["value"] for name, metric in result["metrics"].items()}
        passes = " ".join(f"{w:.3f}" for w in detail["pass_wall_s"])
        print(f"seed {seed}: " + "  ".join(f"{k}={v:.4f}" for k, v in row.items()) + f"  passes {passes}",
              flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    summary = {"workload": args.workload, "runs": args.runs, "failed": failed, "metrics": {}}
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        summary["metrics"][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bounds[name]}
        print(f"{name:12s} median {median:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
              f"spread {spread:.4f}  bound {bounds[name]}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
