#!/usr/bin/env python3
"""Run one benchmark workload in this process and print its metrics.

    python3 bench/run.py --workload {orbits,triples,geometry} --seed N \
        --seconds S --trace {0,1}

Runs from the root of a source checkout and imports the package from
``src/``.  One thread, one client: queries run one at a time (closed
loop).  Passes over the workload's query set repeat while one more pass,
as long as the last, would end within ``--seconds`` of pass time; at
least one runs.  Every answer is checked.

``--trace 0`` prints the end-to-end metrics: ``wall_s``, the median pass
time; ``setup_s``, the median over fresh processes, started before and
after the passes, of the time from process start until imports and input
generation are done; and ``peak_rss_mb``, this process's peak RSS.
``--trace 1`` alternates traced and untraced passes, at least three and
starting with a traced one, and prints the per-layer metrics (see
``spans.py`` and ``layer_metrics``).

The next-to-last line of standard output is a JSON ``detail`` object with
the seed, host facts, pass times, latency percentiles and any wrong
answers; the last line is the result object.  Without ``src/zpaction``
next to it, or on bad arguments, it exits non-zero and prints no result.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 3  # before the passes, and as many again after them

# The layers each workload is expected to spend most of its time in.
DOMINANT = {
    "orbits": ("classify.count_orbits_burnside",),
    "triples": ("enumeration.theta_table", "classify.invariant_keys_full"),
    "geometry": ("geometry.", "fpalgebra."),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(DOMINANT))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def setup(args):
    """Import the package from this checkout's src/ and build the workload's inputs."""
    if not (SRC / "zpaction" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {SRC / 'zpaction'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import workloads
    import zpaction

    if Path(zpaction.__file__).resolve().parent != SRC / "zpaction":
        sys.exit(f"bench: imported zpaction from {zpaction.__file__}, not from {SRC}")
    OUT_DIR.mkdir(exist_ok=True)
    return workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)


def measure_setup(args) -> list[float]:
    """Seconds from spawning a fresh process until its set-up is done."""
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        child = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT)
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if code != 0 or line.strip() != b"ready":
            sys.exit(f"bench: set-up probe failed (exit {code})")
        samples.append(elapsed)
    return samples


def cpu_steal_ticks() -> int | None:
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def host_facts() -> dict:
    import numpy

    mem_kb = None
    try:
        with open("/proc/meminfo") as f:
            mem_kb = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "mem_total_kb": mem_kb,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def run_passes(workload, seconds: float, tracer):
    """Time passes within ``seconds`` of pass time; check every answer.

    A pass starts only if one as long as the last would end within
    ``seconds``, so a run's length stays near ``seconds`` however long a
    pass is.  With a tracer, passes alternate traced and untraced,
    starting traced, and at least three run.  Returns the passes, which of them were traced,
    the tracer's statistics per traced pass, the wrong answers and the
    number of queries attempted.
    """
    passes, traced_flags, traced_stats, errors, attempted = [], [], [], [], 0
    measured = last = 0.0
    while not passes or measured + last <= seconds or (tracer is not None and len(passes) < 3):
        traced = tracer is not None and len(passes) % 2 == 0
        gc.collect()
        if traced:
            tracer.install()
        try:
            result = workload.run_pass()
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            traced_stats.append(tracer.take_stats())
        measured += result.wall_s
        last = result.wall_s
        errors += workload.check(result)
        if not passes:
            errors += workload.final_check(result)
        attempted += len(result.answers)
        result.answers = None  # keep memory flat however many passes run
        passes.append(result)
        traced_flags.append(traced)
    return passes, traced_flags, traced_stats, errors, attempted


def layer_metrics(workload_name, passes, traced_flags, traced_stats) -> dict:
    """Per-layer values, per pass.

    The first traced pass starts the process's peak RSS from set-up, so
    peak growth is read from it alone.  It also pays the process's cold
    start, so every other value is the median over the later traced passes.
    """
    traced = [r for r, t in zip(passes, traced_flags) if t][1:]
    untraced = [r for r, t in zip(passes, traced_flags) if not t]
    first, later = traced_stats[0], traced_stats[1:]
    values = {}
    for key in {key for stats in traced_stats for key in stats}:
        if key.endswith(".rss_growth_mb"):
            values[key] = first.get(key, 0.0)
        else:
            values[key] = statistics.median(stats.get(key, 0.0) for stats in later)
    values["cli.output_bytes"] = statistics.median(r.output_bytes for r in traced)
    traced_wall = statistics.median(r.wall_s for r in traced)
    values["traced_wall_s"] = traced_wall
    values["trace_overhead_s"] = traced_wall - statistics.median(r.wall_s for r in untraced)
    values["dominant_share"] = sum(
        value for key, value in values.items()
        if key.endswith(".self_s") and key.startswith(DOMINANT[workload_name])
    ) / traced_wall
    return values


def dominance_check(workload_name, values) -> dict:
    """Whether the expected layers dominate, as README.md states it."""
    self_times = {k[: -len(".self_s")]: v for k, v in values.items() if k.endswith(".self_s")}
    largest = max(self_times, key=self_times.get)
    if workload_name == "orbits":
        holds = largest == "classify.count_orbits_burnside"
        expectation = "classify.count_orbits_burnside has the largest self time"
    else:
        holds = values["dominant_share"] > 0.5
        expectation = f"self time in {' + '.join(DOMINANT[workload_name])} exceeds half the traced pass"
    return {"expectation": expectation, "holds": holds, "largest_span": largest,
            "dominant_share": values["dominant_share"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = setup(args)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    config = json.loads((ROOT / "BENCHMARK.json").read_text())

    setup_samples = measure_setup(args)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    steal0 = cpu_steal_ticks()
    passes, traced_flags, traced_stats, errors, attempted = run_passes(workload, args.seconds, tracer)
    steal1 = cpu_steal_ticks()
    setup_samples += measure_setup(args)

    untraced_walls = [r.wall_s for r, t in zip(passes, traced_flags) if not t]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {**host_facts(), "cpu_steal_ticks": None if steal0 is None else steal1 - steal0},
        "setup_samples_s": setup_samples,
        "pass_wall_s": [r.wall_s for r in passes],
        "pass_traced": traced_flags,
        "pass_spread": None,
        "queries_per_pass": attempted // len(passes),
        "wrong_answers": errors[:20],
    }
    if len(untraced_walls) >= 2:
        q1, q2, q3 = statistics.quantiles(untraced_walls, n=4)
        detail["pass_spread"] = (q3 - q1) / q2
    latencies = [x for r, t in zip(passes, traced_flags) if not t for x in r.latencies_s]
    if latencies:
        detail["query_ms"] = {
            "samples": len(latencies),
            "p50": 1e3 * statistics.median(latencies),
            "p99": 1e3 * statistics.quantiles(latencies, n=100)[98],
        }

    if tracer is not None:
        values = layer_metrics(args.workload, passes, traced_flags, traced_stats)
        detail["dominance"] = dominance_check(args.workload, values)
        detail["missing_targets"] = tracer.missing
        trace_file = OUT_DIR / f"trace-{args.workload}.npz"
        tracer.write(trace_file, {"workload": args.workload, "seed": args.seed,
                                  "pass_wall_s": detail["pass_wall_s"], "pass_traced": traced_flags})
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in config["per_layer"]}
    else:
        measured = {
            "wall_s": statistics.median(untraced_walls),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in config["end_to_end"]}

    for message in errors[:20]:
        print(f"bench: wrong answer: {message}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": len(errors), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
