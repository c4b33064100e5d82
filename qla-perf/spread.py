#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

For every workload and metric this prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median. An end-to-end
spread above a third of the metric's bound in BENCHMARK.json is flagged.

    python3 qla-perf/spread.py                      # every workload, 10 seeds
    python3 qla-perf/spread.py --workloads serve-mix --seeds 5
    python3 qla-perf/spread.py --trace 1 --seeds 3  # per-layer metrics

Run it from the repository root; it invokes the command BENCHMARK.json
names, with that file's run_seconds unless --seconds is given.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    proc = subprocess.run(args, capture_output=True, text=True)
    took = time.time() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: correctness gate failed")
    return result, took


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    for workload in args.workloads.split(","):
        values = {}
        units = {}
        durations = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, took = run_once(bench["command"], workload, seed,
                                    args.seconds, args.trace)
            durations.append(took)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"== {workload}: {args.seeds} runs, "
              f"{min(durations):.1f}-{max(durations):.1f} s each")
        print(f"   {'metric':<34} {'median':>16} {'q1':>16} {'q3':>16} "
              f"{'spread':>8}  unit")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4)
                         if len(vals) > 1 else (vals[0],) * 3)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if args.trace == 0 and bound is not None and name != "setup_s" \
                    and spread > bound / 3:
                flag = f"  > bound/3 ({bound / 3:.3f})"
            print(f"   {name:<34} {med:>16.6g} {q1:>16.6g} {q3:>16.6g} "
                  f"{spread:>8.4f}  {units[name]}{flag}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
