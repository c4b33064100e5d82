#!/usr/bin/env python3
"""A/B timing of two commits with qla-perf, written as a BENCH_PR<N>.json ledger.

Builds qla-perf from a parent commit and from a change (by default the
working tree, staged new files included) in two trees exported under a
scratch directory, then runs alternating pairs: parent and change take
turns going first, so drift of the host shows up in both sides alike.

    scripts/perf_ab.py --parent HEAD --pr N --claim fig7:wall_s --check-seed 7

Runs, in order, every one at BENCHMARK.json's `run_seconds` and seed 2005
unless named otherwise:
  * 10 pairs of the claimed workload at `--trace 0`;
  * 3 pairs of every other workload of BENCHMARK.json;
  * 3 pairs of the claimed workload at `--check-seed`, when given;
  * 5 pairs of the claimed workload at `--trace 1` (the per-layer census
    covers every layer whatever the workload).

Each run's last stdout line is qla-perf's JSON result; a run that is not
`correct` stops the script before anything is written. The ledger follows
the schema in tests/bench_ledger.rs: raw pairs, medians and quartiles per
workload, win counts, and whether the claimed metric's median gap beat the
parent's interquartile range in the better direction. Workloads and metric
directions come from BENCHMARK.json. Standard library only.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 2005
CLAIM_PAIRS = 10
OTHER_PAIRS = 3
TRACE_PAIRS = 5


def git(*args):
    out = subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True, text=True)
    return out.stdout.strip()


def resolve_change(rev):
    """The change's commit id and how it was named; the working tree
    becomes a dangling commit."""
    if rev is not None:
        return git("rev-parse", "--verify", rev + "^{commit}"), rev
    stash = git("stash", "create")
    if stash:
        return stash, "the working tree (git stash create)"
    return git("rev-parse", "HEAD"), "HEAD (clean working tree)"


def export_tree(commit, dest):
    """Write the files of `commit` to `dest` with `git archive`."""
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    with tempfile.TemporaryFile() as archive:
        subprocess.run(["git", "-C", ROOT, "archive", commit], check=True, stdout=archive)
        archive.seek(0)
        with tarfile.open(fileobj=archive) as tar:
            tar.extractall(dest)


def build(tree, target):
    """Build qla-perf in release mode from `tree`; return the binary path."""
    manifest = os.path.join(tree, "qla-perf", "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        check=True,
        env=env,
    )
    return os.path.join(target, "release", "qla-perf")


def run_once(binary, workload, seed, seconds, trace, side):
    """One qla-perf run; its metric values, refused unless `correct`."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines:
        sys.exit("perf_ab: %s run printed no result (exit %d): %s\n%s"
                 % (side, out.returncode, " ".join(cmd), out.stderr[-2000:]))
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        sys.exit("perf_ab: %s run is not correct (%s of %s operations failed): %s\n%s"
                 % (side, result.get("failed"), result.get("attempted"), " ".join(cmd),
                    out.stderr[-2000:]))
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def run_pairs(binaries, workload, seed, seconds, trace, pairs):
    """`pairs` alternating pairs; the parent goes first in the even ones."""
    out = []
    for i in range(pairs):
        first = "parent" if i % 2 == 0 else "change"
        order = [first, "change" if first == "parent" else "parent"]
        pair = {"first": first}
        for side in order:
            pair[side] = run_once(binaries[side], workload, seed, seconds, trace, side)
        out.append({"first": first, "parent": pair["parent"], "change": pair["change"]})
        print("perf_ab: %s trace %d seed %d pair %d/%d done" % (workload, trace, seed, i + 1, pairs),
              file=sys.stderr)
    return out


def quartiles(values):
    """First and third quartiles by linear interpolation."""
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarise(pairs):
    """Per side: the median and the quartiles of every metric."""
    medians, spread = {}, {}
    for side in ("parent", "change"):
        names = list(pairs[0][side])
        medians[side] = {m: statistics.median([p[side][m] for p in pairs]) for m in names}
        spread[side] = {m: quartiles([p[side][m] for p in pairs]) for m in names}
    return medians, spread


def host():
    cpu, flags = "unknown", ""
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and cpu == "unknown":
                    cpu = value.strip()
                elif key.strip() == "flags" and not flags:
                    flags = value
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "avx512f": "avx512f" in flags.split()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="the parent commit")
    parser.add_argument("--change", help="the changed commit (default: the working tree)")
    parser.add_argument("--pr", required=True, type=int, help="N of the BENCH_PR<N>.json written")
    parser.add_argument("--claim", required=True, metavar="WORKLOAD:METRIC",
                        help="the claimed workload and end-to-end metric, e.g. fig7:wall_s")
    parser.add_argument("--check-seed", type=int, help="a second seed for the claimed workload")
    parser.add_argument("--scratch", default=os.path.join(tempfile.gettempdir(), "qla-perf-ab"),
                        help="where the two trees and their builds go")
    parser.add_argument("--out", help="the ledger path (default: BENCH_PR<N>.json at the root)")
    args = parser.parse_args()

    workload, _, metric = args.claim.partition(":")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as bench:
        benchmark = json.load(bench)
    workloads = [w["name"] for w in benchmark["workloads"]]
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    if workload not in workloads or metric not in better:
        parser.error("--claim must name a workload and an end-to-end metric of BENCHMARK.json")

    parent = git("rev-parse", "--verify", args.parent + "^{commit}")
    change, change_label = resolve_change(args.change)
    binaries = {}
    for side, commit in (("parent", parent), ("change", change)):
        tree = os.path.join(args.scratch, side)
        export_tree(commit, tree)
        binaries[side] = build(tree, os.path.join(args.scratch, side + "-target"))

    runs, medians, spreads = [], {}, {}
    plan = [(workload, SEED, CLAIM_PAIRS, workload)]
    plan += [(w, SEED, OTHER_PAIRS, w) for w in workloads if w != workload]
    if args.check_seed is not None:
        plan.append((workload, args.check_seed, OTHER_PAIRS,
                     "%s (seed %d)" % (workload, args.check_seed)))
    for name, seed, count, key in plan:
        pairs = run_pairs(binaries, name, seed, seconds, 0, count)
        run = {"workload": name, "trace": 0, "pairs": pairs}
        if seed != SEED:
            run["seed"] = seed
        runs.append(run)
        medians[key], spreads[key] = summarise(pairs)
    pairs = run_pairs(binaries, workload, SEED, seconds, 1, TRACE_PAIRS)
    runs.append({"workload": workload, "trace": 1, "pairs": pairs})
    trace_medians = {workload: summarise(pairs)[0]}

    claimed = runs[0]["pairs"]
    lower = better[metric] == "lower"

    def won(pair):
        parent_value, change_value = pair["parent"][metric], pair["change"][metric]
        return change_value < parent_value if lower else change_value > parent_value

    wins = sum(won(p) for p in claimed)
    parent_median = medians[workload]["parent"][metric]
    change_median = medians[workload]["change"][metric]
    q1, q3 = spreads[workload]["parent"][metric]
    gap = parent_median - change_median if lower else change_median - parent_median
    ledger = {
        "claim": {
            "workload": workload,
            "metric": metric,
            "better": better[metric],
            "pairs": len(claimed),
            "wins": wins,
            "change_pct": round((change_median / parent_median - 1) * 100, 1),
            "parent_%s_q1" % metric: q1,
            "parent_%s_q3" % metric: q3,
            "beat_parent_iqr": gap > q3 - q1,
        },
        "commits": {
            "parent": parent,
            "change": change if args.change else
            "the commit that adds this file (measured from %s)" % change_label,
            "measured": change,
            "measured_tree": git("rev-parse", change + "^{tree}"),
        },
        "host": host(),
        "seed": SEED,
        "seconds": seconds,
        "command": "qla-perf --workload W --seed S --seconds %g --trace T, release builds, "
                   "parent and change alternating which runs first; seed %d unless a run names "
                   "its own; made by scripts/perf_ab.py" % (seconds, SEED),
        "all_runs_correct": True,
        "runs": runs,
        "medians": medians,
        "quartiles": spreads,
        "trace_medians": trace_medians,
    }
    out = args.out or os.path.join(ROOT, "BENCH_PR%d.json" % args.pr)
    with open(out, "w") as f:
        json.dump(ledger, f, indent=2)
        f.write("\n")
    claim = ledger["claim"]
    print("perf_ab: %s %s %.4g -> %.4g (%+.1f %%), %d of %d pairs won, beat parent IQR: %s; wrote %s"
          % (workload, metric, parent_median, change_median, claim["change_pct"], wins,
             len(claimed), claim["beat_parent_iqr"], out))


if __name__ == "__main__":
    main()
