#!/usr/bin/env python3
"""Steadiness runs of the end-to-end benchmark, and their noise record.

Runs run.py once per (seed, workload), interleaved (seed-major, the
workloads in order within each seed; by default the two that
BENCHMARK.json lists), and writes every run's raw values
plus, for each workload x metric, the median and quartiles of the runs and
their spread (interquartile distance / median, as
`statistics.quantiles(values, n=4)` gives the quartiles) to a JSON file:

    python3 e2ebench/steadiness.py --seeds 1-10 --seconds 40 \
        --out e2ebench/noise/steadiness-F.json

`--summarize FILE...` prints the table of one or more such files, and the
ratio of their medians when given two (the second set against the first).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
WORKLOADS = "lookup,census"


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload, seed, seconds):
    started = time.time()
    result = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         "0"],
        cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = result.stdout.strip().splitlines()
    record = {"workload": workload, "seed": seed,
              "exit": result.returncode, "started": started,
              "wall_s": time.time() - started}
    if result.returncode == 0 and lines:
        record["result"] = json.loads(lines[-1])
    else:
        record["stderr_tail"] = result.stderr.strip().splitlines()[-5:]
    return record


def summarize(runs):
    by_metric = {}
    for record in runs:
        result = record.get("result")
        if result is None:
            continue
        for name, metric in result["metrics"].items():
            by_metric.setdefault((record["workload"], name), []).append(
                metric["value"])
    summary = {}
    for (workload, name), values in sorted(by_metric.items()):
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0], None, values[0]))
        summary["%s/%s" % (workload, name)] = {
            "n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}
    return summary


def print_table(summaries):
    keys = sorted(set().union(*[s.keys() for s in summaries]))
    for key in keys:
        cells = []
        for summary in summaries:
            entry = summary.get(key)
            if entry is None:
                cells.append("%36s" % "-")
                continue
            cells.append("n=%-2d med=%-11.5g spread=%-6.3f" %
                         (entry["n"], entry["median"], entry["spread"] or 0))
        line = "%-24s %s" % (key, "  ".join(cells))
        if len(summaries) == 2 and key in summaries[0] and key in summaries[1]:
            first = summaries[0][key]["median"]
            if first:
                line += "  second/first=%.3f" % (summaries[1][key]["median"] /
                                                 first)
        print(line)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--workloads", default=WORKLOADS,
                        help="comma-separated (default: %(default)s)")
    parser.add_argument("--out")
    parser.add_argument("--summarize", nargs="+")
    args = parser.parse_args()
    if args.summarize:
        summaries = []
        for path in args.summarize:
            with open(path) as f:
                summaries.append(json.load(f)["summary"])
        print_table(summaries)
        return 0
    runs = []
    for seed in seed_range(args.seeds):
        for workload in args.workloads.split(","):
            record = run(workload, seed, args.seconds)
            runs.append(record)
            ok = (record.get("result") or {}).get("correct")
            print("%-8s seed=%-3d exit=%d correct=%s wall=%.0fs" %
                  (workload, seed, record["exit"], ok, record["wall_s"]),
                  file=sys.stderr, flush=True)
    report = {"seconds": args.seconds,
              "order": ["%s/%d" % (r["workload"], r["seed"]) for r in runs],
              "runs": runs, "summary": summarize(runs)}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    print_table([report["summary"]])
    return 0


if __name__ == "__main__":
    sys.exit(main())
