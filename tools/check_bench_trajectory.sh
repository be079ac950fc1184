#!/usr/bin/env bash
# check_bench_trajectory.sh — gate on the committed benchmark trajectory.
#
# The BENCH_*.json records at the repo root are the performance history the
# README/DESIGN numbers cite. A record that was accidentally captured from
# a Debug build, or whose JSON drifted from the expected schema, poisons
# every future comparison against it. This check validates that every
# record:
#
#   * parses as JSON,
#   * was measured against a Release library build
#     (`library_build_type` == "release", case-insensitive — top-level in
#     hand-rolled records, under `context` in google-benchmark dumps),
#   * carries its summary payload: a non-empty `sweep` array with a
#     consistent per-row schema (hand-rolled), or a non-empty `benchmarks`
#     array with name/iterations/real_time/cpu_time (google-benchmark);
#   * has a consistent per-row schema in every further top-level array of
#     a hand-rolled record (such as bench_incremental's `whatif` section).
#
# It also validates BENCHMARK.json, the declaration of the end-to-end
# benchmark (e2ebench/): the file parses; every workload has a `name` and
# a `why`; every end-to-end metric has a `name`, a `unit`, `better` of
# "lower" or "higher" and a `bound` in (0, 1]; every per-layer metric has a
# `name`, a `unit` and `better`; and workload and metric names are unique.
# The check only reads the file.
#
# Usage: check_bench_trajectory.sh [repo-root]   (defaults to the repo
# containing this script). Exits non-zero on any malformed record.
set -u

ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$ROOT" || { echo "check_bench_trajectory: bad root $ROOT" >&2; exit 2; }

python3 - <<'EOF'
import glob
import json
import sys

failures = []
records = sorted(glob.glob("BENCH_*.json"))
if not records:
    print("check_bench_trajectory: no BENCH_*.json records found "
          "(wrong root, or the trajectory was deleted?)")
    sys.exit(1)

def check(path):
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as e:
            return f"not valid JSON: {e}"
    if not isinstance(data, dict):
        return "top level is not an object"

    if "context" in data:
        # google-benchmark dump: --benchmark_out=json
        context = data.get("context")
        if not isinstance(context, dict):
            return "'context' is not an object"
        build = context.get("library_build_type")
        if not isinstance(build, str) or build.lower() != "release":
            return (f"context.library_build_type is {build!r}, expected "
                    "'release' — re-capture from a Release build")
        benches = data.get("benchmarks")
        if not isinstance(benches, list) or not benches:
            return "'benchmarks' is missing or empty"
        for i, bench in enumerate(benches):
            for key in ("name", "iterations", "real_time", "cpu_time"):
                if key not in bench:
                    return f"benchmarks[{i}] lacks '{key}'"
        return None

    # hand-rolled record: {benchmark, library_build_type, sweep, ...}
    name = data.get("benchmark")
    if not isinstance(name, str) or not name:
        return "lacks a 'benchmark' name (and has no 'context', so it is "\
               "not a google-benchmark dump either)"
    build = data.get("library_build_type")
    if not isinstance(build, str) or build.lower() != "release":
        return (f"library_build_type is {build!r}, expected 'release' — "
                "re-capture from a Release build")
    sweep = data.get("sweep")
    if not isinstance(sweep, list) or not sweep:
        return "'sweep' is missing or empty"
    for key, rows in data.items():
        if key == "sweep" or isinstance(rows, list):
            problem = check_rows(key, rows)
            if problem is not None:
                return problem
    return None

def check_rows(key, rows):
    """A non-empty array of non-empty objects sharing one set of keys."""
    if not rows:
        return f"'{key}' is empty"
    schemas = set()
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or not row:
            return f"{key}[{i}] is not a non-empty object"
        schemas.add(tuple(sorted(row.keys())))
    if len(schemas) != 1:
        return (f"{key} rows disagree on their schema: " +
                " vs ".join(str(list(s)) for s in sorted(schemas)))
    return None

def nonempty_str(value):
    return isinstance(value, str) and bool(value.strip())

def check_benchmark(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        return f"cannot read: {e}"
    except json.JSONDecodeError as e:
        return f"not valid JSON: {e}"
    if not isinstance(data, dict):
        return "top level is not an object"
    workloads = data.get("workloads")
    if not isinstance(workloads, list) or not workloads:
        return "'workloads' is missing or empty"
    names = set()
    for i, workload in enumerate(workloads):
        if not isinstance(workload, dict):
            return f"workloads[{i}] is not an object"
        for key in ("name", "why"):
            if not nonempty_str(workload.get(key)):
                return f"workloads[{i}] lacks a non-empty '{key}'"
        if workload["name"] in names:
            return f"workload name {workload['name']!r} is not unique"
        names.add(workload["name"])
    metric_names = set()
    for section, bounded in (("end_to_end", True), ("per_layer", False)):
        metrics = data.get(section, [] if not bounded else None)
        if not isinstance(metrics, list) or (bounded and not metrics):
            return f"'{section}' is missing or empty"
        for i, metric in enumerate(metrics):
            where = f"{section}[{i}]"
            if not isinstance(metric, dict):
                return f"{where} is not an object"
            for key in ("name", "unit"):
                if not nonempty_str(metric.get(key)):
                    return f"{where} lacks a non-empty '{key}'"
            if metric.get("better") not in ("lower", "higher"):
                return (f"{where} ({metric['name']}) has better="
                        f"{metric.get('better')!r}, expected 'lower' or "
                        "'higher'")
            if bounded:
                bound = metric.get("bound")
                if (isinstance(bound, bool) or
                        not isinstance(bound, (int, float)) or
                        not 0 < bound <= 1):
                    return (f"{where} ({metric['name']}) has bound="
                            f"{bound!r}, expected a number in (0, 1]")
            if metric["name"] in metric_names:
                return f"metric name {metric['name']!r} is not unique"
            metric_names.add(metric["name"])
    return None

for path in records:
    problem = check(path)
    if problem is None:
        print(f"PASS  {path}")
    else:
        print(f"FAIL  {path}: {problem}")
        failures.append(path)

problem = check_benchmark("BENCHMARK.json")
if problem is None:
    print("PASS  BENCHMARK.json")
else:
    print(f"FAIL  BENCHMARK.json: {problem}")
    failures.append("BENCHMARK.json")

if failures:
    print(f"check_bench_trajectory: {len(failures)} malformed record(s)")
    sys.exit(1)
print(f"check_bench_trajectory: {len(records) + 1} record(s) OK")
EOF
