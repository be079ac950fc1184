#!/usr/bin/env python3
"""End-to-end benchmark of `ppdb_cli serve --listen`.

Builds Release `ppdb_cli` and the benchmark harness from this checkout,
generates the seeded database, serves a fresh copy of it from a real
`ppdb_cli serve --listen` process and drives one workload against it over
loopback. Every answer is checked against the harness's in-process oracle.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured on the real
server; with --trace 1 they are the per-layer ones, from the harness's
traced run of the same seed and inputs (see README.md).

Usage:
    python3 e2ebench/run.py --workload lookup|consent|census --seed N \
        --seconds S --trace 0|1
    python3 e2ebench/run.py --smoke     # self-test + every oracle, briefly

Everything it writes stays under .bench_build/ in the checkout.
"""

import argparse
import json
import os
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
WORK = os.path.join(REPO, ".bench_build", "e2ebench")
CMAKE_DIR = os.path.join(WORK, "cmake")
CLI = os.path.join(CMAKE_DIR, "ppdb", "tools", "ppdb_cli")
HARNESS = os.path.join(CMAKE_DIR, "e2e_harness")

WORKLOADS = ("lookup", "consent", "census")
# Server starts timed per run for setup_s: before the load, the one that
# serves it, and after the drain (which also check durability).
SETUP_RESTARTS_BEFORE = 3
SETUP_RESTARTS_AFTER = 2
# Compile jobs: the host has 4 vCPUs shared with other work.
BUILD_JOBS = "3"
SERVER_START_TIMEOUT_S = 30
DRAIN_TIMEOUT_S = 30
# A run must end within 180 s; the harness's own timeouts are shorter.
HARNESS_TIMEOUT_S = 150
# Generated databases kept in .bench_build/ (the most recently used seeds).
KEEP_SEEDS = 3


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def env():
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def check_call(argv):
    result = subprocess.run(argv, stdout=sys.stderr, stderr=sys.stderr,
                            env=env())
    if result.returncode != 0:
        raise BenchError("command failed (%d): %s" %
                         (result.returncode, " ".join(argv)))


def build():
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        check_call(["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR])
    check_call(["cmake", "--build", CMAKE_DIR, "--target", "ppdb_cli",
                "e2e_harness", "-j", BUILD_JOBS])


def harness(*args):
    """Runs an e2e_harness command and returns its JSON result line."""
    try:
        result = subprocess.run([HARNESS] + [str(a) for a in args],
                                stdout=subprocess.PIPE, stderr=sys.stderr,
                                env=env(), text=True,
                                timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("e2e_harness %s timed out" % args[0])
    if result.returncode != 0:
        raise BenchError("e2e_harness %s failed (%d)" %
                         (args[0], result.returncode))
    return json.loads(result.stdout.strip().splitlines()[-1])


def inputs(seed):
    """The pristine generated database for `seed`, written once."""
    data = os.path.join(WORK, "data", "seed-%d" % seed)
    os.makedirs(os.path.dirname(data), exist_ok=True)
    if not os.path.exists(os.path.join(data, "CURRENT")):
        partial = data + ".partial"
        shutil.rmtree(partial, ignore_errors=True)
        check_call([HARNESS, "gen", "--seed", str(seed), "--out", partial])
        os.rename(partial, data)
    return data


class Server:
    """One `ppdb_cli serve --listen` process on an ephemeral port."""

    def __init__(self, db_dir, log_path):
        self.log = open(log_path, "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [CLI, "serve", db_dir, "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=self.log, env=env())
        line = self._read_listening_line()
        self.setup_s = time.perf_counter() - started
        self.port = int(line.split()[2].rsplit(":", 1)[1])

    def _read_listening_line(self):
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    SERVER_START_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("listening on"):
            self.kill()
            raise BenchError("server did not start: %r" % line)
        return line

    def peak_rss_mib(self):
        with open("/proc/%d/status" % self.proc.pid) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server")

    def request(self, line):
        with socket.create_connection(("127.0.0.1", self.port)) as conn:
            conn.sendall((line + "\n").encode())
            reply = b""
            while not reply.endswith(b"\n"):
                chunk = conn.recv(65536)
                if not chunk:
                    break
                reply += chunk
        words = reply.decode().rstrip("\n").split(" ", 2)
        if len(words) < 2 or words[1] != "ok":
            raise BenchError("%r failed: %r" % (line, reply))
        return words[2] if len(words) > 2 else ""

    def drain(self):
        """Graceful drain; returns the exit code (5: final checkpoint
        failed)."""
        self.request("drain")
        try:
            return self.proc.wait(timeout=DRAIN_TIMEOUT_S)
        finally:
            self.kill()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def stats_model(payload):
    return payload.split(" view_cells=")[0]


def run_untraced(workload, seed, seconds, run_dir):
    """One measured run against the real server; returns the result."""
    db = os.path.join(run_dir, "db")
    shutil.copytree(inputs(seed), db)
    server_log = os.path.join(run_dir, "server.log")
    # Restart time, timed on several starts spread over the run so one
    # burst of host contention cannot set it. An idle server loses nothing
    # when killed; the last start before the load serves it.
    setups = []
    for _ in range(SETUP_RESTARTS_BEFORE):
        probe = Server(db, server_log)
        setups.append(probe.setup_s)
        probe.kill()
    server = Server(db, server_log)
    setups.append(server.setup_s)
    try:
        drive = harness("drive", "--workload", workload, "--seed", seed,
                        "--seconds", seconds, "--port", server.port,
                        "--db", inputs(seed), "--server-pid",
                        server.proc.pid)
        rss_mib = server.peak_rss_mib()
        exit_code = server.drain()
    finally:
        server.kill()
    correct = drive["correct"]
    if exit_code != 0:
        log("drain exited %d (5: the final checkpoint failed)" % exit_code)
        correct = False
    # Durability round trip: a restart on the drained directory serves
    # exactly the state acknowledged before the drain.
    for i in range(SETUP_RESTARTS_AFTER):
        restarted = Server(db, server_log)
        setups.append(restarted.setup_s)
        try:
            after = stats_model(restarted.request("stats"))
        finally:
            restarted.kill()
        if after != drive["stats_model"]:
            log("durability mismatch: before drain %r, after restart %r" %
                (drive["stats_model"], after))
            correct = False
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "rss_mb": (rss_mib, "MiB"),
        "server_cpu_us_per_op": (drive["server_cpu_us_per_op"], "us"),
        "read_p50_us": (drive["read_p50_us"], "us"),
    }
    # Figures the host's share of the CPU sets more than the program does
    # (see NOISE.md): logged for the reader, not reported as metrics.
    log("%s seed=%d: %s; attempted=%d succeeded=%d failed=%d setups=%s "
        "ops=%d ops_per_s=%.1f server_cpu_s=%.2f read_p99_us=%.1f "
        "late_sends=%d lag_p99_us=%.1f read_samples=%d events=%d" %
        (workload, seed, drive["stats_model"], drive["attempted"],
         drive["attempted"] - drive["failed"], drive["failed"],
         ["%.3f" % s for s in setups], drive["ops"], drive["ops_per_s"],
         drive["server_cpu_s"], drive["read_p99_us"], drive["late_sends"],
         drive["lag_p99_us"], drive["read_samples"], drive["acked_events"]))
    return correct, drive["attempted"], drive["failed"], metrics


def run_traced(workload, seed, seconds, run_dir):
    traces = os.path.join(WORK, "traces")
    os.makedirs(traces, exist_ok=True)
    traced = harness("trace", "--workload", workload, "--seed", seed,
                     "--seconds", seconds, "--db", inputs(seed),
                     "--work", run_dir, "--spans",
                     os.path.join(traces, "%s.jsonl" % workload))
    metrics = {name: (metric["value"], metric["unit"])
               for name, metric in traced["metrics"].items()}
    return (traced["correct"], traced["attempted"], traced["failed"],
            metrics)


def prune_inputs(keep_seed):
    """Keeps the generated databases of the few most recently used seeds;
    each is 46 MB and a caller may use a new seed on every run."""
    root = os.path.join(WORK, "data")
    keep = os.path.join(root, "seed-%d" % keep_seed)
    if os.path.isdir(keep):
        os.utime(keep)
    seeds = sorted((os.path.join(root, name) for name in os.listdir(root)),
                   key=os.path.getmtime, reverse=True)
    for stale in seeds[KEEP_SEEDS:]:
        shutil.rmtree(stale, ignore_errors=True)


def run_once(workload, seed, seconds, trace):
    run_dir = os.path.join(WORK, "run", str(os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        if trace:
            return run_traced(workload, seed, seconds, run_dir)
        return run_untraced(workload, seed, seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        prune_inputs(seed)


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def smoke(seed):
    """Counting-wrapper self-test plus every oracle, on a short run of each
    workload, traced and untraced."""
    run_dir = os.path.join(WORK, "run", "selftest-%d" % os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        selftest = harness("selftest", "--db", inputs(seed), "--work",
                           run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    ok = selftest["correct"]
    log("selftest: %s" % json.dumps(selftest))
    for workload in WORKLOADS:
        for trace in (0, 1):
            correct, attempted, failed, metrics = run_once(workload, seed, 1,
                                                           trace)
            log("smoke %s trace=%d: correct=%s attempted=%d failed=%d "
                "error_ratio=%g" % (workload, trace, correct, attempted,
                                    failed, failed / max(attempted, 1)))
            if not trace:
                log("  " + result_line(correct, attempted, failed, metrics))
            ok = ok and correct and failed == 0
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    try:
        build()
        if args.smoke:
            ok = smoke(args.seed)
            print(json.dumps({"smoke": "pass" if ok else "fail"}))
            return 0 if ok else 1
        correct, attempted, failed, metrics = run_once(
            args.workload, args.seed, args.seconds, args.trace)
    except BenchError as error:
        log("run.py: %s" % error)
        return 1
    print(result_line(correct, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
