#!/usr/bin/env python3
"""Jupiter benchmark: builds jbench from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload replay_11wk --seed 20150615 \
        --seconds 25 --trace 0

Workloads: replay_11wk, fleet_1000, kv_rs_paxos, lock_paxos (see
perfbench/README.md).  --trace 0 prints the end-to-end metrics, --trace 1
the per-layer ones.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the first line
describes the host and the build.

The first run configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench; later runs only rebuild what changed.  Each run's
program log (stderr) goes to .bench_build/runs/<workload>-<seed>-<trace>.log
and a traced run's spans to .bench_build/runs/spans-<workload>-<seed>.csv.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS_DIR = os.path.join(ROOT, ".bench_build", "runs")
BINARY = os.path.join(BUILD_DIR, "jbench")
WORKLOADS = ("replay_11wk", "fleet_1000", "kv_rs_paxos", "lock_paxos")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds jbench; exits non-zero on failure."""
    os.makedirs(RUNS_DIR, exist_ok=True)
    log_path = os.path.join(RUNS_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as exc:
                fail("build step %s failed: %s" % (cmd[:2], exc))
            if proc.returncode != 0:
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                fail("build failed (%s):\n%s" % (" ".join(cmd[:3]), tail))
    if not os.path.exists(BINARY):
        fail("build produced no %s" % BINARY)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def run_workload(workload, seed, seconds, trace, extra=()):
    """Runs jbench once; returns (result dict, stdout lines before it)."""
    os.makedirs(RUNS_DIR, exist_ok=True)
    log = os.path.join(RUNS_DIR, "%s-%s-%d.log" % (workload, seed, trace))
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--log-file", log, "--out-dir", RUNS_DIR] + list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("jbench exited with %d:\n%s" % (proc.returncode, proc.stdout[-3000:]))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("jbench printed no result:\n%s" % proc.stdout[-3000:])
    return result, lines[:-1]


def validate(result, trace):
    """Every declared metric is present with its unit; nothing else is."""
    want = declared_metrics(trace)
    got = result.get("metrics", {})
    problems = []
    for name, unit in want.items():
        if name not in got:
            problems.append("missing metric " + name)
        elif got[name].get("unit") != unit:
            problems.append("metric %s has unit %s, declared %s"
                            % (name, got[name].get("unit"), unit))
    for name in got:
        if name not in want:
            problems.append("undeclared metric " + name)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", default="20150615")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    build()
    result, lines = run_workload(args.workload, args.seed, args.seconds,
                                 args.trace)
    problems = validate(result, args.trace)
    if problems:
        fail("; ".join(problems))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
