#!/usr/bin/env python3
"""Quick self-check of the benchmark itself, in well under a minute per workload.

    python3 perfbench/selfcheck.py [workload ...]

For each workload it runs jbench in quick mode (small inputs, same
code paths) and checks that:

  * untraced and traced runs pass every output check on the default seed
    and on the held-out seed, and print every declared metric with its unit;
  * a run with an injected fault (one expected output corrupted) reports
    correct = false, so the output checks are able to fail;
  * the traced run's exact counts repeat across two runs.

Exits 0 when every check holds, 1 otherwise.
"""
import sys

import run

# Per-layer metrics that are counts of deterministic work: equal across runs.
EXACT = ("core.decide.calls", "fleet.decisions", "fleet.clearings",
         "fleet.launches", "fleet.out_of_bid", "fleet.log_lines",
         "sim.events", "sim.peak_pending", "paxos.msgs_per_op",
         "paxos.value_bytes_per_op", "paxos.ops_per_batch",
         "paxos.elections", "paxos.catchup_slots", "ec.encodes_per_slot",
         "ec.encode_bytes_per_op", "latency.samples", "trace.spans")


def main(argv):
    workloads = argv or list(run.WORKLOADS)
    run.build()
    problems = []
    for w in workloads:
        traced = []
        for seed in ("default", "held-out"):
            for trace in (0, 1):
                result, _ = run.run_workload(w, seed, 1, trace, ["--quick"])
                for p in run.validate(result, trace):
                    problems.append("%s %s trace=%d: %s" % (w, seed, trace, p))
                if not result["correct"]:
                    problems.append("%s %s trace=%d: output check failed" % (w, seed, trace))
                if result["failed"] != 0:
                    problems.append("%s %s trace=%d: %d ops failed" % (w, seed, trace, result["failed"]))
                if trace and seed == "default":
                    traced.append(result["metrics"])
        again, _ = run.run_workload(w, "default", 1, 1, ["--quick"])
        for name in EXACT:
            a, b = traced[0][name]["value"], again["metrics"][name]["value"]
            if a != b:
                problems.append("%s: %s is %r then %r" % (w, name, a, b))
        bad, _ = run.run_workload(w, "default", 1, 0, ["--quick", "--inject-fault"])
        if bad["correct"]:
            problems.append("%s: an injected fault was not detected" % w)
        print("%-12s %s" % (w, "ok" if not problems else "problems so far: %d" % len(problems)))
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
