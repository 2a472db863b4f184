#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selfcheck.py [--seed 1] [--held-out 2] [--workloads ycsb-a,...]

For every workload it checks that
  * two runs with the same seed give bit-identical simulated metrics
    (each run already compares its own fresh processes; this compares
    two runs of run.py);
  * a held-out second seed stays within each end-to-end metric's bound
    of the first seed (host metrics included, so this also samples
    host noise);
  * the traced run (--trace 1) passes, which asserts that its simulated
    metrics equal the untraced run's.
It then probes the known in-process drift (README.md, "Known
defects"): ycsb-a repeated twice in one process.  The drift is
reported, not failed on.  Exits 1 if any check fails.  Takes about
ten minutes.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
BOUNDS = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
HOST_METRICS = {"setup_s", "host_bytes_per_key"}


def run(workload, seed, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if p.returncode != 0:
        sys.stdout.write(p.stdout)
        raise SystemExit("selfcheck: %s seed %d (trace %d) failed with exit %d" % (workload, seed, trace, p.returncode))
    return {k: v["value"] for k, v in json.loads(p.stdout.strip().splitlines()[-1])["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--held-out", type=int, default=2)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    a = ap.parse_args()
    problems = []
    for w in a.workloads.split(","):
        first, again, other = run(w, a.seed), run(w, a.seed), run(w, a.held_out)
        for k in BOUNDS:
            if k not in HOST_METRICS and first[k] != again[k]:
                problems.append("%s: %s differs between same-seed runs (%r vs %r)" % (w, k, first[k], again[k]))
            change = abs(other[k] - first[k]) / first[k]
            status = "ok" if change <= BOUNDS[k] else "OUT OF BOUND"
            print("%-11s %-18s seed %d %.6g  seed %d %.6g  change %.3f (bound %.2f) %s"
                  % (w, k, a.seed, first[k], a.held_out, other[k], change, BOUNDS[k], status), flush=True)
            if change > BOUNDS[k]:
                problems.append("%s: %s moved %.3f between seeds %d and %d (bound %.2f)"
                                % (w, k, change, a.seed, a.held_out, BOUNDS[k]))
        run(w, a.seed, trace=1)
        print("%-11s traced run: simulated metrics equal the untraced run's" % w, flush=True)
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
    p = subprocess.run([exe, "ycsb-a", "--seed", str(a.seed), "--ops", "30000", "--repeat", "2"],
                       stdout=subprocess.PIPE, text=True)
    r1, r2 = [json.loads(l)["sim"] for l in p.stdout.splitlines() if l.startswith("{")]
    drift = sorted(k for k in r1 if r1[k] != r2[k])
    print("in-process repeat of ycsb-a: %s" % (
        "sim_mops %.6f -> %.6f; %d simulated metrics drift (known defect)" % (r1["sim_mops"], r2["sim_mops"], len(drift))
        if drift else "no drift"))
    for line in problems:
        print("FAIL: " + line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
