#!/usr/bin/env python3
"""Run one benchmark workload against PACTree and print its metrics.

    python3 perfbench/run.py --workload ycsb-a --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Builds perfbench/perfbench.exe with
dune, then runs it in fresh processes: simulated results depend on
process history (README.md, "Known defects"), so every measured run is
its own process.

--trace 0 reports the end-to-end metrics (untraced runs only);
--trace 1 reports the per-layer metrics from an untraced run plus a
traced one, and writes the traced run's spans under .perfbench/.
Human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 1 when any output or durability check failed, and 2
when the benchmark could not run at all (nothing is printed on stdout
then).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("ycsb-a", "ycsb-c-str", "svc-a-open")

# Fresh processes per YCSB run.  Their simulated metrics must agree bit
# for bit; host metrics are their median.  The first process also runs
# the index invariant walk (Tree.check_invariants, ~12 s host at 200k
# keys) after its peak RSS is read, so its host metrics still count.
REPEATS = 3

# Host CPU per measured op, to size a run so that its measured phases
# together take about --seconds.
HOST_US_PER_OP = {"ycsb-a": 20.0, "ycsb-c-str": 11.0, "svc-a-open": 17.0}

# svc-a-open: fixed ladder of offered rates (Mops/s), the reference
# rate, and the SLO a rate must meet.
SVC_LADDER = (0.5, 0.7, 0.9, 1.0, 1.1, 1.2, 1.3, 1.45, 1.6)
SVC_REFERENCE = 0.9
SLO_P99_US = 100.0
SLO_MIN_ACHIEVED = 0.95

# Whole run, set-up included; the build is not counted.
DEADLINE_S = 170.0

END_TO_END = {
    "sim_mops": "Mops/s",
    "lookup_p50_us": "us",
    "lookup_p99_us": "us",
    "insert_p99_us": "us",
    "op_p99_us": "us",
    "write_amp": "ratio",
    "setup_s": "s",
    "host_bytes_per_key": "B",
}

PER_LAYER = {
    "workload.gen_ns_per_op": "ns",
    "des.host_us_per_op": "us",
    "pactree.lookup_host_us": "us",
    "pactree.insert_host_us": "us",
    "pactree.trie_search_pct": "%",
    "pactree.dnode_scan_pct": "%",
    "pactree.dnode_insert_pct": "%",
    "pactree.smo_pct": "%",
    "pactree.unattributed_pct": "%",
    "pactree.log_replay_ms": "ms",
    "pactree.splits_per_kop": "count",
    "pactree.reader_retries_per_kop": "count",
    "pactree.art_restarts_per_kop": "count",
    "pactree.jump_hops_mean": "hops",
    "pactree.smo_backlog_at_crash": "entries",
    "pactree.recover_replayed": "entries",
    "pactree.recover_ms": "ms",
    "pmalloc.allocs_per_kop": "count",
    "pmalloc.alloc_bytes_per_op": "B",
    "pmalloc.alloc_pct": "%",
    "nvm.flushes_per_op": "count",
    "nvm.fences_per_op": "count",
    "nvm.flushes_elided_per_op": "count",
    "nvm.flush_wait_pct": "%",
    "nvm.media_read_bytes_per_op": "B",
    "nvm.read_amp": "ratio",
    "nvm.media_write_bytes_per_op": "B",
    "nvm.rmw_read_bytes_per_op": "B",
    "nvm.xpbuffer_hit_pct": "%",
    "nvm.cpu_cache_hit_pct": "%",
    "nvm.remote_access_pct": "%",
    "nvm.pool_reserved_mb": "MB",
    "svc.queue_p99_us": "us",
    "svc.service_p99_us": "us",
    "svc.writes_per_batch": "ratio",
    "svc.fences_per_op": "count",
    "svc.imbalance": "ratio",
    "svc.batch_pct": "%",
    "svc.peak_mops": "Mops/s",
    "svc.slo_ladder_mops": "Mops/s",
    **{"svc.reject_pct.r%.2f" % r: "%" for r in SVC_LADDER},
    "obs.tracing_overhead_pct": "%",
    "host_us_per_op": "us",
    "host.alloc_words_per_op": "words",
    "host.major_gcs": "count",
}


class Unrunnable(Exception):
    """The benchmark cannot run here; no result is printed."""


def say(line):
    print(line, flush=True)


def build(root):
    if not (os.path.isfile(os.path.join(root, "dune-project")) and os.path.isdir(os.path.join(root, "lib"))):
        raise Unrunnable("not the root of a checkout (no dune-project or lib/)")
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    cmd += ["build", "--root", root, "./perfbench/perfbench.exe"]
    try:
        p = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise Unrunnable("build failed: %s" % e)
    if p.returncode != 0:
        sys.stderr.write(p.stdout.decode(errors="replace"))
        raise Unrunnable("build failed (exit %d)" % p.returncode)
    return os.path.join(root, "_build", "default", "perfbench", "perfbench.exe")


class Runner:
    def __init__(self, exe, workload, seed, deadline):
        self.exe, self.workload, self.seed, self.deadline = exe, workload, seed, deadline

    def proc(self, ops, rate=None, invariants=False, trace=None):
        """One fresh process; returns its parsed report."""
        cmd = [self.exe, self.workload, "--seed", str(self.seed), "--ops", str(ops)]
        if rate is not None:
            cmd += ["--rate", repr(rate)]
        if invariants:
            cmd.append("--check-invariants")
        if trace:
            cmd += ["--trace", trace]
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise Unrunnable("out of time before %s" % " ".join(cmd[1:]))
        try:
            p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=left)
        except subprocess.TimeoutExpired:
            raise Unrunnable("timed out: %s" % " ".join(cmd[1:]))
        lines = [l for l in p.stdout.decode().splitlines() if l.startswith("{")]
        if not lines:
            sys.stderr.write(p.stderr.decode(errors="replace"))
            raise Unrunnable("no report from %s (exit %d)" % (" ".join(cmd[1:]), p.returncode))
        return json.loads(lines[-1])


def check_same_sim(reports, what, errors):
    """Same seed, fresh processes: simulated metrics must be bit-identical."""
    first = reports[0]["sim"]
    for r in reports[1:]:
        diff = sorted(k for k in first if r["sim"].get(k) != first[k])
        if diff:
            errors.append("%s: simulated metrics differ between same-seed processes: %s" % (what, ", ".join(diff[:6])))


def slo_capacity(points):
    """Highest offered rate meeting the SLO (total p99 within the limit,
    no rejections, achieved >= 95% of offered), searched below the
    first ladder rate that misses it.  When that rate's p99 is over the
    limit, the rate where p99 crosses the limit is interpolated
    linearly between it and the passing rate below; otherwise the
    passing rate is returned.  Returns (capacity, highest passing
    ladder rate); (0, 0) when even the lowest rate misses the SLO."""
    prev = None
    for rate, s in points:
        if s["total_p99_us"] <= SLO_P99_US and s["rejected"] == 0 and s["achieved_mops"] >= SLO_MIN_ACHIEVED * rate:
            prev = (rate, s)
            continue
        if prev is None:
            return 0.0, 0.0
        r0, s0 = prev
        if s["total_p99_us"] > SLO_P99_US:
            frac = (SLO_P99_US - s0["total_p99_us"]) / (s["total_p99_us"] - s0["total_p99_us"])
            return r0 + frac * (rate - r0), r0
        return r0, r0
    return points[-1][0], points[-1][0]


def host_medians(reports):
    return {k: statistics.median([r["host"][k] for r in reports]) for k in ("setup_s", "host_us_per_op", "host_bytes_per_key")}


def print_host(medians):
    # host_us_per_op is a per-layer metric (README.md, "Host noise"); a
    # --trace 0 run prints its median here for reference only.
    say("  host_us_per_op   %.4f us host CPU (median of the processes)" % medians["host_us_per_op"])


def print_latency(s, name, label):
    say(
        "  %-16s p50 %.4f us, p99 %.4f us, p%g %.4f us (n=%d) %s"
        % (name, s[name + "_p50_us"], s[name + "_p99_us"], s[name + "_top_pct"], s[name + "_top_us"], s[name + "_n"], label)
    )


def ops_per_process(workload, seconds, processes):
    return max(1000, int(round(seconds * 1e6 / HOST_US_PER_OP[workload] / processes, -3)))


def trace_path(r):
    os.makedirs(".perfbench", exist_ok=True)
    return os.path.join(".perfbench", "trace-%s-seed%d.tsv" % (r.workload, r.seed))


def layer_metrics(traced, untraced):
    """Per-layer metrics of a traced report, host ones from the untraced
    report of the same seed; 0 where one does not apply."""
    m = {k: 0.0 for k in PER_LAYER}
    for part, report in (("host", untraced), ("sim", traced), ("layer", traced)):
        m.update({k: v for k, v in report[part].items() if k in PER_LAYER})
    m["pactree.recover_ms"] = traced["sim"]["recover_ms"]
    m["obs.tracing_overhead_pct"] = 100.0 * (traced["host"]["host_us_per_op"] / untraced["host"]["host_us_per_op"] - 1.0)
    return m


def run_ycsb(r, seconds, trace):
    ops = ops_per_process(r.workload, seconds, REPEATS)
    say("%s seed %d: 200000 keys, %d ops x %d fresh processes, 28 closed-loop clients" % (r.workload, r.seed, ops, REPEATS))
    errors = []
    if not trace:
        reports = [r.proc(ops, invariants=i == 0) for i in range(REPEATS)]
        check_same_sim(reports, r.workload, errors)
        s = reports[0]["sim"]
        metrics = dict(
            sim_mops=s["sim_mops"],
            lookup_p50_us=s["lookup_p50_us"],
            lookup_p99_us=s["lookup_p99_us"],
            insert_p99_us=s["insert_p99_us"],
            op_p99_us=s["op_p99_us"],
            write_amp=s["write_amp"],
        )
        host = host_medians(reports)
        metrics.update(setup_s=host["setup_s"], host_bytes_per_key=host["host_bytes_per_key"])
        print_host(host)
        print_latency(s, "lookup", "(measured lookups)")
        print_latency(s, "insert", "(measured inserts)" if s["inserted"] > 0 else "(Load-A inserts: the phase has none)")
        print_latency(s, "op", "(every measured op)")
        say("  recover_ms       %.6f ms sim (SMO backlog at crash %d)" % (s["recover_ms"], s["pactree.smo_backlog_at_crash"]))
    else:
        trace_file = trace_path(r)
        reports = [r.proc(ops, invariants=True), r.proc(ops, trace=trace_file)]
        check_same_sim(reports, r.workload + " traced vs untraced", errors)
        metrics = layer_metrics(reports[1], reports[0])
        say("  spans: %s" % trace_file)
    return reports, metrics, errors, 0


def run_svc(r, seconds, trace):
    ops = ops_per_process(r.workload, seconds, len(SVC_LADDER) + 1)
    say(
        "svc-a-open seed %d: 40000 keys, 4 shards x 2 workers, %d requests per rate, ladder %s Mops/s"
        % (r.seed, ops, " ".join("%g" % x for x in SVC_LADDER))
    )
    errors = []
    ladder = [(rate, r.proc(ops, rate=rate, invariants=rate == SVC_REFERENCE)) for rate in SVC_LADDER]
    ref = dict(ladder)[SVC_REFERENCE]
    for rate, p in ladder:
        s = p["sim"]
        say(
            "  offered %.2f: achieved %.4f Mops/s, total p99 %.3f us (n=%d), rejected %d"
            % (rate, s["achieved_mops"], s["total_p99_us"], s["total_n"], s["rejected"])
        )
    capacity, ladder_rate = slo_capacity([(rate, p["sim"]) for rate, p in ladder])
    if trace:
        trace_file = trace_path(r)
        extra = r.proc(ops, rate=SVC_REFERENCE, trace=trace_file)
        check_same_sim([ref, extra], "svc-a-open traced vs untraced at the reference rate", errors)
    else:
        extra = r.proc(ops, rate=SVC_REFERENCE)
        check_same_sim([ref, extra], "svc-a-open at the reference rate", errors)
    reports = [p for _, p in ladder] + [extra]
    s = ref["sim"]
    ref_rejected = int(s["rejected"])
    if not trace:
        metrics = dict(
            sim_mops=capacity,
            lookup_p50_us=s["lookup_p50_us"],
            lookup_p99_us=s["lookup_p99_us"],
            insert_p99_us=s["insert_p99_us"],
            op_p99_us=s["total_p99_us"],
            write_amp=s["write_amp"],
        )
        host = host_medians(reports)
        metrics.update(setup_s=host["setup_s"], host_bytes_per_key=host["host_bytes_per_key"])
        print_host(host)
        say("  svc_slo_mops     %.4f Mops/s (highest passing ladder rate %.2f)" % (capacity, ladder_rate))
        say("  svc_p99_us       %.4f us total at %.2f Mops/s (n=%d)" % (s["total_p99_us"], SVC_REFERENCE, s["total_n"]))
        print_latency(s, "lookup", "(index lookups inside the shard workers)")
        print_latency(s, "insert", "(index inserts inside group commit)")
        say("  recover_ms       %.6f ms sim (Store.recover)" % s["recover_ms"])
    else:
        metrics = layer_metrics(extra, ref)
        metrics["svc.peak_mops"] = max(p["sim"]["achieved_mops"] for _, p in ladder)
        metrics["svc.slo_ladder_mops"] = ladder_rate
        for rate, p in ladder:
            metrics["svc.reject_pct.r%.2f" % rate] = 100.0 * p["sim"]["rejected"] / p["attempted"]
        say("  spans: %s" % trace_file)
    return reports, metrics, errors, ref_rejected


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        raise Unrunnable("--seed must be >= 0 and --seconds > 0")
    root = os.getcwd()
    exe = build(root)
    r = Runner(exe, a.workload, a.seed, time.monotonic() + DEADLINE_S)
    run = run_svc if a.workload == "svc-a-open" else run_ycsb
    reports, metrics, errors, ref_rejected = run(r, a.seconds, a.trace == 1)
    attempted = sum(p["attempted"] for p in reports)
    failed = sum(p["failed"] for p in reports)
    for p in reports:
        errors.extend(p["errors"])
    units = PER_LAYER if a.trace else END_TO_END
    for k, unit in units.items():
        say("%-32s %.6g %s" % (k, metrics[k], unit))
    say("failed_pct %.4f %% (%d failed + %d rejected at the reference rate, of %d attempted)" % (
        100.0 * (failed + ref_rejected) / attempted, failed, ref_rejected, attempted))
    for e in errors:
        say("ERROR: %s" % e)
    correct = not errors and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed + ref_rejected,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Unrunnable as e:
        sys.stderr.write("perfbench: %s\n" % e)
        sys.exit(2)
