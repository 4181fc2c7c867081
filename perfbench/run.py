#!/usr/bin/env python3
"""Repository benchmark: modelled memcached latency/throughput plus the
simulator's host cost, over four layer-targeted closed-loop workloads.

    python3 perfbench/run.py [--workload <name>|all] [--seed <n>] [--seconds <s>] [--trace <0|1>]

Run from the root of a repository checkout. The script builds
perfbench/driver.cpp together with the simulator sources (Release, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs the
driver for --seconds of host time, checks every value the system returned,
and prints a human-readable report followed by one JSON line:

    {"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value", "unit"}}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
With no arguments it runs all four workloads (seed 1, 10 s each, untraced).
Any wrong value, non-repeating sim-time result, idle layer that should be
loaded (or loaded layer that should be idle) or unreconciled op count makes
the run incorrect: the JSON then carries no metrics and the exit code is 1.
See perfbench/README.md for the metric dictionary and workload rationale.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fleet_rpc_zipf", "sockets_ipoib_mixed", "bypass_rfp_mixed", "onesided_evict")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"


def build():
    """Configure and build the driver (incrementally); returns its path or None."""
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return None
    out = build_dir()
    cache = out / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in cache.read_text():
        shutil.rmtree(out)  # configured for another source tree
    gen = ["-G", "Ninja"] if shutil.which("ninja") and not cache.exists() else []
    for cmd in (["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release", *gen],
                ["cmake", "--build", str(out), "-j", "3"]):
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed:", " ".join(cmd))
            return None
    return out / "perfbench_driver"


# ------------------------------------------------------------ helpers


def ratio(num, den):
    return num / den if den else 0.0


def median(values):
    return statistics.median(values) if values else 0.0


def counters(rep, prefix=""):
    return {k: v for k, v in rep["registry"]["counters"].items() if k.startswith(prefix)}


def counter(rep, name):
    return rep["registry"]["counters"].get(name, 0)


def timer(rep, name):
    return rep["registry"]["timers"].get(name, {"count": 0, "mean_ns": 0, "p50_ns": 0, "p99_ns": 0})


def completed(rep):
    return rep["sim"]["attempted"] - rep["sim"]["failed"]


def ring_served(rep):
    return counter(rep, "mc.rfp.ops") - counter(rep, "mc.rfp.fallbacks")


def read_served(rep, mode):
    """GETs answered by an RDMA Read without falling back to RPC."""
    if mode != "onesided_get":
        return 0
    return rep["sim"]["get_calls"] - counter(rep, "mc.oneside.fallbacks")


def profile_totals(prof, scope):
    """Self wall ns and calls of `scope`, summed over every stack it appears in."""
    wall = calls = 0
    for node in prof["nodes"]:
        if node["name"] == scope:
            wall += node["wall_self_ns"]
            calls += node["count"]
    return wall, calls


# ------------------------------------------------------------ checks


def layer_coverage(workload, rep):
    """Each workload loads its intended layers and idles the others, so a
    silent fallback cannot turn it into a copy of another workload."""
    c = rep["registry"]["counters"]
    fails = []
    if workload == "sockets_ipoib_mixed":
        if sum(counters(rep, "verbs.post.").values()) != 0:
            fails.append("verbs.post.* must be 0 on the sockets workload")
        if c.get("sock.segments.sent", 0) == 0 or c.get("sock.segments.received", 0) == 0:
            fails.append("sock.segments.* must be above 0 on the sockets workload")
    elif workload == "fleet_rpc_zipf":
        for prefix in ("sock.", "mc.rfp.", "mc.oneside."):
            busy = {k: v for k, v in counters(rep, prefix).items() if v}
            if busy:
                fails.append(f"{prefix}* must be 0 on the RPC fleet: {busy}")
    elif workload == "bypass_rfp_mixed":
        if 2 * ring_served(rep) <= rep["sim"]["attempted"]:
            fails.append("mc.rfp rings must serve most ops on the RFP workload")
    elif workload == "onesided_evict":
        if c.get("mc.store.evictions", 0) == 0 or c.get("mc.oneside.reads", 0) == 0:
            fails.append("mc.store.evictions and mc.oneside.reads must be above 0")
    return fails


def reconcile(rep, mode):
    """Harness op counts against the library's own counters, exactly."""
    s = rep["sim"]
    fails = []
    for kind, name in (("get", "mc.client.gets"), ("set", "mc.client.sets")):
        if counter(rep, name) != s[f"{kind}_calls"]:
            fails.append(f"{name}={counter(rep, name)} but the harness issued {s[kind + '_calls']}")
    # Every op the bypass paths did not serve reached a server worker as
    # one request per (op, server) — mget fans out one per server touched.
    served = sum(counters(rep, "mc.requests.").values())
    expect = s["server_requests"] - ring_served(rep) - read_served(rep, mode)
    if served != expect:
        fails.append(f"mc.requests.* = {served} but the harness expects {expect} RPC-served requests")
    return fails


# ------------------------------------------------------------ metrics


def end_to_end(reps):
    r = reps[0]
    s = r["sim"]
    done = completed(r)
    m = {
        "get_p50_us": (s["get_p50_ns"] / 1e3, "us", s["get_n"]),
        "get_p99_us": (s["get_p99_ns"] / 1e3, "us", s["get_n"]),
        "set_p50_us": (s["set_p50_ns"] / 1e3, "us", s["set_n"]),
        "set_p99_us": (s["set_p99_ns"] / 1e3, "us", s["set_n"]),
        "sim_ops_per_s": (ratio(done, s["elapsed_ns"] / 1e9), "1/s", done),
        "hit_ratio": (ratio(s["hits"], s["lookups"]), "ratio", s["lookups"]),
        "completed_op_ratio": (ratio(done, s["attempted"]), "ratio", s["attempted"]),
        "sim_ops_per_host_s": (ratio(done, timed_host_s(reps[1:])), "1/s", len(reps) - 1),
        "setup_s": (setup_host_s(reps), "s", len(reps)),
        # The first repetition's peak: later ones reuse a heap shaped by
        # earlier beds, so the process-wide peak drifts with the rep count.
        "peak_rss_mb": (r["host"]["peak_rss_kb"] / 1024.0, "MB", 1),
    }
    return m


SETUP_PHASES = ("bed_build_s", "connect_s", "populate_s")


def setup_host_s(reps):
    """Set-up host seconds: median over repetitions."""
    return median([sum(x["host"][phase] for phase in SETUP_PHASES) for x in reps])


def timed_host_s(reps):
    """Host seconds of the timed phase: median over repetitions. Callers
    pass warm repetitions: repetition 0 also warms the heap and pools."""
    return median([x["host"]["timed_s"] for x in reps])


def per_layer(plain, traced, mode):
    r = plain[0]
    s = r["sim"]
    ops = s["attempted"]
    c = r["registry"]["counters"]
    g = r["registry"]["gauges"]
    get_calls, set_calls = s["get_calls"], s["set_calls"]
    pool_hits = sum(v for k, v in c.items() if k.startswith("sim.pool.") and k.endswith(".hits"))
    pool_misses = sum(v for k, v in c.items() if k.startswith("sim.pool.") and k.endswith(".misses"))
    events = c.get("sim.sched.events", 0)
    timed_plain = timed_host_s(plain[1:])
    timed_traced = timed_host_s(traced)
    stage = {k: timer(r, f"mc.server.stage.{k}") for k in ("parse", "queue", "execute", "format")}
    fallbacks_1s = c.get("mc.oneside.fallbacks", 0) if mode == "onesided_get" else 0

    def prof_ns_per_call(*scopes, per=None):
        """Median over traced repetitions of self wall ns per call (or per `per`)."""
        vals = []
        for x in traced:
            wall = calls = 0
            for scope in scopes:
                w, n = profile_totals(x["profiler"], scope)
                wall, calls = wall + w, calls + n
            vals.append(ratio(wall, per if per is not None else calls))
        return median(vals)

    m = {
        # core: set-up phases (host time, median over untraced repetitions)
        **{f"core.{phase}": (median([x["host"][phase] for x in plain]), "s") for phase in SETUP_PHASES},
        # simnet: discrete-event engine
        "simnet.events_per_op": (ratio(events, ops), "count/op"),
        "simnet.host_ns_per_event": (ratio(timed_plain * 1e9, events), "ns"),
        "simnet.dispatch_self_ns": (prof_ns_per_call("prof.sim.sched.dispatch"), "ns"),
        "simnet.pool_self_ns_per_op": (prof_ns_per_call("prof.sim.pool.alloc", "prof.sim.pool.free", per=ops), "ns/op"),
        "simnet.pool_hit_ratio": (ratio(pool_hits, pool_hits + pool_misses), "ratio"),
        "simnet.queue_depth_hwm": (g.get("sim.sched.queue_depth", {}).get("hwm", 0), "count"),
        "simnet.packets_per_op": (ratio(c.get("sim.fabric.packets", 0), ops), "count/op"),
        "simnet.wire_bytes_per_op": (ratio(c.get("sim.fabric.bytes", 0), ops), "B/op"),
        # verbs
        "verbs.wrs_per_op": (ratio(sum(counters(r, "verbs.post.").values()), ops), "count/op"),
        "verbs.doorbell_batched_wrs_per_op": (ratio(c.get("verbs.doorbell.batched_wrs", 0), ops), "count/op"),
        "verbs.completions_per_poll": (ratio(c.get("verbs.cq.completions", 0), c.get("verbs.cq.polls", 0)), "count"),
        "verbs.hca_self_ns_per_packet": (prof_ns_per_call("prof.verbs.hca.handle"), "ns"),
        "verbs.rc_retransmits": (c.get("verbs.rc.retransmits", 0), "count"),
        # ucr
        "ucr.msgs_per_op": (ratio(c.get("ucr.msgs.received", 0), ops), "count/op"),
        "ucr.cq_drain_batch_mean": (timer(r, "ucr.cq.drain_batch")["mean_ns"], "count"),
        "ucr.am_dispatch_self_ns": (prof_ns_per_call("prof.ucr.am.dispatch"), "ns"),
        "ucr.backlog_stalls": (c.get("ucr.backlog.stalls", 0), "count"),
        # sockets
        "sockets.segments_per_op": (ratio(c.get("sock.segments.sent", 0), ops), "count/op"),
        "sockets.bytes_per_op": (ratio(c.get("sock.bytes.sent", 0), ops), "B/op"),
        "sockets.rx_deliver_self_ns": (prof_ns_per_call("prof.sock.rx.deliver"), "ns"),
        "sockets.tx_stream_self_ns": (prof_ns_per_call("prof.sock.tx.stream"), "ns"),
        # memcached server / client / store. Stage timers cover only the
        # RPC-served share; stage_timed_share says how much that is.
        "memcached.server.parse_us": (stage["parse"]["p50_ns"] / 1e3, "us"),
        "memcached.server.queue_us": (stage["queue"]["p99_ns"] / 1e3, "us"),
        "memcached.server.execute_us": (stage["execute"]["p50_ns"] / 1e3, "us"),
        "memcached.server.format_us": (stage["format"]["p50_ns"] / 1e3, "us"),
        "memcached.server.stage_timed_share": (ratio(stage["execute"]["count"], s["server_requests"]), "ratio"),
        "memcached.server.execute_self_ns": (prof_ns_per_call("prof.mc.server.execute"), "ns"),
        "memcached.server.parse_self_ns": (prof_ns_per_call("prof.mc.server.parse"), "ns"),
        "memcached.server.requests_per_op": (ratio(sum(counters(r, "mc.requests.").values()), ops), "count/op"),
        "memcached.client.build_self_ns": (prof_ns_per_call("prof.mc.client.build"), "ns"),
        "memcached.client.mget_p50_us": (s["mget_p50_ns"] / 1e3, "us"),
        "memcached.client.incr_p50_us": (s["incr_p50_ns"] / 1e3, "us"),
        "memcached.client.del_p50_us": (s["del_p50_ns"] / 1e3, "us"),
        "memcached.store.evictions_per_set": (ratio(c.get("mc.store.evictions", 0), set_calls), "count/op"),
        # onesided
        "onesided.read_served_ratio": (ratio(read_served(r, mode), get_calls), "ratio"),
        "onesided.fallback_ratio": (ratio(fallbacks_1s, get_calls), "ratio"),
        "onesided.torn_retries": (c.get("mc.oneside.torn_retries", 0), "count"),
        "onesided.publish_retract_per_set": (
            ratio(c.get("mc.oneside.publishes", 0) + c.get("mc.oneside.retracts", 0), set_calls), "count/op"),
        # rfp
        "rfp.ring_served_ratio": (ratio(ring_served(r), ops), "ratio"),
        "rfp.oversize_share": (ratio(c.get("mc.rfp.oversize", 0), c.get("mc.rfp.ops", 0)), "ratio"),
        "rfp.parks": (c.get("mc.rfp.poll.parks", 0), "count"),
        "rfp.wakes": (c.get("mc.rfp.wakes", 0), "count"),
        "rfp.frames_per_sweep": (ratio(c.get("mc.rfp.poll.frames", 0), c.get("mc.rfp.poll.sweeps", 0)), "ratio"),
        "rfp.poll_self_ns": (prof_ns_per_call("prof.mc.rfp.poll"), "ns"),
        # obs: can the traced run be trusted?
        "obs.trace_overhead": (ratio(timed_traced, timed_plain), "x"),
        "obs.profiler_attributed_share": (
            median([ratio(x["profiler"]["attributed"]["wall_ns"], x["profiler"]["window"]["wall_ns"]) for x in traced]),
            "ratio"),
    }
    return m


# ------------------------------------------------------------ main


def run_workload(driver, workload, seed, seconds, trace):
    """Run one workload; print its report and result line. True if correct."""
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(build_dir() / f"spans_{workload}_{seed}.csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=seconds + 150)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out")
        return None
    if proc.returncode != 0:
        log(f"perfbench: driver exited with {proc.returncode}")
        return None
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    reps = [x for x in lines if "rep" in x]
    summary = next(x["summary"] for x in lines if "summary" in x)
    mode = summary["mode"]
    plain = [x for x in reps if not x["traced"]]
    traced = [x for x in reps if x["traced"]]

    # ---- correctness ----
    problems = []
    for rep in reps:
        s = rep["sim"]
        where = f"rep {rep['rep']}: "
        if not s["connect_ok"] or s["populate_errors"]:
            problems.append(where + "set-up failed")
        if s["wrong_values"]:
            problems.append(where + f"{s['wrong_values']} wrong values")
        if s != reps[0]["sim"]:
            problems.append(where + "sim-time results differ from rep 0 with the same seed")
        problems += [where + p for p in layer_coverage(workload, rep)]
        problems += [where + p for p in reconcile(rep, mode)]

    # ---- report ----
    print(f"perfbench {workload}: seed {seed}, loop {summary['loop']}, "
          f"{summary['clients']} simulated clients x {summary['shards']} servers = "
          f"{summary['connections']} connections, mode {mode}, transport {summary['transport']}, "
          f"{summary['ops_per_client']} ops/client/rep, {len(plain)} untraced + {len(traced)} traced reps")
    metrics = {}
    if trace:
        for name, (value, unit) in per_layer(plain, traced, mode).items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:38s} {value:>16.6g} {unit}")
    else:
        for name, (value, unit, samples) in end_to_end(plain).items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:20s} {value:>16.6g} {unit:6s} (n={samples})")
    for p in problems:
        print(f"  INCORRECT: {p}")
    correct = not problems
    print(json.dumps({"correct": correct,
                      "attempted": sum(x["sim"]["attempted"] for x in reps),
                      "failed": sum(x["sim"]["failed"] for x in reps),
                      "metrics": metrics if correct else {}}), flush=True)
    return correct


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    ap.add_argument("--seed", default=1, type=int)
    ap.add_argument("--seconds", default=10.0, type=float)
    ap.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = ap.parse_args()

    driver = build()
    if driver is None:
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(driver, w, args.seed, args.seconds, args.trace) for w in workloads]
    if None in results:
        return 2
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
