#!/usr/bin/env python3
"""Exact work-count gate: per-op engine, wire and layer work of every
perfbench workload, compared exactly against tools/workcounts.json.

    python3 tools/workcounts.py [--record] [--workload <name>]

Run from the root of a repository checkout. For each workload (seed 1) it
runs `python3 perfbench/run.py --workload <w> --trace 1 --seconds 1` and
reads the per-layer metrics off its JSON result line. The counts below are
functions of the modelled op sequence only (rep 0 of a fixed seed), never
of the host, so they must match the checked-in values bit for bit on any
machine; a change that adds scheduler events, packets, work requests,
messages or server requests per op fails here. `--record` rewrites the
checked-in file from this checkout instead of comparing.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "tools" / "workcounts.json"
WORKLOADS = ("fleet_rpc_zipf", "sockets_ipoib_mixed", "bypass_rfp_mixed", "onesided_evict")
SEED = 1
METRICS = (
    "simnet.events_per_op",
    "simnet.packets_per_op",
    "simnet.wire_bytes_per_op",
    "verbs.wrs_per_op",
    "ucr.msgs_per_op",
    "memcached.server.requests_per_op",
    "rfp.frames_per_sweep",
    "rfp.ring_served_ratio",
)


def measure(workload):
    """The gated metrics of one workload, or None if the run failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--trace", "1", "--seconds", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not lines:
        print(f"workcounts: {workload}: perfbench exited with {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"workcounts: {workload}: perfbench reports an incorrect run", file=sys.stderr)
        return None
    return {name: result["metrics"][name]["value"] for name in METRICS}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--record", action="store_true", help="rewrite tools/workcounts.json")
    ap.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    args = ap.parse_args()

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    failures = 0
    for w in workloads:
        got = measure(w)
        if got is None:
            failures += 1
            continue
        if args.record:
            baseline[w] = got
            continue
        want = baseline.get(w)
        if want is None:
            print(f"{w}: no recorded counts in {BASELINE.name}")
            failures += 1
            continue
        for name in METRICS:
            ok = got[name] == want.get(name)
            failures += not ok
            print(f"{w:20s} {name:34s} {got[name]:>16.6f} "
                  f"{'ok' if ok else f'MISMATCH (recorded {want.get(name)})'}")
    if args.record:
        BASELINE.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
        print(f"recorded {', '.join(workloads)} into {BASELINE.relative_to(ROOT)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
