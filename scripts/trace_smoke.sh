#!/usr/bin/env bash
# CI trace smoke: run exp1 briefly with the flight recorder enabled via
# PHOEBE_TRACE and validate the exported Chrome trace-event JSON: it must
# parse, carry at least one task span on every worker's scheduler track,
# include the global-queue-depth counter track, and hold the `commit`,
# `group_commit` and `flush_wave` spans the latency probes write (a probe
# that stops writing its ring half fails here).
set -euo pipefail
cd "$(dirname "$0")/.."

WORKERS="${PHOEBE_TRACE_SMOKE_WORKERS:-2}"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trace="$tmp/trace.json"

PHOEBE_TRACE="$trace" \
PHOEBE_EXP1_POINTS="$WORKERS" \
PHOEBE_DURATION_SECS="${PHOEBE_DURATION_SECS:-2}" \
  cargo run --release -q -p phoebe-bench --bin exp1_tpmc

test -s "$trace" || { echo "FAIL: $trace missing or empty"; exit 1; }

TRACE_PATH="$trace" WORKERS="$WORKERS" python3 -c '
import json, os, sys

with open(os.environ["TRACE_PATH"]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
workers = int(os.environ["WORKERS"])

# tid scheme: ring*4 + track, track 0 = the scheduler.
spans_per_worker = {w: 0 for w in range(workers)}
for ev in events:
    if ev.get("ph") == "X" and ev["tid"] % 4 == 0:
        w = ev["tid"] // 4
        if w in spans_per_worker:
            spans_per_worker[w] += 1
for w, n in spans_per_worker.items():
    if n < 1:
        sys.exit(f"FAIL: worker {w} scheduler track has no task spans")

depth = [e for e in events if e.get("ph") == "C" and e.get("name") == "global_queue_depth"]
if not depth:
    sys.exit("FAIL: no global_queue_depth counter track")

span_names = {e.get("name") for e in events if e.get("ph") == "X"}
missing = sorted({"commit", "group_commit", "flush_wave"} - span_names)
if missing:
    sys.exit(f"FAIL: no {missing} spans in the trace")

names = {e.get("name") for e in events}
interesting = sorted(names & {"poll", "commit", "group_commit", "flush_wave", "yield"})
print(f"trace-smoke: {len(events)} events, "
      f"sched spans per worker {spans_per_worker}, "
      f"{len(depth)} queue-depth samples, tracks include {interesting}")
print("trace-smoke: OK")
'
