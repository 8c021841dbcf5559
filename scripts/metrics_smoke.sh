#!/usr/bin/env bash
# CI metrics smoke: boot exp1 under a short TPC-C burst with the live
# telemetry endpoint enabled (PHOEBE_TELEMETRY on an ephemeral port),
# scrape /metrics twice while the bench runs, and validate:
#   * Prometheus text-exposition validity (HELP/TYPE headers, sample
#     grammar) with every latency site and worker time-in-state present,
#   * counter monotonicity between the two scrapes,
#   * histogram consistency (cumulative buckets, +Inf == _count),
#   * one write→sync per group-commit round: the wal_flush histogram's
#     _count equals the wal_flushes counter (non-empty rounds), +-1 for a
#     round in flight between the two bumps,
#   * both GC gauges (phoebe_undo_backlog, phoebe_twin_tables) are
#     exported, and the second scrape's UNDO backlog is below
#     UNDO_BACKLOG_BOUND. Measured on this run shape (2 vCPU, ext4 on
#     virtio): 823, 1 460, 1 587, 1 906, 2 432 and 2 699 unreclaimed logs —
#     roughly the last gc_every_txns transactions per worker. With
#     external-slot arenas left uncollected, the backlog held the whole
#     TPC-C load: 13 650. The bound, 8 000, is about 3x the largest
#     measured value and well below 13 650,
#   * the durable-GSN gauge (phoebe_wal_durable_gsn) rises strictly
#     between the scrapes: every group-commit round ticks it, so a burst
#     that commits moves it,
#   * /stats returns the kernel JSON document: every /metrics family (the
#     GC gauges among them) and every latency site,
#   * /trace?ms=200 returns a Perfetto-loadable trace-event JSON.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
bench_log="$tmp/bench.log"
cleanup() {
  [[ -n "${bench_pid:-}" ]] && kill "$bench_pid" 2>/dev/null || true
  [[ -n "${bench_pid:-}" ]] && wait "$bench_pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

# Build first so the wait-for-endpoint loop below times the kernel boot,
# not the compile.
cargo build --release -q -p phoebe-bench --bin exp1_tpmc

PHOEBE_TELEMETRY="127.0.0.1:0" \
PHOEBE_EXP1_POINTS="${PHOEBE_METRICS_SMOKE_WORKERS:-2}" \
PHOEBE_DURATION_SECS="${PHOEBE_DURATION_SECS:-6}" \
  cargo run --release -q -p phoebe-bench --bin exp1_tpmc >"$tmp/bench.json" 2>"$bench_log" &
bench_pid=$!

# The kernel advertises the resolved ephemeral port on stderr.
addr=""
for _ in $(seq 1 120); do
  addr=$(sed -n 's#^phoebe: telemetry listening on http://##p' "$bench_log" | head -n1)
  [[ -n "$addr" ]] && break
  kill -0 "$bench_pid" 2>/dev/null || { cat "$bench_log"; echo "FAIL: bench exited before telemetry came up"; exit 1; }
  sleep 0.5
done
[[ -n "$addr" ]] || { cat "$bench_log"; echo "FAIL: no telemetry address advertised"; exit 1; }
echo "metrics-smoke: scraping http://$addr"

ADDR="$addr" OUT="$tmp" python3 - <<'PY'
import json, os, re, sys, time, urllib.request

addr, out = os.environ["ADDR"], os.environ["OUT"]
UNDO_BACKLOG_BOUND = 8_000

def get(path):
    with urllib.request.urlopen(f"http://{addr}{path}", timeout=30) as r:
        assert r.status == 200, f"{path}: HTTP {r.status}"
        return r.read().decode()

def parse_prom(text):
    """Validate exposition grammar; return {(name, labels): value}."""
    samples, types = {}, {}
    sample_re = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|\+Inf|-Inf|NaN)$')
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert kind in ("counter", "gauge", "histogram"), f"bad TYPE: {line}"
            types[name] = kind
            continue
        assert not line.startswith("#"), f"unknown comment: {line}"
        m = sample_re.match(line)
        assert m, f"invalid sample line: {line!r}"
        samples[(m.group(1), m.group(2) or "")] = float(m.group(3))
    return samples, types

first, types = parse_prom(get("/metrics"))
time.sleep(2)  # let the burst make progress between scrapes
second, _ = parse_prom(get("/metrics"))

# Coverage: every latency site exported as a histogram, plus per-worker
# time-in-state.
sites = {re.search(r'site="([^"]+)"', k[1]).group(1)
         for k in first if k[0] == "phoebe_latency_ns_count"}
need = {"commit", "abort", "wal_flush", "group_commit", "buffer_fault", "lock_wait"}
assert need <= sites, f"latency sites missing from /metrics: {need - sites} (got {sites})"
assert types.get("phoebe_latency_ns") == "histogram"
states = {k for k in first if k[0] == "phoebe_worker_state_ns_total"}
assert len(states) >= 8, f"expected >=2 workers x 4 states, got {states}"

# Monotonicity: every counter-typed sample must not decrease.
for (name, labels), v1 in first.items():
    if types.get(name.replace("_bucket", "").replace("_sum", "").replace("_count", ""),
                 types.get(name)) == "counter" or name.endswith(("_total", "_bucket", "_sum", "_count")):
        v2 = second.get((name, labels))
        if v2 is not None:
            assert v2 >= v1, f"counter went backwards: {name}{labels} {v1} -> {v2}"

# Histogram consistency on the second scrape: cumulative buckets, and
# +Inf == _count per site.
for scrape in (first, second):
    per_site = {}
    for (name, labels), v in scrape.items():
        if name == "phoebe_latency_ns_bucket":
            site = re.search(r'site="([^"]+)"', labels).group(1)
            le = re.search(r'le="([^"]+)"', labels).group(1)
            per_site.setdefault(site, []).append((le, v))
    for site, buckets in per_site.items():
        inf = dict(buckets)["+Inf"]
        count = scrape[("phoebe_latency_ns_count", f'{{site="{site}"}}')]
        assert inf == count, f"{site}: +Inf bucket {inf} != _count {count}"
        finite = sorted((float(le), v) for le, v in buckets if le != "+Inf")
        vals = [v for _, v in finite]
        assert vals == sorted(vals), f"{site}: buckets not cumulative"
        assert all(v <= inf for v in vals), f"{site}: bucket exceeds +Inf"
        sum_ns = scrape[("phoebe_latency_ns_sum", f'{{site="{site}"}}')]
        assert count == 0 or sum_ns > 0, f"{site}: count {count} but zero sum"

# One sync per round, by counts: the wal_flush site books one sample per
# write→sync, wal_flushes one per non-empty round. A round in flight
# between its two bumps may put them one apart, never more.
for scrape in (first, second):
    syncs = scrape[("phoebe_latency_ns_count", '{site="wal_flush"}')]
    rounds = scrape[("phoebe_counter_total", '{counter="wal_flushes"}')]
    assert abs(syncs - rounds) <= 1, \
        f"wal_flush samples {syncs} vs wal_flushes {rounds}: a round is not one write→sync"

commits1 = first[("phoebe_counter_total", '{counter="commits"}')]
commits2 = second[("phoebe_counter_total", '{counter="commits"}')]
assert commits2 > commits1, "no commits between scrapes: burst not running?"

# The durability clock: every round publishes its tick minus one, so the
# gauge rises whenever rounds run.
durable1 = first[("phoebe_wal_durable_gsn", "")]
durable2 = second[("phoebe_wal_durable_gsn", "")]
assert types.get("phoebe_wal_durable_gsn") == "gauge", "phoebe_wal_durable_gsn not a gauge"
assert durable2 > durable1, f"phoebe_wal_durable_gsn did not rise: {durable1} -> {durable2}"

# GC gauges: both exported, and GC keeps up (the bound's measurements are
# in the header).
for name in ("phoebe_undo_backlog", "phoebe_twin_tables"):
    assert types.get(name) == "gauge", f"{name} not exported as a gauge"
backlog = second[("phoebe_undo_backlog", "")]
twins = second[("phoebe_twin_tables", "")]
assert backlog < UNDO_BACKLOG_BOUND, \
    f"phoebe_undo_backlog {backlog} >= {UNDO_BACKLOG_BOUND}: some UNDO arena is not collected"

# /stats: the kernel JSON document, the same table of series as /metrics
# (every family under its /metrics name) plus the latency sites.
stats = json.loads(get("/stats"))
families = {name for name, _ in first if not name.startswith("phoebe_latency_ns")}
for key in families | {"phoebe_latency_ns", "phoebe_undo_backlog", "phoebe_twin_tables"}:
    assert key in stats, f"/stats missing {key}"
assert need <= set(stats["phoebe_latency_ns"]), "/stats missing latency sites"

# /trace?ms=200: a live Perfetto snapshot without stopping the kernel.
trace = json.loads(get("/trace?ms=200"))
events = trace["traceEvents"]
assert events, "live trace snapshot is empty"
assert any(e.get("ph") == "X" for e in events), "no spans in live trace"
with open(os.path.join(out, "live_trace.json"), "w") as f:
    json.dump(trace, f)

print(f"metrics-smoke: {len(first)} samples/scrape, {len(sites)} latency sites, "
      f"commits {int(commits1)} -> {int(commits2)}, "
      f"durable GSN {int(durable1)} -> {int(durable2)}, "
      f"wal_flush {int(syncs)} / wal_flushes {int(rounds)}, "
      f"undo backlog {int(backlog)}, twin tables {int(twins)}, live trace {len(events)} events")
print("metrics-smoke: OK")
PY

wait "$bench_pid"
bench_pid=""
echo "metrics-smoke: bench completed cleanly"
