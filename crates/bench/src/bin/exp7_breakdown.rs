//! Exp 7 / Figure 12: per-component cost breakdown of a TPC-C transaction,
//! with and without workload affinity.
//!
//! Paper (instruction counts): with affinity there is no visible locking
//! cost and effective computation is 60.8%; without affinity locking
//! appears and WAL overhead grows, effective computation 56.5%. We account
//! cycles (scoped timers) instead of instructions — the *shares* are the
//! comparable quantity (see DESIGN.md substitutions).

use phoebe_bench::*;
use phoebe_common::metrics::{Component, COMPONENTS};
use phoebe_tpcc::run_phoebe;

/// Process CPU time (utime + stime) in nanoseconds — the closest cheap
/// proxy for the paper's instruction counts (idle parking excluded).
fn process_cpu_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields 14/15 (1-based) after the comm field; comm may contain spaces,
    // so skip past the closing paren first.
    let after = stat.rsplit_once(national_paren()).map(|(_, a)| a).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let utime: u64 = fields.get(11).and_then(|v| v.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.get(12).and_then(|v| v.parse().ok()).unwrap_or(0);
    let hz = 100u64; // CLK_TCK on Linux
    (utime + stime) * (1_000_000_000 / hz)
}

fn national_paren() -> char {
    ')'
}

fn run_one(affinity: bool) -> (Vec<(Component, f64)>, u64, f64, phoebe_common::Json) {
    let wh: u32 = env_or("PHOEBE_WAREHOUSES", 2);
    let workers: usize = env_or("PHOEBE_WORKERS", 2);
    let engine = loaded_engine(
        if affinity { "exp7-aff" } else { "exp7-noaff" },
        workers,
        16,
        4096,
        wh,
        phoebe_tpcc::TpccScale::mini(),
    );
    let before = engine.db.metrics.snapshot();
    let cpu_before = process_cpu_ns();
    let cfg = driver_cfg(wh, workers * 16, affinity);
    let stats = run_phoebe(&engine, &cfg);
    let busy_ns = process_cpu_ns().saturating_sub(cpu_before).max(1);
    let delta = engine.db.metrics.snapshot().delta_since(&before);
    let breakdown = delta.breakdown(busy_ns);
    let ns_per_txn = busy_ns as f64 / stats.committed.max(1) as f64;
    let latency = delta.latency_json();
    engine.db.shutdown();
    (breakdown, stats.committed, ns_per_txn, latency)
}

fn main() {
    let (with_aff, commits_a, ns_a, lat_a) = run_one(true);
    let (without_aff, commits_n, ns_n, lat_n) = run_one(false);
    let mut rows = Vec::new();
    for (i, &c) in COMPONENTS.iter().enumerate() {
        rows.push(vec![
            c.name().to_string(),
            format!("{:.1}%", with_aff[i].1 * 100.0),
            format!("{:.1}%", without_aff[i].1 * 100.0),
        ]);
    }
    let headers = ["component", "affinity=on", "affinity=off"];
    print_table("Exp 7 (Fig 12): per-transaction cost breakdown", &headers, &rows);
    println!("committed: {commits_a} (affinity) vs {commits_n} (no affinity)");
    println!("cost per txn: {:.0} ns vs {:.0} ns", ns_a, ns_n);
    println!("paper shape: effective computation dominates (60.8% / 56.5%); locking visible only without affinity");
    let shares = |b: &[(Component, f64)]| {
        let mut obj = phoebe_common::Json::obj();
        for (c, share) in b {
            obj = obj.with(c.name(), *share);
        }
        obj
    };
    emit_json(
        "exp7_breakdown",
        phoebe_common::Json::obj()
            .with("series", rows_json(&headers, &rows))
            .with(
                "affinity_on",
                phoebe_common::Json::obj()
                    .with("committed", commits_a)
                    .with("ns_per_txn", ns_a)
                    .with("shares", shares(&with_aff))
                    .with("latency", lat_a),
            )
            .with(
                "affinity_off",
                phoebe_common::Json::obj()
                    .with("committed", commits_n)
                    .with("ns_per_txn", ns_n)
                    .with("shares", shares(&without_aff))
                    .with("latency", lat_n),
            ),
    );
}
