//! The repo benchmark. One invocation is one run of one workload:
//!
//! ```text
//! phoebe-benchmark --workload tpcc_hot --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ledger (counter deltas, spans, probes, restart check). Human-readable
//! lines come first; the last line of standard output is one JSON object.
//! `run.py` builds this binary, runs it and owns everything around it
//! (host fingerprint, whole-suite runs, `compare`).

mod client;
mod gen;
mod host;
mod kv;
mod layers;
mod probes;
mod run;
mod stats;
mod tpcc;
mod trace;
mod workload;

use phoebe_common::Json;
use run::{RunResult, RunSpec};
use std::path::PathBuf;
use std::time::Duration;
use workload::{Workload, WORKLOADS};

/// Clients run this long before anything is recorded.
const WARMUP: Duration = Duration::from_secs(2);
/// `setup_s` is the median of this many set-ups.
const SETUPS: usize = 3;
/// On a traced run this share of `--seconds` is the untraced reference
/// window that `trace.overhead_share` compares against; the rest is traced.
const REFERENCE_SHARE: f64 = 0.4;

fn usage() -> String {
    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name()).collect();
    format!(
        "usage: phoebe-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<RunSpec, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 20u64, false);
    let mut out = PathBuf::from("benchmark/out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag} {value}: not a number"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload '{value}'\n{}", usage()))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let window = Duration::from_secs(seconds);
    let (untraced, traced) = if trace {
        let reference = window.mul_f64(REFERENCE_SHARE);
        (reference, window - reference)
    } else {
        (window, Duration::ZERO)
    };
    Ok(RunSpec {
        workload: workload.ok_or_else(usage)?,
        sizing: workload::FULL,
        seed,
        warmup: WARMUP,
        untraced,
        traced,
        setups: SETUPS,
        out,
    })
}

/// The contract's result line. Values keep every digit `f64` has.
fn result_json(r: &RunResult) -> String {
    let mut metrics = Json::obj();
    for (name, value, unit) in &r.metrics {
        let v = if value.is_finite() { *value } else { 0.0 };
        metrics = metrics.with(name.as_str(), Json::obj().with("value", v).with("unit", *unit));
    }
    Json::obj()
        .with("correct", true)
        .with("attempted", r.attempted)
        .with("failed", r.failed)
        .with("metrics", metrics)
        .render()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|spec| {
        std::fs::create_dir_all(&spec.out).map_err(|e| format!("{}: {e}", spec.out.display()))?;
        run::run(&spec)
    });
    match outcome {
        Ok(result) => {
            for (name, value, unit) in &result.metrics {
                println!("{name:<36} {value:>16.4} {unit}");
            }
            println!("attempted {}  failed {}", result.attempted, result.failed);
            println!("{}", result_json(&result));
        }
        // A failed oracle (or any other error) prints no metrics.
        Err(e) => {
            eprintln!("phoebe-benchmark: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: Workload, traced: bool) -> RunResult {
        // Under the (git-ignored) output directory: the repository's disk,
        // like the benchmark's own data, never a tmpfs `/tmp`.
        let out = PathBuf::from("out").join(format!(
            "test-{}-{}-{traced}",
            std::process::id(),
            workload.name()
        ));
        let spec = RunSpec {
            workload,
            sizing: workload::smoke(),
            seed: 7,
            warmup: Duration::from_millis(200),
            untraced: Duration::from_millis(if traced { 400 } else { 1000 }),
            traced: Duration::from_millis(if traced { 600 } else { 0 }),
            setups: 1,
            out: out.clone(),
        };
        let result = run::run(&spec).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        let _ = std::fs::remove_dir_all(out);
        result
    }

    fn get(r: &RunResult, name: &str) -> f64 {
        r.metrics.iter().find(|m| m.0 == name).unwrap_or_else(|| panic!("no metric {name}")).1
    }

    /// A 1 s run of every workload commits, fails nothing and passes its
    /// oracle (`run` returns `Err` when the oracle does not hold).
    #[test]
    fn every_workload_passes_its_oracle() {
        for w in WORKLOADS {
            let r = smoke(w, false);
            assert!(r.attempted > 0, "{}", w.name());
            assert_eq!(r.failed, 0, "{}", w.name());
            assert_eq!(r.metrics.len(), 6);
            for (name, value, _) in &r.metrics {
                assert!(*value > 0.0, "{} {name} = {value}", w.name());
            }
        }
    }

    /// The traced run closes its breakdown, survives the restart check and
    /// reports the whole ledger.
    #[test]
    fn traced_run_reports_a_closed_ledger() {
        let r = smoke(Workload::KvUpdate, true);
        assert_eq!(r.failed, 0);
        let shares: f64 = r
            .metrics
            .iter()
            .filter(|m| m.0.starts_with("span.") && m.0.ends_with(".share"))
            .map(|m| m.1)
            .sum();
        assert!((shares - 1.0).abs() < 1e-9, "span shares sum to {shares}");
        assert!(get(&r, "span.update.calls_per_txn") >= 1.0);
        assert!(get(&r, "wal.bytes_per_txn") > 0.0);
        assert!(get(&r, "core.recovery_ms") > 0.0);
        assert!(get(&r, "probe.wal.flush_sync_us") > 0.0);
        assert_eq!(r.metrics.len(), 95);
        let mut names: Vec<_> = r.metrics.iter().map(|m| &m.0).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 95, "metric names are unique");

        let read = smoke(Workload::KvRead, true);
        assert_eq!(get(&read, "wal.bytes_per_txn"), 0.0);
        assert_eq!(get(&read, "locks.waits_per_txn"), 0.0);
        assert_eq!(get(&read, "core.recovery_ms"), 0.0);
    }

    #[test]
    fn arguments_parse_into_windows() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let spec = parse_args(&args("--workload kv_read --seed 9 --seconds 10 --trace 1")).unwrap();
        assert_eq!((spec.workload, spec.seed), (Workload::KvRead, 9));
        assert_eq!(spec.untraced, Duration::from_secs(4));
        assert_eq!(spec.traced, Duration::from_secs(6));
        let spec = parse_args(&args("--workload tpcc_cold --trace 0")).unwrap();
        assert_eq!((spec.untraced, spec.traced), (Duration::from_secs(20), Duration::ZERO));
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--workload kv_read --seconds")).is_err());
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let r = RunResult {
            attempted: 10,
            failed: 0,
            metrics: vec![("setup_s".into(), 0.8127, "s"), ("x.y".into(), f64::NAN, "us")],
        };
        assert_eq!(
            result_json(&r),
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":\
             {\"setup_s\":{\"value\":0.8127,\"unit\":\"s\"},\
             \"x.y\":{\"value\":0,\"unit\":\"us\"}}}"
        );
    }
}
