//! The kernel-wide observability surface, exercised through the public
//! API only: `Database::stats()` percentiles after a real workload and
//! typed `Row` access.

use phoebe_core::prelude::*;
use phoebe_runtime::block_on;
use std::sync::Arc;

fn open_db() -> Arc<Database> {
    Database::open(KernelConfig::for_tests()).unwrap()
}

fn accounts(db: &Arc<Database>) -> Arc<TableEntry> {
    db.create_table(
        "accounts",
        Schema::new(vec![
            ("id", ColType::I64),
            ("owner", ColType::Str(16)),
            ("balance", ColType::I64),
        ]),
    )
    .unwrap()
}

/// Run a commit/abort mix so every hot-path histogram sees traffic.
fn churn(db: &Arc<Database>, table: &Arc<TableEntry>, txns: u64) {
    let rt = db.runtime();
    let (db2, t2) = (db.clone(), table.clone());
    rt.spawn(async move {
        for i in 0..txns {
            let mut tx = db2.begin(IsolationLevel::ReadCommitted);
            let row = tx
                .insert(&t2, vec![(i as i64).into(), format!("o{i}").into(), 100i64.into()])
                .await
                .unwrap();
            tx.read(&t2, row).unwrap();
            if i % 5 == 4 {
                tx.abort();
            } else {
                tx.commit().await.unwrap();
            }
        }
    })
    .join();
}

#[test]
fn stats_report_commit_percentiles_after_workload() {
    let db = open_db();
    let table = accounts(&db);
    churn(&db, &table, 200);

    let stats = db.stats();
    let commit = stats.latency(LatencySite::Commit);
    assert_eq!(commit.count(), 160, "4 of every 5 transactions commit");
    assert!(commit.p50() > 0, "commit p50 must be nonzero after commits");
    assert!(
        commit.p50() <= commit.p95() && commit.p95() <= commit.p99(),
        "p50={} p95={} p99={} must be monotone",
        commit.p50(),
        commit.p95(),
        commit.p99()
    );
    assert!(commit.p99() <= commit.max_ns());

    let abort = stats.latency(LatencySite::Abort);
    assert_eq!(abort.count(), 40);
    assert!(abort.p50() <= abort.p95() && abort.p95() <= abort.p99());

    // Synchronous commits flushed the WAL, so flush percentiles exist too
    // and stay monotone.
    let flush = stats.latency(LatencySite::WalFlush);
    assert!(flush.count() > 0, "durable commits imply WAL flushes");
    assert!(flush.p50() <= flush.p95() && flush.p95() <= flush.p99());

    // The counters and the histograms must agree through the public API.
    assert_eq!(stats.counter("commits"), 160);
    assert_eq!(stats.counter("aborts"), 40);
    db.shutdown();
}

#[test]
fn stats_json_is_one_line_and_carries_the_sites() {
    let db = open_db();
    let table = accounts(&db);
    churn(&db, &table, 25);
    let line = db.stats().to_json().render();
    assert!(!line.contains('\n'), "machine-readable output must be one line");
    for key in [
        "\"commit\"",
        "\"wal_flush\"",
        "\"buffer_fault\"",
        "\"p99_ns\"",
        "\"phoebe_counter_total\"",
    ] {
        assert!(line.contains(key), "stats JSON missing {key}: {line}");
    }
    db.shutdown();
}

#[test]
fn row_supports_named_typed_and_positional_access() {
    let db = open_db();
    let table = accounts(&db);
    let rt = db.runtime();
    let (db2, t2) = (db.clone(), table.clone());
    let row_id = rt
        .spawn(async move {
            let mut tx = db2.begin(IsolationLevel::ReadCommitted);
            let id =
                tx.insert(&t2, vec![7i64.into(), "alice".into(), 250i64.into()]).await.unwrap();
            tx.commit().await.unwrap();
            id
        })
        .join();

    let mut tx = db.begin(IsolationLevel::ReadCommitted);
    let row = tx.read(&table, row_id).unwrap().expect("row exists");

    // Named access.
    assert_eq!(row.get("id"), &Value::I64(7));
    assert_eq!(row.i64("balance"), 250);
    assert_eq!(row.str("owner"), "alice");
    assert!(row.try_get("no_such_column").is_none());

    // Positional access stays available for schema-shaped code.
    assert_eq!(row[1], Value::Str("alice".into()));
    assert_eq!(row.len(), 3);

    // Equality against plain value vectors (both directions).
    let expected = vec![Value::I64(7), Value::Str("alice".into()), Value::I64(250)];
    assert_eq!(row, expected);
    assert_eq!(expected, row);

    // And the escape hatch back into owned values.
    assert_eq!(row.clone().into_values(), expected);
    block_on(tx.commit()).unwrap();
    db.shutdown();
}
