//! Layer probes: single-threaded timings of each layer's public functions
//! on standalone instances, fixed operation counts, median of five
//! repetitions. The calls are the ones `crates/bench/benches/*` make.

use crate::kv;
use crate::layers::Metric;
use crate::stats::median;
use phoebe_common::ids::{RowId, TableId, Xid};
use phoebe_common::metrics::Metrics;
use phoebe_common::KernelConfig;
use phoebe_core::{Database, IsolationLevel};
use phoebe_runtime::{yield_now, Runtime, Urgency};
use phoebe_storage::pax::{PaxLayout, PaxLeaf};
use phoebe_storage::schema::{ColType, Schema, Value};
use phoebe_storage::{BTree, BufferPool, HybridLatch, TreeKind};
use phoebe_txn::locks::{TupleLockSlot, TxnHandle, TxnOutcome};
use phoebe_txn::visibility::check_visibility;
use phoebe_txn::{GlobalClock, Snapshot, TwinRegistry, UndoLog, UndoOp};
use phoebe_wal::{RecordBody, WalHub};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const REPS: usize = 5;

/// Median over [`REPS`] repetitions of the time `ops` calls take, per call.
fn per_op_ns(ops: u64, mut f: impl FnMut(u64)) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..ops {
                f(i);
            }
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&reps)
}

fn err(e: impl std::fmt::Display) -> String {
    format!("probe: {e}")
}

fn small_layout() -> PaxLayout {
    PaxLayout::for_schema(&Schema::new(vec![("a", ColType::I64), ("b", ColType::Str(16))]))
}

fn tree(dir: &Path, frames: usize, id: u32, kind: TreeKind) -> Result<BTree, String> {
    std::fs::create_dir_all(dir).map_err(err)?;
    let metrics = Arc::new(Metrics::new(1));
    let pool = BufferPool::new(frames, 1, dir, Arc::clone(&metrics)).map_err(err)?;
    BTree::create(pool, TableId(id), kind, metrics).map_err(err)
}

fn fill_table(t: &BTree, layout: &PaxLayout, rows: u64) -> Result<(), String> {
    for i in 1..=rows {
        let tuple = [Value::I64(i as i64), Value::Str("x".into())];
        t.table_append(layout, RowId(i), &tuple, |_, _, _, _| {}).map_err(err)?;
    }
    Ok(())
}

fn runtime_probes(out: &mut Vec<Metric>) {
    let rt = Runtime::with_shape(1, 4);
    let spawn_join = per_op_ns(2_000, |i| {
        black_box(rt.spawn(async move { i }).join());
    });
    const YIELDS: u64 = 100_000;
    let yields = per_op_ns(1, |_| {
        rt.spawn(async {
            for _ in 0..YIELDS {
                yield_now(Urgency::Low).await;
            }
        })
        .join();
    }) / YIELDS as f64;
    rt.shutdown();
    out.push(("probe.runtime.spawn_join_ns".into(), spawn_join, "ns"));
    out.push(("probe.runtime.yield_ns".into(), yields, "ns"));
}

fn latch_probes(out: &mut Vec<Metric>) {
    let latch = HybridLatch::new([0u64; 8]);
    let read = per_op_ns(1_000_000, |_| {
        black_box(latch.optimistic(|v| v[3]));
    });
    let write = per_op_ns(1_000_000, |_| {
        let mut g = latch.write();
        g[3] += 1;
    });
    out.push(("probe.latch.optimistic_read_ns".into(), read, "ns"));
    out.push(("probe.latch.exclusive_ns".into(), write, "ns"));
}

fn btree_probes(dir: &Path, out: &mut Vec<Metric>) -> Result<(), String> {
    const ROWS: u64 = 100_000;
    let layout = small_layout();

    let index = tree(&dir.join("index"), 2_048, 1, TreeKind::Index)?;
    for i in 0..ROWS {
        index.index_insert(&i.to_be_bytes(), RowId(i)).map_err(err)?;
    }
    let index_get = per_op_ns(ROWS, |i| {
        black_box(index.index_get(&(i * 7919 % ROWS).to_be_bytes()).expect("index_get"));
    });

    let table = tree(&dir.join("table"), 2_048, 2, TreeKind::Table)?;
    fill_table(&table, &layout, ROWS)?;
    let table_read = per_op_ns(ROWS, |i| {
        let row = RowId(i * 7919 % ROWS + 1);
        black_box(
            table.table_read(row, |leaf, r, _, _| leaf.read_col(&layout, r, 0)).expect("read"),
        );
    });

    // Appends and inserts grow a tree, so each repetition gets a fresh one.
    let mut appends = Vec::new();
    let mut inserts = Vec::new();
    for rep in 0..REPS {
        let t = tree(&dir.join(format!("append{rep}")), 2_048, 3, TreeKind::Table)?;
        let t0 = Instant::now();
        fill_table(&t, &layout, ROWS)?;
        appends.push(t0.elapsed().as_nanos() as f64 / ROWS as f64);

        let ix = tree(&dir.join(format!("insert{rep}")), 2_048, 4, TreeKind::Index)?;
        let t0 = Instant::now();
        for i in 0..ROWS {
            // Scattered keys: splits land all over the tree.
            ix.index_insert(&(i * 7919 % ROWS).to_be_bytes(), RowId(i)).map_err(err)?;
        }
        inserts.push(t0.elapsed().as_nanos() as f64 / ROWS as f64);
    }
    out.push(("probe.btree.index_get_ns".into(), index_get, "ns"));
    out.push(("probe.btree.table_read_ns".into(), table_read, "ns"));
    out.push(("probe.btree.table_append_ns".into(), median(&appends), "ns"));
    out.push(("probe.btree.index_insert_ns".into(), median(&inserts), "ns"));
    Ok(())
}

/// Point reads over a table four times its pool: most miss, evict a frame
/// and read the page back from the Data Page File.
fn buffer_probe(dir: &Path, out: &mut Vec<Metric>) -> Result<(), String> {
    const FRAMES: usize = 128;
    let layout = small_layout();
    let rows = (layout.capacity * FRAMES * 4) as u64;
    let table = tree(&dir.join("cold"), FRAMES, 5, TreeKind::Table)?;
    fill_table(&table, &layout, rows)?;
    let ns = per_op_ns(4_000, |i| {
        let row = RowId(crate::gen::mix64(i) % rows + 1);
        black_box(
            table.table_read(row, |leaf, r, _, _| leaf.read_col(&layout, r, 0)).expect("read"),
        );
    });
    out.push(("probe.buffer.cold_fault_us".into(), ns / 1e3, "us"));
    Ok(())
}

fn pax_probes(out: &mut Vec<Metric>) {
    let schema = Schema::new(vec![
        ("a", ColType::I64),
        ("b", ColType::I32),
        ("c", ColType::F64),
        ("d", ColType::Str(16)),
    ]);
    let layout = PaxLayout::for_schema(&schema);
    let mut leaf = PaxLeaf::new();
    let tuple = vec![Value::I64(1), Value::I32(2), Value::F64(3.0), Value::Str("hello".into())];
    for i in 0..layout.capacity {
        leaf.append(&layout, RowId(i as u64), &tuple);
    }
    let read_row = per_op_ns(500_000, |_| {
        black_box(leaf.read_row(&layout, 100));
    });
    let write_col = per_op_ns(1_000_000, |i| {
        leaf.write_col(&layout, 100, 1, &Value::I32(i as i32));
    });
    out.push(("probe.pax.read_row_ns".into(), read_row, "ns"));
    out.push(("probe.pax.write_col_ns".into(), write_col, "ns"));
}

/// A committed version chain of `len` updates; the head is the newest.
fn chain(len: u64) -> Arc<UndoLog> {
    let mut prev = None;
    for i in 0..len {
        let cts = (i + 1) * 2;
        let h = TxnHandle::new(Xid::from_start_ts(cts - 1));
        let delta = vec![(0, Value::I64(i as i64))];
        let log =
            UndoLog::new(TableId(1), RowId(1), RowId(0), UndoOp::Update { delta }, h.clone(), prev);
        log.stamp_commit(cts);
        h.finish(TxnOutcome::Committed(cts));
        prev = Some(log);
    }
    prev.expect("len >= 1")
}

fn mvcc_probes(out: &mut Vec<Metric>) {
    let clock = GlobalClock::new();
    for _ in 0..1000 {
        clock.tick();
    }
    let snapshot = per_op_ns(1_000_000, |_| {
        black_box(clock.snapshot());
    });

    // Snapshot 1 predates every version: the walk goes to the oldest.
    let current = vec![Value::I64(999)];
    let head = chain(4);
    let reader = Xid::from_start_ts(1_000_000);
    let visibility = per_op_ns(500_000, |_| {
        black_box(check_visibility(&current, Some(&head), reader, Snapshot(1)));
    });

    // What every row read does first: find the page's twin table and the
    // row's chain head in it.
    let twins = TwinRegistry::new();
    let key = (TableId(1), RowId(0));
    let log = chain(1);
    assert!(twins.get_or_create(key).set_head(RowId(1), log, 1), "fresh twin table accepts a head");
    let twin_head = per_op_ns(1_000_000, |_| {
        black_box(twins.get(key).and_then(|t| t.head(RowId(1))));
    });
    out.push(("probe.mvcc.snapshot_ns".into(), snapshot, "ns"));
    out.push(("probe.mvcc.visibility_chain4_ns".into(), visibility, "ns"));
    out.push(("probe.mvcc.twin_head_ns".into(), twin_head, "ns"));
}

fn lock_probes(out: &mut Vec<Metric>) {
    let slot = TupleLockSlot::default();
    let claim = per_op_ns(1_000_000, |i| {
        slot.claim(TableId(1), RowId(i));
        slot.release();
    });
    let handle = per_op_ns(1_000_000, |i| {
        let h = TxnHandle::new(Xid::from_start_ts(i + 1));
        h.finish(TxnOutcome::Committed(i + 1));
        black_box(h.outcome());
    });
    out.push(("probe.locks.tuple_claim_release_ns".into(), claim, "ns"));
    out.push(("probe.locks.txn_handle_ns".into(), handle, "ns"));
}

fn wal_probes(dir: &Path, out: &mut Vec<Metric>) -> Result<(), String> {
    let hub = WalHub::new(
        &dir.join("wal"),
        8,
        2,
        Duration::from_micros(200),
        true,
        Arc::new(Metrics::new(1)),
    )
    .map_err(err)?;
    let tuple = vec![Value::I64(1), Value::Str("payload".into())];
    let append = per_op_ns(100_000, |i| {
        let body = RecordBody::Insert { table: TableId(1), row: RowId(i), tuple: tuple.clone() };
        black_box(hub.log_op((i % 8) as usize, Xid::from_start_ts(i + 1), 1, body));
    });
    hub.flush_all().map_err(err)?;
    // One commit record made durable: the floor under every write commit.
    let flush = per_op_ns(50, |i| {
        hub.log_op(0, Xid::from_start_ts(i + 1), 1, RecordBody::Commit { cts: i });
        hub.flush_all().expect("wal flush");
    });
    hub.shutdown();
    out.push(("probe.wal.append_ns".into(), append, "ns"));
    out.push(("probe.wal.flush_sync_us".into(), flush / 1e3, "us"));
    Ok(())
}

/// One client, no interleaving: the pure service time of a `kv_read`
/// lookup through the whole kernel.
fn core_probe(dir: &Path, out: &mut Vec<Metric>) -> Result<(), String> {
    const ROWS: u64 = 50_000;
    const LOOKUPS: u64 = 100_000;
    let cfg = KernelConfig::builder()
        .workers(1)
        .slots_per_worker(4)
        .buffer_frames(2_048)
        .data_dir(dir.join("core"))
        .build()
        .map_err(err)?;
    let db = Database::open(cfg).map_err(err)?;
    let table = kv::load(Arc::clone(&db), ROWS, 1).map_err(err)?;
    let rt = db.runtime();
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let table = table.clone();
            rt.spawn(async move {
                let mut tx = table.db.begin(IsolationLevel::ReadCommitted);
                let t0 = Instant::now();
                for i in 0..LOOKUPS {
                    black_box(table.get(&mut tx, crate::gen::mix64(i) % ROWS).expect("lookup"));
                }
                let ns = t0.elapsed().as_nanos() as f64 / LOOKUPS as f64;
                tx.commit().await.expect("read-only commit");
                ns
            })
            .join()
        })
        .collect();
    drop(table);
    db.shutdown();
    out.push(("probe.core.kv_lookup_1client_ns".into(), median(&reps), "ns"));
    Ok(())
}

/// Run every probe once, in scratch directories under `out`.
pub fn run(out: &Path) -> Result<Vec<Metric>, String> {
    let dir = out.join("data").join(format!("probes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut m = Vec::new();
    runtime_probes(&mut m);
    latch_probes(&mut m);
    btree_probes(&dir, &mut m)?;
    buffer_probe(&dir, &mut m)?;
    pax_probes(&mut m);
    mvcc_probes(&mut m);
    lock_probes(&mut m);
    wal_probes(&dir, &mut m)?;
    core_probe(&dir, &mut m)?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(m)
}
