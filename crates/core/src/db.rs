//! The PhoebeDB kernel: wiring storage, transactions, WAL and the
//! co-routine runtime into one database object (§4, Figure 1).

use crate::catalog::{IndexDef, IndexEntry, TableEntry};
use crate::manifest::{self, ManifestEntry};
use crate::txn_api::Transaction;
use phoebe_common::error::{PhoebeError, Result};
use phoebe_common::fault::{FaultFs, OsFs, SimFs};
use phoebe_common::hist::LatencySite;
use phoebe_common::ids::{TableId, Timestamp};
use phoebe_common::metrics::{Component, Counter, Metrics};
use phoebe_common::snapshot::SnapshotList;
use phoebe_common::sync::{Rank, RankedMutex, RankedRwLock};
use phoebe_common::telemetry::TelemetryServer;
use phoebe_common::trace::Tracer;
use phoebe_common::{KernelConfig, TelemetryConfig, TraceConfig, WatchdogConfig};
use phoebe_runtime::{Runtime, RuntimeConfig, WorkerHook};
use phoebe_storage::schema::{ColType, Schema};
use phoebe_storage::{BTree, BufferPool, FrozenStore, TreeKind};
use phoebe_txn::locks::IsolationLevel;
use phoebe_txn::{ActiveTxnTable, GcEngine, GcStats, TwinRegistry, UndoArena, UndoLog, UndoOp};
use phoebe_wal::{recover_dir, recover_dir_stats, RecordBody, RecoveredTxn, WalHub, WalScanStats};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Extra task-slot identities reserved for threads outside the co-routine
/// pool (loaders, tests, maintenance). They get their own UNDO arenas and
/// WAL writers so the slot-serial invariants hold for them too.
pub const EXTERNAL_SLOTS: usize = 8;

/// One worker's GC duty state (§7.3), touched only by that worker's tick
/// and by commits on slots it owns.
struct GcDuty {
    /// Transactions finished on the worker's slots since its last GC tick.
    txns_since: AtomicU64,
    /// The registry shard its next tick retires. Each worker walks every
    /// shard round-robin, starting `worker / workers` of the way round, so
    /// the registry drains even when only one worker's GC is due (a single
    /// external thread's commits all count toward one worker).
    next_shard: AtomicUsize,
}

/// What `Database::open` found and replayed from a previous incarnation's
/// WAL (all zeros on a fresh directory).
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryInfo {
    /// Committed transactions replayed from the log.
    pub txns: usize,
    /// Highest recovered commit timestamp; the global clock resumes
    /// strictly after it.
    pub max_cts: Timestamp,
    /// Highest GSN seen on any recovered record (must never exceed the
    /// durable GSN the crashed incarnation acknowledged).
    pub max_gsn: u64,
    /// CRC-valid WAL records the recovery scan decoded (also surfaced as
    /// the `recovery_records_replayed` counter in [`crate::KernelStats`]).
    pub records: u64,
    /// Torn tail bytes discarded across slot files (the
    /// `recovery_tail_bytes_discarded` counter).
    pub tail_bytes_discarded: u64,
}

/// The database kernel.
pub struct Database {
    pub cfg: KernelConfig,
    pub metrics: Arc<Metrics>,
    pub clock: phoebe_txn::GlobalClock,
    pub pool: Arc<BufferPool>,
    pub wal: Arc<WalHub>,
    pub twins: Arc<TwinRegistry>,
    pub active: ActiveTxnTable,
    arenas: Vec<Arc<UndoArena>>,
    pub tuple_locks: Vec<phoebe_txn::locks::TupleLockSlot>,
    gc: GcEngine,
    /// Table list as an immutable snapshot (see [`SnapshotList`]):
    /// `table_by_id` runs per UNDO log during rollback and GC, so it must
    /// not serialize on a catalog lock.
    catalog: SnapshotList<Arc<TableEntry>>,
    by_name: RankedRwLock<HashMap<String, usize>>,
    /// DDL operations in creation order — the source text of the on-disk
    /// catalog manifest (see [`crate::manifest`]). Creation order matters:
    /// it is what assigns table/index ids, and ids are how WAL records
    /// name relations at replay.
    ddl_log: RankedMutex<Vec<ManifestEntry>>,
    /// The seeded torture disk when `cfg.fault` is set; `None` in
    /// production. Exposed via [`Database::fault_sim`] so crash tests can
    /// arm and trigger the simulated power cut.
    sim: Option<Arc<SimFs>>,
    /// The kernel flight recorder (disabled unless `cfg.trace` or
    /// `PHOEBE_TRACE` enabled it); every subsystem emits through the
    /// metrics handle, this is the drain/export side.
    tracer: Arc<Tracer>,
    /// Where shutdown exports the trace, when a path was configured.
    /// Taken (once) by the first shutdown/drop.
    trace_path: RankedMutex<Option<PathBuf>>,
    /// What `open` replayed from the previous incarnation's WAL.
    recovery: RecoveryInfo,
    next_table_id: AtomicU32,
    external_free: RankedMutex<Vec<usize>>,
    gc_duty: Vec<GcDuty>,
    runtime: RankedRwLock<Option<Arc<Runtime>>>,
    /// The live telemetry HTTP server, when `cfg.telemetry` or
    /// `PHOEBE_TELEMETRY` enabled it. Stopped first at shutdown so no
    /// scrape runs against a dying kernel.
    telemetry: RankedMutex<Option<TelemetryServer>>,
    /// The stall watchdog, when `cfg.watchdog` or `PHOEBE_WATCHDOG`
    /// enabled it.
    watchdog: RankedMutex<Option<crate::watchdog::WatchdogHandle>>,
}

struct HubBarrier(Arc<WalHub>);

impl phoebe_storage::WalBarrier for HubBarrier {
    fn try_ensure_durable(&self, gsn: u64) -> bool {
        self.0.try_ensure_durable_gsn(gsn)
    }

    fn ensure_durable(&self, gsn: u64) {
        self.0.ensure_durable_gsn_blocking(gsn);
    }
}

/// Per-worker background duties (§7.1, Figure 6): page swaps when the
/// partition's free frames fall below the watermark, and GC after every
/// `gc_every_txns` transactions on slots the worker owns — run on the
/// worker that owns the data.
struct KernelHook {
    db: Weak<Database>,
}

impl WorkerHook for KernelHook {
    fn tick(&self, worker: usize) {
        let Some(db) = self.db.upgrade() else {
            return;
        };
        // Page-swap duty.
        let fpp = db.pool.total_frames() / db.pool.partition_count();
        let watermark = ((fpp as f64) * db.cfg.free_frame_watermark) as usize;
        if db.pool.free_frames(worker) < watermark {
            let _t = db.metrics.timer(Component::Buffer);
            db.pool.stage_cooling(worker, 8);
            for _ in 0..8 {
                if db.pool.free_frames(worker) >= watermark {
                    break;
                }
                if !db.pool.evict_one(worker).unwrap_or(false) {
                    break;
                }
            }
        }
        db.gc_tick(worker);
    }
}

/// True when `dir` holds at least one non-empty WAL file — i.e. a
/// previous incarnation left durable history behind.
fn wal_dir_has_records(dir: &Path) -> bool {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return false;
    };
    rd.filter_map(|e| e.ok()).any(|e| {
        e.file_name().to_str().is_some_and(phoebe_wal::is_wal_file)
            && e.metadata().map(|m| m.len() > 0).unwrap_or(false)
    })
}

impl Database {
    /// Open a kernel: build the buffer pool, WAL hub, runtime and GC, wire
    /// the cross-layer hooks (write barrier, worker duties) — and, when the
    /// data directory holds a previous incarnation's WAL, replay every
    /// committed transaction before accepting new work.
    ///
    /// Recovery protocol (crash-safe at every step):
    ///
    /// 1. If `wal/` holds records, it is renamed to `wal.recovering/`
    ///    *before* the new hub truncates the log file. If
    ///    `wal.recovering/` already exists, a previous recovery itself
    ///    crashed — that directory wins and any half-rebuilt `wal/` is
    ///    discarded, which makes recovery idempotent.
    /// 2. The catalog is rebuilt from the manifest (creation order ⇒ same
    ///    table ids), then committed transactions are replayed in commit-
    ///    timestamp order.
    /// 3. The recovered history is re-logged into the fresh WAL and
    ///    flushed (there is no checkpoint: the log is the only durable
    ///    copy of hot data), the global clock is advanced past the highest
    ///    recovered commit timestamp, and only then is
    ///    `wal.recovering/` deleted.
    pub fn open(cfg: KernelConfig) -> Result<Arc<Self>> {
        cfg.validate()?;
        std::fs::create_dir_all(&cfg.data_dir)?;
        // Live telemetry + watchdog: `cfg` wins; the environment enables
        // either without touching code (`PHOEBE_TELEMETRY=<addr>`,
        // `PHOEBE_WATCHDOG=<incident dir>`).
        let telemetry_cfg = cfg.telemetry.clone().or_else(|| {
            std::env::var("PHOEBE_TELEMETRY")
                .ok()
                .filter(|s| !s.is_empty())
                .map(|addr| TelemetryConfig { addr })
        });
        let watchdog_cfg = cfg.watchdog.clone().or_else(|| {
            std::env::var("PHOEBE_WATCHDOG").ok().filter(|s| !s.is_empty()).map(|dir| {
                WatchdogConfig {
                    incident_dir: Some(PathBuf::from(dir)),
                    ..WatchdogConfig::default()
                }
            })
        });
        // Flight recorder: `cfg.trace` wins; `PHOEBE_TRACE=<path>` enables
        // recording + shutdown export without touching code. Telemetry and
        // the watchdog both serve flight-recorder snapshots, so either
        // implies an in-memory recorder (no shutdown export) when no
        // explicit trace config was given.
        let trace_cfg = cfg.trace.clone().or_else(|| {
            std::env::var("PHOEBE_TRACE").ok().filter(|s| !s.is_empty()).map(TraceConfig::to_file)
        });
        let observing = telemetry_cfg.is_some() || watchdog_cfg.is_some();
        let tracer = Arc::new(match (&trace_cfg, observing) {
            (Some(tc), _) => Tracer::new(cfg.workers, tc.ring_capacity),
            (None, true) => Tracer::new(cfg.workers, TraceConfig::default().ring_capacity),
            (None, false) => Tracer::disabled(),
        });
        let trace_path = trace_cfg.and_then(|tc| tc.path);
        let (fs, sim): (Arc<dyn FaultFs>, Option<Arc<SimFs>>) = match &cfg.fault {
            Some(fc) => {
                let s = SimFs::new(fc.clone());
                (Arc::clone(&s) as Arc<dyn FaultFs>, Some(s))
            }
            None => (Arc::new(OsFs), None),
        };

        // Step 1: secure the previous incarnation's log before the new
        // writers truncate it.
        let wal_dir = cfg.data_dir.join("wal");
        let rec_dir = cfg.data_dir.join("wal.recovering");
        if rec_dir.exists() {
            if wal_dir.exists() {
                std::fs::remove_dir_all(&wal_dir)?;
            }
        } else if wal_dir_has_records(&wal_dir) {
            std::fs::rename(&wal_dir, &rec_dir)?;
        }
        // The durable image is plain files (even under SimFs the durable
        // layer is a real file), so recovery always reads the real fs.
        let had_recovery = rec_dir.exists();
        let recovery_start = Instant::now();
        let (recovered, scan) = if had_recovery {
            recover_dir_stats(&rec_dir)?
        } else {
            (Vec::new(), WalScanStats::default())
        };
        let recovery = RecoveryInfo {
            txns: recovered.len(),
            max_cts: recovered.iter().map(|t| t.cts).max().unwrap_or(0),
            max_gsn: recovered.iter().map(|t| t.max_gsn).max().unwrap_or(0),
            records: scan.records,
            tail_bytes_discarded: scan.tail_bytes_discarded,
        };

        let metrics = Arc::new(Metrics::with_tracer(cfg.workers, Arc::clone(&tracer)));
        let pool = BufferPool::new_with_fs(
            cfg.buffer_frames,
            cfg.workers,
            &cfg.data_dir,
            Arc::clone(&metrics),
            fs.as_ref(),
        )?;
        let total_slots = cfg.total_slots() + EXTERNAL_SLOTS;
        // Every slot, the external ones included, logs into one file: a
        // group-commit round is one write and one sync.
        let wal = WalHub::with_fs(
            &wal_dir,
            total_slots,
            Duration::from_micros(cfg.wal_group_commit_us),
            cfg.wal_sync,
            Arc::clone(&metrics),
            fs,
        )?;
        pool.set_wal_barrier(Arc::new(HubBarrier(Arc::clone(&wal))));
        let arenas: Vec<_> = (0..total_slots).map(|_| Arc::new(UndoArena::new())).collect();
        let twins = Arc::new(TwinRegistry::new());
        let gc = GcEngine::new(arenas.clone(), Arc::clone(&twins));
        let registry_shards = twins.shard_count();
        let db = Arc::new(Database {
            active: ActiveTxnTable::new(total_slots),
            tuple_locks: (0..total_slots).map(|_| Default::default()).collect(),
            arenas,
            twins,
            gc,
            catalog: SnapshotList::default(),
            by_name: RankedRwLock::new(Rank::Db, "db.by_name", HashMap::new()),
            ddl_log: RankedMutex::new(Rank::Db, "db.ddl_log", Vec::new()),
            sim,
            tracer,
            trace_path: RankedMutex::new(Rank::Db, "db.trace_path", trace_path),
            recovery,
            next_table_id: AtomicU32::new(1),
            external_free: RankedMutex::new(
                Rank::Db,
                "db.external_free",
                (cfg.total_slots()..total_slots).rev().collect(),
            ),
            gc_duty: (0..cfg.workers)
                .map(|w| GcDuty {
                    txns_since: AtomicU64::new(0),
                    next_shard: AtomicUsize::new(w * registry_shards / cfg.workers),
                })
                .collect(),
            runtime: RankedRwLock::new(Rank::Db, "db.runtime", None),
            telemetry: RankedMutex::new(Rank::Db, "db.telemetry", None),
            watchdog: RankedMutex::new(Rank::Db, "db.watchdog", None),
            clock: phoebe_txn::GlobalClock::new(),
            metrics,
            pool,
            wal,
            cfg,
        });

        // Step 2: rebuild the catalog with the original creation order,
        // then replay committed history in cts order.
        db.load_manifest()?;
        if !recovered.is_empty() {
            db.apply_recovered(&recovered)?;
            // Step 3: the fresh WAL must carry the full history again.
            db.relog_recovered(&recovered)?;
            db.clock.advance_to(recovery.max_cts);
        }
        if rec_dir.exists() {
            std::fs::remove_dir_all(&rec_dir)?;
        }
        if had_recovery {
            // Recovery is the one open-path latency a user actually waits
            // behind; book the end-to-end scan + apply + re-log cost.
            db.metrics.add(Counter::RecoveryRecordsReplayed, recovery.records);
            db.metrics.add(Counter::RecoveryTailBytesDiscarded, recovery.tail_bytes_discarded);
            db.metrics
                .probe_since(LatencySite::RecoveryReplay, 0, recovery.records, recovery_start)
                .finish();
        }

        // Start the co-routine pool and install the worker duties.
        let mut rt_cfg = RuntimeConfig::new(db.cfg.workers, db.cfg.slots_per_worker);
        rt_cfg.tracer = Arc::clone(&db.tracer);
        let rt = Runtime::new(rt_cfg);
        rt.set_hook(Arc::new(KernelHook { db: Arc::downgrade(&db) }));
        *db.runtime.write() = Some(rt);

        // Observability plane last: both only hold weak kernel references,
        // so they observe a fully wired kernel and never keep one alive.
        if let Some(wc) = watchdog_cfg {
            let handle = crate::watchdog::start_watchdog(&db, wc);
            eprintln!("phoebe: watchdog armed, incidents at {}", handle.incident_dir().display());
            *db.watchdog.lock() = Some(handle);
        }
        if let Some(tc) = telemetry_cfg {
            let server =
                TelemetryServer::start(&tc.addr, crate::telemetry::KernelTelemetry::new(&db))?;
            // The bench harness and scripts/metrics_smoke.sh parse this
            // line to find the resolved (possibly ephemeral) port.
            eprintln!("phoebe: telemetry listening on http://{}", server.local_addr());
            *db.telemetry.lock() = Some(server);
        }
        Ok(db)
    }

    /// The telemetry endpoint's bound address, when the server is running
    /// (resolves a configured port 0 to the actual ephemeral port).
    pub fn telemetry_addr(&self) -> Option<std::net::SocketAddr> {
        self.telemetry.lock().as_ref().map(|s| s.local_addr())
    }

    /// The seeded fault-injection disk, when this kernel was opened with
    /// `cfg.fault` set (crash-consistency tests arm and fire it).
    pub fn fault_sim(&self) -> Option<&Arc<SimFs>> {
        self.sim.as_ref()
    }

    /// What `open` found and replayed from a previous incarnation's WAL.
    pub fn recovery_info(&self) -> RecoveryInfo {
        self.recovery
    }

    /// The kernel flight recorder — disabled (one relaxed atomic load per
    /// emit site) unless `cfg.trace` or `PHOEBE_TRACE` enabled it.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Drain the flight recorder's rings and write Chrome trace-event
    /// JSON to `path` (open it at `ui.perfetto.dev`). Draining does not
    /// consume: the rings keep recording.
    pub fn write_trace(&self, path: &Path) -> Result<()> {
        self.tracer.write_chrome_json(path)?;
        Ok(())
    }

    /// One-shot shutdown export to the configured trace path, if any.
    fn export_trace_on_shutdown(&self) {
        if let Some(path) = self.trace_path.lock().take() {
            if let Err(e) = self.tracer.write_chrome_json(&path) {
                eprintln!("phoebe: failed to write trace to {}: {e}", path.display());
            } else {
                eprintln!("phoebe: trace written to {}", path.display());
            }
        }
    }

    /// The co-routine runtime (spawn transactions through this).
    pub fn runtime(&self) -> Arc<Runtime> {
        self.runtime.read().clone().expect("runtime running")
    }

    /// The runtime, or `None` once shutdown has taken it.
    pub(crate) fn try_runtime(&self) -> Option<Arc<Runtime>> {
        self.runtime.read().clone()
    }

    /// Flush WAL, stop the runtime and background machinery.
    pub fn shutdown(&self) {
        self.stop_observability();
        if let Some(rt) = self.runtime.write().take() {
            rt.shutdown();
        }
        let _ = self.wal.flush_all();
        self.wal.shutdown();
        self.export_trace_on_shutdown();
    }

    /// Stop the telemetry server and watchdog (joining their threads)
    /// before anything else is torn down, so no sampler observes a
    /// half-dead kernel.
    fn stop_observability(&self) {
        if let Some(mut w) = self.watchdog.lock().take() {
            w.shutdown();
        }
        if let Some(mut t) = self.telemetry.lock().take() {
            t.shutdown();
        }
    }

    pub(crate) fn arena(&self, slot: usize) -> &Arc<UndoArena> {
        &self.arenas[slot]
    }

    /// Total task slots including the external pool.
    pub fn total_slots(&self) -> usize {
        self.arenas.len()
    }

    pub(crate) fn checkout_external_slot(&self) -> usize {
        self.external_free
            .lock()
            .pop()
            .expect("external slot pool exhausted: too many concurrent non-pool transactions")
    }

    pub(crate) fn return_external_slot(&self, slot: usize) {
        self.external_free.lock().push(slot);
    }

    /// Count a finished transaction toward the GC duty of the worker that
    /// owns `slot`'s arena, external slots included: a kernel used only
    /// from outside the pool still collects.
    pub(crate) fn note_txn_done(&self, slot: usize) {
        // ORDERING: a trigger count; the tick it gates re-reads every
        // arena under its queue lock.
        self.gc_duty[self.gc_owner(slot)].txns_since.fetch_add(1, Ordering::Relaxed);
    }

    // ------------------------------------------------------------------
    // Catalog
    // ------------------------------------------------------------------

    /// Create a table. Table ids are assigned in creation order, which is
    /// what ties WAL records back to relations at recovery.
    ///
    /// Idempotent: re-creating an existing table with an identical schema
    /// returns the live entry (so application setup code can run unchanged
    /// against a recovered kernel); a schema mismatch is an error.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<Arc<TableEntry>> {
        self.create_table_inner(name, schema, true)
    }

    fn create_table_inner(
        &self,
        name: &str,
        schema: Schema,
        persist: bool,
    ) -> Result<Arc<TableEntry>> {
        // The name map's write lock serializes all DDL, so the snapshot
        // position recorded below matches the push and id assignment stays
        // aligned with creation order.
        let mut by_name = self.by_name.write();
        if let Some(&idx) = by_name.get(name) {
            let existing = Arc::clone(&self.catalog.load()[idx]);
            return if existing.schema == schema {
                Ok(existing)
            } else {
                Err(PhoebeError::Config(format!(
                    "table '{name}' already exists with a different schema"
                )))
            };
        }
        let id = TableId(self.next_table_id.fetch_add(1, Ordering::Relaxed));
        let tree =
            BTree::create(Arc::clone(&self.pool), id, TreeKind::Table, Arc::clone(&self.metrics))?;
        let types: Vec<ColType> = schema.types().to_vec();
        let frozen =
            FrozenStore::create(&self.cfg.data_dir.join(format!("frozen_{}.db", id.raw())), types)?;
        let entry = Arc::new(TableEntry::new(id, name.to_owned(), schema.clone(), tree, frozen));
        let idx = self.catalog.len();
        self.catalog.push(Arc::clone(&entry));
        by_name.insert(name.to_owned(), idx);
        if persist {
            self.persist_ddl(ManifestEntry::Table { name: name.to_owned(), schema })?;
        }
        Ok(entry)
    }

    /// Create a secondary index over `key_cols` of `table`.
    ///
    /// Idempotent like [`Database::create_table`]: an existing index with
    /// the same name and definition is returned as-is.
    pub fn create_index(
        &self,
        table: &Arc<TableEntry>,
        name: &str,
        key_cols: Vec<usize>,
        unique: bool,
    ) -> Result<Arc<IndexEntry>> {
        self.create_index_inner(table, name, key_cols, unique, true)
    }

    fn create_index_inner(
        &self,
        table: &Arc<TableEntry>,
        name: &str,
        key_cols: Vec<usize>,
        unique: bool,
        persist: bool,
    ) -> Result<Arc<IndexEntry>> {
        let _by_name = self.by_name.write(); // serialize DDL (id order)
        if let Some(existing) = table.all_indexes().iter().find(|i| i.def.name == name) {
            return if existing.def.key_cols == key_cols && existing.def.unique == unique {
                Ok(Arc::clone(existing))
            } else {
                Err(PhoebeError::Config(format!(
                    "index '{name}' on '{}' already exists with a different definition",
                    table.name
                )))
            };
        }
        let id = TableId(self.next_table_id.fetch_add(1, Ordering::Relaxed));
        let tree =
            BTree::create(Arc::clone(&self.pool), id, TreeKind::Index, Arc::clone(&self.metrics))?;
        let entry = Arc::new(IndexEntry {
            id,
            def: IndexDef { name: name.to_owned(), key_cols: key_cols.clone(), unique },
            tree,
        });
        table.indexes.push(Arc::clone(&entry));
        if persist {
            self.persist_ddl(ManifestEntry::Index {
                table: table.name.clone(),
                name: name.to_owned(),
                unique,
                key_cols,
            })?;
        }
        Ok(entry)
    }

    /// Append a DDL op to the in-memory log and rewrite the on-disk
    /// manifest atomically.
    fn persist_ddl(&self, entry: ManifestEntry) -> Result<()> {
        let mut log = self.ddl_log.lock();
        log.push(entry);
        manifest::store(&self.cfg.data_dir, &log)
    }

    /// Rebuild the catalog from the on-disk manifest (recovery step 2).
    /// Re-runs the original DDL in creation order, so ids come out equal.
    fn load_manifest(self: &Arc<Self>) -> Result<()> {
        let entries = manifest::load(&self.cfg.data_dir)?;
        for entry in &entries {
            match entry {
                ManifestEntry::Table { name, schema } => {
                    self.create_table_inner(name, schema.clone(), false)?;
                }
                ManifestEntry::Index { table, name, unique, key_cols } => {
                    let t = self.table(table)?;
                    self.create_index_inner(&t, name, key_cols.clone(), *unique, false)?;
                }
            }
        }
        *self.ddl_log.lock() = entries;
        Ok(())
    }

    /// Look a table up by name.
    pub fn table(&self, name: &str) -> Result<Arc<TableEntry>> {
        let by_name = self.by_name.read();
        let idx = *by_name
            .get(name)
            .ok_or_else(|| PhoebeError::internal(format!("no table named '{name}'")))?;
        Ok(Arc::clone(&self.catalog.load()[idx]))
    }

    /// Look a table up by id (WAL replay, GC callbacks).
    pub fn table_by_id(&self, id: TableId) -> Result<Arc<TableEntry>> {
        self.catalog.load().iter().find(|t| t.id == id).cloned().ok_or(PhoebeError::NoSuchTable(id))
    }

    pub fn tables(&self) -> Vec<Arc<TableEntry>> {
        self.catalog.load().to_vec()
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Begin a transaction at `iso`. Inside the co-routine pool the current
    /// task slot is used; external threads check out a reserved slot.
    pub fn begin(self: &Arc<Self>, iso: IsolationLevel) -> Transaction {
        Transaction::start(Arc::clone(self), iso)
    }

    // ------------------------------------------------------------------
    // Garbage collection (§7.3)
    // ------------------------------------------------------------------

    /// The worker whose GC tick collects `slot`'s arena — every arena has
    /// exactly one: a pool slot belongs to the worker that runs it, and
    /// external slot `i` (flat index `workers × slots_per_worker + i`) to
    /// worker `i % workers`.
    fn gc_owner(&self, slot: usize) -> usize {
        let pool = self.cfg.total_slots();
        if slot < pool {
            slot / self.cfg.slots_per_worker
        } else {
            (slot - pool) % self.cfg.workers
        }
    }

    /// A worker's GC duty, once `gc_every_txns` transactions finished on
    /// slots it owns: one `GcEngine::collect_step` over its arenas (see
    /// [`Database::gc_owner`]) and its next registry shard.
    fn gc_tick(&self, worker: usize) {
        let duty = &self.gc_duty[worker];
        // ORDERING: a trigger count and a cursor only this worker moves;
        // nothing is published through either. External commits add to the
        // count concurrently, so the tick subtracts what it consumes rather
        // than storing 0 over a count that landed after the check.
        let every = self.cfg.gc_every_txns;
        if duty.txns_since.load(Ordering::Relaxed) < every {
            return;
        }
        duty.txns_since.fetch_sub(every, Ordering::Relaxed);
        let _t = self.metrics.timer(Component::Gc);
        let slots = (0..self.arenas.len()).filter(|&slot| self.gc_owner(slot) == worker);
        let shard = duty.next_shard.load(Ordering::Relaxed);
        duty.next_shard.store((shard + 1) % self.twins.shard_count(), Ordering::Relaxed);
        let min_active = self.active.min_active_start(self.clock.current());
        let stats = self.gc.collect_step(slots, [shard], min_active, |log| {
            self.physically_delete(log);
        });
        if stats.undo_reclaimed > 0 {
            self.metrics.add(Counter::UndoReclaimed, stats.undo_reclaimed as u64);
        }
    }

    /// Full GC: the tick's step over every arena and registry shard.
    pub fn collect_all(&self) -> GcStats {
        let min_active = self.active.min_active_start(self.clock.current());
        let stats = self.gc.collect_all(min_active, |log| {
            self.physically_delete(log);
        });
        self.metrics.add(Counter::UndoReclaimed, stats.undo_reclaimed as u64);
        stats
    }

    /// Unreclaimed UNDO logs across every arena (sampling path only).
    pub fn undo_backlog(&self) -> usize {
        self.gc.undo_backlog()
    }

    /// Physically remove a deleted tuple (and its index entries) once its
    /// deletion is globally visible (§7.3 "GC for deleted tuples").
    fn physically_delete(&self, log: &Arc<UndoLog>) {
        let Ok(table) = self.table_by_id(log.table) else {
            return;
        };
        match &log.op {
            UndoOp::Delete { row_image } => {
                let _ = table.tree.table_modify(log.row, |leaf, idx, _, _| {
                    leaf.mark_deleted(idx);
                });
                for index in table.all_indexes() {
                    let key = index.key_for(&table.schema, row_image, log.row);
                    let _ = index.tree.index_remove(&key);
                }
            }
            UndoOp::FrozenDelete { row_image } => {
                for index in table.all_indexes() {
                    let key = index.key_for(&table.schema, row_image, log.row);
                    let _ = index.tree.index_remove(&key);
                }
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Recovery (§8)
    // ------------------------------------------------------------------

    /// Replay a WAL directory into this kernel. The catalog must already
    /// contain the tables with the same creation order (catalog operations
    /// are not logged — the schema is application-defined, as with the
    /// paper's UDF-driven deployments). Returns replayed transaction count.
    ///
    /// `Database::open` runs this automatically on a directory with
    /// history; the public method remains for replaying a foreign log into
    /// a fresh kernel (diagnostics, log shipping).
    pub fn replay_wal(self: &Arc<Self>, dir: &std::path::Path) -> Result<usize> {
        let txns = recover_dir(dir)?;
        self.apply_recovered(&txns)?;
        Ok(txns.len())
    }

    /// Apply recovered transactions (already filtered to committed ones,
    /// sorted by cts) to the live tables.
    ///
    /// Two passes. Inserts go first, sorted by `(table, row)`: the PAX
    /// leaves require ascending row-id appends, and commit-timestamp order
    /// across concurrent writers does not follow row-id allocation order
    /// (a later-allocated row can commit first). Reordering inserts is
    /// safe — row ids are never reused and MVCC guarantees any update or
    /// delete of a row commits after the insert that created it — so the
    /// second pass replays updates/deletes in cts order on top and
    /// reproduces the admitted serial history exactly.
    fn apply_recovered(self: &Arc<Self>, txns: &[RecoveredTxn]) -> Result<()> {
        let mut inserts: Vec<_> = txns
            .iter()
            .flat_map(|t| t.ops.iter())
            .filter_map(|op| match op {
                RecordBody::Insert { table, row, tuple } => Some((*table, *row, tuple)),
                _ => None,
            })
            .collect();
        inserts.sort_by_key(|(table, row, _)| (*table, *row));
        for (table, row, tuple) in inserts {
            let t = self.table_by_id(table)?;
            t.bump_row_id(row);
            t.tree.table_append(&t.layout, row, tuple, |_, _, _, _| {})?;
            for index in t.all_indexes() {
                let key = index.key_for(&t.schema, tuple, row);
                index.tree.index_insert(&key, row)?;
            }
        }
        for txn in txns {
            for op in txn.ops.iter().cloned() {
                match op {
                    RecordBody::Insert { .. } => {}
                    RecordBody::Update { table, row, delta } => {
                        let t = self.table_by_id(table)?;
                        t.tree.table_modify(row, |leaf, idx, _, _| {
                            for (col, v) in &delta {
                                leaf.write_col(&t.layout, idx, *col as usize, v);
                            }
                        })?;
                    }
                    RecordBody::Delete { table, row } => {
                        let t = self.table_by_id(table)?;
                        // Frozen rows: tombstone; hot rows: physical remove.
                        if row.raw() <= t.frozen.max_frozen_row_id() {
                            t.frozen.mark_deleted(row);
                            continue;
                        }
                        let image = t
                            .tree
                            .table_read(row, |leaf, idx, _, _| leaf.read_row(&t.layout, idx))?;
                        if let Some(image) = image {
                            t.tree.table_modify(row, |leaf, idx, _, _| {
                                leaf.mark_deleted(idx);
                            })?;
                            for index in t.all_indexes() {
                                let key = index.key_for(&t.schema, &image, row);
                                let _ = index.tree.index_remove(&key);
                            }
                        }
                    }
                    RecordBody::Begin | RecordBody::Commit { .. } | RecordBody::Abort => {}
                }
            }
        }
        Ok(())
    }

    /// Re-log recovered history into the fresh WAL and flush it durable
    /// (recovery step 3). Without this, deleting `wal.recovering/` would
    /// leave the recovered rows with no durable copy anywhere — the kernel
    /// has no checkpoint, the log *is* the database.
    ///
    /// Everything goes to slot 0 with a constant GSN: within one writer
    /// the LSN preserves append order, and we append in cts order, so a
    /// subsequent recovery reassembles the same history.
    fn relog_recovered(&self, txns: &[RecoveredTxn]) -> Result<()> {
        for t in txns {
            self.wal.log_op(0, t.xid, 1, RecordBody::Begin);
            for op in &t.ops {
                self.wal.log_op(0, t.xid, 1, op.clone());
            }
            self.wal.log_op(0, t.xid, 1, RecordBody::Commit { cts: t.cts });
        }
        self.wal.flush_all()?;
        Ok(())
    }

    /// Convenience for tests/diagnostics: count visible rows of a table by
    /// scanning leaves + the frozen store.
    pub fn approximate_row_count(&self, table: &Arc<TableEntry>) -> Result<usize> {
        let mut n = 0usize;
        table.tree.table_for_each_leaf(|_, leaf| {
            n += leaf.live_rows();
            true
        })?;
        table.frozen.scan(|_, _| {
            n += 1;
            true
        })?;
        Ok(n)
    }
}

impl Drop for Database {
    fn drop(&mut self) {
        self.stop_observability();
        if let Some(rt) = self.runtime.write().take() {
            rt.shutdown();
        }
        self.wal.shutdown();
        self.export_trace_on_shutdown();
    }
}

/// Helper for examples and tests: a `Value` vector from mixed literals.
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        vec![$(phoebe_storage::schema::Value::from($v)),*]
    };
}
