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
use phoebe_wal::{recover_dir_stats, sync_wal_files, RecordBody, RecoveredTxn, WalHub};
use std::collections::{HashMap, HashSet};
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
    /// Highest GSN on any scanned record, committed or not (must never
    /// exceed the last GSN the crashed incarnation issued); the new
    /// incarnation's GSNs start past it.
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
    /// The file layer every persistent file is created through: [`OsFs`],
    /// or `sim` when fault injection is on.
    fs: Arc<dyn FaultFs>,
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

/// Per-worker background duties (§7.1, Figure 6): the buffer partition's
/// page swaps (`BufferPool::page_swap_duty`, which runs when the partition's
/// free frames fall below its watermark), GC after every
/// `Database::GC_EVERY_TXNS` transactions on slots the worker owns — run on
/// the worker that owns the data — and the log's group-commit rounds: one
/// per tick once a backlog is a window old, and one whenever a worker
/// would park while a commit waits.
struct KernelHook {
    db: Weak<Database>,
}

impl WorkerHook for KernelHook {
    fn tick(&self, worker: usize) {
        let Some(db) = self.db.upgrade() else {
            return;
        };
        db.pool.page_swap_duty(worker);
        db.gc_tick(worker);
        db.wal.flush_if_due();
    }

    fn idle(&self, _worker: usize) -> bool {
        self.db.upgrade().is_some_and(|db| db.wal.lead_awaited_round())
    }
}

impl Database {
    /// Open a kernel: build the buffer pool, WAL hub, runtime and GC, wire
    /// the cross-layer hooks (write barrier, worker duties) — and, when the
    /// data directory holds a previous incarnation's WAL, replay every
    /// committed transaction before accepting new work.
    ///
    /// Recovery reads the log once and writes nothing to it:
    ///
    /// 1. Scan every WAL file under `wal/` in file order and reassemble
    ///    the committed transactions.
    /// 2. Sync every scanned file.
    /// 3. Rebuild the catalog from the manifest (creation order ⇒ same
    ///    table ids), replay the committed transactions in commit-timestamp
    ///    order, and advance the global clock past every scanned
    ///    timestamp.
    /// 4. Log into a new segment, its GSN clock past every scanned GSN.
    ///    The scanned files stay as they were: there is no checkpoint, so
    ///    they are the only durable copy of the history, and the next
    ///    recovery reads them again.
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

        // The durable image is plain files (even under SimFs the durable
        // layer is a real file), so recovery always reads the real fs.
        let wal_dir = cfg.data_dir.join("wal");
        std::fs::create_dir_all(&wal_dir)?;
        let recovery_start = Instant::now();
        let (recovered, scan) = recover_dir_stats(&wal_dir)?;
        // After a process crash the files can hold rounds that were written
        // but never synced. Replay builds on them, so they must be durable
        // before any new work depends on them.
        sync_wal_files(&wal_dir)?;
        let recovery = RecoveryInfo {
            txns: recovered.len(),
            max_cts: recovered.iter().map(|t| t.cts).max().unwrap_or(0),
            max_gsn: scan.max_gsn,
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
        // Every slot, the external ones included, logs into one new
        // segment: a group-commit round is one write and one sync. Its GSNs
        // start past the scanned ones, so they keep rising across
        // incarnations.
        let wal = WalHub::with_fs(
            &wal_dir,
            total_slots,
            Duration::from_micros(cfg.wal_group_commit_us),
            cfg.wal_sync,
            Arc::clone(&metrics),
            Arc::clone(&fs),
            recovery.max_gsn + 1,
        )?;
        pool.set_wal_barrier(wal.clone());
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
            fs,
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

        // Rebuild the catalog with the original creation order, then
        // replay committed history in cts order.
        db.load_manifest()?;
        db.apply_recovered(&recovered)?;
        // Past every start timestamp too, not just every cts: orphaned
        // records stay in the log, and a new transaction that reused an
        // orphan's xid would adopt its records at the next recovery.
        db.clock.advance_to(recovery.max_cts.max(scan.max_start_ts));
        if recovery.records > 0 {
            // Recovery is the one open-path latency a user actually waits
            // behind; book the end-to-end scan + sync + apply cost.
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
        let path = self.cfg.data_dir.join(format!("frozen_{}.db", id.raw()));
        let frozen = FrozenStore::create(self.fs.as_ref(), &path, types)?;
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
        let def = IndexDef { name: name.to_owned(), key_cols: key_cols.clone(), unique };
        def.check(table.id, &table.schema)?;
        let id = TableId(self.next_table_id.fetch_add(1, Ordering::Relaxed));
        let tree =
            BTree::create(Arc::clone(&self.pool), id, TreeKind::Index, Arc::clone(&self.metrics))?;
        let entry = Arc::new(IndexEntry { id, def, tree });
        table.add_index(Arc::clone(&entry));
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

    /// Transactions finished on a worker's slots between its GC steps
    /// (§7.1).
    const GC_EVERY_TXNS: u64 = 64;

    /// A worker's GC duty, once `GC_EVERY_TXNS` transactions finished on
    /// slots it owns: one `GcEngine::collect_step` over its arenas (see
    /// [`Database::gc_owner`]) and its next registry shard.
    fn gc_tick(&self, worker: usize) {
        let duty = &self.gc_duty[worker];
        // ORDERING: a trigger count and a cursor only this worker moves;
        // nothing is published through either. External commits add to the
        // count concurrently, so the tick subtracts what it consumes rather
        // than storing 0 over a count that landed after the check.
        if duty.txns_since.load(Ordering::Relaxed) < Self::GC_EVERY_TXNS {
            return;
        }
        duty.txns_since.fetch_sub(Self::GC_EVERY_TXNS, Ordering::Relaxed);
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

    /// Physically remove a deleted row once its deletion is globally
    /// visible (§7.3 "GC for deleted tuples"): a hot row's tuple and index
    /// entries, a frozen row's index entries that still map to it (its
    /// block keeps the tombstone; an update moved its keys already).
    fn physically_delete(&self, log: &Arc<UndoLog>) {
        let Ok(table) = self.table_by_id(log.table) else {
            return;
        };
        match &log.op {
            UndoOp::Delete { .. } => {
                let _ = table.remove_row(log.row);
            }
            UndoOp::FrozenDelete { row_image } => table.remove_index_entries(row_image, log.row),
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Recovery (§8)
    // ------------------------------------------------------------------

    /// Apply recovered transactions (already filtered to committed ones,
    /// sorted by cts) to the live tables.
    ///
    /// Two passes. Pass 1 appends the tuples of every logged insert,
    /// sorted by `(table, row)`: PAX leaves require ascending row-id
    /// appends, and cts order across concurrent writers does not follow
    /// row-id allocation order (a later-allocated row can commit first).
    /// Pass 2 replays each transaction's net effect in cts order through
    /// the row lifecycle of [`TableEntry`]: index entries for its inserts,
    /// column writes for its updates, tuple and index removal for its
    /// deletes. Index keys, unlike row ids, are reused — a unique key
    /// freed by a delete can be taken again — so index entries must follow
    /// the commit order that admitted them. A row one transaction both
    /// inserted and deleted (a compensated unique violation, or a delete
    /// of its own insert) was never seen by anyone else: it gets no tuple
    /// and no entries, only its row id.
    fn apply_recovered(self: &Arc<Self>, txns: &[RecoveredTxn]) -> Result<()> {
        let (mut born, mut stillborn) = (HashSet::new(), HashSet::new());
        for txn in txns {
            born.clear();
            for op in &txn.ops {
                match op {
                    RecordBody::Insert { table, row, .. } => _ = born.insert((*table, *row)),
                    RecordBody::Delete { table, row } if born.contains(&(*table, *row)) => {
                        stillborn.insert((*table, *row));
                    }
                    _ => {}
                }
            }
        }
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
            if !stillborn.contains(&(table, row)) {
                t.tree.table_append(&t.layout, row, tuple, |_, _, _, _| {})?;
            }
        }
        for op in txns.iter().flat_map(|t| t.ops.iter()) {
            match op {
                RecordBody::Insert { table, row, tuple }
                    if !stillborn.contains(&(*table, *row)) =>
                {
                    self.table_by_id(*table)?.add_index_entries(tuple, *row)?;
                }
                RecordBody::Update { table, row, delta } => {
                    let delta = delta.iter().map(|(c, v)| (*c as usize, v));
                    self.table_by_id(*table)?.write_cols(*row, delta)?;
                }
                RecordBody::Delete { table, row } if !stillborn.contains(&(*table, *row)) => {
                    self.table_by_id(*table)?.remove_row(*row)?;
                }
                RecordBody::Insert { .. } | RecordBody::Delete { .. } => {} // stillborn
                _ => {} // Begin, Commit, Abort and RoundEnd are not ops
            }
        }
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
        self.shutdown();
    }
}

/// Helper for examples and tests: a `Value` vector from mixed literals.
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        vec![$(phoebe_storage::schema::Value::from($v)),*]
    };
}
