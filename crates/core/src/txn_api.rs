//! The transaction API (§6): PostgreSQL-compatible snapshot isolation over
//! in-place updates with in-memory UNDO.
//!
//! A [`Transaction`] runs on one task slot (its co-routine's slot inside
//! the pool, or a checked-out external slot), which determines its UNDO
//! arena, WAL writer and tuple-lock slot. Reads never block: Algorithm 1
//! reconstructs the visible version from the twin table's chain. Writes
//! acquire the tuple claim under the leaf latch; a write-write conflict
//! waits on the holder's transaction-ID lock, then retries (read
//! committed) or aborts if the holder committed (repeatable read, §6.2).
//!
//! Writes to rows behind the `max_frozen_row_id` watermark are out of
//! place (§5.2): the frozen row is tombstoned and, for updates, the new
//! version is inserted hot under a fresh row id.

use crate::catalog::{IndexEntry, TableEntry};
use crate::db::Database;
use crate::row::Row;
use phoebe_common::error::{PhoebeError, Result};
use phoebe_common::hist::LatencySite;
use phoebe_common::ids::{RowId, Timestamp, Xid};
use phoebe_common::metrics::{Component, Counter};
use phoebe_common::trace::EventKind;
use phoebe_runtime::Urgency;
use phoebe_storage::schema::Value;
use phoebe_storage::{row_key, FrameId, PaxLayout, PaxLeaf};
use phoebe_txn::clock::Snapshot;
use phoebe_txn::locks::{IsolationLevel, TxnHandle, TxnOutcome};
use phoebe_txn::undo::{UndoLog, UndoOp};
use phoebe_txn::visibility::{resolve_visibility, Visibility};
use phoebe_wal::RecordBody;
use std::sync::Arc;
use std::task::Poll;
use std::time::{Duration, Instant};

/// Per-key delta closure for [`Transaction::multi_update_rmw`]:
/// `f(i, current_values)` returns the `(column, new_value)` pairs for
/// key `i`, evaluated under the leaf latch like
/// [`Transaction::update_rmw`]'s closure.
pub type BatchRmwFn<'a> = dyn Fn(usize, &[Value]) -> Vec<(usize, Value)> + Sync + 'a;

/// A read-modify-write delta function: given the current (conflict-resolved)
/// row image, produce the `(column, new_value)` pairs to apply.
pub type DeltaFn<'a> = dyn Fn(&[Value]) -> Vec<(usize, Value)> + Sync + 'a;

/// A latched write's content, built from the row under the latch: its
/// UNDO op, its WAL record, and the column writes to apply in place.
type BuiltWrite = (UndoOp, RecordBody, Vec<(usize, Value)>);

/// The tuple and chain head a read copies under the leaf latch.
type LatchedVersion = (Vec<Value>, Option<Arc<UndoLog>>);

/// Outcome of one latched write attempt.
enum WriteAttempt {
    /// The write landed; its UNDO log.
    Done(Arc<UndoLog>),
    /// Another transaction holds the tuple: wait on its ID lock.
    Wait(Arc<TxnHandle>),
    /// Repeatable read lost a write-write race to a committed writer.
    Conflict(Xid),
    /// The visible version is a deletion.
    Gone,
    /// The twin table died under us; refetch and retry.
    Retry,
}

/// An open transaction. Obtain via [`Database::begin`]; finish with
/// [`Transaction::commit`] or [`Transaction::abort`] (dropping an open
/// transaction rolls it back).
pub struct Transaction {
    db: Arc<Database>,
    slot: usize,
    external: bool,
    xid: Xid,
    start_ts: Timestamp,
    iso: IsolationLevel,
    snapshot: Snapshot,
    handle: Arc<TxnHandle>,
    undo: Vec<Arc<UndoLog>>,
    wal_begun: bool,
    finished: bool,
    /// Reusable row-id buffer for index scans: one transaction runs many
    /// scans (TPC-C order-status, stock-level), and this keeps the
    /// candidate collection allocation-free after the first.
    scan_scratch: Vec<RowId>,
}

impl Transaction {
    pub(crate) fn start(db: Arc<Database>, iso: IsolationLevel) -> Transaction {
        let (slot, external) = match phoebe_runtime::current_slot() {
            Some(id) => (id.flat(db.cfg.slots_per_worker), false),
            None => (db.checkout_external_slot(), true),
        };
        let (xid, start_ts) = db.clock.begin();
        // O(1) snapshot acquisition (§6.1): one atomic load.
        let snapshot = db.clock.snapshot();
        db.active.begin(slot, start_ts);
        db.metrics.tracer().instant(EventKind::TxnBegin, slot as u32, 0, xid.raw());
        let handle = TxnHandle::new(xid);
        Transaction {
            db,
            slot,
            external,
            xid,
            start_ts,
            iso,
            snapshot,
            handle,
            undo: Vec::new(),
            wal_begun: false,
            finished: false,
            scan_scratch: Vec::new(),
        }
    }

    pub fn xid(&self) -> Xid {
        self.xid
    }

    pub fn slot(&self) -> usize {
        self.slot
    }

    pub fn isolation(&self) -> IsolationLevel {
        self.iso
    }

    /// The snapshot governing the next statement: fixed for repeatable
    /// read, refreshed per statement for read committed (§6.1).
    fn stmt_snapshot(&mut self) -> Snapshot {
        if self.iso == IsolationLevel::ReadCommitted {
            self.snapshot = self.db.clock.snapshot();
        }
        self.snapshot
    }

    fn ensure_wal_begin(&mut self) {
        if !self.wal_begun {
            self.db.wal.log_op(self.slot, self.xid, 0, RecordBody::Begin);
            self.wal_begun = true;
        }
    }

    fn lock_timeout(&self) -> Duration {
        Duration::from_millis(self.db.cfg.lock_timeout_ms)
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Read the visible version of `row`, or `None` if no version is
    /// visible in this snapshot.
    pub fn read(&mut self, table: &Arc<TableEntry>, row: RowId) -> Result<Option<Row>> {
        Ok(self.read_values(table, row)?.map(|t| Row::new(Arc::clone(table), t)))
    }

    /// The positional-tuple read underneath [`Transaction::read`].
    pub fn read_values(
        &mut self,
        table: &Arc<TableEntry>,
        row: RowId,
    ) -> Result<Option<Vec<Value>>> {
        let snapshot = self.stmt_snapshot();
        // Frozen rows are globally visible by construction (§5.2).
        if row.raw() <= table.frozen.max_frozen_row_id() {
            return table.frozen.get(row);
        }
        let version = table.tree.table_read(row, self.latched_version(table, row))?;
        Ok(self.visible(version, snapshot))
    }

    /// The latched half of a row read: copy the tuple and load its chain
    /// head under the leaf latch the caller's descent holds.
    fn latched_version<'a>(
        &'a self,
        table: &'a TableEntry,
        row: RowId,
    ) -> impl FnOnce(&PaxLeaf, usize, RowId, FrameId) -> LatchedVersion + 'a {
        move |leaf, idx, first, _| {
            let tuple = leaf.read_row(&table.layout, idx);
            let head = self.db.twins.get((table.id, first)).and_then(|t| t.head(row));
            (tuple, head)
        }
    }

    /// The version of a [`Transaction::latched_version`] read that
    /// `snapshot` sees, resolved after the latch is gone. In-place
    /// Algorithm 1: rebuilds reassemble the before image inside the row
    /// buffer already materialized — no second allocation.
    fn visible(&self, version: Option<LatchedVersion>, snapshot: Snapshot) -> Option<Vec<Value>> {
        let (mut tuple, head) = version?;
        let Some(head) = head else { return Some(tuple) };
        let _t = self.db.metrics.timer(Component::Mvcc);
        match resolve_visibility(&mut tuple, Some(&head), self.xid, snapshot) {
            Visibility::Invisible => None,
            Visibility::Current | Visibility::Rebuilt => Some(tuple),
        }
    }

    /// Point lookup through a unique index, returning the row id and the
    /// visible tuple.
    pub fn lookup_unique(
        &mut self,
        table: &Arc<TableEntry>,
        index: &Arc<IndexEntry>,
        key: &[Value],
    ) -> Result<Option<(RowId, Row)>> {
        debug_assert!(index.def.unique, "lookup_unique on a non-unique index");
        let encoded = index.prefix_for(&table.schema, key)?;
        let Some(row) = index.tree.index_get(&encoded)? else {
            return Ok(None);
        };
        Ok(self.read(table, row)?.map(|t| (row, t)))
    }

    /// Collect up to `limit` visible rows whose index key starts with
    /// `prefix`, in key order.
    pub fn scan_index(
        &mut self,
        table: &Arc<TableEntry>,
        index: &Arc<IndexEntry>,
        prefix: &[Value],
        limit: usize,
    ) -> Result<Vec<(RowId, Row)>> {
        let (low, high) = index.range_for(&table.schema, prefix)?;
        let mut candidates = std::mem::take(&mut self.scan_scratch);
        candidates.clear();
        index.tree.index_range(&low, &high, |_, row| {
            candidates.push(row);
            true
        })?;
        let mut out = Vec::with_capacity(limit.min(candidates.len()));
        for &row in &candidates {
            if let Some(t) = self.read(table, row)? {
                out.push((row, t));
                if out.len() >= limit {
                    break;
                }
            }
        }
        self.scan_scratch = candidates;
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Batched (interleaved) operations
    // ------------------------------------------------------------------

    /// Read the visible versions of N rows, result `i` corresponding to
    /// `rows[i]` — semantically `rows.map(|r| read(r))` as one statement,
    /// but the descents run interleaved: each B-Tree hop prefetches the
    /// next node and suspends, and cold pages fault in the background
    /// loader, so one descent's stall is hidden behind its siblings.
    ///
    /// Being *one statement* is visible under ReadCommitted: the whole
    /// batch resolves against a single statement snapshot, whereas N
    /// separate `read` statements would each take a fresh snapshot and
    /// could observe commits that land mid-loop. Under snapshot
    /// isolation the two shapes see identical data.
    pub async fn multi_get(
        &mut self,
        table: &Arc<TableEntry>,
        rows: &[RowId],
    ) -> Result<Vec<Option<Row>>> {
        let t0 = Instant::now();
        let snapshot = self.stmt_snapshot();
        let tuples = self.multi_get_inner(table, rows, snapshot).await?;
        self.note_batch(t0, rows.len());
        Ok(tuples.into_iter().map(|t| t.map(|t| Row::new(Arc::clone(table), t))).collect())
    }

    /// N unique-index point lookups, result `i` corresponding to
    /// `keys[i]` — `keys.map(|k| lookup_unique(k))` as one interleaved
    /// statement. Phase one interleaves the index descents, phase two
    /// interleaves the table reads for the hits. Like
    /// [`Transaction::multi_get`], the whole batch reads one statement
    /// snapshot (see there for the ReadCommitted implication).
    pub async fn multi_lookup(
        &mut self,
        table: &Arc<TableEntry>,
        index: &Arc<IndexEntry>,
        keys: &[Vec<Value>],
    ) -> Result<Vec<Option<(RowId, Row)>>> {
        debug_assert!(index.def.unique, "multi_lookup on a non-unique index");
        let t0 = Instant::now();
        let snapshot = self.stmt_snapshot();
        let encoded: Vec<Vec<u8>> =
            keys.iter().map(|k| index.prefix_for(&table.schema, k)).collect::<Result<_>>()?;
        let mut row_ids: Vec<Option<RowId>> = vec![None; keys.len()];
        drive_reads(
            encoded.iter().map(|k| index.tree.batch_cursor(k, false)).enumerate().collect(),
            |i, leaf| {
                row_ids[i] = leaf.index_get(&encoded[i])?;
                Ok(())
            },
        )
        .await?;
        // Phase two: fetch the visible versions of every hit, interleaved.
        let hits: Vec<(usize, RowId)> =
            row_ids.iter().enumerate().filter_map(|(i, r)| r.map(|r| (i, r))).collect();
        let hit_rows: Vec<RowId> = hits.iter().map(|&(_, r)| r).collect();
        let tuples = self.multi_get_inner(table, &hit_rows, snapshot).await?;
        let mut out: Vec<Option<(RowId, Row)>> = vec![None; keys.len()];
        for ((i, row), tuple) in hits.into_iter().zip(tuples) {
            out[i] = tuple.map(|t| (row, Row::new(Arc::clone(table), t)));
        }
        self.note_batch(t0, keys.len());
        Ok(out)
    }

    /// The interleaved heart of [`Transaction::multi_get`]: one snapshot
    /// for the whole batch (it is a single statement), frozen rows
    /// answered directly (globally visible, no descent), hot rows driven
    /// through resumable cursors.
    async fn multi_get_inner(
        &self,
        table: &Arc<TableEntry>,
        rows: &[RowId],
        snapshot: Snapshot,
    ) -> Result<Vec<Option<Vec<Value>>>> {
        let mut results: Vec<Option<Vec<Value>>> = vec![None; rows.len()];
        let watermark = table.frozen.max_frozen_row_id();
        let mut pending = Vec::with_capacity(rows.len());
        for (i, &row) in rows.iter().enumerate() {
            if row.raw() <= watermark {
                results[i] = table.frozen.get(row)?;
            } else {
                pending.push((i, table.tree.batch_cursor(&row_key(row), false)));
            }
        }
        let results_ref = &mut results;
        drive_reads(pending, |i, leaf| {
            let version = leaf.table_read(rows[i], self.latched_version(table, rows[i]))?;
            results_ref[i] = self.visible(version, snapshot);
            Ok(())
        })
        .await?;
        Ok(results)
    }

    /// Per-batch accounting: the `batch_get` probe and the depth counters
    /// (`batch_keys / batch_gets` = mean batch depth).
    fn note_batch(&self, t0: Instant, keys: usize) {
        self.db.metrics.incr(Counter::BatchGets);
        self.db.metrics.add(Counter::BatchKeys, keys as u64);
        self.db
            .metrics
            .probe_since(LatencySite::BatchGet, self.slot as u32, keys as u64, t0)
            .finish();
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// Insert a tuple; returns its fresh row id.
    ///
    /// The row id is drawn inside the rightmost leaf's latch (allocation
    /// order = append order, the monotonic-key invariant of §5.1), with the
    /// twin entry installed before the tuple becomes readable. Index
    /// entries follow; a unique violation compensates the append.
    pub async fn insert(&mut self, table: &Arc<TableEntry>, tuple: Vec<Value>) -> Result<RowId> {
        table.check_insert(&tuple)?;
        self.ensure_wal_begin();
        let db = Arc::clone(&self.db);
        let (xid, start_ts, slot) = (self.xid, self.start_ts, self.slot);
        let handle = Arc::clone(&self.handle);
        let mut new_log = None;
        let alloc = || table.next_row_id();
        let (row, _fid, _first) = table.tree.table_append_alloc(
            &table.layout,
            &alloc,
            &tuple,
            |_leaf, _idx, first, fid| {
                // Twin entry installed while the tuple is still invisible
                // to readers (we hold the leaf exclusively).
                let row = _leaf.row_id_at(_idx);
                let log =
                    UndoLog::new(table.id, row, first, UndoOp::Insert, Arc::clone(&handle), None);
                loop {
                    let twin = db.twins.get_or_create((table.id, first));
                    if twin.set_head(row, Arc::clone(&log), start_ts) {
                        break;
                    }
                }
                // WAL stamping (§8).
                db.wal.log_page_write(
                    &db.pool.frame(fid).meta,
                    slot,
                    xid,
                    RecordBody::Insert { table: table.id, row, tuple: tuple.clone() },
                );
                new_log = Some(log);
            },
        )?;
        let log = new_log.expect("append ran the callback");
        // A unique violation compensates the append so the transaction can
        // continue (statement-level atomicity).
        if let Err(e) = table.add_index_entries(&tuple, row) {
            // Physically retract the tuple and compensate in the WAL so
            // replay nets out.
            let _ = table.remove_tuple(row);
            if let Some(twin) = self.db.twins.get((table.id, log.page_key)) {
                twin.pop_head_if(row, &log);
            }
            log.invalidate();
            self.db.wal.log_op(self.slot, self.xid, 0, RecordBody::Delete { table: table.id, row });
            return Err(e);
        }
        self.db.arena(self.slot).push(Arc::clone(&log));
        self.undo.push(log);
        Ok(row)
    }

    /// Update columns of `row` in place with a precomputed delta. Returns
    /// the row id holding the new version — different from `row` only when
    /// a frozen row moved back to hot storage (§5.2).
    pub async fn update(
        &mut self,
        table: &Arc<TableEntry>,
        row: RowId,
        delta: &[(usize, Value)],
    ) -> Result<RowId> {
        self.update_rmw(table, row, &|_| delta.to_vec()).await.map(|(r, _)| r)
    }

    /// Atomic read-modify-write: `f` computes the delta from the row's
    /// current (conflict-resolved) version *under the leaf latch*, so
    /// counter increments like `d_next_o_id` never lose updates. Returns
    /// the new version's row id and the row `f` observed. A delta that
    /// writes a column an index reads is refused with `SchemaMismatch`
    /// before anything is written; the transaction stays usable.
    pub async fn update_rmw(
        &mut self,
        table: &Arc<TableEntry>,
        row: RowId,
        f: &DeltaFn<'_>,
    ) -> Result<(RowId, Vec<Value>)> {
        if row.raw() <= table.frozen.max_frozen_row_id() {
            return self.write_frozen_rmw(table, row, Some(f)).await;
        }
        let mut observed = None;
        self.write_row(table, row, |leaf, idx, layout| {
            let current = leaf.read_row(layout, idx);
            let delta = f(&current);
            table.check_update(&delta)?;
            let before = delta.iter().map(|(c, _)| (*c, current[*c].clone())).collect();
            let body = RecordBody::Update {
                table: table.id,
                row,
                delta: delta.iter().map(|(c, v)| (*c as u16, v.clone())).collect(),
            };
            observed = Some(current);
            Ok((UndoOp::Update { delta: before }, body, delta))
        })
        .await?;
        Ok((row, observed.expect("a finished write observed the row")))
    }

    /// N read-modify-writes as one statement: `f(i, current)` computes key
    /// `i`'s delta under the leaf latch, exactly like
    /// [`Transaction::update_rmw`] does for one row. Errors (row missing,
    /// write conflict) abort the batch with the same error the sequential
    /// loop would have hit. Returns `(new_row_id, observed_row)` per key.
    ///
    /// Two phases. First, read-mode descents for every key run interleaved
    /// (prefetch + background faults) — that is where the data stalls
    /// live, and it claims nothing. Then the writes apply *in batch order*
    /// over the now-hot paths, preserving the sequential loop's claim
    /// order exactly: interleaved claiming would let two transactions
    /// batching the same ascending keys deadlock against each other — a
    /// hazard the per-key loop cannot exhibit — so equivalence demands
    /// ordered writes.
    pub async fn multi_update_rmw(
        &mut self,
        table: &Arc<TableEntry>,
        rows: &[RowId],
        f: &BatchRmwFn<'_>,
    ) -> Result<Vec<(RowId, Vec<Value>)>> {
        let t0 = Instant::now();
        // Phase one: interleaved warm-up. Frozen rows skip it — their
        // write path is out-of-place (§5.2), not a table descent.
        let watermark = table.frozen.max_frozen_row_id();
        let pending: Vec<_> = rows
            .iter()
            .enumerate()
            .filter(|&(_, r)| r.raw() > watermark)
            .map(|(i, &row)| (i, table.tree.batch_cursor(&row_key(row), false)))
            .collect();
        // The leaf guard is dropped immediately: the warm-up only exists
        // to overlap the descents' misses.
        drive_reads(pending, |_, _| Ok(())).await?;
        // Phase two: ordered writes over hot paths.
        let mut out = Vec::with_capacity(rows.len());
        for (i, &row) in rows.iter().enumerate() {
            let g = |vals: &[Value]| f(i, vals);
            out.push(self.update_rmw(table, row, &g).await?);
        }
        self.note_batch(t0, rows.len());
        Ok(out)
    }

    /// Delete `row` (logical: the tuple stays until GC makes the deletion
    /// globally visible, §7.3).
    pub async fn delete(&mut self, table: &Arc<TableEntry>, row: RowId) -> Result<()> {
        if row.raw() <= table.frozen.max_frozen_row_id() {
            self.write_frozen_rmw(table, row, None).await?;
            return Ok(());
        }
        self.write_row(table, row, |leaf, idx, layout| {
            let image = leaf.read_row(layout, idx);
            Ok((
                UndoOp::Delete { row_image: image },
                RecordBody::Delete { table: table.id, row },
                Vec::new(),
            ))
        })
        .await
    }

    /// The latched write of `row` that [`Transaction::update_rmw`] and
    /// [`Transaction::delete`] share, retried until it lands or fails:
    /// each attempt runs [`write_under_latch`] with `build` under the
    /// leaf's exclusive latch, and an in-flight holder is waited out. The
    /// UNDO log of the write that lands joins the transaction.
    async fn write_row(
        &mut self,
        table: &Arc<TableEntry>,
        row: RowId,
        mut build: impl FnMut(&PaxLeaf, usize, &PaxLayout) -> Result<BuiltWrite>,
    ) -> Result<()> {
        self.ensure_wal_begin();
        loop {
            let mut ctx = self.write_ctx();
            let attempt = table
                .tree
                .table_modify(row, |leaf, idx, first, fid| {
                    write_under_latch(&mut ctx, table, row, leaf, idx, first, fid, &mut build)
                })?
                .transpose()?;
            match attempt {
                Some(WriteAttempt::Done(log)) => {
                    self.db.arena(self.slot).push(Arc::clone(&log));
                    self.undo.push(log);
                    return Ok(());
                }
                Some(WriteAttempt::Retry) => {}
                None | Some(WriteAttempt::Gone) => {
                    return Err(PhoebeError::RowNotFound { table: table.id, row })
                }
                Some(WriteAttempt::Conflict(holder)) => {
                    return Err(PhoebeError::WriteConflict { table: table.id, row, holder })
                }
                // Read committed retries against the newest version.
                Some(WriteAttempt::Wait(holder)) => self.wait_on_writer(table, row, holder).await?,
            }
        }
    }

    /// The per-transaction state [`write_under_latch`] needs, under this
    /// statement's snapshot.
    fn write_ctx(&mut self) -> WriteCtx<'_> {
        let snapshot = self.stmt_snapshot();
        WriteCtx {
            db: &self.db,
            xid: self.xid,
            start_ts: self.start_ts,
            slot: self.slot,
            iso: self.iso,
            snapshot,
            handle: &self.handle,
        }
    }

    /// Wait on a conflicting writer's transaction-ID lock, applying the
    /// isolation level's outcome rules (§6.2).
    async fn wait_on_writer(
        &mut self,
        table: &Arc<TableEntry>,
        row: RowId,
        holder: Arc<TxnHandle>,
    ) -> Result<()> {
        // The sleep is idle time, not lock-management instructions, so no
        // Figure-12 component is charged; the probe carries the full stall.
        let wait = self.db.metrics.probe(LatencySite::LockWait, self.slot as u32, holder.xid.raw());
        let outcome = holder.wait(self.lock_timeout()).await;
        wait.finish();
        match (self.iso, outcome?) {
            (IsolationLevel::RepeatableRead, TxnOutcome::Committed(_)) => {
                Err(PhoebeError::WriteConflict { table: table.id, row, holder: holder.xid })
            }
            _ => Ok(()), // aborted, or read committed: retry
        }
    }

    /// Out-of-place write against a frozen row (§5.2): tombstone it and,
    /// for updates, re-insert the new version hot under a fresh row id.
    async fn write_frozen_rmw(
        &mut self,
        table: &Arc<TableEntry>,
        row: RowId,
        f: Option<&DeltaFn<'_>>,
    ) -> Result<(RowId, Vec<Value>)> {
        self.ensure_wal_begin();
        let Some(image) = table.frozen.get(row)? else {
            return Err(PhoebeError::RowNotFound { table: table.id, row });
        };
        let delta = f.map(|f| f(&image));
        if let Some(delta) = &delta {
            table.check_update(delta)?;
        }
        table.frozen.mark_deleted(row);
        let log = UndoLog::new(
            table.id,
            row,
            RowId(0),
            UndoOp::FrozenDelete { row_image: image.clone() },
            Arc::clone(&self.handle),
            None,
        );
        self.db.wal.log_op(self.slot, self.xid, 0, RecordBody::Delete { table: table.id, row });
        self.db.arena(self.slot).push(Arc::clone(&log));
        self.undo.push(log);
        match delta {
            Some(delta) => {
                let mut new_tuple = image.clone();
                for (c, v) in &delta {
                    new_tuple[*c] = v.clone();
                }
                let new_row = self.insert(table, new_tuple).await?;
                Ok((new_row, image))
            }
            None => Ok((row, image)),
        }
    }

    // ------------------------------------------------------------------
    // Finish
    // ------------------------------------------------------------------

    /// Commit. Returns the commit timestamp. Waits for WAL durability when
    /// `wal_sync` is on (§8).
    pub async fn commit(mut self) -> Result<Timestamp> {
        debug_assert!(!self.finished);
        let t0 = Instant::now();
        let result = if self.undo.is_empty() && !self.wal_begun {
            // Read-only: nothing to stamp or flush.
            self.finish_common(TxnOutcome::Committed(self.start_ts));
            Ok(self.start_ts)
        } else {
            let cts = self.db.clock.commit_ts();
            // Log, then publish: whoever sees this transaction committed
            // stamps its own records at or above the Commit record, so a
            // crash that keeps their commit keeps this one too. Readers
            // that catch an unstamped ets learn the cts through the handle
            // (mid-commit bridge).
            let (_, gsn) = self.db.wal.log_op(self.slot, self.xid, 0, RecordBody::Commit { cts });
            self.handle.finish(TxnOutcome::Committed(cts));
            // Single scan over the grouped UNDO logs (§6.2).
            {
                let _t = self.db.metrics.timer(Component::Mvcc);
                for log in &self.undo {
                    log.stamp_commit(cts);
                }
            }
            let wal_result = self.db.wal.wait_commit(gsn).await;
            self.finish_slot_state();
            wal_result.map(|_| cts)
        };
        self.db.metrics.incr(Counter::Commits);
        // Commit latency includes the durability wait: it is what a client
        // of a synchronous commit observes.
        self.db
            .metrics
            .probe_since(LatencySite::Commit, self.slot as u32, self.xid.raw(), t0)
            .finish();
        result
    }

    /// Roll back: restore before images, unlink our chain heads, log the
    /// abort. Synchronous — rollback never waits on anyone.
    pub fn abort(mut self) {
        self.rollback();
    }

    fn rollback(&mut self) {
        if self.finished {
            return;
        }
        let t0 = Instant::now();
        for log in self.undo.iter().rev() {
            let Ok(table) = self.db.table_by_id(log.table) else {
                continue;
            };
            match &log.op {
                UndoOp::Update { delta } => {
                    let _ = table.write_cols(log.row, delta.iter().map(|(c, v)| (*c, v)));
                }
                UndoOp::Insert => {
                    let _ = table.remove_row(log.row);
                }
                UndoOp::Delete { .. } => {
                    // Logical delete: nothing physical happened yet.
                }
                UndoOp::FrozenDelete { .. } => {
                    table.frozen.unmark_deleted(log.row);
                }
            }
            if let Some(twin) = self.db.twins.get((log.table, log.page_key)) {
                twin.pop_head_if(log.row, log);
            }
            log.invalidate();
        }
        if self.wal_begun {
            self.db.wal.log_op(self.slot, self.xid, 0, RecordBody::Abort);
        }
        self.finish_common(TxnOutcome::Aborted);
        self.db.metrics.incr(Counter::Aborts);
        self.db
            .metrics
            .probe_since(LatencySite::Abort, self.slot as u32, self.xid.raw(), t0)
            .finish();
    }

    fn finish_common(&mut self, outcome: TxnOutcome) {
        self.handle.finish(outcome);
        self.finish_slot_state();
    }

    fn finish_slot_state(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.db.active.end(self.slot);
        self.db.note_txn_done(self.slot);
        if self.external {
            self.db.return_external_slot(self.slot);
        }
    }
}

impl Drop for Transaction {
    fn drop(&mut self) {
        if !self.finished {
            self.rollback();
        }
    }
}

/// The transaction-side inputs of one latched write: the [`Transaction`]
/// fields [`write_under_latch`] uses, and the statement's snapshot.
struct WriteCtx<'a> {
    db: &'a Arc<Database>,
    xid: Xid,
    start_ts: Timestamp,
    slot: usize,
    iso: IsolationLevel,
    snapshot: Snapshot,
    handle: &'a Arc<TxnHandle>,
}

/// The write body that runs under the leaf's exclusive latch: ets
/// handshake, tuple-lock claim, UNDO + twin install, WAL stamping and
/// the in-place column writes (§6.2, §8). An error from `build` (a
/// refused update) releases the tuple lock before anything is written.
#[allow(clippy::too_many_arguments)]
fn write_under_latch(
    ctx: &mut WriteCtx<'_>,
    table: &Arc<TableEntry>,
    row: RowId,
    leaf: &mut PaxLeaf,
    idx: usize,
    first: RowId,
    fid: FrameId,
    build: impl FnOnce(&PaxLeaf, usize, &PaxLayout) -> Result<BuiltWrite>,
) -> Result<WriteAttempt> {
    let db = ctx.db;
    // Lock-management work (Figure 12 "locking"): the ets
    // handshake, tuple-lock claim and outcome dispatch.
    let lock_timer = db.metrics.timer(Component::Lock);
    let twin = db.twins.get_or_create((table.id, first));
    let head = twin.head(row).filter(|h| h.is_valid());
    // Write-write handshake on the chain head's ets (§6.2).
    if let Some(h) = &head {
        let ets = h.ets();
        if Xid::is_xid(ets) && ets != ctx.xid.raw() {
            match h.writer.outcome() {
                None | Some(TxnOutcome::Aborted) => {
                    // In flight (or aborted but not yet rolled
                    // back): wait on the holder's ID lock.
                    return Ok(WriteAttempt::Wait(Arc::clone(&h.writer)));
                }
                Some(TxnOutcome::Committed(cts)) => {
                    if ctx.iso == IsolationLevel::RepeatableRead && !ctx.snapshot.sees(cts) {
                        return Ok(WriteAttempt::Conflict(h.writer.xid));
                    }
                    if matches!(h.op, UndoOp::Delete { .. }) {
                        return Ok(WriteAttempt::Gone);
                    }
                }
            }
        } else if !Xid::is_xid(ets) {
            if ctx.iso == IsolationLevel::RepeatableRead && !ctx.snapshot.sees(ets) {
                return Ok(WriteAttempt::Conflict(h.writer.xid));
            }
            if matches!(h.op, UndoOp::Delete { .. }) {
                return Ok(WriteAttempt::Gone);
            }
        } else if matches!(h.op, UndoOp::Delete { .. }) {
            // Our own earlier delete of this row.
            return Ok(WriteAttempt::Gone);
        }
    }
    // Tuple lock: claimed for the operation, released right after (§7.2).
    db.tuple_locks[ctx.slot].claim(table.id, row);
    drop(lock_timer);
    let _mvcc = db.metrics.timer(Component::Mvcc);
    let (op, wal_body, apply) = match build(leaf, idx, &table.layout) {
        Ok(built) => built,
        Err(e) => {
            db.tuple_locks[ctx.slot].release();
            return Err(e);
        }
    };
    let log = UndoLog::new(table.id, row, first, op, Arc::clone(ctx.handle), head.clone());
    if !twin.set_head(row, Arc::clone(&log), ctx.start_ts) {
        db.tuple_locks[ctx.slot].release();
        return Ok(WriteAttempt::Retry);
    }
    drop(_mvcc);
    // WAL + RFA (§8).
    db.wal.log_page_write(&db.pool.frame(fid).meta, ctx.slot, ctx.xid, wal_body);
    // In-place update (§5.2).
    for (c, v) in &apply {
        leaf.write_col(&table.layout, idx, *c, v);
    }
    db.tuple_locks[ctx.slot].release();
    Ok(WriteAttempt::Done(log))
}

/// Round-robin driver for a set of read-mode descent cursors: step each
/// live cursor once per pass, hand finished leaves to `on_leaf` (the leaf
/// guard lives only inside that call — it never crosses the yield), and
/// give up the worker between passes that delivered no leaf. A pass that
/// still made hops yields at [`Urgency::Prefetch`] (the wait is a
/// cache-line fill) and is re-polled next round. A pass where every
/// survivor waits on the fault service *parks*: the task leaves its waker
/// on its pending fault tickets and returns `Pending`, so the worker runs
/// its other slots or sleeps — the paper's asynchronous read that yields
/// the slot (§7.1) — and the first read to land wakes it.
async fn drive_reads<'t>(
    mut pending: Vec<(usize, phoebe_storage::DescentCursor<'t>)>,
    mut on_leaf: impl FnMut(usize, phoebe_storage::LatchedLeaf<'t>) -> Result<()>,
) -> Result<()> {
    use phoebe_storage::DescentStep;
    while !pending.is_empty() {
        let mut any_prefetch = false;
        let mut any_leaf = false;
        let mut i = 0;
        while i < pending.len() {
            match pending[i].1.step()? {
                DescentStep::Leaf(leaf) => {
                    let key_idx = pending[i].0;
                    on_leaf(key_idx, leaf)?;
                    pending.swap_remove(i);
                    any_leaf = true;
                }
                DescentStep::Prefetched => {
                    any_prefetch = true;
                    i += 1;
                }
                DescentStep::FaultPending => i += 1,
            }
        }
        // Siblings in this batch already fill each hop's prefetch window;
        // yield to *other* tasks only when a whole pass made no leaf
        // progress (everything prefetching or faulting). Yielding every
        // pass would hand the page-swap duty a window to re-latch parents
        // and invalidate every suspended cursor — a restart storm.
        if !pending.is_empty() && !any_leaf {
            // Every survivor waiting on the fault service: park on the
            // batch's own in-flight reads. With hops still to make, or
            // nothing of its own in flight (the fault budget was spent by
            // other batches), poll again next round — the latter is a
            // deliberate self-wake spin until frame backpressure exists
            // (DESIGN.md "What wakes each wait").
            if any_prefetch || !fault_landed(&pending).await {
                phoebe_runtime::yield_now(Urgency::Prefetch).await;
            }
        }
    }
    Ok(())
}

/// Park the task until one of `cursors`' in-flight faults completes.
/// Resolves `false` at once if none of them has a fault in flight.
async fn fault_landed(cursors: &[(usize, phoebe_storage::DescentCursor<'_>)]) -> bool {
    let mut parked = false;
    std::future::poll_fn(|cx| {
        if parked {
            return Poll::Ready(true);
        }
        // Any ticket may be the first to land, so the waker goes on all
        // of them before the task may sleep.
        let mut registered = false;
        for (_, cursor) in cursors {
            match cursor.register_fault_waker(cx.waker()) {
                // Landed since the pass looked, possibly before the waker
                // was there to be woken: do not wait.
                Some(true) => return Poll::Ready(true),
                Some(false) => registered = true,
                None => {}
            }
        }
        if !registered {
            return Poll::Ready(false);
        }
        parked = true;
        Poll::Pending
    })
    .await
}
