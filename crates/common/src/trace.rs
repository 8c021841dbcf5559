//! The kernel flight recorder: lock-free per-worker event rings with
//! Chrome trace-event / Perfetto JSON export.
//!
//! Aggregate histograms ([`crate::hist`]) answer *how long* an operation
//! took; the flight recorder answers *where a task sat* — the event-level
//! timeline that scheduler and group-commit diagnosis needs. Every
//! subsystem emits compact 32-byte binary events into a fixed-capacity
//! ring per worker (plus one for external threads, mirroring the metric
//! shards). Rings overwrite their oldest entries, so the recorder always
//! holds the most recent window of kernel history and never allocates or
//! blocks on the hot path.
//!
//! Overhead contract: with tracing disabled, every emit site costs exactly
//! one relaxed atomic load (the [`Tracer::enabled`] check) — no branches
//! into ring code, no timestamps taken. Enabled, an emit is one
//! monotonic-clock read ([`Tracer::instant`]; [`Tracer::span`] reuses the
//! caller's), one relaxed `fetch_add` to claim a ring index, four relaxed
//! word stores and one release store of the slot sequence. The events of
//! the latency sites come from [`crate::metrics::Metrics::probe`], which
//! writes the histogram sample and the ring event from one duration.
//!
//! Drain semantics: [`Tracer::drain`] walks each ring from oldest to
//! newest and keeps only slots whose sequence number matches the claimed
//! index — an entry being overwritten mid-read is simply skipped, so a
//! drain concurrent with emission loses torn entries instead of producing
//! garbage. Draining does not consume: the rings keep filling.

use crate::metrics::current_worker;
use crate::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::fmt;
use std::time::Instant;

/// Event kinds emitted across the kernel. The discriminant is stored in
/// the packed event word, so variants are append-only. Each kind's name,
/// track and shape live in one row of `KINDS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum EventKind {
    /// A co-routine was submitted to the scheduler (instant).
    TaskSpawn = 1,
    /// One poll of a seated co-routine (span; `a` = duration ns).
    TaskPoll = 2,
    /// A seated co-routine ran to completion (instant).
    TaskDone = 3,
    /// A co-routine yielded (instant; `a` = 0 high urgency, 1 low).
    Yield = 4,
    /// The worker parked with nothing runnable (span; `a` = duration ns).
    Park = 5,
    /// The worker woke from a park (instant).
    Unpark = 6,
    /// Global-queue depth sampled at steal time (counter; `a` = depth).
    QueueDepth = 7,
    /// Transaction began (instant; `b` = xid).
    TxnBegin = 8,
    /// Transaction committed (span; `a` = duration ns, `b` = xid).
    TxnCommit = 9,
    /// Transaction rolled back (span; `a` = duration ns, `b` = xid).
    TxnAbort = 10,
    /// Stall on another writer's tuple lock (span; `b` = xid).
    LockWait = 11,
    /// Cold page fault: Data Page File read (span; `b` = page id).
    BufferFault = 12,
    /// Page eviction: write-back + unswizzle (span; `b` = the disk page id
    /// the frame's image went to, as a later `BufferFault` for it names).
    Eviction = 13,
    /// Optimistic latch validation failed, descent restarted (instant;
    /// `a` = wasted descent time ns).
    LatchRestart = 14,
    /// One group-commit round (span; `a` = duration ns, `b` = bytes).
    GroupCommitBatch = 15,
    /// One segment's gathered write→fdatasync, from the start of its round
    /// (span; `slot` = segment index, `b` = bytes).
    FlushWave = 16,
    /// WAL replay at `Database::open` (span; `b` = records replayed).
    RecoveryReplay = 17,
    /// One interleaved multi-key batch (span; `a` = duration ns,
    /// `b` = key count).
    BatchGet = 18,
}

/// The four per-worker tracks in the exported timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Track {
    Sched = 0,
    Txn = 1,
    Storage = 2,
    Wal = 3,
}

const TRACK_NAMES: [&str; 4] = ["sched", "txn", "storage", "wal"];

/// Spans carry a duration in `a` and start at `ts_ns`; everything else is
/// an instant or a counter sample at `ts_ns`.
const SPAN: bool = true;
const INSTANT: bool = false;

/// Every kind's stable display name (the Chrome trace event `name`),
/// Perfetto track and shape. Row `i` describes discriminant `i + 1`
/// (checked at compile time below).
const KINDS: [(EventKind, &str, Track, bool); 18] = [
    (EventKind::TaskSpawn, "spawn", Track::Sched, INSTANT),
    (EventKind::TaskPoll, "poll", Track::Sched, SPAN),
    (EventKind::TaskDone, "task_done", Track::Sched, INSTANT),
    (EventKind::Yield, "yield", Track::Sched, INSTANT),
    (EventKind::Park, "park", Track::Sched, SPAN),
    (EventKind::Unpark, "unpark", Track::Sched, INSTANT),
    (EventKind::QueueDepth, "global_queue_depth", Track::Sched, INSTANT),
    (EventKind::TxnBegin, "txn_begin", Track::Txn, INSTANT),
    (EventKind::TxnCommit, "commit", Track::Txn, SPAN),
    (EventKind::TxnAbort, "abort", Track::Txn, SPAN),
    (EventKind::LockWait, "lock_wait", Track::Txn, SPAN),
    (EventKind::BufferFault, "buffer_fault", Track::Storage, SPAN),
    (EventKind::Eviction, "eviction", Track::Storage, SPAN),
    (EventKind::LatchRestart, "latch_restart", Track::Storage, INSTANT),
    (EventKind::GroupCommitBatch, "group_commit", Track::Wal, SPAN),
    (EventKind::FlushWave, "flush_wave", Track::Wal, SPAN),
    (EventKind::RecoveryReplay, "recovery_replay", Track::Wal, SPAN),
    (EventKind::BatchGet, "batch_get", Track::Storage, SPAN),
];

const _: () = {
    let mut i = 0;
    while i < KINDS.len() {
        assert!(KINDS[i].0 as usize == i + 1, "KINDS rows must follow discriminant order");
        i += 1;
    }
};

impl EventKind {
    fn row(self) -> &'static (EventKind, &'static str, Track, bool) {
        &KINDS[self as usize - 1]
    }

    /// Stable display name (the Chrome trace event `name` field).
    pub fn name(self) -> &'static str {
        self.row().1
    }

    fn from_u16(v: u16) -> Option<EventKind> {
        KINDS.get(usize::from(v).checked_sub(1)?).map(|row| row.0)
    }

    /// Which per-worker Perfetto track this kind renders on.
    fn track(self) -> Track {
        self.row().2
    }

    fn is_span(self) -> bool {
        self.row().3
    }
}

/// One recorded event: exactly 32 bytes, packed into four `u64` words in
/// the ring so concurrent access is plain atomics (no `UnsafeCell`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct TraceEvent {
    /// Nanoseconds since the tracer's epoch.
    pub ts_ns: u64,
    /// Kind-specific payload (span duration, queue depth, urgency).
    pub a: u64,
    /// Kind-specific payload (xid, page id, byte count).
    pub b: u64,
    /// Task-slot index on the emitting worker (0 when not slot-scoped).
    pub slot: u32,
    /// Discriminant of [`EventKind`].
    pub kind: u16,
    _pad: u16,
}

const _: () = assert!(std::mem::size_of::<TraceEvent>() == 32, "TraceEvent must stay 32 bytes");

impl TraceEvent {
    /// The decoded kind, or `None` for a corrupt/unknown discriminant
    /// (possible only if a torn slot slipped past the sequence check).
    pub fn kind(&self) -> Option<EventKind> {
        EventKind::from_u16(self.kind)
    }

    fn pack(&self) -> [u64; 4] {
        [self.ts_ns, self.a, self.b, ((self.slot as u64) << 32) | self.kind as u64]
    }

    fn unpack(w: [u64; 4]) -> TraceEvent {
        TraceEvent {
            ts_ns: w[0],
            a: w[1],
            b: w[2],
            slot: (w[3] >> 32) as u32,
            kind: w[3] as u16,
            _pad: 0,
        }
    }
}

/// One ring slot: a per-slot seqlock over the packed event words. `seq`
/// is `index + 1` of the event the words hold, 0 while never written, and
/// [`SLOT_BUSY`] from the moment a writer takes the slot until it
/// publishes — so a reader accepts the words only when `seq` matched the
/// index it expects both before and after reading them, which filters
/// slots that are empty, mid-write, or already overwritten by a later lap.
struct RingSlot {
    seq: AtomicU64,
    w: [AtomicU64; 4],
}

/// `RingSlot::seq` while a writer owns the slot's words.
const SLOT_BUSY: u64 = u64::MAX;

impl Default for RingSlot {
    fn default() -> Self {
        RingSlot { seq: AtomicU64::new(0), w: Default::default() }
    }
}

/// A fixed-capacity, lock-free, overwrite-on-wrap event ring.
pub struct TraceRing {
    head: AtomicU64,
    mask: u64,
    slots: Box<[RingSlot]>,
}

impl TraceRing {
    fn new(capacity: usize) -> TraceRing {
        let cap = capacity.max(2).next_power_of_two();
        let mut slots = Vec::with_capacity(cap);
        slots.resize_with(cap, RingSlot::default);
        TraceRing { head: AtomicU64::new(0), mask: cap as u64 - 1, slots: slots.into_boxed_slice() }
    }

    #[inline]
    fn emit(&self, ev: &TraceEvent) {
        // ORDERING: the claim only needs atomicity to hand out unique
        // indices; the slot's own `seq` protocol below orders the words.
        let idx = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(idx & self.mask) as usize];
        // Take the slot before touching its words, so that neither a
        // drain nor a writer a whole lap away (this one, or the other,
        // having been descheduled mid-emit) can see or produce a mix of
        // two events. Losing that race means the ring has already moved
        // a lap past this event: it is dropped, like any overwritten one.
        // ORDERING: relaxed peek; the CAS re-validates it.
        let cur = slot.seq.load(Ordering::Relaxed);
        if cur == SLOT_BUSY
            || cur > idx + 1
            || slot
                .seq
                .compare_exchange(cur, SLOT_BUSY, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            return;
        }
        // Seqlock writer side: BUSY must be visible before any new word
        // (pairs with the acquire fence in `drain`).
        fence(Ordering::Release);
        let w = ev.pack();
        for (dst, src) in slot.w.iter().zip(w) {
            // ORDERING: published by the release store of `seq` below.
            dst.store(src, Ordering::Relaxed);
        }
        slot.seq.store(idx + 1, Ordering::Release);
    }

    /// Collect the ring's current contents, oldest first. Entries being
    /// overwritten concurrently are skipped, never torn.
    fn drain(&self, out: &mut Vec<TraceEvent>) {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.mask + 1;
        let start = head.saturating_sub(cap);
        for idx in start..head {
            let slot = &self.slots[(idx & self.mask) as usize];
            if slot.seq.load(Ordering::Acquire) != idx + 1 {
                continue;
            }
            // ORDERING: seqlock reader side. The relaxed word loads sit
            // between the acquire load above and the acquire fence below;
            // a writer overwriting the slot marks it busy (then fences)
            // before its first word store, so if any load saw a new word
            // the re-check sees a changed `seq` and the read is dropped.
            let w = [
                slot.w[0].load(Ordering::Relaxed),
                slot.w[1].load(Ordering::Relaxed),
                slot.w[2].load(Ordering::Relaxed),
                slot.w[3].load(Ordering::Relaxed),
            ];
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != idx + 1 {
                continue;
            }
            out.push(TraceEvent::unpack(w));
        }
    }

    /// Total events ever emitted into this ring (including overwritten).
    pub fn emitted(&self) -> u64 {
        // ORDERING: a monotonic statistic; staleness is acceptable.
        self.head.load(Ordering::Relaxed)
    }
}

/// The kernel's flight-recorder handle: one event ring per worker plus one
/// for external threads (the same sharding as [`crate::metrics::Metrics`]).
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    rings: Box<[TraceRing]>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .field("rings", &self.rings.len())
            .finish()
    }
}

impl Tracer {
    /// A recorder for `workers` pool threads with `ring_capacity` events
    /// per ring (rounded up to a power of two).
    pub fn new(workers: usize, ring_capacity: usize) -> Tracer {
        let rings = (0..workers + 1).map(|_| TraceRing::new(ring_capacity)).collect();
        Tracer { enabled: AtomicBool::new(true), epoch: Instant::now(), rings }
    }

    /// The zero-overhead stand-in installed when tracing is off: every
    /// emit site pays one relaxed load and returns.
    pub fn disabled() -> Tracer {
        Tracer { enabled: AtomicBool::new(false), epoch: Instant::now(), rings: Box::new([]) }
    }

    /// Whether events are being recorded — one relaxed atomic load.
    #[inline]
    pub fn enabled(&self) -> bool {
        // ORDERING: the flag is set once at construction and never guards
        // other memory; relaxed keeps the disabled-path cost to one load.
        self.enabled.load(Ordering::Relaxed)
    }

    /// Worker count this tracer shards over (rings minus the external one).
    pub fn workers(&self) -> usize {
        self.rings.len().saturating_sub(1)
    }

    /// Nanoseconds since the tracer's epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    fn ring(&self) -> &TraceRing {
        let last = self.rings.len() - 1;
        let idx = current_worker().unwrap_or(last);
        &self.rings[if idx < last { idx } else { last }]
    }

    /// Record an instantaneous event on the calling thread's ring.
    #[inline]
    pub fn instant(&self, kind: EventKind, slot: u32, a: u64, b: u64) {
        if !self.enabled() {
            return;
        }
        self.ring().emit(&TraceEvent {
            ts_ns: self.now_ns(),
            a,
            b,
            slot,
            kind: kind as u16,
            _pad: 0,
        });
    }

    /// Record an event from clock reads the caller already made: a span
    /// from `start` to `end`, or for an instant kind a mark at `end`;
    /// either way `a` = the duration. Reads no clock itself.
    #[inline]
    pub fn span(&self, kind: EventKind, slot: u32, start: Instant, end: Instant, b: u64) {
        if !self.enabled() {
            return;
        }
        let at = if kind.is_span() { start } else { end };
        self.ring().emit(&TraceEvent {
            ts_ns: at.saturating_duration_since(self.epoch).as_nanos() as u64,
            a: end.saturating_duration_since(start).as_nanos() as u64,
            b,
            slot,
            kind: kind as u16,
            _pad: 0,
        });
    }

    /// Snapshot every ring: `(worker_index, events)` with the external
    /// ring reported as `workers()`. Events are oldest-first per ring.
    pub fn drain(&self) -> Vec<(usize, Vec<TraceEvent>)> {
        let mut out = Vec::with_capacity(self.rings.len());
        for (i, ring) in self.rings.iter().enumerate() {
            let mut events = Vec::new();
            ring.drain(&mut events);
            out.push((i, events));
        }
        out
    }

    /// Total events emitted across all rings (including overwritten ones).
    pub fn total_emitted(&self) -> u64 {
        self.rings.iter().map(|r| r.emitted()).sum()
    }

    /// Export the current ring contents as Chrome trace-event JSON
    /// (loadable at `ui.perfetto.dev` or `chrome://tracing`).
    ///
    /// Layout: one process, four named threads per worker —
    /// `worker{N}/sched`, `/txn`, `/storage`, `/wal` — plus `external/*`
    /// for non-pool threads. Spans render as complete (`"X"`) events,
    /// yields and restarts as instants (`"i"`), queue depth and
    /// group-commit batch bytes as counter (`"C"`) tracks.
    pub fn export_chrome_json(&self) -> String {
        let drained = self.drain();
        let workers = self.workers();
        let mut out = String::with_capacity(64 * 1024);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        let push = |out: &mut String, first: &mut bool, ev: String| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(&ev);
        };
        push(
            &mut out,
            &mut first,
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"phoebedb\"}}"
                .to_string(),
        );
        // Thread-name metadata: one row per (ring, track) that has events.
        let mut used = vec![[false; 4]; self.rings.len()];
        for (ring, events) in &drained {
            for ev in events {
                if let Some(kind) = ev.kind() {
                    used[*ring][kind.track() as usize] = true;
                }
            }
        }
        for (ring, tracks) in used.iter().enumerate() {
            let who = if ring < workers { format!("worker{ring}") } else { "external".to_string() };
            for (t, used) in tracks.iter().enumerate() {
                if !used {
                    continue;
                }
                let tid = ring * 4 + t;
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                         \"args\":{{\"name\":\"{who}/{}\"}}}}",
                        TRACK_NAMES[t]
                    ),
                );
            }
        }
        // Events, merged and sorted by timestamp for a deterministic file.
        let mut all: Vec<(usize, TraceEvent)> = Vec::new();
        for (ring, events) in drained {
            all.extend(events.into_iter().map(|e| (ring, e)));
        }
        all.sort_by_key(|(_, e)| e.ts_ns);
        for (ring, ev) in &all {
            let Some(kind) = ev.kind() else { continue };
            let tid = ring * 4 + kind.track() as usize;
            let ts = ev.ts_ns as f64 / 1_000.0; // Chrome wants microseconds
            match kind {
                EventKind::QueueDepth => {
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"name\":\"global_queue_depth\",\"ph\":\"C\",\"pid\":1,\
                             \"tid\":{tid},\"ts\":{ts:.3},\"args\":{{\"depth\":{}}}}}",
                            ev.a
                        ),
                    );
                }
                EventKind::Yield => {
                    let urgency = if ev.a == 0 { "high" } else { "low" };
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"name\":\"yield\",\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\
                             \"ts\":{ts:.3},\"s\":\"t\",\"args\":{{\"slot\":{},\
                             \"urgency\":\"{urgency}\"}}}}",
                            ev.slot
                        ),
                    );
                }
                k if k.is_span() => {
                    let dur = ev.a as f64 / 1_000.0;
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
                             \"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":{{\"slot\":{},\
                             \"b\":{}}}}}",
                            k.name(),
                            ev.slot,
                            ev.b
                        ),
                    );
                    // Batch sizes double as a counter track so the Perfetto
                    // timeline shows group-commit batching pressure.
                    if kind == EventKind::GroupCommitBatch {
                        push(
                            &mut out,
                            &mut first,
                            format!(
                                "{{\"name\":\"wal_batch_bytes\",\"ph\":\"C\",\"pid\":1,\
                                 \"tid\":{tid},\"ts\":{ts:.3},\"args\":{{\"bytes\":{}}}}}",
                                ev.b
                            ),
                        );
                    }
                }
                k => {
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"name\":\"{}\",\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\
                             \"ts\":{ts:.3},\"s\":\"t\",\"args\":{{\"slot\":{},\
                             \"b\":{}}}}}",
                            k.name(),
                            ev.slot,
                            ev.b
                        ),
                    );
                }
            }
        }
        out.push_str("]}");
        out
    }

    /// Export to a file (see [`Tracer::export_chrome_json`]).
    pub fn write_chrome_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.export_chrome_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_is_exactly_32_bytes() {
        assert_eq!(std::mem::size_of::<TraceEvent>(), 32);
    }

    #[test]
    fn pack_unpack_roundtrips() {
        let ev = TraceEvent {
            ts_ns: u64::MAX - 7,
            a: 42,
            b: u64::MAX,
            slot: 0xDEAD_BEEF,
            kind: EventKind::GroupCommitBatch as u16,
            _pad: 0,
        };
        assert_eq!(TraceEvent::unpack(ev.pack()), ev);
        assert_eq!(ev.kind(), Some(EventKind::GroupCommitBatch));
    }

    #[test]
    fn every_kind_roundtrips_through_u16() {
        for &(kind, ..) in &KINDS {
            assert_eq!(EventKind::from_u16(kind as u16), Some(kind), "{kind:?}");
        }
        assert_eq!(EventKind::from_u16(0), None);
        assert_eq!(EventKind::from_u16(KINDS.len() as u16 + 1), None);
        assert_eq!(EventKind::from_u16(999), None);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        t.instant(EventKind::Yield, 0, 1, 0);
        let now = Instant::now();
        t.span(EventKind::TxnCommit, 0, now, now, 0);
        assert_eq!(t.total_emitted(), 0);
        assert!(t.drain().iter().all(|(_, evs)| evs.is_empty()));
    }

    #[test]
    fn span_stamps_start_and_instant_stamps_end() {
        let t = Tracer::new(1, 16);
        let start = Instant::now();
        let end = start + std::time::Duration::from_micros(5);
        t.span(EventKind::TxnCommit, 2, start, end, 7);
        t.span(EventKind::LatchRestart, 0, start, end, 0);
        let (_, events) = &t.drain()[t.workers()];
        assert_eq!(events[0].a, 5_000);
        assert_eq!(events[1].a, 5_000);
        assert_eq!(events[1].ts_ns - events[0].ts_ns, 5_000, "instant sits at the end");
        assert_eq!((events[0].slot, events[0].b), (2, 7));
    }

    #[test]
    fn export_is_valid_shape_and_sorted() {
        let t = Tracer::new(1, 16);
        t.instant(EventKind::QueueDepth, 0, 3, 0);
        let now = Instant::now();
        t.span(EventKind::TxnCommit, 2, now, now + std::time::Duration::from_micros(1), 7);
        t.instant(EventKind::Yield, 1, 0, 0);
        let json = t.export_chrome_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("global_queue_depth"));
        assert!(json.contains("\"urgency\":\"high\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert_eq!(json.matches("thread_name").count(), 2, "sched + txn tracks: {json}");
    }
}
