//! Flight-recorder ring properties: wraparound keeps the newest events,
//! concurrent emit under capacity loses nothing, the disabled tracer
//! records nothing, and a drain racing live writers never yields a torn
//! event.

use phoebe_common::trace::{EventKind, Tracer};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

#[test]
fn wraparound_overwrites_oldest_keeps_newest() {
    // One worker ring (unused) plus the external ring this thread hits.
    let tracer = Tracer::new(1, 8);
    for i in 0..20u64 {
        tracer.instant(EventKind::TxnBegin, 0, i, 0);
    }
    let drained = tracer.drain();
    let (_, events) = &drained[tracer.workers()];
    // Capacity 8: only the newest 8 of 20 survive, oldest first.
    assert_eq!(events.len(), 8);
    let got: Vec<u64> = events.iter().map(|e| e.a).collect();
    assert_eq!(got, (12..20).collect::<Vec<u64>>());
    assert_eq!(tracer.total_emitted(), 20);
}

#[test]
fn concurrent_emit_under_capacity_loses_nothing() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 256;
    // All plain threads share the external ring; keep total under capacity.
    let tracer = Arc::new(Tracer::new(1, 4096));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let tracer = Arc::clone(&tracer);
            thread::spawn(move || {
                for i in 0..PER_THREAD {
                    tracer.instant(EventKind::TxnCommit, t as u32, (t << 32) | i, 0);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let drained = tracer.drain();
    let (_, events) = &drained[tracer.workers()];
    assert_eq!(events.len(), (THREADS * PER_THREAD) as usize);
    // Every thread's full sequence must be present exactly once.
    for t in 0..THREADS {
        let mut mine: Vec<u64> =
            events.iter().filter(|e| e.a >> 32 == t).map(|e| e.a & u32::MAX as u64).collect();
        mine.sort_unstable();
        assert_eq!(mine, (0..PER_THREAD).collect::<Vec<u64>>(), "thread {t} lost events");
    }
}

#[test]
fn disabled_tracer_emits_nothing_anywhere() {
    let tracer = Tracer::disabled();
    assert!(!tracer.enabled());
    tracer.instant(EventKind::Yield, 3, 1, 2);
    let now = std::time::Instant::now();
    tracer.span(EventKind::TaskPoll, 0, now, now, 0);
    tracer.span(EventKind::LatchRestart, 0, now, now, 0);
    assert_eq!(tracer.total_emitted(), 0);
    assert!(tracer.drain().is_empty());
    // Export still yields a syntactically complete document.
    let json = tracer.export_chrome_json();
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
}

#[test]
fn drain_racing_live_writers_never_yields_torn_events() {
    let tracer = Arc::new(Tracer::new(1, 64));
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let tracer = Arc::clone(&tracer);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // Invariant under test: a == b in every emitted event, so a
                // torn read (half old slot, half new) is detectable.
                tracer.instant(EventKind::QueueDepth, 0, i, i);
                i += 1;
            }
        })
    };
    // The drains must race a *running* writer: on a small host all 200
    // finish before the spawned thread is first scheduled.
    while tracer.total_emitted() == 0 {
        thread::yield_now();
    }
    for _ in 0..200 {
        for (_, events) in tracer.drain() {
            for ev in &events {
                assert_eq!(ev.a, ev.b, "torn event surfaced from drain");
                assert_eq!(ev.kind(), Some(EventKind::QueueDepth));
            }
        }
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
    assert!(tracer.total_emitted() > 0);
}

/// The `/trace` endpoint property: snapshotting while multiple writers
/// emit full tilt must never yield a torn *or duplicated* event within a
/// snapshot, and must leave the rings consumable — a drain after the
/// race still returns a well-formed newest-window.
#[test]
fn live_snapshot_under_writers_is_untorn_unduplicated_and_leaves_rings_usable() {
    const WRITERS: u64 = 4;
    let tracer = Arc::new(Tracer::new(1, 128));
    let stop = Arc::new(AtomicBool::new(false));
    // Per-writer emit counts, so the drainer can tell who has run.
    let progress: Arc<Vec<AtomicU64>> = Arc::new((0..WRITERS).map(|_| AtomicU64::new(0)).collect());
    let writers: Vec<_> = (0..WRITERS)
        .map(|t| {
            let tracer = Arc::clone(&tracer);
            let stop = Arc::clone(&stop);
            let progress = Arc::clone(&progress);
            thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Tear detector: `b` is a function of `a`, and `a`
                    // encodes (writer, seq) so duplicates are detectable.
                    let a = (t << 48) | i;
                    tracer.instant(EventKind::QueueDepth, t as u32, a, a.wrapping_mul(31));
                    i += 1;
                    progress[t as usize].store(i, Ordering::Relaxed);
                }
                i
            })
        })
        .collect();
    let emitted_by = |t: usize| progress[t].load(Ordering::Relaxed);

    // With more writers than cores, 300 drains can finish before some
    // writer is first scheduled: start once every writer has emitted, and
    // keep draining until each has emitted again *during* the drains.
    while (0..WRITERS as usize).any(|t| emitted_by(t) == 0) {
        thread::yield_now();
    }
    let at_start: Vec<u64> = (0..WRITERS as usize).map(emitted_by).collect();
    let mut drains = 0;
    while drains < 300 || (0..WRITERS as usize).any(|t| emitted_by(t) == at_start[t]) {
        drains += 1;
        for (_, events) in tracer.drain() {
            let mut seen = std::collections::HashSet::with_capacity(events.len());
            for ev in &events {
                assert_eq!(ev.b, ev.a.wrapping_mul(31), "torn event in live snapshot");
                assert!(seen.insert(ev.a), "event {:#x} duplicated within one snapshot", ev.a);
            }
            // Within one writer's events the sequence must be strictly
            // increasing: overwrite-on-wrap may drop a prefix, never
            // reorder or replay.
            for t in 0..WRITERS {
                let mine: Vec<u64> = events
                    .iter()
                    .filter(|e| e.a >> 48 == t)
                    .map(|e| e.a & 0xffff_ffff_ffff)
                    .collect();
                assert!(mine.windows(2).all(|w| w[0] < w[1]), "writer {t} replayed events");
            }
        }
    }

    stop.store(true, Ordering::Relaxed);
    let emitted: Vec<u64> = writers.into_iter().map(|w| w.join().unwrap()).collect();
    assert!(emitted.iter().all(|&n| n > 0), "every writer made progress");

    // Rings must still be fully consumable after 300 racing snapshots: a
    // quiescent emit lands, and the final drain returns it untorn along
    // with a coherent newest-window of the race.
    let sentinel = (WRITERS << 48) | 0xbeef;
    tracer.instant(EventKind::QueueDepth, 9, sentinel, sentinel.wrapping_mul(31));
    let drained = tracer.drain();
    let (_, events) = &drained[tracer.workers()];
    assert!(!events.is_empty(), "rings left unconsumable after racing drains");
    for ev in events {
        assert_eq!(ev.b, ev.a.wrapping_mul(31), "torn event in post-race drain");
    }
    assert_eq!(events.last().map(|e| e.a), Some(sentinel), "post-race emit not recorded");
}
