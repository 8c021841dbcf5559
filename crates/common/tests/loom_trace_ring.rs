//! Loom models for the flight-recorder ring (`phoebe_common::trace`).
//!
//! Run with `scripts/loom.sh` or
//! `RUSTFLAGS="--cfg loom" cargo test -p phoebe-common --test loom_trace_ring`.
//!
//! The ring's drain contract: a drain concurrent with emission returns
//! only fully published events — a slot being written or overwritten
//! mid-read is skipped, never returned torn. Events are emitted with
//! `b == a * 10` so any torn mix of two events' words is detectable.
#![cfg(loom)]

use loom::sync::Arc;
use phoebe_common::trace::{EventKind, Tracer};

fn assert_untorn(tracer: &Tracer) -> usize {
    let mut n = 0;
    for (_, events) in tracer.drain() {
        for ev in events {
            assert_eq!(ev.kind(), Some(EventKind::QueueDepth), "torn kind: {ev:?}");
            assert_eq!(ev.b, ev.a * 10, "torn payload: {ev:?}");
            n += 1;
        }
    }
    n
}

/// One emitter races one drainer on a capacity-2 ring; a third emit after
/// the join forces a wrap (overwriting the oldest slot) and the final
/// drain must see exactly the two youngest events.
#[test]
fn concurrent_drain_sees_no_torn_events() {
    loom::model(|| {
        // workers = 0: a single (external) ring shared by every thread,
        // which maximizes emit/drain contention.
        let tracer = Arc::new(Tracer::new(0, 2));
        let emitter = {
            let tracer = Arc::clone(&tracer);
            loom::thread::spawn(move || {
                tracer.instant(EventKind::QueueDepth, 0, 1, 10);
                tracer.instant(EventKind::QueueDepth, 0, 2, 20);
            })
        };
        let seen = assert_untorn(&tracer);
        assert!(seen <= 2, "capacity-2 ring returned {seen} events");
        emitter.join().unwrap();

        // Quiescent wrap: the third emit overwrites the first.
        tracer.instant(EventKind::QueueDepth, 0, 3, 30);
        assert_eq!(tracer.total_emitted(), 3);
        let mut a_values: Vec<u64> =
            tracer.drain().into_iter().flat_map(|(_, evs)| evs).map(|ev| ev.a).collect();
        a_values.sort_unstable();
        assert_eq!(a_values, [2, 3], "ring must hold exactly the two youngest events");
    });
}

/// The ring wraps *while* the drain runs: the emitter laps the capacity-2
/// ring, so the drainer can be between a slot's two sequence checks when
/// that slot's words are overwritten. The writer must take the slot
/// (sequence goes busy) before its first word store, or the drain returns
/// half of event 1 and half of event 3 under event 1's sequence.
#[test]
fn drain_racing_an_overwrite_sees_no_torn_events() {
    loom::model(|| {
        let tracer = Arc::new(Tracer::new(0, 2));
        tracer.instant(EventKind::QueueDepth, 0, 1, 10);
        tracer.instant(EventKind::QueueDepth, 0, 2, 20);
        let emitter = {
            let tracer = Arc::clone(&tracer);
            loom::thread::spawn(move || {
                tracer.instant(EventKind::QueueDepth, 0, 3, 30);
            })
        };
        assert!(assert_untorn(&tracer) <= 2);
        emitter.join().unwrap();
        let mut a_values: Vec<u64> =
            tracer.drain().into_iter().flat_map(|(_, evs)| evs).map(|ev| ev.a).collect();
        a_values.sort_unstable();
        assert_eq!(a_values, [2, 3], "the overwrite must land whole");
    });
}

/// The `/metrics`-era shape: *two* concurrent drainers (a live `/trace`
/// snapshot racing a watchdog incident capture) against one emitter.
/// Drains are read-only, so each must independently see only fully
/// published events, and neither disturbs the ring: a quiescent drain at
/// the end still returns exactly the published events.
#[test]
fn two_racing_drainers_each_see_only_published_events() {
    loom::model(|| {
        let tracer = Arc::new(Tracer::new(0, 2));
        let emitter = {
            let tracer = Arc::clone(&tracer);
            loom::thread::spawn(move || {
                tracer.instant(EventKind::QueueDepth, 0, 1, 10);
                tracer.instant(EventKind::QueueDepth, 0, 2, 20);
            })
        };
        let drainer = {
            let tracer = Arc::clone(&tracer);
            loom::thread::spawn(move || assert_untorn(&tracer))
        };
        let seen_here = assert_untorn(&tracer);
        assert!(seen_here <= 2);
        assert!(drainer.join().unwrap() <= 2);
        emitter.join().unwrap();

        // Neither racing drain consumed or corrupted anything.
        let mut a_values: Vec<u64> =
            tracer.drain().into_iter().flat_map(|(_, evs)| evs).map(|ev| ev.a).collect();
        a_values.sort_unstable();
        assert_eq!(a_values, [1, 2], "rings must stay intact after concurrent drains");
    });
}

/// Two emitters race each other: index claims must be unique, so after
/// the join both events are present exactly once (capacity 2, no wrap).
#[test]
fn racing_emitters_never_lose_or_duplicate_slots() {
    loom::model(|| {
        let tracer = Arc::new(Tracer::new(0, 2));
        let spawn_emitter = |a: u64| {
            let tracer = Arc::clone(&tracer);
            loom::thread::spawn(move || {
                tracer.instant(EventKind::QueueDepth, 0, a, a * 10);
            })
        };
        let (t1, t2) = (spawn_emitter(1), spawn_emitter(2));
        t1.join().unwrap();
        t2.join().unwrap();
        assert_eq!(tracer.total_emitted(), 2);
        let mut a_values: Vec<u64> =
            tracer.drain().into_iter().flat_map(|(_, evs)| evs).map(|ev| ev.a).collect();
        a_values.sort_unstable();
        assert_eq!(a_values, [1, 2], "each claimed slot must publish exactly once");
    });
}
