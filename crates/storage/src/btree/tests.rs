use super::descent::ParentRef;
use super::*;
use crate::node::InnerNode;
use crate::schema::{ColType, Schema};
use crate::swip::SwipState;
use phoebe_common::error::PhoebeError;
use phoebe_common::hist::LatencySite;
use phoebe_common::metrics::Counter;
use phoebe_common::KernelConfig;

fn pool(frames: usize) -> Arc<BufferPool> {
    let cfg = KernelConfig::for_tests();
    BufferPool::new(frames, 2, &cfg.data_dir, Arc::new(Metrics::new(2))).unwrap()
}

fn table_tree(frames: usize) -> (BTree, PaxLayout) {
    let p = pool(frames);
    let schema = Schema::new(vec![("v", ColType::I64), ("s", ColType::Str(8))]);
    let layout = PaxLayout::for_schema(&schema);
    let t =
        BTree::create(p.clone(), TableId(1), TreeKind::Table, Arc::new(Metrics::new(2))).unwrap();
    (t, layout)
}

fn index_tree(frames: usize) -> BTree {
    let p = pool(frames);
    BTree::create(p, TableId(2), TreeKind::Index, Arc::new(Metrics::new(2))).unwrap()
}

fn tup(i: u64) -> Vec<Value> {
    vec![Value::I64(i as i64), Value::Str(format!("s{}", i % 100))]
}

#[test]
fn table_append_and_point_reads() {
    let (t, l) = table_tree(256);
    for i in 1..=5_000u64 {
        t.table_append(&l, RowId(i), &tup(i), |_, _, _, _| {}).unwrap();
    }
    assert!(t.height() >= 2, "5k rows must split the root leaf");
    for i in (1..=5_000u64).step_by(97) {
        let v = t
            .table_read(RowId(i), |leaf, row, _, _| leaf.read_col(&l, row, 0))
            .unwrap()
            .expect("row present");
        assert_eq!(v, Value::I64(i as i64));
    }
    assert!(t.table_read(RowId(0), |_, _, _, _| ()).unwrap().is_none());
    assert!(t.table_read(RowId(99_999), |_, _, _, _| ()).unwrap().is_none());
}

#[test]
fn table_modify_updates_in_place() {
    let (t, l) = table_tree(64);
    t.table_append(&l, RowId(7), &tup(7), |_, _, _, _| {}).unwrap();
    let changed = t
        .table_modify(RowId(7), |leaf, row, _, _| {
            leaf.write_col(&l, row, 0, &Value::I64(-1));
        })
        .unwrap();
    assert!(changed.is_some());
    let v = t.table_read(RowId(7), |leaf, row, _, _| leaf.read_col(&l, row, 0)).unwrap();
    assert_eq!(v, Some(Value::I64(-1)));
}

#[test]
fn table_page_identity_is_stable_across_splits() {
    let (t, l) = table_tree(256);
    t.table_append(&l, RowId(1), &tup(1), |_, _, _, _| {}).unwrap();
    let first_identity = t.table_read(RowId(1), |_, _, first, _| first).unwrap().unwrap();
    for i in 2..=4_000u64 {
        t.table_append(&l, RowId(i), &tup(i), |_, _, _, _| {}).unwrap();
    }
    // Row 1's leaf never changed identity despite thousands of appends.
    let identity_after = t.table_read(RowId(1), |_, _, first, _| first).unwrap().unwrap();
    assert_eq!(first_identity, identity_after);
}

#[test]
fn table_for_each_leaf_walks_in_order() {
    let (t, l) = table_tree(256);
    for i in 1..=3_000u64 {
        t.table_append(&l, RowId(i), &tup(i), |_, _, _, _| {}).unwrap();
    }
    let mut firsts = Vec::new();
    t.table_for_each_leaf(|_, leaf| {
        firsts.push(leaf.first_row_id().unwrap().raw());
        true
    })
    .unwrap();
    assert!(firsts.len() > 2);
    assert!(firsts.windows(2).all(|w| w[0] < w[1]), "leaves must ascend");
    // Early stop works.
    let mut n = 0;
    t.table_for_each_leaf(|_, _| {
        n += 1;
        false
    })
    .unwrap();
    assert_eq!(n, 1);
}

#[test]
fn index_insert_get_remove_with_splits() {
    let t = index_tree(256);
    let n = 20_000u64;
    for i in 0..n {
        let k = (i * 2_654_435_761 % 1_000_003).to_be_bytes();
        let _ = t.index_insert(&k, RowId(i)); // dups possible, ignore
    }
    assert!(t.height() >= 2);
    // Spot-check round trips on keys we know are present.
    let mut found = 0;
    for i in 0..n {
        let k = (i * 2_654_435_761 % 1_000_003).to_be_bytes();
        if let Some(r) = t.index_get(&k).unwrap() {
            // Remove and verify gone.
            if i % 1000 == 0 {
                assert!(!t.index_remove(&k, RowId(r.raw() + 1)).unwrap(), "another row's key");
                assert!(t.index_remove(&k, r).unwrap());
                assert_eq!(t.index_get(&k).unwrap(), None);
            }
            found += 1;
        }
    }
    assert!(found > n as usize / 2);
}

/// Share of the index leaves' key slots in use, by a leaf walk.
fn index_leaf_fill(t: &BTree) -> f64 {
    let (mut used, mut slots) = (0, 0);
    t.scan_leaves(&[], None, |leaf, _| {
        let leaf = leaf.index_leaf()?;
        used += leaf.len();
        slots += crate::node::capacity(leaf.width());
        Ok(true)
    })
    .unwrap();
    used as f64 / slots as f64
}

/// Ascending inserts leave the leaves they pass packed: in one run, and
/// in 40 interleaved runs (a TPC-C district's orders each ascend, in
/// front of the next district's keys). Each run leaves one or two partly
/// filled leaves behind where its tail first split away from the next
/// run's keys, so the runs are long: at 2 500 keys each the fill is 0.67.
#[test]
fn ascending_inserts_keep_index_leaves_packed() {
    let t = index_tree(512);
    for i in 0..100_000u64 {
        t.index_insert(&i.to_be_bytes(), RowId(i)).unwrap();
    }
    let fill = index_leaf_fill(&t);
    assert!(fill >= 0.9, "one ascending run fills {fill:.3} of the leaf slots");

    let t = index_tree(1_024);
    for seq in 0..10_000u64 {
        for run in 0..40u32 {
            let key = [&run.to_be_bytes()[..], &seq.to_be_bytes()].concat();
            t.index_insert(&key, RowId(seq)).unwrap();
        }
    }
    let fill = index_leaf_fill(&t);
    assert!(fill >= 0.9, "40 interleaved runs fill {fill:.3} of the leaf slots");
    let mut n = 0;
    t.index_range(&[], &[0xff; 12], |_, _| {
        n += 1;
        true
    })
    .unwrap();
    assert_eq!(n, 400_000);
}

/// `kv`'s index: 500 000 ascending 8-byte keys fit under one root.
#[test]
fn kv_shaped_index_has_height_two() {
    let t = index_tree(1_024);
    for i in 0..500_000u64 {
        t.index_insert(&i.to_be_bytes(), RowId(i)).unwrap();
    }
    assert_eq!(t.height(), 2);
    for i in (0..500_000u64).step_by(9_973) {
        assert_eq!(t.index_get(&i.to_be_bytes()).unwrap(), Some(RowId(i)));
    }
}

#[test]
fn index_refuses_a_key_of_another_width() {
    let t = index_tree(64);
    for i in 0..2_000u64 {
        t.index_insert(&i.to_be_bytes(), RowId(i)).unwrap();
    }
    for key in [&[1u8; 9][..], &[1u8; 7], &[]] {
        match t.index_insert(key, RowId(0)) {
            Err(PhoebeError::SchemaMismatch { .. }) => {}
            other => panic!("a {}-byte key in an 8-byte tree: {other:?}", key.len()),
        }
    }
    assert_eq!(t.index_get(&7u64.to_be_bytes()).unwrap(), Some(RowId(7)));
}

#[test]
fn index_duplicate_key_is_rejected() {
    let t = index_tree(64);
    t.index_insert(b"alpha", RowId(1)).unwrap();
    match t.index_insert(b"alpha", RowId(2)) {
        Err(PhoebeError::DuplicateKey { .. }) => {}
        other => panic!("expected DuplicateKey, got {other:?}"),
    }
    assert_eq!(t.index_get(b"alpha").unwrap(), Some(RowId(1)));
}

#[test]
fn index_range_scans_across_leaves() {
    let t = index_tree(512);
    let n = 2_000u64;
    for i in 0..n {
        t.index_insert(&i.to_be_bytes(), RowId(i)).unwrap();
    }
    assert!(t.height() >= 2, "need multiple leaves to test resume");
    let mut seen = Vec::new();
    t.index_range(&100u64.to_be_bytes(), &1_500u64.to_be_bytes(), |_, r| {
        seen.push(r.raw());
        true
    })
    .unwrap();
    assert_eq!(seen, (100..=1_500).collect::<Vec<_>>());
    // Early termination.
    let mut count = 0;
    t.index_range(&0u64.to_be_bytes(), &u64::MAX.to_be_bytes(), |_, _| {
        count += 1;
        count < 10
    })
    .unwrap();
    assert_eq!(count, 10);
    // Empty range.
    let mut empty = 0;
    t.index_range(&5_000u64.to_be_bytes(), &6_000u64.to_be_bytes(), |_, _| {
        empty += 1;
        true
    })
    .unwrap();
    assert_eq!(empty, 0);
}

/// Drive `cursors` round-robin to their leaves the way `core`'s batch
/// driver does, handing each leaf to `on_leaf` with its cursor's position.
fn drive_batch<'t>(
    cursors: Vec<DescentCursor<'t>>,
    mut on_leaf: impl FnMut(usize, LatchedLeaf<'t>),
) {
    let mut pending: Vec<_> = cursors.into_iter().enumerate().collect();
    while !pending.is_empty() {
        let mut progressed = false;
        let mut i = 0;
        while i < pending.len() {
            match pending[i].1.step().unwrap() {
                DescentStep::Leaf(leaf) => {
                    on_leaf(pending.swap_remove(i).0, leaf);
                    progressed = true;
                }
                DescentStep::Prefetched => {
                    progressed = true;
                    i += 1;
                }
                DescentStep::FaultPending => i += 1,
            }
        }
        if !progressed {
            // Everything waits on the background loader: give it the CPU.
            std::thread::yield_now();
        }
    }
}

// ----------------------------------------------------------------------
// One model, both drivers
// ----------------------------------------------------------------------

/// A table tree and an index tree over one small pool, checked against
/// plain maps. Every point read goes through the blocking driver *and* a
/// round-robin cursor batch; both must agree with the model.
struct ModelTrees {
    table: BTree,
    index: BTree,
    layout: PaxLayout,
    next_row: std::sync::atomic::AtomicU64,
}

/// What one writer knows the trees hold under the keys it owns: the rows
/// it appended, and the index keys carrying its prefix byte.
#[derive(Default)]
struct Model {
    rows: std::collections::BTreeMap<u64, i64>,
    index: std::collections::BTreeMap<Vec<u8>, u64>,
}

impl ModelTrees {
    /// ~30 rows to a table leaf, so a few thousand appends are well over a
    /// hundred leaves — several times the pool.
    fn new(frames: usize) -> Self {
        let p = pool(frames);
        let m = Arc::new(Metrics::new(2));
        let schema = Schema::new(vec![("v", ColType::I64), ("pad", ColType::Str(480))]);
        ModelTrees {
            table: BTree::create(p.clone(), TableId(1), TreeKind::Table, m.clone()).unwrap(),
            index: BTree::create(p, TableId(2), TreeKind::Index, m).unwrap(),
            layout: PaxLayout::for_schema(&schema),
            next_row: std::sync::atomic::AtomicU64::new(1),
        }
    }

    fn read_v(&self, leaf: &PaxLeaf, row: usize) -> i64 {
        match leaf.read_col(&self.layout, row, 0) {
            Value::I64(v) => v,
            other => panic!("column 0 holds {other:?}"),
        }
    }

    /// Point-read `rows` and `keys` through both drivers and compare each
    /// answer with `model` (`None` = absent).
    fn check_points(&self, model: &Model, rows: &[u64], keys: &[Vec<u8>]) {
        for &r in rows {
            let read = || self.table.table_read(RowId(r), |l, row, _, _| self.read_v(l, row));
            assert_eq!(settled(read).unwrap(), model.rows.get(&r).copied(), "blocking row {r}");
        }
        for k in keys {
            let got = settled(|| self.index.index_get(k)).unwrap().map(|r| r.raw());
            assert_eq!(got, model.index.get(k).copied(), "blocking index_get of {k:?}");
        }
        let cursors = rows.iter().map(|&r| self.table.batch_cursor(&row_key(RowId(r)), false));
        drive_batch(cursors.collect(), |i, leaf| {
            let got = leaf.table_read(RowId(rows[i]), |l, row, _, _| self.read_v(l, row)).unwrap();
            assert_eq!(got, model.rows.get(&rows[i]).copied(), "cursor table_read of {}", rows[i]);
        });
        let cursors = keys.iter().map(|k| self.index.batch_cursor(k, false));
        drive_batch(cursors.collect(), |i, leaf| {
            let got = leaf.index_get(&keys[i]).unwrap().map(|r| r.raw());
            assert_eq!(
                got,
                model.index.get(&keys[i]).copied(),
                "cursor index_get of {:?}",
                keys[i]
            );
        });
    }

    /// `index_range(lo, hi)` must yield exactly the model's keys in range.
    fn check_range(&self, model: &Model, lo: &[u8], hi: &[u8]) {
        let mut got = Vec::new();
        settled(|| {
            got.clear();
            self.index.index_range(lo, hi, |k, r| {
                got.push((k.to_vec(), r.raw()));
                true
            })
        })
        .unwrap();
        let want: Vec<_> =
            model.index.range(lo.to_vec()..=hi.to_vec()).map(|(k, r)| (k.clone(), *r)).collect();
        assert_eq!(got, want, "index_range {lo:?}..={hi:?}");
    }

    /// The leaf walk must meet row ids in ascending order and every row of
    /// `model` among them — nothing else when `exact`.
    fn check_leaf_walk(&self, model: &Model, exact: bool) {
        let mut ids = Vec::new();
        settled(|| {
            ids.clear();
            self.table.table_for_each_leaf(|_, leaf| {
                ids.extend((0..leaf.len()).map(|i| leaf.row_id_at(i).raw()));
                true
            })
        })
        .unwrap();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "leaf walk must ascend");
        if exact {
            assert!(ids.iter().eq(model.rows.keys()), "leaf walk != model rows");
        } else {
            assert!(
                model.rows.keys().all(|r| ids.binary_search(r).is_ok()),
                "leaf walk lost a row"
            );
        }
    }

    /// Everything in `model`, through both drivers, plus the two scans.
    fn check_all(&self, model: &Model) {
        let rows: Vec<u64> = model.rows.keys().copied().collect();
        let keys: Vec<Vec<u8>> = model.index.keys().cloned().collect();
        for rows in rows.chunks(16) {
            self.check_points(model, rows, &[]);
        }
        for keys in keys.chunks(16) {
            self.check_points(model, &[], keys);
        }
        self.check_range(model, &[], &[0xff; 8]);
        self.check_leaf_walk(model, true);
    }
}

/// Run a blocking tree operation, again if it reports `OutOfFrames`: the
/// blocking fault fails when, at that instant, the pool has nothing
/// evictable — on a pool this small that happens while another writer's
/// crab holds the root every candidate hangs under (eviction needs the
/// victim's parent). The descent has touched nothing by then.
fn settled<T>(mut op: impl FnMut() -> Result<T>) -> Result<T> {
    loop {
        match op() {
            Err(PhoebeError::OutOfFrames) => std::thread::yield_now(),
            other => return other,
        }
    }
}

/// An index key in `prefix`'s key space, 35 bytes like every key of the
/// tree: longer than a `SmallKey`'s inline buffer, so cursors and fences
/// spill to the heap. Every key of a prefix has the same head (the prefix
/// and seven zero bytes), so each search breaks its ties on the suffix;
/// every seventh key carries non-zero bytes past `k`.
fn model_key(prefix: u8, k: u32) -> Vec<u8> {
    let mut key = vec![prefix, 0, 0, 0, 0, 0, 0, 0];
    key.extend_from_slice(&k.to_be_bytes());
    let fill = if k.is_multiple_of(7) { b'x' } else { 0 };
    key.extend_from_slice(&[fill; 23]);
    key
}

/// `ops` seeded random operations by one writer that owns the index keys
/// under `prefix` and the rows it appends itself, each checked against its
/// model as it goes. `solo`: no other writer exists, so it may draw row
/// ids before the latch and expect the leaf walk to match exactly.
fn model_writer(t: &ModelTrees, seed: u64, prefix: u8, ops: usize, solo: bool) -> Model {
    use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = Model::default();
    let mut my_rows: Vec<u64> = Vec::new();
    let key_space = (ops / 2) as u32;
    let draw = || RowId(t.next_row.fetch_add(1, Ordering::Relaxed));
    let pad = Value::Str("p".repeat(400));
    for _ in 0..ops {
        let any_row = |rng: &mut StdRng| match my_rows.len() {
            0 => 0,
            n => my_rows[rng.random_range(0..n)],
        };
        match rng.random_range(0..100u32) {
            0..25 => {
                let v = rng.random_range(i64::MIN..i64::MAX);
                let tuple = [Value::I64(v), pad.clone()];
                let row = if solo {
                    let row = draw();
                    settled(|| t.table.table_append(&t.layout, row, &tuple, |_, _, _, _| {}))
                        .unwrap();
                    row
                } else {
                    let append =
                        || t.table.table_append_alloc(&t.layout, &draw, &tuple, |_, _, _, _| {});
                    settled(append).unwrap().0
                };
                assert!(model.rows.insert(row.raw(), v).is_none(), "row id handed out twice");
                my_rows.push(row.raw());
            }
            25..35 => {
                let (row, v) = (any_row(&mut rng), rng.random_range(i64::MIN..i64::MAX));
                let write =
                    |l: &mut PaxLeaf, i: usize| l.write_col(&t.layout, i, 0, &Value::I64(v));
                let hit = if rng.random_bool(0.5) {
                    settled(|| t.table.table_modify(RowId(row), |l, i, _, _| write(l, i))).unwrap()
                } else {
                    let mut hit = None;
                    drive_batch(
                        vec![t.table.batch_cursor(&row_key(RowId(row)), true)],
                        |_, mut leaf| {
                            hit = leaf.table_modify(RowId(row), |l, i, _, _| write(l, i)).unwrap();
                        },
                    );
                    hit
                };
                assert_eq!(hit.is_some(), model.rows.contains_key(&row));
                model.rows.entry(row).and_modify(|old| *old = v);
            }
            35..65 => {
                let (key, row) =
                    (model_key(prefix, rng.random_range(0..key_space)), rng.next_u64());
                match settled(|| t.index.index_insert(&key, RowId(row))) {
                    Ok(()) => assert!(model.index.insert(key, row).is_none(), "duplicate accepted"),
                    Err(PhoebeError::DuplicateKey { .. }) => {
                        assert!(model.index.contains_key(&key))
                    }
                    Err(e) => panic!("index_insert: {e:?}"),
                }
            }
            65..75 => {
                let key = model_key(prefix, rng.random_range(0..key_space));
                // The row the key maps to, or (one time in four, or when
                // the key is absent) another: that removes nothing.
                let held = model.index.get(&key).copied();
                let row = match held {
                    Some(r) if rng.random_range(0..4u32) > 0 => r,
                    _ => rng.next_u64(),
                };
                let removed = settled(|| t.index.index_remove(&key, RowId(row))).unwrap();
                assert_eq!(removed, held == Some(row));
                if removed {
                    model.index.remove(&key);
                }
            }
            75..92 => {
                // Own rows, present and absent keys, and a row nobody has.
                let mut rows: Vec<u64> = (0..8).map(|_| any_row(&mut rng)).collect();
                rows.push(u64::MAX - 1);
                let keys: Vec<_> =
                    (0..8).map(|_| model_key(prefix, rng.random_range(0..key_space))).collect();
                t.check_points(&model, &rows, &keys);
            }
            92..99 => {
                let (a, b) = (rng.random_range(0..key_space), rng.random_range(0..key_space));
                t.check_range(&model, &model_key(prefix, a.min(b)), &model_key(prefix, a.max(b)));
            }
            _ => t.check_leaf_walk(&model, solo),
        }
    }
    model
}

#[test]
fn model_matches_both_drivers_single_writer() {
    let t = ModelTrees::new(40);
    let model = model_writer(&t, 0x21, b'a', 16_000, true);
    assert!(model.rows.len() > 40 * 30, "data must be several times the pool");
    let (reads, writes) = t.table.pool().io_counts();
    assert!(reads > 0 && writes > 0, "the run must have evicted and faulted");
    t.check_all(&model);
}

#[test]
fn model_matches_both_drivers_two_concurrent_writers() {
    let t = ModelTrees::new(48);
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| model_writer(&t, 0x21a, b'a', 8_000, false));
        let b = s.spawn(|| model_writer(&t, 0x21b, b'b', 8_000, false));
        (a.join().unwrap(), b.join().unwrap())
    });
    let mut model = a;
    model.rows.extend(b.rows);
    model.index.extend(b.index);
    t.check_all(&model);
}

/// With everything resident and nobody writing, a cursor batch costs its
/// prefetch suspends and nothing else: a restart here would still return
/// right answers, so only the counters can show it.
#[test]
fn cursor_batch_over_resident_tree_records_no_restart_and_no_fault() {
    let metrics = Arc::new(Metrics::new(2));
    let schema = Schema::new(vec![("v", ColType::I64)]);
    let layout = PaxLayout::for_schema(&schema);
    let t = BTree::create(pool(256), TableId(1), TreeKind::Table, metrics.clone()).unwrap();
    for i in 1..=5_000u64 {
        t.table_append(&layout, RowId(i), &[Value::I64(i as i64)], |_, _, _, _| {}).unwrap();
    }
    assert!(t.height() >= 2);
    let before = metrics.snapshot();
    let rows: Vec<u64> = (1..=5_000).step_by(97).collect();
    let cursors = rows.iter().map(|&r| t.batch_cursor(&row_key(RowId(r)), false));
    drive_batch(cursors.collect(), |i, leaf| {
        let v =
            leaf.table_read(RowId(rows[i]), |l, row, _, _| l.read_col(&layout, row, 0)).unwrap();
        assert_eq!(v, Some(Value::I64(rows[i] as i64)));
    });
    let after = metrics.snapshot();
    let delta = |c: Counter| after.counter(c) - before.counter(c);
    assert_eq!(delta(Counter::LatchRestarts), 0);
    assert_eq!(delta(Counter::FaultSuspends), 0);
    assert!(
        delta(Counter::PrefetchesIssued) >= rows.len() as u64,
        "a multi-level descent suspends at least once per inner hop"
    );
}

#[test]
fn batch_cursor_suspends_on_cold_pages_and_resumes() {
    // Pool far smaller than the data: most leaves are cold, so the
    // cursor must go through kick-fault / suspend / resume instead of
    // blocking, and still read every row correctly.
    let p = pool(24);
    let schema = Schema::new(vec![("v", ColType::I64), ("s", ColType::Str(8))]);
    let l = PaxLayout::for_schema(&schema);
    let m = Arc::new(Metrics::new(2));
    let t = BTree::create(p, TableId(1), TreeKind::Table, m.clone()).unwrap();
    let n = 20_000u64;
    for i in 1..=n {
        t.table_append(&l, RowId(i), &tup(i), |_, _, _, _| {}).unwrap();
    }
    let before = m.snapshot();
    for i in (1..=n).step_by(513) {
        drive_batch(vec![t.batch_cursor(&row_key(RowId(i)), false)], |_, leaf| {
            let v = leaf
                .table_read(RowId(i), |leaf, row, _, _| leaf.read_col(&l, row, 0))
                .unwrap()
                .expect("row present after eviction cycles");
            assert_eq!(v, Value::I64(i as i64));
        });
    }
    let after = m.snapshot();
    assert!(
        after.counter(Counter::FaultSuspends) > before.counter(Counter::FaultSuspends),
        "cold reads must take the suspend path"
    );
    assert!(after.counter(Counter::PrefetchesIssued) > before.counter(Counter::PrefetchesIssued));
}

#[test]
fn table_survives_eviction_pressure() {
    // Pool far smaller than the data: leaves must cycle through the
    // Data Page File and come back intact.
    let (t, l) = table_tree(24);
    let n = 20_000u64;
    for i in 1..=n {
        t.table_append(&l, RowId(i), &tup(i), |_, _, _, _| {}).unwrap();
    }
    let (reads, writes) = t.pool().io_counts();
    assert!(writes > 0, "eviction must have written pages");
    for i in (1..=n).step_by(513) {
        let v = t
            .table_read(RowId(i), |leaf, row, _, _| leaf.read_col(&l, row, 0))
            .unwrap()
            .expect("row present after eviction cycles");
        assert_eq!(v, Value::I64(i as i64));
    }
    let (reads2, _) = t.pool().io_counts();
    assert!(reads2 > reads, "point reads of cold rows must load pages");
}

#[test]
fn index_survives_eviction_pressure() {
    let t = index_tree(24);
    let n = 30_000u64;
    for i in 0..n {
        t.index_insert(&i.to_be_bytes(), RowId(i)).unwrap();
    }
    for i in (0..n).step_by(997) {
        assert_eq!(t.index_get(&i.to_be_bytes()).unwrap(), Some(RowId(i)));
    }
    let (_, writes) = t.pool().io_counts();
    assert!(writes > 0);
}

#[test]
fn concurrent_index_readers_and_writers() {
    let t = Arc::new(index_tree(512));
    let writers: Vec<_> = (0..2)
        .map(|w| {
            let t = t.clone();
            std::thread::spawn(move || {
                for i in 0..5_000u64 {
                    let k = (w * 1_000_000 + i).to_be_bytes();
                    t.index_insert(&k, RowId(i)).unwrap();
                }
            })
        })
        .collect();
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let t = t.clone();
            std::thread::spawn(move || {
                let mut hits = 0u64;
                for i in 0..20_000u64 {
                    let k = (i % 2 * 1_000_000 + i % 5_000).to_be_bytes();
                    if t.index_get(&k).unwrap().is_some() {
                        hits += 1;
                    }
                }
                hits
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    for r in readers {
        r.join().unwrap();
    }
    // Everything inserted must be found afterwards.
    for w in 0..2u64 {
        for i in (0..5_000u64).step_by(111) {
            let k = (w * 1_000_000 + i).to_be_bytes();
            assert_eq!(t.index_get(&k).unwrap(), Some(RowId(i)));
        }
    }
}

#[test]
fn concurrent_table_appenders_on_disjoint_trees() {
    // Two tables sharing one pool: appends must not interfere.
    let p = pool(128);
    let schema = Schema::new(vec![("v", ColType::I64)]);
    let l = PaxLayout::for_schema(&schema);
    let m = Arc::new(Metrics::new(2));
    let t1 = Arc::new(BTree::create(p.clone(), TableId(1), TreeKind::Table, m.clone()).unwrap());
    let t2 = Arc::new(BTree::create(p, TableId(2), TreeKind::Table, m).unwrap());
    let h1 = {
        let (t, l) = (t1.clone(), l.clone());
        std::thread::spawn(move || {
            for i in 1..=5_000u64 {
                t.table_append(&l, RowId(i), &[Value::I64(i as i64)], |_, _, _, _| {}).unwrap();
            }
        })
    };
    let h2 = {
        let (t, l) = (t2.clone(), l.clone());
        std::thread::spawn(move || {
            for i in 1..=5_000u64 {
                t.table_append(&l, RowId(i), &[Value::I64(-(i as i64))], |_, _, _, _| {}).unwrap();
            }
        })
    };
    h1.join().unwrap();
    h2.join().unwrap();
    let v1 = t1.table_read(RowId(4_999), |leaf, r, _, _| leaf.read_col(&l, r, 0)).unwrap();
    let v2 = t2.table_read(RowId(4_999), |leaf, r, _, _| leaf.read_col(&l, r, 0)).unwrap();
    assert_eq!(v1, Some(Value::I64(4_999)));
    assert_eq!(v2, Some(Value::I64(-4_999)));
}

#[test]
fn sequential_workload_records_zero_restarts() {
    let p = pool(256);
    let metrics = Arc::new(Metrics::new(2));
    let schema = Schema::new(vec![("v", ColType::I64)]);
    let layout = PaxLayout::for_schema(&schema);
    let t = BTree::create(p, TableId(1), TreeKind::Table, Arc::clone(&metrics)).unwrap();
    for i in 1..=2_000u64 {
        t.table_append(&layout, RowId(i), &[Value::I64(i as i64)], |_, _, _, _| {}).unwrap();
    }
    for i in (1..=2_000u64).step_by(37) {
        t.table_read(RowId(i), |leaf, r, _, _| leaf.read_col(&layout, r, 0)).unwrap();
    }
    let snap = metrics.snapshot();
    assert_eq!(snap.counter(Counter::LatchRestarts), 0, "no interference, no restarts");
    assert_eq!(snap.latency(LatencySite::BtreeRestart).count(), 0);
}

#[test]
fn restart_counter_matches_restart_latency_samples() {
    // Every descent restart must feed the counter AND the wasted-work
    // histogram exactly once (the observability layer treats them as
    // two views of the same event). Hammer point reads while an
    // appender forces splits (each split bumps versions on the path),
    // then check the two stay in lockstep.
    let p = pool(512);
    let metrics = Arc::new(Metrics::new(4));
    let schema = Schema::new(vec![("v", ColType::I64)]);
    let layout = PaxLayout::for_schema(&schema);
    let t = Arc::new(BTree::create(p, TableId(1), TreeKind::Table, Arc::clone(&metrics)).unwrap());
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 1u64;
                // ORDERING: stop flag only gates loop exit.
                while !stop.load(Ordering::Relaxed) {
                    let _ = t.table_read(RowId(i % 4_000 + 1), |_, _, _, _| ());
                    i += 1;
                }
            })
        })
        .collect();
    for i in 1..=8_000u64 {
        t.table_append(&layout, RowId(i), &[Value::I64(i as i64)], |_, _, _, _| {}).unwrap();
    }
    // ORDERING: stop flag; the joins below order everything else.
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }
    let snap = metrics.snapshot();
    assert_eq!(
        snap.counter(Counter::LatchRestarts),
        snap.latency(LatencySite::BtreeRestart).count(),
        "restart counter and restart latency samples must agree"
    );
}

/// Any cold child of the root, as `(slot swip, page id)`.
fn find_cold_child(t: &BTree, root_fid: FrameId) -> Option<(Swip, phoebe_common::ids::PageId)> {
    let g = t.pool.frame(root_fid).latch.read();
    let Page::Inner(n) = &*g else { panic!("root is not inner") };
    (0..=n.len()).find_map(|i| {
        let s = Swip::from_raw(n.child(i));
        match s.state() {
            SwipState::Cold(pid) => Some((s, pid)),
            _ => None,
        }
    })
}

/// PageId ABA across a suspended fault: while a batch cursor's read is
/// in flight, the same page is faulted in by someone else, modified,
/// and evicted back to the *same* PageId — restoring a byte-identical
/// cold swip. The suspended cursor's install must reject its stale
/// frame (fault-epoch mismatch) instead of clobbering the slot and
/// losing the committed write.
#[test]
fn stale_fault_install_is_rejected_after_page_cycle() {
    let (t, l) = table_tree(256);
    for i in 1..=5_000u64 {
        t.table_append(&l, RowId(i), &tup(i), |_, _, _, _| {}).unwrap();
    }
    assert!(t.height() >= 2);
    let root_fid = {
        let root = t.meta.optimistic(|m| m.root).unwrap();
        let SwipState::Hot(f) = root.state() else { panic!("root not hot") };
        f
    };
    // Page one leaf out.
    let (cold, pid) = loop {
        for part in 0..t.pool.partition_count() {
            let _ = t.pool.page_swap(part).unwrap();
        }
        if let Some(found) = find_cold_child(&t, root_fid) {
            break found;
        }
    };

    // Suspended cursor: epoch captured, loader reads the old bytes.
    let epoch0 = t.pool.fault_epoch(pid);
    let stale = t.pool.load_cold(pid, root_fid).unwrap();

    // Concurrent blocking descent wins the fault, a writer modifies a
    // row, and the page-swap duty evicts the page again.
    let fresh = t.pool.load_cold(pid, root_fid).unwrap();
    assert!(t.install_loaded(root_fid, cold, fresh, t.pool.fault_epoch(pid)).is_some());
    let victim = {
        let g = t.pool.frame(fresh).latch.read();
        let Page::TableLeaf(leaf) = &*g else { panic!("expected table leaf") };
        leaf.first_row_id().unwrap()
    };
    t.table_modify(victim, |leaf, row, _, _| leaf.write_col(&l, row, 0, &Value::I64(-7)))
        .unwrap()
        .expect("victim row present");
    let mut cycled = false;
    'out: for _ in 0..1_000 {
        for part in 0..t.pool.partition_count() {
            let _ = t.pool.page_swap(part).unwrap();
        }
        let g = t.pool.frame(root_fid).latch.read();
        let Page::Inner(n) = &*g else { panic!("root is not inner") };
        for i in 0..=n.len() {
            if Swip::from_raw(n.child(i)).state() == SwipState::Cold(pid) {
                cycled = true;
                break 'out;
            }
        }
    }
    assert!(cycled, "page must evict back to the same PageId");

    // The resumed cursor's install must lose: its frame predates the
    // committed write even though the cold swip is byte-identical.
    assert!(
        t.install_loaded(root_fid, cold, stale, epoch0).is_none(),
        "stale frame installed over a cycled page (ABA)"
    );
    let v = t.table_read(victim, |leaf, row, _, _| leaf.read_col(&l, row, 0)).unwrap();
    assert_eq!(v, Some(Value::I64(-7)), "committed write lost to a stale install");
    drive_batch(vec![t.batch_cursor(&row_key(victim), false)], |_, leaf| {
        let v = leaf.table_read(victim, |leaf, row, _, _| leaf.read_col(&l, row, 0)).unwrap();
        assert_eq!(v, Some(Value::I64(-7)), "cursor read lost the committed write");
    });
}

/// A suspended cursor's parent frame can be evicted and recycled as an
/// unrelated inner node; `child_index` clamps, so the recycled node
/// still "routes" any key to some slot. Slot-level revalidation must
/// therefore refuse a parent whose reuse epoch moved since hop time,
/// even if the re-read lands on the expected child frame.
#[test]
fn recycled_parent_frame_is_not_trusted_by_slot_revalidation() {
    let (t, _l) = table_tree(64);
    let route_to = |pfid: FrameId, leaf: FrameId| {
        let mut g = t.pool.frame(pfid).latch.write();
        let mut inner = InnerNode::default();
        inner.set_child(0, Swip::hot(leaf).raw());
        *g = Page::Inner(inner);
    };
    let pfid = t.pool.allocate().unwrap();
    let leaf = t.pool.allocate().unwrap();
    *t.pool.frame(leaf).latch.write() = Page::TableLeaf(PaxLeaf::new());
    route_to(pfid, leaf);

    let mut cur = t.batch_cursor(b"k", false);
    cur.parent = ParentRef::Node(pfid);
    cur.parent_epoch = t.pool.frame(pfid).meta.reuse_epoch();
    assert!(cur.parent_routes_to(leaf), "live parent must pass slot revalidation");
    // The blocking driver's cursor borrows its key; the rescue is the same.
    let mut blocking = t.cursor(&b"k"[..], false, false);
    blocking.parent = cur.parent;
    blocking.parent_epoch = cur.parent_epoch;
    assert!(blocking.parent_routes_to(leaf));

    // Recycle pfid (release + reallocate) as a different inner node
    // that happens to route to the same child frame.
    t.pool.release(pfid);
    let mut held = Vec::new();
    let back = loop {
        let f = t.pool.allocate().unwrap();
        if f == pfid {
            break f;
        }
        held.push(f);
    };
    for f in held {
        t.pool.release(f);
    }
    route_to(back, leaf);
    assert!(
        !cur.parent_routes_to(leaf),
        "recycled parent frame accepted by slot revalidation (clamped routing)"
    );
    assert!(!blocking.parent_routes_to(leaf));
}
