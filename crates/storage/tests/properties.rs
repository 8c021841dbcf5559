//! Property-based tests over the storage substrates: PAX layout, the
//! frozen-block codec, node split invariants, node key search, and page
//! disk encoding.

use phoebe_common::ids::RowId;
use phoebe_storage::node::{capacity, IndexLeaf, InnerNode, Page, WidthMismatch, KEY_CAP};
use phoebe_storage::pax::{PaxLayout, PaxLeaf};
use phoebe_storage::schema::{ColType, Schema, Value};
use phoebe_storage::tier::codec;
use proptest::prelude::*;
use rand::{rngs::StdRng, RngCore, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

fn arb_value(ty: ColType) -> BoxedStrategy<Value> {
    match ty {
        ColType::I64 => any::<i64>().prop_map(Value::I64).boxed(),
        ColType::I32 => any::<i32>().prop_map(Value::I32).boxed(),
        ColType::F64 => any::<i64>().prop_map(|v| Value::F64(v as f64 / 7.0)).boxed(),
        ColType::Str(max) => proptest::string::string_regex("[a-zA-Z0-9 ]{0,12}")
            .unwrap()
            .prop_map(move |s| {
                let mut s = s;
                s.truncate(max as usize);
                Value::Str(s)
            })
            .boxed(),
    }
}

fn test_schema() -> Schema {
    Schema::new(vec![
        ("a", ColType::I64),
        ("b", ColType::I32),
        ("c", ColType::F64),
        ("d", ColType::Str(12)),
    ])
}

fn arb_rows(max: usize) -> impl Strategy<Value = Vec<Vec<Value>>> {
    let types: Vec<ColType> = test_schema().types().to_vec();
    proptest::collection::vec(types.into_iter().map(arb_value).collect::<Vec<_>>(), 1..max)
}

/// `count` distinct keys of exactly `width` bytes: random bytes, or
/// (`ties`) bytes over {0x00, 0x01, 0xff}, which often share their first
/// 8 bytes and so make the searches break ties past the head.
fn keys_of_width(width: usize, count: usize, ties: bool, seed: u64) -> BTreeSet<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys = BTreeSet::new();
    for _ in 0..count * 4 {
        if keys.len() == count {
            break;
        }
        let byte = |r: u64| if ties { [0x00, 0x01, 0xff][(r % 3) as usize] } else { r as u8 };
        keys.insert((0..width).map(|_| byte(rng.next_u64())).collect());
    }
    keys
}

/// Integer keys of exactly `width` bytes: each value big-endian in the
/// first `min(width, 8)` bytes, zeroes past them. The values are
/// `values(max)`, kept while they stay at most `max` (the largest that
/// fits) and up to as many as a node holds.
fn int_keys(width: usize, values: impl FnOnce(u64) -> Vec<u64>) -> BTreeSet<Vec<u8>> {
    let bytes = width.min(8);
    let max = u64::MAX >> (64 - 8 * bytes);
    let mut keys = BTreeSet::new();
    for v in values(max).into_iter().take_while(|&v| v <= max).take(capacity(width)) {
        let mut key = v.to_be_bytes()[8 - bytes..].to_vec();
        key.resize(width, 0);
        keys.insert(key);
    }
    keys
}

/// Dense ascending integers from a quarter of the range, one step apart
/// but for an occasional gap: a `kv` index leaf, a table inner node.
fn dense_keys(width: usize, seed: u64) -> BTreeSet<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    int_keys(width, |max| {
        let mut v = max / 4;
        (0..capacity(width))
            .map(|_| {
                let r = rng.next_u64();
                v += if r % 16 == 0 { 2 + r / 16 % 40 } else { 1 };
                v
            })
            .collect()
    })
}

/// Geometrically spaced integers over the whole range: an interpolated
/// guess lands far below most keys, so the gallop takes its longest runs.
fn geometric_keys(width: usize) -> BTreeSet<Vec<u8>> {
    int_keys(width, |max| {
        let n = capacity(width).min(max as usize / 2);
        let bits = (64 - max.leading_zeros()) as f64 - 2.0;
        (0..n).map(|i| i as u64 + (bits * i as f64 / n as f64).exp2() as u64).collect()
    })
}

/// The keys in an order that is neither sorted nor reverse-sorted.
fn shuffled(keys: &BTreeSet<Vec<u8>>) -> Vec<Vec<u8>> {
    let mut out: Vec<_> = keys.iter().cloned().collect();
    out.sort_by_key(|k| {
        k.iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    });
    out
}

/// The leaf holds exactly `model`, in order, and `lower_bound` and `get`
/// agree with a linear scan of its keys.
fn leaf_matches_scan(
    leaf: &IndexLeaf,
    model: &BTreeMap<Vec<u8>, u64>,
    probes: &[Vec<u8>],
    step: &str,
) {
    let keys: Vec<Vec<u8>> = (0..leaf.len()).map(|i| leaf.key(i).to_vec()).collect();
    let held: Vec<(Vec<u8>, u64)> =
        keys.iter().cloned().zip((0..leaf.len()).map(|i| leaf.row_id(i))).collect();
    let want: Vec<(Vec<u8>, u64)> = model.iter().map(|(k, r)| (k.clone(), *r)).collect();
    assert_eq!(held, want, "{step}: leaf content");
    for p in probes {
        let lower = keys.iter().filter(|k| k.as_slice() < p.as_slice()).count();
        assert_eq!(leaf.lower_bound(p), lower, "{step}: lower_bound({p:?})");
        let hit = keys.iter().position(|k| k == p).map(|i| leaf.row_id(i));
        assert_eq!(leaf.get(p), hit, "{step}: get({p:?})");
    }
}

/// `child_index` agrees with a linear scan: the first separator greater
/// than the key.
fn inner_matches_scan(node: &InnerNode, probes: &[Vec<u8>], step: &str) {
    let seps: Vec<Vec<u8>> = (0..node.len()).map(|i| node.key(i).to_vec()).collect();
    for w in seps.windows(2) {
        assert!(w[0] < w[1], "{step}: separators out of order");
    }
    for p in probes {
        let child = seps.iter().filter(|s| s.as_slice() <= p.as_slice()).count();
        assert_eq!(node.child_index(p), child, "{step}: child_index({p:?})");
    }
}

fn disk_roundtrip(page: Page) -> Page {
    let mut buf = vec![0u8; phoebe_common::config::PAGE_SIZE];
    page.encode(&mut buf);
    Page::decode(&buf).unwrap()
}

fn leaf_roundtrip(leaf: IndexLeaf) -> IndexLeaf {
    let Page::IndexLeaf(back) = disk_roundtrip(Page::IndexLeaf(leaf)) else {
        panic!("kind changed")
    };
    back
}

/// `key` as a big-endian number, one up or down; `None` past either end.
fn neighbour(key: &[u8], up: bool) -> Option<Vec<u8>> {
    let mut out = key.to_vec();
    for b in out.iter_mut().rev() {
        let (v, carry) = if up { b.overflowing_add(1) } else { b.overflowing_sub(1) };
        *b = v;
        if !carry {
            return Some(out);
        }
    }
    None
}

/// About 40 stored keys, plus each one cut short, zero-extended and
/// bumped in its last byte: the probes that land between and beside
/// stored keys, with search keys of three lengths. At both ends, where
/// the searches answer without interpolating: the end keys, their
/// neighbours outside and inside, and keys whose heads equal the end
/// heads, of the same width with the lowest and highest bytes past the
/// head, and 8 bytes long.
fn probes_for(keys: &BTreeSet<Vec<u8>>) -> Vec<Vec<u8>> {
    let mut probes = vec![vec![], vec![0x00], vec![0xff; 16]];
    for k in keys.iter().step_by((keys.len() / 10).max(1)) {
        probes.push(k.clone());
        probes.push(k[..k.len() - 1].to_vec());
        probes.push([k.as_slice(), &[0]].concat());
        let mut bumped = k.clone();
        *bumped.last_mut().unwrap() = bumped.last().unwrap().wrapping_add(1);
        probes.push(bumped);
    }
    for end in [keys.first(), keys.last()].into_iter().flatten() {
        probes.push(end.clone());
        probes.extend([false, true].iter().filter_map(|&up| neighbour(end, up)));
        let head = end.len().min(8);
        for fill in [0x00, 0xff] {
            let mut same_head = end.clone();
            same_head[head..].fill(fill);
            probes.push(same_head);
        }
        let mut eight = end[..head].to_vec();
        eight.resize(8, 0);
        probes.push(eight);
    }
    probes
}

/// `model` split at `sep`: the entries below it and the rest.
fn split_model(
    model: &BTreeMap<Vec<u8>, u64>,
    sep: &[u8],
) -> (BTreeMap<Vec<u8>, u64>, BTreeMap<Vec<u8>, u64>) {
    let right = model.range(sep.to_vec()..).map(|(k, r)| (k.clone(), *r)).collect();
    let left = model.range(..sep.to_vec()).map(|(k, r)| (k.clone(), *r)).collect();
    (left, right)
}

/// Index leaf search against the oracle after each step that moves
/// entries: shuffled inserts (up to a full leaf), removes, a split in
/// half and a disk round trip of each half.
fn index_leaf_search_oracle(keys: &BTreeSet<Vec<u8>>) {
    let width = keys.first().expect("keys").len();
    let probes = probes_for(keys);
    let mut leaf = IndexLeaf::default();
    let mut model = BTreeMap::new();
    for (i, k) in shuffled(keys).iter().enumerate() {
        assert_eq!(leaf.insert(k, i as u64), Ok(true), "fresh keys insert");
        assert_eq!(leaf.insert(k, u64::MAX), Ok(false), "duplicates are refused");
        model.insert(k.clone(), i as u64);
    }
    assert_eq!(leaf.is_full(), keys.len() == capacity(width));
    let wider = vec![0; width + 1];
    assert_eq!(leaf.insert(&wider, 0), Err(WidthMismatch { width, got: width + 1 }));
    leaf_matches_scan(&leaf, &model, &probes, "insert");
    for k in keys.iter().step_by(3) {
        assert_eq!(leaf.remove(k), model.remove(k));
        assert_eq!(leaf.remove(k), None);
    }
    leaf_matches_scan(&leaf, &model, &probes, "remove");
    // The last change was a remove, so the split is in half.
    let n = leaf.len();
    let (right, sep) = leaf.split(keys.last().expect("keys"));
    assert_eq!((leaf.len(), right.len(), right.width()), (n / 2, n - n / 2, width));
    let (lm, rm) = split_model(&model, &sep);
    leaf_matches_scan(&leaf_roundtrip(leaf), &lm, &probes, "split (left) + decode");
    leaf_matches_scan(&leaf_roundtrip(right), &rm, &probes, "split (right) + decode");
}

/// The split rule for ascending inserts, on sorted keys `k[0..m]`:
/// past the last key the left leaf keeps everything; in front of higher
/// keys it keeps what precedes the insert point and takes the key; in
/// the lower half it splits in half.
fn ascending_split_oracle(keys: &BTreeSet<Vec<u8>>) {
    let k: Vec<Vec<u8>> = keys.iter().cloned().collect();
    let m = k.len();
    if m < 4 {
        return;
    }
    let probes = probes_for(keys);
    let fill = |order: &[usize]| {
        let mut leaf = IndexLeaf::default();
        let mut model = BTreeMap::new();
        for &i in order {
            assert_eq!(leaf.insert(&k[i], i as u64), Ok(true));
            model.insert(k[i].clone(), i as u64);
        }
        (leaf, model)
    };
    // Past the last key: the new key alone goes right.
    let (mut left, mut model) = fill(&(0..m - 1).collect::<Vec<_>>());
    let (mut right, sep) = left.split(&k[m - 1]);
    assert_eq!((left.len(), right.len(), &sep), (m - 1, 0, &k[m - 1]), "split past the end");
    assert_eq!(right.insert(&k[m - 1], 0), Ok(true));
    leaf_matches_scan(&leaf_roundtrip(left), &model, &probes, "past the end (left)");
    model.clear();
    model.insert(k[m - 1].clone(), 0);
    leaf_matches_scan(&leaf_roundtrip(right), &model, &probes, "past the end (right)");
    // In front of higher keys, upper half: split at the insert point.
    let j = (3 * m / 4).min(m - 2);
    let (mut left, mut model) = fill(&(j + 1..m).chain(0..j).collect::<Vec<_>>());
    let (right, sep) = left.split(&k[j]);
    assert_eq!((left.len(), right.len(), &sep), (j, m - j - 1, &k[j + 1]), "split at the insert");
    assert_eq!(left.insert(&k[j], j as u64), Ok(true));
    model.insert(k[j].clone(), j as u64);
    let (lm, rm) = split_model(&model, &sep);
    leaf_matches_scan(&leaf_roundtrip(left), &lm, &probes, "insert point (left)");
    leaf_matches_scan(&leaf_roundtrip(right), &rm, &probes, "insert point (right)");
    // Right after the last insert but in the lower half: in half.
    let (mut left, _) = fill(&(2..m).chain(0..1).collect::<Vec<_>>());
    let (right, _) = left.split(&k[1]);
    assert_eq!((left.len(), right.len()), ((m - 1) / 2, m - 1 - (m - 1) / 2), "lower half");
}

/// Inner node routing against the oracle after separator inserts, a
/// split and a disk round trip.
fn inner_search_oracle(keys: &BTreeSet<Vec<u8>>) {
    let width = keys.first().expect("keys").len();
    let probes = probes_for(keys);
    let mut node = InnerNode::default();
    for k in shuffled(keys) {
        let pos = (0..node.len()).filter(|&i| *node.key(i) < *k).count();
        node.insert_separator(pos, &k, 0).unwrap();
    }
    assert_eq!(node.is_full(), keys.len() == capacity(width));
    let wider = vec![0; width + 1];
    assert_eq!(node.insert_separator(0, &wider, 0), Err(WidthMismatch { width, got: width + 1 }));
    inner_matches_scan(&node, &probes, "insert_separator");
    if node.len() >= 2 {
        let (right, _) = node.split();
        inner_matches_scan(&node, &probes, "split (left)");
        inner_matches_scan(&right, &probes, "split (right)");
    }
    let Page::Inner(back) = disk_roundtrip(Page::Inner(node)) else { panic!("kind changed") };
    inner_matches_scan(&back, &probes, "decode");
}

/// Every key width from 1 to the cap, as many keys as a node holds: random
/// and tie-heavy keys, dense integers with gaps and geometrically spaced
/// ones.
fn every_width(mut check: impl FnMut(&BTreeSet<Vec<u8>>)) {
    for width in 1..=KEY_CAP {
        for ties in [false, true] {
            check(&keys_of_width(width, capacity(width), ties, width as u64));
        }
        check(&dense_keys(width, width as u64));
        check(&geometric_keys(width));
    }
}

#[test]
fn index_leaf_stays_sorted_and_total() {
    every_width(|keys| {
        index_leaf_search_oracle(keys);
        ascending_split_oracle(keys);
    });
}

#[test]
fn inner_child_index_matches_a_linear_scan() {
    every_width(inner_search_oracle);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pax_roundtrips_arbitrary_rows(rows in arb_rows(60)) {
        let schema = test_schema();
        let layout = PaxLayout::for_schema(&schema);
        let mut leaf = PaxLeaf::new();
        for (i, row) in rows.iter().enumerate() {
            leaf.append(&layout, RowId(i as u64 * 3 + 1), row);
        }
        for (i, row) in rows.iter().enumerate() {
            let idx = leaf.find(RowId(i as u64 * 3 + 1)).expect("present");
            prop_assert_eq!(&leaf.read_row(&layout, idx), row);
        }
        // Absent ids (between the stride) must not be found.
        prop_assert!(leaf.find(RowId(2)).is_none());
    }

    #[test]
    fn frozen_codec_roundtrips(rows in arb_rows(200), start in 1u64..1000) {
        let types: Vec<ColType> = test_schema().types().to_vec();
        let ids: Vec<RowId> = (0..rows.len() as u64).map(|i| RowId(start + i * 2)).collect();
        let blob = codec::encode_block(&types, &ids, &rows);
        let (ids2, rows2) = codec::decode_block(&blob).unwrap();
        prop_assert_eq!(ids, ids2);
        prop_assert_eq!(rows, rows2);
    }

    #[test]
    fn frozen_codec_rejects_any_truncation(rows in arb_rows(50)) {
        let types: Vec<ColType> = test_schema().types().to_vec();
        let ids: Vec<RowId> = (1..=rows.len() as u64).map(RowId).collect();
        let blob = codec::encode_block(&types, &ids, &rows);
        for cut in (0..blob.len()).step_by((blob.len() / 17).max(1)) {
            if let Ok((ids2, _)) = codec::decode_block(&blob[..cut]) {
                prop_assert!(ids2.len() <= ids.len());
            }
        }
    }

    #[test]
    fn pages_roundtrip_disk_encoding(rows in arb_rows(40)) {
        let schema = test_schema();
        let layout = PaxLayout::for_schema(&schema);
        let mut leaf = PaxLeaf::new();
        for (i, row) in rows.iter().enumerate() {
            leaf.append(&layout, RowId(i as u64 + 1), row);
        }
        let expect_count = leaf.count;
        let mut buf = vec![0u8; phoebe_common::config::PAGE_SIZE];
        Page::TableLeaf(leaf).encode(&mut buf);
        let back = Page::decode(&buf).unwrap();
        let Page::TableLeaf(l2) = back else { panic!("kind changed") };
        prop_assert_eq!(l2.count, expect_count);
        for (i, row) in rows.iter().enumerate() {
            let idx = l2.find(RowId(i as u64 + 1)).expect("present after disk");
            prop_assert_eq!(&l2.read_row(&layout, idx), row);
        }
    }
}
