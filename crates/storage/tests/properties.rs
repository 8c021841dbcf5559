//! Property-based tests over the storage substrates: PAX layout, the
//! frozen-block codec, node split invariants, node key search, and page
//! disk encoding.

use phoebe_common::ids::RowId;
use phoebe_storage::node::{IndexLeaf, InnerNode, Page, FANOUT, INDEX_LEAF_CAP, MAX_KEY};
use phoebe_storage::pax::{PaxLayout, PaxLeaf};
use phoebe_storage::schema::{ColType, Schema, Value};
use phoebe_storage::tier::codec;
use proptest::prelude::*;

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

fn random_key() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 1..MAX_KEY)
}

/// Keys over {0x00, 0x01, 0xff}, 1 to 16 bytes long. Unlike random bytes
/// they often tie on their first 8 bytes, and a short key zero-pads to the
/// same head as every longer key that extends it with zeros.
fn tie_heavy_key() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec((0usize..3).prop_map(|i| [0x00, 0x01, 0xff][i]), 1..17)
}

/// The keys in an order that is neither sorted nor reverse-sorted.
fn shuffled(keys: &std::collections::BTreeSet<Vec<u8>>) -> Vec<Vec<u8>> {
    let mut out: Vec<_> = keys.iter().cloned().collect();
    out.sort_by_key(|k| {
        k.iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    });
    out
}

/// `lower_bound` and `get` agree with a linear scan of the key slices.
fn leaf_matches_scan(leaf: &IndexLeaf, probes: &[Vec<u8>], step: &str) {
    let keys: Vec<&[u8]> = (0..leaf.count as usize).map(|i| leaf.key(i)).collect();
    for w in keys.windows(2) {
        assert!(w[0] < w[1], "{step}: leaf out of order");
    }
    for p in probes {
        let lower = keys.iter().filter(|k| **k < p.as_slice()).count();
        assert_eq!(leaf.lower_bound(p), lower, "{step}: lower_bound({p:?})");
        let hit = keys.iter().position(|k| *k == p.as_slice()).map(|i| leaf.row_ids[i]);
        assert_eq!(leaf.get(p), hit, "{step}: get({p:?})");
    }
}

/// `child_index` agrees with a linear scan: the first separator greater
/// than the key.
fn inner_matches_scan(node: &InnerNode, probes: &[Vec<u8>], step: &str) {
    let seps: Vec<&[u8]> = (0..node.count as usize).map(|i| node.key(i)).collect();
    for p in probes {
        let child = seps.iter().filter(|s| **s <= p.as_slice()).count();
        assert_eq!(node.child_index(p), child, "{step}: child_index({p:?})");
    }
}

fn disk_roundtrip(page: Page) -> Page {
    let mut buf = vec![0u8; phoebe_common::config::PAGE_SIZE];
    page.encode(&mut buf);
    Page::decode(&buf).unwrap()
}

/// Every stored key, plus each one cut short, zero-extended and bumped in
/// its last byte: the probes that land between and beside stored keys.
fn probes_for(keys: &std::collections::BTreeSet<Vec<u8>>) -> Vec<Vec<u8>> {
    let mut probes = vec![vec![], vec![0x00], vec![0xff; 16]];
    for k in keys {
        probes.push(k.clone());
        probes.push(k[..k.len() - 1].to_vec());
        probes.push([k.as_slice(), &[0]].concat());
        let mut bumped = k.clone();
        *bumped.last_mut().unwrap() = bumped.last().unwrap().wrapping_add(1);
        probes.push(bumped);
    }
    probes
}

/// Index leaf search against the oracle after each step that moves
/// heads: inserts, removes, a split and a disk round trip.
fn index_leaf_search_oracle(keys: &std::collections::BTreeSet<Vec<u8>>) {
    let probes = probes_for(keys);
    let mut leaf = IndexLeaf::default();
    for (i, k) in shuffled(keys).iter().enumerate() {
        assert!(leaf.insert(k, i as u64), "fresh keys insert");
        assert!(!leaf.insert(k, u64::MAX), "duplicates are refused");
    }
    leaf_matches_scan(&leaf, &probes, "insert");
    for k in keys.iter().step_by(3) {
        assert!(leaf.remove(k).is_some());
        assert_eq!(leaf.remove(k), None);
    }
    leaf_matches_scan(&leaf, &probes, "remove");
    if leaf.count >= 2 {
        let (right, _) = leaf.split();
        leaf_matches_scan(&leaf, &probes, "split (left)");
        leaf_matches_scan(&right, &probes, "split (right)");
    }
    let Page::IndexLeaf(back) = disk_roundtrip(Page::IndexLeaf(leaf)) else {
        panic!("kind changed")
    };
    leaf_matches_scan(&back, &probes, "decode");
}

/// Inner node routing against the oracle after separator inserts, a
/// split and a disk round trip.
fn inner_search_oracle(keys: &std::collections::BTreeSet<Vec<u8>>) {
    let probes = probes_for(keys);
    let mut node = InnerNode::default();
    for k in shuffled(keys) {
        let pos = (0..node.count as usize).filter(|&i| node.key(i) < k.as_slice()).count();
        node.insert_separator(pos, &k, 0);
    }
    inner_matches_scan(&node, &probes, "insert_separator");
    if node.count >= 2 {
        let (right, _) = node.split();
        inner_matches_scan(&node, &probes, "split (left)");
        inner_matches_scan(&right, &probes, "split (right)");
    }
    let Page::Inner(back) = disk_roundtrip(Page::Inner(node)) else { panic!("kind changed") };
    inner_matches_scan(&back, &probes, "decode");
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
    fn index_leaf_stays_sorted_and_total(
        keys in proptest::collection::btree_set(random_key(), 1..INDEX_LEAF_CAP),
        ties in proptest::collection::btree_set(tie_heavy_key(), 1..INDEX_LEAF_CAP),
    ) {
        index_leaf_search_oracle(&keys);
        index_leaf_search_oracle(&ties);
        let mut leaf = IndexLeaf::default();
        for (i, k) in keys.iter().enumerate() {
            prop_assert!(leaf.insert(k, i as u64), "fresh keys insert");
        }
        for w in 1..leaf.count as usize {
            prop_assert!(leaf.key(w - 1) < leaf.key(w));
        }
        // Splits partition without loss.
        let (right, sep) = {
            let mut l2 = IndexLeaf::default();
            for (i, k) in keys.iter().enumerate() {
                l2.insert(k, i as u64);
            }
            l2.split()
        };
        let mut left_only = IndexLeaf::default();
        for (i, k) in keys.iter().enumerate() {
            left_only.insert(k, i as u64);
        }
        let (right2, _) = left_only.split();
        let _ = right2;
        for (i, k) in keys.iter().enumerate() {
            let hit = if k.as_slice() < sep.as_slice() {
                left_only.get(k)
            } else {
                right.get(k)
            };
            prop_assert_eq!(hit, Some(i as u64), "key {:?} sep {:?}", k, sep);
        }
    }

    #[test]
    fn inner_child_index_matches_a_linear_scan(
        keys in proptest::collection::btree_set(random_key(), 1..FANOUT),
        ties in proptest::collection::btree_set(tie_heavy_key(), 1..FANOUT),
    ) {
        inner_search_oracle(&keys);
        inner_search_oracle(&ties);
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
