//! B-Tree node types (§5.1, §5.3).
//!
//! Every relation — base table or secondary index — is one B-Tree whose
//! nodes live in buffer frames. Three node kinds exist:
//!
//! * [`InnerNode`]: separator keys + swizzled child references.
//! * [`crate::pax::PaxLeaf`]: table leaves holding tuples in PAX format,
//!   keyed by the monotonically increasing row id.
//! * [`IndexLeaf`]: secondary-index leaves holding sorted
//!   `(key, row_id)` pairs (§5.1: "user-defined indexes ... storing
//!   (key, row_id) pairs").
//!
//! All node storage is fixed-size and inline — no `Vec`, no `Box` — so an
//! optimistic reader that loses the version race reads stale plain bytes,
//! never a dangling pointer (see the latch module's contract). Keys are
//! byte strings compared lexicographically; callers encode typed keys
//! order-preservingly (big-endian ints etc.).
//!
//! Inner and index nodes keep each key's head (`key_head`) beside its slot, and
//! a search compares heads — one machine word each, in one dense array —
//! and reads a key slot only when its head ties with the search key's.
//! Heads live only in memory: a page image carries the keys, and decoding
//! rebuilds the heads from them.

use crate::pax::PaxLeaf;
use phoebe_common::config::PAGE_SIZE;
use phoebe_common::error::{PhoebeError, Result};
use std::cmp::Ordering;

/// Maximum key length storable inline in inner and index nodes.
pub const MAX_KEY: usize = 56;

/// Separator keys per inner node (fanout = FANOUT + 1 children).
pub const FANOUT: usize = 200;

/// Entries per index leaf: as many as fit beside their heads without
/// making the leaf larger than a table leaf, so the frame does not grow.
pub const INDEX_LEAF_CAP: usize = 212;

// Every frame holds a `Page`, sized by its largest variant: a table leaf.
const _: () = assert!(
    std::mem::size_of::<IndexLeaf>() <= std::mem::size_of::<PaxLeaf>()
        && std::mem::size_of::<InnerNode>() <= std::mem::size_of::<PaxLeaf>()
);

/// A key's head: its first 8 bytes, zero-padded, as a big-endian integer.
/// Where two keys' heads differ they order the keys exactly as the byte
/// slices do — a key shorter than 8 bytes pads with the smallest byte, so
/// it stays below every longer key it is a prefix of. Only equal heads
/// leave the order to the slices.
#[inline]
fn key_head(key: &[u8]) -> u64 {
    let mut head = [0u8; 8];
    let n = key.len().min(8);
    head[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(head)
}

/// Order of two keys whose heads are equal. A key of at most 8 bytes is
/// then a prefix of the other key (its padding matched the other's
/// bytes), so the lengths decide; two longer keys share their first 8
/// bytes and differ in the rest.
#[inline]
fn order_on_tie(stored: &[u8], key: &[u8]) -> Ordering {
    if stored.len() <= 8 || key.len() <= 8 {
        stored.len().cmp(&key.len())
    } else {
        stored[8..].cmp(&key[8..])
    }
}

/// An inner node: `count` separator keys and `count + 1` children.
/// `children[i]` holds keys `k` with `keys[i-1] <= k < keys[i]`
/// (with implicit sentinels at both ends).
pub struct InnerNode {
    pub count: u16,
    pub key_lens: [u8; FANOUT],
    pub keys: [[u8; MAX_KEY]; FANOUT],
    /// `heads[i]` is `key_head(key(i))`.
    heads: [u64; FANOUT],
    /// Raw [`crate::swip::Swip`] encodings.
    pub children: [u64; FANOUT + 1],
}

impl Default for InnerNode {
    fn default() -> Self {
        InnerNode {
            count: 0,
            key_lens: [0; FANOUT],
            keys: [[0; MAX_KEY]; FANOUT],
            heads: [0; FANOUT],
            children: [crate::swip::Swip::NULL.raw(); FANOUT + 1],
        }
    }
}

impl InnerNode {
    pub fn key(&self, i: usize) -> &[u8] {
        &self.keys[i][..self.key_lens[i] as usize]
    }

    fn set_key(&mut self, i: usize, key: &[u8]) {
        assert!(key.len() <= MAX_KEY, "key exceeds {MAX_KEY} bytes");
        self.key_lens[i] = key.len() as u8;
        self.keys[i][..key.len()].copy_from_slice(key);
        self.heads[i] = key_head(key);
    }

    fn rebuild_heads(&mut self) {
        for i in 0..self.count as usize {
            self.heads[i] = key_head(self.key(i));
        }
    }

    pub fn is_full(&self) -> bool {
        self.count as usize >= FANOUT
    }

    /// Child index to descend into for `key`: the first separator greater
    /// than `key` bounds the subtree on the right.
    pub fn child_index(&self, key: &[u8]) -> usize {
        let h = key_head(key);
        let (mut lo, mut hi) = (0usize, self.count as usize);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.heads[mid].cmp(&h).then_with(|| order_on_tie(self.key(mid), key))
                == Ordering::Greater
            {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Insert separator `key` at child position `pos` with `right` becoming
    /// `children[pos + 1]` (the result of splitting `children[pos]`).
    pub fn insert_separator(&mut self, pos: usize, key: &[u8], right: u64) {
        let n = self.count as usize;
        assert!(n < FANOUT, "insert into a full inner node");
        assert!(pos <= n);
        self.keys.copy_within(pos..n, pos + 1);
        self.key_lens.copy_within(pos..n, pos + 1);
        self.heads.copy_within(pos..n, pos + 1);
        self.children.copy_within(pos + 1..n + 1, pos + 2);
        self.set_key(pos, key);
        self.children[pos + 1] = right;
        self.count += 1;
    }

    /// Split in half: returns the new right sibling and the separator key
    /// promoted to the parent (the median, which moves up and out).
    pub fn split(&mut self) -> (InnerNode, Vec<u8>) {
        let n = self.count as usize;
        let mid = n / 2;
        let sep = self.key(mid).to_vec();
        let mut right = InnerNode::default();
        let moved = n - mid - 1;
        right.keys[..moved].copy_from_slice(&self.keys[mid + 1..n]);
        right.key_lens[..moved].copy_from_slice(&self.key_lens[mid + 1..n]);
        right.heads[..moved].copy_from_slice(&self.heads[mid + 1..n]);
        right.children[..=moved].copy_from_slice(&self.children[mid + 1..=n]);
        right.count = moved as u16;
        self.count = mid as u16;
        (right, sep)
    }

    /// Position of the child whose raw swip equals `raw`, if any (used by
    /// eviction to find a victim's slot in its parent).
    pub fn find_child_slot(&self, raw: u64) -> Option<usize> {
        self.children[..=self.count as usize].iter().position(|&c| c == raw)
    }
}

/// A secondary-index leaf: entries sorted by key. Keys are unique — the
/// upper layer suffixes non-unique user keys with the row id.
pub struct IndexLeaf {
    pub count: u16,
    pub key_lens: [u8; INDEX_LEAF_CAP],
    pub keys: [[u8; MAX_KEY]; INDEX_LEAF_CAP],
    /// `heads[i]` is `key_head(key(i))`.
    heads: [u64; INDEX_LEAF_CAP],
    pub row_ids: [u64; INDEX_LEAF_CAP],
}

impl Default for IndexLeaf {
    fn default() -> Self {
        IndexLeaf {
            count: 0,
            key_lens: [0; INDEX_LEAF_CAP],
            keys: [[0; MAX_KEY]; INDEX_LEAF_CAP],
            heads: [0; INDEX_LEAF_CAP],
            row_ids: [0; INDEX_LEAF_CAP],
        }
    }
}

impl IndexLeaf {
    pub fn key(&self, i: usize) -> &[u8] {
        &self.keys[i][..self.key_lens[i] as usize]
    }

    pub fn is_full(&self) -> bool {
        self.count as usize >= INDEX_LEAF_CAP
    }

    fn rebuild_heads(&mut self) {
        for i in 0..self.count as usize {
            self.heads[i] = key_head(self.key(i));
        }
    }

    /// `Ok(pos)` if `key(pos) == key`, else `Err(pos)` with `pos` the
    /// first position whose key is greater.
    fn search(&self, key: &[u8]) -> std::result::Result<usize, usize> {
        let h = key_head(key);
        let (mut lo, mut hi) = (0usize, self.count as usize);
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.heads[mid].cmp(&h).then_with(|| order_on_tie(self.key(mid), key)) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// First position with `key(pos) >= key`.
    pub fn lower_bound(&self, key: &[u8]) -> usize {
        self.search(key).unwrap_or_else(|pos| pos)
    }

    /// Exact-match lookup.
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        self.search(key).ok().map(|pos| self.row_ids[pos])
    }

    /// Insert `(key, row_id)`; returns false if the key already exists.
    pub fn insert(&mut self, key: &[u8], row_id: u64) -> bool {
        assert!(key.len() <= MAX_KEY, "key exceeds {MAX_KEY} bytes");
        let n = self.count as usize;
        assert!(n < INDEX_LEAF_CAP, "insert into a full index leaf");
        let Err(pos) = self.search(key) else {
            return false;
        };
        self.keys.copy_within(pos..n, pos + 1);
        self.key_lens.copy_within(pos..n, pos + 1);
        self.heads.copy_within(pos..n, pos + 1);
        self.row_ids.copy_within(pos..n, pos + 1);
        self.key_lens[pos] = key.len() as u8;
        self.keys[pos] = [0; MAX_KEY];
        self.keys[pos][..key.len()].copy_from_slice(key);
        self.heads[pos] = key_head(key);
        self.row_ids[pos] = row_id;
        self.count += 1;
        true
    }

    /// Remove `key`; returns the row id it mapped to, if present.
    pub fn remove(&mut self, key: &[u8]) -> Option<u64> {
        let n = self.count as usize;
        let pos = self.search(key).ok()?;
        let row = self.row_ids[pos];
        self.keys.copy_within(pos + 1..n, pos);
        self.key_lens.copy_within(pos + 1..n, pos);
        self.heads.copy_within(pos + 1..n, pos);
        self.row_ids.copy_within(pos + 1..n, pos);
        self.count -= 1;
        Some(row)
    }

    /// Split in half: returns the right sibling and the separator (the
    /// right sibling's first key; it stays in the leaf — leaf separators
    /// are copied up, not moved up).
    pub fn split(&mut self) -> (IndexLeaf, Vec<u8>) {
        let n = self.count as usize;
        let mid = n / 2;
        let mut right = IndexLeaf::default();
        let moved = n - mid;
        right.keys[..moved].copy_from_slice(&self.keys[mid..n]);
        right.key_lens[..moved].copy_from_slice(&self.key_lens[mid..n]);
        right.heads[..moved].copy_from_slice(&self.heads[mid..n]);
        right.row_ids[..moved].copy_from_slice(&self.row_ids[mid..n]);
        right.count = moved as u16;
        self.count = mid as u16;
        let sep = right.key(0).to_vec();
        (right, sep)
    }
}

/// The content of one buffer frame. Variant sizes differ by design:
/// every frame stores a full page image, so there is nothing to box.
#[allow(clippy::large_enum_variant)]
pub enum Page {
    /// Frame not in use.
    Free,
    Inner(InnerNode),
    TableLeaf(PaxLeaf),
    IndexLeaf(IndexLeaf),
}

impl Page {
    pub fn kind_name(&self) -> &'static str {
        match self {
            Page::Free => "free",
            Page::Inner(_) => "inner",
            Page::TableLeaf(_) => "table-leaf",
            Page::IndexLeaf(_) => "index-leaf",
        }
    }

    pub fn is_free(&self) -> bool {
        matches!(self, Page::Free)
    }

    /// Serialize into an on-disk page image (Data Page File slot).
    pub fn encode(&self, out: &mut [u8]) {
        assert!(out.len() >= PAGE_SIZE);
        out[..PAGE_SIZE].fill(0);
        let mut w = Writer { buf: out, at: 0 };
        match self {
            Page::Free => w.u8(0),
            Page::Inner(n) => {
                w.u8(1);
                w.u16(n.count);
                w.bytes(&n.key_lens);
                for k in &n.keys[..n.count as usize] {
                    w.bytes(k);
                }
                for c in &n.children[..=n.count as usize] {
                    w.u64(*c);
                }
            }
            Page::TableLeaf(l) => {
                w.u8(2);
                w.u16(l.count);
                for v in &l.valid {
                    w.u64(*v);
                }
                w.bytes(&l.data);
            }
            Page::IndexLeaf(l) => {
                w.u8(3);
                w.u16(l.count);
                w.bytes(&l.key_lens[..l.count as usize]);
                for k in &l.keys[..l.count as usize] {
                    w.bytes(k);
                }
                for r in &l.row_ids[..l.count as usize] {
                    w.u64(*r);
                }
            }
        }
    }

    /// Deserialize a page image read back from the Data Page File.
    pub fn decode(buf: &[u8]) -> Result<Page> {
        let mut page = Page::Free;
        page.decode_from(buf)?;
        Ok(page)
    }

    /// Deserialize a page image in place: `self` (a frame's content,
    /// write-latched by the caller) takes the image's variant and is
    /// filled field by field, so a 16 KiB page is never built on the
    /// stack and moved. On error `self` holds an unspecified valid page.
    pub fn decode_from(&mut self, buf: &[u8]) -> Result<()> {
        if buf.len() < PAGE_SIZE {
            return Err(PhoebeError::corruption("short page image"));
        }
        let mut r = Reader { buf, at: 0 };
        match r.u8() {
            0 => *self = Page::Free,
            1 => {
                let count = r.u16();
                if count as usize > FANOUT {
                    return Err(PhoebeError::corruption("inner count out of range"));
                }
                *self = Page::Inner(InnerNode::default());
                let Page::Inner(n) = self else { unreachable!() };
                n.count = count;
                r.read(&mut n.key_lens);
                for k in &mut n.keys[..count as usize] {
                    r.read(k);
                }
                for c in &mut n.children[..=count as usize] {
                    *c = r.u64();
                }
                n.rebuild_heads();
            }
            2 => {
                *self = Page::TableLeaf(PaxLeaf::new());
                let Page::TableLeaf(l) = self else { unreachable!() };
                l.count = r.u16();
                for v in l.valid.iter_mut() {
                    *v = r.u64();
                }
                r.read(&mut l.data);
            }
            3 => {
                let count = r.u16();
                if count as usize > INDEX_LEAF_CAP {
                    return Err(PhoebeError::corruption("index leaf count out of range"));
                }
                *self = Page::IndexLeaf(IndexLeaf::default());
                let Page::IndexLeaf(l) = self else { unreachable!() };
                l.count = count;
                r.read(&mut l.key_lens[..count as usize]);
                for k in &mut l.keys[..count as usize] {
                    r.read(k);
                }
                for id in &mut l.row_ids[..count as usize] {
                    *id = r.u64();
                }
                l.rebuild_heads();
            }
            t => return Err(PhoebeError::corruption(format!("unknown page kind {t}"))),
        }
        Ok(())
    }
}

struct Writer<'a> {
    buf: &'a mut [u8],
    at: usize,
}

impl Writer<'_> {
    fn u8(&mut self, v: u8) {
        self.buf[self.at] = v;
        self.at += 1;
    }
    fn u16(&mut self, v: u16) {
        self.buf[self.at..self.at + 2].copy_from_slice(&v.to_le_bytes());
        self.at += 2;
    }
    fn u64(&mut self, v: u64) {
        self.buf[self.at..self.at + 8].copy_from_slice(&v.to_le_bytes());
        self.at += 8;
    }
    fn bytes(&mut self, v: &[u8]) {
        self.buf[self.at..self.at + v.len()].copy_from_slice(v);
        self.at += v.len();
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn u8(&mut self) -> u8 {
        let v = self.buf[self.at];
        self.at += 1;
        v
    }
    fn u16(&mut self) -> u16 {
        let v = u16::from_le_bytes(self.buf[self.at..self.at + 2].try_into().expect("2"));
        self.at += 2;
        v
    }
    fn u64(&mut self) -> u64 {
        let v = u64::from_le_bytes(self.buf[self.at..self.at + 8].try_into().expect("8"));
        self.at += 8;
        v
    }
    fn read(&mut self, out: &mut [u8]) {
        out.copy_from_slice(&self.buf[self.at..self.at + out.len()]);
        self.at += out.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColType, Schema, Value};
    use phoebe_common::ids::RowId;

    #[test]
    fn inner_child_index_partitions_key_space() {
        let mut n = InnerNode::default();
        n.children[0] = 100;
        n.insert_separator(0, b"m", 200);
        n.insert_separator(1, b"t", 300);
        assert_eq!(n.child_index(b"a"), 0);
        assert_eq!(n.child_index(b"m"), 1); // separator belongs right
        assert_eq!(n.child_index(b"p"), 1);
        assert_eq!(n.child_index(b"t"), 2);
        assert_eq!(n.child_index(b"z"), 2);
        assert_eq!(n.children[..3], [100, 200, 300]);
    }

    #[test]
    fn inner_insert_separator_shifts_correctly() {
        let mut n = InnerNode::default();
        n.children[0] = 1;
        n.insert_separator(0, b"d", 2);
        n.insert_separator(1, b"h", 3);
        // Now split child 1 ("d".."h") with separator "f".
        n.insert_separator(1, b"f", 9);
        assert_eq!(n.count, 3);
        assert_eq!(n.key(0), b"d");
        assert_eq!(n.key(1), b"f");
        assert_eq!(n.key(2), b"h");
        assert_eq!(n.children[..4], [1, 2, 9, 3]);
    }

    #[test]
    fn inner_split_preserves_navigation() {
        let mut n = InnerNode::default();
        n.children[0] = 0;
        for i in 0..FANOUT {
            let key = format!("{i:05}");
            n.insert_separator(i, key.as_bytes(), (i + 1) as u64);
        }
        assert!(n.is_full());
        let (right, sep) = n.split();
        // Every original child must be reachable via the correct side.
        for i in 0..FANOUT {
            let key = format!("{i:05}");
            let child = if key.as_bytes() < sep.as_slice() {
                n.children[n.child_index(key.as_bytes())]
            } else {
                right.children[right.child_index(key.as_bytes())]
            };
            assert_eq!(child, (i + 1) as u64, "child for separator {key}");
        }
    }

    #[test]
    fn index_leaf_insert_get_remove() {
        let mut l = IndexLeaf::default();
        assert!(l.insert(b"bob", 2));
        assert!(l.insert(b"alice", 1));
        assert!(l.insert(b"carol", 3));
        assert!(!l.insert(b"bob", 9), "duplicate must be rejected");
        assert_eq!(l.get(b"alice"), Some(1));
        assert_eq!(l.get(b"bob"), Some(2));
        assert_eq!(l.get(b"dave"), None);
        assert_eq!(l.remove(b"bob"), Some(2));
        assert_eq!(l.get(b"bob"), None);
        assert_eq!(l.remove(b"bob"), None);
        assert_eq!(l.count, 2);
    }

    #[test]
    fn index_leaf_stays_sorted_under_random_inserts() {
        let mut l = IndexLeaf::default();
        let mut keys: Vec<u64> = (0..200).map(|i| (i * 7919) % 1000).collect();
        keys.dedup();
        for &k in &keys {
            l.insert(&k.to_be_bytes(), k);
        }
        for w in 0..l.count as usize - 1 {
            assert!(l.key(w) < l.key(w + 1));
        }
    }

    #[test]
    fn index_leaf_split_partitions_entries() {
        let mut l = IndexLeaf::default();
        for i in 0..INDEX_LEAF_CAP {
            l.insert(&(i as u64).to_be_bytes(), i as u64);
        }
        assert!(l.is_full());
        let (right, sep) = l.split();
        assert_eq!(l.count as usize + right.count as usize, INDEX_LEAF_CAP);
        for i in 0..INDEX_LEAF_CAP as u64 {
            let key = i.to_be_bytes();
            let got = if key.as_slice() < sep.as_slice() { l.get(&key) } else { right.get(&key) };
            assert_eq!(got, Some(i));
        }
    }

    #[test]
    fn find_child_slot_locates_swips() {
        let mut n = InnerNode::default();
        n.children[0] = 11;
        n.insert_separator(0, b"x", 22);
        assert_eq!(n.find_child_slot(11), Some(0));
        assert_eq!(n.find_child_slot(22), Some(1));
        assert_eq!(n.find_child_slot(33), None);
    }

    #[test]
    fn pages_roundtrip_through_disk_encoding() {
        let mut inner = InnerNode::default();
        inner.children[0] = 5;
        inner.insert_separator(0, b"hello", 6);
        let mut index = IndexLeaf::default();
        index.insert(b"k1", 10);
        index.insert(b"k2", 20);
        let schema = Schema::new(vec![("a", ColType::I64), ("s", ColType::Str(8))]);
        let layout = crate::pax::PaxLayout::for_schema(&schema);
        let mut leaf = PaxLeaf::new();
        leaf.append(&layout, RowId(3), &[Value::I64(42), Value::Str("hi".into())]);

        let mut buf = vec![0u8; PAGE_SIZE];
        for page in [Page::Inner(inner), Page::IndexLeaf(index), Page::TableLeaf(leaf), Page::Free]
        {
            page.encode(&mut buf);
            let back = Page::decode(&buf).expect("decode");
            assert_eq!(back.kind_name(), page.kind_name());
            match (&page, &back) {
                (Page::Inner(a), Page::Inner(b)) => {
                    assert_eq!(a.count, b.count);
                    assert_eq!(a.key(0), b.key(0));
                    assert_eq!(a.children[..2], b.children[..2]);
                }
                (Page::IndexLeaf(a), Page::IndexLeaf(b)) => {
                    assert_eq!(a.count, b.count);
                    assert_eq!(b.get(b"k1"), Some(10));
                    assert_eq!(b.get(b"k2"), Some(20));
                    assert_eq!(a.key(1), b.key(1));
                }
                (Page::TableLeaf(a), Page::TableLeaf(b)) => {
                    assert_eq!(a.count, b.count);
                    assert_eq!(b.find(RowId(3)), Some(0));
                    assert_eq!(b.read_col(&layout, 0, 1), Value::Str("hi".into()));
                }
                (Page::Free, Page::Free) => {}
                _ => panic!("kind mismatch after roundtrip"),
            }
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        let mut buf = vec![0u8; PAGE_SIZE];
        buf[0] = 99;
        assert!(Page::decode(&buf).is_err());
        assert!(Page::decode(&buf[..10]).is_err());
        // Out-of-range counts are rejected, not trusted.
        buf[0] = 1;
        buf[1..3].copy_from_slice(&(FANOUT as u16 + 1).to_le_bytes());
        assert!(Page::decode(&buf).is_err());
    }
}
