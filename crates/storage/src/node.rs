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
//! Inner nodes and index leaves share one format, `KeyNode`: a small
//! header (count, key width) and one inline area. Every key a tree stores
//! has the same width — 8-byte row keys in a table tree, fixed-width
//! column encodings (plus a row-id suffix when not unique) in an index —
//! so the area is three dense arrays with a stride of the tree's own
//! width: each key's head (its first 8 bytes as a big-endian `u64`), the
//! row ids or child swips, and the key bytes past the head. A node holds
//! [`capacity`]`(width)` keys.
//!
//! All node storage is fixed-size and inline — no `Vec`, no `Box` — so an
//! optimistic reader that loses the version race reads stale plain bytes,
//! never a dangling pointer (see the latch module's contract); every
//! accessor clamps the count and width it read before it slices. Keys
//! are byte strings compared lexicographically; callers encode typed
//! keys order-preservingly (big-endian ints etc.).

use crate::pax::PaxLeaf;
use crate::smallkey::SmallKey;
use phoebe_common::config::PAGE_SIZE;
use phoebe_common::error::{PhoebeError, Result};
use std::cmp::Ordering;

/// Bytes in a key node's inline area: as many whole words as fit beside
/// the header without making the node larger than a table leaf, which
/// sizes every frame's `Page`.
const AREA_BYTES: usize = (std::mem::size_of::<PaxLeaf>() - 8) / 8 * 8;

/// The fewest keys a node of the widest key holds.
const MIN_KEYS: usize = 32;

/// The widest key a tree stores: the width at which a node still holds
/// [`MIN_KEYS`] keys. `IndexDef::check` refuses wider index keys at DDL
/// time; a node refuses them with [`WidthMismatch`].
pub const KEY_CAP: usize = (AREA_BYTES - 8) / MIN_KEYS - 16 + 8;

/// Keys a node of key width `width` (at most [`KEY_CAP`]) holds: each
/// takes a head and a row id or swip (16 bytes) plus its bytes past the
/// head; an inner node's extra child takes the last 8 bytes.
pub const fn capacity(width: usize) -> usize {
    (AREA_BYTES - 8) / (16 + width.saturating_sub(8))
}

/// [`capacity`] for every width, so a hop reads it instead of dividing.
const CAPACITY: [u16; KEY_CAP + 1] = {
    let mut caps = [0u16; KEY_CAP + 1];
    let mut w = 0;
    while w <= KEY_CAP {
        caps[w] = capacity(w) as u16;
        w += 1;
    }
    caps
};

// Every frame holds a `Page`, sized by its largest variant: a table leaf.
const _: () = assert!(
    std::mem::size_of::<KeyNode>() <= std::mem::size_of::<PaxLeaf>()
        && capacity(KEY_CAP) >= MIN_KEYS
        && capacity(0) <= u16::MAX as usize
);

/// `last_insert` when no insert since the node was made, split or shrunk.
const NO_INSERT: u16 = u16::MAX;

/// A stored key whose width differs from its node's, or exceeds
/// [`KEY_CAP`]. The tree reports it as a `SchemaMismatch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WidthMismatch {
    /// The node's key width.
    pub width: usize,
    /// The refused key's length.
    pub got: usize,
}

/// A key's head: its first 8 bytes, zero-padded, as a big-endian integer.
/// Where two keys' heads differ they order the keys exactly as the byte
/// slices do — a key shorter than 8 bytes pads with the smallest byte, so
/// it stays below every longer key it is a prefix of. Only equal heads
/// leave the order to the bytes past the head.
#[inline]
fn key_head(key: &[u8]) -> u64 {
    let mut head = [0u8; 8];
    let n = key.len().min(8);
    head[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(head)
}

/// The fewest keys [`search_sorted`] interpolates over; below it, bisection.
const INTERPOLATE_MIN: usize = 8;

/// Position of a search key among `n` sorted keys: `Ok(i)` if key `i`
/// equals it, else `Err(i)` with `i` the first position whose key is
/// greater. `head_at(i)` is key `i`'s head and `h` the search key's; `tie(i)`
/// orders key `i` against the search key when the heads are equal. Inner
/// nodes, index leaves and a table leaf's row ids all search this way.
///
/// Row-id separators and dense integer keys are nearly evenly spaced, so
/// the position is interpolated between the end heads: a key beyond them
/// is answered at once, else key `g = (h − first) · (n − 1) / (last −
/// first)` is probed, and from there the search gallops (steps 1, 2, 4,
/// …) until the key is bracketed and bisects the bracket. A head that
/// ties `h` says nothing about position: a tie with one end is settled by
/// comparing that key, and a tie with both ends or at a probe bisects what
/// is left. So a dense node costs three head reads, a tie-heavy one at
/// most `⌈log₂ n⌉ + 3`.
///
/// Every probe lies in the open bracket and each step shrinks it, so heads
/// that are not sorted (a torn optimistic read) still give a position in
/// `[0, n]` after at most about `2 log₂ n` reads.
#[inline]
pub(crate) fn search_sorted(
    n: usize,
    h: u64,
    head_at: impl Fn(usize) -> u64,
    tie: impl Fn(usize) -> Ordering,
) -> std::result::Result<usize, usize> {
    let cmp = |i: usize, head_i: u64| head_i.cmp(&h).then_with(|| tie(i));
    let (mut lo, mut hi) = (0, n);
    if n >= INTERPOLATE_MIN {
        let (first, last) = (head_at(0), head_at(n - 1));
        // A key beyond an end is answered there, a tie with one end is
        // settled there, and a tie with both ends bisects.
        match (h.cmp(&first), h.cmp(&last)) {
            (Ordering::Less, _) => return Err(0),
            (_, Ordering::Greater) => return Err(n),
            (Ordering::Equal, Ordering::Equal) => {}
            (Ordering::Equal, Ordering::Less) => match tie(0) {
                Ordering::Less => lo = 1,
                Ordering::Equal => return Ok(0),
                Ordering::Greater => return Err(0),
            },
            (Ordering::Greater, Ordering::Equal) => match tie(n - 1) {
                Ordering::Less => return Err(n),
                Ordering::Equal => return Ok(n - 1),
                Ordering::Greater => hi = n - 1,
            },
            (Ordering::Greater, Ordering::Less) => {
                (lo, hi) = (1, n - 1);
                // Multiplied first, the guess is exact for evenly spaced keys.
                let g = (h - first) as f64 * (n - 1) as f64 / (last - first) as f64;
                let g = (g as usize).clamp(lo, hi - 1);
                let hg = head_at(g);
                match cmp(g, hg) {
                    Ordering::Equal => return Ok(g),
                    Ordering::Less => lo = g + 1,
                    Ordering::Greater => hi = g,
                }
                // Gallop from g toward the key — g ± 1, g ± 2, g ± 4, … — until
                // a probe passes the key, leaves the bracket or ties its head.
                let (up, mut step, mut tied) = (lo > g, 1, hg == h);
                while !tied {
                    let p = if up { g + step } else { g.wrapping_sub(step) };
                    if p < lo || p >= hi {
                        break;
                    }
                    let hp = head_at(p);
                    match cmp(p, hp) {
                        Ordering::Equal => return Ok(p),
                        Ordering::Less => lo = p + 1,
                        Ordering::Greater => hi = p,
                    }
                    if up != (lo > p) {
                        break;
                    }
                    (step, tied) = (2 * step, hp == h);
                }
            }
        }
    }
    while lo < hi {
        let mid = (lo + hi) / 2;
        match cmp(mid, head_at(mid)) {
            Ordering::Less => lo = mid + 1,
            Ordering::Greater => hi = mid,
            Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

/// Where a node's arrays sit in its area, from a clamped header.
#[derive(Clone, Copy)]
struct Layout {
    /// Key width, at most [`KEY_CAP`].
    width: usize,
    /// Bytes per key past the head.
    sfx: usize,
    /// Keys the node holds; heads are words `[0, cap)`, values words
    /// `[cap, 2 cap + 1)`, suffixes the bytes after those.
    cap: usize,
    /// Keys stored, at most `cap`.
    n: usize,
}

impl Layout {
    /// Byte offset of key `i`'s suffix.
    #[inline]
    fn suffix_at(&self, i: usize) -> usize {
        (2 * self.cap + 1) * 8 + i * self.sfx
    }
}

/// A node's inline area: 8-aligned bytes, so the head and value words
/// are aligned loads.
#[repr(align(8))]
struct Area([u8; AREA_BYTES]);

/// The format inner nodes and index leaves share: `count` keys of
/// `width` bytes each, in order, with one value each (a row id) or one
/// more (child swips).
pub(crate) struct KeyNode {
    count: u16,
    /// 0 until the first key is stored: a node takes the width of the
    /// first key it stores, and a split hands its width to the sibling.
    width: u16,
    /// Position of the last insert into an index leaf (the split rule's
    /// memory), or [`NO_INSERT`]. Written under the exclusive latch; not
    /// part of the page image.
    last_insert: u16,
    area: Area,
}

impl KeyNode {
    fn new(first_value: u64) -> Self {
        let mut node =
            KeyNode { count: 0, width: 0, last_insert: NO_INSERT, area: Area([0; AREA_BYTES]) };
        node.set_value(0, first_value);
        node
    }

    #[inline]
    fn layout(&self) -> Layout {
        let width = (self.width as usize).min(KEY_CAP);
        let cap = CAPACITY[width] as usize;
        Layout { width, sfx: width.saturating_sub(8), cap, n: (self.count as usize).min(cap) }
    }

    /// Word `i` of the area: a head below `cap`, a value from there.
    #[inline]
    fn word(&self, i: usize) -> u64 {
        u64::from_ne_bytes(self.area.0[i * 8..i * 8 + 8].try_into().expect("8 bytes"))
    }

    fn set_word(&mut self, i: usize, v: u64) {
        self.area.0[i * 8..i * 8 + 8].copy_from_slice(&v.to_ne_bytes());
    }

    /// Move words `range` to start at word `to`.
    fn move_words(&mut self, range: std::ops::Range<usize>, to: usize) {
        self.area.0.copy_within(range.start * 8..range.end * 8, to * 8);
    }

    fn len(&self) -> usize {
        self.layout().n
    }

    fn width(&self) -> usize {
        self.layout().width
    }

    fn is_full(&self) -> bool {
        let l = self.layout();
        l.n >= l.cap
    }

    /// Let `key` be stored here: an empty node of no width takes its
    /// width; otherwise the widths must match.
    fn admit(&mut self, key: &[u8]) -> std::result::Result<(), WidthMismatch> {
        let refused = WidthMismatch { width: self.width as usize, got: key.len() };
        if key.len() > KEY_CAP {
            return Err(refused);
        }
        if self.width == 0 && self.count == 0 && !key.is_empty() {
            // The values move with the capacity: keep the first child.
            let first = self.value(0);
            self.width = key.len() as u16;
            self.set_value(0, first);
        }
        if self.width as usize == key.len() {
            Ok(())
        } else {
            Err(refused)
        }
    }

    /// Key `i` (below the count), head bytes then suffix, into `buf`.
    fn key_into<'b>(&self, i: usize, buf: &'b mut [u8; KEY_CAP]) -> &'b [u8] {
        let l = self.layout();
        let h = l.width.min(8);
        buf[..h].copy_from_slice(&self.word(i).to_be_bytes()[..h]);
        let at = l.suffix_at(i);
        buf[h..l.width].copy_from_slice(&self.area.0[at..at + l.sfx]);
        &buf[..l.width]
    }

    fn key(&self, i: usize) -> SmallKey {
        SmallKey::from_slice(self.key_into(i, &mut [0; KEY_CAP]))
    }

    /// `Ok(pos)` if key `pos` equals `key`, else `Err(pos)` with `pos`
    /// the first position whose key is greater: [`search_sorted`] over the
    /// heads. A tie is broken on the stored suffix against `key`'s bytes
    /// past 8, or — when either side has no bytes past 8 — on the lengths.
    #[inline]
    fn search(&self, key: &[u8]) -> std::result::Result<usize, usize> {
        self.search_by(key, |i| self.word(i))
    }

    /// [`Self::search`] reading each head through `head_at`.
    #[inline]
    fn search_by(
        &self,
        key: &[u8],
        head_at: impl Fn(usize) -> u64,
    ) -> std::result::Result<usize, usize> {
        let l = self.layout();
        search_sorted(l.n, key_head(key), head_at, |i| {
            if l.width <= 8 || key.len() <= 8 {
                l.width.cmp(&key.len())
            } else {
                let at = l.suffix_at(i);
                self.area.0[at..at + l.sfx].cmp(&key[8..])
            }
        })
    }

    /// Value `i`: a row id, or child swip `i`.
    #[inline]
    fn value(&self, i: usize) -> u64 {
        self.word(self.layout().cap + i)
    }

    /// Values `[0, n + extra)`, clamped.
    fn values(&self, extra: usize) -> impl Iterator<Item = u64> + '_ {
        let l = self.layout();
        self.area.0[l.cap * 8..(l.cap + l.n + extra) * 8]
            .chunks_exact(8)
            .map(|w| u64::from_ne_bytes(w.try_into().expect("8 bytes")))
    }

    fn set_value(&mut self, i: usize, v: u64) {
        self.set_word(self.layout().cap + i, v);
    }

    /// Insert `key` (of the node's width) at `pos`, with `value` at value
    /// position `pos + extra`. The node must have room.
    fn insert_at(&mut self, pos: usize, key: &[u8], value: u64, extra: usize) {
        let l = self.layout();
        let (n, cap, s) = (l.n, l.cap, l.sfx);
        assert!(n < cap && pos <= n, "insert into a full node");
        self.move_words(pos..n, pos + 1);
        self.move_words(cap + pos + extra..cap + n + extra, cap + pos + extra + 1);
        let at = l.suffix_at(pos);
        self.area.0.copy_within(at..at + (n - pos) * s, at + s);
        self.area.0[at..at + s].copy_from_slice(&key[key.len().min(8)..]);
        self.set_word(pos, key_head(key));
        self.set_word(cap + pos + extra, value);
        self.count = n as u16 + 1;
    }

    /// Remove key `pos` and value `pos` (index leaves).
    fn remove_at(&mut self, pos: usize) {
        let l = self.layout();
        let (n, cap, s) = (l.n, l.cap, l.sfx);
        self.move_words(pos + 1..n, pos);
        self.move_words(cap + pos + 1..cap + n, cap + pos);
        let at = l.suffix_at(pos);
        self.area.0.copy_within(at + s..at + (n - pos) * s, at);
        self.count = n as u16 - 1;
        self.last_insert = NO_INSERT;
    }

    /// Move keys `[from, n)` and values `[vfrom, vend)` into a new node
    /// of the same width; this node keeps its first `keep` keys.
    fn split_off(&mut self, from: usize, keep: usize, vfrom: usize, vend: usize) -> KeyNode {
        let l = self.layout();
        let mut right = KeyNode::new(0);
        right.width = self.width;
        let m = l.n - from;
        let (src, dst) = (&self.area.0, &mut right.area.0);
        dst[..m * 8].copy_from_slice(&src[from * 8..l.n * 8]);
        let vals = (l.cap + vfrom) * 8..(l.cap + vend) * 8;
        dst[l.cap * 8..l.cap * 8 + vals.len()].copy_from_slice(&src[vals]);
        let (at, to) = (l.suffix_at(from), l.suffix_at(0));
        dst[to..to + m * l.sfx].copy_from_slice(&src[at..at + m * l.sfx]);
        right.count = m as u16;
        self.count = keep as u16;
        self.last_insert = NO_INSERT;
        right
    }

    /// The page image: the header, then the used part of each array.
    fn encode(&self, w: &mut Writer<'_>, extra: usize) {
        let l = self.layout();
        w.u16(l.n as u16);
        w.u16(l.width as u16);
        let b = &self.area.0;
        w.bytes(&b[..l.n * 8]);
        w.bytes(&b[l.cap * 8..(l.cap + l.n + extra) * 8]);
        w.bytes(&b[l.suffix_at(0)..l.suffix_at(l.n)]);
    }

    fn decode(r: &mut Reader<'_>, extra: usize) -> Result<KeyNode> {
        let (count, width) = (r.u16() as usize, r.u16() as usize);
        if width > KEY_CAP || count > capacity(width) {
            return Err(PhoebeError::corruption(format!(
                "key node of {count} {width}-byte keys out of range"
            )));
        }
        let mut node = KeyNode::new(0);
        (node.count, node.width) = (count as u16, width as u16);
        let l = node.layout();
        let b = &mut node.area.0;
        r.read(&mut b[..count * 8]);
        r.read(&mut b[l.cap * 8..(l.cap + count + extra) * 8]);
        r.read(&mut b[l.suffix_at(0)..l.suffix_at(count)]);
        Ok(node)
    }
}

/// An inner node: `len()` separator keys and one more child.
/// `child(i)` holds keys `k` with `key(i-1) <= k < key(i)` (with implicit
/// sentinels at both ends).
pub struct InnerNode(KeyNode);

impl Default for InnerNode {
    fn default() -> Self {
        InnerNode(KeyNode::new(crate::swip::Swip::NULL.raw()))
    }
}

impl InnerNode {
    /// Separator keys (children − 1).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Width of every separator; 0 before the first.
    pub fn width(&self) -> usize {
        self.0.width()
    }

    /// Separator `i`, assembled from its head and suffix.
    pub fn key(&self, i: usize) -> SmallKey {
        self.0.key(i)
    }

    /// Raw [`crate::swip::Swip`] of child `i`.
    #[inline]
    pub fn child(&self, i: usize) -> u64 {
        self.0.value(i)
    }

    pub fn set_child(&mut self, i: usize, raw: u64) {
        self.0.set_value(i, raw)
    }

    /// Every child's raw swip, clamped to the area (racy reads call it).
    pub fn children(&self) -> impl Iterator<Item = u64> + '_ {
        self.0.values(1)
    }

    pub fn is_full(&self) -> bool {
        self.0.is_full()
    }

    /// Child index to descend into for `key`: the first separator greater
    /// than `key` bounds the subtree on the right.
    #[inline]
    pub fn child_index(&self, key: &[u8]) -> usize {
        match self.0.search(key) {
            Ok(pos) => pos + 1,
            Err(pos) => pos,
        }
    }

    /// Insert separator `key` at position `pos` with `right` becoming
    /// child `pos + 1` (the result of splitting child `pos`).
    pub fn insert_separator(
        &mut self,
        pos: usize,
        key: &[u8],
        right: u64,
    ) -> std::result::Result<(), WidthMismatch> {
        self.0.admit(key)?;
        self.0.insert_at(pos, key, right, 1);
        Ok(())
    }

    /// Split in half: returns the new right sibling and the separator key
    /// promoted to the parent (the median, which moves up and out).
    pub fn split(&mut self) -> (InnerNode, Vec<u8>) {
        let n = self.len();
        let mid = n / 2;
        let sep = self.key(mid).to_vec();
        (InnerNode(self.0.split_off(mid + 1, mid, mid + 1, n + 1)), sep)
    }

    /// Position of the child whose raw swip equals `raw`, if any (used by
    /// eviction to find a victim's slot in its parent).
    pub fn find_child_slot(&self, raw: u64) -> Option<usize> {
        self.children().position(|c| c == raw)
    }
}

/// A secondary-index leaf: entries sorted by key. Keys are unique — the
/// upper layer suffixes non-unique user keys with the row id.
#[derive(Default)]
pub struct IndexLeaf(KeyNode);

impl Default for KeyNode {
    fn default() -> Self {
        KeyNode::new(0)
    }
}

impl IndexLeaf {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Width of every key; 0 before the first.
    pub fn width(&self) -> usize {
        self.0.width()
    }

    pub fn is_full(&self) -> bool {
        self.0.is_full()
    }

    /// Key `i`, assembled from its head and suffix.
    pub fn key(&self, i: usize) -> SmallKey {
        self.0.key(i)
    }

    /// Key `i` assembled into `buf`, for loops over many keys.
    pub fn key_into<'b>(&self, i: usize, buf: &'b mut [u8; KEY_CAP]) -> &'b [u8] {
        self.0.key_into(i, buf)
    }

    pub fn row_id(&self, i: usize) -> u64 {
        self.0.value(i)
    }

    /// First position with `key(pos) >= key`.
    pub fn lower_bound(&self, key: &[u8]) -> usize {
        self.0.search(key).unwrap_or_else(|pos| pos)
    }

    /// Exact-match lookup.
    #[inline]
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        self.0.search(key).ok().map(|pos| self.0.value(pos))
    }

    /// Insert `(key, row_id)`; `Ok(false)` if the key already exists. The
    /// leaf must have room.
    pub fn insert(&mut self, key: &[u8], row_id: u64) -> std::result::Result<bool, WidthMismatch> {
        self.0.admit(key)?;
        let Err(pos) = self.0.search(key) else {
            return Ok(false);
        };
        self.0.insert_at(pos, key, row_id, 0);
        self.0.last_insert = pos as u16;
        Ok(true)
    }

    /// Remove `key`; returns the row id it mapped to, if present.
    pub fn remove(&mut self, key: &[u8]) -> Option<u64> {
        let pos = self.0.search(key).ok()?;
        let row = self.0.value(pos);
        self.0.remove_at(pos);
        Some(row)
    }

    /// Split this full leaf to make room for `key`: returns the right
    /// sibling and the separator, the right sibling's first key (leaf
    /// separators are copied up, not moved up). `key` itself is not
    /// inserted; it belongs right of the separator iff `key >= sep`.
    ///
    /// If `key` lands right after the last insert (`pos == last + 1`) in
    /// the upper half, the inserts are running in ascending order: split
    /// at `pos`, so the left leaf keeps `[0, pos)` and takes `key`, and
    /// the right one gets `[pos, n)` — or, when `pos == n`, only `key`
    /// (the separator is then `key`). Otherwise split in half.
    pub fn split(&mut self, key: &[u8]) -> (IndexLeaf, Vec<u8>) {
        let n = self.len();
        let at = match self.0.search(key) {
            Err(pos) if pos == self.0.last_insert as usize + 1 && pos > n / 2 => pos,
            _ => n / 2,
        };
        let right = IndexLeaf(self.0.split_off(at, at, at, n));
        let sep = if at == n { key.to_vec() } else { right.key(0).to_vec() };
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

    /// Serialize into an on-disk page image (Data Page File slot). Key
    /// nodes write their words in native byte order: page images never
    /// leave the machine that wrote them.
    pub fn encode(&self, out: &mut [u8]) {
        assert!(out.len() >= PAGE_SIZE);
        out[..PAGE_SIZE].fill(0);
        let mut w = Writer { buf: out, at: 0 };
        match self {
            Page::Free => w.u8(0),
            Page::Inner(n) => {
                w.u8(1);
                n.0.encode(&mut w, 1);
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
                l.0.encode(&mut w, 0);
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
            1 => *self = Page::Inner(InnerNode(KeyNode::decode(&mut r, 1)?)),
            2 => {
                *self = Page::TableLeaf(PaxLeaf::new());
                let Page::TableLeaf(l) = self else { unreachable!() };
                l.count = r.u16();
                for v in l.valid.iter_mut() {
                    *v = r.u64();
                }
                r.read(&mut l.data);
            }
            3 => *self = Page::IndexLeaf(IndexLeaf(KeyNode::decode(&mut r, 0)?)),
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
        n.set_child(0, 100);
        n.insert_separator(0, b"m", 200).unwrap();
        n.insert_separator(1, b"t", 300).unwrap();
        assert_eq!(n.child_index(b"a"), 0);
        assert_eq!(n.child_index(b"m"), 1); // separator belongs right
        assert_eq!(n.child_index(b"p"), 1);
        assert_eq!(n.child_index(b"t"), 2);
        assert_eq!(n.child_index(b"z"), 2);
        assert_eq!(n.children().collect::<Vec<_>>(), [100, 200, 300]);
        // Stored keys share one width; a search key may have any length.
        assert_eq!(n.insert_separator(2, b"zz", 400), Err(WidthMismatch { width: 1, got: 2 }));
        assert_eq!(n.child_index(b"ta"), 2);
        assert_eq!(n.child_index(b""), 0);
    }

    #[test]
    fn inner_insert_separator_shifts_correctly() {
        let mut n = InnerNode::default();
        n.set_child(0, 1);
        n.insert_separator(0, b"d", 2).unwrap();
        n.insert_separator(1, b"h", 3).unwrap();
        // Now split child 1 ("d".."h") with separator "f".
        n.insert_separator(1, b"f", 9).unwrap();
        assert_eq!(n.len(), 3);
        assert_eq!(&*n.key(0), b"d");
        assert_eq!(&*n.key(1), b"f");
        assert_eq!(&*n.key(2), b"h");
        assert_eq!(n.children().collect::<Vec<_>>(), [1, 2, 9, 3]);
    }

    #[test]
    fn inner_split_preserves_navigation() {
        let mut n = InnerNode::default();
        n.set_child(0, 0);
        let fanout = capacity(5);
        for i in 0..fanout {
            let key = format!("{i:05}");
            n.insert_separator(i, key.as_bytes(), (i + 1) as u64).unwrap();
        }
        assert!(n.is_full());
        let (right, sep) = n.split();
        assert_eq!(right.width(), 5, "the sibling inherits the width");
        // Every original child must be reachable via the correct side.
        for i in 0..fanout {
            let key = format!("{i:05}");
            let child = if key.as_bytes() < sep.as_slice() {
                n.child(n.child_index(key.as_bytes()))
            } else {
                right.child(right.child_index(key.as_bytes()))
            };
            assert_eq!(child, (i + 1) as u64, "child for separator {key}");
        }
    }

    #[test]
    fn index_leaf_insert_get_remove() {
        let mut l = IndexLeaf::default();
        assert_eq!(l.insert(b"bob", 2), Ok(true));
        assert_eq!(l.insert(b"ali", 1), Ok(true));
        assert_eq!(l.insert(b"car", 3), Ok(true));
        assert_eq!(l.insert(b"bob", 9), Ok(false), "duplicate must be rejected");
        assert_eq!(l.insert(b"alice", 4), Err(WidthMismatch { width: 3, got: 5 }));
        assert_eq!(l.get(b"ali"), Some(1));
        assert_eq!(l.get(b"bob"), Some(2));
        assert_eq!(l.get(b"dav"), None);
        assert_eq!(l.get(b"alice"), None, "a search key of another width just misses");
        assert_eq!(l.remove(b"bob"), Some(2));
        assert_eq!(l.get(b"bob"), None);
        assert_eq!(l.remove(b"bob"), None);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn index_leaf_stays_sorted_under_random_inserts() {
        let mut l = IndexLeaf::default();
        let mut keys: Vec<u64> = (0..200).map(|i| (i * 7919) % 1000).collect();
        keys.dedup();
        for &k in &keys {
            l.insert(&k.to_be_bytes(), k).unwrap();
        }
        for w in 0..l.len() - 1 {
            assert!(*l.key(w) < *l.key(w + 1));
        }
    }

    #[test]
    fn index_leaf_split_partitions_entries() {
        // Shuffled inserts: the split falls in the middle.
        let cap = capacity(8) as u64;
        let mut l = IndexLeaf::default();
        for i in 0..cap {
            let k = i * 7919 % cap;
            l.insert(&k.to_be_bytes(), k).unwrap();
        }
        assert!(l.is_full());
        let (right, sep) = l.split(&cap.to_be_bytes());
        assert_eq!((l.len(), right.len()), (cap as usize / 2, cap as usize - cap as usize / 2));
        for i in 0..cap {
            let key = i.to_be_bytes();
            let got = if key.as_slice() < sep.as_slice() { l.get(&key) } else { right.get(&key) };
            assert_eq!(got, Some(i));
        }
    }

    #[test]
    fn index_leaf_split_keeps_ascending_inserts_packed() {
        // Ascending into the right edge: the left leaf keeps everything.
        let cap = capacity(12);
        let key = |i: usize| [&[0u8; 4][..], &(i as u64).to_be_bytes()].concat();
        let mut l = IndexLeaf::default();
        for i in 0..cap {
            l.insert(&key(i * 2), i as u64).unwrap();
        }
        let (right, sep) = l.split(&key(cap * 2));
        assert_eq!((l.len(), right.len(), sep), (cap, 0, key(cap * 2)));
        // Ascending in front of higher keys (the next district's): the
        // left leaf keeps what precedes the insert point and takes the key.
        let mut l = IndexLeaf::default();
        for i in (cap - 10..cap).chain(0..cap - 10) {
            l.insert(&key(i * 2), i as u64).unwrap();
        }
        let (right, sep) = l.split(&key((cap - 10) * 2 - 1));
        assert_eq!((l.len(), right.len(), sep), (cap - 10, 10, key((cap - 10) * 2)));
        assert_eq!(l.insert(&key((cap - 10) * 2 - 1), 0), Ok(true));
    }

    #[test]
    fn find_child_slot_locates_swips() {
        let mut n = InnerNode::default();
        n.set_child(0, 11);
        n.insert_separator(0, b"x", 22).unwrap();
        assert_eq!(n.find_child_slot(11), Some(0));
        assert_eq!(n.find_child_slot(22), Some(1));
        assert_eq!(n.find_child_slot(33), None);
    }

    #[test]
    fn pages_roundtrip_through_disk_encoding() {
        let mut inner = InnerNode::default();
        inner.set_child(0, 5);
        inner.insert_separator(0, b"hello", 6).unwrap();
        let mut index = IndexLeaf::default();
        index.insert(b"k1", 10).unwrap();
        index.insert(b"k2", 20).unwrap();
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
                    assert_eq!(a.len(), b.len());
                    assert_eq!(a.key(0), b.key(0));
                    assert!(a.children().eq(b.children()));
                }
                (Page::IndexLeaf(a), Page::IndexLeaf(b)) => {
                    assert_eq!(a.len(), b.len());
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
        // Out-of-range counts and widths are rejected, not trusted.
        buf[0] = 1;
        buf[1..3].copy_from_slice(&(capacity(8) as u16 + 1).to_le_bytes());
        buf[3..5].copy_from_slice(&8u16.to_le_bytes());
        assert!(Page::decode(&buf).is_err());
        buf[1..3].copy_from_slice(&1u16.to_le_bytes());
        buf[3..5].copy_from_slice(&(KEY_CAP as u16 + 1).to_le_bytes());
        assert!(Page::decode(&buf).is_err());
    }

    /// One search of `key` in `node` and the head reads it took.
    fn counted_search(node: &KeyNode, key: &[u8]) -> (std::result::Result<usize, usize>, usize) {
        let reads = std::cell::Cell::new(0);
        let got = node.search_by(key, |i| {
            reads.set(reads.get() + 1);
            node.word(i)
        });
        (got, reads.get())
    }

    #[test]
    fn evenly_spaced_keys_take_three_head_reads() {
        // A full kv index leaf (consecutive integers) and a full table inner
        // node (row ids a leaf's worth apart).
        let n = capacity(8);
        let dense = |i: usize| ((1 << 63) | (1000 + i as u64)).to_be_bytes();
        let rows = |i: usize| (7 + 409 * i as u64).to_be_bytes();
        let mut leaf = IndexLeaf::default();
        let mut inner = InnerNode::default();
        for i in 0..n {
            leaf.insert(&dense(i), i as u64).unwrap();
            inner.insert_separator(i, &rows(i), i as u64 + 1).unwrap();
        }
        assert!(leaf.is_full() && inner.is_full());
        for (node, key) in [(&leaf.0, &dense as &dyn Fn(usize) -> [u8; 8]), (&inner.0, &rows)] {
            for i in 0..n {
                let (got, reads) = counted_search(node, &key(i));
                assert_eq!(got, Ok(i));
                assert!(reads <= 3, "key {i}: {reads} head reads");
            }
        }
        // A row id between two separators: one more read finds its child.
        for i in 0..n - 1 {
            let (got, reads) = counted_search(&inner.0, &(7 + 409 * i as u64 + 200).to_be_bytes());
            assert_eq!(got, Err(i + 1));
            assert!(reads <= 4, "after separator {i}: {reads} head reads");
        }
    }

    #[test]
    fn tied_heads_cost_at_most_three_reads_over_bisection() {
        // Composite keys whose heads repeat, as TPC-C's (warehouse,
        // district, ...) keys do, and keys whose heads all tie.
        for run in [48, 1000] {
            let n = capacity(16);
            let key =
                |i: usize| [((i / run) as u64).to_be_bytes(), (i as u64).to_be_bytes()].concat();
            let mut leaf = IndexLeaf::default();
            for i in 0..n {
                leaf.insert(&key(i), i as u64).unwrap();
            }
            let bound = n.next_power_of_two().trailing_zeros() as usize + 3;
            for i in 0..n {
                let (got, reads) = counted_search(&leaf.0, &key(i));
                assert_eq!(got, Ok(i));
                assert!(reads <= bound, "run {run}, key {i}: {reads} head reads > {bound}");
                let mut between = key(i);
                between.push(0);
                let (got, reads) = counted_search(&leaf.0, &between);
                assert_eq!(got, Err(i + 1));
                assert!(reads <= bound, "run {run}, after key {i}: {reads} head reads");
            }
        }
    }

    #[test]
    fn torn_heads_still_give_a_position() {
        // An optimistic reader racing a writer can see heads in any order.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for width in [4, 8, 16] {
            let mut node = KeyNode::new(0);
            (node.count, node.width) = (capacity(width) as u16, width as u16);
            for round in 0..200 {
                let l = node.layout();
                for i in 0..l.n {
                    // Mostly sorted, with some words out of place.
                    let v = if next() % 4 == 0 { next() } else { i as u64 * (round + 1) };
                    node.set_word(i, v);
                }
                for _ in 0..50 {
                    let probe = next().to_be_bytes();
                    let key = &[&probe[..], &probe[..]].concat()[..width];
                    let (got, reads) = counted_search(&node, key);
                    assert!(got.unwrap_or_else(|p| p) <= l.n, "width {width}: {got:?}");
                    let bound = 2 * l.n.next_power_of_two().trailing_zeros() as usize + 4;
                    assert!(reads <= bound, "width {width}: {reads} head reads > {bound}");
                }
            }
        }
    }

    #[test]
    fn racy_headers_are_clamped_before_slicing() {
        // What an optimistic reader can see mid-write: any count, any width.
        let mut n = InnerNode::default();
        for (count, width) in [(u16::MAX, 0), (u16::MAX, u16::MAX), (3, u16::MAX), (900, 400)] {
            (n.0.count, n.0.width) = (count, width);
            let _ = n.child_index(&[0xff; 40]);
            let _ = n.children().any(|c| c == 7);
            assert!(n.len() <= capacity(n.width()));
        }
    }
}
