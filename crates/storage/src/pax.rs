//! PAX (Partition Attributes Across) leaf pages (§5.1/§5.2).
//!
//! PhoebeDB stores base-table tuples in PAX format: within one page, values
//! are grouped per column into *minipages*, so a scan of one column touches
//! contiguous bytes (the property the paper keeps for future HTAP), while a
//! single-tuple access still costs one page. The leaf's byte area holds the
//! row-id minipage first, then one minipage per schema column; all slots are
//! fixed width, so every update is in-place (§5.2: "both hot and cold pages
//! support in-place updates").
//!
//! Row ids are monotonically increasing and rows are appended in order, so
//! the row-id minipage is sorted; a point lookup goes straight to the slot
//! a consecutive run of ids would put the row in, and searches the sorted
//! ids only when that slot holds another id. A
//! leaf's row-id range is immutable once written: the table B-Tree grows by
//! adding fresh rightmost leaves rather than redistributing rows, which is
//! what makes (table, first_row_id) a stable page identity for twin tables
//! and makes freezing (consecutive leaves → one compressed block) safe.

use crate::node::search_sorted;
use crate::schema::{ColType, Schema, Value};
use phoebe_common::ids::RowId;

/// Bytes available for minipages in a table leaf.
pub const LEAF_BYTES: usize = 15 * 1024;

/// Hard cap on rows per leaf (bounds the validity bitmap).
pub const MAX_ROWS_PER_PAGE: usize = 1024;

/// Precomputed PAX geometry for one schema: where each column's minipage
/// starts and how many rows fit. Computed once per table and shared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaxLayout {
    /// Rows per page.
    pub capacity: usize,
    /// Byte offset of each column's minipage inside the leaf data area.
    /// Offset 0 is the row-id minipage; `col_offsets[i]` is column i.
    pub col_offsets: Vec<usize>,
    /// Slot width of each column.
    pub widths: Vec<usize>,
    /// Column types (copied from the schema for slot encoding).
    pub types: Vec<ColType>,
}

impl PaxLayout {
    pub fn for_schema(schema: &Schema) -> Self {
        let row_width = 8 + schema.row_width(); // + row-id slot
        let capacity = (LEAF_BYTES / row_width).min(MAX_ROWS_PER_PAGE);
        assert!(capacity >= 2, "schema row too wide for a page");
        let mut col_offsets = Vec::with_capacity(schema.num_cols());
        let mut widths = Vec::with_capacity(schema.num_cols());
        let mut at = 8 * capacity; // row-id minipage first
        for i in 0..schema.num_cols() {
            let w = schema.col_type(i).slot_width();
            col_offsets.push(at);
            widths.push(w);
            at += w * capacity;
        }
        debug_assert!(at <= LEAF_BYTES);
        PaxLayout { capacity, col_offsets, widths, types: schema.types().to_vec() }
    }

    #[inline]
    fn slot(&self, col: usize, row: usize) -> std::ops::Range<usize> {
        debug_assert!(row < self.capacity);
        let start = self.col_offsets[col] + row * self.widths[col];
        start..start + self.widths[col]
    }
}

/// A PAX table leaf. Fixed-size inline storage only (see the latch module's
/// optimistic-read contract).
pub struct PaxLeaf {
    /// Number of rows appended (including logically deleted ones).
    pub count: u16,
    /// Validity bitmap: bit i set ⇒ row i not physically deleted.
    pub valid: [u64; MAX_ROWS_PER_PAGE / 64],
    /// Minipage byte area.
    pub data: [u8; LEAF_BYTES],
}

impl Default for PaxLeaf {
    fn default() -> Self {
        PaxLeaf { count: 0, valid: [0; MAX_ROWS_PER_PAGE / 64], data: [0; LEAF_BYTES] }
    }
}

impl PaxLeaf {
    pub fn new() -> Self {
        // ~15 KiB by value; lives inline in a buffer frame so optimistic
        // readers never chase a heap pointer that eviction could free.
        Self::default()
    }

    /// Number of appended rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.count as usize
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    #[inline]
    pub fn is_full(&self, layout: &PaxLayout) -> bool {
        self.len() >= layout.capacity
    }

    /// Row id stored at position `row`.
    #[inline]
    pub fn row_id_at(&self, row: usize) -> RowId {
        let at = row * 8;
        RowId(u64::from_le_bytes(self.data[at..at + 8].try_into().expect("8 bytes")))
    }

    /// First row id in the leaf (page identity); `None` when empty.
    pub fn first_row_id(&self) -> Option<RowId> {
        (self.count > 0).then(|| self.row_id_at(0))
    }

    /// Last row id in the leaf.
    pub fn last_row_id(&self) -> Option<RowId> {
        (self.count > 0).then(|| self.row_id_at(self.len() - 1))
    }

    /// Position of live row `row_id`. Ids are drawn in ascending order
    /// under the rightmost leaf's latch, so a leaf's ids are consecutive
    /// and the row sits at `row_id - first_row_id`; only a leaf where
    /// recovery skipped ids misses that slot and falls back to
    /// `search_sorted` over the sorted row-id minipage.
    pub fn find(&self, row_id: RowId) -> Option<usize> {
        let n = self.len();
        let direct = row_id.raw().wrapping_sub(self.first_row_id()?.raw());
        let pos = if direct < n as u64 && self.row_id_at(direct as usize) == row_id {
            direct as usize
        } else {
            let id = |i| self.row_id_at(i).raw();
            search_sorted(n, row_id.raw(), id, |_| std::cmp::Ordering::Equal).ok()?
        };
        self.is_valid(pos).then_some(pos)
    }

    #[inline]
    pub fn is_valid(&self, row: usize) -> bool {
        self.valid[row / 64] & (1 << (row % 64)) != 0
    }

    /// Physically delete a row (GC of globally visible deletions, §7.3).
    pub fn mark_deleted(&mut self, row: usize) {
        self.valid[row / 64] &= !(1 << (row % 64));
    }

    /// Append a row; caller guarantees ascending row ids and free space.
    pub fn append(&mut self, layout: &PaxLayout, row_id: RowId, tuple: &[Value]) -> usize {
        let row = self.len();
        assert!(row < layout.capacity, "append to a full leaf");
        if let Some(last) = self.last_row_id() {
            assert!(row_id > last, "row ids must be appended in ascending order");
        }
        self.data[row * 8..row * 8 + 8].copy_from_slice(&row_id.raw().to_le_bytes());
        for (col, v) in tuple.iter().enumerate() {
            self.write_col(layout, row, col, v);
        }
        self.valid[row / 64] |= 1 << (row % 64);
        self.count += 1;
        row
    }

    /// Read one column of one row.
    pub fn read_col(&self, layout: &PaxLayout, row: usize, col: usize) -> Value {
        let bytes = &self.data[layout.slot(col, row)];
        match layout.types[col] {
            ColType::I64 => Value::I64(i64::from_le_bytes(bytes[..8].try_into().expect("8"))),
            ColType::I32 => Value::I32(i32::from_le_bytes(bytes[..4].try_into().expect("4"))),
            ColType::F64 => Value::F64(f64::from_le_bytes(bytes[..8].try_into().expect("8"))),
            ColType::Str(max) => {
                let len = u16::from_le_bytes(bytes[..2].try_into().expect("2")) as usize;
                let len = len.min(max as usize); // robust to torn optimistic reads
                let bytes = &bytes[2..2 + len];
                // A torn optimistic read can also hold invalid UTF-8: the
                // lossy copy is for that case only.
                Value::Str(match std::str::from_utf8(bytes) {
                    Ok(s) => s.to_owned(),
                    Err(_) => String::from_utf8_lossy(bytes).into_owned(),
                })
            }
        }
    }

    /// Read a whole row.
    pub fn read_row(&self, layout: &PaxLayout, row: usize) -> Vec<Value> {
        (0..layout.types.len()).map(|c| self.read_col(layout, row, c)).collect()
    }

    /// Overwrite one column of one row in place.
    pub fn write_col(&mut self, layout: &PaxLayout, row: usize, col: usize, v: &Value) {
        let slot = layout.slot(col, row);
        let bytes = &mut self.data[slot];
        match (layout.types[col], v) {
            (ColType::I64, Value::I64(x)) => bytes[..8].copy_from_slice(&x.to_le_bytes()),
            (ColType::I32, Value::I32(x)) => bytes[..4].copy_from_slice(&x.to_le_bytes()),
            (ColType::F64, Value::F64(x)) => bytes[..8].copy_from_slice(&x.to_le_bytes()),
            (ColType::Str(max), Value::Str(s)) => {
                assert!(s.len() <= max as usize, "string exceeds column capacity");
                bytes[..2].copy_from_slice(&(s.len() as u16).to_le_bytes());
                bytes[2..2 + s.len()].copy_from_slice(s.as_bytes());
            }
            (t, v) => panic!("type mismatch writing {v:?} into {t:?} column"),
        }
    }

    /// Overwrite a whole row in place.
    pub fn write_row(&mut self, layout: &PaxLayout, row: usize, tuple: &[Value]) {
        for (col, v) in tuple.iter().enumerate() {
            self.write_col(layout, row, col, v);
        }
    }

    /// Count of live (not physically deleted) rows.
    pub fn live_rows(&self) -> usize {
        (0..self.len()).filter(|&r| self.is_valid(r)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn test_layout() -> (Schema, PaxLayout) {
        let s = Schema::new(vec![
            ("a", ColType::I64),
            ("b", ColType::I32),
            ("c", ColType::F64),
            ("d", ColType::Str(12)),
        ]);
        let l = PaxLayout::for_schema(&s);
        (s, l)
    }

    fn tuple(i: i64) -> Vec<Value> {
        vec![
            Value::I64(i),
            Value::I32(i as i32 * 2),
            Value::F64(i as f64 / 2.0),
            Value::Str(format!("s{i}")),
        ]
    }

    #[test]
    fn layout_minipages_do_not_overlap() {
        let (_, l) = test_layout();
        assert!(l.capacity > 100);
        let mut prev_end = 8 * l.capacity;
        for (off, w) in l.col_offsets.iter().zip(&l.widths) {
            assert_eq!(*off, prev_end, "minipages must be adjacent");
            prev_end = off + w * l.capacity;
        }
        assert!(prev_end <= LEAF_BYTES);
    }

    #[test]
    fn append_and_read_back() {
        let (_, l) = test_layout();
        let mut leaf = PaxLeaf::new();
        for i in 0..50i64 {
            leaf.append(&l, RowId(i as u64 * 3), &tuple(i));
        }
        assert_eq!(leaf.len(), 50);
        for i in 0..50i64 {
            let row = leaf.find(RowId(i as u64 * 3)).expect("present");
            assert_eq!(leaf.read_row(&l, row), tuple(i));
        }
        assert_eq!(leaf.find(RowId(1)), None);
    }

    #[test]
    fn first_and_last_row_id() {
        let (_, l) = test_layout();
        let mut leaf = PaxLeaf::new();
        assert_eq!(leaf.first_row_id(), None);
        leaf.append(&l, RowId(10), &tuple(1));
        leaf.append(&l, RowId(20), &tuple(2));
        assert_eq!(leaf.first_row_id(), Some(RowId(10)));
        assert_eq!(leaf.last_row_id(), Some(RowId(20)));
    }

    #[test]
    fn in_place_update_changes_only_target_column() {
        let (_, l) = test_layout();
        let mut leaf = PaxLeaf::new();
        leaf.append(&l, RowId(1), &tuple(7));
        leaf.write_col(&l, 0, 1, &Value::I32(999));
        assert_eq!(leaf.read_col(&l, 0, 1), Value::I32(999));
        assert_eq!(leaf.read_col(&l, 0, 0), Value::I64(7));
        assert_eq!(leaf.read_col(&l, 0, 3), Value::Str("s7".into()));
    }

    #[test]
    fn delete_hides_row_from_find() {
        let (_, l) = test_layout();
        let mut leaf = PaxLeaf::new();
        leaf.append(&l, RowId(5), &tuple(5));
        leaf.append(&l, RowId(6), &tuple(6));
        let row = leaf.find(RowId(5)).unwrap();
        leaf.mark_deleted(row);
        assert_eq!(leaf.find(RowId(5)), None);
        assert!(leaf.find(RowId(6)).is_some());
        assert_eq!(leaf.live_rows(), 1);
    }

    #[test]
    fn find_on_a_gapped_leaf() {
        // Recovery appends the ids it replays, skipping any it never saw.
        let (_, l) = test_layout();
        let mut leaf = PaxLeaf::new();
        let ids = [1u64, 2, 3, 7, 8, 20];
        for (i, &id) in ids.iter().enumerate() {
            leaf.append(&l, RowId(id), &tuple(i as i64));
        }
        leaf.mark_deleted(leaf.find(RowId(7)).unwrap());
        for (slot, &id) in ids.iter().enumerate().filter(|&(_, &id)| id != 7) {
            assert_eq!(leaf.find(RowId(id)), Some(slot), "id {id}");
        }
        for id in [0, 4, 5, 6, 7, 9, 19, 21, u64::MAX] {
            assert_eq!(leaf.find(RowId(id)), None, "id {id}");
        }
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn append_rejects_out_of_order_row_ids() {
        let (_, l) = test_layout();
        let mut leaf = PaxLeaf::new();
        leaf.append(&l, RowId(9), &tuple(1));
        leaf.append(&l, RowId(3), &tuple(2));
    }

    #[test]
    fn fills_to_capacity() {
        let (_, l) = test_layout();
        let mut leaf = PaxLeaf::new();
        for i in 0..l.capacity {
            assert!(!leaf.is_full(&l));
            leaf.append(&l, RowId(i as u64), &tuple(i as i64));
        }
        assert!(leaf.is_full(&l));
        assert_eq!(leaf.live_rows(), l.capacity);
    }

    #[test]
    fn string_column_roundtrips_max_length() {
        let s = Schema::new(vec![("s", ColType::Str(5))]);
        let l = PaxLayout::for_schema(&s);
        let mut leaf = PaxLeaf::new();
        leaf.append(&l, RowId(0), &[Value::Str("abcde".into())]);
        assert_eq!(leaf.read_col(&l, 0, 0), Value::Str("abcde".into()));
    }
}
