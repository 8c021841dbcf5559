//! The catalog: tables, secondary indexes, and their key encodings (§5.1).
//!
//! Each relation owns one B-Tree. A table's tree is keyed by the internal
//! row id and stores PAX tuples; every user-defined index is a secondary
//! index tree mapping an order-preserving key encoding to the row id. The
//! table also owns its frozen store (Data Block File).
//!
//! A row is its tuple plus one entry per index, and [`TableEntry`] owns
//! that rule: insert and its unique-violation compensation, rollback, GC,
//! warming and recovery all add and remove a row's index entries through
//! its methods, never through an index tree directly.

use crate::keys::KeyBuilder;
use phoebe_common::error::{PhoebeError, Result};
use phoebe_common::ids::{RowId, TableId};
use phoebe_common::snapshot::SnapshotList;
use phoebe_storage::node::KEY_CAP;
use phoebe_storage::schema::{ColType, Schema, Value};
use phoebe_storage::{BTree, FrozenStore, PaxLayout};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Definition of a secondary index.
#[derive(Debug, Clone)]
pub struct IndexDef {
    pub name: String,
    /// Columns of the table schema forming the key, in order.
    pub key_cols: Vec<usize>,
    /// Unique indexes reject duplicate user keys; non-unique indexes get a
    /// row-id suffix to disambiguate.
    pub unique: bool,
}

impl IndexDef {
    /// Bytes of every key this index stores: its columns' fixed widths,
    /// plus the row-id suffix of a non-unique index.
    pub fn key_width(&self, schema: &Schema) -> usize {
        let suffix = if self.unique { 0 } else { 8 };
        self.key_cols.iter().map(|&c| key_width(schema.col_type(c))).sum::<usize>() + suffix
    }

    /// Refuse a key layout the index B-tree cannot hold: a key column
    /// past the end of `schema`, or keys wider than [`KEY_CAP`].
    pub(crate) fn check(&self, table: TableId, schema: &Schema) -> Result<()> {
        let refuse = |why| Err(PhoebeError::SchemaMismatch { table, detail: why });
        let (name, n) = (&self.name, schema.num_cols());
        if let Some(c) = self.key_cols.iter().find(|&&c| c >= n) {
            return refuse(format!("index '{name}': no column {c} in {n} columns"));
        }
        match self.key_width(schema) {
            w if w > KEY_CAP => refuse(format!("index '{name}': {w}-byte keys, limit {KEY_CAP}")),
            _ => Ok(()),
        }
    }
}

/// Bytes a key column takes in an encoded index key: a string is padded to
/// its column's maximum length.
fn key_width(ty: ColType) -> usize {
    match ty {
        ColType::Str(max) => max as usize,
        fixed => fixed.slot_width(),
    }
}

/// True for a string holding a NUL byte: keys zero-pad strings, so its key
/// would equal the key of the string cut at the NUL.
fn has_nul(v: &Value) -> bool {
    matches!(v, Value::Str(s) if s.contains('\0'))
}

/// A live secondary index.
pub struct IndexEntry {
    pub id: TableId,
    pub def: IndexDef,
    pub tree: BTree,
}

impl IndexEntry {
    /// Encode the *stored* key for `tuple` at `row`.
    pub fn key_for(&self, schema: &Schema, tuple: &[Value], row: RowId) -> Vec<u8> {
        let mut b = KeyBuilder::new();
        for &c in &self.def.key_cols {
            b.push_value(&tuple[c], key_width(schema.col_type(c)));
        }
        if !self.def.unique {
            b.push_row_id(row);
        }
        b.finish()
    }

    /// Encode a (possibly partial) user-key prefix for lookups and scans,
    /// checked as an inserted row's key columns are: more values than key
    /// columns, a value of the wrong type, a string longer than its column
    /// or a string holding a NUL byte is refused with `SchemaMismatch`
    /// (naming this index's id).
    pub fn prefix_for(&self, schema: &Schema, values: &[Value]) -> Result<Vec<u8>> {
        let refuse = |detail| Err(PhoebeError::SchemaMismatch { table: self.id, detail });
        let cols = &self.def.key_cols;
        if values.len() > cols.len() {
            let (n, name) = (values.len(), &self.def.name);
            return refuse(format!("index '{name}': {n} key values for {} columns", cols.len()));
        }
        let mut b = KeyBuilder::new();
        for (&c, v) in cols.iter().zip(values) {
            let ty = schema.col_type(c);
            if !v.matches(ty) || has_nul(v) {
                let col = schema.col_name(c);
                return refuse(format!("index '{}': column '{col}' rejects {v:?}", self.def.name));
            }
            b.push_value(v, key_width(ty));
        }
        Ok(b.finish())
    }

    /// Inclusive scan bounds for entries whose user key starts with
    /// `values`, checked as [`IndexEntry::prefix_for`] checks them.
    pub fn range_for(&self, schema: &Schema, values: &[Value]) -> Result<(Vec<u8>, Vec<u8>)> {
        let prefix = self.prefix_for(schema, values)?;
        let mut high = prefix.clone();
        // Pad to the index's key width with 0xff: every stored key with
        // this prefix compares <= high.
        high.resize(self.def.key_width(schema), 0xff);
        Ok((prefix, high))
    }
}

/// A live table.
pub struct TableEntry {
    pub id: TableId,
    pub name: String,
    pub schema: Schema,
    pub layout: PaxLayout,
    pub tree: BTree,
    pub frozen: FrozenStore,
    next_row_id: AtomicU64,
    /// Index list as an immutable snapshot: every insert/delete walks it,
    /// so readers get a lock-free borrow instead of an `RwLock` + clone.
    indexes: SnapshotList<Arc<IndexEntry>>,
    /// `indexed_cols[c]`: some index reads column `c`, so an update may
    /// not change it (the index would keep the old key).
    indexed_cols: SnapshotList<bool>,
}

impl TableEntry {
    pub fn new(
        id: TableId,
        name: String,
        schema: Schema,
        tree: BTree,
        frozen: FrozenStore,
    ) -> Self {
        let layout = PaxLayout::for_schema(&schema);
        let indexed_cols = SnapshotList::new(vec![false; schema.num_cols()]);
        TableEntry {
            id,
            name,
            schema,
            layout,
            tree,
            frozen,
            next_row_id: AtomicU64::new(1),
            indexes: SnapshotList::default(),
            indexed_cols,
        }
    }

    /// Draw the next monotonically increasing row id (§5.1).
    pub fn next_row_id(&self) -> RowId {
        RowId(self.next_row_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Advance the row-id allocator past `row` (recovery replay).
    pub fn bump_row_id(&self, row: RowId) {
        self.next_row_id.fetch_max(row.raw() + 1, Ordering::Relaxed);
    }

    /// Current high-water mark of the allocator.
    pub fn row_id_high_water(&self) -> u64 {
        self.next_row_id.load(Ordering::Relaxed)
    }

    /// Find an index by name.
    pub fn index(&self, name: &str) -> Result<Arc<IndexEntry>> {
        self.indexes
            .load()
            .iter()
            .find(|i| i.def.name == name)
            .cloned()
            .ok_or_else(|| PhoebeError::internal(format!("no index '{name}' on {}", self.name)))
    }

    /// All indexes (insert/delete maintenance): lock-free snapshot borrow,
    /// no per-operation `Vec` clone.
    pub fn all_indexes(&self) -> &[Arc<IndexEntry>] {
        self.indexes.load()
    }

    /// Register a new index (DDL).
    pub(crate) fn add_index(&self, index: Arc<IndexEntry>) {
        self.indexed_cols.update(|cols| index.def.key_cols.iter().for_each(|&c| cols[c] = true));
        self.indexes.push(index);
    }

    /// Refuse a tuple the table cannot take: one that does not fit the
    /// schema, or an indexed string holding a NUL byte, whose key would
    /// equal the key of the string cut at the NUL.
    pub(crate) fn check_insert(&self, tuple: &[Value]) -> Result<()> {
        self.schema.check(self.id, tuple)?;
        let indexed = self.indexed_cols.load();
        match tuple.iter().zip(indexed).position(|(v, &ix)| ix && has_nul(v)) {
            Some(c) => Err(PhoebeError::SchemaMismatch {
                table: self.id,
                detail: format!("indexed column '{}' holds a NUL byte", self.schema.col_name(c)),
            }),
            None => Ok(()),
        }
    }

    /// Refuse a `delta` that writes a column some index reads.
    pub(crate) fn check_update(&self, delta: &[(usize, Value)]) -> Result<()> {
        let indexed = self.indexed_cols.load();
        match delta.iter().find(|(c, _)| indexed.get(*c) == Some(&true)) {
            Some((c, _)) => Err(PhoebeError::SchemaMismatch {
                table: self.id,
                detail: format!(
                    "column '{}' is indexed and cannot be updated",
                    self.schema.col_name(*c)
                ),
            }),
            None => Ok(()),
        }
    }

    /// Add `row`'s entry, keyed from `tuple`, to every index. All or
    /// nothing: if one insert fails (a unique key already taken), the
    /// entries added before it are removed and its error returned.
    pub(crate) fn add_index_entries(&self, tuple: &[Value], row: RowId) -> Result<()> {
        let indexes = self.all_indexes();
        for (i, index) in indexes.iter().enumerate() {
            if let Err(e) = index.tree.index_insert(&index.key_for(&self.schema, tuple, row), row) {
                remove_entries(&indexes[..i], &self.schema, tuple, row);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Remove `row`'s entry, keyed from `tuple`, from every index. Alone
    /// only for a row whose tuple is not in the hot tree (a frozen row);
    /// a hot row goes through [`TableEntry::remove_row`].
    pub(crate) fn remove_index_entries(&self, tuple: &[Value], row: RowId) {
        remove_entries(self.all_indexes(), &self.schema, tuple, row);
    }

    /// Write `delta`'s columns of `row` in place under one exclusive leaf
    /// latch (rollback and replay; a transaction's own update writes
    /// inside its latched write). Index keys never change this way:
    /// updates of indexed columns are refused.
    pub(crate) fn write_cols<'v>(
        &self,
        row: RowId,
        delta: impl IntoIterator<Item = (usize, &'v Value)>,
    ) -> Result<()> {
        self.tree.table_modify(row, |leaf, idx, _, _| {
            for (c, v) in delta {
                leaf.write_col(&self.layout, idx, c, v);
            }
        })?;
        Ok(())
    }

    /// Tombstone `row`'s tuple under one exclusive leaf latch and return
    /// the image it held; `None` if no live tuple has that id. Its index
    /// entries stay: alone this only retracts a tuple that never got
    /// them (a compensated insert).
    pub(crate) fn remove_tuple(&self, row: RowId) -> Result<Option<Vec<Value>>> {
        self.tree.table_modify(row, |leaf, idx, _, _| {
            let image = leaf.read_row(&self.layout, idx);
            leaf.mark_deleted(idx);
            image
        })
    }

    /// Remove `row`: its tuple, then every index entry keyed from the
    /// image the tuple held. A row that is already gone is left alone, so
    /// a key it once held and another row now holds is never touched.
    pub(crate) fn remove_row(&self, row: RowId) -> Result<()> {
        if let Some(image) = self.remove_tuple(row)? {
            self.remove_index_entries(&image, row);
        }
        Ok(())
    }
}

/// Remove `row`'s entry from each of `indexes`. A removal that fails
/// (an I/O error) is not retried: the entry it leaves points at a missing
/// tuple, which every reader treats as no match.
fn remove_entries(indexes: &[Arc<IndexEntry>], schema: &Schema, tuple: &[Value], row: RowId) {
    for index in indexes {
        let _ = index.tree.index_remove(&index.key_for(schema, tuple, row));
    }
}
