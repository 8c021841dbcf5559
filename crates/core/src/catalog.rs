//! The catalog: tables, secondary indexes, and their key encodings (§5.1).
//!
//! Each relation owns one B-Tree. A table's tree is keyed by the internal
//! row id and stores PAX tuples; every user-defined index is a secondary
//! index tree mapping an order-preserving key encoding to the row id. The
//! table also owns its frozen store (Data Block File).

use crate::keys::KeyBuilder;
use phoebe_common::error::{PhoebeError, Result};
use phoebe_common::ids::{RowId, TableId};
use phoebe_common::snapshot::SnapshotList;
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
            let width = match schema.col_type(c) {
                ColType::Str(m) => m as usize,
                _ => 0,
            };
            b.push_value(&tuple[c], width);
        }
        if !self.def.unique {
            b.push_row_id(row);
        }
        b.finish()
    }

    /// Encode a (possibly partial) user-key prefix for lookups and scans.
    pub fn prefix_for(&self, schema: &Schema, values: &[Value]) -> Vec<u8> {
        assert!(values.len() <= self.def.key_cols.len(), "prefix too long");
        let mut b = KeyBuilder::new();
        for (&c, v) in self.def.key_cols.iter().zip(values) {
            let width = match schema.col_type(c) {
                ColType::Str(m) => m as usize,
                _ => 0,
            };
            b.push_value(v, width);
        }
        b.finish()
    }

    /// Inclusive scan bounds for entries whose user key starts with
    /// `values`.
    pub fn range_for(&self, schema: &Schema, values: &[Value]) -> (Vec<u8>, Vec<u8>) {
        let prefix = self.prefix_for(schema, values);
        let mut high = prefix.clone();
        // Pad to the maximum stored key length with 0xff: every stored key
        // with this prefix compares <= high.
        high.resize(phoebe_storage::node::MAX_KEY, 0xff);
        (prefix, high)
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
    pub indexes: SnapshotList<Arc<IndexEntry>>,
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
        TableEntry {
            id,
            name,
            schema,
            layout,
            tree,
            frozen,
            next_row_id: AtomicU64::new(1),
            indexes: SnapshotList::default(),
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
}
