//! Index keys are checked where they enter the kernel: DDL refuses a key
//! layout the index B-tree cannot hold, and a key a caller passes to a
//! lookup or scan is checked like an inserted row's key columns.

use phoebe_core::prelude::*;
use phoebe_runtime::block_on;
use std::sync::Arc;

fn open_db() -> Arc<Database> {
    Database::open(KernelConfig::for_tests()).unwrap()
}

/// `(id I64, name Str(4))`, unique on `name`, holding `(1, "abcd")`.
fn names(db: &Arc<Database>) -> (Arc<TableEntry>, Arc<IndexEntry>) {
    let schema = Schema::new(vec![("id", ColType::I64), ("name", ColType::Str(4))]);
    let t = db.create_table("names", schema).unwrap();
    let by_name = db.create_index(&t, "by_name", vec![1], true).unwrap();
    let mut tx = db.begin(IsolationLevel::ReadCommitted);
    block_on(tx.insert(&t, vec![Value::I64(1), Value::Str("abcd".into())])).unwrap();
    block_on(tx.commit()).unwrap();
    (t, by_name)
}

fn assert_mismatch<T>(got: Result<T>, what: &str) {
    match got {
        Err(PhoebeError::SchemaMismatch { .. }) => {}
        Err(e) => panic!("{what}: got {e:?}"),
        Ok(_) => panic!("{what}: accepted"),
    }
}

#[test]
fn create_index_refuses_a_key_column_outside_the_table() {
    let db = open_db();
    let t = db.create_table("t", Schema::new(vec![("id", ColType::I64)])).unwrap();
    assert_mismatch(db.create_index(&t, "bad", vec![0, 1], true), "column 1 of 1");
    assert!(t.all_indexes().is_empty(), "a refused index is not registered");
    db.shutdown();
}

#[test]
fn create_index_refuses_keys_wider_than_the_btree_holds() {
    let db = open_db();
    let cap = phoebe_storage::node::KEY_CAP as u16;
    let schema = Schema::new(vec![("wide", ColType::Str(cap + 1)), ("s", ColType::Str(cap - 8))]);
    let t = db.create_table("t", schema).unwrap();
    assert_mismatch(db.create_index(&t, "wide", vec![0], true), "unique key one past the cap");
    // `cap - 8` bytes fit alone; a non-unique index adds an 8-byte row-id
    // suffix, which reaches the cap exactly.
    db.create_index(&t, "unique_s", vec![1], true).unwrap();
    db.create_index(&t, "s", vec![1], false).unwrap();
    assert_mismatch(db.create_index(&t, "s_s", vec![1, 1], false), "twice the cap");
    let mut tx = db.begin(IsolationLevel::ReadCommitted);
    let tuple =
        vec![Value::Str("x".repeat(cap as usize + 1)), Value::Str("y".repeat(cap as usize - 8))];
    block_on(tx.insert(&t, tuple)).unwrap();
    block_on(tx.commit()).unwrap();
    db.shutdown();
}

/// A 64-byte unique key: inserted, found by `lookup_unique` and
/// `scan_index` across many index leaves, and again after a reopen.
#[test]
fn a_str64_unique_index_is_served_end_to_end() {
    let cfg = KernelConfig::for_tests();
    let name = |i: i64| format!("{:0>64}", format!("name-{i}"));
    let open = |cfg: &KernelConfig| {
        let db = Database::open(cfg.clone()).unwrap();
        let schema = Schema::new(vec![("id", ColType::I64), ("name", ColType::Str(64))]);
        let t = db.create_table("people", schema).unwrap();
        let by_name = db.create_index(&t, "by_name", vec![1], true).unwrap();
        (db, t, by_name)
    };
    let check = |db: &Arc<Database>, t: &Arc<TableEntry>, by_name: &Arc<IndexEntry>| {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        for i in (0..2_000).step_by(37) {
            let found = tx.lookup_unique(t, by_name, &[Value::Str(name(i))]).unwrap();
            assert_eq!(found.map(|(_, r)| r.i64("id")), Some(i), "lookup of {i}");
        }
        let all = tx.scan_index(t, by_name, &[], 5_000).unwrap();
        let mut ids: Vec<i64> = all.iter().map(|(_, r)| r.i64("id")).collect();
        assert!(ids.windows(2).all(|w| name(w[0]) < name(w[1])), "scan in key order");
        ids.sort_unstable();
        assert_eq!(ids, (0..2_000).collect::<Vec<_>>());
        let one = tx.scan_index(t, by_name, &[Value::Str(name(1_234))], 10).unwrap();
        assert_eq!(one.iter().map(|(_, r)| r.i64("id")).collect::<Vec<_>>(), [1_234]);
        block_on(tx.commit()).unwrap();
    };
    {
        let (db, t, by_name) = open(&cfg);
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        for i in 0..2_000 {
            block_on(tx.insert(&t, vec![Value::I64(i), Value::Str(name(i))])).unwrap();
        }
        block_on(tx.commit()).unwrap();
        check(&db, &t, &by_name);
        db.shutdown();
    }
    let (db, t, by_name) = open(&cfg);
    check(&db, &t, &by_name);
    db.shutdown();
}

#[test]
fn lookup_refuses_more_values_than_key_columns() {
    let db = open_db();
    let (t, by_name) = names(&db);
    let mut tx = db.begin(IsolationLevel::ReadCommitted);
    let key = [Value::Str("abcd".into()), Value::I64(1)];
    assert_mismatch(tx.lookup_unique(&t, &by_name, &key), "lookup");
    assert_mismatch(tx.scan_index(&t, &by_name, &key, 10), "scan");
    block_on(tx.commit()).unwrap();
    db.shutdown();
}

#[test]
fn lookup_refuses_a_value_of_the_wrong_type() {
    let db = open_db();
    let (t, by_name) = names(&db);
    let mut tx = db.begin(IsolationLevel::ReadCommitted);
    assert_mismatch(tx.lookup_unique(&t, &by_name, &[Value::I64(1)]), "lookup");
    assert_mismatch(tx.scan_index(&t, &by_name, &[Value::I32(1)], 10), "scan");
    let keys = vec![vec![Value::Str("abcd".into())], vec![Value::F64(1.0)]];
    assert_mismatch(block_on(tx.multi_lookup(&t, &by_name, &keys)), "multi_lookup");
    block_on(tx.commit()).unwrap();
    db.shutdown();
}

#[test]
fn lookup_refuses_a_string_longer_than_its_column() {
    let db = open_db();
    let (t, by_name) = names(&db);
    let mut tx = db.begin(IsolationLevel::ReadCommitted);
    // Cut to the column's four bytes, this key would find "abcd".
    assert_mismatch(tx.lookup_unique(&t, &by_name, &[Value::Str("abcdef".into())]), "lookup");
    let found = tx.lookup_unique(&t, &by_name, &[Value::Str("abcd".into())]).unwrap();
    assert_eq!(found.map(|(_, r)| r.i64("id")), Some(1));
    block_on(tx.commit()).unwrap();
    db.shutdown();
}

#[test]
fn lookup_refuses_a_string_with_a_nul_byte() {
    let db = open_db();
    let (t, by_name) = names(&db);
    let mut tx = db.begin(IsolationLevel::ReadCommitted);
    assert_mismatch(tx.lookup_unique(&t, &by_name, &[Value::Str("abc\0".into())]), "lookup");
    assert_mismatch(tx.scan_index(&t, &by_name, &[Value::Str("\0".into())], 10), "scan");
    block_on(tx.commit()).unwrap();
    db.shutdown();
}

#[test]
fn insert_refuses_a_nul_byte_in_an_indexed_string() {
    let db = open_db();
    let schema = Schema::new(vec![("key", ColType::Str(4)), ("note", ColType::Str(4))]);
    let t = db.create_table("t", schema).unwrap();
    db.create_index(&t, "by_key", vec![0], true).unwrap();
    let mut tx = db.begin(IsolationLevel::ReadCommitted);
    block_on(tx.insert(&t, vec![Value::Str("abc".into()), Value::Str("\0".into())])).unwrap();
    let nul = vec![Value::Str("abc\0".into()), Value::Str("x".into())];
    assert_mismatch(block_on(tx.insert(&t, nul)), "indexed NUL");
    block_on(tx.commit()).unwrap();
    db.shutdown();
}
