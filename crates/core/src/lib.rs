//! PhoebeDB-RS: the kernel crate (§4, Figure 1).
//!
//! This crate assembles the paper's components into one database object:
//! the in-memory data-centric storage engine (`phoebe-storage`), the
//! transaction machinery (`phoebe-txn`), parallel WAL with RFA
//! (`phoebe-wal`) and the co-routine pool (`phoebe-runtime`), plus the
//! pieces that only make sense at kernel scope: the catalog, the
//! transaction API, temperature-based freezing/warming, worker background
//! duties, GC orchestration and WAL replay.
//!
//! # Quickstart
//!
//! ```no_run
//! use phoebe_core::{Database, IsolationLevel};
//! use phoebe_common::KernelConfig;
//! use phoebe_storage::schema::{ColType, Schema};
//!
//! let db = Database::open(KernelConfig::for_tests()).unwrap();
//! let accounts = db
//!     .create_table("accounts", Schema::new(vec![
//!         ("id", ColType::I64),
//!         ("balance", ColType::I64),
//!     ]))
//!     .unwrap();
//! let rt = db.runtime();
//! let db2 = db.clone();
//! let accounts2 = accounts.clone();
//! rt.spawn(async move {
//!     let mut tx = db2.begin(IsolationLevel::ReadCommitted);
//!     let row = tx.insert(&accounts2, vec![1i64.into(), 100i64.into()]).await.unwrap();
//!     tx.commit().await.unwrap();
//!     row
//! })
//! .join();
//! ```

pub mod catalog;
pub mod db;
pub mod keys;
pub mod manifest;
pub mod prelude;
pub mod row;
pub mod stats;
pub mod telemetry;
pub mod temperature;
pub mod txn_api;
pub mod watchdog;

pub use catalog::{IndexDef, IndexEntry, TableEntry};
pub use db::{Database, RecoveryInfo, EXTERNAL_SLOTS};
pub use keys::KeyBuilder;
pub use phoebe_common::{TelemetryConfig, TraceConfig, Tracer, WatchdogConfig};
pub use phoebe_runtime::{RuntimeStats, WorkerStateSummary};
pub use phoebe_txn::locks::IsolationLevel;
pub use row::Row;
pub use stats::{KernelStats, Series};
pub use telemetry::KernelTelemetry;
pub use temperature::{FreezeStats, WarmStats};
pub use txn_api::Transaction;
pub use watchdog::WatchdogHandle;
