//! The convenience prelude: one `use` for the whole public surface.
//!
//! ```no_run
//! use phoebe_core::prelude::*;
//!
//! let cfg = KernelConfig::builder().workers(2).build().unwrap();
//! let db = Database::open(cfg).unwrap();
//! ```

pub use crate::catalog::{IndexDef, IndexEntry, TableEntry};
pub use crate::db::Database;
pub use crate::row::Row;
pub use crate::stats::KernelStats;
pub use crate::txn_api::Transaction;
pub use phoebe_common::{
    KernelConfig, KernelConfigBuilder, LatencySite, PhoebeError, Result, TelemetryConfig,
    TraceConfig, Tracer, WatchdogConfig,
};
pub use phoebe_storage::schema::{ColType, Schema, Value};
pub use phoebe_txn::locks::IsolationLevel;

// The `row!` tuple-literal macro (exported at the crate root by
// `#[macro_export]`); this brings it in alongside the types.
pub use crate::row;
