//! The kernel-wide error type.
//!
//! PhoebeDB distinguishes *transaction outcomes the caller must handle*
//! (write-write conflicts under repeatable read, explicit aborts, lock
//! timeouts) from *environmental failures* (I/O, corruption). Both travel in
//! one enum so the public API has a single `Result` alias, but
//! [`PhoebeError::is_retryable`] tells a driver whether simply re-running
//! the transaction is the right response — which is exactly what the TPC-C
//! driver does.

use crate::ids::{RowId, TableId, Xid};
use std::fmt;
use std::io;

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, PhoebeError>;

/// Every way a kernel operation can fail.
///
/// Marked `#[non_exhaustive]`: downstream code must keep a wildcard arm
/// so new failure modes can be added without a breaking release.
#[derive(Debug)]
#[non_exhaustive]
pub enum PhoebeError {
    /// A configuration rejected by [`crate::config::KernelConfigBuilder`].
    Config(String),
    /// A write-write conflict forced this transaction to abort (repeatable
    /// read semantics, §6.2: if the concurrent writer commits, we abort).
    WriteConflict { table: TableId, row: RowId, holder: Xid },
    /// The transaction was explicitly rolled back by the caller.
    UserAbort,
    /// The transaction waited too long on another transaction's ID lock.
    LockTimeout { waiting_for: Xid },
    /// A row that must exist was momentarily invisible (version-chain
    /// transition race); re-running the transaction resolves it.
    TransientMiss { what: &'static str },
    /// A row id was not found in the table (neither hot/cold nor frozen).
    RowNotFound { table: TableId, row: RowId },
    /// A unique secondary index rejected a duplicate key.
    DuplicateKey { index: TableId },
    /// The requested table/index does not exist in the catalog.
    NoSuchTable(TableId),
    /// A tuple failed schema validation (wrong arity or column type).
    SchemaMismatch { table: TableId, detail: String },
    /// The buffer pool could not find an evictable frame.
    OutOfFrames,
    /// Underlying file I/O failed.
    Io(io::Error),
    /// The WAL hub halted after a log write or fsync failed: the commit's
    /// durability cannot be established and the kernel stops acknowledging
    /// transactions (a crash/restart is the only way forward).
    WalHalted,
    /// The WAL hub was shut down before the commit's record became
    /// durable: no flush round runs any more, so the commit is not
    /// acknowledged.
    WalClosed,
    /// On-disk data failed a checksum or structural validation.
    Corruption(String),
    /// Internal invariant violation; indicates a kernel bug.
    Internal(String),
}

impl PhoebeError {
    /// True when re-running the transaction from the top is the correct
    /// response (the classic optimistic/MVCC retry loop).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            PhoebeError::WriteConflict { .. }
                | PhoebeError::LockTimeout { .. }
                | PhoebeError::TransientMiss { .. }
        )
    }

    /// Shorthand for an internal invariant failure.
    pub fn internal(msg: impl Into<String>) -> Self {
        PhoebeError::Internal(msg.into())
    }

    /// Shorthand for a corruption report.
    pub fn corruption(msg: impl Into<String>) -> Self {
        PhoebeError::Corruption(msg.into())
    }
}

impl fmt::Display for PhoebeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhoebeError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            PhoebeError::WriteConflict { table, row, holder } => {
                write!(f, "write-write conflict on {table}/{row} held by {holder}")
            }
            PhoebeError::UserAbort => write!(f, "transaction aborted by user"),
            PhoebeError::LockTimeout { waiting_for } => {
                write!(f, "timed out waiting on transaction {waiting_for}")
            }
            PhoebeError::TransientMiss { what } => {
                write!(f, "transient miss on {what}; retry the transaction")
            }
            PhoebeError::RowNotFound { table, row } => {
                write!(f, "row {row} not found in table {table}")
            }
            PhoebeError::DuplicateKey { index } => {
                write!(f, "duplicate key in unique index {index}")
            }
            PhoebeError::NoSuchTable(t) => write!(f, "no such table {t}"),
            PhoebeError::SchemaMismatch { table, detail } => {
                write!(f, "schema mismatch on table {table}: {detail}")
            }
            PhoebeError::OutOfFrames => write!(f, "buffer pool has no evictable frame"),
            PhoebeError::Io(e) => write!(f, "i/o error: {e}"),
            PhoebeError::WalHalted => {
                write!(f, "wal halted after a log i/o failure; commit durability unknown")
            }
            PhoebeError::WalClosed => {
                write!(f, "wal closed by shutdown; commit durability unknown")
            }
            PhoebeError::Corruption(msg) => write!(f, "corruption detected: {msg}"),
            PhoebeError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for PhoebeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PhoebeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PhoebeError {
    fn from(e: io::Error) -> Self {
        PhoebeError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::*;

    #[test]
    fn retryability_classification() {
        let conflict = PhoebeError::WriteConflict {
            table: TableId(1),
            row: RowId(2),
            holder: Xid::from_start_ts(3),
        };
        assert!(conflict.is_retryable());
        assert!(PhoebeError::LockTimeout { waiting_for: Xid::from_start_ts(1) }.is_retryable());
        assert!(!PhoebeError::UserAbort.is_retryable());
        assert!(!PhoebeError::internal("x").is_retryable());
    }

    #[test]
    fn io_errors_convert_and_chain() {
        let e: PhoebeError = io::Error::other("disk on fire").into();
        assert!(e.to_string().contains("disk on fire"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn display_is_human_readable() {
        let e = PhoebeError::RowNotFound { table: TableId(4), row: RowId(9) };
        assert_eq!(e.to_string(), "row r9 not found in table t4");
    }
}
