//! Parallel Write-Ahead Logging with Remote Flush Avoidance (§8).
//!
//! PhoebeDB follows "Non-Force, Steal": commits need not force all data
//! pages, and dirty pages of uncommitted transactions may reach disk (the
//! buffer pool's write barrier keeps WAL ahead of data). The flushing
//! bottleneck of a single serialized log is removed by giving **each task
//! slot its own WAL writer** — its own buffer, LSNs and durable horizons
//! ([`writer`]) — while a group-commit round gathers every slot's bytes
//! into one write and one `fdatasync` on one log file; recovery re-orders
//! the records by GSN ([`recovery`]).
//!
//! Remote Flush Avoidance: a committing transaction that only touched data
//! last written by its own slot waits only for *its own* writer to flush —
//! no rendezvous with unrelated loggers. Only transactions that built a
//! cross-slot dependency (they modified a tuple/page whose previous writer
//! on another slot is not yet durable) wait for the global flush horizon
//! ([`writer::WalHub::ensure_durable_gsn_async`]).

pub mod record;
pub mod recovery;
pub mod writer;

pub use record::{crc32, RecordBody, WalRecord};
pub use recovery::{is_wal_file, recover_dir, recover_dir_stats, RecoveredTxn, WalScanStats};
pub use writer::{RfaState, WalHub, WalWriter};
