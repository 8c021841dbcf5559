//! Parallel Write-Ahead Logging (§8).
//!
//! PhoebeDB follows "Non-Force, Steal": commits need not force all data
//! pages, and dirty pages of uncommitted transactions may reach disk (the
//! buffer pool's write barrier keeps WAL ahead of data). The flushing
//! bottleneck of a single serialized log is removed by giving **each task
//! slot its own WAL writer** — its own buffer and LSNs ([`writer`]) — while
//! a group-commit round gathers every slot's bytes into one write and one
//! `fdatasync` on one log file, closed by a round marker; recovery reads
//! the files in order, keeps only whole rounds, and replays committed
//! transactions by commit timestamp ([`recovery`]).
//!
//! Every commit waits for the hub's durable GSN — one atomic, published by
//! every group-commit round as its GSN tick minus one — to reach its Commit
//! record ([`writer::WalHub::wait_commit`]). The paper's Remote Flush
//! Avoidance, which lets a commit with no cross-slot dependency wait for
//! its own slot's log alone, has nothing to save when every slot shares
//! one write and one sync, so it is not kept.

pub mod record;
pub mod recovery;
pub mod writer;

pub use record::{crc32, RecordBody, WalRecord};
pub use recovery::{
    is_wal_file, recover_dir, recover_dir_stats, sync_wal_files, RecoveredTxn, WalScanStats,
};
pub use writer::{CommitBell, WalHub, WalWriter};
