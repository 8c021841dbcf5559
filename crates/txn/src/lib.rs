//! Transaction management (§6, §7.2, §7.3).
//!
//! PhoebeDB keeps PostgreSQL's snapshot isolation levels (read committed
//! and repeatable read) but replaces its machinery wholesale:
//!
//! * a 62-bit **global logical clock** ([`clock`]) issues transaction ids
//!   and commit timestamps, making snapshot acquisition a single atomic
//!   load — O(1) instead of PostgreSQL's proc-array scan (§6.1);
//! * **in-memory UNDO logs** with before-image deltas form per-tuple
//!   version chains, grouped per transaction and stored per task slot
//!   ([`undo`]) so commit stamps them in one scan and GC reclaims them
//!   queue-like (§6.2, §7.3);
//! * a page-level **twin table** links tuples to their version chains
//!   without widening every tuple by a pointer ([`twin`]);
//! * **Algorithm 1** reconstructs the visible version ([`visibility`]);
//! * **decentralized locks** — transaction-ID locks waited on through the
//!   handle stored right in the twin entry, and per-slot tuple-lock slots
//!   — replace the global lock hash table ([`locks`]);
//! * **watermark GC** reclaims UNDO logs, twin tables and deleted tuples
//!   ([`gc`]).

pub mod clock;
pub mod gc;
pub mod locks;
pub mod twin;
pub mod undo;
pub mod visibility;

pub use clock::{GlobalClock, Snapshot};
pub use gc::{ActiveTxnTable, GcEngine, GcStats};
pub use locks::{IsolationLevel, TxnHandle, TxnOutcome};
pub use twin::{TwinKey, TwinRegistry, TwinTable};
pub use undo::{UndoArena, UndoLog, UndoOp};
pub use visibility::{check_visibility, resolve_visibility, Visibility, VisibleVersion};
