//! PhoebeDB's in-memory data-centric storage engine (§5).
//!
//! Three cooperating layers reproduce the paper's storage design:
//!
//! * **Main Storage** ([`buffer`]) — a partitioned buffer pool of fixed
//!   frames holding B-Tree nodes, with pointer swizzling ([`swip`]) instead
//!   of a global page-mapping hash table, and Hot/Cooling/Cold eviction.
//! * **Data Page File** ([`pagefile`]) — the on-disk home of cold pages.
//! * **Data Block File** ([`tier`]) — compressed frozen blocks for data
//!   past the `max_frozen_row_id` watermark.
//!
//! On top sits the swizzling [`btree`]: one tree per relation, table trees
//! keyed by monotonically increasing row ids with PAX leaves ([`pax`]),
//! index trees mapping user keys to row ids. Concurrency uses the hybrid
//! latch ([`latch`]): optimistic lock coupling for traversal, shared/
//! exclusive latches for leaf access (§7.2).

pub mod btree;
pub mod buffer;
pub mod fault_service;
pub mod latch;
pub mod node;
pub mod pagefile;
pub mod pax;
pub mod schema;
pub mod smallkey;
pub mod swip;
pub mod tier;

pub use btree::{row_key, BTree, DescentCursor, DescentStep, LatchedLeaf, TreeKind};
pub use buffer::{BufferPool, WalBarrier};
pub use fault_service::FaultTicket;
pub use latch::HybridLatch;
pub use pax::{PaxLayout, PaxLeaf};
pub use schema::{ColType, Schema, Tuple, Value};
pub use smallkey::SmallKey;
pub use swip::{FrameId, Swip, SwipState};
pub use tier::FrozenStore;
