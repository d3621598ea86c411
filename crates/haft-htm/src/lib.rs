//! TSX-like hardware-transactional-memory simulator.
//!
//! HAFT's recovery component (the TX pass) wraps the whole program in
//! best-effort hardware transactions. This crate models the Intel TSX/RTM
//! properties that determine whether that strategy works (paper §2.2):
//!
//! * read- and write-sets tracked at 64-byte cache-line granularity;
//! * the write set bounded by L1 geometry (32 KB, 8-way: evicting a
//!   write-set line always aborts), the read set by a larger soft bound;
//! * conflict detection through the coherence protocol — a remote write to
//!   a line in our read- or write-set, or a remote read of a line in our
//!   write-set, aborts us (requester wins);
//! * explicit aborts (`XABORT`, used by ILR checks), "unfriendly"
//!   operations (syscalls/IO), timer interrupts, and rare spontaneous
//!   aborts;
//! * a hyper-threading mode in which two logical threads share one L1,
//!   halving the effective capacity and evicting each other's lines
//!   (paper §5.4).
//!
//! The simulator is *policy only*: it tracks line sets and decides who
//! aborts; buffering of speculative values and register rollback live in
//! the VM (`haft-vm`), exactly as real TSX splits responsibilities between
//! the cache and the core.

pub mod abort;
pub mod cache;
pub mod config;
pub mod stats;
pub mod system;
pub mod table;

pub use abort::AbortCause;
pub use config::HtmConfig;
pub use stats::HtmStats;
pub use system::{AccessKind, Htm};
