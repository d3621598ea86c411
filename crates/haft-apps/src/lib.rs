//! Real-world case-study applications (paper §6).
//!
//! The paper applies HAFT to five unmodified server applications. Each is
//! rebuilt here as an IR program that preserves the property the paper's
//! analysis of it hinges on:
//!
//! * [`kvstore`] — **Memcached**: a hash-table key-value store driven by
//!   YCSB-style workloads, in lock-based and atomics-based variants. The
//!   lock variant is lock-acquisition-bound, which is why HAFT's lock
//!   elision recovers all of the hardening overhead (Figure 11). An
//!   execute-twice + CRC variant reproduces the SEI baseline comparison.
//! * [`others::logcabin`] — **LogCabin/RAFT**: serialized log appends
//!   with checksum chaining and periodic durable writes.
//! * [`others::apache`] — **Apache httpd**: request parsing plus a large
//!   unprotected-library copy per request (low coverage → ~10 % overhead).
//! * [`others::leveldb`] — **LevelDB**: binary search over a sorted
//!   static table plus per-thread write buffers (well-behaved, 25–35 %).
//! * [`others::sqlite`] — **SQLite**: every operation dispatched through
//!   a function pointer, which HAFT must treat as an external call — the
//!   paper's worst case (3–4×).
//!
//! All of these reuse the [`haft_workloads::Workload`] descriptor, so the
//! same harness runs benchmarks and case studies.

pub mod kvstore;
pub mod others;
pub mod ycsb;

pub use kvstore::{
    golden_reply, kv_shard, memcached, memcached_ops, patch_requests, value_of, KvSync,
    KV_KEYSPACE, SHARD_CAPACITY,
};
pub use ycsb::{Op, WorkloadMix, YcsbGen};
