//! `haft-trace` — the observability layer: structured trace events,
//! Chrome trace-event export, and the unified metrics registry.
//!
//! Every execution surface in the workspace (VM, HTM, DES serving,
//! native runtime) can emit [`TraceEvent`]s into one of two sinks,
//! [`TraceBuf`] or [`Ring`] (below); tracing is runtime-switchable and
//! strictly observational — events record the virtual clock, they never
//! advance it, so a traced run is bit-identical to an untraced one
//! (pinned by the root differential tests).
//!
//! # The dual-clock rule
//!
//! Two clocks exist: the *virtual* clock (the VM's cycle scoreboard,
//! scaled to nanoseconds by the serving layers) and the *host wall*
//! clock (only the native runtime has one worth recording). Simulated
//! activity (VM phases, transactions, batches, sagas) is timestamped on
//! the virtual clock in every mode, so a DES run and its native twin
//! render on comparable timelines. Native-only scheduling activity
//! (steals, actor drains) is timestamped on the wall clock under its own
//! `pid`, and events that live on both clocks carry the other one in
//! `args` — a native trace can be visually diffed against its simulated
//! twin in one Perfetto window.
//!
//! # Sinks
//!
//! [`TraceBuf`] is the unbounded buffer for bounded producers (one VM
//! run, the DES's event loop). [`Ring`] is the bounded
//! overwrite-oldest ring for the native pool: one ring per worker and
//! one per shard actor, each exclusively owned (the pool's scheduling
//! CAS guarantees single-owner access), merged only after the pool
//! joins — the hot path never takes a shared trace lock.

pub mod chrome;
pub mod json;

mod event;
mod metrics;
mod sink;

pub use chrome::{render_chrome, to_chrome_json, validate_chrome_trace, write_chrome};
pub use event::{ArgValue, EventKind, TraceEvent};
pub use metrics::MetricsSnapshot;
pub use sink::{Ring, TraceBuf};
