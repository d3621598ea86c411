//! Multithreaded IR interpreter with a superscalar cost model.
//!
//! This crate is the reproduction's stand-in for the paper's Haswell
//! testbed. It executes [`haft_ir`] modules on N simulated threads and
//! reports *cycles* from a dataflow scoreboard: each dynamic instruction
//! issues when its operands are ready and an issue slot is free, and
//! completes after an opcode-specific latency. Because the ILR shadow flow
//! is data-independent from the master flow, hardened code hides its extra
//! instructions in spare issue slots exactly when the native code has low
//! instruction-level parallelism — which is the mechanism behind the
//! paper's headline "2× mean overhead, 1.05× for matrixmul, 4× for vips"
//! result.
//!
//! The VM also implements the HAFT runtime: the `tx_*` intrinsics backed
//! by the [`haft_htm`] simulator (begin/commit/abort with register and
//! memory rollback, bounded retries, non-transactional fallback), lock
//! elision, externalization (`emit`), and the single-event-upset fault
//! injection hook used by `haft-faults`. [`cores`] holds the process-wide
//! budget of helper threads that the drivers above it lease from.

pub mod cores;
mod cost;
pub mod fault;
pub mod mem;
pub mod vm;

pub use fault::FaultPlan;
pub use mem::{Memory, Trap};
pub use vm::{
    Checkpoint, CycleProfile, Engine, FaultDetector, FaultSite, Forensics, ForkEnd, FuseStats,
    PhaseCycles, Prepared, ProfileCell, ProfileOpClass, RunOutcome, RunResult, RunSpec, Settlement,
    Vm, VmConfig,
};

// The `haft-runtime` pool runs one VM per shard actor across OS threads,
// sharing the hardened module and configuration by value or borrow. Pin
// the thread-safety audit at compile time: nothing in the execution
// state may grow interior mutability (Rc, RefCell, raw pointers) without
// this failing to build.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<haft_ir::module::Module>();
    assert_send_sync::<VmConfig>();
    assert_send_sync::<RunSpec<'static>>();
    assert_send_sync::<RunResult>();
    assert_send_sync::<FaultPlan>();
    // Campaign workers share one `Prepared` and take forked `Vm`s over a
    // channel.
    assert_send_sync::<Prepared>();
    assert_send_sync::<Vm<'static>>();
};
