//! The HAFT compiler passes.
//!
//! This crate is the reproduction of the paper's primary contribution: two
//! IR-to-IR transformations that together make an unmodified multithreaded
//! program fault-tolerant.
//!
//! * [`ilr`] — **Instruction-Level Redundancy** (paper §3.2/§3.3, the
//!   ~830-LoC LLVM pass): replicates every computational instruction into
//!   a *shadow* data flow inside the same thread, inserts master/shadow
//!   checks before memory updates, externalizations, and control flow, and
//!   implements the paper's refinements — the shared-memory access
//!   optimization (Figure 3), safe control-flow protection via shadow
//!   basic blocks (Figure 4), the fault-propagation check for loop
//!   induction variables, and the check-elision peephole.
//!
//! * [`tx`] — **Transactification** (the ~540-LoC LLVM pass): covers the
//!   program in hardware transactions at function and loop granularity,
//!   using per-thread instruction counters with conditional transaction
//!   splits to bound transaction sizes, the local-function-call
//!   optimization, pessimistic splits around external calls and
//!   transaction-unfriendly operations, and the begin/end peephole.
//!
//! * [`tmr`] — **Triple Modular Redundancy** (the alternative *masking*
//!   backend, after Elzar, DSN'16): triplicates every replicable
//!   instruction and inserts majority-vote instructions at
//!   synchronization points, so a single-copy fault is corrected in
//!   place with no transactions and no rollback.
//!
//! * [`abft`] — **Algorithm-Based Fault Tolerance** (the third backend):
//!   recognizes checksum-maintainable accumulation chains in matrix-style
//!   kernels, carries two checksum lanes alongside each chain, and
//!   verifies-and-corrects at externalization points — correcting a
//!   single divergent lane in place and fail-stopping on uncorrectable
//!   three-way divergence. Functions with no recognizable chains fall
//!   back to the full HAFT pipeline, per function.
//!
//! The three replicating passes share one private core, `replicate`:
//! the master → lane-twin map with "clone into every lane", "replicate
//! by moves", the fresh-copy record of the elision peepholes and the
//! deferred phi fill, plus the single table of synchronization operands.
//! Each pass keeps only its block walker and its reconcile policy
//! (check → detect block, vote → substitute, verify-and-correct →
//! substitute).
//!
//! * [`manager`] — the pass pipeline: [`PassManager`] runs the fixed
//!   pass sequence its [`HardenConfig`] names, with per-pass instruction
//!   deltas ([`PassStats`]) and debug-build IR verification at every
//!   pass boundary.
//!
//! * [`pipeline`] — configuration plumbing: [`HardenConfig`], one
//!   variant per [`Backend`] (HAFT's detect-and-rollback, TMR's
//!   triplicate-and-vote, ABFT's checksum lanes), each carrying only
//!   its passes' configs, and the presets for the paper's evaluated
//!   variants (native / ILR-only / TX-only / HAFT / TMR / ABFT) and the
//!   cumulative optimization levels of Figure 7.
//!
//! # Examples
//!
//! ```
//! use haft_ir::builder::FunctionBuilder;
//! use haft_ir::module::Module;
//! use haft_ir::types::Ty;
//! use haft_passes::{HardenConfig, PassManager};
//!
//! let mut m = Module::new("demo");
//! let mut fb = FunctionBuilder::new("f", &[Ty::I64], Some(Ty::I64));
//! let x = fb.param(0);
//! let y = fb.add(Ty::I64, x, fb.iconst(Ty::I64, 1));
//! fb.ret(Some(y.into()));
//! m.push_func(fb.finish());
//!
//! let (hardened, stats) = PassManager::from_config(&HardenConfig::haft()).run_on(&m);
//! assert!(haft_ir::verify::verify_module(&hardened).is_ok());
//! // Both passes grew the function: the shadow flow and the transaction
//! // boundaries.
//! assert_eq!(stats.pass_names(), vec!["ilr", "tx"]);
//! assert!(hardened.total_inst_count() > m.total_inst_count());
//! ```

pub mod abft;
pub mod ilr;
pub mod manager;
pub mod pipeline;
mod replicate;
pub mod tmr;
pub mod tx;

pub use abft::AbftConfig;
pub use ilr::IlrConfig;
pub use manager::{harden_runs_for, PassManager, PassRecord, PassStats};
pub use pipeline::{Backend, HardenConfig, OptLevel};
pub use tmr::TmrConfig;
pub use tx::TxConfig;
