//! HAFT — Hardware-Assisted Fault Tolerance.
//!
//! A from-scratch Rust reproduction of *"HAFT: Hardware-assisted Fault
//! Tolerance"* (Kuvaiskii, Faqeh, Bhatotia, Felber, Fetzer — EuroSys
//! 2016): a compiler-based technique that protects unmodified
//! multithreaded programs against transient CPU faults by combining
//! **instruction-level redundancy** (ILR — a duplicated shadow data flow
//! with checks) for detection with **hardware-transactional-memory
//! rollback** (TX — whole-program transactification over a TSX-like HTM)
//! for recovery.
//!
//! The workspace contains every substrate the paper depends on, built
//! from scratch:
//!
//! | Crate | Paper counterpart |
//! |---|---|
//! | [`ir`] | the LLVM IR layer the passes transform |
//! | [`passes`] | the ILR and TX passes (the paper's contribution) |
//! | [`htm`] | Intel TSX/RTM (read/write sets, aborts, capacity) |
//! | [`vm`] | the Haswell testbed (superscalar cost model + runtime) |
//! | [`workloads`] | Phoenix 2.0 + PARSEC 3.0 benchmark suites |
//! | [`faults`] | the Intel SDE + GDB fault injector |
//! | [`model`] | the PRISM availability model (Figure 5/10) |
//! | [`apps`] | memcached, LogCabin, Apache, LevelDB, SQLite case studies |
//! | [`serve`] | the YCSB client cluster: sharded serving, tail latency, availability |
//! | [`runtime`] | the multi-core deployment: shard actors on a work-stealing thread pool |
//! | [`trace`] | the observability layer: trace events, Perfetto export, unified metrics |
//!
//! # Examples
//!
//! Harden a program with the [`Experiment`] pipeline and watch it survive
//! an injected fault:
//!
//! ```
//! use haft::prelude::*;
//!
//! // A toy program: sum 0..100 into a global, emit the result.
//! let mut m = Module::new("demo");
//! let acc = m.add_global("acc", 8);
//! let mut f = FunctionBuilder::new("fini", &[], None);
//! f.set_non_local();
//! let g = Operand::GlobalAddr(acc);
//! f.counted_loop(f.iconst(Ty::I64, 0), f.iconst(Ty::I64, 100), |b, i| {
//!     let cur = b.load(Ty::I64, g);
//!     let nxt = b.add(Ty::I64, cur, i);
//!     b.store(Ty::I64, nxt, g);
//! });
//! let v = f.load(Ty::I64, g);
//! f.emit_out(Ty::I64, v);
//! f.ret(None);
//! m.push_func(f.finish());
//!
//! // One experiment: harden with ILR + TX, run clean, then re-run with a
//! // fault injected mid-trace.
//! let exp = Experiment::new(&m)
//!     .harden(HardenConfig::haft())
//!     .spec(RunSpec { fini: Some("fini"), ..Default::default() });
//! let clean = exp.run();
//! let plan = FaultPlan { occurrence: clean.run.register_writes / 2, xor_mask: 0x40 };
//! let faulty = exp.run_with_fault(plan, false);
//! assert_eq!(faulty.run.output, clean.run.output, "HAFT recovered the fault");
//!
//! // And the variant grid: HAFT vs the unprotected baseline.
//! let report = exp.compare(&[HardenConfig::haft()]);
//! assert!(report.outputs_agree());
//! assert!(report.overhead("HAFT").unwrap() > 1.0, "redundancy is not free");
//! ```
//!
//! # Hardening backends
//!
//! Three strategies plug into the same pipeline, one
//! [`passes::HardenConfig`] variant each, named by [`passes::Backend`]:
//! the paper's detect-and-rollback HAFT (`Backend::IlrTx`, the default),
//! the Elzar-style triplicate-and-vote TMR (`Backend::Tmr`), which masks
//! faults in place with no transactions, and checksum ABFT
//! (`Backend::Abft`), with full HAFT for the functions it cannot cover.
//! `Experiment::backend(Backend::Tmr)` selects the full-strength preset,
//! and `compare` races them in one report:
//!
//! ```text
//! let report = Experiment::workload(&w)
//!     .compare(&[HardenConfig::haft(), HardenConfig::tmr()]);
//! // report.overhead("HAFT") vs report.overhead("TMR")
//! ```

pub mod corpus;
pub mod eval;
pub mod experiment;

pub use experiment::{Experiment, ExperimentReport, VariantReport};

pub use haft_apps as apps;
pub use haft_faults as faults;
pub use haft_htm as htm;
pub use haft_ir as ir;
pub use haft_model as model;
pub use haft_passes as passes;
pub use haft_runtime as runtime;
pub use haft_serve as serve;
pub use haft_trace as trace;
pub use haft_vm as vm;
pub use haft_workloads as workloads;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use crate::experiment::{Experiment, ExperimentReport, VariantReport};
    pub use haft_faults::{
        run_campaign, CampaignConfig, CampaignReport, ForensicsSummary, Group, LatencyHistogram,
        Outcome, SiteStats,
    };
    pub use haft_ir::builder::FunctionBuilder;
    pub use haft_ir::inst::{BinOp, CmpOp, Op, Operand};
    pub use haft_ir::module::Module;
    pub use haft_ir::types::Ty;
    pub use haft_ir::verify::verify_module;
    pub use haft_model::{HaftChain, SystemKind};
    pub use haft_passes::{
        Backend, HardenConfig, IlrConfig, OptLevel, PassManager, PassStats, TmrConfig, TxConfig,
    };
    pub use haft_serve::{
        ArrivalMode, FaultLoad, FaultReport, FaultTelemetry, LatencyStats, RouterPolicy, SagaLoad,
        ServeConfig, ServeMode, ServiceReport, ShardStats, WallReport,
    };
    pub use haft_trace::{validate_chrome_trace, MetricsSnapshot, TraceBuf, TraceEvent};
    pub use haft_vm::{
        CycleProfile, Engine, FaultDetector, FaultPlan, FaultSite, Forensics, Prepared,
        ProfileCell, RunOutcome, RunResult, RunSpec, Vm, VmConfig,
    };
    pub use haft_workloads::{all_workloads, workload_by_name, Scale, Workload};
}
