//! Trait-based pass management.
//!
//! The paper's pipeline is a fixed two-pass sequence (ILR then TX), but
//! everything downstream — the `Experiment` API in the `haft` facade, the
//! report sections, ablations — wants to compose, reorder, and instrument
//! passes uniformly. [`Pass`] is the unit of composition; [`PassManager`]
//! owns ordering, optional IR verification at every pass boundary, and
//! per-pass instruction-delta accounting in [`PassStats`].
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
//! assert_eq!(stats.pass_names(), vec!["ilr", "tx"]);
//! // Both passes add instructions: the shadow flow and the tx brackets.
//! assert!(stats.records.iter().all(|r| r.added() > 0));
//! assert_eq!(hardened.total_inst_count() as i64,
//!            m.total_inst_count() as i64 + stats.total_added());
//! ```

use haft_ir::module::Module;
use haft_ir::verify::verify_module;

use crate::abft::{run_abft_module, AbftConfig};
use crate::ilr::{run_ilr_module, IlrConfig};
use crate::pipeline::HardenConfig;
use crate::tmr::{run_tmr_module, TmrConfig};
use crate::tx::{run_tx_module, TxConfig};

/// What one pass did to the module, measured by the manager around the
/// pass's `run` call.
#[derive(Clone, Debug)]
pub struct PassRecord {
    /// The pass's [`Pass::name`].
    pub name: &'static str,
    /// Module-wide instruction count before the pass ran.
    pub insts_before: usize,
    /// Module-wide instruction count after the pass ran.
    pub insts_after: usize,
}

impl PassRecord {
    /// Net instructions added (negative when the pass shrank the module).
    pub fn added(&self) -> i64 {
        self.insts_after as i64 - self.insts_before as i64
    }
}

/// Accumulated statistics for one pipeline run.
///
/// The manager appends one [`PassRecord`] per pass; passes themselves may
/// additionally publish named counters through [`PassStats::bump`] (e.g.
/// how many functions they transformed).
#[derive(Clone, Debug, Default)]
pub struct PassStats {
    /// One record per executed pass, in execution order.
    pub records: Vec<PassRecord>,
    /// Pass-published counters, in publication order.
    pub counters: Vec<(&'static str, u64)>,
}

impl PassStats {
    /// Adds `n` to the named pass-published counter.
    pub fn bump(&mut self, name: &'static str, n: u64) {
        match self.counters.iter_mut().find(|(k, _)| *k == name) {
            Some((_, v)) => *v += n,
            None => self.counters.push((name, n)),
        }
    }

    /// Publishes the pass-published counters and the pipeline's net
    /// instruction delta into the unified registry: each counter `x`
    /// becomes `pass.x`, plus `pass.added.total`.
    pub fn metrics(&self) -> haft_trace::MetricsSnapshot {
        let mut m = haft_trace::MetricsSnapshot::new();
        for (name, n) in &self.counters {
            m.set(format!("pass.{name}"), *n as f64);
        }
        m.set("pass.added.total", self.total_added() as f64);
        m
    }

    /// Names of the executed passes, in order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.records.iter().map(|r| r.name).collect()
    }

    /// Net instruction delta of one pass, if it ran.
    pub fn added_by(&self, pass: &str) -> Option<i64> {
        self.records.iter().find(|r| r.name == pass).map(|r| r.added())
    }

    /// Net instruction delta over the whole pipeline.
    pub fn total_added(&self) -> i64 {
        self.records.iter().map(|r| r.added()).sum()
    }
}

/// An IR-to-IR transformation that can be sequenced by a [`PassManager`].
pub trait Pass {
    /// Stable identifier used in stats, verification panics, and reports.
    fn name(&self) -> &'static str;
    /// Transforms `m` in place. `stats` is for pass-published counters;
    /// instruction deltas are recorded by the manager.
    fn run(&self, m: &mut Module, stats: &mut PassStats);
}

/// The ILR pass as a managed [`Pass`] (paper §3.2/§3.3).
#[derive(Clone, Debug, Default)]
pub struct IlrPass(pub IlrConfig);

impl Pass for IlrPass {
    fn name(&self) -> &'static str {
        "ilr"
    }

    fn run(&self, m: &mut Module, stats: &mut PassStats) {
        let transformed = m.funcs.iter().filter(|f| !f.attrs.external).count() as u64;
        run_ilr_module(m, &self.0);
        stats.bump("ilr.functions", transformed);
    }
}

/// The transactification pass as a managed [`Pass`] (paper §3.1/§3.3).
#[derive(Clone, Debug, Default)]
pub struct TxPass(pub TxConfig);

impl Pass for TxPass {
    fn name(&self) -> &'static str {
        "tx"
    }

    fn run(&self, m: &mut Module, stats: &mut PassStats) {
        let transformed = m.funcs.iter().filter(|f| !f.attrs.external).count() as u64;
        run_tx_module(m, &self.0);
        stats.bump("tx.functions", transformed);
    }
}

/// The Elzar-style TMR pass as a managed [`Pass`]: triplicate and vote
/// instead of duplicate, detect, and roll back (the [`crate::tmr`]
/// backend).
#[derive(Clone, Debug, Default)]
pub struct TmrPass(pub TmrConfig);

impl Pass for TmrPass {
    fn name(&self) -> &'static str {
        "tmr"
    }

    fn run(&self, m: &mut Module, stats: &mut PassStats) {
        let transformed = m.funcs.iter().filter(|f| !f.attrs.external).count() as u64;
        let votes = run_tmr_module(m, &self.0);
        stats.bump("tmr.functions", transformed);
        stats.bump("tmr.votes", votes);
    }
}

/// The ABFT pass as a managed [`Pass`]: checksum lanes and
/// verify-and-correct for recognized accumulation chains, with a
/// per-function fallback to the full HAFT pipeline (the [`crate::abft`]
/// backend).
#[derive(Clone, Debug, Default)]
pub struct AbftPass(pub AbftConfig);

impl Pass for AbftPass {
    fn name(&self) -> &'static str {
        "abft"
    }

    fn run(&self, m: &mut Module, stats: &mut PassStats) {
        let s = run_abft_module(m, &self.0);
        stats.bump("abft.functions_covered", s.functions_covered);
        stats.bump("abft.functions_fallback", s.functions_fallback);
        stats.bump("abft.chains", s.chains);
    }
}

/// Owns a pass sequence: ordering, boundary verification, stats.
///
/// By default the manager re-verifies the module after every pass **in
/// debug builds** (`debug_assertions`), so SSA or type breakage is caught
/// at the pass boundary that introduced it instead of deep inside the VM.
/// Release builds skip verification unless [`PassManager::verify`]
/// requests it.
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    verify_between: bool,
}

impl Default for PassManager {
    fn default() -> Self {
        Self::new()
    }
}

impl PassManager {
    /// An empty pipeline with default (debug-only) boundary verification.
    pub fn new() -> Self {
        PassManager { passes: Vec::new(), verify_between: cfg!(debug_assertions) }
    }

    /// The pipeline for one evaluated variant: the paper's ILR-then-TX
    /// sequence, the Elzar-style TMR pass, or the ABFT pass (which
    /// hardens the functions it cannot cover with its own default
    /// ILR-then-TX).
    pub fn from_config(cfg: &HardenConfig) -> Self {
        let mut pm = Self::new();
        match cfg {
            HardenConfig::IlrTx { ilr, tx } => {
                if let Some(ilr) = ilr {
                    pm = pm.with_pass(IlrPass(ilr.clone()));
                }
                if let Some(tx) = tx {
                    pm = pm.with_pass(TxPass(tx.clone()));
                }
            }
            HardenConfig::Tmr(tmr) => pm = pm.with_pass(TmrPass(tmr.clone())),
            HardenConfig::Abft(abft) => pm = pm.with_pass(AbftPass(abft.clone())),
        }
        pm
    }

    /// Appends a pass to the sequence.
    pub fn with_pass(mut self, pass: impl Pass + 'static) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Forces boundary verification on or off, overriding the debug-build
    /// default.
    pub fn verify(mut self, on: bool) -> Self {
        self.verify_between = on;
        self
    }

    /// Number of passes in the sequence.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// True when the sequence is empty (the native baseline).
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Runs the sequence in place over `m`.
    ///
    /// # Panics
    ///
    /// With boundary verification enabled, panics naming the offending
    /// pass if the module fails [`verify_module`] at any pass boundary.
    pub fn run(&self, m: &mut Module) -> PassStats {
        let mut stats = PassStats::default();
        if self.passes.is_empty() {
            return stats;
        }
        bump_harden_runs(&m.name);
        // One count per pass boundary: a pass starts where the last ended.
        let mut insts = m.total_inst_count();
        for pass in &self.passes {
            let insts_before = insts;
            pass.run(m, &mut stats);
            insts = m.total_inst_count();
            stats.records.push(PassRecord { name: pass.name(), insts_before, insts_after: insts });
            if self.verify_between {
                if let Err(errs) = verify_module(m) {
                    panic!("module invalid after pass `{}`: {errs:?}", pass.name());
                }
            }
        }
        stats
    }

    /// Runs the sequence on a copy of `m`, returning the transformed
    /// module and the stats.
    pub fn run_on(&self, m: &Module) -> (Module, PassStats) {
        let mut out = m.clone();
        let stats = self.run(&mut out);
        (out, stats)
    }
}

/// Process-wide count of non-empty pipeline runs, keyed by module name.
///
/// Hardening is the expensive, cacheable step of every experiment; this
/// counter exists so tests can pin that a sweep — any number of serve
/// calls, shard counts, or execution modes over one configuration —
/// hardened its module exactly once (the `Experiment` cache contract).
/// Tests that assert on it should use a uniquely named module: the
/// counter is global to the process and other tests run in parallel.
pub fn harden_runs_for(module_name: &str) -> u64 {
    harden_counter().lock().unwrap().get(module_name).copied().unwrap_or(0)
}

fn bump_harden_runs(module_name: &str) {
    let mut counter = harden_counter().lock().unwrap();
    // The key is allocated only on a module's first hardening.
    match counter.get_mut(module_name) {
        Some(n) => *n += 1,
        None => {
            counter.insert(module_name.to_string(), 1);
        }
    }
}

fn harden_counter() -> &'static std::sync::Mutex<std::collections::HashMap<String, u64>> {
    static COUNTER: std::sync::OnceLock<std::sync::Mutex<std::collections::HashMap<String, u64>>> =
        std::sync::OnceLock::new();
    COUNTER.get_or_init(Default::default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use haft_ir::builder::FunctionBuilder;
    use haft_ir::types::Ty;

    fn module() -> Module {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("f", &[Ty::I64], Some(Ty::I64));
        let x = fb.param(0);
        let y = fb.mul(Ty::I64, x, fb.iconst(Ty::I64, 3));
        fb.ret(Some(y.into()));
        m.push_func(fb.finish());
        m
    }

    #[test]
    fn from_config_mirrors_variant_shape() {
        assert!(PassManager::from_config(&HardenConfig::native()).is_empty());
        assert_eq!(PassManager::from_config(&HardenConfig::ilr_only()).len(), 1);
        assert_eq!(PassManager::from_config(&HardenConfig::haft()).len(), 2);
        assert_eq!(PassManager::from_config(&HardenConfig::tmr()).len(), 1);
        assert_eq!(PassManager::from_config(&HardenConfig::abft()).len(), 1);
    }

    #[test]
    fn records_per_pass_deltas_in_order() {
        let m = module();
        let (out, stats) = PassManager::from_config(&HardenConfig::haft()).run_on(&m);
        assert_eq!(stats.pass_names(), vec!["ilr", "tx"]);
        assert!(stats.added_by("ilr").unwrap() > 0, "{stats:?}");
        assert!(stats.added_by("tx").unwrap() > 0, "{stats:?}");
        assert_eq!(
            out.total_inst_count() as i64,
            m.total_inst_count() as i64 + stats.total_added()
        );
        // Deltas chain: pass N+1 starts where pass N ended.
        assert_eq!(stats.records[1].insts_before, stats.records[0].insts_after);
    }

    #[test]
    fn passes_publish_counters() {
        let (_, stats) = PassManager::from_config(&HardenConfig::haft()).run_on(&module());
        let m = stats.metrics();
        assert_eq!(m.get("pass.ilr.functions"), Some(1.0));
        assert_eq!(m.get("pass.tx.functions"), Some(1.0));
        assert_eq!(m.get("pass.nope"), None);
        assert_eq!(m.get("pass.added.total"), Some(stats.total_added() as f64));
    }

    #[test]
    fn empty_manager_is_identity() {
        let m = module();
        let (out, stats) = PassManager::new().run_on(&m);
        assert_eq!(out.total_inst_count(), m.total_inst_count());
        assert!(stats.records.is_empty());
    }

    /// `fini` picks one of two functions by a loaded flag and calls it
    /// through the pointer: `emit (flag == 1 ? hundred : two_hundred)()`.
    fn dispatch_module() -> Module {
        use haft_ir::inst::{CmpOp, Operand};
        let mut m = Module::new("dispatch");
        let flag = m.add_global_init("flag", 1u64.to_le_bytes().to_vec());
        let mut ids = Vec::new();
        for (name, v) in [("hundred", 100), ("two_hundred", 200)] {
            let mut fb = FunctionBuilder::new(name, &[], Some(Ty::I64));
            fb.ret(Some(fb.iconst(Ty::I64, v)));
            ids.push(m.push_func(fb.finish()));
        }
        let mut fb = FunctionBuilder::new("fini", &[], None);
        fb.set_non_local();
        let c = fb.load(Ty::I64, Operand::GlobalAddr(flag));
        let is_one = fb.cmp(CmpOp::Eq, Ty::I64, c, fb.iconst(Ty::I64, 1));
        let fp = fb.select(Ty::Ptr, is_one, Operand::FuncAddr(ids[0]), Operand::FuncAddr(ids[1]));
        let r = fb.call_indirect(fp, &[], Some(Ty::I64)).expect("call result");
        fb.emit_out(Ty::I64, r);
        fb.ret(None);
        m.push_func(fb.finish());
        m
    }

    #[test]
    fn a_corrupted_function_pointer_never_calls_the_other_function() {
        // The callee of an indirect call is a synchronization operand:
        // every register write x masks {1, 2, 3} (mask 1 turns one
        // function's address into the other's), and no run may complete
        // with the other function's result. Wrong outputs of any *other*
        // value are not asserted on: a flip of the returned value before
        // its replication move is the known open window.
        use haft_vm::{FaultPlan, RunOutcome, RunSpec, Vm, VmConfig};
        let spec = RunSpec { fini: Some("fini"), ..Default::default() };
        for cfg in [HardenConfig::haft(), HardenConfig::tmr()] {
            let (hardened, _) = PassManager::from_config(&cfg).run_on(&dispatch_module());
            let clean = Vm::run(&hardened, VmConfig::default(), spec);
            assert_eq!((clean.outcome, &clean.output[..]), (RunOutcome::Completed, &[100][..]));
            for occurrence in 0..clean.register_writes {
                for xor_mask in [1, 2, 3] {
                    let fault = Some(FaultPlan { occurrence, xor_mask });
                    let r = Vm::run(&hardened, VmConfig { fault, ..Default::default() }, spec);
                    assert!(
                        r.outcome != RunOutcome::Completed || r.output != [200],
                        "{}: write {occurrence} ^ {xor_mask} called the wrong function",
                        cfg.label()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "module invalid after pass `breaker`")]
    fn boundary_verification_names_the_offending_pass() {
        struct Breaker;
        impl Pass for Breaker {
            fn name(&self) -> &'static str {
                "breaker"
            }
            fn run(&self, m: &mut Module, _stats: &mut PassStats) {
                // Truncate the terminator off every block: invalid IR.
                for f in &mut m.funcs {
                    for b in &mut f.blocks {
                        b.insts.clear();
                    }
                }
            }
        }
        let mut m = module();
        PassManager::new().verify(true).with_pass(Breaker).run(&mut m);
    }
}
