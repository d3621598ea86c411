//! The pass pipeline: one fixed pass sequence per [`HardenConfig`]
//! variant.
//!
//! The paper's pipeline is ILR then TX; the TMR and ABFT backends are
//! one pass each. [`PassManager`] runs the sequence its configuration
//! names, re-verifies the IR at every pass boundary in debug builds, and
//! accounts per-pass instruction deltas in [`PassStats`] — the one
//! hardening path under the `Experiment` API, the report and the corpus.
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

use haft_ir::function::{Function, Room};
use haft_ir::module::Module;
use haft_ir::verify::verify_module;

use crate::abft::{self, run_abft_module};
use crate::ilr::{self, run_ilr_module};
use crate::pipeline::HardenConfig;
use crate::tmr::{self, run_tmr_module};
use crate::tx::{self, run_tx_module};

/// What one pass did to the module, measured by the manager around the
/// pass.
#[derive(Clone, Debug)]
pub struct PassRecord {
    /// The pass's name (`ilr`, `tx`, `tmr` or `abft`), as used in stats,
    /// verification panics, and reports.
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

/// Runs the fixed pass sequence of one [`HardenConfig`]: the paper's
/// ILR-then-TX pipeline (either pass optional), the Elzar-style TMR pass,
/// or the ABFT pass (which hardens the functions it cannot cover with its
/// own default ILR-then-TX).
///
/// The manager re-verifies the module after every pass **in debug builds**
/// (`debug_assertions`), so SSA or type breakage is caught at the pass
/// boundary that introduced it instead of deep inside the VM.
pub struct PassManager {
    cfg: HardenConfig,
}

impl PassManager {
    /// The pipeline for one evaluated variant.
    pub fn from_config(cfg: &HardenConfig) -> Self {
        PassManager { cfg: cfg.clone() }
    }

    /// Runs the sequence in place over `m`.
    ///
    /// # Panics
    ///
    /// In debug builds, panics naming the offending pass if the module
    /// fails [`verify_module`] at any pass boundary.
    pub fn run(&self, m: &mut Module) -> PassStats {
        let mut stats = PassStats::default();
        if matches!(self.cfg, HardenConfig::IlrTx { ilr: None, tx: None }) {
            return stats;
        }
        bump_harden_runs(&m.name);
        let verify = cfg!(debug_assertions);
        let functions = |m: &Module| m.funcs.iter().filter(|f| !f.attrs.external).count() as u64;
        match &self.cfg {
            HardenConfig::IlrTx { ilr, tx } => {
                if ilr.is_some() && tx.is_some() {
                    // ILR's output is TX's input: take each body once,
                    // with room for both passes.
                    for f in m.funcs.iter_mut().filter(|f| !f.attrs.external) {
                        Function::make_mut(f, |f| self.room(f));
                    }
                }
                if let Some(ilr) = ilr {
                    step(m, &mut stats, "ilr", verify, |m, stats| {
                        let transformed = functions(m);
                        run_ilr_module(m, ilr);
                        stats.bump("ilr.functions", transformed);
                    });
                }
                if let Some(tx) = tx {
                    step(m, &mut stats, "tx", verify, |m, stats| {
                        let transformed = functions(m);
                        run_tx_module(m, tx);
                        stats.bump("tx.functions", transformed);
                    });
                }
            }
            HardenConfig::Tmr(tmr) => step(m, &mut stats, "tmr", verify, |m, stats| {
                let transformed = functions(m);
                let votes = run_tmr_module(m, tmr);
                stats.bump("tmr.functions", transformed);
                stats.bump("tmr.votes", votes);
            }),
            HardenConfig::Abft(abft) => step(m, &mut stats, "abft", verify, |m, stats| {
                let s = run_abft_module(m, abft);
                stats.bump("abft.functions_covered", s.functions_covered);
                stats.bump("abft.functions_fallback", s.functions_fallback);
                stats.bump("abft.chains", s.chains);
            }),
        }
        stats
    }

    /// The room the pipeline gives a body it copies to rewrite: an upper
    /// bound, from `f` alone, on the instructions, values and blocks its
    /// passes add to `f` (see [`Function::make_mut`]). A rewritten body's
    /// tables are allocated once, at their input length plus this room.
    pub fn room(&self, f: &Function) -> Room {
        match &self.cfg {
            HardenConfig::IlrTx { ilr, tx } => {
                let ilr = ilr.as_ref().map_or(Room::default(), |cfg| ilr::room(f, cfg));
                ilr + tx.as_ref().map_or(Room::default(), |cfg| tx::room(f, cfg))
            }
            HardenConfig::Tmr(cfg) => tmr::room(f, cfg),
            HardenConfig::Abft(cfg) => abft::room_for(f, cfg),
        }
    }

    /// Runs the sequence on a copy of `m`, returning the transformed
    /// module and the stats. The copy shares every function body with
    /// `m` until a pass takes it to rewrite it, so `m` is left as it was
    /// and the bodies no pass transforms are never copied.
    pub fn run_on(&self, m: &Module) -> (Module, PassStats) {
        let mut out = m.clone();
        let stats = self.run(&mut out);
        (out, stats)
    }
}

/// One pass of [`PassManager::run`]: runs `pass` over `m`, records its
/// [`PassRecord`] and, with `verify`, panics naming the pass if the module
/// no longer passes [`verify_module`].
///
/// Only the first pass counts the module instruction by instruction. A
/// pass starts where the last one ended, and its count moves by exactly
/// as many ids as it added to or removed from the blocks, so each
/// boundary only sums block lengths: a pass neither places nor removes a
/// `nop`, which `verify` also checks.
fn step(
    m: &mut Module,
    stats: &mut PassStats,
    name: &'static str,
    verify: bool,
    pass: impl FnOnce(&mut Module, &mut PassStats),
) {
    let placed = |m: &Module| m.funcs.iter().flat_map(|f| &f.blocks).map(|b| b.insts.len()).sum();
    let insts_before = stats.records.last().map_or_else(|| m.total_inst_count(), |r| r.insts_after);
    let placed_before: usize = placed(m);
    pass(m, stats);
    let insts_after = insts_before + placed(m) - placed_before;
    stats.records.push(PassRecord { name, insts_before, insts_after });
    if verify {
        if let Err(errs) = verify_module(m) {
            panic!("module invalid after pass `{name}`: {errs:?}");
        }
        assert_eq!(insts_after, m.total_inst_count(), "pass `{name}` placed or removed a nop");
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
        let names = |cfg| PassManager::from_config(&cfg).run_on(&module()).1.pass_names();
        assert_eq!(names(HardenConfig::native()), Vec::<&str>::new());
        assert_eq!(names(HardenConfig::ilr_only()), vec!["ilr"]);
        assert_eq!(names(HardenConfig::haft()), vec!["ilr", "tx"]);
        assert_eq!(names(HardenConfig::tmr()), vec!["tmr"]);
        assert_eq!(names(HardenConfig::abft()), vec!["abft"]);
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
        let (out, stats) = PassManager::from_config(&HardenConfig::native()).run_on(&m);
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
        use haft_vm::{FaultPlan, Prepared, RunOutcome, RunSpec, Vm, VmConfig};
        let spec = RunSpec { fini: Some("fini"), ..Default::default() };
        for cfg in [HardenConfig::haft(), HardenConfig::tmr()] {
            let (hardened, _) = PassManager::from_config(&cfg).run_on(&dispatch_module());
            let clean = Vm::run(&hardened, VmConfig::default(), spec);
            assert_eq!((clean.outcome, &clean.output[..]), (RunOutcome::Completed, &[100][..]));
            let prepared = Prepared::new(&hardened);
            for occurrence in 0..clean.register_writes {
                for xor_mask in [1, 2, 3] {
                    let vm = Vm::start(&hardened, &prepared, VmConfig::default(), spec);
                    let r = vm.fork(FaultPlan { occurrence, xor_mask }, false).run_to_end();
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
        let mut m = module();
        // Truncate the terminator off every block: invalid IR.
        step(&mut m, &mut PassStats::default(), "breaker", true, |m, _| {
            for f in &mut m.funcs {
                for b in &mut Function::make_mut(f, |_| Default::default()).blocks {
                    b.insts.clear();
                }
            }
        });
    }
}
