//! The `Experiment` pipeline: HAFT's evaluation grid as a fluent API.
//!
//! The paper's evaluation is a grid of experiments — {native, ILR, TX,
//! HAFT} × optimization levels × transaction sizes × workloads × fault
//! campaigns. An [`Experiment`] captures one cell of that grid (a module,
//! a harden configuration, a VM configuration, and entry points) and the
//! terminal operations run it:
//!
//! * [`Experiment::run`] — harden and execute once.
//! * [`Experiment::run_profiled`] — same, with the per-function ×
//!   op-class cycle histogram.
//! * [`Experiment::run_with_fault`] — same, with a single-event upset
//!   injected mid-trace.
//! * [`Experiment::campaign`] — a full fault-injection campaign
//!   (reference run + N classified injections).
//! * [`Experiment::compare`] — run several harden configurations
//!   side-by-side against the shared native baseline and report
//!   overheads.
//! * [`Experiment::serve`] / [`Experiment::serve_in`] — put the hardened
//!   shard module under live request traffic.
//!
//! The run ops report through [`VariantReport`] / [`ExperimentReport`]:
//! outputs, overhead vs native, per-pass instruction deltas,
//! transaction/abort statistics, and (for campaigns) the Table 1 outcome
//! histogram; the serve ops through [`ServiceReport`]. With
//! [`Experiment::trace`] set, `run`, `run_profiled`, `run_with_fault`,
//! `serve` and `serve_in` also export a trace; `campaign` and `compare`
//! never do (see there).

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use haft_faults::{run_campaign_from, CampaignConfig, CampaignReport};
use haft_ir::module::Module;
use haft_passes::{Backend, HardenConfig, PassManager, PassStats};
use haft_serve::{ServeConfig, ServeMode, ServiceReport};
use haft_trace::TraceBuf;
use haft_vm::{CycleProfile, FaultPlan, Prepared, RunOutcome, RunResult, RunSpec, Vm, VmConfig};
use haft_workloads::Workload;

/// One harden-and-run pipeline over a borrowed module.
///
/// Construction never executes anything; the terminal ops do. The
/// borrowed module is never mutated — hardening always transforms a
/// copy, built lazily on the first terminal op and cached, so fault
/// sweeps that call [`Experiment::run_with_fault`] in a loop harden
/// once, not once per injection. Changing the harden configuration
/// invalidates the cache; VM/spec changes keep it.
///
/// Clones share the cache, and an experiment is `Sync`: a threshold or
/// seed sweep over clones, run from any number of threads, hardens once
/// and copies no module.
#[derive(Clone, Debug)]
pub struct Experiment<'a> {
    module: &'a Module,
    cfg: HardenConfig,
    vm: VmConfig,
    spec: RunSpec<'a>,
    trace_path: Option<PathBuf>,
    built: Arc<OnceLock<(Module, PassStats)>>,
}

// Report sections run an experiment's clones on several threads; this
// assertion pins that at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Experiment<'static>>();
};

impl<'a> Experiment<'a> {
    /// An experiment over `module`: native (no hardening), default VM,
    /// empty run spec.
    pub fn new(module: &'a Module) -> Self {
        Experiment {
            module,
            cfg: HardenConfig::native(),
            vm: VmConfig::default(),
            spec: RunSpec::default(),
            trace_path: None,
            built: Arc::default(),
        }
    }

    /// An experiment over a benchmark [`Workload`]: its module and its
    /// entry points.
    pub fn workload(w: &'a Workload) -> Self {
        Self::new(&w.module).spec(w.run_spec())
    }

    /// Sets the harden configuration (default: native).
    pub fn harden(mut self, cfg: HardenConfig) -> Self {
        self.cfg = cfg;
        self.built = Arc::default();
        self
    }

    /// Selects a hardening backend by its full-strength preset:
    /// [`Backend::IlrTx`] is [`HardenConfig::haft`] (duplicate, detect,
    /// roll back), [`Backend::Tmr`] is [`HardenConfig::tmr`] (triplicate
    /// and mask by majority vote), [`Backend::Abft`] is
    /// [`HardenConfig::abft`] (checksum lanes over recognized chains,
    /// full-HAFT fallback elsewhere). Use [`Experiment::harden`] for
    /// fine-grained pass configuration; like it, this invalidates the
    /// cached hardened module.
    pub fn backend(self, b: Backend) -> Self {
        self.harden(match b {
            Backend::IlrTx => HardenConfig::haft(),
            Backend::Tmr => HardenConfig::tmr(),
            Backend::Abft => HardenConfig::abft(),
        })
    }

    /// Sets the whole VM configuration (default: [`VmConfig::default`]).
    pub fn vm(mut self, vm: VmConfig) -> Self {
        self.vm = vm;
        self
    }

    /// Sets the program entry points.
    pub fn spec(mut self, spec: RunSpec<'a>) -> Self {
        self.spec = spec;
        self
    }

    /// Convenience: simulated thread count for the parallel phase.
    pub fn threads(mut self, n: usize) -> Self {
        self.vm.n_threads = n;
        self
    }

    /// Convenience: the transaction-size threshold (paper §5.3).
    pub fn tx_threshold(mut self, t: u64) -> Self {
        self.vm.tx_threshold = t;
        self
    }

    /// Convenience: the VM's run-time lock-elision wrapper. (Pass-side
    /// elision is configured via [`HardenConfig::haft_with_elision`].)
    pub fn lock_elision(mut self, on: bool) -> Self {
        self.vm.lock_elision = on;
        self
    }

    /// Convenience: the scheduler seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.vm.seed = seed;
        self
    }

    /// Exports a Chrome trace-event JSON file (Perfetto-loadable) to
    /// `path` from every terminal op that traces, each rewriting it:
    /// [`Experiment::run`], [`Experiment::run_profiled`],
    /// [`Experiment::run_with_fault`], [`Experiment::serve`] and
    /// [`Experiment::serve_in`]. Tracing never changes what the run
    /// measures — the returned report is bit-identical to an untraced run
    /// (pinned by the differential trace test).
    ///
    /// [`Experiment::compare`] never traces: its baseline and variants
    /// would each rewrite the one path, leaving only the last run's
    /// events. Nor does [`Experiment::campaign`]: its injection runs fork
    /// off a pilot run, which must be uninstrumented
    /// ([`haft_vm::Vm::fork`]).
    ///
    /// Timestamp units by terminal op: the `run*` ops export raw virtual
    /// cycles; `serve`/`serve_in` export virtual nanoseconds, with
    /// native-mode pool scheduling events on the host wall clock under
    /// their own track group (each carries the other clock as an
    /// argument).
    pub fn trace(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace_path = Some(path.into());
        self
    }

    /// Convenience: the execution engine. Both engines produce identical
    /// [`RunResult`]s (see [`haft_vm::Engine`]); selecting
    /// [`haft_vm::Engine::Interp`] trades wall-clock speed for the
    /// reference interpreter the differential harness pins against.
    pub fn engine(mut self, engine: haft_vm::Engine) -> Self {
        self.vm.engine = engine;
        self
    }

    /// Hardens a copy of the module (without running it) and returns it
    /// with the per-pass stats. Useful when only the transformed IR is
    /// needed — static instruction counts, printing, parsing.
    pub fn build(&self) -> (Module, PassStats) {
        self.built().clone()
    }

    /// The cached harden result, built on first use.
    fn built(&self) -> &(Module, PassStats) {
        self.built.get_or_init(|| PassManager::from_config(&self.cfg).run_on(self.module))
    }

    /// The VM configuration of fault-free terminal op `op`. A
    /// caller-supplied `vm.fault` would be silently dropped by it — catch
    /// the misuse in debug builds instead.
    fn fault_free(&self, op: &str) -> VmConfig {
        debug_assert!(
            self.vm.fault.is_none(),
            "Experiment::{op} ignores vm.fault; use run_with_fault (or campaign) to inject"
        );
        VmConfig { fault: None, ..self.vm.clone() }
    }

    /// This experiment's report of `run`, with the cached harden stats.
    fn report(&self, run: RunResult, campaign: Option<CampaignReport>) -> VariantReport {
        VariantReport {
            label: self.cfg.label(),
            backend: self.cfg.backend(),
            pass_stats: self.built().1.clone(),
            run,
            overhead_vs_native: None,
            campaign,
        }
    }

    /// The one run path of [`Experiment::run`], [`Experiment::run_profiled`]
    /// and [`Experiment::run_with_fault`]: the hardened module once under
    /// `vm`, traced when a trace path is set, profiled into `profile` when
    /// one is given.
    fn run_built(&self, vm: VmConfig, profile: Option<&mut CycleProfile>) -> VariantReport {
        let module = &self.built().0;
        let prepared = Prepared::new(module);
        let mut buf = TraceBuf::new();
        let mut run = Vm::start(module, &prepared, vm, self.spec);
        if self.trace_path.is_some() {
            run.trace_into(&mut buf);
        }
        if let Some(profile) = profile {
            run.profile_into(profile);
        }
        let run = run.run_to_end();
        if let Some(path) = &self.trace_path {
            write_trace(path, &buf);
        }
        self.report(run, None)
    }

    /// Hardens (cached) and executes once, fault-free.
    ///
    /// Debug-asserts that the VM configuration carries no fault plan —
    /// injection goes through [`Experiment::run_with_fault`].
    pub fn run(&self) -> VariantReport {
        self.run_built(self.fault_free("run"), None)
    }

    /// [`Experiment::run`] with cycle-attribution profiling: also returns
    /// the per-function × op-class virtual-cycle histogram, whose total
    /// equals the run's `cpu_cycles` exactly (see
    /// [`haft_vm::CycleProfile`]). The run itself is bit-identical to an
    /// unprofiled one.
    pub fn run_profiled(&self) -> (VariantReport, CycleProfile) {
        let mut profile = CycleProfile::default();
        let report = self.run_built(self.fault_free("run_profiled"), Some(&mut profile));
        (report, profile)
    }

    /// Hardens (cached) and executes once with a single-event upset
    /// injected at `plan`'s dynamic occurrence.
    pub fn run_with_fault(&self, plan: FaultPlan) -> VariantReport {
        self.run_built(VmConfig { fault: Some(plan), ..self.vm.clone() }, None)
    }

    /// Hardens once, runs the fault-free reference, then the full
    /// injection campaign. The experiment's VM configuration is used for
    /// every run (the `vm` field of `cfg` is ignored); `cfg` supplies the
    /// injection count, seed, and parallelism.
    ///
    /// The returned report's `run` is the reference run and `campaign`
    /// holds the Table 1 outcome histogram.
    ///
    /// Cost: the injection runs share their fault-free prefix — one pilot
    /// VM is advanced to each planned occurrence and forked there
    /// ([`haft_faults::run_campaign_from`]) — and each fork stops where
    /// it settles ([`haft_vm::Vm::run_to_settlement`]): where the
    /// transaction its flip landed in rolls back, or where the taint its
    /// flip seeded drains, under any backend. So `n` injections cost the
    /// reference run, plus the pilot up to the last occurrence, plus per
    /// injection its window from flip to rollback or drain, or its suffix
    /// where neither comes (plus at most a fixed window watched op by
    /// op), all against one decode of the module. The report is identical
    /// to running every plan from scratch.
    ///
    /// # Panics
    ///
    /// Panics if the reference run does not complete (the program under
    /// test must be correct before injecting faults into it).
    pub fn campaign(&self, cfg: CampaignConfig) -> VariantReport {
        let vm = self.fault_free("campaign");
        let module = &self.built().0;
        let prepared = Prepared::new(module);
        let golden = Vm::start(module, &prepared, vm.clone(), self.spec).run_to_end();
        let campaign_cfg = CampaignConfig { vm, ..cfg };
        let report = run_campaign_from(module, self.spec, &campaign_cfg, &prepared, &golden);
        self.report(golden, Some(report))
    }

    /// Hardens (cached) and puts the result under live traffic: drives
    /// the configured request stream through `cfg.shards` simulated
    /// shard cores of this experiment's module and reports throughput,
    /// tail latency, per-shard utilization, and — when `cfg.faults` is
    /// attached — availability and per-request outcomes.
    ///
    /// The experiment must be built over a shard-servable module
    /// ([`haft_apps::kvstore::kv_shard`]); a latency or load sweep that
    /// calls `serve` in a loop hardens once, via the same cache as every
    /// other terminal op. The experiment's VM configuration supplies the
    /// cost model; the harness pins it to one thread per shard.
    ///
    /// # Panics
    ///
    /// Panics if the module lacks the shard request-buffer globals or
    /// the configuration is degenerate (see [`haft_serve::run_service`]).
    pub fn serve(&self, cfg: &ServeConfig) -> ServiceReport {
        self.serve_in(ServeMode::Sim, cfg)
    }

    /// [`Experiment::serve`] with an explicit execution mode: the
    /// deterministic discrete-event simulation ([`ServeMode::Sim`], what
    /// `serve` runs and every pinned table is generated from), or real
    /// threads ([`ServeMode::Native`]) — the N shard cores on a
    /// work-stealing pool of `workers` OS threads
    /// (`haft_runtime::run_native`), which additionally fills
    /// [`haft_serve::WallReport`] with host wall-clock throughput.
    ///
    /// Both modes harden through the same per-experiment cache, take the
    /// identical configuration, share one setup, traffic source and
    /// arrival seeding (`haft-serve`'s), and return the identical report
    /// schema; only when a shard's next batch starts is each mode's own.
    /// `Sim` is bit-reproducible; one-worker `Native` equals it on every
    /// open loop and one-shard closed loop without sagas, and tracks it
    /// within a band elsewhere (`haft-runtime`'s twin-validation test).
    pub fn serve_in(&self, mode: ServeMode, cfg: &ServeConfig) -> ServiceReport {
        let vm = self.fault_free("serve_in");
        let module = &self.built().0;
        let label = self.cfg.label();
        let mut buf = self.trace_path.as_ref().map(|_| TraceBuf::new());
        let report = match mode {
            ServeMode::Sim => {
                haft_serve::run_service(module, self.spec, vm, label, cfg, buf.as_mut())
            }
            ServeMode::Native { workers } => {
                haft_runtime::run_native(module, self.spec, vm, label, cfg, workers, buf.as_mut())
            }
        };
        if let (Some(path), Some(buf)) = (&self.trace_path, &buf) {
            write_trace(path, buf);
        }
        report
    }

    /// Runs the native baseline plus every configuration in `configs`
    /// (in the given order) under the same VM configuration and entry
    /// points, and reports each variant's overhead against the shared
    /// baseline.
    ///
    /// The experiment's own harden configuration is ignored; the
    /// baseline is always [`HardenConfig::native`].
    pub fn compare(&self, configs: &[HardenConfig]) -> ExperimentReport {
        let vm = self.fault_free("compare");
        // Variant runs never trace: each would rewrite the one path.
        let mut base = self.clone();
        base.trace_path = None;
        let baseline =
            base.clone().harden(HardenConfig::native()).vm(vm.clone()).run().with_overhead(1.0);
        let native_cycles = baseline.run.wall_cycles.max(1);
        let mut variants = vec![baseline];
        for cfg in configs {
            let v = base.clone().harden(cfg.clone()).vm(vm.clone()).run();
            let overhead = v.run.wall_cycles as f64 / native_cycles as f64;
            variants.push(v.with_overhead(overhead));
        }
        ExperimentReport { variants }
    }
}

/// Writes the collected events as Chrome trace-event JSON.
///
/// # Panics
///
/// Panics when the file cannot be written — a trace the caller asked for
/// and silently lost would be worse.
fn write_trace(path: &std::path::Path, buf: &TraceBuf) {
    haft_trace::write_chrome(path, &buf.events)
        .unwrap_or_else(|e| panic!("failed to write trace to {}: {e}", path.display()));
}

/// Everything measured for one harden configuration.
#[derive(Clone, Debug)]
pub struct VariantReport {
    /// [`HardenConfig::label`] of the configuration that produced this
    /// variant.
    pub label: String,
    /// The hardening strategy the configuration selected — carried as
    /// the enum so callers can dispatch on it directly instead of
    /// string-matching labels like `TMR-tl`. (A `native` variant carries
    /// the default [`Backend::IlrTx`] with both of its passes disabled,
    /// exactly as its `HardenConfig` does.)
    pub backend: Backend,
    /// Per-pass instruction deltas from the [`PassManager`].
    pub pass_stats: PassStats,
    /// The measured run (for campaigns: the fault-free reference run).
    pub run: RunResult,
    /// Wall-cycle ratio against the native baseline; present only on
    /// variants produced by [`Experiment::compare`].
    pub overhead_vs_native: Option<f64>,
    /// Outcome histogram; present only on variants produced by
    /// [`Experiment::campaign`].
    pub campaign: Option<CampaignReport>,
}

impl VariantReport {
    fn with_overhead(mut self, overhead: f64) -> Self {
        self.overhead_vs_native = Some(overhead);
        self
    }

    /// True if the run completed.
    pub fn completed(&self) -> bool {
        self.run.outcome == RunOutcome::Completed
    }

    /// The run, asserted completed — the common "this experiment must
    /// work" pattern in tests and report sections.
    ///
    /// # Panics
    ///
    /// Panics with `context` if the run did not complete.
    pub fn expect_completed(self, context: &str) -> RunResult {
        assert_eq!(
            self.run.outcome,
            RunOutcome::Completed,
            "{context}: variant `{}` did not complete",
            self.label
        );
        self.run
    }

    /// One-line summary: label, overhead (if known), instruction growth,
    /// HTM commit/abort/coverage stats, campaign histogram (if any).
    pub fn summary(&self) -> String {
        let mut s = format!("{:<10}", self.label);
        if let Some(oh) = self.overhead_vs_native {
            s.push_str(&format!(" {oh:5.2}x"));
        }
        s.push_str(&format!(
            "  +{} insts  {} commits  {:.1}% aborts  {:.1}% cov",
            self.pass_stats.total_added(),
            self.run.htm.commits,
            self.run.htm.abort_rate_pct(),
            self.run.htm.coverage_pct()
        ));
        if let Some(c) = &self.campaign {
            s.push_str("  ");
            s.push_str(&c.summary());
        }
        s
    }
}

/// Side-by-side variant comparison from [`Experiment::compare`].
///
/// `variants[0]` is always the native baseline; the rest follow the
/// caller's configuration order.
#[derive(Clone, Debug)]
pub struct ExperimentReport {
    pub variants: Vec<VariantReport>,
}

impl ExperimentReport {
    /// The native baseline.
    pub fn baseline(&self) -> &VariantReport {
        &self.variants[0]
    }

    /// Looks a variant up by its [`HardenConfig::label`].
    pub fn variant(&self, label: &str) -> Option<&VariantReport> {
        self.variants.iter().find(|v| v.label == label)
    }

    /// Overhead vs native of the labelled variant.
    pub fn overhead(&self, label: &str) -> Option<f64> {
        self.variant(label).and_then(|v| v.overhead_vs_native)
    }

    /// True when every variant completed and produced the baseline's
    /// output — the semantic-preservation check of every paper table.
    pub fn outputs_agree(&self) -> bool {
        let golden = &self.baseline().run.output;
        self.variants.iter().all(|v| v.completed() && &v.run.output == golden)
    }

    /// Multi-line table, one [`VariantReport::summary`] per variant.
    pub fn summary(&self) -> String {
        self.variants.iter().map(|v| v.summary()).collect::<Vec<_>>().join("\n")
    }
}
