//! One shard: the image a hardened VM serves request batches from, and
//! the service core that prices and accounts them.
//!
//! [`BatchRunner`] is the one batch path: a fresh `Vm` per batch, over a
//! clone of the image's arena with the batch's requests written in.
//! [`ShardCore`] is the one copy of "form the batch → draw its fault plan
//! → run the VM → price on [`haft_vm::PhaseCycles`] → classify per
//! request → bucket telemetry → fault bookkeeping → shard stats → trace
//! splice". The discrete-event simulation and the `haft-runtime`
//! work-stealing pool are *drivers* of it: they decide only when
//! [`ShardCore::form_batch`] is called, and both start from [`setup`].
//! Its step, `serve`, is `run_batch` followed by `account`; a batch run
//! is a pure function of its requests and fault plan, so the simulation
//! may take the run from a helper thread that computed it early, and
//! account it exactly as if it had just run.

use std::collections::VecDeque;
use std::time::Instant;

use haft_apps::{golden_reply, Op, YcsbGen, KV_KEYSPACE, SHARD_CAPACITY};
use haft_faults::{classify_requests, RequestCounts, RequestOutcome};
use haft_ir::module::Module;
use haft_ir::rng::Prng;
use haft_trace::{TraceBuf, TraceEvent};
use haft_vm::{FaultPlan, Memory, Prepared, RunOutcome, RunResult, RunSpec, Vm, VmConfig};

use crate::report::{FaultReport, FaultTelemetry, ServiceReport, ShardStats};
use crate::{
    ArrivalMode, FaultLoad, LatencyStats, ServeConfig, CLOCK_GHZ, DISPATCH_NS, RESTART_NS,
    TRACE_PID_SERVE, TRACE_PID_VM_BASE,
};

/// The shard image: runs request batches against an already-hardened
/// shard module.
///
/// One image per serve call is everything a batch does not change: the
/// borrowed module, its decoded code ([`Prepared`]: functions, global
/// *layout* and cost model, all fixed for the image's lifetime) and the
/// initial arena, with the request buffer empty. Batches only read it,
/// so the simulation's DES, its fault calibration and every shard of the
/// real-thread pool share one. A batch clones the arena,
/// writes its requests the way [`patch_requests`] encodes them, and runs
/// a fresh `Vm` (HTM, threads) over it: exactly the run of a
/// `patch_requests`-patched module, without building its memory.
///
/// [`patch_requests`]: haft_apps::patch_requests
pub struct BatchRunner<'a> {
    module: &'a Module,
    spec: RunSpec<'a>,
    vm: VmConfig,
    prepared: Prepared,
    arena: Memory,
    /// Base addresses of the `reqs` and `n_reqs` globals.
    reqs: u64,
    n_reqs: u64,
}

impl<'a> BatchRunner<'a> {
    /// Decodes the hardened module (hardening happened once, upstream, in
    /// the `Experiment` cache), lays out its arena and pins the VM to a
    /// single simulated thread — a shard is one core.
    pub fn new(hardened: &'a Module, spec: RunSpec<'a>, mut vm: VmConfig) -> Self {
        let [reqs, n_reqs, _replies] = ["reqs", "n_reqs", "replies"].map(|g| {
            let why = "not a shard-servable module; build the experiment over haft_apps::kv_shard";
            let id = hardened.global_by_name(g);
            id.unwrap_or_else(|| panic!("{}: {why} (missing `{g}` global)", hardened.name)).0
        });
        vm.n_threads = 1;
        vm.fault = None;
        // Shard modules are tens of KiB of globals; the default 16 MiB
        // arena would spend more time zeroing memory than interpreting.
        // Size the arena to the module plus heap slack instead.
        let needed: u64 = hardened.globals.iter().map(|g| g.size + 64).sum::<u64>() + (1 << 16);
        vm.mem_bytes = vm.mem_bytes.min(needed.next_power_of_two().max(1 << 17));
        let prepared = Prepared::new(hardened);
        let mut arena = Memory::new(hardened, vm.mem_bytes);
        let len = hardened.globals[reqs as usize].size;
        let base = |g: u32| arena.global_bases[g as usize];
        let (reqs, n_reqs) = (base(reqs), base(n_reqs));
        // An empty request buffer, whatever the module's initialisers say.
        for at in (reqs..reqs + len).step_by(8).chain([n_reqs]) {
            arena.store(at, 8, 0).expect("the request buffer is mapped");
        }
        BatchRunner { module: hardened, spec, vm, prepared, arena, reqs, n_reqs }
    }

    /// The initial arena of a batch serving `ops`: the image's, with the
    /// request words and their count written where `patch_requests` puts
    /// them.
    fn batch_arena(&self, ops: &[Op]) -> Memory {
        assert!(ops.len() <= SHARD_CAPACITY, "batch of {} exceeds SHARD_CAPACITY", ops.len());
        let mut mem = self.arena.clone();
        let words = ops.iter().map(|op| op.encode()).chain([ops.len() as u64]);
        let at = (self.reqs..).step_by(8).take(ops.len()).chain([self.n_reqs]);
        for (at, word) in at.zip(words) {
            mem.store(at, 8, word).expect("the request buffer is mapped");
        }
        mem
    }

    /// Serves one batch, optionally with a single-event upset injected
    /// into this batch's execution. With `trace` attached, VM/HTM events
    /// are appended to it timestamped in raw virtual cycles (the caller
    /// rescales them onto its own timeline); the returned result is
    /// bit-identical either way.
    pub fn run_batch(
        &self,
        ops: &[Op],
        fault: Option<FaultPlan>,
        trace: Option<&mut TraceBuf>,
    ) -> RunResult {
        let vm = VmConfig { fault, ..self.vm.clone() };
        let mut vm =
            Vm::start_in(self.module, &self.prepared, vm, self.spec, self.batch_arena(ops));
        if let Some(buf) = trace {
            vm.trace_into(buf);
        }
        vm.run_to_end()
    }
}

/// What both drivers start a serve call from: checks `cfg`
/// ([`ServeConfig::validate`]), builds the one shard image of `module` and
/// one [`ShardCore`] per shard, collecting trace events when `tracing`.
/// With a fault load, every core's stream is priced by one off-traffic
/// calibration batch. `epoch` is the driver's host wall-clock zero, if it
/// has one; traced batch spans then carry their host time.
pub fn setup<'a>(
    module: &'a Module,
    spec: RunSpec<'a>,
    vm: VmConfig,
    cfg: &ServeConfig,
    tracing: bool,
    epoch: Option<Instant>,
) -> (BatchRunner<'a>, Vec<ShardCore>) {
    cfg.validate(spec);
    let runner = BatchRunner::new(module, spec, vm);
    let writes_per_req = cfg.faults.map_or(1, |_| calibrate_writes_per_req(&runner, cfg));
    let cores = (0..cfg.shards)
        .map(|s| {
            let mut core = ShardCore::new(cfg, s, writes_per_req);
            if tracing {
                core.trace = Some(TraceBuf::new());
                core.epoch = epoch;
            }
            core
        })
        .collect();
    (runner, cores)
}

/// Estimates the register-writing instructions per request (the fault
/// occurrence population) from one off-traffic calibration batch, so
/// injection occurrences can be drawn uniformly over a batch's dynamic
/// trace.
fn calibrate_writes_per_req(runner: &BatchRunner<'_>, cfg: &ServeConfig) -> u64 {
    let batch_cap = cfg.batch_cap();
    let mut cal_gen = YcsbGen::new(cfg.seed ^ 0xCA11_B007, KV_KEYSPACE);
    let cal = runner.run_batch(&cal_gen.generate(cfg.mix, batch_cap), None, None);
    assert_eq!(cal.outcome, RunOutcome::Completed, "calibration batch must complete");
    (cal.register_writes / batch_cap as u64).max(1)
}

/// One stream of per-batch injection plans.
///
/// Shard `i`'s core draws stream `i`, in that shard's own batch order, so
/// both drivers place every hit on the same batch. The simulation's
/// lookahead predicts its next batches' plans by drawing from clones, so
/// a stream is only ever advanced in the real batch order.
#[derive(Clone)]
pub(crate) struct FaultDraw {
    rng: Prng,
    rate_per_request: f64,
    writes_per_req: u64,
}

impl FaultDraw {
    /// Stream `stream` of `load`, seeded `load.seed ^ stream`.
    pub(crate) fn new(load: FaultLoad, stream: u64, writes_per_req: u64) -> Self {
        FaultDraw {
            rng: Prng::new(load.seed ^ stream),
            rate_per_request: load.rate_per_request,
            writes_per_req,
        }
    }

    /// Draws the injection plan for a batch of `batch_len` requests.
    pub(crate) fn draw(&mut self, batch_len: usize) -> Option<FaultPlan> {
        let p = (self.rate_per_request * batch_len as f64).min(1.0);
        // Draw all three variates unconditionally so the plan stream is
        // independent of earlier hit/miss outcomes.
        let hit = self.rng.chance(p);
        let occurrence = self.rng.below(self.writes_per_req * batch_len as u64);
        let xor_mask = self.rng.next_u64();
        hit.then_some(FaultPlan { occurrence, xor_mask })
    }
}

/// What [`ShardCore::serve`] (or [`ShardCore::account`]) tells its driver
/// about one batch.
pub struct Served {
    /// When every request in the batch completes (a crashed batch
    /// completes after the restart stall), virtual ns.
    pub completion_ns: u64,
    /// Per-request outcome, in batch order.
    pub outcomes: Vec<RequestOutcome>,
}

/// Pricing and accounting for one shard, stepped by whichever driver
/// owns it. Everything here is on the virtual clock.
pub struct ShardCore {
    idx: usize,
    batch_cap: usize,
    /// This shard's fault stream, when a fault load is attached.
    pub(crate) fault_draw: Option<FaultDraw>,
    /// Completion time of this shard's latest batch.
    vclock_ns: u64,
    stats: ShardStats,
    samples: Vec<u64>,
    counts: RequestCounts,
    /// Partial fault report: [`ServiceReport::assemble`] fills the merged
    /// counts and the clean-batch mean.
    ///
    /// [`ServiceReport::assemble`]: crate::ServiceReport::assemble
    faults: FaultReport,
    /// Per-interval outcome telemetry; allocated iff fault load attached.
    telemetry: Option<FaultTelemetry>,
    clean_service_sum: f64,
    clean_batches: u64,
    suppressed_joins: u64,
    /// Event buffer when tracing: virtual-ns timestamps.
    trace: Option<TraceBuf>,
    /// Host wall-clock zero; when set, batch spans carry the host time
    /// they were recorded at as an argument (the dual-clock rule).
    epoch: Option<Instant>,
}

impl ShardCore {
    /// The core for shard `idx` of a `cfg` fleet, not tracing. With a
    /// fault load, it draws fault stream `idx`; `writes_per_req` is the
    /// serve call's one estimate of the register writes per request
    /// ([`setup`] makes it).
    pub fn new(cfg: &ServeConfig, idx: usize, writes_per_req: u64) -> Self {
        ShardCore {
            idx,
            batch_cap: cfg.batch_cap(),
            fault_draw: cfg.faults.map(|f| FaultDraw::new(f, idx as u64, writes_per_req)),
            vclock_ns: 0,
            stats: ShardStats::default(),
            samples: Vec::new(),
            counts: RequestCounts::default(),
            faults: FaultReport::default(),
            telemetry: cfg.faults.map(|_| FaultTelemetry::default()),
            clean_service_sum: 0.0,
            clean_batches: 0,
            suppressed_joins: 0,
            trace: None,
            epoch: None,
        }
    }

    /// This shard's virtual clock: completion time of its latest batch.
    pub fn vclock_ns(&self) -> u64 {
        self.vclock_ns
    }

    /// Takes the next batch off `queue`, the batch-start rule of both
    /// drivers, on the virtual clock: the batch opens at `t0 = max(vclock,
    /// front arrival)` — the front request always gets in — and admits up
    /// to the batch limit of the queued requests that have arrived by
    /// `t0`, in queue order. Requests still in the virtual future stay
    /// queued. `arrival` reads a queued item's arrival time.
    pub fn form_batch<T>(&self, queue: &mut VecDeque<T>, arrival: impl Fn(&T) -> u64) -> Vec<T> {
        let Some(front) = queue.front() else { return Vec::new() };
        let t0 = self.vclock_ns.max(arrival(front));
        let mut batch = Vec::new();
        while batch.len() < self.batch_cap && queue.front().is_some_and(|r| arrival(r) <= t0) {
            batch.extend(queue.pop_front());
        }
        batch
    }

    /// The fault plan of this shard's next batch, of `batch_len` requests.
    pub(crate) fn draw(&mut self, batch_len: usize) -> Option<FaultPlan> {
        self.fault_draw.as_mut().and_then(|d| d.draw(batch_len))
    }

    /// Serves `ops` as one batch starting at `start_ns` and does all the
    /// per-batch accounting: draws the batch's fault plan, runs it
    /// ([`BatchRunner::run_batch`]), then [`Self::account`]. `arrivals`
    /// yields, per op, the time to sample its latency from — `None` for an
    /// op whose latency is sampled elsewhere (a saga sub-operation; see
    /// [`Self::record_join`]). Failed requests are never sampled.
    pub fn serve(
        &mut self,
        runner: &BatchRunner<'_>,
        ops: &[Op],
        arrivals: impl Iterator<Item = Option<u64>>,
        start_ns: u64,
    ) -> Served {
        let plan = self.draw(ops.len());
        let mut vm_events = self.trace.as_ref().map(|_| TraceBuf::new());
        let run = runner.run_batch(ops, plan, vm_events.as_mut());
        self.account(run, vm_events, ops, arrivals, start_ns, plan.is_some())
    }

    /// Everything [`Self::serve`] does after the VM run: prices `run` (the
    /// batch of `ops` started at `start_ns`, `injected` or not), classifies
    /// its requests, samples `arrivals`, does the fault bookkeeping,
    /// advances the stats and the clock, and — when tracing — splices
    /// `vm_events`, the run's own trace, onto the virtual timeline.
    pub fn account(
        &mut self,
        run: RunResult,
        vm_events: Option<TraceBuf>,
        ops: &[Op],
        arrivals: impl Iterator<Item = Option<u64>>,
        start_ns: u64,
        injected: bool,
    ) -> Served {
        assert!(!ops.is_empty(), "ran a batch with no requests");
        let service_ns = (run.phases.service_cycles() as f64 / CLOCK_GHZ) as u64 + DISPATCH_NS;
        let golden: Vec<u64> = ops.iter().map(|&o| golden_reply(o)).collect();
        let outcomes = classify_requests(&run, &golden);
        debug_assert!(
            injected || outcomes.iter().all(|&o| o == RequestOutcome::Served),
            "undisturbed batch produced non-served outcomes: {outcomes:?}"
        );

        let crashed = run.outcome != RunOutcome::Completed;
        let completion_ns = start_ns + service_ns + if crashed { RESTART_NS } else { 0 };
        for (arrival, &o) in arrivals.zip(&outcomes) {
            self.counts.record(o);
            if let Some(t) = self.telemetry.as_mut() {
                t.record(completion_ns, o);
            }
            if let Some(at) = arrival.filter(|_| o != RequestOutcome::Failed) {
                self.samples.push(completion_ns - at);
            }
        }

        if let (Some(tr), Some(mut buf)) = (self.trace.as_mut(), vm_events) {
            let lane = self.idx as u32;
            let mut span = TraceEvent::span("serve", "batch.service", start_ns, service_ns)
                .lane(TRACE_PID_SERVE, lane)
                .arg("requests", ops.len())
                .arg("shard", self.idx);
            if let Some(epoch) = self.epoch {
                span = span.arg("wall_ns", epoch.elapsed().as_nanos() as u64);
            }
            tr.push(span);
            if crashed {
                let at = start_ns + service_ns;
                tr.push(
                    TraceEvent::span("serve", "shard.restart", at, RESTART_NS)
                        .lane(TRACE_PID_SERVE, lane),
                );
            }
            // Splice the batch's VM/HTM events (stamped in raw cycles)
            // onto the virtual-nanosecond timeline, one lane per shard.
            for mut ev in buf.take() {
                ev.rescale(1.0 / CLOCK_GHZ, start_ns);
                ev.pid = TRACE_PID_VM_BASE + lane;
                tr.push(ev);
            }
        }

        if injected {
            self.faults.injected_batches += 1;
            if crashed {
                self.faults.crashed_batches += 1;
            } else if run.recoveries > 0 || run.corrected_by_vote > 0 {
                self.faults.corrected_batches += 1;
                self.faults.max_corrected_service_ns =
                    self.faults.max_corrected_service_ns.max(service_ns);
            }
        } else if !crashed {
            self.clean_service_sum += service_ns as f64;
            self.clean_batches += 1;
        }

        self.stats.batches += 1;
        self.stats.busy_ns += completion_ns - start_ns;
        if crashed {
            self.stats.crashes += 1;
        } else {
            self.stats.requests += ops.len() as u64;
        }
        self.vclock_ns = completion_ns;
        Served { completion_ns, outcomes }
    }

    /// Accounts one joined multi-key request that completed on this
    /// shard at `join_ns`: one latency sample measured from `arrival_ns`,
    /// or — when a sub-operation died with a crashed batch (`failed`) —
    /// a counted suppression, because a latency measured against a lost
    /// reply would be fiction.
    pub fn record_join(&mut self, join_ns: u64, arrival_ns: u64, failed: bool) {
        if failed {
            self.suppressed_joins += 1;
        } else {
            self.samples.push(join_ns - arrival_ns);
        }
        if let Some(tr) = self.trace.as_mut() {
            let name = if failed { "join.suppressed" } else { "join" };
            tr.push(
                TraceEvent::instant("saga", name, join_ns)
                    .lane(TRACE_PID_SERVE, self.idx as u32)
                    .arg("latency_vns", join_ns - arrival_ns),
            );
        }
    }
}

impl ServiceReport {
    /// Merges the per-shard cores of one finished run into the report
    /// (`wall` is left for the driver to fill), moving the cores' trace
    /// events into `trace`.
    pub fn assemble(
        label: String,
        cfg: &ServeConfig,
        cores: Vec<ShardCore>,
        mut trace: Option<&mut TraceBuf>,
    ) -> Self {
        let mut counts = RequestCounts::default();
        let mut samples = Vec::with_capacity(cfg.requests);
        let mut shards = Vec::with_capacity(cores.len());
        let mut faults = FaultReport::default();
        let mut telemetry: Option<FaultTelemetry> = None;
        let mut clean_sum = 0.0;
        let mut clean_batches = 0u64;
        let mut duration_ns = 0u64;
        let mut suppressed_joins = 0u64;
        for mut c in cores {
            counts.merge(&c.counts);
            samples.append(&mut c.samples);
            duration_ns = duration_ns.max(c.vclock_ns);
            shards.push(c.stats);
            faults.injected_batches += c.faults.injected_batches;
            faults.crashed_batches += c.faults.crashed_batches;
            faults.corrected_batches += c.faults.corrected_batches;
            faults.max_corrected_service_ns =
                faults.max_corrected_service_ns.max(c.faults.max_corrected_service_ns);
            clean_sum += c.clean_service_sum;
            clean_batches += c.clean_batches;
            suppressed_joins += c.suppressed_joins;
            if let Some(t) = &c.telemetry {
                telemetry.get_or_insert_with(Default::default).merge(t);
            }
            if let (Some(out), Some(mut t)) = (trace.as_deref_mut(), c.trace) {
                out.events.append(&mut t.events);
            }
        }
        assert_eq!(
            counts.total(),
            cfg.requests as u64,
            "per-request outcome counts must sum to the offered request total"
        );
        let served = counts.total() - counts.failed;
        faults.counts = counts;
        faults.mean_clean_service_ns =
            if clean_batches == 0 { 0.0 } else { clean_sum / clean_batches as f64 };
        ServiceReport {
            label,
            requests_offered: counts.total(),
            requests_served: served,
            duration_ns,
            offered_rps: match cfg.arrival {
                ArrivalMode::OpenLoop { rate_rps } => Some(rate_rps),
                ArrivalMode::ClosedLoop { .. } => None,
            },
            achieved_rps: if duration_ns == 0 {
                0.0
            } else {
                served as f64 * 1e9 / duration_ns as f64
            },
            latency: LatencyStats::from_samples(samples),
            batches: shards.iter().map(|s| s.batches).sum(),
            shards,
            faults: cfg.faults.map(|_| faults),
            fault_telemetry: telemetry,
            suppressed_joins,
            wall: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haft_apps::{kv_shard, KvSync, WorkloadMix};

    #[test]
    fn runner_serves_consecutive_batches() {
        let w = kv_shard(KvSync::Atomics);
        let runner = BatchRunner::new(&w.module, w.run_spec(), VmConfig::default());
        let mut gen = YcsbGen::new(1, 1000);
        for n in [1usize, 7, 32] {
            let ops = gen.generate(WorkloadMix::B, n);
            let r = runner.run_batch(&ops, None, None);
            assert_eq!(r.outcome, RunOutcome::Completed);
            assert_eq!(
                r.output,
                ops.iter().map(|&o| golden_reply(o)).collect::<Vec<_>>(),
                "batch of {n}"
            );
            assert!(r.phases.service_cycles() > 0);
        }
    }

    #[test]
    #[should_panic(expected = "not a shard-servable module")]
    fn non_shard_module_is_rejected() {
        let m = Module::new("empty");
        BatchRunner::new(&m, RunSpec::default(), VmConfig::default());
    }

    #[test]
    fn served_batches_advance_the_clock_and_sample_latency() {
        let w = kv_shard(KvSync::Atomics);
        let cfg = ServeConfig::default();
        let runner = BatchRunner::new(&w.module, w.run_spec(), VmConfig::default());
        let mut core = ShardCore::new(&cfg, 0, 1);
        let ops = YcsbGen::new(9, 100).generate(WorkloadMix::B, 3);
        // The middle op's latency is sampled elsewhere (a saga sub-op).
        let arrivals = [Some(100), None, Some(40)];
        let served = core.serve(&runner, &ops, arrivals.into_iter(), 100);
        assert_eq!(served.outcomes, vec![RequestOutcome::Served; 3]);
        assert!(served.completion_ns > 100, "clock advanced past the start");
        assert_eq!(core.vclock_ns(), served.completion_ns);
        assert_eq!(core.counts.served, 3);
        // All requests in one batch complete together.
        assert_eq!(core.samples, vec![served.completion_ns - 100, served.completion_ns - 40]);
        assert_eq!(
            core.stats,
            ShardStats { requests: 3, batches: 1, busy_ns: served.completion_ns - 100, crashes: 0 }
        );
        assert_eq!(core.clean_batches, 1);

        core.record_join(served.completion_ns, 10, true);
        core.record_join(served.completion_ns, 10, false);
        assert_eq!(core.suppressed_joins, 1, "a failed join is counted, not sampled");
        assert_eq!(core.samples.len(), 3);
    }

    #[test]
    fn batch_formation_respects_virtual_arrivals() {
        let core = ShardCore::new(&ServeConfig { batch: 4, ..Default::default() }, 0, 1);
        // The batch opens at the front's arrival, 50 (the clock is at 0),
        // and takes what has arrived by then, in queue order.
        let mut queue: VecDeque<u64> = [50, 40, 60, 45].into();
        assert_eq!(core.form_batch(&mut queue, |&t| t), [50, 40]);
        assert_eq!(queue, [60, 45]);
    }

    #[test]
    fn fault_streams_differ_per_shard_and_draw_independently_of_hits() {
        let load = FaultLoad { rate_per_request: 0.5, seed: 7 };
        let plans = |stream| {
            let mut d = FaultDraw::new(load, stream, 100);
            (0..64).map(|_| d.draw(1)).collect::<Vec<_>>()
        };
        assert_eq!(plans(0), plans(0));
        assert_ne!(plans(0), plans(1));
        let hits = plans(0).iter().flatten().count();
        assert!((16..=48).contains(&hits), "rate 0.5 over 64 draws hit {hits} times");
        assert!(plans(0).iter().flatten().all(|p| p.occurrence < 100));
    }

    // --- a batch is a fresh run -------------------------------------------------

    /// The batch path before shard images, kept only as this module's
    /// oracle: `Vm::start` over a `patch_requests`-patched clone of the
    /// module, memory built from its initialisers.
    fn patched_run(
        runner: &BatchRunner<'_>,
        ops: &[Op],
        fault: Option<FaultPlan>,
        trace: Option<&mut TraceBuf>,
    ) -> RunResult {
        let mut patched = runner.module.clone();
        haft_apps::patch_requests(&mut patched, ops);
        let vm = VmConfig { fault, ..runner.vm.clone() };
        let mut vm = Vm::start(&patched, &runner.prepared, vm, runner.spec);
        if let Some(buf) = trace {
            vm.trace_into(buf);
        }
        vm.run_to_end()
    }

    /// `run_batch` equals the oracle, untraced and traced (result and
    /// every trace event); returns the result.
    fn fresh_run(runner: &BatchRunner<'_>, ops: &[Op], fault: Option<FaultPlan>) -> RunResult {
        let at = format!("{} × {} ops, {fault:?}", runner.module.name, ops.len());
        let run = runner.run_batch(ops, fault, None);
        assert_eq!(run, patched_run(runner, ops, fault, None), "{at}");
        let (mut image, mut patched) = (TraceBuf::new(), TraceBuf::new());
        assert_eq!(runner.run_batch(ops, fault, Some(&mut image)), run, "{at}, traced");
        patched_run(runner, ops, fault, Some(&mut patched));
        assert_eq!(image, patched, "{at}: trace");
        run
    }

    /// `m` hardened native, HAFT and TMR.
    fn shard_modules(m: &Module) -> Vec<Module> {
        use haft_passes::{HardenConfig, PassManager};
        [HardenConfig::native(), HardenConfig::haft(), HardenConfig::tmr()]
            .iter()
            .map(|hc| PassManager::from_config(hc).run_on(m).0)
            .collect()
    }

    /// On `[Update(k), Read(k), …]` under native code, a plan that crashes
    /// the batch and one that corrupts the table: the update writes a
    /// flipped value, so both replies are off by the same XOR — the read
    /// returned what the update left in the table.
    fn crash_and_corruption(runner: &BatchRunner<'_>, ops: &[Op]) -> [FaultPlan; 2] {
        let golden: Vec<u64> = ops.iter().map(|&o| golden_reply(o)).collect();
        let writes = runner.run_batch(ops, None, None).register_writes;
        let plans = (0..writes).map(|occurrence| FaultPlan { occurrence, xor_mask: 1 << 33 });
        let (mut crash, mut corrupt) = (None, None);
        for plan in plans {
            let r = runner.run_batch(ops, Some(plan), None);
            if r.outcome != RunOutcome::Completed {
                crash.get_or_insert(plan);
            } else if r.output[0] ^ golden[0] != 0
                && r.output[0] ^ golden[0] == r.output[1] ^ golden[1]
            {
                corrupt.get_or_insert(plan);
            }
            if let (Some(crash), Some(corrupt)) = (crash, corrupt) {
                return [crash, corrupt];
            }
        }
        panic!("no crashing or no table-corrupting plan: {crash:?} {corrupt:?}");
    }

    /// Every batch of every backend is the run of the patched module:
    /// batch sizes 1, 3, 8 and `SHARD_CAPACITY` × no fault, a crash, a
    /// table corruption and drawn plans × untraced and traced — and the
    /// batch's initial arena is byte for byte `Memory::new` of the patched
    /// module.
    #[test]
    fn batches_equal_runs_of_the_patched_module() {
        let (w, key) = (kv_shard(KvSync::Atomics), 17);
        let (spec, modules) = (w.run_spec(), shard_modules(&w.module));
        let mut ops = vec![Op::Update(key), Op::Read(key)];
        ops.extend(YcsbGen::new(0xBA7C, KV_KEYSPACE).generate(WorkloadMix::B, SHARD_CAPACITY));
        let special = crash_and_corruption(
            &BatchRunner::new(&modules[0], spec, VmConfig::default()),
            &ops[..2],
        );
        for m in &modules {
            let runner = BatchRunner::new(m, spec, VmConfig::default());
            let load = FaultLoad { rate_per_request: 1.0, seed: 0xD4A };
            let mut draw =
                FaultDraw::new(load, 0, calibrate_writes_per_req(&runner, &ServeConfig::default()));
            for n in [0, 1, 3, 8, SHARD_CAPACITY] {
                let mut patched = m.clone();
                haft_apps::patch_requests(&mut patched, &ops[..n]);
                let (image, want) =
                    (runner.batch_arena(&ops[..n]), Memory::new(&patched, runner.vm.mem_bytes));
                assert_eq!(image.size(), want.size());
                assert!(
                    (0..image.size()).all(|a| image.byte(a) == want.byte(a)),
                    "{} × {n}",
                    m.name
                );
                if n == 0 {
                    continue;
                }
                let drawn = [draw.draw(n), draw.draw(n)];
                for plan in [None, Some(special[0]), Some(special[1])].into_iter().chain(drawn) {
                    fresh_run(&runner, &ops[..n], plan);
                }
            }
        }
    }

    /// Consecutive batches on one image: a batch that crashes or
    /// corrupts the table leaves nothing behind for the next one, which
    /// replies exactly as on a fresh shard.
    #[test]
    fn a_faulty_batch_leaks_nothing_into_the_next() {
        let (w, key) = (kv_shard(KvSync::Atomics), 17);
        let (spec, modules) = (w.run_spec(), shard_modules(&w.module));
        let head = [Op::Update(key), Op::Read(key)];
        let next = [Op::Read(key), Op::Update(key + 1), Op::Read(key)];
        let [crash, corrupt] =
            crash_and_corruption(&BatchRunner::new(&modules[0], spec, VmConfig::default()), &head);
        for m in &modules {
            let runner = BatchRunner::new(m, spec, VmConfig::default());
            for plan in [corrupt, crash, corrupt] {
                fresh_run(&runner, &head, Some(plan));
                let r = fresh_run(&runner, &next, None);
                let want = (RunOutcome::Completed, next.map(golden_reply).to_vec());
                assert_eq!((r.outcome, r.output), want, "{} after {plan:?}", m.name);
            }
        }
        let native = BatchRunner::new(&modules[0], spec, VmConfig::default());
        assert_ne!(native.run_batch(&head, Some(crash), None).outcome, RunOutcome::Completed);
        let corrupted = native.run_batch(&head, Some(corrupt), None);
        let replies = (corrupted.outcome, corrupted.output);
        assert_ne!(replies, (RunOutcome::Completed, head.map(golden_reply).to_vec()), "corrupted");
    }
}
