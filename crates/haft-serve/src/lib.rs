//! `haft-serve` — hardened backends under live traffic.
//!
//! The paper's headline evaluation is a *service* — memcached serving
//! YCSB traffic (§6.1, Figures 11/12) — but batch runs only measure
//! aggregate wall cycles. This crate puts a hardened key-value shard
//! under an arrival process and measures what a datacenter operator
//! would: throughput, tail latency (p50/p95/p99/p999), per-shard
//! utilization, and — with fault injection attached — availability,
//! client-visible SDC rate, and recovery-latency spikes (HAFT's rollback
//! stalls vs. TMR's in-place masking, the Elzar tradeoff expressed in
//! tail latency instead of mean overhead).
//!
//! # Model
//!
//! What happens to one batch — run, price, classify, account — is
//! [`ShardCore`], shared with the real-thread `haft-runtime`, and so is
//! everything around it: the one traffic source ([`TrafficSource`]), the
//! one arrival seeding ([`seed_arrivals`]) and the one setup ([`setup`]:
//! validation, shard image, fault calibration, traced cores). A driver
//! decides only when a shard's next batch starts. This crate's own driver
//! is a deterministic discrete-event simulation. Its event loop and every
//! shard's core live on the calling thread; with a core leased from
//! `haft_vm::cores`, a helper thread runs the batches the loop predicts it
//! will start next, and the loop takes a helper's run only for the exact
//! requests and fault plan it computed — so the report and the trace are
//! the serial loop's, bit for bit ([`lookahead_counts`] says where the
//! runs came from):
//!
//! * **Shards** — N independent single-core VM instances of one hardened
//!   [`haft_apps::kv_shard`] module (shard-per-core; the module is
//!   hardened once, decoded and laid out once per serve call, and each
//!   batch writes its requests into a clone of that arena).
//! * **Arrivals** — open-loop Poisson at a configured rate, or a closed
//!   loop of C clients ([`ArrivalMode`]).
//! * **Routing** — key-hash (shards own key partitions; Zipfian heat
//!   shows up as utilization imbalance) or round-robin
//!   ([`RouterPolicy`]).
//! * **Service time** — a batch's simulated cycles
//!   ([`haft_vm::PhaseCycles::service_cycles`]: the serve phase plus the
//!   reply-emitting fini phase, *excluding* one-time setup) divided by
//!   [`CLOCK_GHZ`], plus a fixed per-batch dispatch overhead
//!   ([`DISPATCH_NS`]).
//!   Every request in a batch completes when the batch does.
//! * **Faults** — per-batch single-event upsets at a configured
//!   per-request rate; outcomes classify *per request* via
//!   [`haft_faults::classify_requests`] against host-computed golden
//!   replies. A failed batch drops its requests and stalls the shard for
//!   a restart ([`RESTART_NS`]); a recovered batch's inflated cycles land
//!   in the tail of the latency distribution exactly where an operator
//!   would see them.

mod ahead;
pub mod arrival;
pub mod latency;
pub mod report;
pub mod router;
pub mod shard;
pub mod traffic;

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use haft_apps::{Op, WorkloadMix, KV_KEYSPACE, SHARD_CAPACITY};
use haft_ir::module::Module;
use haft_trace::TraceBuf;
use haft_vm::{FaultPlan, RunResult, RunSpec, VmConfig};

use ahead::Ahead;
pub use ahead::{lookahead_counts, LookaheadCounts};
pub use arrival::{seed_arrivals, ArrivalMode, PoissonArrivals};
pub use latency::LatencyStats;
pub use report::{
    FaultReport, FaultTelemetry, IntervalCounts, ServiceReport, ShardStats, WallReport,
};
pub use router::RouterPolicy;
pub use shard::{setup, BatchRunner, Served, ShardCore};
pub use traffic::{Req, Saga, TrafficSource};

/// Simulated core clock, for the cycle → nanosecond conversion.
pub const CLOCK_GHZ: f64 = 2.0;
/// Fixed per-batch dispatch overhead (network + syscall), ns.
pub const DISPATCH_NS: u64 = 200;
/// Shard restart stall after a failed batch, ns.
pub const RESTART_NS: u64 = 5_000_000;

/// How a service experiment executes: the deterministic discrete-event
/// simulation, or the real-thread runtime in `haft-runtime`.
///
/// Both modes take the identical [`ServeConfig`], start from one
/// [`setup`], draw one [`TrafficSource`] seeded by one [`seed_arrivals`],
/// form batches by one rule and draw faults from one stream per shard
/// (both [`ShardCore`]'s), and return the identical [`ServiceReport`]
/// schema; they differ only in when a shard's next batch starts. `Sim` is
/// the *deterministic twin*: same configuration ⇒ same report, field for
/// field, which is what every pinned report table is generated from.
/// `Native` steps the N shard cores on a work-stealing thread pool and
/// additionally fills [`report::WallReport`] with host wall-clock
/// throughput. With one worker it equals `Sim` exactly on every open loop
/// and every one-shard closed loop without sagas; elsewhere the order in
/// which freed clients reissue is host timing, so its cycle-priced
/// numbers track the simulation's within a band (`haft-runtime`'s twin
/// validation test pins both).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ServeMode {
    /// Discrete-event simulation (deterministic). One thread owns the
    /// event loop; a spare core, when the process-wide budget
    /// (`haft_vm::cores`) has one, runs the batches it predicts next.
    #[default]
    Sim,
    /// Real threads: the shard cores on a work-stealing pool of `workers`
    /// OS threads (`haft_runtime::run_native`). `workers` is clamped to at
    /// least 1.
    Native { workers: usize },
}

/// Multi-key request grouping: every `every`-th client request is a
/// multi-get spanning `span` keys.
///
/// The operation *stream* is unchanged — a span-`k` request simply claims
/// the next `k` draws from the YCSB generator — so both serve modes
/// execute identical work. What the grouping changes is client-visible
/// semantics in [`ServeMode::Native`]: the runtime splits the group into
/// per-key sub-operations, routes each to its home shard (cross-shard
/// under [`RouterPolicy::KeyHash`]), and completes the request as a
/// *saga* — one latency sample at the join, when the last sub-operation's
/// batch finishes, and the issuing client stays occupied until then. The
/// simulation serves the same sub-operations as independent requests
/// (the join step is a runtime-layer concept); with grouping attached,
/// the two modes therefore price the same work but sample latency
/// differently, and only throughput comparisons remain apples-to-apples.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SagaLoad {
    /// Every `every`-th request issued by a client is a saga head
    /// (`every = 1` makes every request multi-key). Must be ≥ 1
    /// ([`ServeConfig::validate`]).
    pub every: usize,
    /// Keys per multi-key request. Must be ≥ 2 to mean anything; spans
    /// are truncated when the remaining request budget runs out.
    pub span: usize,
}

impl Default for SagaLoad {
    fn default() -> Self {
        SagaLoad { every: 4, span: 3 }
    }
}

/// Fault injection attached to a service run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultLoad {
    /// Probability that any given request's processing is hit by a
    /// single-event upset (applied per batch as `rate × batch size`).
    pub rate_per_request: f64,
    /// Seed for injection planning (independent of the traffic seed).
    pub seed: u64,
}

impl Default for FaultLoad {
    fn default() -> Self {
        FaultLoad { rate_per_request: 0.01, seed: 0xFA_17_5E }
    }
}

/// One service experiment: traffic shape and fleet shape. The cost model
/// is fixed: [`CLOCK_GHZ`], [`DISPATCH_NS`], [`RESTART_NS`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Total requests the arrival process offers.
    pub requests: usize,
    /// YCSB mix generating the request stream (default: the read-heavy
    /// Workload B).
    pub mix: WorkloadMix,
    /// Arrival process (default: a closed loop of 8 zero-think clients —
    /// the capacity-measurement shape).
    pub arrival: ArrivalMode,
    /// Number of independent single-core shards.
    pub shards: usize,
    /// Maximum requests coalesced into one VM run (clamped to
    /// [`SHARD_CAPACITY`]).
    pub batch: usize,
    /// Request-to-shard routing policy.
    pub router: RouterPolicy,
    /// Traffic seed (key draws, op mix, arrival jitter).
    pub seed: u64,
    /// Optional fault injection under load.
    pub faults: Option<FaultLoad>,
    /// Optional multi-key request grouping (see [`SagaLoad`]). `None`
    /// (the default) leaves the request stream all-single-key.
    pub sagas: Option<SagaLoad>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            requests: 1_000,
            mix: WorkloadMix::B,
            arrival: ArrivalMode::ClosedLoop { clients: 8, think_ns: 0 },
            shards: 2,
            batch: 8,
            router: RouterPolicy::KeyHash,
            seed: 0x5EED_5E4E,
            faults: None,
            sagas: None,
        }
    }
}

impl ServeConfig {
    /// The effective batch limit: `batch` clamped to what a shard's
    /// request buffer holds.
    pub fn batch_cap(&self) -> usize {
        self.batch.clamp(1, SHARD_CAPACITY)
    }

    /// Rejects degenerate configurations, for either driver.
    ///
    /// # Panics
    ///
    /// Panics on zero requests or shards, a [`SagaLoad`] with `every < 1`
    /// or `span < 2`, or a `spec` without the serve/fini entry points.
    pub fn validate(&self, spec: RunSpec<'_>) {
        assert!(self.requests > 0, "a service run needs at least one request");
        assert!(self.shards > 0, "a service run needs at least one shard");
        if let Some(s) = self.sagas {
            assert!(s.every >= 1, "SagaLoad::every must be >= 1");
            assert!(s.span >= 2, "SagaLoad::span must be >= 2 to be multi-key");
        }
        assert!(spec.worker.is_some() && spec.fini.is_some(), "shard spec needs worker and fini");
    }
}

/// Simulation event. The heap orders on `(time, sequence)`; the derives
/// only exist so tuples containing an `Ev` are comparable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// Request `seq` reaches the router, which sends it to `shard`.
    Arrive { seq: usize, shard: usize },
    /// A shard finished (or gave up on) its current batch.
    Complete { shard: usize },
}

/// A heap entry: `(time, sequence, event)`, earliest first.
type Entry = Reverse<(u64, u64, Ev)>;

/// What the event step reads and changes: the event loop's own queues,
/// or [`Sim::predict`]'s copies of them.
struct Queues {
    queue: Vec<VecDeque<usize>>,
    /// A shard is busy from when its start is due until a completion
    /// finds its queue empty.
    busy: Vec<bool>,
    /// Starts due, `(instant, shard)`, in the order they fell due.
    starts: VecDeque<(u64, usize)>,
}

impl Queues {
    /// Applies one event at `t`: a shard that gets a request while idle,
    /// or completes with requests queued, is due to start at `t`.
    fn apply(&mut self, t: u64, ev: Ev) {
        let s = match ev {
            Ev::Arrive { seq, shard } => {
                self.queue[shard].push_back(seq);
                shard
            }
            Ev::Complete { shard } => {
                self.busy[shard] = false;
                shard
            }
        };
        if !self.busy[s] && !self.queue[s].is_empty() {
            self.busy[s] = true;
            self.starts.push_back((t, s));
        }
    }

    /// Applies events off `heap` until a start is due and returns it,
    /// `(instant, shard)`. A start comes after every other event at its
    /// instant, so its batch takes every request that arrives then. With
    /// `popped`, the events read are kept there for the caller to put
    /// back, and no more than [`HORIZON`] are read.
    fn next_start(
        &mut self,
        heap: &mut BinaryHeap<Entry>,
        mut popped: Option<&mut Vec<Entry>>,
    ) -> Option<(u64, usize)> {
        loop {
            let open = popped.as_ref().is_none_or(|p| p.len() < HORIZON);
            let next = heap.peek().filter(|_| open).copied();
            if let Some(&(t, s)) = self.starts.front() {
                if next.is_none_or(|Reverse((at, ..))| at > t) {
                    self.starts.pop_front();
                    return Some((t, s));
                }
            }
            let event @ Reverse((t, _, ev)) = next?;
            heap.pop();
            if let Some(p) = popped.as_deref_mut() {
                p.push(event);
            }
            self.apply(t, ev);
        }
    }
}

/// What the lookahead keys a batch run on: its requests and fault plan.
type BatchKey = (Vec<Op>, Option<FaultPlan>);
/// A batch run and, when tracing, its VM events.
type BatchRun = (RunResult, Option<TraceBuf>);

/// Batch starts the event loop predicts, each time it starts one.
const LOOKAHEAD: usize = 3;
/// Known events a prediction reads, at most, so that an open loop's
/// pre-issued arrivals cost O(`HORIZON` · log n) per batch, not O(n).
const HORIZON: usize = 64;

/// Runs one batch of the key, with a trace buffer of its own when tracing.
fn run_key(runner: &BatchRunner<'_>, tracing: bool, (ops, plan): &BatchKey) -> BatchRun {
    let mut vm_events = tracing.then(TraceBuf::new);
    let run = runner.run_batch(ops, *plan, vm_events.as_mut());
    (run, vm_events)
}

/// The discrete-event driver: an event heap deciding when each shard's
/// next batch starts, one [`ShardCore`] per shard, and the serve call's
/// one shard image ([`BatchRunner`]), which every shard's batches start
/// from.
struct Sim<'r, 'm, 'c> {
    cfg: &'c ServeConfig,
    runner: &'r BatchRunner<'m>,
    tracing: bool,
    /// Built without sagas: every group is one request.
    traffic: TrafficSource,
    heap: BinaryHeap<Entry>,
    tick: u64,
    /// Request ledger, indexed by sequence number.
    reqs: Vec<Req>,
    queues: Queues,
    cores: Vec<ShardCore>,
}

/// Trace lane (Chrome `pid`) for service-layer events; shards are `tid`s.
pub const TRACE_PID_SERVE: u32 = 1;
/// Trace lane for pool/actor scheduling events (native runtime only).
pub const TRACE_PID_POOL: u32 = 2;
/// Per-shard VM lanes start here: shard `s`'s VM events carry
/// `pid = TRACE_PID_VM_BASE + s` so concurrent batches never overlap on
/// one track.
pub const TRACE_PID_VM_BASE: u32 = 10;

impl Sim<'_, '_, '_> {
    fn push_event(&mut self, at_ns: u64, ev: Ev) {
        self.tick += 1;
        self.heap.push(Reverse((at_ns, self.tick, ev)));
    }

    /// Draws the next request at `at_ns` and sends it to the router;
    /// returns the requests issued, 0 once the budget is spent.
    fn issue(&mut self, at_ns: u64) -> usize {
        let group = self.traffic.next_group(at_ns);
        let n = group.len();
        for req in group {
            let seq = self.reqs.len();
            let shard = self.cfg.router.route(req.op, seq as u64, self.cores.len());
            self.reqs.push(req);
            self.push_event(at_ns, Ev::Arrive { seq, shard });
        }
        n
    }

    /// Starts shard `s`'s batch at `now_ns` ([`ShardCore::form_batch`]),
    /// schedules its completion event, and (closed loop) re-issues the
    /// freed clients. With `ahead`, the batch run comes from the lookahead
    /// helper when it has one for this exact batch, and the next batches
    /// are predicted for it.
    fn start_batch(&mut self, s: usize, now_ns: u64, ahead: Option<&Ahead<BatchKey, BatchRun>>) {
        let reqs = &self.reqs;
        let seqs = self.cores[s].form_batch(&mut self.queues.queue[s], |&q| reqs[q].arrival_vns);
        let key = (seqs.iter().map(|&q| reqs[q].op).collect(), self.cores[s].draw(seqs.len()));
        let (runner, tracing) = (self.runner, self.tracing);
        let (run, vm_events) = match ahead {
            Some(ahead) => {
                ahead.predict(&key, self.predict(s));
                ahead.take(&key, |k| run_key(runner, tracing, k))
            }
            None => run_key(runner, tracing, &key),
        };
        let arrivals = seqs.iter().map(|&q| Some(self.reqs[q].arrival_vns));
        let completion = self.cores[s]
            .account(run, vm_events, &key.0, arrivals, now_ns, key.1.is_some())
            .completion_ns;
        self.push_event(completion, Ev::Complete { shard: s });

        // Closed loop: each request in the batch frees its client at
        // completion (crashed batches error out to the client, which
        // retries with a fresh request after the same think time).
        if let ArrivalMode::ClosedLoop { think_ns, .. } = self.cfg.arrival {
            for _ in 0..seqs.len() {
                self.issue(completion + think_ns);
            }
        }
    }

    /// Drains the event queue.
    fn run(&mut self, ahead: Option<&Ahead<BatchKey, BatchRun>>) {
        while let Some((t, s)) = self.queues.next_start(&mut self.heap, None) {
            self.start_batch(s, t, ahead);
        }
    }

    /// The next [`LOOKAHEAD`] batches [`Self::run`] starts after the one
    /// just started on shard `s`: a dry run of it over copies of the
    /// queues and the fault streams, by the same event step. Batches not
    /// run yet — that one and the predicted ones — are assumed to complete
    /// after every known event, oldest first, and the clients they free in
    /// a closed loop, who reissue at unknown times, are left out. It reads
    /// at most [`HORIZON`] events, popped off the heap and pushed back.
    fn predict(&mut self, s: usize) -> Vec<BatchKey> {
        // No predicted batch reaches further into a queue than this.
        let reach = LOOKAHEAD * self.cfg.batch_cap();
        let queue = self.queues.queue.iter().map(|q| q.iter().take(reach).copied().collect());
        let (busy, starts) = (self.queues.busy.clone(), self.queues.starts.clone());
        let mut q = Queues { queue: queue.collect(), busy, starts };
        let mut draws: Vec<_> = self.cores.iter().map(|c| c.fault_draw.clone()).collect();
        let mut not_run = VecDeque::from([s]);
        let mut popped = Vec::new();
        let mut predicted = Vec::with_capacity(LOOKAHEAD);
        while predicted.len() < LOOKAHEAD {
            let Some((_, x)) = q.next_start(&mut self.heap, Some(&mut popped)) else {
                let Some(x) = not_run.pop_front() else { break };
                q.apply(u64::MAX, Ev::Complete { shard: x });
                continue;
            };
            // A dry-run start comes after every event applied so far, so
            // every request on its queue has arrived by it, whatever the
            // shard's clock would read.
            let seqs = self.cores[x].form_batch(&mut q.queue[x], |_| 0);
            let plan = draws[x].as_mut().and_then(|d| d.draw(seqs.len()));
            predicted.push((seqs.iter().map(|&i| self.reqs[i].op).collect(), plan));
            not_run.push_back(x);
        }
        self.heap.extend(popped);
        predicted
    }
}

/// Drives `cfg.requests` of generated traffic through `cfg.shards`
/// copies of the already-hardened `module` and reports service-level
/// metrics.
///
/// `vm` supplies the cost model and HTM/transaction parameters; the
/// harness pins it to one simulated thread per shard and sizes its
/// memory arena to the module. `label` names the backend in the report.
/// With `trace` attached, every batch-service span, shard restart, and
/// spliced VM/HTM event lands in it, timestamped in virtual nanoseconds.
///
/// Deterministic: same module, config, and seeds ⇒ same report, traced
/// or not.
///
/// # Panics
///
/// Panics if `module` was not built by [`haft_apps::kv_shard`] (the
/// request-buffer globals are missing) or the configuration is
/// degenerate ([`ServeConfig::validate`], non-positive open-loop rate).
pub fn run_service(
    module: &Module,
    spec: RunSpec<'_>,
    vm: VmConfig,
    label: impl Into<String>,
    cfg: &ServeConfig,
    trace: Option<&mut TraceBuf>,
) -> ServiceReport {
    let tracing = trace.is_some();
    let (runner, cores) = setup(module, spec, vm, cfg, tracing, None);
    let mut sim = Sim {
        cfg,
        runner: &runner,
        tracing,
        traffic: TrafficSource::new(cfg.seed, KV_KEYSPACE, cfg.mix, cfg.requests, None),
        heap: BinaryHeap::new(),
        tick: 0,
        reqs: Vec::with_capacity(cfg.requests),
        queues: Queues {
            queue: vec![VecDeque::new(); cfg.shards],
            busy: vec![false; cfg.shards],
            starts: VecDeque::new(),
        },
        cores,
    };
    seed_arrivals(cfg, |at_ns| sim.issue(at_ns));
    // A spare core, if no one else holds it, runs predicted batches ahead
    // of the loop; without one, the loop runs every batch itself.
    let lease = haft_vm::cores::lease(1);
    if lease.granted() == 0 {
        sim.run(None);
    } else {
        let ahead = Ahead::new();
        ahead.beside(|key| run_key(&runner, tracing, key), || sim.run(Some(&ahead)));
    }
    drop(lease);

    // The DES draws no sagas (joins are a runtime-layer concept), so
    // `suppressed_joins` stays 0.
    ServiceReport::assemble(label.into(), cfg, sim.cores, trace)
}
