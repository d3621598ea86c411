//! The work-stealing pool: shard cores scheduled over OS threads.
//!
//! The scheduler is the classic actor shape (souvenir's `Scheduler`,
//! SNIPPETS.md §1): each shard's [`ShardCore`] is an *actor* with an MPSC
//! inbox and a three-state lifecycle —
//!
//! * `IDLE` — inbox empty (or believed empty), owned by nobody;
//! * `QUEUED` — has work and sits in exactly one runnable deque;
//! * `RUNNING` — a worker holds it and is draining its inbox.
//!
//! Every worker owns a deque of runnable shard ids: it pops from the
//! front, and when empty steals *half* a victim's deque from the back
//! (cold end), falling back to a global injector that seeding and
//! non-worker producers push to. Workers with nothing to do park on a
//! condvar with a short timeout, so a missed notify costs a millisecond,
//! never liveness. Worker 0 is the thread that calls [`Pool::run`]; only
//! the other workers are spawned, so a one-worker pool never leaves its
//! caller (and no idle thread keeps a malloc arena alive).
//!
//! The state machine closes the classic lost-wakeup race: a producer
//! pushes to the inbox *first*, then tries `IDLE → QUEUED` (enqueueing
//! the actor only on success); a worker finishing a drain stores
//! `RUNNING → IDLE` and then *re-checks the inbox*, re-queueing itself if
//! a push slipped in between. An actor can therefore be over-queued by
//! one spurious wakeup but never under-queued, and the `QUEUED → RUNNING`
//! CAS guarantees a single worker drains it at a time (asserted via
//! `try_lock` on the actor).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use haft_apps::Op;
use haft_faults::RequestOutcome;
use haft_ir::rng::Prng;
use haft_serve::{
    ArrivalMode, BatchRunner, Req, RouterPolicy, ServeConfig, ShardCore, TrafficSource,
    TRACE_PID_POOL,
};
use haft_trace::{Ring, TraceEvent};

const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;

/// Bounded per-worker trace ring: recent scheduling history wins over
/// completeness, so a hot worker can never grow the trace without bound.
const WORKER_RING_CAP: usize = 1 << 14;

/// One shard's core plus its scheduling state and inbox.
struct ActorSlot {
    state: AtomicU8,
    inbox: Mutex<VecDeque<Req>>,
    core: Mutex<ShardCore>,
}

/// Serves one batch ([`ShardCore::form_batch`] formed it) on `core`,
/// starting at `max(shard vclock, latest arrival in the batch)` on the
/// shard's virtual clock, and resolves its saga joins: a multi-key request
/// samples once, at the join, on the shard that finished last. Returns the
/// virtual times at which client requests finished with this batch — one
/// per completed single request or joined saga; in a closed loop each
/// frees one client at that time.
fn serve_batch(runner: &BatchRunner<'_>, core: &mut ShardCore, batch: &[Req]) -> Vec<u64> {
    let ops: Vec<Op> = batch.iter().map(|r| r.op).collect();
    let latest = batch.iter().map(|r| r.arrival_vns).max().expect("ran an empty batch");
    let start = core.vclock_ns().max(latest);
    let arrivals = batch.iter().map(|r| r.saga.is_none().then_some(r.arrival_vns));
    let served = core.serve(runner, &ops, arrivals, start);

    let mut freed_vns = Vec::with_capacity(batch.len());
    for (req, &o) in batch.iter().zip(&served.outcomes) {
        let Some(saga) = &req.saga else {
            freed_vns.push(served.completion_ns);
            continue;
        };
        if o == RequestOutcome::Failed {
            saga.failed.store(true, Ordering::Release);
        }
        if let Some(join_vns) = saga.complete_one(served.completion_ns) {
            let failed = saga.failed.load(Ordering::Acquire);
            core.record_join(join_vns, saga.arrival_vns, failed);
            freed_vns.push(join_vns);
        }
    }
    freed_vns
}

/// Deterministic interleaving shaker: sprinkled `yield_now` calls at
/// scheduling decision points, drawn from a seeded [`Prng`], so the
/// release-mode stress test explores far more interleavings than
/// free-running threads would. Off (`None` seed) in normal runs — zero
/// overhead.
fn shake(shaker: &mut Option<Prng>) {
    if let Some(sh) = shaker {
        if sh.next_u64().is_multiple_of(4) {
            std::thread::yield_now();
        }
    }
}

/// The shared pool state: the shard image, slots, runnable deques,
/// traffic, progress.
pub struct Pool<'a> {
    /// The serve call's one shard image, which every batch starts from.
    runner: &'a BatchRunner<'a>,
    slots: Vec<ActorSlot>,
    /// Per-worker runnable deques (owner pops front, thieves steal from
    /// the back).
    deques: Vec<Mutex<VecDeque<usize>>>,
    /// Runnable actors pushed from outside any worker (initial seeding).
    injector: Mutex<VecDeque<usize>>,
    traffic: Mutex<TrafficSource>,
    /// `Some(think_ns)` when the arrival process is a closed loop and
    /// batch completions must re-issue their freed clients.
    closed_think_ns: Option<u64>,
    router: RouterPolicy,
    route_seq: AtomicU64,
    /// Operations fully accounted (batched and classified).
    accounted: AtomicU64,
    total: u64,
    done: AtomicBool,
    park: Mutex<()>,
    cond: Condvar,
    shake_seed: Option<u64>,
    /// Actor ids taken from a victim's deque — always counted, so
    /// `pool.steals` costs one relaxed add whether or not tracing is on.
    steals: AtomicU64,
    /// Wall-clock zero for trace timestamps; `Some` turns worker event
    /// collection on.
    trace_epoch: Option<Instant>,
    /// Worker rings drain here when their worker exits (never on the hot
    /// path, so workers share no trace state while running).
    collected: Mutex<Vec<TraceEvent>>,
}

impl<'a> Pool<'a> {
    pub fn new(
        runner: &'a BatchRunner<'a>,
        cores: Vec<ShardCore>,
        cfg: &ServeConfig,
        traffic: TrafficSource,
        workers: usize,
        shake_seed: Option<u64>,
        trace_epoch: Option<Instant>,
    ) -> Self {
        assert!(!cores.is_empty() && workers >= 1);
        Pool {
            runner,
            slots: cores
                .into_iter()
                .map(|core| ActorSlot {
                    state: AtomicU8::new(IDLE),
                    inbox: Mutex::default(),
                    core: Mutex::new(core),
                })
                .collect(),
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            traffic: Mutex::new(traffic),
            closed_think_ns: match cfg.arrival {
                ArrivalMode::ClosedLoop { think_ns, .. } => Some(think_ns),
                ArrivalMode::OpenLoop { .. } => None,
            },
            router: cfg.router,
            route_seq: AtomicU64::new(0),
            accounted: AtomicU64::new(0),
            total: cfg.requests as u64,
            done: AtomicBool::new(false),
            park: Mutex::new(()),
            cond: Condvar::new(),
            shake_seed,
            steals: AtomicU64::new(0),
            trace_epoch,
            collected: Mutex::new(Vec::new()),
        }
    }

    /// Actor ids stolen from victim deques over the pool's lifetime.
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Acquire)
    }

    /// Drains every scheduling event collected so far: worker rings
    /// (merged when each worker exited) plus the traffic source's saga
    /// split events. Call after [`Self::run`] returns.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        let mut events = std::mem::take(&mut *self.collected.lock().unwrap());
        if let Some(buf) = self.traffic.lock().unwrap().trace.as_mut() {
            events.append(&mut buf.events);
        }
        events
    }

    /// Draws the next client request group at virtual time `at_vns` and
    /// routes its sub-operations. Returns the number of operations
    /// issued (0 when the budget is exhausted). `from_worker` targets the
    /// wakeup at the issuing worker's own deque for locality; `None`
    /// (seeding) goes through the injector.
    pub fn issue_group_at(&self, at_vns: u64, from_worker: Option<usize>) -> usize {
        let group = self.traffic.lock().unwrap().next_group(at_vns);
        let n = group.len();
        for req in group {
            self.enqueue(req, from_worker);
        }
        n
    }

    /// Routes one request to its home shard's inbox and makes the shard
    /// runnable if it was idle. Push-then-CAS order is what makes the
    /// wakeup race benign (see module docs).
    fn enqueue(&self, req: Req, from_worker: Option<usize>) {
        let seq = self.route_seq.fetch_add(1, Ordering::Relaxed);
        let shard = self.router.route(req.op, seq, self.slots.len());
        let slot = &self.slots[shard];
        slot.inbox.lock().unwrap().push_back(req);
        if slot.state.compare_exchange(IDLE, QUEUED, Ordering::AcqRel, Ordering::Acquire).is_ok() {
            match from_worker {
                Some(w) => self.deques[w].lock().unwrap().push_back(shard),
                None => self.injector.lock().unwrap().push_back(shard),
            }
            self.cond.notify_one();
        }
    }

    /// Finds the next runnable shard for worker `w`: own deque front,
    /// then the injector, then steal half of a victim's deque from the
    /// back.
    fn find_work(&self, w: usize, ring: &mut Option<Ring>) -> Option<usize> {
        if let Some(s) = self.deques[w].lock().unwrap().pop_front() {
            return Some(s);
        }
        if let Some(s) = self.injector.lock().unwrap().pop_front() {
            return Some(s);
        }
        let n = self.deques.len();
        for i in 1..n {
            let victim = (w + i) % n;
            let mut stolen = {
                let mut v = self.deques[victim].lock().unwrap();
                let take = v.len().div_ceil(2);
                let mut got = Vec::with_capacity(take);
                for _ in 0..take {
                    if let Some(s) = v.pop_back() {
                        got.push(s);
                    }
                }
                got
            };
            if let Some(first) = stolen.pop() {
                let n_stolen = (stolen.len() + 1) as u64;
                self.steals.fetch_add(n_stolen, Ordering::Relaxed);
                if let (Some(r), Some(epoch)) = (ring.as_mut(), self.trace_epoch) {
                    r.push(
                        TraceEvent::instant("pool", "steal", epoch.elapsed().as_nanos() as u64)
                            .lane(TRACE_PID_POOL, w as u32)
                            .arg("victim", victim)
                            .arg("actors", n_stolen),
                    );
                }
                let mut own = self.deques[w].lock().unwrap();
                own.extend(stolen);
                return Some(first);
            }
        }
        None
    }

    /// Drains one runnable shard: `QUEUED → RUNNING`, run batches until
    /// the inbox is (momentarily) empty, `RUNNING → IDLE`, then the
    /// lost-wakeup recheck.
    fn service(&self, shard: usize, w: usize, shaker: &mut Option<Prng>, ring: &mut Option<Ring>) {
        let t_start = self.trace_epoch.map(|e| e.elapsed().as_nanos() as u64);
        let mut drained = 0u64;
        let slot = &self.slots[shard];
        slot.state
            .compare_exchange(QUEUED, RUNNING, Ordering::AcqRel, Ordering::Acquire)
            .expect("scheduled actor must be QUEUED");
        let mut core =
            slot.core.try_lock().expect("RUNNING transition guarantees exclusive ownership");

        loop {
            shake(shaker);
            let batch = {
                let mut inbox = slot.inbox.lock().unwrap();
                core.form_batch(&mut inbox, |r| r.arrival_vns)
            };
            if batch.is_empty() {
                break;
            }
            let freed_vns = serve_batch(self.runner, &mut core, &batch);
            drained += 1;
            if let Some(think_ns) = self.closed_think_ns {
                for &t in &freed_vns {
                    self.issue_group_at(t + think_ns, Some(w));
                }
            }
            // Every operation is accounted exactly once, including ones
            // dropped by a crashed run.
            let acc =
                self.accounted.fetch_add(batch.len() as u64, Ordering::AcqRel) + batch.len() as u64;
            assert!(acc <= self.total, "accounted more operations than were offered");
            if acc == self.total {
                self.done.store(true, Ordering::Release);
                self.cond.notify_all();
            }
        }

        let vclock_vns = core.vclock_ns();
        drop(core);
        if let (Some(r), Some(t0)) = (ring.as_mut(), t_start) {
            // The RUNNING window on the wall clock, with the actor's
            // virtual clock carried as an argument (dual-clock rule).
            let now = self.trace_epoch.expect("t_start implies epoch").elapsed().as_nanos() as u64;
            r.push(
                TraceEvent::span("pool", "actor.run", t0, now.saturating_sub(t0))
                    .lane(TRACE_PID_POOL, w as u32)
                    .arg("shard", shard)
                    .arg("batches", drained)
                    .arg("vclock_vns", vclock_vns),
            );
        }
        slot.state.store(IDLE, Ordering::Release);
        // Lost-wakeup guard: a producer may have pushed between our empty
        // form_batch and the IDLE store, and lost its CAS against our
        // RUNNING state. Recheck and requeue ourselves.
        if !slot.inbox.lock().unwrap().is_empty()
            && slot
                .state
                .compare_exchange(IDLE, QUEUED, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            self.deques[w].lock().unwrap().push_back(shard);
            self.cond.notify_one();
        }
    }

    fn park(&self) {
        let guard = self.park.lock().unwrap();
        if self.done.load(Ordering::Acquire) {
            return;
        }
        // Timeout bounds the cost of any missed notify to ~1 ms.
        let _ = self.cond.wait_timeout(guard, Duration::from_millis(1)).unwrap();
    }

    fn worker_loop(&self, w: usize) {
        let mut shaker = self.shake_seed.map(|s| Prng::new(s ^ (w as u64).wrapping_mul(0xA5)));
        let mut ring = self.trace_epoch.map(|_| Ring::new(WORKER_RING_CAP));
        while !self.done.load(Ordering::Acquire) {
            shake(&mut shaker);
            match self.find_work(w, &mut ring) {
                Some(shard) => self.service(shard, w, &mut shaker, &mut ring),
                None => self.park(),
            }
        }
        if let Some(r) = ring {
            let (mut events, dropped) = r.into_events();
            if dropped > 0 {
                let now = self.trace_epoch.unwrap().elapsed().as_nanos() as u64;
                events.push(
                    TraceEvent::instant("pool", "ring.dropped", now)
                        .lane(TRACE_PID_POOL, w as u32)
                        .arg("dropped", dropped),
                );
            }
            self.collected.lock().unwrap().extend(events);
        }
    }

    /// Runs the pool to completion on `workers` OS threads — worker 0 is
    /// the calling thread, the other `workers − 1` are scoped threads —
    /// and returns once every offered operation has been batched,
    /// executed, and classified.
    pub fn run(&self, workers: usize) {
        assert_eq!(workers, self.deques.len());
        std::thread::scope(|scope| {
            for w in 1..workers {
                scope.spawn(move || self.worker_loop(w));
            }
            self.worker_loop(0);
        });
        assert_eq!(
            self.accounted.load(Ordering::Acquire),
            self.total,
            "pool exited before accounting every operation"
        );
    }

    /// Consumes the pool and hands back the shard cores for report
    /// assembly.
    pub fn into_cores(self) -> Vec<ShardCore> {
        assert!(self.done.load(Ordering::Acquire), "pool not run to completion");
        self.slots.into_iter().map(|s| s.core.into_inner().unwrap()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haft_apps::{kv_shard, KvSync, WorkloadMix, YcsbGen};
    use haft_serve::{FaultLoad, Saga, SagaLoad, ServiceReport};
    use haft_vm::VmConfig;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn failed_saga_joins_are_counted_not_silently_dropped() {
        let w = kv_shard(KvSync::Atomics);
        let cfg = ServeConfig { requests: 2, ..Default::default() };
        let runner = BatchRunner::new(&w.module, w.run_spec(), VmConfig::default());
        let mut core = ShardCore::new(&cfg, 0, 1);
        let mut gen = YcsbGen::new(4, 100);
        let ops = gen.generate(WorkloadMix::B, 2);

        // Saga 1: a sub-batch on another shard already failed — the join
        // here must free the client but withhold the latency sample and
        // count the suppression.
        let failed = Arc::new(Saga {
            remaining: AtomicUsize::new(1),
            latest_vns: AtomicU64::new(0),
            failed: AtomicBool::new(true),
            arrival_vns: 10,
        });
        // Saga 2: clean — joins normally and samples once.
        let clean = Arc::new(Saga {
            remaining: AtomicUsize::new(1),
            latest_vns: AtomicU64::new(0),
            failed: AtomicBool::new(false),
            arrival_vns: 10,
        });
        let batch = vec![
            Req { op: ops[0], arrival_vns: 10, saga: Some(failed) },
            Req { op: ops[1], arrival_vns: 10, saga: Some(clean) },
        ];
        let freed_vns = serve_batch(&runner, &mut core, &batch);
        assert_eq!(freed_vns.len(), 2, "both joins free their clients");
        let r = ServiceReport::assemble("t".into(), &cfg, vec![core], None);
        assert_eq!(r.suppressed_joins, 1, "the failed join must be counted");
        assert_eq!(r.latency.count, 1, "only the clean join samples latency");
    }

    // Seeded-interleaving stress for the queue/steal paths.
    //
    // Without ThreadSanitizer or loom on this toolchain, this is the
    // substitute: oversubscribe the pool (more workers than shards or
    // cores), turn on the splitmix-seeded yield shaker at every scheduling
    // decision point, and sweep seeds. Each seed perturbs which thread wins
    // each race — the actor state machine's own assertions (`QUEUED →
    // RUNNING` CAS, `try_lock` exclusivity, the accounted-once ledger)
    // then do the checking. CI runs this under `--release`, where the
    // narrow races actually surface.

    /// A shaken run of `cfg` on `workers` threads.
    fn shaken(cfg: &ServeConfig, workers: usize, shake_seed: u64) -> ServiceReport {
        let w = kv_shard(KvSync::Atomics);
        let (spec, vm) = (w.run_spec(), VmConfig::default());
        crate::run_pool(&w.module, spec, vm, "shake".into(), cfg, workers, Some(shake_seed), None)
    }

    #[test]
    fn shaken_interleavings_preserve_the_accounting_invariants() {
        for seed in 0..6u64 {
            let cfg = ServeConfig {
                requests: 400,
                shards: 5,
                batch: 4,
                sagas: Some(SagaLoad { every: 3, span: 3 }),
                seed: 0x57E5 ^ (seed << 8),
                ..Default::default()
            };
            let r = shaken(&cfg, 4, seed);
            assert_eq!(r.requests_offered, 400, "seed {seed}");
            assert_eq!(r.requests_served, 400, "seed {seed}");
            assert_eq!(r.shards.len(), 5);
            assert_eq!(r.shards.iter().map(|s| s.requests).sum::<u64>(), 400, "seed {seed}");
            assert!(r.latency.count > 0 && r.latency.count <= 400);
            assert!(r.batches >= 100 / 4, "someone actually batched: {}", r.batches);
        }
    }

    #[test]
    fn shaken_interleavings_hold_under_fault_injection() {
        for seed in 0..4u64 {
            let cfg = ServeConfig {
                requests: 300,
                shards: 3,
                batch: 8,
                faults: Some(FaultLoad { rate_per_request: 0.03, seed: 0xFA ^ seed }),
                ..Default::default()
            };
            let r = shaken(&cfg, 3, 0xABCD ^ seed);
            let f = r.faults.expect("fault load attached");
            assert_eq!(f.counts.total(), 300, "every request classified exactly once, seed {seed}");
            assert_eq!(r.requests_served, 300 - f.counts.failed, "seed {seed}");
            assert_eq!(r.latency.count, r.requests_served, "failed requests never sampled");
        }
    }
}
