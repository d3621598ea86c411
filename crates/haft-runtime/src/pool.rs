//! The work-stealing pool: shard actors scheduled over OS threads.
//!
//! The scheduler is the classic actor shape (souvenir's `Scheduler`,
//! SNIPPETS.md §1): each shard is an *actor* with an MPSC inbox and a
//! three-state lifecycle —
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

use haft_serve::{ArrivalMode, RouterPolicy, ServeConfig, TRACE_PID_POOL};
use haft_trace::{Ring, TraceEvent, TraceSink};

use crate::actor::ShardActor;
use crate::traffic::{Req, TrafficSource};

const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;

/// Bounded per-worker trace ring: recent scheduling history wins over
/// completeness, so a hot worker can never grow the trace without bound.
const WORKER_RING_CAP: usize = 1 << 14;

/// One shard actor plus its scheduling state and inbox.
pub struct ActorSlot<'a> {
    state: AtomicU8,
    inbox: Mutex<VecDeque<Req>>,
    actor: Mutex<ShardActor<'a>>,
}

impl<'a> ActorSlot<'a> {
    pub fn new(actor: ShardActor<'a>) -> Self {
        ActorSlot {
            state: AtomicU8::new(IDLE),
            inbox: Mutex::new(VecDeque::new()),
            actor: Mutex::new(actor),
        }
    }
}

/// Deterministic interleaving shaker (splitmix64): sprinkled
/// `yield_now` calls at scheduling decision points so the release-mode
/// stress test explores far more interleavings than free-running threads
/// would. Off (`None` seed) in normal runs — zero overhead.
struct Shaker {
    state: u64,
}

impl Shaker {
    fn new(seed: u64) -> Self {
        Shaker { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn poke(&mut self) {
        if self.next().is_multiple_of(4) {
            std::thread::yield_now();
        }
    }
}

/// The shared pool state: slots, runnable deques, traffic, progress.
pub struct Pool<'a> {
    slots: Vec<ActorSlot<'a>>,
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
        slots: Vec<ActorSlot<'a>>,
        cfg: &ServeConfig,
        traffic: TrafficSource,
        workers: usize,
        shake_seed: Option<u64>,
        trace_epoch: Option<Instant>,
    ) -> Self {
        assert!(!slots.is_empty() && workers >= 1);
        Pool {
            slots,
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

    /// True once the traffic budget is fully drawn.
    pub fn traffic_exhausted(&self) -> bool {
        self.traffic.lock().unwrap().exhausted()
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
    fn service(
        &self,
        shard: usize,
        w: usize,
        shaker: &mut Option<Shaker>,
        ring: &mut Option<Ring>,
    ) {
        let t_start = self.trace_epoch.map(|e| e.elapsed().as_nanos() as u64);
        let mut drained = 0u64;
        let slot = &self.slots[shard];
        slot.state
            .compare_exchange(QUEUED, RUNNING, Ordering::AcqRel, Ordering::Acquire)
            .expect("scheduled actor must be QUEUED");
        let mut actor =
            slot.actor.try_lock().expect("RUNNING transition guarantees exclusive ownership");

        loop {
            if let Some(sh) = shaker.as_mut() {
                sh.poke();
            }
            let batch = {
                let mut inbox = slot.inbox.lock().unwrap();
                actor.core.form_batch(&mut inbox, |r| r.arrival_vns)
            };
            if batch.is_empty() {
                break;
            }
            let out = actor.run_one_batch(batch);
            drained += 1;
            if let Some(think_ns) = self.closed_think_ns {
                for &t in &out.freed_vns {
                    self.issue_group_at(t + think_ns, Some(w));
                }
            }
            let acc = self.accounted.fetch_add(out.ops_accounted as u64, Ordering::AcqRel)
                + out.ops_accounted as u64;
            assert!(acc <= self.total, "accounted more operations than were offered");
            if acc == self.total {
                self.done.store(true, Ordering::Release);
                self.cond.notify_all();
            }
        }

        let vclock_vns = actor.core.vclock_ns();
        drop(actor);
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
        let mut shaker = self.shake_seed.map(|s| Shaker::new(s ^ (w as u64).wrapping_mul(0xA5)));
        let mut ring = self.trace_epoch.map(|_| Ring::new(WORKER_RING_CAP));
        while !self.done.load(Ordering::Acquire) {
            if let Some(sh) = shaker.as_mut() {
                sh.poke();
            }
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

    /// Consumes the pool and hands back the shard actors for report
    /// assembly.
    pub fn into_actors(self) -> Vec<ShardActor<'a>> {
        assert!(self.done.load(Ordering::Acquire), "pool not run to completion");
        self.slots.into_iter().map(|s| s.actor.into_inner().unwrap()).collect()
    }
}
