//! The virtual machine: interpreter, HAFT runtime, scheduler.

use std::collections::HashMap;

use haft_htm::{AbortCause, AccessKind, Htm, HtmConfig, HtmStats};
use haft_ir::function::{BlockId, ValueId};
use haft_ir::inst::{BinOp, CastKind, CmpOp, UnOp};
use haft_ir::module::{FuncId, Module};
use haft_ir::rng::Prng;
use haft_ir::types::Ty;
use haft_trace::{MetricsSnapshot, TraceBuf, TraceEvent};

use crate::cost::{self, Scoreboard};
use crate::fault::FaultPlan;
use crate::mem::{Memory, Trap};

use self::profile::{OpClass, Profiler};

/// Function "addresses" for indirect calls start here.
const FUNC_BASE: u64 = 0xF000_0000_0000_0000;
/// Maximum call depth before a stack-overflow trap.
const MAX_CALL_DEPTH: usize = 128;
/// Transaction retries before falling back to non-transactional
/// execution (the paper's default is 3).
const MAX_TX_RETRIES: u32 = 3;

/// Execution engine selector.
///
/// Both engines compute the *same* run, bit for bit: identical
/// [`RunResult`] (cycles, phases, HTM stats, outputs) and an identical
/// dynamic register-write stream, so a [`FaultPlan`] occurrence lands on
/// the same logical micro-op either way. `Fused` pre-decodes each
/// function into a dense dispatch form (resolved jump targets and
/// operands, opcodes of their own for the hot ALU pairs, pooled register
/// windows, straight-line stretches run on borrows taken once) and
/// exists purely to make simulation wall-clock
/// faster; `Interp` executes straight from the IR and is kept as the
/// executable reference the differential test harness pins `Fused`
/// against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// Reference interpreter: per-op IR walk; it consults the decoded
    /// form only to name each op to the profiler and forensics hooks.
    Interp,
    /// Pre-decoded direct dispatch in register-only runs.
    #[default]
    Fused,
}

/// VM configuration.
#[derive(Clone, Debug)]
pub struct VmConfig {
    /// Number of simulated threads in the parallel phase.
    pub n_threads: usize,
    /// Run-time threshold consulted by `tx_cond_split` (the paper's
    /// transaction-size parameter, in instructions).
    pub tx_threshold: u64,
    /// HTM parameters.
    pub htm: HtmConfig,
    /// Enable HAFT's lock-elision wrapper (paper §3.3).
    pub lock_elision: bool,
    /// Scheduler window in simulated *cycles*, not instructions: every
    /// ready thread runs until its clock reaches a common horizon of
    /// `min ready clock + quantum/2 + jitter`, jitter uniform in
    /// `[0, quantum)` and redrawn per window (values below 2 act as 2).
    pub quantum: u64,
    /// Seed for schedule jitter, spontaneous aborts, etc.
    pub seed: u64,
    /// Simulated memory size in bytes.
    pub mem_bytes: u64,
    /// Instruction budget; exceeding it classifies the run as a hang.
    pub max_instructions: u64,
    /// Optional single-event upset to inject.
    pub fault: Option<FaultPlan>,
    /// Adaptive transaction sizing (the paper's §7 future work): on an
    /// abort a thread halves its private split threshold (floor 250); each
    /// commit grows it back toward `tx_threshold`. Trades a little commit
    /// overhead in contended phases for far fewer wasted re-executions.
    pub adaptive_threshold: bool,
    /// Execution engine. `Fused` (the default) and `Interp` are
    /// bit-identical in every observable; see [`Engine`].
    pub engine: Engine,
    /// Fault forensics: when a `fault` is also set, track the flip's
    /// taint trajectory and report it on [`RunResult::forensics`].
    /// Strictly observational — the `RunResult` core is bit-identical
    /// with it on or off — and free on clean runs (no fault, no state).
    pub forensics: bool,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            n_threads: 1,
            tx_threshold: 1000,
            htm: HtmConfig::default(),
            lock_elision: false,
            quantum: 64,
            seed: 0x5EED_1234,
            mem_bytes: 1 << 24,
            max_instructions: 400_000_000,
            fault: None,
            adaptive_threshold: false,
            engine: Engine::Fused,
            forensics: false,
        }
    }
}

/// Program entry points for the three execution phases.
///
/// Benchmarks follow the Phoenix/PARSEC shape: a serial setup phase, a
/// parallel phase in which every thread runs `worker(tid, n_threads)`, and
/// a serial reduction/output phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunSpec<'a> {
    /// Serial setup, run on thread 0. Signature: `fn()`.
    pub init: Option<&'a str>,
    /// Parallel body, run on every thread. Signature: `fn(i64, i64)`.
    pub worker: Option<&'a str>,
    /// Serial reduction/output, run on thread 0. Signature: `fn()`.
    pub fini: Option<&'a str>,
}

/// Why a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// All phases finished.
    Completed,
    /// The "OS" terminated the program (Table 1: *OS-detected*).
    Trapped(Trap),
    /// An ILR check fired outside a transaction: fail-stop
    /// (Table 1: *ILR-detected*).
    Detected,
    /// The instruction budget was exhausted (Table 1: *Hang*).
    Hang,
}

/// Wall-cycle accounting split by execution phase — the per-segment view
/// of [`RunResult::wall_cycles`]. Service harnesses need it to charge a
/// request's latency to the phases that actually serve it (the parallel
/// phase and the reply-emitting `fini`) without folding in one-time setup
/// cost, which on a real server is amortized across the process lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseCycles {
    /// Serial setup phase (`init`).
    pub init: u64,
    /// Parallel phase wall time (slowest thread of `worker`).
    pub worker: u64,
    /// Serial reduction/output phase (`fini`).
    pub fini: u64,
}

impl PhaseCycles {
    /// The phases that serve a request once the process is warm: the
    /// parallel phase plus the output phase.
    pub fn service_cycles(&self) -> u64 {
        self.worker + self.fini
    }
}

/// Everything measured during one run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunResult {
    pub outcome: RunOutcome,
    /// Emitted output, per-thread streams concatenated in thread order.
    pub output: Vec<u64>,
    /// End-to-end simulated time: serial phases plus the slowest thread of
    /// the parallel phase.
    pub wall_cycles: u64,
    /// `wall_cycles` split by phase (a phase the run never reached, or
    /// stopped inside, reports the cycles accumulated up to the stop).
    pub phases: PhaseCycles,
    /// Sum of all threads' busy cycles (coverage denominator).
    pub cpu_cycles: u64,
    /// Dynamic instructions executed.
    pub instructions: u64,
    /// Dynamic register-writing instructions (the fault-injection space).
    pub register_writes: u64,
    /// HTM statistics (commits, aborts, coverage).
    pub htm: HtmStats,
    /// ILR checks that fired (detections), anywhere.
    pub detections: u64,
    /// Detections that triggered transactional rollback (recovery
    /// attempts).
    pub recoveries: u64,
    /// Majority votes that found a divergent copy and masked it in place
    /// (the TMR backend's correction mechanism — no rollback involved).
    pub corrected_by_vote: u64,
    /// Checksum verifications that found a single divergent lane and
    /// corrected it in place (the ABFT backend's correction mechanism).
    pub corrected_by_checksum: u64,
    /// Conditional-branch mispredictions (cost-model diagnostics).
    pub mispredicts: u64,
    /// Flip→detection trajectory of the injected fault, present only
    /// when [`VmConfig::forensics`] was set *and* the fault fired.
    pub forensics: Option<Forensics>,
}

impl RunResult {
    /// Exports the run's counters through the unified metrics registry:
    /// `vm.cycles.{init,worker,fini,wall,cpu}`, `vm.instructions`,
    /// `vm.register_writes`, `vm.detections`, `vm.recoveries`,
    /// `vm.corrected_by_vote`, `vm.corrected_by_checksum`,
    /// `vm.mispredicts`, plus the `htm.*` family from [`HtmStats`].
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut m = MetricsSnapshot::new();
        m.set("vm.cycles.init", self.phases.init as f64);
        m.set("vm.cycles.worker", self.phases.worker as f64);
        m.set("vm.cycles.fini", self.phases.fini as f64);
        m.set("vm.cycles.wall", self.wall_cycles as f64);
        m.set("vm.cycles.cpu", self.cpu_cycles as f64);
        m.set("vm.instructions", self.instructions as f64);
        m.set("vm.register_writes", self.register_writes as f64);
        m.set("vm.detections", self.detections as f64);
        m.set("vm.recoveries", self.recoveries as f64);
        m.set("vm.corrected_by_vote", self.corrected_by_vote as f64);
        m.set("vm.corrected_by_checksum", self.corrected_by_checksum as f64);
        m.set("vm.mispredicts", self.mispredicts as f64);
        self.htm.export_metrics(&mut m);
        m
    }
}

/// One virtual register: its value and the cycle the value is ready.
/// Interleaved so that an operand read is one bounds check and one cache
/// line, and a frame owns one allocation.
#[derive(Clone, Copy, Debug, Default)]
struct Reg {
    val: u64,
    ready: u64,
}

/// One activation: where it executes and its register window, one
/// [`Reg`] per IR value of the function.
#[derive(Clone, Debug)]
struct Frame {
    func: FuncId,
    block: BlockId,
    idx: usize,
    regs: Vec<Reg>,
    /// Caller register to receive our return value.
    return_to: Option<ValueId>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ThreadState {
    Ready,
    Blocked { lock: u64 },
    Done,
}

#[derive(Clone, Debug)]
struct TxSnapshot {
    frames: Vec<Frame>,
    counter: u64,
}

/// The run's single-event upset, in the slot the register-write hook
/// reads.
#[derive(Clone, Copy, Debug)]
enum Upset {
    /// No fault planned.
    None,
    /// Planned, its register write not reached yet; `tid` is the thread
    /// that would make it, as far as the last look ([`Upset::arm_for`]).
    Armed { plan: FaultPlan, tid: usize },
    /// Applied on register write `occurrence`, made by thread `tid`.
    Fired { tid: usize, occurrence: u64 },
}

impl Upset {
    fn new(plan: FaultPlan) -> Self {
        Upset::Armed { plan, tid: 0 }
    }

    /// The plan, while it has not fired.
    fn armed(self) -> Option<FaultPlan> {
        match self {
            Upset::Armed { plan, .. } => Some(plan),
            _ => None,
        }
    }

    /// The armed plan's occurrence, `u64::MAX` with none armed, as thread
    /// `tid` is about to run: an armed plan takes `tid` as its thread.
    fn arm_for(&mut self, tid: usize) -> u64 {
        match self {
            Upset::Armed { plan, tid: by } => {
                *by = tid;
                plan.occurrence
            }
            _ => u64::MAX,
        }
    }
}

/// How a fork run by [`Vm::run_to_settlement`] ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ForkEnd {
    /// It ran to its end: exactly what [`Vm::run_to_end`] returns.
    Ended(Box<RunResult>),
    /// It stopped where it settled: at the rollback that erased its
    /// fault, or where its taint drained.
    Settled(Settlement),
}

/// A fork stopped where it settled: the transaction attempt its flip
/// landed in has aborted and restored everything the flip could reach, or
/// its taint has drained, so the rest of the run is the fault-free run
/// under another schedule. These are the counters the rest would not
/// change, as they stood.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Settlement {
    /// [`RunResult::recoveries`] so far.
    pub recoveries: u64,
    /// [`RunResult::corrected_by_vote`] so far.
    pub corrected_by_vote: u64,
    /// [`RunResult::corrected_by_checksum`] so far.
    pub corrected_by_checksum: u64,
    /// It settled where its taint set drained, not at a rollback.
    pub drained: bool,
    /// The forensics record, whose window had closed (forensics on only).
    pub forensics: Option<Forensics>,
}

/// One simulated thread: its frame stack, its [`Scoreboard`] (reset per
/// phase), its transaction state, and each engine's memory-ordering side
/// structures.
#[derive(Clone, Debug)]
struct Thread {
    frames: Vec<Frame>,
    state: ThreadState,
    sb: Scoreboard,
    /// TX pass instruction counter (thread-local in the paper).
    counter: u64,
    /// Current split threshold (fixed unless adaptive sizing is on).
    threshold: u64,
    /// Completion time of the last store per 8-byte cell, for store→load
    /// dependency chains (what makes accumulator loops latency-bound).
    store_done: HashMap<u64, u64>,
    /// Flat-nesting depth; outermost transaction is depth 1.
    tx_depth: u32,
    retries: u32,
    /// Retries exhausted: run non-transactionally until the next begin.
    fallback: bool,
    /// Register writes retired and the heap bump pointer when the open
    /// transaction attempt began (its outermost begin or its last retry).
    attempt: (u64, u64),
    snapshot: Option<TxSnapshot>,
    /// Speculative write buffer (byte overlay) of the open transaction.
    overlay: HashMap<u64, u8>,
    /// Addresses of currently elided locks.
    elided: Vec<u64>,
    tx_start_clock: u64,
    last_poll_clock: u64,
    /// 1-bit branch predictor, keyed by (func, inst).
    bp: HashMap<u64, bool>,
    emitted: Vec<u64>,
    /// Fused-engine speculative write buffer: word-granular overlay with
    /// per-byte masks. Same contents as `overlay`, cheaper to probe; only
    /// one of the two is ever populated (per [`Engine`]). Both exist —
    /// like `store_done`/`store_done_fast` and `bp`/`bp_dense` — because
    /// the byte-keyed `HashMap`s are the reference interpreter's spec
    /// that the open-addressed structures are differentially held to.
    fovl: engine::FastOverlay,
    /// Fused-engine `store_done` (open-addressed cell → completion time).
    store_done_fast: engine::CellMap,
    /// Fused-engine branch predictor: dense per-static-branch table
    /// (0 = unknown, 1 = last not-taken, 2 = last taken), indexed by the
    /// decode-time global conditional-branch id. Mirrors `bp` exactly.
    bp_dense: Vec<u8>,
}

impl Thread {
    fn new() -> Self {
        Thread {
            frames: Vec::new(),
            state: ThreadState::Done,
            sb: Scoreboard::new(),
            counter: 0,
            threshold: 0,
            store_done: HashMap::new(),
            tx_depth: 0,
            retries: 0,
            fallback: false,
            attempt: (0, 0),
            snapshot: None,
            overlay: HashMap::new(),
            elided: Vec::new(),
            tx_start_clock: 0,
            last_poll_clock: 0,
            bp: HashMap::new(),
            emitted: Vec::new(),
            fovl: engine::FastOverlay::new(),
            store_done_fast: engine::CellMap::new(),
            bp_dense: Vec::new(),
        }
    }

    fn in_tx(&self) -> bool {
        self.tx_depth > 0
    }
}

/// Control-flow signal from one interpreted instruction.
enum Flow {
    Continue,
    /// The whole program must stop with this outcome.
    Stop(RunOutcome),
    /// This thread finished its entry function.
    ThreadDone,
    /// This thread is blocked on a lock; retry the same instruction later.
    Blocked(u64),
    /// The run reached its pause point ([`Vm::advance_to`], or a settled
    /// fork's) before this op; nothing was executed.
    Pause,
}

/// Where a suspended run is, in the terms `run_phases`, `run_phase` and
/// `schedule` would otherwise keep on the Rust stack. Re-entering with an
/// unchanged cursor continues exactly where the run stopped: between two
/// ops, so nothing is ever executed twice or skipped.
#[derive(Clone, Copy, Debug, Default)]
struct Cursor {
    /// Phase in progress: 0 `init`, 1 `worker`, 2 `fini`, 3 past the end.
    phase: usize,
    /// The phase's threads are reset and running; re-entry must not
    /// reset them again.
    started: bool,
    /// `wall_cycles` when the phase started.
    before: u64,
    /// The scheduler window the run stopped inside: its horizon and the
    /// thread whose turn it was. `None` between windows.
    window: Option<(u64, usize)>,
    /// How the run ended, once it has.
    ended: Option<RunOutcome>,
}

/// Everything about a run that depends only on the module's functions and
/// its global *layout*: the decoded code and the pause slack. Build it
/// once ([`Prepared::new`]) and start any number of VMs against it
/// ([`Vm::start`], [`Vm::start_in`]) as long as those two stay the same;
/// global initial *bytes*, seeds, thread counts, fault plans, the
/// [`Engine`] and every [`VmConfig`] field may differ from run to run.
#[derive(Debug)]
pub struct Prepared {
    /// What [`Engine::Fused`] executes, and the vocabulary in which both
    /// engines name an op to the profiler and forensics hooks.
    decoded: decode::Decoded,
    /// The layout `decoded`'s constants were resolved against.
    global_bases: Vec<u64>,
    /// Most register writes one op can make: the largest group of phis
    /// at the head of any block (every CFG edge into it moves at most
    /// that many), at least 1. [`Vm::advance_to`] stops this far short of
    /// its target so the op boundary it finds is never past it.
    pause_slack: u64,
}

impl Prepared {
    /// Decodes `module` (and takes its fuse census).
    pub fn new(module: &Module) -> Self {
        let (global_bases, _) = Memory::layout(module);
        let decoded = decode::Decoded::decode(module, &global_bases);
        let pause_slack = module
            .funcs
            .iter()
            .flat_map(|f| f.blocks.iter().map(move |b| decode::lead_phis(f, b)))
            .max()
            .unwrap_or(0)
            .max(1) as u64;
        Prepared { decoded, global_bases, pause_slack }
    }
}

/// The virtual machine for one run.
pub struct Vm<'m> {
    m: &'m Module,
    cfg: VmConfig,
    spec: RunSpec<'m>,
    /// The decoded code ([`Prepared`]), attached by [`Vm::start`]. A bare
    /// [`Vm::new`] has none, and an empty spec: it never executes an op.
    dc: Option<&'m decode::Decoded>,
    /// [`Prepared::pause_slack`].
    pause_slack: u64,
    /// The run suspends at the first op boundary with `occ >= pause_at`;
    /// `u64::MAX` (never) except while [`Vm::advance_to`] runs, and `0`
    /// once a fork has settled ([`Vm::run_to_settlement`]).
    pause_at: u64,
    /// The instruction budget an abort must leave unspent to settle the
    /// run at a rollback; `None` (every run but
    /// [`Vm::run_to_settlement`]'s) never settles.
    settle_reserve: Option<u64>,
    cursor: Cursor,
    mem: Memory,
    htm: Htm,
    threads: Vec<Thread>,
    rng: Prng,
    lock_release_clock: HashMap<u64, u64>,
    occ: u64,
    instructions: u64,
    detections: u64,
    recoveries: u64,
    corrected_by_vote: u64,
    corrected_by_checksum: u64,
    mispredicts: u64,
    fault: Upset,
    wall_cycles: u64,
    cpu_cycles: u64,
    phases: PhaseCycles,
    /// Register-window pool for the fused engine: retired call frames
    /// donate their windows so calls stop allocating.
    pool: Vec<Vec<Reg>>,
    /// Scratch for parallel phi-move evaluation (fused engine).
    phi_scratch: Vec<(u32, u64, u64, Ty)>,
    /// Scratch for call-argument evaluation (fused engine).
    arg_scratch: Vec<u64>,
    /// The caller's trace sink, when tracing is attached
    /// ([`Vm::trace_into`]). Strictly observational: events read the
    /// virtual clock, never advance it, so a traced run is bit-identical
    /// to an untraced one.
    trace: Option<&'m mut TraceBuf>,
    /// Cycle-attribution state and the caller's profile it is written
    /// into at the end, when profiling is attached
    /// ([`Vm::profile_into`]); same observational contract as `trace`.
    profiler: Option<(Profiler, &'m mut CycleProfile)>,
    /// Taint-trajectory state, allocated only when a fault plan is armed
    /// and `cfg.forensics` is set or the run is a settling fork's — clean
    /// runs pay one `None` branch per register-only run (per instruction
    /// in the reference interpreter) and nothing else.
    forensics: Option<Box<forensics::ForensicsState>>,
}

impl<'m> Vm<'m> {
    /// Creates a VM over `module`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.htm` fails [`HtmConfig::validate`].
    pub fn new(module: &'m Module, cfg: VmConfig) -> Self {
        let mem = Memory::new(module, cfg.mem_bytes);
        Vm::over(module, cfg, mem)
    }

    /// [`Vm::new`] over the initial arena `mem`.
    fn over(module: &'m Module, cfg: VmConfig, mem: Memory) -> Self {
        let htm = Htm::new(cfg.htm.clone(), cfg.n_threads.max(1));
        let rng = Prng::new(cfg.seed);
        let n_threads = cfg.n_threads.max(1);
        let threads = (0..n_threads).map(|_| Thread::new()).collect();
        let fault = cfg.fault.map_or(Upset::None, Upset::new);
        let forensics = (cfg.forensics && cfg.fault.is_some())
            .then(|| Box::new(forensics::ForensicsState::new(n_threads, true)));
        Vm {
            m: module,
            cfg,
            spec: RunSpec::default(),
            dc: None,
            pause_slack: 1,
            pause_at: u64::MAX,
            settle_reserve: None,
            cursor: Cursor::default(),
            mem,
            htm,
            threads,
            rng,
            lock_release_clock: HashMap::new(),
            occ: 0,
            instructions: 0,
            detections: 0,
            recoveries: 0,
            corrected_by_vote: 0,
            corrected_by_checksum: 0,
            mispredicts: 0,
            fault,
            wall_cycles: 0,
            cpu_cycles: 0,
            phases: PhaseCycles::default(),
            pool: Vec::new(),
            phi_scratch: Vec::new(),
            arg_scratch: Vec::new(),
            trace: None,
            profiler: None,
            forensics,
        }
    }

    /// Decode-time fusion statistics exported through the unified
    /// metrics registry (`vm.fuse.*` names); does not run anything.
    pub fn fusion_metrics(module: &Module, cfg: &VmConfig) -> MetricsSnapshot {
        let mem = Memory::new(module, cfg.mem_bytes);
        let stats = decode::Decoded::decode(module, &mem.global_bases).stats;
        let mut m = MetricsSnapshot::new();
        m.set("vm.fuse.alu_pairs", stats.alu_pairs as f64);
        m.set("vm.fuse.cmp_br", stats.cmp_br as f64);
        m.set("vm.fuse.tx_brackets", stats.tx_brackets as f64);
        m.set("vm.fuse.vote_mem", stats.vote_mem as f64);
        m.set("vm.fuse.total", stats.total() as f64);
        m
    }

    /// Executes all phases of `spec` and returns the measurements:
    /// [`Prepared::new`], [`Vm::start`], [`Vm::run_to_end`].
    pub fn run(module: &'m Module, cfg: VmConfig, spec: RunSpec<'_>) -> RunResult {
        let prepared = Prepared::new(module);
        Vm::start(module, &prepared, cfg, spec).run_to_end()
    }

    /// A VM at the start of `spec`, about to run against `prepared`;
    /// nothing has executed yet. [`Vm::run_to_end`] runs it; observers
    /// attached first ([`Vm::trace_into`], [`Vm::profile_into`]) watch the
    /// run; [`Vm::advance_to`] and [`Vm::fork`] make it the fault-free
    /// *pilot* that injection runs branch off. Its result is bit-identical
    /// to a from-scratch [`Vm::run`]'s, however many runs share
    /// `prepared`.
    ///
    /// # Panics
    ///
    /// Panics if `prepared` was built for another function count or
    /// global layout than `module` has. (Different function *bodies*
    /// cannot be told apart here; keeping them fixed is the caller's side
    /// of the contract.)
    pub fn start(
        module: &'m Module,
        prepared: &'m Prepared,
        cfg: VmConfig,
        spec: RunSpec<'m>,
    ) -> Self {
        let mem = Memory::new(module, cfg.mem_bytes);
        Vm::start_in(module, prepared, cfg, spec, mem)
    }

    /// [`Vm::start`] from a caller-built initial arena instead of
    /// `Memory::new(module, cfg.mem_bytes)`: `mem` must be laid out for
    /// `module` ([`Memory::layout`]), and its bytes and size are the
    /// run's, whatever the module's global initialisers and
    /// `cfg.mem_bytes` say. A caller that serves many runs from one
    /// image clones it per run instead of building it.
    ///
    /// # Panics
    ///
    /// Panics if `prepared` or `mem` does not fit `module` (see
    /// [`Vm::start`]).
    pub fn start_in(
        module: &'m Module,
        prepared: &'m Prepared,
        cfg: VmConfig,
        spec: RunSpec<'m>,
        mem: Memory,
    ) -> Self {
        let (bases, _) = Memory::layout(module);
        assert!(
            prepared.decoded.funcs.len() == module.funcs.len()
                && prepared.global_bases == bases
                && mem.global_bases == bases,
            "{}: prepared or arena for another function list or global layout",
            module.name
        );
        let mut vm = Vm::over(module, cfg, mem);
        if vm.cfg.engine == Engine::Fused {
            for t in &mut vm.threads {
                t.bp_dense = vec![0u8; prepared.decoded.n_condbrs.max(1)];
            }
        }
        vm.spec = spec;
        vm.dc = Some(&prepared.decoded);
        vm.pause_slack = prepared.pause_slack;
        vm
    }

    /// Attaches tracing: phase/transaction spans and detection/vote
    /// instants are appended to `buf` as the run executes, timestamped in
    /// raw virtual cycles (embedding layers rescale; see `haft-trace`).
    /// Tracing is observational — the [`RunResult`] is bit-identical to
    /// an untraced run's, a contract pinned by the root differential
    /// tests.
    pub fn trace_into(&mut self, buf: &'m mut TraceBuf) {
        self.trace = Some(buf);
    }

    /// Attaches cycle-attribution profiling: [`Vm::run_to_end`] writes the
    /// run's histogram into `profile`, whose cell total then equals the
    /// result's `cpu_cycles` exactly. The run itself is bit-identical to
    /// an unprofiled one (the profiler's hooks are `None`-checked like
    /// the tracer's).
    ///
    /// # Panics
    ///
    /// Panics if the run has executed an op: the cycles before it would
    /// go uncharged.
    pub fn profile_into(&mut self, profile: &'m mut CycleProfile) {
        assert_eq!(self.instructions, 0, "a profile attaches before the run's first op");
        self.profiler = Some((Profiler::new(self.threads.len(), self.m.funcs.len()), profile));
    }

    /// Dynamic register writes retired so far (the fault-injection
    /// stream position); [`RunResult::register_writes`] once the run ends.
    pub fn register_writes(&self) -> u64 {
        self.occ
    }

    /// Runs until the next op would start at or past register write
    /// `occurrence − slack` — an op boundary that is never past
    /// `occurrence` itself, because `slack` is the most writes one op can
    /// make — or until the run ends, whichever comes first. A later call
    /// with a larger `occurrence` continues from there; one with a
    /// smaller or equal one returns at once.
    pub fn advance_to(&mut self, occurrence: u64) {
        self.pause_at = occurrence.saturating_sub(self.pause_slack);
        self.resume();
        self.pause_at = u64::MAX;
    }

    /// A copy of this suspended, fault-free run with `plan` armed: run to
    /// its end, it returns exactly what a from-scratch run with
    /// `cfg.fault = Some(plan)` and `cfg.forensics = forensics` returns.
    ///
    /// Every piece of state a later op can read is copied — memory, the
    /// HTM model, each thread, the scheduler's random stream and window,
    /// all counters. That is enough because a run's prefix does not
    /// depend on its plan: `fault` is read only by the register-write
    /// hook, which does nothing before write number `plan.occurrence`.
    /// Forensics state starts fresh for the same reason: it is inert
    /// until the flip seeds it. The register-window pool and the scratch
    /// vectors are allocation caches and start empty.
    ///
    /// # Panics
    ///
    /// Panics if this run was started with a fault plan, is traced or
    /// profiled (forks carry no instrumentation), or is already past
    /// `plan.occurrence` — the fork would run fault-free and read as
    /// "masked".
    pub fn fork(&self, plan: FaultPlan, forensics: bool) -> Vm<'m> {
        assert!(
            self.cfg.fault.is_none() && self.trace.is_none() && self.profiler.is_none(),
            "fork needs a fault-free, uninstrumented pilot"
        );
        assert!(
            self.occ <= plan.occurrence,
            "fork at register write {} is past the planned occurrence {}",
            self.occ,
            plan.occurrence
        );
        let n_threads = self.threads.len();
        Vm {
            m: self.m,
            cfg: VmConfig { fault: Some(plan), forensics, ..self.cfg.clone() },
            spec: self.spec,
            dc: self.dc,
            pause_slack: self.pause_slack,
            pause_at: u64::MAX,
            settle_reserve: None,
            cursor: self.cursor,
            mem: self.mem.clone(),
            htm: self.htm.clone(),
            threads: self.threads.clone(),
            rng: self.rng.clone(),
            lock_release_clock: self.lock_release_clock.clone(),
            occ: self.occ,
            instructions: self.instructions,
            detections: self.detections,
            recoveries: self.recoveries,
            corrected_by_vote: self.corrected_by_vote,
            corrected_by_checksum: self.corrected_by_checksum,
            mispredicts: self.mispredicts,
            fault: Upset::new(plan),
            wall_cycles: self.wall_cycles,
            cpu_cycles: self.cpu_cycles,
            phases: self.phases,
            pool: Vec::new(),
            phi_scratch: Vec::new(),
            arg_scratch: Vec::new(),
            trace: None,
            profiler: None,
            forensics: forensics.then(|| Box::new(forensics::ForensicsState::new(n_threads, true))),
        }
    }

    /// Runs (the rest of) the run and returns the measurements; fills the
    /// profile of [`Vm::profile_into`], if one is attached.
    pub fn run_to_end(mut self) -> RunResult {
        let outcome = self.resume().expect("no pause point is set");
        self.into_result(outcome)
    }

    /// [`Vm::run_to_end`] for a [fork](Vm::fork), except that it stops
    /// where the fork *settles*: where nothing its flip reached differs
    /// from the fault-free run any more, so that from there on the fork is
    /// the fault-free run under another schedule (a rolled-back thread's
    /// clock is later, a vote took longer). A campaign classifies it as a
    /// completed run with the reference output and the counters as they
    /// stood ([`Settlement`]). Either of two points settles it.
    ///
    /// **At a rollback**: the abort of the hardware transaction attempt
    /// the flip landed in. Everything the flip could have reached was that
    /// thread's registers and its speculative writes, and the rollback
    /// restored both. The abort settles the fork only if all of these
    /// hold; otherwise the fork runs on, and any later abort is another
    /// attempt's:
    /// - the flip was made by the aborting thread inside the attempt that
    ///   aborted — not outside a transaction, not in fallback mode, and not
    ///   in an attempt that committed before a later one aborted;
    /// - the heap bump pointer is where it was when that attempt began (an
    ///   allocation is the one effect a rollback does not undo, and the
    ///   retry would allocate again, elsewhere);
    /// - with forensics on, the record's window has closed (a
    ///   tainted-control flag, for one, outlives the rollback);
    /// - at least `reserve` instructions of the budget are left. A caller
    ///   passes the reference run's instruction count: a hang would then
    ///   need the rest of the fork to outrun the whole reference run.
    ///
    /// **Where its taint drains**, whatever the backend: the fork tracks
    /// the positional taint set its flip seeds (the forensics transfer;
    /// with forensics off it keeps no record), and settles at the op
    /// boundary where no register or memory byte is tainted and no
    /// transaction's undo log could bring one back — a TMR copy outvoted
    /// and then rewritten, a flip into a value nothing reads. A drain
    /// settles the fork only if at least `reserve` instructions of the
    /// budget are left and none of these happened after the flip, each of
    /// which can leave state differing untainted:
    /// - a tainted value decided a branch or an indirect call;
    /// - a store, RMW, compare-exchange, lock or unlock went through a
    ///   tainted address (the cell meant goes stale);
    /// - an allocation had a tainted size, or an aborted attempt allocated
    ///   (either moves the heap pointer off the fault-free run's);
    /// - a tainted value was emitted.
    ///
    /// With forensics on, the record still freezes at its first detector
    /// and tracking goes on past it only to see the drain. That
    /// settle-only window is capped at 256 ops or 1/64 of the rest of
    /// the reference run, whichever is more: past it the fork drops the
    /// taint state and runs at run speed, as it would without settling.
    pub fn run_to_settlement(mut self, reserve: u64) -> ForkEnd {
        self.settle_reserve = Some(reserve);
        if let (Some(_), Some(last)) =
            (self.cfg.fault, self.cfg.max_instructions.checked_sub(reserve))
        {
            let n_threads = self.threads.len();
            self.forensics
                .get_or_insert_with(|| Box::new(forensics::ForensicsState::new(n_threads, false)))
                .settle_within(last, reserve);
        }
        match self.resume() {
            Some(outcome) => ForkEnd::Ended(Box::new(self.into_result(outcome))),
            None => ForkEnd::Settled(Settlement {
                recoveries: self.recoveries,
                corrected_by_vote: self.corrected_by_vote,
                corrected_by_checksum: self.corrected_by_checksum,
                drained: self.forensics.as_deref().is_some_and(|fx| fx.drained),
                forensics: self.conclude_forensics(RunOutcome::Completed),
            }),
        }
    }

    /// Runs, or re-enters a suspended run, until it ends (`Some`) or
    /// reaches the pause point (`None`; `cursor` holds the position).
    fn resume(&mut self) -> Option<RunOutcome> {
        if self.cursor.ended.is_none() {
            self.cursor.ended = Some(self.run_phases()?);
        }
        self.cursor.ended
    }

    fn run_phases(&mut self) -> Option<RunOutcome> {
        const SPANS: [&str; 3] = ["phase.init", "phase.worker", "phase.fini"];
        let entries = [self.spec.init, self.spec.worker, self.spec.fini];
        while let Some(&entry) = entries.get(self.cursor.phase) {
            if let Some(name) = entry {
                let out = self.run_phase(name, self.cursor.phase == 1)?;
                let before = self.cursor.before;
                let cycles = self.wall_cycles - before;
                match self.cursor.phase {
                    0 => self.phases.init = cycles,
                    1 => self.phases.worker = cycles,
                    _ => self.phases.fini = cycles,
                }
                self.trace_phase(SPANS[self.cursor.phase], before);
                if out != RunOutcome::Completed {
                    return Some(out);
                }
            }
            self.cursor.phase += 1;
        }
        Some(RunOutcome::Completed)
    }

    /// Emits one phase span covering `[before, wall_cycles)` (raw cycles).
    fn trace_phase(&mut self, name: &'static str, before: u64) {
        let dur = self.wall_cycles - before;
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.push(TraceEvent::span("vm", name, before, dur));
        }
    }

    fn into_result(mut self, outcome: RunOutcome) -> RunResult {
        // A plan still armed must lie beyond the stream; one the stream
        // has passed means the run skipped its flip (a fork taken late).
        if let Some(plan) = self.fault.armed() {
            assert!(
                plan.occurrence >= self.occ,
                "run ended at register write {} with the fault planned at {} never applied",
                self.occ,
                plan.occurrence
            );
        }
        let forensics = self.conclude_forensics(outcome);
        if let Some((profiler, out)) = self.profiler.take() {
            *out = profiler.into_profile(|fid| self.m.func(FuncId(fid)).name.clone());
        }
        // Account an open transaction's cycles (e.g. stopped mid-tx).
        for t in &mut self.threads {
            if t.in_tx() {
                self.htm.stats.tx_cycles += t.sb.clock.saturating_sub(t.tx_start_clock);
            }
        }
        self.htm.stats.total_cycles = self.cpu_cycles;
        let mut output = Vec::new();
        for t in &self.threads {
            output.extend_from_slice(&t.emitted);
        }
        RunResult {
            outcome,
            output,
            wall_cycles: self.wall_cycles,
            phases: self.phases,
            cpu_cycles: self.cpu_cycles,
            instructions: self.instructions,
            register_writes: self.occ,
            htm: self.htm.stats.clone(),
            detections: self.detections,
            recoveries: self.recoveries,
            corrected_by_vote: self.corrected_by_vote,
            corrected_by_checksum: self.corrected_by_checksum,
            mispredicts: self.mispredicts,
            forensics,
        }
    }

    fn func_id(&self, name: &str) -> FuncId {
        self.m.func_by_name(name).unwrap_or_else(|| panic!("no function named {name}"))
    }

    fn code(&self) -> &'m decode::Decoded {
        self.dc.expect("Vm::start attaches the decoded code")
    }

    /// A frame at the entry of `fid`, its parameters set to `args`. The
    /// register window comes from the pool when a returned call has
    /// donated one (the fused engine's `Ret` does; the reference
    /// interpreter's does not, and always allocates).
    fn make_frame(&mut self, fid: FuncId, args: &[u64], return_to: Option<ValueId>) -> Frame {
        let df = &self.code().funcs[fid.0 as usize];
        assert_eq!(df.n_params, args.len(), "arity mismatch calling {}", self.m.func(fid).name);
        let mut regs = self.pool.pop().unwrap_or_default();
        regs.clear();
        regs.resize(df.n_values, Reg::default());
        for (i, a) in args.iter().enumerate() {
            regs[i].val = a & df.param_masks[i];
        }
        Frame { func: fid, block: BlockId(0), idx: 0, regs, return_to }
    }

    fn reset_thread_for(&mut self, tid: usize, fid: FuncId, args: &[u64]) {
        let frame = self.make_frame(fid, args, None);
        let t = &mut self.threads[tid];
        t.frames = vec![frame];
        t.state = ThreadState::Ready;
        t.sb.reset();
        t.counter = 0;
        t.threshold = self.cfg.tx_threshold;
        t.store_done.clear();
        t.tx_depth = 0;
        t.retries = 0;
        t.fallback = false;
        t.snapshot = None;
        t.overlay.clear();
        t.elided.clear();
        t.last_poll_clock = 0;
        t.fovl.clear();
        t.store_done_fast.clear();
        if let Some(fx) = self.forensics.as_deref_mut() {
            // Phase boundary: the fresh frame stack invalidates this
            // thread's positional register taint.
            fx.purge_thread(tid);
        }
    }

    /// One phase: `name` on thread 0 alone (a serial phase, `fn()`), or
    /// on every thread as `name(tid, n)` (the parallel phase).
    fn run_phase(&mut self, name: &str, parallel: bool) -> Option<RunOutcome> {
        let n = if parallel { self.cfg.n_threads.max(1) } else { 1 };
        if !self.cursor.started {
            self.cursor.before = self.wall_cycles;
            let fid = self.func_id(name);
            let n_params = self.m.func(fid).params.len();
            if parallel {
                assert_eq!(n_params, 2, "worker {name} must take (tid, n)");
            } else {
                assert!(n_params == 0, "serial phase {name} must take no params");
            }
            for tid in 0..n {
                let args = [tid as u64, n as u64];
                self.reset_thread_for(tid, fid, &args[..n_params]);
                if let Some((p, _)) = self.profiler.as_mut() {
                    p.phase_start(tid);
                }
            }
            self.cursor.started = true;
        }
        let out = self.schedule(n)?;
        self.cursor.started = false;
        if let Some((p, _)) = self.profiler.as_mut() {
            for tid in 0..n {
                p.flush(tid, self.threads[tid].sb.clock);
            }
        }
        // Serial phases have one thread, so slowest == sum == its clock.
        let clocks = self.threads[..n].iter().map(|t| t.sb.clock);
        self.wall_cycles += clocks.clone().max().unwrap_or(0);
        self.cpu_cycles += clocks.sum::<u64>();
        Some(out)
    }

    /// Clock-windowed scheduler: conservative discrete-event execution.
    ///
    /// All runnable threads are advanced to a common simulated-time
    /// horizon before any thread may move past it, so per-thread clocks
    /// stay within one window of each other. Transaction lifetimes and
    /// remote accesses then overlap as they would on real concurrent
    /// cores — the property the HTM conflict model needs (a naive
    /// round-robin quantum scheduler leaves transactions open across
    /// other threads' entire quanta and inflates conflict rates by an
    /// order of magnitude).
    ///
    /// Runs threads `0..n`; `None` means the run suspended inside a
    /// window, which the next call re-opens where it stopped.
    fn schedule(&mut self, n: usize) -> Option<RunOutcome> {
        let d = self.code();
        let fused = self.cfg.engine == Engine::Fused;
        loop {
            let (horizon, first) = match self.cursor.window.take() {
                Some(open) => open,
                None => {
                    // Unblock pass: threads whose lock was released
                    // become ready.
                    let mut all_done = true;
                    for tid in 0..n {
                        match self.threads[tid].state {
                            ThreadState::Done => {}
                            ThreadState::Blocked { lock } => {
                                all_done = false;
                                if self.mem.load(lock, 8).map(|v| v == 0).unwrap_or(false) {
                                    self.threads[tid].state = ThreadState::Ready;
                                }
                            }
                            ThreadState::Ready => all_done = false,
                        }
                    }
                    if all_done {
                        return Some(RunOutcome::Completed);
                    }

                    // Horizon: smallest ready clock plus one jittered
                    // window.
                    let window = self.cfg.quantum.max(2);
                    let min_clock = self.threads[..n]
                        .iter()
                        .filter(|t| t.state == ThreadState::Ready)
                        .map(|t| t.sb.clock)
                        .min();
                    let Some(min_clock) = min_clock else {
                        // Live threads exist but all are blocked and
                        // nobody can release a lock: deadlock, surfacing
                        // as a hang.
                        return Some(RunOutcome::Hang);
                    };
                    (min_clock + window / 2 + self.rng.below(window), 0)
                }
            };

            // The two engines share this exact window protocol: per
            // micro-op the order is [horizon check, budget check, pause
            // check, step]. The fused engine's register-only runs end
            // wherever one of those checks would fire and replay them in
            // this order, so the streams stay aligned. The pause check
            // sits where both other checks have just passed, so
            // re-entering the window repeats them with the same answers
            // and changes nothing.
            for tid in first..n {
                if self.threads[tid].state != ThreadState::Ready {
                    continue;
                }
                while self.threads[tid].sb.clock < horizon {
                    if self.instructions >= self.cfg.max_instructions {
                        return Some(RunOutcome::Hang);
                    }
                    let flow = if fused {
                        self.step_fused(tid, horizon, d)
                    } else if self.occ >= self.pause_at {
                        Flow::Pause
                    } else {
                        self.step(tid, d)
                    };
                    match flow {
                        Flow::Continue => {}
                        Flow::Stop(o) => return Some(o),
                        Flow::ThreadDone => {
                            self.threads[tid].state = ThreadState::Done;
                            break;
                        }
                        Flow::Blocked(lock) => {
                            self.threads[tid].state = ThreadState::Blocked { lock };
                            break;
                        }
                        Flow::Pause => {
                            self.cursor.window = Some((horizon, tid));
                            return None;
                        }
                    }
                }
            }
        }
    }

    // --- transaction runtime -------------------------------------------------

    fn tx_begin(&mut self, tid: usize, at: u64) {
        if self.threads[tid].in_tx() {
            self.threads[tid].tx_depth += 1;
            return;
        }
        let clock = at;
        self.htm.begin(tid, clock);
        let t = &mut self.threads[tid];
        t.tx_depth = 1;
        t.retries = 0;
        t.fallback = false;
        t.attempt = (self.occ, self.mem.heap_next());
        t.counter = 0;
        t.tx_start_clock = clock;
        t.last_poll_clock = clock;
        t.snapshot = Some(TxSnapshot { frames: t.frames.clone(), counter: 0 });
    }

    fn tx_commit(&mut self, tid: usize) -> Result<(), AbortCause> {
        if let Some(cause) = self.htm.doomed(tid) {
            return Err(cause);
        }
        // Flush the speculative write buffer (whichever engine's buffer
        // is populated; the other is empty).
        let overlay = std::mem::take(&mut self.threads[tid].overlay);
        for (addr, byte) in overlay {
            // Bounds were checked when buffering.
            let _ = self.mem.store_byte(addr, byte);
        }
        self.threads[tid].fovl.flush_into(&mut self.mem);
        self.htm.commit(tid);
        let max_threshold = self.cfg.tx_threshold;
        let adaptive = self.cfg.adaptive_threshold;
        let t = &mut self.threads[tid];
        t.tx_depth = 0;
        t.snapshot = None;
        t.elided.clear();
        t.retries = 0;
        if adaptive {
            // Additive-ish recovery toward the configured maximum.
            t.threshold = (t.threshold + t.threshold / 8 + 1).min(max_threshold);
        }
        self.htm.stats.tx_cycles += t.sb.clock.saturating_sub(t.tx_start_clock);
        if let Some(tr) = self.trace.as_deref_mut() {
            let start = t.tx_start_clock;
            let dur = t.sb.clock.saturating_sub(start);
            tr.push(
                TraceEvent::span("htm", "tx.commit", self.wall_cycles + start, dur)
                    .lane(0, tid as u32),
            );
        }
        if let Some(fx) = self.forensics.as_deref_mut() {
            fx.on_commit(tid);
        }
        Ok(())
    }

    /// Rolls back after an abort; decides between retry and fallback.
    fn tx_abort(&mut self, tid: usize, cause: AbortCause) {
        self.htm.abort(tid, cause);
        let adaptive = self.cfg.adaptive_threshold;
        let t = &mut self.threads[tid];
        if adaptive && cause != AbortCause::IlrDetected {
            // Multiplicative back-off: shorter transactions shrink both
            // the conflict window and the wasted work per abort.
            t.threshold = (t.threshold / 2).max(250);
        }
        self.htm.stats.tx_cycles += t.sb.clock.saturating_sub(t.tx_start_clock);
        let snap = t.snapshot.as_ref().expect("abort without snapshot");
        t.frames = snap.frames.clone();
        t.counter = snap.counter;
        t.overlay.clear();
        t.fovl.clear();
        t.elided.clear();
        t.tx_depth = 0;
        if self.trace.is_some() || self.profiler.is_some() {
            let start = t.tx_start_clock;
            let now = t.sb.clock;
            // Post-restore frame: the rollback penalty is charged where
            // execution resumes.
            let fid = t.frames.last().map(|f| f.func.0).unwrap_or(u32::MAX);
            if let Some(tr) = self.trace.as_deref_mut() {
                tr.push(
                    TraceEvent::span(
                        "htm",
                        "tx.abort",
                        self.wall_cycles + start,
                        now.saturating_sub(start),
                    )
                    .lane(0, tid as u32)
                    .arg("cause", cause.to_string()),
                );
            }
            if let Some((p, _)) = self.profiler.as_mut() {
                p.abort(tid, now, fid);
            }
        }
        let resume = t.sb.clock + cost::ABORT_PENALTY;
        t.sb.flush_to(resume);
        let aborted = t.attempt;
        let allocated = self.mem.heap_next() != aborted.1;
        // Roll the shadow set back with the architectural state; if the
        // rollback erased the last live corruption, the HTM recovered the
        // fault, and the drain may settle the fork.
        let drained = self.forensics.as_deref_mut().is_some_and(|fx| {
            fx.on_abort(tid, allocated, self.instructions, self.wall_cycles + t.sb.clock)
        });
        t.retries += 1;
        if t.retries <= MAX_TX_RETRIES {
            // Retry transactionally from the snapshot point.
            let clock = t.sb.clock;
            t.tx_depth = 1;
            t.tx_start_clock = clock;
            t.last_poll_clock = clock;
            t.attempt = (self.occ, self.mem.heap_next());
            self.htm.begin(tid, clock);
        } else {
            // Fall back to non-transactional execution until the next
            // begin (paper §3: best-effort recovery).
            t.snapshot = None;
            t.fallback = true;
            self.htm.note_fallback();
        }
        // A rollback that settles counts as one even where it drained the
        // set as well.
        if self.settles(tid, aborted) {
            self.settle_now(false);
        } else if drained {
            self.settle_now(true);
        }
    }

    /// Settles the fork, at a drain of its taint set or at a rollback: it
    /// stops at the next op boundary, the way a pause does.
    fn settle_now(&mut self, drained: bool) {
        self.pause_at = 0;
        if let Some(fx) = self.forensics.as_deref_mut() {
            fx.drained = drained;
        }
    }

    /// Whether thread `tid`'s abort of the attempt that began at `aborted`
    /// (register writes, heap pointer) settles a [`Vm::run_to_settlement`]
    /// fork; that method lists the conditions.
    fn settles(&self, tid: usize, (occ, heap): (u64, u64)) -> bool {
        let Some(reserve) = self.settle_reserve else { return false };
        let Upset::Fired { tid: flipped, occurrence } = self.fault else { return false };
        flipped == tid
            && occurrence >= occ
            && self.mem.heap_next() == heap
            && self.forensics.as_deref().is_none_or(|fx| fx.closed())
            && self.cfg.max_instructions.saturating_sub(self.instructions) >= reserve
    }

    /// Handles `tx_abort` IR instructions (ILR detections).
    fn ilr_detect(&mut self, tid: usize) -> Flow {
        self.detections += 1;
        if self.forensics.is_some() {
            // On a single-fault run any ILR divergence *is* the injected
            // fault (clean shadows never diverge): finalize here, before
            // the rollback path mutates the shadow set.
            let now = self.wall_cycles + self.threads[tid].sb.clock;
            let insts = self.instructions;
            self.forensics.as_deref_mut().unwrap().detect(
                forensics::FaultDetector::Ilr,
                insts,
                now,
            );
        }
        if let Some(tr) = self.trace.as_deref_mut() {
            let ts = self.wall_cycles + self.threads[tid].sb.clock;
            tr.push(TraceEvent::instant("vm", "ilr.detect", ts).lane(0, tid as u32));
        }
        if self.threads[tid].in_tx() {
            self.recoveries += 1;
            self.tx_abort(tid, AbortCause::IlrDetected);
            Flow::Continue
        } else {
            // Fail-stop: the paper's ILR-detected outcome.
            Flow::Stop(RunOutcome::Detected)
        }
    }

    /// Handles a trap raised while transactional (a synchronous exception
    /// aborts the transaction like any interrupt) or not (OS-detected).
    fn trap(&mut self, tid: usize, trap: Trap) -> Flow {
        if self.threads[tid].in_tx() {
            self.tx_abort(tid, AbortCause::Unfriendly);
            Flow::Continue
        } else {
            Flow::Stop(RunOutcome::Trapped(trap))
        }
    }

    // --- transactional memory data path ----------------------------------------

    fn mem_load(&mut self, tid: usize, addr: u64, len: u32) -> Result<u64, Trap> {
        if self.threads[tid].in_tx() && !self.threads[tid].overlay.is_empty() {
            // Byte-wise read-through of the speculative buffer.
            self.mem.load(addr, len)?; // Bounds check.
            let mut v = 0u64;
            for i in (0..len as usize).rev() {
                let a = addr + i as u64;
                let b = match self.threads[tid].overlay.get(&a) {
                    Some(b) => *b,
                    None => self.mem.byte(a),
                };
                v = (v << 8) | b as u64;
            }
            Ok(v)
        } else if self.threads[tid].in_tx() && !self.threads[tid].fovl.is_empty() {
            // Fused-engine buffer: same read-through semantics, probed at
            // word granularity.
            let base = self.mem.load(addr, len)?; // Bounds check + memory bytes.
            Ok(self.threads[tid].fovl.merge(addr, len, base))
        } else {
            self.mem.load(addr, len)
        }
    }

    // --- per-op hooks ------------------------------------------------------------
    //
    // Execution is written twice, observation once: each engine fetches
    // and pre-advances in its own pc format, names the op as a `DOp`, and
    // brackets its execution with this pair — the reference interpreter
    // every op, the fused engine the ops it steps singly (`engine.rs`: a
    // run settles its profile at its exit and is never taken while the
    // taint transfer has anything to see).

    /// Before an op executes: the profiler's fetch, then the taint
    /// transfer (which must see the operands before control ops — `Ret`,
    /// `Br` — invalidate them).
    #[inline(always)]
    fn before_op(&mut self, tid: usize, fid: u32, op: &decode::DOp, d: &decode::Decoded) {
        if let Some((p, _)) = self.profiler.as_mut() {
            p.fetch(tid, self.threads[tid].sb.clock, fid, OpClass::of(op));
        }
        if self.forensics.is_some() {
            self.forensics_transfer(tid, op, d);
        }
    }

    /// After an op executed with `flow`, which it passes on.
    #[inline(always)]
    fn after_op(&mut self, tid: usize, op: &decode::DOp, flow: Flow) -> Flow {
        if self.forensics.is_some() {
            // If this op's register write was the flip, the seed
            // completes now that its op class and timing are known.
            self.forensics_seed_complete(tid, OpClass::of(op));
        }
        // A blocked lock acquisition must be retried: rewind the pc and
        // undo the instruction count.
        if let Flow::Blocked(_) = flow {
            self.threads[tid].frames.last_mut().expect("live frame").idx -= 1;
            self.instructions -= 1;
        }
        self.poll_tx(tid);
        flow
    }

    /// Time-based asynchronous aborts: polled after every op.
    #[inline(always)]
    fn poll_tx(&mut self, tid: usize) {
        let t = &mut self.threads[tid];
        if t.in_tx() {
            let now = t.sb.clock;
            if now > t.last_poll_clock + 256 {
                let delta = now - t.last_poll_clock;
                t.last_poll_clock = now;
                self.htm.poll_async(tid, now, delta, &mut self.rng);
            }
        }
    }

    // --- intrinsics with one body --------------------------------------------------
    //
    // The HAFT runtime ops that read no operand, or whose effect starts
    // once the engine has read its own.

    fn exec_tx_begin(&mut self, tid: usize) -> Flow {
        // XBEGIN drains the pipeline: the checkpoint covers all earlier
        // work, and speculation starts after it.
        let done = self.threads[tid].sb.issue_serial(cost::LAT_TX_BEGIN);
        self.tx_begin(tid, done);
        Flow::Continue
    }

    fn exec_tx_end(&mut self, tid: usize) -> Flow {
        let t = &mut self.threads[tid];
        if t.tx_depth > 1 {
            t.tx_depth -= 1;
            t.sb.issue(0, cost::LAT_INT);
        } else if t.in_tx() {
            t.sb.issue_serial(cost::LAT_TX_END);
            if let Err(cause) = self.tx_commit(tid) {
                self.tx_abort(tid, cause);
            }
        } else {
            // Fallback mode: nothing to commit.
            t.sb.issue(0, cost::LAT_INT);
        }
        Flow::Continue
    }

    /// A `tx_cond_split` that is due — counter at the threshold, no lock
    /// elided — once its check has issued: commit and reopen, or re-enter
    /// transactional mode after a fallback.
    fn exec_tx_split(&mut self, tid: usize) -> Flow {
        let t = &mut self.threads[tid];
        if t.in_tx() {
            t.sb.issue_serial(cost::LAT_TX_END);
            if let Err(cause) = self.tx_commit(tid) {
                self.tx_abort(tid, cause);
                return Flow::Continue;
            }
        }
        self.exec_tx_begin(tid)
    }

    fn exec_abort_explicit(&mut self, tid: usize) -> Flow {
        if self.threads[tid].in_tx() {
            self.tx_abort(tid, AbortCause::Explicit);
            Flow::Continue
        } else {
            Flow::Stop(RunOutcome::Detected)
        }
    }

    fn exec_emit(&mut self, tid: usize, val: u64) -> Flow {
        if self.threads[tid].in_tx() {
            // Externalization cannot happen speculatively: abort first
            // (TSX: unfriendly instruction), and emit only once we are
            // executing non-transactionally.
            self.tx_abort(tid, AbortCause::Unfriendly);
        } else {
            let t = &mut self.threads[tid];
            t.sb.issue_serial(cost::LAT_EMIT);
            t.emitted.push(val);
        }
        Flow::Continue
    }

    /// The decision of a three-way synchronization point over the copies
    /// `[a, b, c]`: a TMR `vote` (Elzar's `vote()`), or with `checksum` an
    /// ABFT `chk_correct`, whose three redundant lanes likewise agree in a
    /// fault-free run (the row×column intersection pinpoints exactly one
    /// element). A single divergent copy is outvoted — masked in place,
    /// counted, and execution continues with the majority value. `None`
    /// if all three differ: the point can detect but not correct, and the
    /// caller takes [`Vm::ilr_detect`] (rollback inside a transaction,
    /// fail-stop outside).
    fn majority(&mut self, tid: usize, checksum: bool, [a, b, c]: [u64; 3]) -> Option<u64> {
        let v = if a == b || a == c {
            a
        } else if b == c {
            b
        } else {
            return None;
        };
        if a != b || a != c {
            let (event, detector) = if checksum {
                self.corrected_by_checksum += 1;
                ("abft.correct", FaultDetector::Checksum)
            } else {
                self.corrected_by_vote += 1;
                ("vote.correct", FaultDetector::Vote)
            };
            // Stamped before the point itself issues.
            let now = self.wall_cycles + self.threads[tid].sb.clock;
            if let Some(tr) = self.trace.as_deref_mut() {
                tr.push(TraceEvent::instant("vm", event, now).lane(0, tid as u32));
            }
            if let Some(fx) = self.forensics.as_deref_mut() {
                fx.detect(detector, self.instructions, now);
            }
        }
        Some(v)
    }

    fn exec_lock(&mut self, tid: usize, addr: u64, ready: u64) -> Flow {
        if self.threads[tid].in_tx() {
            if self.cfg.lock_elision {
                // Elide: read the lock word into the read set; any real
                // acquisition by another thread will conflict-abort us.
                self.htm.access(tid, addr, 8, AccessKind::Read);
                match self.mem_load(tid, addr, 8) {
                    Ok(0) => {
                        self.threads[tid].sb.issue(ready, cost::LAT_LOAD_HIT);
                        self.threads[tid].elided.push(addr);
                        Flow::Continue
                    }
                    Ok(_) => {
                        // Lock currently held: cannot elide safely.
                        self.tx_abort(tid, AbortCause::Explicit);
                        Flow::Continue
                    }
                    Err(t) => self.trap(tid, t),
                }
            } else {
                // A blocking lock inside a transaction cannot succeed
                // (the write would conflict with the owner): abort.
                self.tx_abort(tid, AbortCause::Unfriendly);
                Flow::Continue
            }
        } else {
            match self.mem.load(addr, 8) {
                Ok(0) => {
                    self.htm.access(tid, addr, 8, AccessKind::Write);
                    if self.mem.store(addr, 8, tid as u64 + 1).is_err() {
                        return self.trap(tid, Trap::OutOfBounds { addr, len: 8 });
                    }
                    // Serialization: we cannot hold the lock before its
                    // previous owner released it (cross-thread clock sync).
                    let release = self.lock_release_clock.get(&addr).copied().unwrap_or(0);
                    let t = &mut self.threads[tid];
                    t.sb.flush_to(release);
                    t.sb.issue_serial(cost::LAT_LOCK);
                    Flow::Continue
                }
                Ok(_) => Flow::Blocked(addr),
                Err(t) => self.trap(tid, t),
            }
        }
    }

    fn exec_unlock(&mut self, tid: usize, addr: u64, ready: u64) -> Flow {
        if self.threads[tid].elided.last() == Some(&addr) {
            self.threads[tid].elided.pop();
            self.threads[tid].sb.issue(ready, cost::LAT_INT);
            return Flow::Continue;
        }
        if self.threads[tid].in_tx() {
            // Unlock of a non-elided lock inside a transaction: unfriendly.
            self.tx_abort(tid, AbortCause::Unfriendly);
            return Flow::Continue;
        }
        self.htm.access(tid, addr, 8, AccessKind::Write);
        let _ = ready;
        match self.mem.store(addr, 8, 0) {
            Ok(()) => {
                let done = self.threads[tid].sb.issue_serial(cost::LAT_UNLOCK);
                self.lock_release_clock.insert(addr, done);
                Flow::Continue
            }
            Err(t) => self.trap(tid, t),
        }
    }
}

// --- pure evaluation helpers ---------------------------------------------------

#[inline(always)]
fn eval_bin(op: BinOp, ty: Ty, a: u64, b: u64) -> Result<u64, Trap> {
    use BinOp::*;
    if op.is_float() {
        let x = f64::from_bits(a);
        let y = f64::from_bits(b);
        let r = match op {
            FAdd => x + y,
            FSub => x - y,
            FMul => x * y,
            FDiv => x / y,
            _ => unreachable!(),
        };
        return Ok(r.to_bits());
    }
    let ua = a & ty.mask();
    let ub = b & ty.mask();
    // Shift counts wrap at the type's width, a power of two.
    let count = || (ub & (ty.bits() as u64 - 1)) as u32;
    let v = match op {
        Add => ua.wrapping_add(ub),
        Sub => ua.wrapping_sub(ub),
        Mul => ua.wrapping_mul(ub),
        // A sign-extended value is zero exactly when its masked bits are.
        SDiv | UDiv | SRem | URem if ub == 0 => return Err(Trap::DivByZero),
        SDiv => ty.sext(a).wrapping_div(ty.sext(b)) as u64,
        UDiv => ua / ub,
        SRem => ty.sext(a).wrapping_rem(ty.sext(b)) as u64,
        URem => ua % ub,
        And => ua & ub,
        Or => ua | ub,
        Xor => ua ^ ub,
        Shl => ua.wrapping_shl(count()),
        LShr => ua.wrapping_shr(count()),
        AShr => (ty.sext(a) >> count()) as u64,
        FAdd | FSub | FMul | FDiv => unreachable!(),
    };
    Ok(v & ty.mask())
}

#[inline(always)]
fn eval_un(op: UnOp, ty: Ty, a: u64) -> u64 {
    match op {
        UnOp::Neg => (ty.sext(a).wrapping_neg() as u64) & ty.mask(),
        UnOp::Not => !a & ty.mask(),
        UnOp::FNeg => (-f64::from_bits(a)).to_bits(),
        UnOp::FSqrt => f64::from_bits(a).sqrt().to_bits(),
        UnOp::FExp => f64::from_bits(a).exp().to_bits(),
        UnOp::FLn => f64::from_bits(a).ln().to_bits(),
        UnOp::FAbs => f64::from_bits(a).abs().to_bits(),
    }
}

#[inline(always)]
fn eval_cmp(op: CmpOp, ty: Ty, a: u64, b: u64) -> bool {
    use CmpOp::*;
    match op {
        Eq => (a & ty.mask()) == (b & ty.mask()),
        Ne => (a & ty.mask()) != (b & ty.mask()),
        SLt => ty.sext(a) < ty.sext(b),
        SLe => ty.sext(a) <= ty.sext(b),
        SGt => ty.sext(a) > ty.sext(b),
        SGe => ty.sext(a) >= ty.sext(b),
        ULt => (a & ty.mask()) < (b & ty.mask()),
        ULe => (a & ty.mask()) <= (b & ty.mask()),
        UGt => (a & ty.mask()) > (b & ty.mask()),
        UGe => (a & ty.mask()) >= (b & ty.mask()),
        FLt => f64::from_bits(a) < f64::from_bits(b),
        FLe => f64::from_bits(a) <= f64::from_bits(b),
        FGt => f64::from_bits(a) > f64::from_bits(b),
        FGe => f64::from_bits(a) >= f64::from_bits(b),
        FEq => f64::from_bits(a) == f64::from_bits(b),
        FNe => f64::from_bits(a) != f64::from_bits(b),
    }
}

#[inline(always)]
fn eval_cast(kind: CastKind, from: Ty, to: Ty, a: u64) -> u64 {
    match kind {
        CastKind::ZExt => (a & from.mask()) & to.mask(),
        CastKind::SExt => (from.sext(a) as u64) & to.mask(),
        CastKind::Trunc => a & to.mask(),
        CastKind::SiToFp => (from.sext(a) as f64).to_bits(),
        CastKind::FpToSi => {
            let f = f64::from_bits(a);
            let i = if f.is_nan() { 0 } else { f.clamp(i64::MIN as f64, i64::MAX as f64) as i64 };
            (i as u64) & to.mask()
        }
        CastKind::Bitcast => a & to.mask(),
    }
}

mod decode;
mod engine;
mod forensics;
mod fuse;
mod profile;
mod reference;

pub use forensics::{FaultDetector, FaultSite, Forensics};
pub use profile::{CycleProfile, OpClass as ProfileOpClass, ProfileCell};

pub use fuse::FuseStats;

#[cfg(test)]
mod tests;
