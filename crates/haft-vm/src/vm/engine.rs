//! The fused execution engine: dense dispatch over decoded code.
//!
//! `step_fused` is the `Fused` counterpart of `Vm::step`
//! (`reference.rs`, the spec) and mirrors it micro-op for micro-op —
//! same HTM access order, same scoreboard calls, same trap and abort
//! paths, same register-write (fault-injection) stream. Compute, memory,
//! branch, call and return ops are written here a second time on
//! purpose (the differential tests compare the two); the per-op hooks
//! and the runtime intrinsics that read no operand are the one copy in
//! `vm.rs`, called from both. What changes is purely the mechanics: the
//! frame's `idx` is a flat pc into `DFunc::code`, branch prediction uses
//! a dense per-site table instead of a hash map, store→load forwarding
//! and the transactional write buffer use open-addressed cell maps
//! instead of `std::collections::HashMap` (whose SipHash per byte
//! dominated the interpreter's profile), and returning calls donate
//! their register windows to the pool `make_frame` draws from.
//!
//! Register-only runs: straight-line ops — ALU, branches with their phi
//! moves, agreeing votes, counter bookkeeping, loads and stores — touch
//! only the live frame's register window, the thread's scoreboard and a
//! handful of `Vm` fields, and cannot change frame, function or
//! transaction state. [`RunCtx`] borrows exactly that state once and
//! [`Vm::register_run`] executes consecutive such ops against it, with
//! the pc and the instruction count in locals. After each op the whole
//! inter-op protocol the scheduler applies between `step` calls —
//! async-abort poll, horizon check, budget check, pause check, doomed
//! check — collapses to compares on locals, because inside a run nothing
//! else can change those answers; when one fires (or the next op is not
//! run-eligible, would trap, or is a divergent vote) the run writes its
//! locals back with nothing of that op done, and `step_fused` replays the
//! protocol in the scheduler's order, or executes the op through
//! [`Vm::exec_dop`]. A run is therefore bit-identical to stepping one op
//! at a time.
//!
//! Observation rides the runs. The window rule: **the one-op arm of
//! `step_fused` — each op between `before_op` and `after_op`, an
//! eligible one through the same [`RunCtx::exec`] body a run uses — is
//! taken for an op a run refused, and for every op while a forensics
//! taint window is open; everything else an observer needs is
//! accumulated inside [`Vm::register_run`] and settled at its exit.**
//! Forensics state is inert before the flip and after its window has
//! closed, so those stretches are runs. The protocol at the flip: a
//! run's pause compare also ends it `pause_slack` register writes (the
//! most one op makes) short of the planned occurrence, from where
//! [`Vm::observed`] holds and ops step singly — so the op that takes the
//! flip executes between its hooks, `after_op` completes the seed with
//! that op's class, the written-back instruction count and the post-op
//! clock, and the stepping goes on until a detector closes the window —
//! in a settling fork ([`Vm::run_to_settlement`]), until the set drains, a
//! refusal rules settling out, or the settle-only window reaches its cap.
//! A profiled run keeps the thread's last fetch in locals and charges
//! each op's clock delta to a per-class row (`profile.rs` says why its
//! first fetch, and only that one, goes through the profiler).

use haft_htm::table::OpenTable;
use haft_htm::{AccessKind, Htm};
use haft_ir::function::ValueId;
use haft_ir::inst::RmwOp;
use haft_ir::module::FuncId;
use haft_ir::types::Ty;

use super::decode::{resolved, Alu2, DOp, Decoded, Edge, Src};
use super::forensics::ForensicsState;
use super::profile::{OpClass, N_CLASSES};
use super::{
    eval_bin, eval_cast, eval_cmp, eval_un, Flow, Reg, RunOutcome, Upset, Vm, FUNC_BASE,
    MAX_CALL_DEPTH,
};
use crate::cost::{self, Scoreboard};
use crate::mem::{Memory, Trap};

/// What [`RunCtx::exec`] did with an op.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Ran {
    /// Nothing, and no state changed: the op is not run-eligible, would
    /// trap, or is a vote whose copies diverge. [`Vm::exec_dop`] runs it.
    Refused,
    /// Executed.
    Done,
    /// Executed, and it was a load or store: inside a transaction, the
    /// one op of a run that can doom the thread's own transaction.
    Mem,
}

/// Everything a run-eligible op can touch, borrowed once: the live
/// frame's register window, the thread's scoreboard and memory-ordering state,
/// and the `Vm` fields behind register writes and memory accesses. While
/// it is held the thread stays in one frame of one function, in or out of
/// one transaction, so those facts are plain copies.
struct RunCtx<'a> {
    /// Next op of the live frame: `Frame::idx`, written back by whoever
    /// built the context.
    pc: usize,
    regs: &'a mut [Reg],
    sb: &'a mut Scoreboard,
    counter: &'a mut u64,
    bp_dense: &'a mut [u8],
    fovl: &'a mut FastOverlay,
    store_done: &'a mut CellMap,
    occ: &'a mut u64,
    fault: &'a mut Upset,
    /// The armed plan's occurrence, `u64::MAX` (never reached) with none
    /// armed: the register write's whole fault hook is one compare
    /// against it.
    fault_at: u64,
    mispredicts: &'a mut u64,
    phi_scratch: &'a mut Vec<(u32, u64, u64, Ty)>,
    htm: &'a mut Htm,
    mem: &'a mut Memory,
    d: &'a Decoded,
    /// Forensics sink and the live frame's coordinates, read only by the
    /// register write the fault lands on.
    fx: &'a mut Option<Box<ForensicsState>>,
    func: FuncId,
    depth: usize,
    tid: usize,
    n_threads: u64,
    in_tx: bool,
    /// Counter value at which `tx_cond_split` splits: the thread's
    /// threshold, or never while a lock is elided.
    split_at: u64,
}

impl RunCtx<'_> {
    /// Reads a decoded operand: `(value, ready time)`.
    #[inline(always)]
    fn rd(&self, s: Src) -> (u64, u64) {
        match s {
            Src::Slot(i) => {
                let r = self.regs[i as usize];
                (r.val, r.ready)
            }
            Src::Const(v) => (v, 0),
        }
    }

    /// Register write: exactly `Vm::write_reg` (same masking, same
    /// occurrence counting, same fault hook).
    #[inline(always)]
    fn wreg(&mut self, dst: u32, val: u64, ready: u64, ty: Ty) {
        self.regs[dst as usize] = Reg { val: val & ty.mask(), ready };
        let occ = *self.occ;
        *self.occ = occ + 1;
        if occ == self.fault_at {
            self.fault_at = u64::MAX;
            let at = (self.func, self.depth, dst);
            flip(&mut self.regs[dst as usize], self.fault, self.fx, at, ty);
        }
    }

    /// A two-input ALU op: operand reads → issue → register write of
    /// `f(a, b)` as a `ty`. The one body behind `Cmp` and every
    /// decode-resolved opcode.
    #[inline(always)]
    fn alu2(&mut self, x: Alu2, ty: Ty, f: impl FnOnce(u64, u64) -> u64) {
        let (av, ar) = self.rd(x.a);
        let (bv, br) = self.rd(x.b);
        let done = self.sb.issue(ar.max(br), x.lat);
        self.wreg(x.dst, f(av, bv), done, ty);
    }

    /// Issues a vote over operands ready at `ready` and forwards its
    /// result: not part of the fault-injection occurrence stream (mirrors
    /// `write_reg_forwarded`).
    #[inline(always)]
    fn forward(&mut self, dst: u32, val: u64, ready: u64, ty: Ty) {
        let done = self.sb.issue(ready, cost::LAT_VOTE);
        self.regs[dst as usize] = Reg { val: val & ty.mask(), ready: done };
    }

    /// Takes a decoded CFG edge: parallel phi moves, then the pc jump.
    #[inline(always)]
    fn take_edge(&mut self, edge: Edge) {
        let d = self.d;
        let at = edge.moves_at as usize;
        let moves = &d.moves[at..at + edge.moves_n as usize];
        if let [mv] = moves {
            // Single move: parallel semantics are trivial, skip the
            // scratch buffer.
            let (v, r) = self.rd(mv.src);
            self.wreg(mv.dst, v, r, mv.ty);
        } else if !moves.is_empty() {
            // Parallel semantics: read every source before any write.
            self.phi_scratch.clear();
            for mv in moves {
                let (v, r) = self.rd(mv.src);
                self.phi_scratch.push((mv.dst, v, r, mv.ty));
            }
            for i in 0..self.phi_scratch.len() {
                let (dst, v, r, ty) = self.phi_scratch[i];
                self.wreg(dst, v, r, ty);
            }
        }
        self.pc = edge.target as usize;
    }

    /// Executes `op` if it is run-eligible and completes cleanly; each
    /// arm mirrors the corresponding `Op` arm in `Vm::step` exactly.
    /// Every refusal is decided before the first state change.
    #[inline(always)]
    fn exec(&mut self, op: &DOp) -> Ran {
        match *op {
            // --- compute -----------------------------------------------------
            // Decode-resolved: 64-bit operands, so no masking; shift
            // counts wrap at 64, as `eval_bin`'s do; the compares write an
            // `I1` like `Cmp` does.
            DOp::Add64(x) => self.alu2(x, Ty::I64, u64::wrapping_add),
            DOp::Sub64(x) => self.alu2(x, Ty::I64, u64::wrapping_sub),
            DOp::Mul64(x) => self.alu2(x, Ty::I64, u64::wrapping_mul),
            DOp::And64(x) => self.alu2(x, Ty::I64, |a, b| a & b),
            DOp::Or64(x) => self.alu2(x, Ty::I64, |a, b| a | b),
            DOp::Xor64(x) => self.alu2(x, Ty::I64, |a, b| a ^ b),
            DOp::Shl64(x) => self.alu2(x, Ty::I64, |a, b| a.wrapping_shl(b as u32)),
            DOp::LShr64(x) => self.alu2(x, Ty::I64, |a, b| a.wrapping_shr(b as u32)),
            DOp::AShr64(x) => self.alu2(x, Ty::I64, |a, b| ((a as i64) >> (b & 63)) as u64),
            DOp::CmpEq64(x) => self.alu2(x, Ty::I1, |a, b| (a == b) as u64),
            DOp::CmpNe64(x) => self.alu2(x, Ty::I1, |a, b| (a != b) as u64),
            DOp::CmpSlt64(x) => self.alu2(x, Ty::I1, |a, b| ((a as i64) < (b as i64)) as u64),
            DOp::Bin { op, ty, a, b, dst, lat } => {
                let (av, ar) = self.rd(a);
                let (bv, br) = self.rd(b);
                let Ok(v) = eval_bin(op, ty, av, bv) else { return Ran::Refused };
                let done = self.sb.issue(ar.max(br), lat);
                self.wreg(dst, v, done, ty);
            }
            DOp::Un { op, ty, a, dst, lat } => {
                let (av, ar) = self.rd(a);
                let done = self.sb.issue(ar, lat);
                self.wreg(dst, eval_un(op, ty, av), done, ty);
            }
            DOp::Cmp { op, ty, a, b, dst } => {
                let x = Alu2 { a, b, dst, lat: cost::LAT_INT };
                self.alu2(x, Ty::I1, |av, bv| eval_cmp(op, ty, av, bv) as u64);
            }
            DOp::MoveV { ty, a, dst } => {
                let (av, ar) = self.rd(a);
                let done = self.sb.issue(ar, cost::LAT_INT);
                self.wreg(dst, av, done, ty);
            }
            DOp::Cast { kind, from, to, a, dst } => {
                let (av, ar) = self.rd(a);
                let done = self.sb.issue(ar, cost::LAT_INT);
                self.wreg(dst, eval_cast(kind, from, to, av), done, to);
            }
            DOp::Select { ty, c, t, f, dst } => {
                let (cv, cr) = self.rd(c);
                let (tv, tr) = self.rd(t);
                let (fv, fr) = self.rd(f);
                let done = self.sb.issue(cr.max(tr).max(fr), cost::LAT_INT);
                self.wreg(dst, if cv & 1 != 0 { tv } else { fv }, done, ty);
            }
            DOp::Gep { base, index, scale, offset, dst } => {
                let (bv, br) = self.rd(base);
                let (iv, ir) = self.rd(index);
                let v =
                    bv.wrapping_add((iv as i64).wrapping_mul(scale) as u64).wrapping_add(offset);
                let done = self.sb.issue(br.max(ir), cost::LAT_INT);
                self.wreg(dst, v, done, Ty::Ptr);
            }

            // --- memory -----------------------------------------------------
            // `Vm::step` performs the HTM access first and traps after it.
            // Here an access memory would refuse is refused before the
            // HTM hears of it (the bounds check has no side effect), and
            // `exec_dop` performs access-then-trap in that order.
            DOp::Load { ty, addr, atomic, dst } => {
                let (av, ar) = self.rd(addr);
                let len = ty.size_bytes();
                let Ok(mut v) = self.mem.load(av, len) else { return Ran::Refused };
                let hit = self.htm.access(self.tid, av, len as u64, AccessKind::Read);
                if self.in_tx && !self.fovl.is_empty() {
                    v = self.fovl.merge(av, len, v);
                }
                let lat = if atomic {
                    cost::LAT_ATOMIC
                } else if hit {
                    cost::LAT_LOAD_HIT
                } else {
                    cost::LAT_LOAD_MISS
                };
                let dep = self.store_done.ready(av, len);
                let done = self.sb.issue(ar.max(dep), lat);
                self.wreg(dst, v, done, ty);
                return Ran::Mem;
            }
            DOp::Store { ty, val, addr, atomic } => {
                let (vv, vr) = self.rd(val);
                let (av, ar) = self.rd(addr);
                let len = ty.size_bytes();
                if self.mem.check(av, len as u64).is_err() {
                    return Ran::Refused;
                }
                self.htm.access(self.tid, av, len as u64, AccessKind::Write);
                if self.in_tx {
                    self.fovl.buffer_store(av, len, vv);
                } else {
                    self.mem.store(av, len, vv).expect("bounds checked above");
                }
                let lat = if atomic { cost::LAT_ATOMIC } else { cost::LAT_STORE };
                let done = self.sb.issue(vr.max(ar), lat);
                self.store_done.note(av, len, done);
                return Ran::Mem;
            }

            // --- control ----------------------------------------------------
            DOp::Br { edge } => {
                self.sb.issue(0, cost::LAT_BRANCH);
                self.take_edge(edge);
            }
            DOp::CondBr { cond, t, f, bp } => {
                let (cv, cr) = self.rd(cond);
                let taken = cv & 1 != 0;
                let done = self.sb.issue(cr, cost::LAT_BRANCH);
                // Dense 1-bit predictor: 0 unknown, 1 not-taken, 2 taken.
                let prev = std::mem::replace(&mut self.bp_dense[bp as usize], 1 + taken as u8);
                if prev != 0 && (prev == 2) != taken {
                    *self.mispredicts += 1;
                    self.sb.flush_to(done + cost::MISPREDICT_PENALTY);
                }
                self.take_edge(if taken { t } else { f });
            }

            // --- HAFT runtime intrinsics -----------------------------------------
            DOp::TxCondSplit => {
                if *self.counter >= self.split_at {
                    return Ran::Refused;
                }
                self.sb.issue(0, cost::LAT_TX_SPLIT_CHECK);
            }
            DOp::TxCounterInc { amount } => {
                *self.counter += amount;
                self.sb.issue(0, cost::LAT_COUNTER_INC);
            }
            DOp::Vote { ty, a, b, c, dst } | DOp::ChkCorrect { ty, a, b, c, dst } => {
                let (av, ar) = self.rd(a);
                let (bv, br) = self.rd(b);
                let (cv, cr) = self.rd(c);
                if av != bv || av != cv {
                    return Ran::Refused;
                }
                self.forward(dst, av, ar.max(br).max(cr), ty);
            }
            DOp::ThreadIdD { dst } => {
                let done = self.sb.issue(0, cost::LAT_INT);
                self.wreg(dst, self.tid as u64, done, Ty::I64);
            }
            DOp::NumThreadsD { dst } => {
                let done = self.sb.issue(0, cost::LAT_INT);
                self.wreg(dst, self.n_threads, done, Ty::I64);
            }
            DOp::Nop => {}
            _ => return Ran::Refused,
        }
        Ran::Done
    }
}

/// The planned upset lands on the register write just made: `reg`, which
/// is register `at.2` of the frame at depth `at.1` running `at.0`, by the
/// thread the armed slot names ([`RunCtx`]s stamp it as they are built, so
/// the hook need not carry it). Out of line, and over exactly what it
/// touches rather than `&mut RunCtx`: a context whose address escapes at
/// every register write stays in memory instead of registers (as a method
/// this cost 4 % of `batch-exec`).
#[cold]
#[inline(never)]
fn flip(
    reg: &mut Reg,
    fault: &mut Upset,
    fx: &mut Option<Box<ForensicsState>>,
    at: (FuncId, usize, u32),
    ty: Ty,
) {
    let Upset::Armed { plan, tid } = *fault else {
        unreachable!("fault_at is the armed plan's occurrence")
    };
    *fault = Upset::Fired { tid, occurrence: plan.occurrence };
    let mask = plan.effective_mask(ty);
    reg.val ^= mask;
    if let Some(fx) = fx.as_deref_mut() {
        fx.seed(at.0, at.1, at.2, mask, plan.occurrence);
    }
}

impl<'m> Vm<'m> {
    /// Borrows, once, what the run-eligible ops of thread `tid`'s live
    /// frame can touch.
    fn run_ctx<'a>(&'a mut self, tid: usize, d: &'a Decoded) -> RunCtx<'a> {
        let t = &mut self.threads[tid];
        let depth = t.frames.len();
        let fr = t.frames.last_mut().expect("live frame");
        RunCtx {
            pc: fr.idx,
            regs: &mut fr.regs,
            sb: &mut t.sb,
            counter: &mut t.counter,
            bp_dense: &mut t.bp_dense,
            fovl: &mut t.fovl,
            store_done: &mut t.store_done_fast,
            occ: &mut self.occ,
            fault_at: self.fault.arm_for(tid),
            fault: &mut self.fault,
            mispredicts: &mut self.mispredicts,
            phi_scratch: &mut self.phi_scratch,
            htm: &mut self.htm,
            mem: &mut self.mem,
            d,
            fx: &mut self.forensics,
            func: fr.func,
            depth,
            tid,
            n_threads: self.cfg.n_threads.max(1) as u64,
            in_tx: t.tx_depth > 0,
            split_at: if t.elided.is_empty() { t.threshold } else { u64::MAX },
        }
    }

    /// A register-only run: executes consecutive ops of thread `tid`'s
    /// live frame through one [`RunCtx`] for as long as they are accepted
    /// and no exit condition fires, then writes the pc and the counters
    /// back. Entered where `step_fused`'s loop-top checks have just
    /// passed. Returns true if it stopped in front of an op it refused
    /// (after which nothing is pending: the gap after the last executed
    /// op was empty), false if an exit condition fired and `step_fused`
    /// must replay the inter-op gap.
    ///
    /// The exit conditions are the gap and the loop top, read off locals:
    /// the thread's clock reaching the horizon or (in a transaction) the
    /// next poll, the instruction budget, the pause point, and — after a
    /// transactional memory access, the only op of a run that can set it
    /// — the thread's own doomed flag. Nothing else those checks read can
    /// change inside a run: `in_tx`, `tx_depth` and `last_poll_clock` move
    /// only in ops a run refuses, other threads do not execute, and a
    /// poll ends the run. With forensics attached the pause compare also
    /// ends the run where [`Vm::observed`] turns true.
    ///
    /// `PROFILED` charges each op's clock delta to a per-class
    /// accumulator in locals: the first fetch goes through
    /// [`Profiler::fetch`](super::profile::Profiler::fetch), which settles
    /// whatever cell the thread carried in, and the exit hands the row and
    /// the last fetch back ([`Profiler::settle_run`]).
    fn register_run<const PROFILED: bool>(
        &mut self,
        tid: usize,
        horizon: u64,
        d: &Decoded,
    ) -> bool {
        let budget = self.cfg.max_instructions - self.instructions;
        let (pause_at, slack) = (self.pause_at, self.pause_slack);
        let t = &self.threads[tid];
        let stop_clock = if t.in_tx() { horizon.min(t.last_poll_clock + 257) } else { horizon };
        let fr = t.frames.last().expect("live frame");
        let fid = fr.func.0;
        let df = &d.funcs[fid as usize];
        let (mut last, mut pending, mut charged) = (t.sb.clock, OpClass::Other, [0u64; N_CLASSES]);
        if PROFILED {
            pending = df.class[fr.idx];
            self.profiler.as_mut().expect("a profiled run").0.fetch(tid, last, fid, pending);
        }
        let mut cx = self.run_ctx(tid, d);
        // An observed run also ends where the op that takes the flip may be next.
        let stop_occ = pause_at.min(cx.fault_at.saturating_sub(slack - 1));
        let mut retired = 0u64;
        let refused = loop {
            let pc = cx.pc;
            if PROFILED {
                // The fetch of `Vm::before_op`; a no-op for the first op.
                let clock = cx.sb.clock;
                charged[pending as usize] += clock - last;
                (last, pending) = (clock, df.class[pc]);
            }
            cx.pc = pc + 1;
            let ran = cx.exec(&df.code[pc]);
            if ran == Ran::Refused {
                cx.pc = pc;
                break true;
            }
            retired += 1;
            if cx.sb.clock >= stop_clock
                || retired >= budget
                || *cx.occ >= stop_occ
                || (ran == Ran::Mem && cx.in_tx && cx.htm.doomed(tid).is_some())
            {
                break false;
            }
        };
        let pc = cx.pc;
        self.threads[tid].frames.last_mut().expect("live frame").idx = pc;
        self.instructions += retired;
        if PROFILED {
            let p = &mut self.profiler.as_mut().expect("a profiled run").0;
            p.settle_run(tid, fid, &charged, last, pending);
        }
        refused
    }

    /// Advances thread `tid` direct-threaded until its clock reaches
    /// `horizon` (or control leaves the straight-line fast path).
    ///
    /// Between ops it replays the scheduler's exact inter-step protocol
    /// — poll, horizon check, budget check, pause check, doomed check, in
    /// that order — so the op stream is bit-identical to `step` driven
    /// one op at a time from `schedule`. The protocol runs per *run
    /// boundary or refused op*: [`Vm::register_run`] covers every stretch
    /// in between, profiled or not. Only while a forensics taint window
    /// is open does every op take the one-op path below, between its
    /// hooks.
    pub(super) fn step_fused(&mut self, tid: usize, horizon: u64, d: &Decoded) -> Flow {
        let profiled = self.profiler.is_some();
        loop {
            // Pause point: an op boundary at which the horizon and budget
            // checks have just passed (in the scheduler on entry, at the
            // bottom of this loop afterwards); a run that reaches it ends
            // and falls through that bottom to here.
            if self.occ >= self.pause_at {
                return Flow::Pause;
            }
            let t = &mut self.threads[tid];
            // Deliver pending asynchronous aborts first (same as `step`).
            let doomed = if t.in_tx() { self.htm.doomed(tid) } else { None };
            let window = self.observed();
            if let Some(cause) = doomed {
                // No poll is owed after this: `tx_abort` leaves
                // `last_poll_clock` at the current clock, or the thread
                // outside a transaction.
                self.tx_abort(tid, cause);
            } else if window
                || if profiled {
                    self.register_run::<true>(tid, horizon, d)
                } else {
                    self.register_run::<false>(tid, horizon, d)
                }
            {
                // One op: the one a run stopped in front of, or each op
                // inside a taint window. Fetch and pre-advance in one
                // frame borrow; control flow overwrites the pc, `Blocked`
                // rewinds it (in `after_op`, which also polls).
                count_arm_op();
                let fr = self.threads[tid].frames.last_mut().expect("live frame");
                let fid = fr.func.0 as usize;
                let pc = fr.idx;
                fr.idx = pc + 1;
                self.instructions += 1;
                let df = &d.funcs[fid];
                let op = &df.code[pc];
                self.before_op(tid, fid as u32, op, d);
                // Inside a window an eligible op goes through the body a
                // run uses; outside, the run just refused this op.
                let flow = if window && self.exec_eligible(tid, op, d) {
                    Flow::Continue
                } else {
                    self.exec_dop(tid, op, d)
                };
                let flow = self.after_op(tid, op, flow);
                if !matches!(flow, Flow::Continue) {
                    return flow;
                }
            } else {
                // A run ended on an exit condition: the gap after its last
                // op starts with that op's poll.
                self.poll_tx(tid);
            }

            // Inter-op gap, after the poll: the same horizon and budget
            // checks the scheduler loop performs between unfused steps.
            if self.threads[tid].sb.clock >= horizon {
                return Flow::Continue;
            }
            if self.instructions >= self.cfg.max_instructions {
                return Flow::Stop(RunOutcome::Hang);
            }
        }
    }

    /// True while the forensics hooks have something to see, and ops go
    /// one at a time between them: from where the next op may be the one
    /// that takes the planned flip (an armed plan with the taint state
    /// attached — forensics on, or a settling fork — is one that has not
    /// fired) until the set it seeds is no longer needed: the record's
    /// window has closed, and a settling fork has seen the set drain,
    /// been refused, or run past its settle-only window's cap.
    fn observed(&self) -> bool {
        let Some(fx) = self.forensics.as_deref() else { return false };
        fx.tracking()
            || self.fault.armed().is_some_and(|plan| self.occ + self.pause_slack > plan.occurrence)
    }

    /// One pre-advanced op through [`RunCtx::exec`]; false if refused.
    /// Only ops inside an open taint window come this way, one context
    /// per op, so that each executes between its forensics hooks.
    fn exec_eligible(&mut self, tid: usize, op: &DOp, d: &Decoded) -> bool {
        let mut cx = self.run_ctx(tid, d);
        let ran = cx.exec(op);
        let pc = cx.pc;
        self.threads[tid].frames.last_mut().expect("live frame").idx = pc;
        ran != Ran::Refused
    }

    /// Transactional store through the fused write buffer. Same contract
    /// as `mem_store`: bounds-check eagerly so wild stores trap now.
    fn mem_store_f(&mut self, tid: usize, addr: u64, len: u32, val: u64) -> Result<(), Trap> {
        if self.threads[tid].in_tx() {
            self.mem.load(addr, len)?;
            self.threads[tid].fovl.buffer_store(addr, len, val);
            Ok(())
        } else {
            self.mem.store(addr, len, val)
        }
    }

    fn do_call(
        &mut self,
        tid: usize,
        d: &Decoded,
        target: u32,
        args_at: u32,
        args_n: u32,
        dst: Option<u32>,
    ) -> Flow {
        let mut vals = std::mem::take(&mut self.arg_scratch);
        vals.clear();
        let mut ready = 0;
        let cx = self.run_ctx(tid, d);
        for s in &d.args[args_at as usize..(args_at + args_n) as usize] {
            let (v, r) = cx.rd(*s);
            vals.push(v);
            ready = ready.max(r);
        }
        cx.sb.issue(ready, cost::LAT_CALL);
        let frame = self.make_frame(FuncId(target), &vals, dst.map(ValueId));
        self.arg_scratch = vals;
        self.threads[tid].frames.push(frame);
        Flow::Continue
    }

    /// Executes one decoded op that a run refuses: the ops that are not
    /// run-eligible, each arm mirroring the corresponding `Op` arm of
    /// `Vm::step` (`reference.rs`) exactly or calling the body in `vm.rs`
    /// that arm calls too, and — of the eligible ones, whose body is
    /// [`RunCtx::exec`] — only the case it refused (trap, divergence,
    /// split). Operand reads and register writes go through a short-lived
    /// [`RunCtx`] of the live frame.
    fn exec_dop(&mut self, tid: usize, op: &DOp, d: &Decoded) -> Flow {
        match *op {
            // --- refused by a run ---------------------------------------------
            // The only trap `eval_bin` raises.
            DOp::Bin { .. } => self.trap(tid, Trap::DivByZero),
            DOp::Load { ty, addr, .. } | DOp::Store { ty, addr, .. } => {
                // Out of bounds: the HTM still sees the access before the
                // trap (which aborts, inside a transaction).
                let (av, _) = self.run_ctx(tid, d).rd(addr);
                let len = ty.size_bytes() as u64;
                let kind = if matches!(op, DOp::Load { .. }) {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                };
                self.htm.access(tid, av, len, kind);
                let trap = self.mem.check(av, len).expect_err("a run refuses no access in bounds");
                self.trap(tid, trap)
            }
            DOp::Vote { ty, a, b, c, dst } | DOp::ChkCorrect { ty, a, b, c, dst } => {
                // The copies diverge: a single bad one is outvoted and
                // counted, three different ones are an ILR detection.
                let cx = self.run_ctx(tid, d);
                let ((av, ar), (bv, br), (cv, cr)) = (cx.rd(a), cx.rd(b), cx.rd(c));
                let checksum = matches!(op, DOp::ChkCorrect { .. });
                match self.majority(tid, checksum, [av, bv, cv]) {
                    Some(v) => {
                        self.run_ctx(tid, d).forward(dst, v, ar.max(br).max(cr), ty);
                        Flow::Continue
                    }
                    None => self.ilr_detect(tid),
                }
            }
            DOp::TxCondSplit => {
                // At the threshold with no lock elided: commit and reopen.
                self.threads[tid].sb.issue(0, cost::LAT_TX_SPLIT_CHECK);
                self.exec_tx_split(tid)
            }
            resolved!()
            | DOp::Un { .. }
            | DOp::Cmp { .. }
            | DOp::MoveV { .. }
            | DOp::Cast { .. }
            | DOp::Select { .. }
            | DOp::Gep { .. }
            | DOp::Br { .. }
            | DOp::CondBr { .. }
            | DOp::TxCounterInc { .. }
            | DOp::ThreadIdD { .. }
            | DOp::NumThreadsD { .. }
            | DOp::Nop => unreachable!("a run never refuses {op:?}"),

            DOp::TrapMalformed => self.trap(tid, Trap::MalformedIr),

            // --- memory -----------------------------------------------------
            DOp::Rmw { op, ty, addr, val, dst } => {
                let cx = self.run_ctx(tid, d);
                let ((av, ar), (vv, vr)) = (cx.rd(addr), cx.rd(val));
                let len = ty.size_bytes();
                self.htm.access(tid, av, len as u64, AccessKind::Write);
                match self.mem_load(tid, av, len) {
                    Ok(old) => {
                        let new = match op {
                            RmwOp::Add => old.wrapping_add(vv),
                            RmwOp::Xchg => vv,
                        };
                        match self.mem_store_f(tid, av, len, new) {
                            Ok(()) => {
                                let mut cx = self.run_ctx(tid, d);
                                let dep = cx.store_done.ready(av, len);
                                let done = cx.sb.issue(ar.max(vr).max(dep), cost::LAT_ATOMIC);
                                cx.store_done.note(av, len, done);
                                cx.wreg(dst, old, done, ty);
                                Flow::Continue
                            }
                            Err(trap) => self.trap(tid, trap),
                        }
                    }
                    Err(trap) => self.trap(tid, trap),
                }
            }
            DOp::CmpXchg { ty, addr, expected, new, dst } => {
                let cx = self.run_ctx(tid, d);
                let ((av, ar), (ev, er), (nv, nr)) = (cx.rd(addr), cx.rd(expected), cx.rd(new));
                let len = ty.size_bytes();
                self.htm.access(tid, av, len as u64, AccessKind::Write);
                match self.mem_load(tid, av, len) {
                    Ok(old) => {
                        let res =
                            if old == ev { self.mem_store_f(tid, av, len, nv) } else { Ok(()) };
                        match res {
                            Ok(()) => {
                                let mut cx = self.run_ctx(tid, d);
                                let dep = cx.store_done.ready(av, len);
                                let ready = ar.max(er).max(nr).max(dep);
                                let done = cx.sb.issue(ready, cost::LAT_ATOMIC);
                                cx.store_done.note(av, len, done);
                                cx.wreg(dst, old, done, ty);
                                Flow::Continue
                            }
                            Err(trap) => self.trap(tid, trap),
                        }
                    }
                    Err(trap) => self.trap(tid, trap),
                }
            }
            DOp::Alloc { size, dst } => {
                let (sv, sr) = self.run_ctx(tid, d).rd(size);
                match self.mem.alloc(sv) {
                    Ok(base) => {
                        let mut cx = self.run_ctx(tid, d);
                        let done = cx.sb.issue(sr, cost::LAT_ALLOC);
                        cx.wreg(dst, base, done, Ty::Ptr);
                        Flow::Continue
                    }
                    Err(trap) => self.trap(tid, trap),
                }
            }

            // --- control ----------------------------------------------------
            DOp::CallDirect { target, args_at, args_n, dst, arity_ok } => {
                if self.threads[tid].frames.len() >= MAX_CALL_DEPTH {
                    return self.trap(tid, Trap::StackOverflow);
                }
                if !arity_ok {
                    return self.trap(tid, Trap::MalformedIr);
                }
                self.do_call(tid, d, target, args_at, args_n, dst)
            }
            DOp::CallInd { callee, args_at, args_n, dst } => {
                let (v, _) = self.run_ctx(tid, d).rd(callee);
                let idx = v.wrapping_sub(FUNC_BASE);
                if v < FUNC_BASE || (idx as usize) >= d.funcs.len() {
                    return self.trap(tid, Trap::BadIndirectCall { target: v });
                }
                let target = idx as u32;
                if self.threads[tid].frames.len() >= MAX_CALL_DEPTH {
                    return self.trap(tid, Trap::StackOverflow);
                }
                if d.funcs[target as usize].n_params != args_n as usize {
                    return self.trap(tid, Trap::MalformedIr);
                }
                self.do_call(tid, d, target, args_at, args_n, dst)
            }
            DOp::Ret { val } => {
                let cx = self.run_ctx(tid, d);
                let rv = val.map(|s| cx.rd(s));
                let done = cx.sb.issue(rv.map(|(_, r)| r).unwrap_or(0), cost::LAT_CALL);
                let t = &mut self.threads[tid];
                let frame = t.frames.pop().expect("live frame");
                if t.frames.is_empty() {
                    self.pool.push(frame.regs);
                    return Flow::ThreadDone;
                }
                if let (Some(dst), Some((v, _))) = (frame.return_to, rv) {
                    // The caller's frame is the live one now.
                    let ty = d.funcs[frame.func.0 as usize].ret_ty;
                    self.run_ctx(tid, d).wreg(dst.0, v, done, ty);
                }
                // Donate the retired register window back to the pool.
                self.pool.push(frame.regs);
                Flow::Continue
            }

            // --- HAFT runtime intrinsics -----------------------------------------
            DOp::TxBegin => self.exec_tx_begin(tid),
            DOp::TxEnd => self.exec_tx_end(tid),
            DOp::TxAbortIlr => self.ilr_detect(tid),
            DOp::TxAbortExplicit => self.exec_abort_explicit(tid),
            DOp::Lock { addr } => {
                let (av, ar) = self.run_ctx(tid, d).rd(addr);
                self.exec_lock(tid, av, ar)
            }
            DOp::Unlock { addr } => {
                let (av, ar) = self.run_ctx(tid, d).rd(addr);
                self.exec_unlock(tid, av, ar)
            }
            DOp::Emit { val } => {
                let (v, _) = self.run_ctx(tid, d).rd(val);
                self.exec_emit(tid, v)
            }
        }
    }
}

// --- open-addressed support structures ------------------------------------------

/// Expands each set bit of a byte mask into a full 0xFF byte lane.
const LANES: [u64; 256] = {
    let mut t = [0u64; 256];
    let mut m = 0;
    while m < 256 {
        let mut v = 0u64;
        let mut b = 0;
        while b < 8 {
            if m & (1 << b) != 0 {
                v |= 0xFF << (8 * b);
            }
            b += 1;
        }
        t[m] = v;
        m += 1;
    }
    t
};

/// The fused engine's speculative write buffer: a word-granular overlay
/// keyed by 8-byte cell, with a per-byte validity mask. Semantically
/// identical to the interpreter's byte-keyed `HashMap<u64, u8>` overlay
/// (same buffered bytes, same read-through merge, same flush result) at
/// one probe per cell instead of one SipHash per byte.
#[derive(Clone, Debug, Default)]
pub(super) struct FastOverlay {
    /// `cell → (data word, byte mask)`.
    cells: OpenTable<(u64, u8), true>,
}

impl FastOverlay {
    pub fn new() -> Self {
        FastOverlay::default()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    pub fn clear(&mut self) {
        self.cells.clear();
    }

    /// Buffers the low `len` bytes of `val` at `addr` (little-endian),
    /// overwriting previously buffered bytes in the range.
    pub fn buffer_store(&mut self, addr: u64, len: u32, val: u64) {
        let mut i = 0u32;
        while i < len {
            let a = addr + i as u64;
            let off = (a & 7) as u32;
            let n = (8 - off).min(len - i);
            let byte_mask = (((1u16 << n) - 1) as u8) << off;
            let lanes = LANES[byte_mask as usize];
            let part = ((val >> (8 * i)) << (8 * off)) & lanes;
            let (word, mask) = self.cells.entry(a >> 3);
            *word = (*word & !lanes) | part;
            *mask |= byte_mask;
            i += n;
        }
    }

    /// `v` with its bytes `at..at + n` replaced by what is buffered of
    /// `[a, a + n)`, a range inside one cell.
    #[inline(always)]
    fn merge_cell(&self, a: u64, n: u32, at: u32, v: u64) -> u64 {
        let Some((word, mask)) = self.cells.get(a >> 3) else { return v };
        let off = (a & 7) as u32;
        let lanes = LANES[((mask >> off) & (((1u16 << n) - 1) as u8)) as usize];
        (v & !(lanes << (8 * at))) | (((word >> (8 * off)) & lanes) << (8 * at))
    }

    /// Read-through merge: `base` is the value loaded from memory at
    /// `addr`/`len`; buffered bytes replace the corresponding lanes.
    #[inline]
    pub fn merge(&self, addr: u64, len: u32, base: u64) -> u64 {
        if (addr & 7) as u32 + len <= 8 {
            // One cell: every aligned access.
            return self.merge_cell(addr, len, 0, base);
        }
        self.merge_spanning(addr, len, base)
    }

    #[inline(never)]
    fn merge_spanning(&self, addr: u64, len: u32, base: u64) -> u64 {
        let (mut v, mut i) = (base, 0u32);
        while i < len {
            let a = addr + i as u64;
            let n = (8 - (a & 7) as u32).min(len - i);
            v = self.merge_cell(a, n, i, v);
            i += n;
        }
        v
    }

    /// Commits every buffered byte to memory and clears the buffer.
    /// Byte addresses are unique, so write order is immaterial — exactly
    /// like the interpreter's hash-order overlay drain.
    pub fn flush_into(&mut self, mem: &mut Memory) {
        self.cells.drain(|cell, (word, mask)| {
            for b in (0..8).filter(|b| mask & (1 << b) != 0) {
                // Bounds were checked when buffering.
                let _ = mem.store_byte((cell << 3) + b, (word >> (8 * b)) as u8);
            }
        });
    }
}

/// Store→load forwarding times: completion time of the last store per
/// 8-byte cell.
#[derive(Clone, Debug, Default)]
pub(super) struct CellMap {
    cells: OpenTable<u64, true>,
}

impl CellMap {
    pub fn new() -> Self {
        CellMap::default()
    }

    pub fn clear(&mut self) {
        self.cells.clear();
    }

    /// Ready time contributed by earlier stores covering
    /// `[addr, addr + len)`.
    #[inline]
    pub fn ready(&self, addr: u64, len: u32) -> u64 {
        let (first, last) = (addr >> 3, (addr + len as u64 - 1) >> 3);
        if first == last {
            // One cell: every aligned access.
            return self.cells.get(first).unwrap_or(0);
        }
        self.ready_spanning(first, last)
    }

    #[inline(never)]
    fn ready_spanning(&self, first: u64, last: u64) -> u64 {
        (first..=last).filter_map(|cell| self.cells.get(cell)).max().unwrap_or(0)
    }

    /// Records a store completing at `done` over `[addr, addr + len)`.
    #[inline]
    pub fn note(&mut self, addr: u64, len: u32, done: u64) {
        let (first, last) = (addr >> 3, (addr + len as u64 - 1) >> 3);
        *self.cells.entry(first) = done;
        if first != last {
            self.note_spanning(first + 1, last, done);
        }
    }

    #[inline(never)]
    fn note_spanning(&mut self, first: u64, last: u64, done: u64) {
        for cell in first..=last {
            *self.cells.entry(cell) = done;
        }
    }
}

/// Counts an op taken through `step_fused`'s one-op arm (tests only).
#[cfg(not(test))]
#[inline(always)]
fn count_arm_op() {}

#[cfg(test)]
thread_local! {
    /// Ops this thread's VMs took through `step_fused`'s one-op arm.
    pub(super) static ARM_OPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
fn count_arm_op() {
    ARM_OPS.with(|n| n.set(n.get() + 1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use haft_ir::module::Module;

    #[test]
    fn overlay_matches_bytewise_semantics() {
        let mut fo = FastOverlay::new();
        assert!(fo.is_empty());
        // Store 0xAABBCCDD at 100 (4 bytes), then overwrite one byte.
        fo.buffer_store(100, 4, 0xAABB_CCDD);
        fo.buffer_store(101, 1, 0x11);
        assert!(!fo.is_empty());
        // Memory background is zero; merged read sees buffered bytes.
        assert_eq!(fo.merge(100, 4, 0), 0xAABB_11DD);
        // Partial overlap: read 2 bytes at 102.
        assert_eq!(fo.merge(102, 2, 0), 0xAABB);
        // Read past the buffered range keeps base bytes.
        assert_eq!(fo.merge(100, 8, 0x1234_5678_0000_0000), 0x1234_5678_AABB_11DD);
    }

    #[test]
    fn overlay_handles_cell_spanning_stores() {
        let mut fo = FastOverlay::new();
        // 8-byte store at an address straddling two cells.
        fo.buffer_store(101, 8, 0x1122_3344_5566_7788);
        assert_eq!(fo.merge(101, 8, 0), 0x1122_3344_5566_7788);
        assert_eq!(fo.merge(104, 4, 0), 0x2233_4455);
        // A byte before the store is untouched.
        assert_eq!(fo.merge(100, 1, 0x55), 0x55);
    }

    #[test]
    fn overlay_flush_writes_exactly_the_buffered_bytes() {
        let m = Module::new("t");
        let mut mem = Memory::new(&m, 4096);
        mem.store(200, 8, u64::MAX).unwrap();
        let mut fo = FastOverlay::new();
        fo.buffer_store(202, 2, 0xBEEF);
        fo.flush_into(&mut mem);
        assert!(fo.is_empty());
        assert_eq!(mem.load(200, 8).unwrap(), 0xFFFF_FFFF_BEEF_FFFF);
        // Flush clears: a second flush is a no-op.
        mem.store(200, 8, 0).unwrap();
        fo.flush_into(&mut mem);
        assert_eq!(mem.load(200, 8).unwrap(), 0);
    }

    #[test]
    fn overlay_survives_growth() {
        let mut fo = FastOverlay::new();
        for i in 0..500u64 {
            fo.buffer_store(64 + i * 8, 8, i);
        }
        for i in 0..500u64 {
            assert_eq!(fo.merge(64 + i * 8, 8, u64::MAX), i);
        }
        fo.clear();
        assert!(fo.is_empty());
        assert_eq!(fo.merge(64, 8, 7), 7, "cleared overlay reads through");
    }

    #[test]
    fn cell_map_inserts_overwrites_and_clears() {
        let mut cm = CellMap::new();
        assert_eq!(cm.ready(40, 8), 0);
        cm.note(40, 8, 100);
        cm.note(44, 4, 200);
        assert_eq!(cm.ready(40, 1), 200, "one time per cell: the last store's");
        for i in 0..300 {
            cm.note(i * 8, 8, i * 2);
        }
        for i in 0..300 {
            assert_eq!(cm.ready(i * 8 + 3, 2), i * 2);
        }
        // A spanning store marks, and a spanning load reads, every cell.
        cm.note(13, 8, 900);
        assert_eq!((cm.ready(8, 1), cm.ready(23, 1), cm.ready(24, 8)), (900, 900, 6));
        assert_eq!(cm.ready(20, 8), 900);
        assert_eq!(cm.ready(28, 8), 8, "cells 3 and 4");
        cm.clear();
        assert_eq!(cm.ready(40, 8), 0);
    }

    #[test]
    fn lanes_table_expands_mask_bits() {
        assert_eq!(LANES[0], 0);
        assert_eq!(LANES[0xFF], u64::MAX);
        assert_eq!(LANES[0b0000_0101], 0x0000_0000_00FF_00FF);
    }
}
