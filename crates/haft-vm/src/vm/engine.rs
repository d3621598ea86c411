//! The fused execution engine: dense dispatch over decoded code.
//!
//! `step_fused` is the `Fused` counterpart of `Vm::step` and mirrors it
//! micro-op for micro-op — same HTM access order, same scoreboard calls,
//! same trap and abort paths, same register-write (fault-injection)
//! stream. What changes is purely the mechanics: the frame's `idx` is a
//! flat pc into `DFunc::code`, branch prediction uses a dense per-site
//! table instead of a hash map, store→load forwarding and the
//! transactional write buffer use open-addressed cell maps instead of
//! `std::collections::HashMap` (whose SipHash per byte dominated the
//! interpreter's profile), and call frames recycle register windows from
//! a pool instead of allocating. Each opcode arm borrows its thread
//! exactly once and splits field borrows from there, so the dispatch
//! loop carries no repeated `threads[tid]` re-indexing.
//!
//! Fused chains: when `fuse[pc]` is set and the op completed cleanly
//! ([`EFlow::Norm`]), the dispatch loop continues straight into the next
//! constituent. Between constituents it replays the exact inter-op
//! protocol the scheduler applies between `step` calls — async-abort
//! poll, horizon check, budget check, doomed check — so a run is
//! bit-identical whether a pair fused or not; a mid-chain bail leaves
//! the pc on the next constituent and the scheduler resumes there.

use haft_htm::{AbortCause, AccessKind};
use haft_ir::function::{BlockId, ValueId};
use haft_ir::inst::RmwOp;
use haft_ir::module::FuncId;
use haft_ir::types::Ty;

use super::decode::{DOp, Decoded, Edge, Src};
use super::forensics::ForensicsState;
use super::{
    eval_bin, eval_cast, eval_cmp, eval_un, Flow, Frame, RunOutcome, Thread, Vm, FUNC_BASE,
    MAX_CALL_DEPTH,
};
use crate::fault::FaultPlan;
use crate::mem::{Memory, Trap};

/// Outcome of one fused-engine op.
pub(super) enum EFlow {
    /// Clean straight-line completion at `pc + 1`: eligible to continue
    /// a fused chain. Never returned after a control transfer, a trap,
    /// or a transactional rollback.
    Norm,
    /// Everything else; carries the interpreter-visible flow signal.
    Flow(Flow),
}

/// Reads a decoded operand against a frame.
#[inline(always)]
fn rd(fr: &Frame, s: Src) -> (u64, u64) {
    match s {
        Src::Slot(i) => (fr.regs[i as usize], fr.ready[i as usize]),
        Src::Const(v) => (v, 0),
    }
}

/// Register write on an already-borrowed thread: exactly `Vm::write_reg`
/// (same masking, same occurrence counting, same fault hook), taking the
/// disjoint `Vm` fields it needs so the caller's thread borrow can stay
/// live.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // each is a disjoint `Vm` field borrow
fn wreg(
    t: &mut Thread,
    occ: &mut u64,
    fault: &mut Option<FaultPlan>,
    fx: &mut Option<Box<ForensicsState>>,
    dst: u32,
    val: u64,
    ready: u64,
    ty: Ty,
) {
    let fr = t.frames.last_mut().expect("live frame");
    fr.regs[dst as usize] = val & ty.mask();
    fr.ready[dst as usize] = ready;
    *occ += 1;
    if let Some(plan) = *fault {
        if *occ - 1 == plan.occurrence {
            let mask = plan.effective_mask(ty);
            fr.regs[dst as usize] ^= mask;
            *fault = None;
            if let Some(fx) = fx.as_deref_mut() {
                let func = fr.func;
                fx.seed(func, t.frames.len(), dst, mask, plan.occurrence);
            }
        }
    }
}

impl<'m> Vm<'m> {
    /// Advances thread `tid` direct-threaded until its clock reaches
    /// `horizon` (or control leaves the straight-line fast path).
    ///
    /// Between ops it replays the scheduler's exact inter-step protocol
    /// — poll, horizon check, budget check, doomed check, in that order
    /// — so the op stream is bit-identical to `step` driven one op at a
    /// time from `schedule`. Fused chains are the payoff: a `fuse[pc]`
    /// pair retires both constituents in consecutive iterations with no
    /// scheduler bounce, `df` staying hot.
    pub(super) fn step_fused(&mut self, tid: usize, horizon: u64, d: &Decoded) -> Flow {
        loop {
            // Pause point: an op boundary at which the horizon and budget
            // checks have just passed (in the scheduler on entry, at the
            // bottom of this loop afterwards), mid-chain included.
            if self.occ >= self.pause_at {
                return Flow::Pause;
            }
            let t = &mut self.threads[tid];
            // Deliver pending asynchronous aborts first (same as `step`).
            let doomed = if t.in_tx() { self.htm.doomed(tid) } else { None };
            if let Some(cause) = doomed {
                self.tx_abort(tid, cause);
            } else {
                // Fetch and pre-advance in one frame borrow; control flow
                // overwrites the pc, `Blocked` rewinds it.
                let fr = t.frames.last_mut().expect("live frame");
                let fid = fr.func.0 as usize;
                let pc = fr.idx;
                fr.idx = pc + 1;
                self.instructions += 1;
                let df = &d.funcs[fid];
                self.fused_retired += df.fuse[pc] as u64;
                if let Some(p) = self.profiler.as_mut() {
                    let class = super::profile::OpClass::of_dop(&df.code[pc]);
                    p.fetch(tid, self.threads[tid].sb.clock, fid as u32, class);
                }
                if self.forensics.is_some() {
                    // Pre-execute taint transfer, mirroring `step`.
                    self.forensics_transfer_fused(tid, &df.code[pc], d);
                }

                let ef = self.exec_dop(tid, &df.code[pc], d);
                if self.forensics.is_some() {
                    let class = super::profile::OpClass::of_dop(&df.code[pc]);
                    self.forensics_seed_complete(tid, class);
                }
                match ef {
                    EFlow::Norm => {}
                    EFlow::Flow(Flow::Continue) => {}
                    EFlow::Flow(flow) => {
                        if let Flow::Blocked(_) = flow {
                            let fr = self.threads[tid].frames.last_mut().expect("live frame");
                            fr.idx -= 1;
                            self.instructions -= 1;
                        }
                        self.poll_tx(tid);
                        return flow;
                    }
                }
            }

            // Inter-op gap: poll, then the same horizon and budget checks
            // the scheduler loop performs between unfused steps. (After
            // the abort path above the poll condition is always false —
            // `tx_abort` resets `last_poll_clock` to the current clock —
            // so sharing this tail with it changes nothing.)
            let t = &mut self.threads[tid];
            if t.in_tx() {
                let now = t.sb.clock;
                if now > t.last_poll_clock + 256 {
                    let delta = now - t.last_poll_clock;
                    t.last_poll_clock = now;
                    self.htm.poll_async(tid, now, delta, &mut self.rng);
                }
            }
            if t.sb.clock >= horizon {
                return Flow::Continue;
            }
            if self.instructions >= self.cfg.max_instructions {
                return Flow::Stop(RunOutcome::Hang);
            }
        }
    }

    /// Time-based asynchronous abort poll, run after every op exactly as
    /// the interpreter does at the end of `step`.
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

    /// Ready time contributed by earlier stores (fused-engine cell map).
    fn mem_ready_f(&self, tid: usize, addr: u64, len: u32) -> u64 {
        let t = &self.threads[tid];
        let mut ready = 0;
        for cell in (addr >> 3)..=((addr + len as u64 - 1) >> 3) {
            if let Some(d) = t.store_done_fast.get(cell) {
                ready = ready.max(d);
            }
        }
        ready
    }

    fn note_store_f(&mut self, tid: usize, addr: u64, len: u32, done: u64) {
        let t = &mut self.threads[tid];
        for cell in (addr >> 3)..=((addr + len as u64 - 1) >> 3) {
            t.store_done_fast.insert(cell, done);
        }
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

    fn make_frame_fused(
        &mut self,
        d: &Decoded,
        target: u32,
        args: &[u64],
        return_to: Option<ValueId>,
    ) -> Frame {
        let df = &d.funcs[target as usize];
        let (mut regs, mut ready) = self.pool.pop().unwrap_or_default();
        regs.clear();
        regs.resize(df.n_values, 0);
        ready.clear();
        ready.resize(df.n_values, 0);
        for (i, a) in args.iter().enumerate() {
            regs[i] = a & df.param_masks[i];
        }
        Frame { func: FuncId(target), block: BlockId(0), idx: 0, regs, ready, return_to }
    }

    fn do_call(
        &mut self,
        tid: usize,
        d: &Decoded,
        target: u32,
        args_at: u32,
        args_n: u32,
        dst: Option<u32>,
    ) -> EFlow {
        let width = self.cfg.cost.width;
        let mut vals = std::mem::take(&mut self.arg_scratch);
        vals.clear();
        let mut ready = 0;
        let fr = self.threads[tid].frames.last().expect("live frame");
        for s in &d.args[args_at as usize..(args_at + args_n) as usize] {
            let (v, r) = rd(fr, *s);
            vals.push(v);
            ready = ready.max(r);
        }
        self.threads[tid].sb.issue(width, ready, self.cfg.cost.lat_call);
        let frame = self.make_frame_fused(d, target, &vals, dst.map(ValueId));
        self.arg_scratch = vals;
        self.threads[tid].frames.push(frame);
        EFlow::Flow(Flow::Continue)
    }

    /// Takes a decoded CFG edge: parallel phi moves, then the pc jump.
    fn take_edge_fused(&mut self, tid: usize, d: &Decoded, edge: Edge) {
        if edge.moves_n == 1 {
            // Single move: parallel semantics are trivial, skip the
            // scratch buffer.
            let mv = &d.moves[edge.moves_at as usize];
            let t = &mut self.threads[tid];
            let (v, r) = rd(t.frames.last().expect("live frame"), mv.src);
            wreg(t, &mut self.occ, &mut self.fault, &mut self.forensics, mv.dst, v, r, mv.ty);
            t.frames.last_mut().expect("live frame").idx = edge.target as usize;
        } else if edge.moves_n > 0 {
            let mut scratch = std::mem::take(&mut self.phi_scratch);
            scratch.clear();
            let at = edge.moves_at as usize;
            let t = &mut self.threads[tid];
            let fr = t.frames.last().expect("live frame");
            // Parallel semantics: read every source before any write.
            for mv in &d.moves[at..at + edge.moves_n as usize] {
                let (v, r) = rd(fr, mv.src);
                scratch.push((mv.dst, v, r, mv.ty));
            }
            for &(dst, v, r, ty) in &scratch {
                wreg(t, &mut self.occ, &mut self.fault, &mut self.forensics, dst, v, r, ty);
            }
            t.frames.last_mut().expect("live frame").idx = edge.target as usize;
            self.phi_scratch = scratch;
        } else {
            self.threads[tid].frames.last_mut().expect("live frame").idx = edge.target as usize;
        }
    }

    /// Executes one decoded op. Every arm mirrors the corresponding
    /// `Op` arm in `Vm::step` exactly.
    fn exec_dop(&mut self, tid: usize, op: &DOp, d: &Decoded) -> EFlow {
        let width = self.cfg.cost.width;
        match *op {
            // --- compute -----------------------------------------------------
            DOp::Bin { op, ty, a, b, dst, lat } => {
                let t = &mut self.threads[tid];
                let fr = t.frames.last().expect("live frame");
                let (av, ar) = rd(fr, a);
                let (bv, br) = rd(fr, b);
                match eval_bin(op, ty, av, bv) {
                    Ok(v) => {
                        let done = t.sb.issue(width, ar.max(br), lat);
                        wreg(
                            t,
                            &mut self.occ,
                            &mut self.fault,
                            &mut self.forensics,
                            dst,
                            v,
                            done,
                            ty,
                        );
                        EFlow::Norm
                    }
                    Err(trap) => EFlow::Flow(self.trap(tid, trap)),
                }
            }
            DOp::Un { op, ty, a, dst, lat } => {
                let t = &mut self.threads[tid];
                let (av, ar) = rd(t.frames.last().expect("live frame"), a);
                let v = eval_un(op, ty, av);
                let done = t.sb.issue(width, ar, lat);
                wreg(t, &mut self.occ, &mut self.fault, &mut self.forensics, dst, v, done, ty);
                EFlow::Norm
            }
            DOp::Cmp { op, ty, a, b, dst } => {
                let t = &mut self.threads[tid];
                let fr = t.frames.last().expect("live frame");
                let (av, ar) = rd(fr, a);
                let (bv, br) = rd(fr, b);
                let v = eval_cmp(op, ty, av, bv) as u64;
                let done = t.sb.issue(width, ar.max(br), self.cfg.cost.lat_int);
                wreg(t, &mut self.occ, &mut self.fault, &mut self.forensics, dst, v, done, Ty::I1);
                EFlow::Norm
            }
            DOp::MoveV { ty, a, dst } => {
                let t = &mut self.threads[tid];
                let (av, ar) = rd(t.frames.last().expect("live frame"), a);
                let done = t.sb.issue(width, ar, self.cfg.cost.lat_int);
                wreg(t, &mut self.occ, &mut self.fault, &mut self.forensics, dst, av, done, ty);
                EFlow::Norm
            }
            DOp::Cast { kind, from, to, a, dst } => {
                let t = &mut self.threads[tid];
                let (av, ar) = rd(t.frames.last().expect("live frame"), a);
                let v = eval_cast(kind, from, to, av);
                let done = t.sb.issue(width, ar, self.cfg.cost.lat_int);
                wreg(t, &mut self.occ, &mut self.fault, &mut self.forensics, dst, v, done, to);
                EFlow::Norm
            }
            DOp::Select { ty, c, t, f, dst } => {
                let th = &mut self.threads[tid];
                let fr = th.frames.last().expect("live frame");
                let (cv, cr) = rd(fr, c);
                let (tv, tr) = rd(fr, t);
                let (fv, fr2) = rd(fr, f);
                let v = if cv & 1 != 0 { tv } else { fv };
                let done = th.sb.issue(width, cr.max(tr).max(fr2), self.cfg.cost.lat_int);
                wreg(th, &mut self.occ, &mut self.fault, &mut self.forensics, dst, v, done, ty);
                EFlow::Norm
            }
            DOp::Gep { base, index, scale, offset, dst } => {
                let t = &mut self.threads[tid];
                let fr = t.frames.last().expect("live frame");
                let (bv, br) = rd(fr, base);
                let (iv, ir) = rd(fr, index);
                let v =
                    bv.wrapping_add((iv as i64).wrapping_mul(scale) as u64).wrapping_add(offset);
                let done = t.sb.issue(width, br.max(ir), self.cfg.cost.lat_int);
                wreg(t, &mut self.occ, &mut self.fault, &mut self.forensics, dst, v, done, Ty::Ptr);
                EFlow::Norm
            }
            DOp::TrapMalformed => EFlow::Flow(self.trap(tid, Trap::MalformedIr)),

            // --- memory -----------------------------------------------------
            DOp::Load { ty, addr, atomic, dst } => {
                let (av, ar) = rd(self.threads[tid].frames.last().expect("live frame"), addr);
                let len = ty.size_bytes();
                let hit = self.htm.access(tid, av, len as u64, AccessKind::Read);
                match self.mem_load(tid, av, len) {
                    Ok(v) => {
                        let lat = if atomic {
                            self.cfg.cost.lat_atomic
                        } else if hit {
                            self.cfg.cost.lat_load_hit
                        } else {
                            self.cfg.cost.lat_load_miss
                        };
                        let dep = self.mem_ready_f(tid, av, len);
                        let t = &mut self.threads[tid];
                        let done = t.sb.issue(width, ar.max(dep), lat);
                        wreg(
                            t,
                            &mut self.occ,
                            &mut self.fault,
                            &mut self.forensics,
                            dst,
                            v,
                            done,
                            ty,
                        );
                        EFlow::Norm
                    }
                    Err(trap) => EFlow::Flow(self.trap(tid, trap)),
                }
            }
            DOp::Store { ty, val, addr, atomic } => {
                let fr = self.threads[tid].frames.last().expect("live frame");
                let (vv, vr) = rd(fr, val);
                let (av, ar) = rd(fr, addr);
                let len = ty.size_bytes();
                self.htm.access(tid, av, len as u64, AccessKind::Write);
                match self.mem_store_f(tid, av, len, vv) {
                    Ok(()) => {
                        let lat =
                            if atomic { self.cfg.cost.lat_atomic } else { self.cfg.cost.lat_store };
                        let done = self.threads[tid].sb.issue(width, vr.max(ar), lat);
                        self.note_store_f(tid, av, len, done);
                        EFlow::Norm
                    }
                    Err(trap) => EFlow::Flow(self.trap(tid, trap)),
                }
            }
            DOp::Rmw { op, ty, addr, val, dst } => {
                let fr = self.threads[tid].frames.last().expect("live frame");
                let (av, ar) = rd(fr, addr);
                let (vv, vr) = rd(fr, val);
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
                                let dep = self.mem_ready_f(tid, av, len);
                                let t = &mut self.threads[tid];
                                let done = t.sb.issue(
                                    width,
                                    ar.max(vr).max(dep),
                                    self.cfg.cost.lat_atomic,
                                );
                                self.note_store_f(tid, av, len, done);
                                let t = &mut self.threads[tid];
                                wreg(
                                    t,
                                    &mut self.occ,
                                    &mut self.fault,
                                    &mut self.forensics,
                                    dst,
                                    old,
                                    done,
                                    ty,
                                );
                                EFlow::Norm
                            }
                            Err(trap) => EFlow::Flow(self.trap(tid, trap)),
                        }
                    }
                    Err(trap) => EFlow::Flow(self.trap(tid, trap)),
                }
            }
            DOp::CmpXchg { ty, addr, expected, new, dst } => {
                let fr = self.threads[tid].frames.last().expect("live frame");
                let (av, ar) = rd(fr, addr);
                let (ev, er) = rd(fr, expected);
                let (nv, nr) = rd(fr, new);
                let len = ty.size_bytes();
                self.htm.access(tid, av, len as u64, AccessKind::Write);
                match self.mem_load(tid, av, len) {
                    Ok(old) => {
                        let res =
                            if old == ev { self.mem_store_f(tid, av, len, nv) } else { Ok(()) };
                        match res {
                            Ok(()) => {
                                let dep = self.mem_ready_f(tid, av, len);
                                let ready = ar.max(er).max(nr).max(dep);
                                let t = &mut self.threads[tid];
                                let done = t.sb.issue(width, ready, self.cfg.cost.lat_atomic);
                                self.note_store_f(tid, av, len, done);
                                let t = &mut self.threads[tid];
                                wreg(
                                    t,
                                    &mut self.occ,
                                    &mut self.fault,
                                    &mut self.forensics,
                                    dst,
                                    old,
                                    done,
                                    ty,
                                );
                                EFlow::Norm
                            }
                            Err(trap) => EFlow::Flow(self.trap(tid, trap)),
                        }
                    }
                    Err(trap) => EFlow::Flow(self.trap(tid, trap)),
                }
            }
            DOp::Alloc { size, dst } => {
                let (sv, sr) = rd(self.threads[tid].frames.last().expect("live frame"), size);
                match self.mem.alloc(sv) {
                    Ok(base) => {
                        let t = &mut self.threads[tid];
                        let done = t.sb.issue(width, sr, self.cfg.cost.lat_alloc);
                        wreg(
                            t,
                            &mut self.occ,
                            &mut self.fault,
                            &mut self.forensics,
                            dst,
                            base,
                            done,
                            Ty::Ptr,
                        );
                        EFlow::Norm
                    }
                    Err(trap) => EFlow::Flow(self.trap(tid, trap)),
                }
            }

            // --- control ----------------------------------------------------
            DOp::Br { edge } => {
                self.threads[tid].sb.issue(width, 0, self.cfg.cost.lat_branch);
                self.take_edge_fused(tid, d, edge);
                EFlow::Flow(Flow::Continue)
            }
            DOp::CondBr { cond, t, f, bp } => {
                let th = &mut self.threads[tid];
                let (cv, cr) = rd(th.frames.last().expect("live frame"), cond);
                let taken = cv & 1 != 0;
                let done = th.sb.issue(width, cr, self.cfg.cost.lat_branch);
                // Dense 1-bit predictor: 0 unknown, 1 not-taken, 2 taken.
                let prev = th.bp_dense[bp as usize];
                th.bp_dense[bp as usize] = 1 + taken as u8;
                if prev != 0 && (prev == 2) != taken {
                    self.mispredicts += 1;
                    th.sb.flush_to(done + self.cfg.cost.mispredict_penalty);
                }
                let edge = if taken { t } else { f };
                self.take_edge_fused(tid, d, edge);
                EFlow::Flow(Flow::Continue)
            }
            DOp::CallDirect { target, args_at, args_n, dst, arity_ok } => {
                if self.threads[tid].frames.len() >= MAX_CALL_DEPTH {
                    return EFlow::Flow(self.trap(tid, Trap::StackOverflow));
                }
                if !arity_ok {
                    return EFlow::Flow(self.trap(tid, Trap::MalformedIr));
                }
                self.do_call(tid, d, target, args_at, args_n, dst)
            }
            DOp::CallInd { callee, args_at, args_n, dst } => {
                let (v, _) = rd(self.threads[tid].frames.last().expect("live frame"), callee);
                let idx = v.wrapping_sub(FUNC_BASE);
                if v < FUNC_BASE || (idx as usize) >= d.funcs.len() {
                    return EFlow::Flow(self.trap(tid, Trap::BadIndirectCall { target: v }));
                }
                let target = idx as u32;
                if self.threads[tid].frames.len() >= MAX_CALL_DEPTH {
                    return EFlow::Flow(self.trap(tid, Trap::StackOverflow));
                }
                if d.funcs[target as usize].n_params != args_n as usize {
                    return EFlow::Flow(self.trap(tid, Trap::MalformedIr));
                }
                self.do_call(tid, d, target, args_at, args_n, dst)
            }
            DOp::Ret { val } => {
                let t = &mut self.threads[tid];
                let rv = val.map(|s| rd(t.frames.last().expect("live frame"), s));
                let done =
                    t.sb.issue(width, rv.map(|(_, r)| r).unwrap_or(0), self.cfg.cost.lat_call);
                let frame = t.frames.pop().expect("live frame");
                if t.frames.is_empty() {
                    self.pool.push((frame.regs, frame.ready));
                    return EFlow::Flow(Flow::ThreadDone);
                }
                if let (Some(dst), Some((v, _))) = (frame.return_to, rv) {
                    let ty = d.funcs[frame.func.0 as usize].ret_ty;
                    wreg(
                        t,
                        &mut self.occ,
                        &mut self.fault,
                        &mut self.forensics,
                        dst.0,
                        v,
                        done,
                        ty,
                    );
                }
                // Donate the retired register window back to the pool.
                self.pool.push((frame.regs, frame.ready));
                EFlow::Flow(Flow::Continue)
            }

            // --- HAFT runtime intrinsics -----------------------------------------
            DOp::TxBegin => {
                let done = self.threads[tid].sb.issue_serial(width, self.cfg.cost.lat_tx_begin);
                self.tx_begin(tid, done);
                EFlow::Norm
            }
            DOp::TxEnd => {
                if self.threads[tid].tx_depth > 1 {
                    self.threads[tid].tx_depth -= 1;
                    self.threads[tid].sb.issue(width, 0, self.cfg.cost.lat_int);
                    EFlow::Norm
                } else if self.threads[tid].in_tx() {
                    self.threads[tid].sb.issue_serial(width, self.cfg.cost.lat_tx_end);
                    match self.tx_commit(tid) {
                        Ok(()) => EFlow::Norm,
                        Err(cause) => {
                            self.tx_abort(tid, cause);
                            EFlow::Flow(Flow::Continue)
                        }
                    }
                } else {
                    self.threads[tid].sb.issue(width, 0, self.cfg.cost.lat_int);
                    EFlow::Norm
                }
            }
            DOp::TxCondSplit => {
                self.threads[tid].sb.issue(width, 0, self.cfg.cost.lat_tx_split_check);
                if self.threads[tid].counter >= self.threads[tid].threshold
                    && self.threads[tid].elided.is_empty()
                {
                    if self.threads[tid].in_tx() {
                        self.threads[tid].sb.issue_serial(width, self.cfg.cost.lat_tx_end);
                        match self.tx_commit(tid) {
                            Ok(()) => {
                                let begin = self.threads[tid]
                                    .sb
                                    .issue_serial(width, self.cfg.cost.lat_tx_begin);
                                self.tx_begin(tid, begin);
                                EFlow::Norm
                            }
                            Err(cause) => {
                                self.tx_abort(tid, cause);
                                EFlow::Flow(Flow::Continue)
                            }
                        }
                    } else {
                        let begin =
                            self.threads[tid].sb.issue_serial(width, self.cfg.cost.lat_tx_begin);
                        self.tx_begin(tid, begin);
                        EFlow::Norm
                    }
                } else {
                    EFlow::Norm
                }
            }
            DOp::TxCounterInc { amount } => {
                let lat = self.cfg.cost.lat_counter_inc;
                let t = &mut self.threads[tid];
                t.counter += amount;
                t.sb.issue(width, 0, lat);
                EFlow::Norm
            }
            DOp::TxAbortIlr => EFlow::Flow(self.ilr_detect(tid)),
            DOp::TxAbortExplicit => {
                if self.threads[tid].in_tx() {
                    self.tx_abort(tid, AbortCause::Explicit);
                    EFlow::Flow(Flow::Continue)
                } else {
                    EFlow::Flow(Flow::Stop(RunOutcome::Detected))
                }
            }
            DOp::Vote { ty, a, b, c, dst } => {
                let t = &mut self.threads[tid];
                let fr = t.frames.last().expect("live frame");
                let (av, ar) = rd(fr, a);
                let (bv, br) = rd(fr, b);
                let (cv, cr) = rd(fr, c);
                let majority = if av == bv || av == cv {
                    Some(av)
                } else if bv == cv {
                    Some(bv)
                } else {
                    None
                };
                match majority {
                    Some(v) => {
                        if !(av == bv && av == cv) {
                            self.corrected_by_vote += 1;
                            // `t` stays borrowed; `trace`/`wall_cycles` are
                            // disjoint `Vm` fields.
                            if let Some(tr) = self.trace.as_mut() {
                                tr.push(
                                    haft_trace::TraceEvent::instant(
                                        "vm",
                                        "vote.correct",
                                        self.wall_cycles + t.sb.clock,
                                    )
                                    .lane(0, tid as u32),
                                );
                            }
                            if let Some(fx) = self.forensics.as_deref_mut() {
                                // Same pre-issue timestamp as the
                                // interpreter's vote hook.
                                fx.detect(
                                    super::forensics::FaultDetector::Vote,
                                    self.instructions,
                                    self.wall_cycles + t.sb.clock,
                                );
                            }
                        }
                        let done = t.sb.issue(width, ar.max(br).max(cr), self.cfg.cost.lat_vote);
                        // Forwarded write: not part of the fault-injection
                        // occurrence stream (mirrors `write_reg_forwarded`).
                        let fr = t.frames.last_mut().expect("live frame");
                        fr.regs[dst as usize] = v & ty.mask();
                        fr.ready[dst as usize] = done;
                        EFlow::Norm
                    }
                    None => EFlow::Flow(self.ilr_detect(tid)),
                }
            }
            DOp::ChkCorrect { ty, a, b, c, dst } => {
                let t = &mut self.threads[tid];
                let fr = t.frames.last().expect("live frame");
                let (av, ar) = rd(fr, a);
                let (bv, br) = rd(fr, b);
                let (cv, cr) = rd(fr, c);
                let majority = if av == bv || av == cv {
                    Some(av)
                } else if bv == cv {
                    Some(bv)
                } else {
                    None
                };
                match majority {
                    Some(v) => {
                        if !(av == bv && av == cv) {
                            self.corrected_by_checksum += 1;
                            if let Some(tr) = self.trace.as_mut() {
                                tr.push(
                                    haft_trace::TraceEvent::instant(
                                        "vm",
                                        "abft.correct",
                                        self.wall_cycles + t.sb.clock,
                                    )
                                    .lane(0, tid as u32),
                                );
                            }
                            if let Some(fx) = self.forensics.as_deref_mut() {
                                // Same pre-issue timestamp as the
                                // interpreter's hook.
                                fx.detect(
                                    super::forensics::FaultDetector::Checksum,
                                    self.instructions,
                                    self.wall_cycles + t.sb.clock,
                                );
                            }
                        }
                        let done = t.sb.issue(width, ar.max(br).max(cr), self.cfg.cost.lat_vote);
                        // Forwarded write: not part of the fault-injection
                        // occurrence stream (mirrors `write_reg_forwarded`).
                        let fr = t.frames.last_mut().expect("live frame");
                        fr.regs[dst as usize] = v & ty.mask();
                        fr.ready[dst as usize] = done;
                        EFlow::Norm
                    }
                    None => EFlow::Flow(self.ilr_detect(tid)),
                }
            }
            DOp::Lock { addr } => {
                let (av, ar) = rd(self.threads[tid].frames.last().expect("live frame"), addr);
                EFlow::Flow(self.exec_lock(tid, av, ar))
            }
            DOp::Unlock { addr } => {
                let (av, ar) = rd(self.threads[tid].frames.last().expect("live frame"), addr);
                EFlow::Flow(self.exec_unlock(tid, av, ar))
            }
            DOp::Emit { val } => {
                if self.threads[tid].in_tx() {
                    self.tx_abort(tid, AbortCause::Unfriendly);
                    EFlow::Flow(Flow::Continue)
                } else {
                    let t = &mut self.threads[tid];
                    let (v, _) = rd(t.frames.last().expect("live frame"), val);
                    t.sb.issue_serial(width, self.cfg.cost.lat_emit);
                    t.emitted.push(v);
                    EFlow::Norm
                }
            }
            DOp::ThreadIdD { dst } => {
                let t = &mut self.threads[tid];
                let done = t.sb.issue(width, 0, self.cfg.cost.lat_int);
                wreg(
                    t,
                    &mut self.occ,
                    &mut self.fault,
                    &mut self.forensics,
                    dst,
                    tid as u64,
                    done,
                    Ty::I64,
                );
                EFlow::Norm
            }
            DOp::NumThreadsD { dst } => {
                let n = self.cfg.n_threads.max(1) as u64;
                let t = &mut self.threads[tid];
                let done = t.sb.issue(width, 0, self.cfg.cost.lat_int);
                wreg(t, &mut self.occ, &mut self.fault, &mut self.forensics, dst, n, done, Ty::I64);
                EFlow::Norm
            }
            DOp::Nop => EFlow::Norm,
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

#[inline]
fn cell_hash(key: u64, shift: u32) -> usize {
    // Fibonacci hashing: cells are sequential, so multiply-shift spreads
    // them across the table with no clustering.
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
}

/// The fused engine's speculative write buffer: a word-granular overlay
/// keyed by 8-byte cell, with a per-byte validity mask. Semantically
/// identical to the interpreter's byte-keyed `HashMap<u64, u8>` overlay
/// (same buffered bytes, same read-through merge, same flush result) at
/// one probe per cell instead of one SipHash per byte.
#[derive(Clone, Debug, Default)]
pub(super) struct FastOverlay {
    /// `(cell + 1, data word, byte mask)`; key 0 marks an empty slot.
    slots: Vec<(u64, u64, u8)>,
    /// Occupied slot indices, for O(used) clear and flush.
    used: Vec<u32>,
    shift: u32,
}

impl FastOverlay {
    pub fn new() -> Self {
        FastOverlay::default()
    }

    pub fn is_empty(&self) -> bool {
        self.used.is_empty()
    }

    pub fn clear(&mut self) {
        for &s in &self.used {
            self.slots[s as usize].0 = 0;
        }
        self.used.clear();
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(64);
        let mut next = FastOverlay {
            slots: vec![(0, 0, 0); cap],
            used: Vec::with_capacity(self.used.len() + 1),
            shift: 64 - cap.trailing_zeros(),
        };
        for &s in &self.used {
            let (k, w, m) = self.slots[s as usize];
            let slot = next.slot_for(k - 1);
            next.slots[slot] = (k, w, m);
            next.used.push(slot as u32);
        }
        *self = next;
    }

    /// Index of the slot holding `cell`, or of the empty slot where it
    /// would be inserted.
    #[inline]
    fn slot_for(&self, cell: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = cell_hash(cell, self.shift) & mask;
        loop {
            let k = self.slots[i].0;
            if k == 0 || k == cell + 1 {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Buffers the low `len` bytes of `val` at `addr` (little-endian),
    /// overwriting previously buffered bytes in the range.
    pub fn buffer_store(&mut self, addr: u64, len: u32, val: u64) {
        // Keep load factor at or below one half.
        if (self.used.len() + 2) * 2 > self.slots.len() {
            self.grow();
        }
        let mut i = 0u32;
        while i < len {
            let a = addr + i as u64;
            let cell = a >> 3;
            let off = (a & 7) as u32;
            let n = (8 - off).min(len - i);
            let byte_mask = (((1u16 << n) - 1) as u8) << off;
            let lanes = LANES[byte_mask as usize];
            let part = ((val >> (8 * i)) << (8 * off)) & lanes;
            let slot = self.slot_for(cell);
            let entry = &mut self.slots[slot];
            if entry.0 == 0 {
                *entry = (cell + 1, part, byte_mask);
                self.used.push(slot as u32);
            } else {
                entry.1 = (entry.1 & !lanes) | part;
                entry.2 |= byte_mask;
            }
            i += n;
        }
    }

    /// Read-through merge: `base` is the value loaded from memory at
    /// `addr`/`len`; buffered bytes replace the corresponding lanes.
    pub fn merge(&self, addr: u64, len: u32, base: u64) -> u64 {
        let mut v = base;
        let mut i = 0u32;
        while i < len {
            let a = addr + i as u64;
            let cell = a >> 3;
            let off = (a & 7) as u32;
            let n = (8 - off).min(len - i);
            let slot = self.slot_for(cell);
            let (k, word, mask) = self.slots[slot];
            if k != 0 {
                let sub = (mask >> off) & (((1u16 << n) - 1) as u8);
                if sub != 0 {
                    let lanes = LANES[sub as usize];
                    let data = (word >> (8 * off)) & lanes;
                    v = (v & !(lanes << (8 * i))) | (data << (8 * i));
                }
            }
            i += n;
        }
        v
    }

    /// Commits every buffered byte to memory and clears the buffer.
    /// Byte addresses are unique, so write order is immaterial — exactly
    /// like the interpreter's hash-order overlay drain.
    pub fn flush_into(&mut self, mem: &mut Memory) {
        for &s in &self.used {
            let (k, word, mask) = self.slots[s as usize];
            self.slots[s as usize].0 = 0;
            let base = (k - 1) << 3;
            for b in 0..8 {
                if mask & (1 << b) != 0 {
                    // Bounds were checked when buffering.
                    let _ = mem.store_byte(base + b as u64, (word >> (8 * b)) as u8);
                }
            }
        }
        self.used.clear();
    }
}

/// Open-addressed `cell → u64` map for store→load forwarding times.
#[derive(Clone, Debug, Default)]
pub(super) struct CellMap {
    /// `(cell + 1, value)`; key 0 marks an empty slot.
    slots: Vec<(u64, u64)>,
    used: Vec<u32>,
    shift: u32,
}

impl CellMap {
    pub fn new() -> Self {
        CellMap::default()
    }

    pub fn clear(&mut self) {
        for &s in &self.used {
            self.slots[s as usize].0 = 0;
        }
        self.used.clear();
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(64);
        let mut next = CellMap {
            slots: vec![(0, 0); cap],
            used: Vec::with_capacity(self.used.len() + 1),
            shift: 64 - cap.trailing_zeros(),
        };
        for &s in &self.used {
            let (k, v) = self.slots[s as usize];
            let slot = next.slot_for(k - 1);
            next.slots[slot] = (k, v);
            next.used.push(slot as u32);
        }
        *self = next;
    }

    #[inline]
    fn slot_for(&self, cell: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = cell_hash(cell, self.shift) & mask;
        loop {
            let k = self.slots[i].0;
            if k == 0 || k == cell + 1 {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    #[inline]
    pub fn get(&self, cell: u64) -> Option<u64> {
        if self.used.is_empty() {
            return None;
        }
        let slot = self.slot_for(cell);
        let (k, v) = self.slots[slot];
        (k != 0).then_some(v)
    }

    pub fn insert(&mut self, cell: u64, val: u64) {
        if (self.used.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let slot = self.slot_for(cell);
        let entry = &mut self.slots[slot];
        if entry.0 == 0 {
            *entry = (cell + 1, val);
            self.used.push(slot as u32);
        } else {
            entry.1 = val;
        }
    }
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
        assert_eq!(cm.get(5), None);
        cm.insert(5, 100);
        cm.insert(5, 200);
        assert_eq!(cm.get(5), Some(200));
        for i in 0..300 {
            cm.insert(i, i * 2);
        }
        for i in 0..300 {
            assert_eq!(cm.get(i), Some(i * 2));
        }
        cm.clear();
        assert_eq!(cm.get(5), None);
    }

    #[test]
    fn lanes_table_expands_mask_bits() {
        assert_eq!(LANES[0], 0);
        assert_eq!(LANES[0xFF], u64::MAX);
        assert_eq!(LANES[0b0000_0101], 0x0000_0000_00FF_00FF);
    }
}
