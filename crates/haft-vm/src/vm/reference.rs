//! The reference interpreter: the executable spec of the testbed.
//!
//! `Vm::step` executes one IR instruction of one thread straight from the
//! [`haft_ir`] `Function` — no decoded operands, a byte-keyed `HashMap`
//! write buffer, a hash-map branch predictor, an edge walk that re-scans
//! the target block's phis. It is written for reading: every semantic
//! question about the testbed should be answered here. It is also the
//! oracle: `tests/differential.rs` holds the fused engine (`engine.rs`)
//! equal to it on whole `RunResult`s, which is why every compute, memory,
//! branch, call and return arm below has an independently written twin
//! there and must not be merged with it.
//!
//! What is *not* here is what both engines share (`vm.rs`): the
//! scheduler, the transaction runtime, the `before_op`/`after_op` hooks
//! around each op, and the intrinsics that read no operand. The decoded
//! form appears only as `dop`, the name the hooks know the current op by.

use haft_htm::AccessKind;
use haft_ir::function::{BlockId, ValueId};
use haft_ir::inst::{AbortCode, Callee, Op, Operand, RmwOp};
use haft_ir::module::FuncId;
use haft_ir::types::Ty;

use super::{
    decode, eval_bin, eval_cast, eval_cmp, eval_un, Flow, Reg, Upset, Vm, FUNC_BASE, MAX_CALL_DEPTH,
};
use crate::cost;
use crate::mem::Trap;

impl<'m> Vm<'m> {
    // --- operand evaluation ---------------------------------------------------

    fn operand(&self, tid: usize, o: &Operand) -> (u64, u64) {
        let frame = self.threads[tid].frames.last().expect("live frame");
        match o {
            Operand::Value(v) => {
                let r = frame.regs[v.0 as usize];
                (r.val, r.ready)
            }
            Operand::Imm(v, ty) => ((*v as u64) & ty.mask(), 0),
            Operand::F64Bits(b) => (*b, 0),
            Operand::GlobalAddr(g) => (self.mem.global_bases[g.0 as usize], 0),
            Operand::FuncAddr(f) => (FUNC_BASE + f.0 as u64, 0),
        }
    }

    fn write_reg(&mut self, tid: usize, v: ValueId, val: u64, ready: u64, ty: Ty) {
        let masked = val & ty.mask();
        let frame = self.threads[tid].frames.last_mut().expect("live frame");
        frame.regs[v.0 as usize] = Reg { val: masked, ready };
        // Fault-injection hook: this is the paper's "register-writing
        // instruction" stream.
        self.occ += 1;
        if let Upset::Armed { plan, .. } = self.fault {
            if self.occ - 1 == plan.occurrence {
                let mask = plan.effective_mask(ty);
                let frame = self.threads[tid].frames.last_mut().expect("live frame");
                frame.regs[v.0 as usize].val ^= mask;
                self.fault = Upset::Fired { tid, occurrence: plan.occurrence };
                if let Some(fx) = self.forensics.as_deref_mut() {
                    let t = &self.threads[tid];
                    let func = t.frames.last().expect("live frame").func;
                    fx.seed(func, t.frames.len(), v.0, mask, plan.occurrence);
                }
            }
        }
    }

    /// Register write that is *not* part of the fault-injection stream:
    /// used for `vote` results, which model a fused compare+select whose
    /// output forwards directly into the consuming instruction rather
    /// than living in an architecturally visible register. Without this,
    /// every vote would itself be a new single point of failure right at
    /// the synchronization point it protects.
    fn write_reg_forwarded(&mut self, tid: usize, v: ValueId, val: u64, ready: u64, ty: Ty) {
        let frame = self.threads[tid].frames.last_mut().expect("live frame");
        frame.regs[v.0 as usize] = Reg { val: val & ty.mask(), ready };
    }

    // --- memory dependency tracking -----------------------------------------------

    /// Ready time contributed by earlier stores covering `[addr, addr+len)`.
    fn mem_ready(&self, tid: usize, addr: u64, len: u32) -> u64 {
        let t = &self.threads[tid];
        let mut ready = 0;
        for cell in (addr >> 3)..=((addr + len as u64 - 1) >> 3) {
            if let Some(d) = t.store_done.get(&cell) {
                ready = ready.max(*d);
            }
        }
        ready
    }

    /// Records a store completing at `done` over `[addr, addr+len)`.
    fn note_store(&mut self, tid: usize, addr: u64, len: u32, done: u64) {
        let t = &mut self.threads[tid];
        for cell in (addr >> 3)..=((addr + len as u64 - 1) >> 3) {
            t.store_done.insert(cell, done);
        }
    }

    fn mem_store(&mut self, tid: usize, addr: u64, len: u32, val: u64) -> Result<(), Trap> {
        if self.threads[tid].in_tx() {
            // Buffer speculatively; bounds-check now so wild stores trap
            // (and thus abort) immediately.
            self.mem.load(addr, len)?;
            for i in 0..len as usize {
                self.threads[tid].overlay.insert(addr + i as u64, (val >> (8 * i)) as u8);
            }
            Ok(())
        } else {
            self.mem.store(addr, len, val)
        }
    }

    // --- the interpreter --------------------------------------------------------

    /// Executes one instruction of thread `tid`.
    pub(super) fn step(&mut self, tid: usize, d: &decode::Decoded) -> Flow {
        // Deliver pending asynchronous aborts first.
        if self.threads[tid].in_tx() {
            if let Some(cause) = self.htm.doomed(tid) {
                self.tx_abort(tid, cause);
                return Flow::Continue;
            }
        }

        let frame = self.threads[tid].frames.last().expect("live frame");
        let fid = frame.func;
        let f = self.m.func(fid);
        let bid = frame.block;
        let idx = frame.idx;
        let block = &f.blocks[bid.0 as usize];
        debug_assert!(idx < block.insts.len(), "fell off block without terminator");
        let iid = block.insts[idx];
        let inst = f.inst(iid);
        let result = f.inst_result(iid);
        // The same op as the observation hooks know it: the lowering is
        // 1:1, a block's slots in order from its start pc.
        let df = &d.funcs[fid.0 as usize];
        let dop = &df.code[df.block_start[bid.0 as usize] + idx];

        // Pre-advance the pc; control flow overwrites it.
        self.threads[tid].frames.last_mut().expect("live frame").idx += 1;
        self.instructions += 1;
        self.before_op(tid, fid.0, dop, d);

        let flow = match &inst.op {
            // --- compute -----------------------------------------------------
            Op::Bin { op, ty, a, b } => {
                let (av, ar) = self.operand(tid, a);
                let (bv, br) = self.operand(tid, b);
                let lat = cost::compute_latency(&inst.op);
                match eval_bin(*op, *ty, av, bv) {
                    Ok(v) => {
                        let done = self.threads[tid].sb.issue(ar.max(br), lat);
                        self.write_reg(tid, result.unwrap(), v, done, *ty);
                        Flow::Continue
                    }
                    Err(t) => self.trap(tid, t),
                }
            }
            Op::Un { op, ty, a } => {
                let (av, ar) = self.operand(tid, a);
                let lat = cost::compute_latency(&inst.op);
                let v = eval_un(*op, *ty, av);
                let done = self.threads[tid].sb.issue(ar, lat);
                self.write_reg(tid, result.unwrap(), v, done, *ty);
                Flow::Continue
            }
            Op::Cmp { op, ty, a, b } => {
                let (av, ar) = self.operand(tid, a);
                let (bv, br) = self.operand(tid, b);
                let v = eval_cmp(*op, *ty, av, bv) as u64;
                let done = self.threads[tid].sb.issue(ar.max(br), cost::LAT_INT);
                self.write_reg(tid, result.unwrap(), v, done, Ty::I1);
                Flow::Continue
            }
            Op::Move { ty, a } => {
                let (av, ar) = self.operand(tid, a);
                let done = self.threads[tid].sb.issue(ar, cost::LAT_INT);
                self.write_reg(tid, result.unwrap(), av, done, *ty);
                Flow::Continue
            }
            Op::Cast { kind, to, a } => {
                let (av, ar) = self.operand(tid, a);
                let from = f.operand_ty(a);
                let v = eval_cast(*kind, from, *to, av);
                let done = self.threads[tid].sb.issue(ar, cost::LAT_INT);
                self.write_reg(tid, result.unwrap(), v, done, *to);
                Flow::Continue
            }
            Op::Select { ty, c, t, f: fv } => {
                let (cv, cr) = self.operand(tid, c);
                let (tv, tr) = self.operand(tid, t);
                let (fvv, fr) = self.operand(tid, fv);
                let v = if cv & 1 != 0 { tv } else { fvv };
                let ready = cr.max(tr).max(fr);
                let done = self.threads[tid].sb.issue(ready, cost::LAT_INT);
                self.write_reg(tid, result.unwrap(), v, done, *ty);
                Flow::Continue
            }
            Op::Gep { base, index, scale, offset } => {
                let (bv, br) = self.operand(tid, base);
                let (iv, ir) = self.operand(tid, index);
                let v = bv
                    .wrapping_add((iv as i64).wrapping_mul(*scale as i64) as u64)
                    .wrapping_add(*offset as u64);
                let done = self.threads[tid].sb.issue(br.max(ir), cost::LAT_INT);
                self.write_reg(tid, result.unwrap(), v, done, Ty::Ptr);
                Flow::Continue
            }
            Op::Phi { .. } => {
                // Phis are evaluated on the incoming edge; reaching one via
                // straight-line execution means the entry block has phis.
                self.trap(tid, Trap::MalformedIr)
            }

            // --- memory -----------------------------------------------------
            Op::Load { ty, addr, atomic } => {
                let (av, ar) = self.operand(tid, addr);
                let hit = self.htm.access(tid, av, ty.size_bytes() as u64, AccessKind::Read);
                match self.mem_load(tid, av, ty.size_bytes()) {
                    Ok(v) => {
                        let lat = if *atomic {
                            cost::LAT_ATOMIC
                        } else if hit {
                            cost::LAT_LOAD_HIT
                        } else {
                            cost::LAT_LOAD_MISS
                        };
                        let dep = self.mem_ready(tid, av, ty.size_bytes());
                        let done = self.threads[tid].sb.issue(ar.max(dep), lat);
                        self.write_reg(tid, result.unwrap(), v, done, *ty);
                        Flow::Continue
                    }
                    Err(t) => self.trap(tid, t),
                }
            }
            Op::Store { ty, val, addr, atomic } => {
                let (vv, vr) = self.operand(tid, val);
                let (av, ar) = self.operand(tid, addr);
                self.htm.access(tid, av, ty.size_bytes() as u64, AccessKind::Write);
                match self.mem_store(tid, av, ty.size_bytes(), vv) {
                    Ok(()) => {
                        let lat = if *atomic { cost::LAT_ATOMIC } else { cost::LAT_STORE };
                        let done = self.threads[tid].sb.issue(vr.max(ar), lat);
                        self.note_store(tid, av, ty.size_bytes(), done);
                        Flow::Continue
                    }
                    Err(t) => self.trap(tid, t),
                }
            }
            Op::Rmw { op, ty, addr, val } => {
                let (av, ar) = self.operand(tid, addr);
                let (vv, vr) = self.operand(tid, val);
                self.htm.access(tid, av, ty.size_bytes() as u64, AccessKind::Write);
                match self.mem_load(tid, av, ty.size_bytes()) {
                    Ok(old) => {
                        let new = match op {
                            RmwOp::Add => old.wrapping_add(vv),
                            RmwOp::Xchg => vv,
                        };
                        match self.mem_store(tid, av, ty.size_bytes(), new) {
                            Ok(()) => {
                                let dep = self.mem_ready(tid, av, ty.size_bytes());
                                let done = self.threads[tid]
                                    .sb
                                    .issue(ar.max(vr).max(dep), cost::LAT_ATOMIC);
                                self.note_store(tid, av, ty.size_bytes(), done);
                                self.write_reg(tid, result.unwrap(), old, done, *ty);
                                Flow::Continue
                            }
                            Err(t) => self.trap(tid, t),
                        }
                    }
                    Err(t) => self.trap(tid, t),
                }
            }
            Op::CmpXchg { ty, addr, expected, new } => {
                let (av, ar) = self.operand(tid, addr);
                let (ev, er) = self.operand(tid, expected);
                let (nv, nr) = self.operand(tid, new);
                self.htm.access(tid, av, ty.size_bytes() as u64, AccessKind::Write);
                match self.mem_load(tid, av, ty.size_bytes()) {
                    Ok(old) => {
                        let res = if old == ev {
                            self.mem_store(tid, av, ty.size_bytes(), nv)
                        } else {
                            Ok(())
                        };
                        match res {
                            Ok(()) => {
                                let dep = self.mem_ready(tid, av, ty.size_bytes());
                                let ready = ar.max(er).max(nr).max(dep);
                                let done = self.threads[tid].sb.issue(ready, cost::LAT_ATOMIC);
                                self.note_store(tid, av, ty.size_bytes(), done);
                                self.write_reg(tid, result.unwrap(), old, done, *ty);
                                Flow::Continue
                            }
                            Err(t) => self.trap(tid, t),
                        }
                    }
                    Err(t) => self.trap(tid, t),
                }
            }
            Op::Alloc { size } => {
                let (sv, sr) = self.operand(tid, size);
                match self.mem.alloc(sv) {
                    Ok(base) => {
                        let done = self.threads[tid].sb.issue(sr, cost::LAT_ALLOC);
                        self.write_reg(tid, result.unwrap(), base, done, Ty::Ptr);
                        Flow::Continue
                    }
                    Err(t) => self.trap(tid, t),
                }
            }

            // --- control ----------------------------------------------------
            Op::Br { dest } => {
                self.threads[tid].sb.issue(0, cost::LAT_BRANCH);
                self.take_edge(tid, fid, bid, *dest);
                Flow::Continue
            }
            Op::CondBr { cond, t, f: fb } => {
                let (cv, cr) = self.operand(tid, cond);
                let taken = cv & 1 != 0;
                let done = self.threads[tid].sb.issue(cr, cost::LAT_BRANCH);
                // 1-bit predictor keyed by instruction identity.
                let key = ((fid.0 as u64) << 32) | iid.0 as u64;
                let predicted = self.threads[tid].bp.insert(key, taken);
                if predicted != Some(taken) && predicted.is_some() {
                    self.mispredicts += 1;
                    let resume = done + cost::MISPREDICT_PENALTY;
                    self.threads[tid].sb.flush_to(resume);
                }
                let dest = if taken { *t } else { *fb };
                self.take_edge(tid, fid, bid, dest);
                Flow::Continue
            }
            Op::Call { callee, args, ret_ty: _ } => {
                let target = match callee {
                    Callee::Direct(fid) => Some(*fid),
                    Callee::Indirect(o) => {
                        let (v, _) = self.operand(tid, o);
                        let idx = v.wrapping_sub(FUNC_BASE);
                        if v >= FUNC_BASE && (idx as usize) < self.m.funcs.len() {
                            Some(FuncId(idx as u32))
                        } else {
                            None
                        }
                    }
                };
                let Some(target) = target else {
                    let v = match callee {
                        Callee::Indirect(o) => self.operand(tid, o).0,
                        Callee::Direct(_) => unreachable!("direct callee always resolves"),
                    };
                    return self.trap(tid, Trap::BadIndirectCall { target: v });
                };
                if self.threads[tid].frames.len() >= MAX_CALL_DEPTH {
                    return self.trap(tid, Trap::StackOverflow);
                }
                let callee_f = self.m.func(target);
                if callee_f.params.len() != args.len() {
                    return self.trap(tid, Trap::MalformedIr);
                }
                let mut vals = Vec::with_capacity(args.len());
                let mut ready = 0;
                for a in args {
                    let (v, r) = self.operand(tid, a);
                    vals.push(v);
                    ready = ready.max(r);
                }
                self.threads[tid].sb.issue(ready, cost::LAT_CALL);
                let new_frame = self.make_frame(target, &vals, result);
                self.threads[tid].frames.push(new_frame);
                Flow::Continue
            }
            Op::Ret { val } => {
                let rv = val.as_ref().map(|v| self.operand(tid, v));
                let done =
                    self.threads[tid].sb.issue(rv.map(|(_, r)| r).unwrap_or(0), cost::LAT_CALL);
                let frame = self.threads[tid].frames.pop().expect("live frame");
                if self.threads[tid].frames.is_empty() {
                    return Flow::ThreadDone;
                }
                if let (Some(dst), Some((v, _))) = (frame.return_to, rv) {
                    let ty = self.m.func(frame.func).ret_ty.unwrap_or(Ty::I64);
                    self.write_reg(tid, dst, v, done, ty);
                }
                Flow::Continue
            }

            // --- HAFT runtime intrinsics -----------------------------------------
            Op::TxBegin => self.exec_tx_begin(tid),
            Op::TxEnd => self.exec_tx_end(tid),
            Op::TxCondSplit => {
                let t = &mut self.threads[tid];
                t.sb.issue(0, cost::LAT_TX_SPLIT_CHECK);
                // A split must not commit while a lock is elided: the
                // critical section would lose its atomicity (and the
                // matching unlock its elision record). Defer until the
                // elision stack drains.
                if t.counter >= t.threshold && t.elided.is_empty() {
                    self.exec_tx_split(tid)
                } else {
                    Flow::Continue
                }
            }
            Op::TxCounterInc { amount } => {
                let t = &mut self.threads[tid];
                t.counter += *amount as u64;
                t.sb.issue(0, cost::LAT_COUNTER_INC);
                Flow::Continue
            }
            Op::TxAbort { code } => match code {
                AbortCode::IlrDetected => self.ilr_detect(tid),
                AbortCode::Explicit => self.exec_abort_explicit(tid),
            },
            Op::Vote { ty, a, b, c } | Op::ChkCorrect { ty, a, b, c } => {
                let (av, ar) = self.operand(tid, a);
                let (bv, br) = self.operand(tid, b);
                let (cv, cr) = self.operand(tid, c);
                let checksum = matches!(inst.op, Op::ChkCorrect { .. });
                match self.majority(tid, checksum, [av, bv, cv]) {
                    Some(v) => {
                        let ready = ar.max(br).max(cr);
                        let done = self.threads[tid].sb.issue(ready, cost::LAT_VOTE);
                        self.write_reg_forwarded(tid, result.unwrap(), v, done, *ty);
                        Flow::Continue
                    }
                    None => self.ilr_detect(tid),
                }
            }
            Op::Lock { addr } => {
                let (av, ar) = self.operand(tid, addr);
                self.exec_lock(tid, av, ar)
            }
            Op::Unlock { addr } => {
                let (av, ar) = self.operand(tid, addr);
                self.exec_unlock(tid, av, ar)
            }
            Op::Emit { ty: _, val } => {
                let (v, _) = self.operand(tid, val);
                self.exec_emit(tid, v)
            }
            Op::ThreadId => {
                let done = self.threads[tid].sb.issue(0, cost::LAT_INT);
                self.write_reg(tid, result.unwrap(), tid as u64, done, Ty::I64);
                Flow::Continue
            }
            Op::NumThreads => {
                let done = self.threads[tid].sb.issue(0, cost::LAT_INT);
                self.write_reg(
                    tid,
                    result.unwrap(),
                    self.cfg.n_threads.max(1) as u64,
                    done,
                    Ty::I64,
                );
                Flow::Continue
            }
            Op::Nop => Flow::Continue,
        };

        self.after_op(tid, dop, flow)
    }

    /// Takes a CFG edge: evaluates the target's phis and repositions the pc.
    fn take_edge(&mut self, tid: usize, fid: FuncId, from: BlockId, to: BlockId) {
        let f = self.m.func(fid);
        let block = &f.blocks[to.0 as usize];
        // Gather phi updates (parallel semantics: read all, then write).
        let mut updates: Vec<(ValueId, u64, u64, Ty)> = Vec::new();
        let mut n_phis = 0;
        for &iid in &block.insts {
            let inst = f.inst(iid);
            if let Op::Phi { ty, incomings } = &inst.op {
                n_phis += 1;
                if let Some((val, _)) = incomings.iter().find(|(_, b)| *b == from) {
                    let (v, r) = self.operand(tid, val);
                    let dst = f.inst_result(iid).expect("phi has result");
                    updates.push((dst, v, r, *ty));
                }
            } else {
                break;
            }
        }
        for (dst, v, r, ty) in updates {
            self.write_reg(tid, dst, v, r, ty);
        }
        let frame = self.threads[tid].frames.last_mut().expect("live frame");
        frame.block = to;
        frame.idx = n_phis;
    }
}
