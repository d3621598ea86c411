//! Instruction-Level Redundancy (ILR) — fault detection.
//!
//! The pass creates a *shadow* data flow alongside the master flow
//! (paper Figure 1b): every replicable instruction is cloned to operate on
//! shadow registers, and checks comparing master and shadow copies are
//! inserted before every event that lets a corrupted value escape — memory
//! updates, atomics, calls, returns, externalizations, and branches.
//! A failed check transfers control to a per-function *detect block*
//! holding `tx_abort ilr`: inside a transaction this rolls the transaction
//! back (recovery); outside, it terminates the program (fail-stop).

use std::collections::{HashMap, HashSet};

use haft_ir::cfg::Cfg;
use haft_ir::dom::DomTree;
use haft_ir::function::{BlockId, Function, InstId, ValueId};
use haft_ir::inst::{AbortCode, CmpOp, InstMeta, Op, Operand};
use haft_ir::loops::LoopForest;
use haft_ir::module::Module;
use haft_ir::types::Ty;

use crate::replicate::{map_sync_operands, passes_through, Lanes, LANE_META};

/// ILR configuration; each flag corresponds to one of the paper's
/// optimizations (§3.3, evaluated cumulatively in Figure 7).
#[derive(Clone, Debug)]
pub struct IlrConfig {
    /// Figure 3b: duplicate race-free loads instead of checking addresses,
    /// and check race-free stores after the fact via a shadow re-load.
    pub shared_mem_opt: bool,
    /// Figure 4b: protect branch conditions with shadow basic blocks
    /// instead of an explicit pre-branch check.
    pub control_flow_protection: bool,
    /// Add checks on unchecked loop induction variables, coordinated with
    /// TX's conditional transaction split.
    pub fault_prop_check: bool,
    /// Elide checks that immediately follow the creation of a shadow copy.
    pub check_elision: bool,
}

impl Default for IlrConfig {
    fn default() -> Self {
        IlrConfig {
            shared_mem_opt: true,
            control_flow_protection: true,
            fault_prop_check: true,
            check_elision: true,
        }
    }
}

impl IlrConfig {
    /// The unoptimized baseline (Figure 7's "None").
    pub fn unoptimized() -> Self {
        IlrConfig {
            shared_mem_opt: false,
            control_flow_protection: false,
            fault_prop_check: false,
            check_elision: false,
        }
    }
}

/// Applies ILR to every non-external function of the module.
pub fn run_ilr_module(m: &mut Module, cfg: &IlrConfig) {
    for f in &mut m.funcs {
        if !f.attrs.external {
            run_ilr(f, cfg);
        }
    }
}

/// Applies ILR to one function in place.
pub fn run_ilr(f: &mut Function, cfg: &IlrConfig) {
    IlrPass::new(cfg).run(f);
}

struct IlrPass {
    cfg: IlrConfig,
    /// The one shadow lane.
    lanes: Lanes<1>,
    detect: Option<BlockId>,
    /// (successor, original pred) -> actual pred after transformation.
    edge_fix: HashMap<(BlockId, BlockId), BlockId>,
    new_lists: Vec<(BlockId, Vec<InstId>)>,
}

/// Builder state for one original block being rewritten into segments.
struct Seg {
    block: BlockId,
    insts: Vec<InstId>,
}

impl IlrPass {
    fn new(cfg: &IlrConfig) -> Self {
        IlrPass {
            cfg: cfg.clone(),
            lanes: Lanes::default(),
            detect: None,
            edge_fix: HashMap::new(),
            new_lists: Vec::new(),
        }
    }

    fn run(&mut self, f: &mut Function) {
        let order = Cfg::compute(f).rpo.clone();
        for &b in &order {
            self.rewrite_block(f, b);
        }
        // Install the rewritten block bodies.
        for (b, insts) in std::mem::take(&mut self.new_lists) {
            f.blocks[b.0 as usize].insts = insts;
        }
        self.apply_edge_fixes(f);
        self.lanes.fill_phis(f);
        if self.cfg.fault_prop_check {
            self.insert_fault_propagation_checks(f);
        }
    }

    fn detect_block(&mut self, f: &mut Function) -> BlockId {
        if let Some(d) = self.detect {
            return d;
        }
        let d = f.add_block();
        let (abort, _) = f.create_inst(Op::TxAbort { code: AbortCode::IlrDetected });
        f.blocks[d.0 as usize].insts.push(abort);
        self.detect = Some(d);
        d
    }

    /// ILR's reconcile policy: `cmp ne a, b; condbr -> detect |
    /// continuation`, splitting the current segment.
    fn emit_check(&mut self, f: &mut Function, seg: &mut Seg, a: Operand, b: Operand, ty: Ty) {
        if a == b {
            return; // Tautological (constant operands share their shadow).
        }
        if self.cfg.check_elision && self.lanes.is_fresh(&a) {
            // The shadow was copied from the master by the previous
            // instruction; the check cannot fire (paper peephole).
            return;
        }
        let detect = self.detect_block(f);
        let meta = InstMeta { ilr_check: true, ..Default::default() };
        let (cmp, d) = f.create_inst_meta(Op::Cmp { op: CmpOp::Ne, ty, a, b }, meta);
        seg.insts.push(cmp);
        let cont = f.add_block();
        let (cbr, _) = f.create_inst_meta(
            Op::CondBr { cond: d.expect("cmp result").into(), t: detect, f: cont },
            meta,
        );
        seg.insts.push(cbr);
        let finished = std::mem::replace(seg, Seg { block: cont, insts: Vec::new() });
        self.new_lists.push((finished.block, finished.insts));
        self.lanes.forget_fresh();
    }

    fn rewrite_block(&mut self, f: &mut Function, b: BlockId) {
        let old = std::mem::take(&mut f.blocks[b.0 as usize].insts);
        let mut seg = Seg { block: b, insts: Vec::new() };

        // Replicate function arguments on entry.
        if b == f.entry() {
            for i in 0..f.params.len() {
                let p = f.param_value(i);
                self.lanes.replicate_by_moves(f, &mut seg.insts, p);
            }
        }
        self.lanes.forget_fresh();

        for iid in old {
            let mut op = f.inst(iid).op.clone();
            match &op {
                op if op.is_replicable() => self.lanes.replicate(f, &mut seg.insts, iid),
                // Figure 3b: duplicate the load through the shadow address;
                // data-race freedom guarantees both copies read the same
                // value in the error-free case.
                Op::Load { atomic: false, .. } if self.cfg.shared_mem_opt => {
                    self.lanes.replicate(f, &mut seg.insts, iid);
                }
                // Figure 3b: store first, then verify through the shadow
                // address (store-buffer forwarding makes the re-load cheap
                // on real hardware).
                Op::Store { ty, val, addr, atomic: false } if self.cfg.shared_mem_opt => {
                    seg.insts.push(iid);
                    let (tmp, tres) = f.create_inst_meta(
                        Op::Load { ty: *ty, addr: self.lanes.lane(0, addr), atomic: false },
                        LANE_META,
                    );
                    seg.insts.push(tmp);
                    let reloaded = Operand::Value(tres.expect("load result"));
                    self.emit_check(f, &mut seg, reloaded, self.lanes.lane(0, val), *ty);
                }
                Op::CondBr { t, f: fb, .. } if t == fb => {
                    // Degenerate branch: rewrite as an unconditional one.
                    let (br, _) = f.create_inst(Op::Br { dest: *t });
                    seg.insts.push(br);
                    self.edge_fix.insert((*t, b), seg.block);
                }
                Op::CondBr { cond, t, f: fb } if self.cfg.control_flow_protection => {
                    // Figure 4b: route through shadow blocks that
                    // re-evaluate the shadow condition, so a fault in
                    // the "flags" between check and branch is caught.
                    let scond = self.lanes.lane(0, cond);
                    let detect = self.detect_block(f);
                    let st = f.add_block();
                    let sf = f.add_block();
                    let meta = InstMeta { ilr_check: true, ..LANE_META };
                    let (cbr, _) = f.create_inst(Op::CondBr { cond: *cond, t: st, f: sf });
                    seg.insts.push(cbr);
                    let (tb, _) =
                        f.create_inst_meta(Op::CondBr { cond: scond, t: *t, f: detect }, meta);
                    f.blocks[st.0 as usize].insts.push(tb);
                    let (fb2, _) =
                        f.create_inst_meta(Op::CondBr { cond: scond, t: detect, f: *fb }, meta);
                    f.blocks[sf.0 as usize].insts.push(fb2);
                    self.edge_fix.insert((*t, b), st);
                    self.edge_fix.insert((*fb, b), sf);
                }
                op if passes_through(op) => {
                    seg.insts.push(iid);
                    self.lanes.forget_fresh();
                }
                // Everything else is a synchronization point or a value
                // source (Figure 3a, Figure 4a, calls, atomics, ...): all
                // checks up front — the event is irreversible — then the
                // instruction, then a shadow copy of whatever it produced.
                _ => {
                    map_sync_operands(&mut op, |o, ty| {
                        let ty = ty.unwrap_or_else(|| f.operand_ty(o));
                        self.emit_check(f, &mut seg, *o, self.lanes.lane(0, o), ty);
                    });
                    seg.insts.push(iid);
                    if let Some(r) = f.inst_result(iid) {
                        self.lanes.replicate_by_moves(f, &mut seg.insts, r);
                    }
                    for succ in op.successors() {
                        self.edge_fix.insert((succ, b), seg.block);
                    }
                }
            }
        }
        self.new_lists.push((seg.block, seg.insts));
    }

    fn apply_edge_fixes(&mut self, f: &mut Function) {
        for b in 0..f.blocks.len() {
            let bid = BlockId(b as u32);
            let insts: Vec<InstId> = f.blocks[b].insts.clone();
            for iid in insts {
                let fix = &self.edge_fix;
                if let Op::Phi { incomings, .. } = &mut f.inst_mut(iid).op {
                    for (_, pred) in incomings.iter_mut() {
                        if let Some(np) = fix.get(&(bid, *pred)) {
                            *pred = *np;
                        }
                    }
                } else {
                    break;
                }
            }
        }
    }

    /// Paper §3.3 "fault propagation check": loop induction variables that
    /// are not covered by any in-loop check get an explicit check at the
    /// loop header, marked so TX hoists it into the conditional split.
    fn insert_fault_propagation_checks(&mut self, f: &mut Function) {
        let cfg = Cfg::compute(f);
        let dom = DomTree::compute(f, &cfg);
        let forest = LoopForest::compute(f, &cfg, &dom);
        let mut plans: Vec<(BlockId, ValueId, ValueId, Ty)> = Vec::new();
        for (i, l) in forest.loops.iter().enumerate() {
            if !forest.is_innermost(i) {
                continue;
            }
            // Values referenced by checks inside the loop body.
            let mut checked: HashSet<ValueId> = HashSet::new();
            for b in &l.body {
                for &iid in &f.blocks[b.0 as usize].insts {
                    let inst = f.inst(iid);
                    if inst.meta.ilr_check {
                        inst.op.for_each_operand(|o| {
                            if let Operand::Value(v) = o {
                                checked.insert(*v);
                            }
                        });
                    }
                }
            }
            for &iid in &f.blocks[l.header.0 as usize].insts {
                let inst = f.inst(iid);
                if !inst.op.is_phi() || inst.meta.shadow {
                    continue;
                }
                let Some(res) = f.inst_result(iid) else { continue };
                let Some([shadow]) = self.lanes.of(res) else { continue };
                // "Covered" means either copy of the variable feeds a check
                // somewhere in the body.
                if checked.contains(&res) || checked.contains(&shadow) {
                    continue;
                }
                let ty = f.value_ty(res);
                plans.push((l.header, res, shadow, ty));
            }
        }
        for (header, master, shadow, ty) in plans {
            self.split_with_fprop_check(f, header, master, shadow, ty);
        }
    }

    /// Splits `header` after its phi group, inserting a fprop-marked check
    /// whose continuation holds the rest of the block.
    fn split_with_fprop_check(
        &mut self,
        f: &mut Function,
        header: BlockId,
        master: ValueId,
        shadow: ValueId,
        ty: Ty,
    ) {
        let insts = f.blocks[header.0 as usize].insts.clone();
        let phi_end = insts.iter().position(|i| !f.inst(*i).op.is_phi()).unwrap_or(insts.len());
        let detect = self.detect_block(f);
        let meta = InstMeta { ilr_check: true, fprop_check: true, ..Default::default() };
        let (cmp, d) = f.create_inst_meta(
            Op::Cmp { op: CmpOp::Ne, ty, a: master.into(), b: shadow.into() },
            meta,
        );
        let cont = f.add_block();
        let (cbr, _) = f.create_inst_meta(
            Op::CondBr { cond: d.expect("cmp result").into(), t: detect, f: cont },
            meta,
        );
        let (head, rest) = insts.split_at(phi_end);
        let mut head = head.to_vec();
        head.push(cmp);
        head.push(cbr);
        f.blocks[header.0 as usize].insts = head;
        f.blocks[cont.0 as usize].insts = rest.to_vec();
        // Every edge that used to leave `header` now leaves `cont`.
        for b in 0..f.blocks.len() {
            let ids: Vec<InstId> = f.blocks[b].insts.clone();
            for iid in ids {
                if let Op::Phi { incomings, .. } = &mut f.inst_mut(iid).op {
                    for (_, pred) in incomings.iter_mut() {
                        if *pred == header {
                            *pred = cont;
                        }
                    }
                } else {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests;
