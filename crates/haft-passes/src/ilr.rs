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

use haft_ir::cfg::Cfg;
use haft_ir::dom::DomTree;
use haft_ir::function::{BlockId, Function, InstId, Room, ValueId};
use haft_ir::inst::{AbortCode, CmpOp, InstMeta, Op, Operand};
use haft_ir::loops::{retreating_edges, LoopForest};
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
            run_ilr(Function::make_mut(f, |f| room(f, cfg)), cfg);
        }
    }
}

/// What [`run_ilr`] can add to `f`, bounded from `f` before it runs, case
/// by case as `rewrite_block` handles an instruction: a twin per
/// replicated one, a check (compare, branch, continuation block) per
/// value operand of a synchronization point, a move per parameter and
/// per result nothing recomputes, the detect block, and a check per phi
/// of a block that may head a loop.
pub(crate) fn room(f: &Function, cfg: &IlrConfig) -> Room {
    // The detect block's abort, and a move per parameter.
    let (mut insts, mut values, mut blocks) = (1 + f.params.len(), f.params.len(), 1);
    let mut checks = 0;
    for &id in f.blocks.iter().flat_map(|b| &b.insts) {
        let op = &f.inst(id).op;
        let result = usize::from(op.result_ty().is_some());
        match op {
            op if op.is_replicable() => {
                insts += 1;
                values += result;
            }
            Op::Load { atomic: false, .. } if cfg.shared_mem_opt => {
                insts += 1;
                values += 1;
            }
            // The shadow re-load and its check.
            Op::Store { atomic: false, .. } if cfg.shared_mem_opt => {
                insts += 1;
                values += 1;
                checks += 1;
            }
            Op::CondBr { t, f: e, .. } if t == e => insts += 1,
            Op::CondBr { .. } if cfg.control_flow_protection => {
                insts += 3;
                blocks += 2;
            }
            op if passes_through(op) => {}
            _ => {
                op.for_each_operand(|o| checks += usize::from(o.as_value().is_some()));
                insts += result;
                values += result;
            }
        }
    }
    if cfg.fault_prop_check {
        for h in retreating_edges(f).1 {
            let header = &f.blocks[h.0 as usize].insts;
            checks += header.iter().take_while(|i| f.inst(**i).op.is_phi()).count();
        }
    }
    Room { insts: insts + 2 * checks, values: values + checks, blocks: blocks + checks }
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
    /// Per original successor block: (original pred, actual pred after
    /// transformation).
    edge_fix: Vec<Vec<(BlockId, BlockId)>>,
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
            edge_fix: Vec::new(),
            new_lists: Vec::new(),
        }
    }

    fn run(&mut self, f: &mut Function) {
        let order = Cfg::compute(f).rpo;
        self.edge_fix = vec![Vec::new(); f.blocks.len()];
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
                    self.fix_edge(*t, b, seg.block);
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
                    self.fix_edge(*t, b, st);
                    self.fix_edge(*fb, b, sf);
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
                    for succ in op.successors().into_iter().flatten() {
                        self.fix_edge(succ, b, seg.block);
                    }
                }
            }
        }
        self.new_lists.push((seg.block, seg.insts));
    }

    /// Records that the edge `pred → succ` now leaves from `new_pred`.
    /// Each block is rewritten once and its terminator's successors are
    /// distinct, so every edge is recorded once.
    fn fix_edge(&mut self, succ: BlockId, pred: BlockId, new_pred: BlockId) {
        self.edge_fix[succ.0 as usize].push((pred, new_pred));
    }

    fn apply_edge_fixes(&mut self, f: &mut Function) {
        // Only the original blocks are successors with fixes.
        for (b, fixes) in self.edge_fix.iter().enumerate() {
            if fixes.is_empty() {
                continue;
            }
            let insts: Vec<InstId> = f.blocks[b].insts.clone();
            for iid in insts {
                if let Op::Phi { incomings, .. } = &mut f.inst_mut(iid).op {
                    for (_, pred) in incomings.iter_mut() {
                        if let Some((_, np)) = fixes.iter().find(|(p, _)| p == pred) {
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
        // Values referenced by checks inside the current loop's body, by
        // value id.
        let mut checked = vec![false; f.values.len()];
        for (i, l) in forest.loops.iter().enumerate() {
            if !forest.is_innermost(i) {
                continue;
            }
            checked.fill(false);
            for b in &l.body {
                for &iid in &f.blocks[b.0 as usize].insts {
                    let inst = f.inst(iid);
                    if inst.meta.ilr_check {
                        inst.op.for_each_operand(|o| {
                            if let Operand::Value(v) = o {
                                checked[v.0 as usize] = true;
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
                if checked[res.0 as usize] || checked[shadow.0 as usize] {
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
