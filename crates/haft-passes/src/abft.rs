//! Algorithm-Based Fault Tolerance (ABFT) — checksum-protected kernels.
//!
//! The third hardening backend, after algorithm-based checksum schemes
//! (Huang & Abraham's checksum matrices; Bosilca et al.'s ABFT for
//! iterative kernels): instead of replicating *every* instruction (HAFT's
//! 2×, TMR's 3×), the pass recognizes the accumulation/update loops that
//! dominate matrix-shaped compute and protects only their *carried
//! state* with two redundant checksum lanes, verified and corrected at
//! the points where the state becomes observable.
//!
//! Recognition is structural, over SSA:
//!
//! * **Register accumulation chains** — a phi whose loop-carried incoming
//!   is produced from the phi itself through a short slice of plain
//!   arithmetic (`add`/`sub`/`mul` and their FP twins). This is the
//!   `sx += x` family of reduction loops.
//! * **Memory-cell chains** — a non-atomic `load`, a slice of plain
//!   arithmetic over the loaded value, and a non-atomic `store` back
//!   through a syntactically identical address. This is the
//!   `acc[i] += f(x)` family of update loops.
//!
//! A chain only counts if its slice takes at least one *data* operand
//! from outside the chain (a loaded element, a computed product):
//! induction variables and constant-stride counters carry no information
//! a checksum could protect, so they are left alone. Functions with at
//! least [`AbftConfig::min_data_chains`] such chains are *covered*:
//! every chain's state is maintained in three lanes, and a
//! [`Op::ChkCorrect`] verify-and-correct replaces each externalizing use
//! — a single divergent lane is reconstructed from the other two (the
//! row×column intersection pinpoints exactly one element), while an
//! uncorrectable three-way divergence fail-stops through the existing
//! ILR detect path. Everything else in a covered function runs
//! unprotected: that is ABFT's coverage-for-overhead trade, and it is
//! what the fault-injection campaign measures.
//!
//! Functions with no recognizable chains fall back to full HAFT
//! hardening (ILR + TX), so a covered module is never *less* protected
//! than the paper's pipeline outside its kernels. The split is recorded
//! per function in [`crate::PassStats`] (`abft.functions_covered` /
//! `abft.functions_fallback`), making coverage a measured number.

use haft_ir::cfg::Cfg;
use haft_ir::function::{Function, InstId, Room, ValueDef, ValueId};
use haft_ir::inst::{BinOp, Callee, Op, Operand};
use haft_ir::module::Module;
use haft_ir::types::Ty;

use crate::ilr::{self, run_ilr, IlrConfig};
use crate::replicate::Lanes;
use crate::tx::{self, run_tx, CalleeKind, TxConfig};

/// ABFT configuration: how aggressively the pass claims functions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AbftConfig {
    /// Minimum number of recognized data chains for a function to be
    /// covered by checksums instead of falling back to full HAFT.
    /// Raising it makes the backend fallback-heavy: only functions whose
    /// compute is dominated by several independent accumulations keep
    /// the cheap protection.
    pub min_data_chains: usize,
}

impl Default for AbftConfig {
    fn default() -> Self {
        AbftConfig { min_data_chains: 1 }
    }
}

impl AbftConfig {
    /// The fallback-heavy variant: a single accumulation chain no longer
    /// qualifies, so only multi-reduction kernels stay covered.
    pub fn fallback_heavy() -> Self {
        AbftConfig { min_data_chains: 2 }
    }
}

/// What [`run_abft_module`] did, for [`crate::PassStats`] publication.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AbftStats {
    /// Functions protected by checksum lanes.
    pub functions_covered: u64,
    /// Functions that fell back to full HAFT (ILR + TX).
    pub functions_fallback: u64,
    /// Data chains instrumented across all covered functions.
    pub chains: u64,
    /// `chk_correct` instructions inserted.
    pub corrections: u64,
}

/// Applies ABFT to every non-external function: checksum lanes where a
/// function is amenable, full HAFT hardening where it is not.
pub fn run_abft_module(m: &mut Module, cfg: &AbftConfig) -> AbftStats {
    let mut stats = AbftStats::default();

    // Phase 1: analysis over the untransformed module.
    let plans: Vec<Option<Plan>> = m.funcs.iter().map(|f| plan(f, cfg)).collect();

    // A covered function runs outside any transaction, so a fallback
    // function it calls must bracket its own: the local-call TX shape
    // (conditional split on entry, counter bump on return) would open a
    // transaction nobody ends, and whatever it still buffers when the
    // thread exits is lost.
    let mut called_from_covered = vec![false; m.funcs.len()];
    for (f, _) in m.funcs.iter().zip(&plans).filter(|(_, plan)| plan.is_some()) {
        for (_, block) in f.iter_blocks() {
            for &iid in &block.insts {
                if let Op::Call { callee: Callee::Direct(fid), .. } = &f.inst(iid).op {
                    called_from_covered[fid.0 as usize] = true;
                }
            }
        }
    }
    // Each body is taken once, with the room its own rewrite needs; an
    // external one only when its flag changes.
    for (i, called) in called_from_covered.into_iter().enumerate() {
        if called && plans[i].is_none() && m.funcs[i].attrs.local {
            let plan = &plans[i];
            Function::make_mut(&mut m.funcs[i], |f| room(f, plan)).attrs.local = false;
        }
    }

    // Callee-kind snapshot for the HAFT fallback's TX pass. Covered
    // functions carry no transaction machinery of their own, so a
    // fallback caller must treat them like unprotected library code and
    // split its transaction around the call.
    let kinds: Vec<CalleeKind> = m
        .funcs
        .iter()
        .zip(&plans)
        .map(|(f, plan)| {
            if f.attrs.external || plan.is_some() {
                CalleeKind::External
            } else if f.attrs.local {
                CalleeKind::Local
            } else {
                CalleeKind::NonLocal
            }
        })
        .collect();

    // Phase 2: transform.
    for (f, plan) in m.funcs.iter_mut().zip(&plans) {
        if f.attrs.external {
            continue;
        }
        let f = Function::make_mut(f, |f| room(f, plan));
        match plan {
            Some(plan) => {
                stats.functions_covered += 1;
                stats.chains += plan.chains;
                stats.corrections += instrument(f, plan);
            }
            None => {
                stats.functions_fallback += 1;
                run_ilr(f, &IlrConfig::default());
                run_tx(f, &TxConfig::default(), &kinds);
            }
        }
    }
    stats
}

/// The checksum plan of a function the pass covers; `None` for an
/// external function and for one that falls back to full HAFT.
fn plan(f: &Function, cfg: &AbftConfig) -> Option<Plan> {
    if f.attrs.external {
        return None;
    }
    let plan = find_chains(f);
    (plan.chains >= cfg.min_data_chains as u64).then_some(plan)
}

/// What [`run_abft_module`] can add to `f`, bounded from `f` before it
/// runs.
pub(crate) fn room_for(f: &Function, cfg: &AbftConfig) -> Room {
    room(f, &plan(f, cfg))
}

/// What [`run_abft_module`] can add to `f` under `plan`.
fn room(f: &Function, plan: &Option<Plan>) -> Room {
    match plan {
        Some(plan) => covered_room(f, plan),
        None if f.attrs.external => Room::default(),
        None => fallback_room(f),
    }
}

/// What the HAFT fallback can add to `f`: ILR then TX, both at their
/// defaults, sized from `f` before either runs.
fn fallback_room(f: &Function) -> Room {
    ilr::room(f, &IlrConfig::default()) + tx::room(f, &TxConfig::default())
}

/// What [`instrument`] can add to a covered `f`: two lane copies per
/// instruction of chain state, and a correction per operand that chain
/// state defines, on each instruction that is neither state nor a phi.
/// It adds no block.
fn covered_room(f: &Function, plan: &Plan) -> Room {
    let state = |id: InstId| plan.state.get(id.0 as usize).copied().unwrap_or(false);
    let mut n = 0;
    for &id in f.blocks.iter().flat_map(|b| &b.insts) {
        let op = &f.inst(id).op;
        if state(id) {
            n += 2;
        } else if !op.is_phi() {
            op.for_each_operand(|o| {
                let def = o.as_value().map(|v| f.value_def(v));
                n += usize::from(matches!(def, Some(ValueDef::Inst(d)) if state(d)));
            });
        }
    }
    Room { insts: n, values: n, blocks: 0 }
}

/// Arithmetic a checksum can be maintained through: the closed,
/// trap-free ring operations. Division, shifts, and bitwise logic do
/// not commute with the lane construction and end a slice.
fn allowed(op: BinOp) -> bool {
    matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::FAdd | BinOp::FSub | BinOp::FMul)
}

/// Checksummable carried-state types. `Ptr` chains (address induction)
/// and `i1` are never data state.
fn chain_ty(ty: Ty) -> bool {
    matches!(ty, Ty::I64 | Ty::F64)
}

/// Everything the instrumentation walk needs about one function, unified
/// across its chains so a slice shared by two chains is replicated once.
struct Plan {
    /// Chain state to replicate per lane, by instruction id: the carrier
    /// phis of register accumulation chains, the carrier loads of
    /// memory-cell chains, and the arithmetic slices that close either.
    state: Vec<bool>,
    /// Recognized data chains.
    chains: u64,
}

impl Plan {
    /// Records one recognized chain: its carrier and its slice.
    fn add_chain(&mut self, carrier: InstId, slice: &[InstId]) {
        for id in std::iter::once(&carrier).chain(slice) {
            self.state[id.0 as usize] = true;
        }
        self.chains += 1;
    }
}

/// Walks backward from `v` and reports whether it reaches `carrier`
/// through allowed arithmetic only, collecting the on-path instructions
/// into `slice` in operands-before-consumers order. Off-path operands
/// (loads, parameters, other phis, disallowed ops) are the chain's
/// shared external contributions, not part of the slice.
fn reaches(
    f: &Function,
    v: ValueId,
    carrier: ValueId,
    memo: &mut [Option<bool>],
    slice: &mut Vec<InstId>,
) -> bool {
    if v == carrier {
        return true;
    }
    if let Some(r) = memo[v.0 as usize] {
        return r;
    }
    memo[v.0 as usize] = Some(false);
    let r = match f.value_def(v) {
        ValueDef::Param(_) => false,
        ValueDef::Inst(id) => match &f.inst(id).op {
            Op::Bin { op, .. } if allowed(*op) => {
                let op = f.inst(id).op.clone();
                let mut any = false;
                op.for_each_operand(|o| {
                    if let Operand::Value(u) = o {
                        any |= reaches(f, *u, carrier, memo, slice);
                    }
                });
                if any && !slice.contains(&id) {
                    slice.push(id);
                }
                any
            }
            _ => false,
        },
    };
    memo[v.0 as usize] = Some(r);
    r
}

/// Maximum instructions in one chain's arithmetic slice. Chains longer
/// than this are not checksum-maintainable at a profitable cost and are
/// ignored.
const MAX_SLICE: usize = 8;

/// The slice from `head` back to `carrier`, or `None` if there is no
/// all-arithmetic cycle or it exceeds [`MAX_SLICE`].
fn slice_for(f: &Function, head: ValueId, carrier: ValueId) -> Option<Vec<InstId>> {
    let mut memo = vec![None; f.values.len()];
    let mut slice = Vec::new();
    let found = reaches(f, head, carrier, &mut memo, &mut slice);
    (found && (1..=MAX_SLICE).contains(&slice.len())).then_some(slice)
}

/// True if the slice folds in at least one external *value* operand —
/// the loaded element or computed product a checksum exists to protect.
/// Constant-only chains (induction variables, histogram counters) carry
/// nothing worth checksumming.
fn is_data_chain(f: &Function, slice: &[InstId], carrier: ValueId) -> bool {
    // At most `MAX_SLICE` values: a list beats any set.
    let internal: Vec<ValueId> = slice.iter().filter_map(|id| f.inst_result(*id)).collect();
    slice.iter().any(|id| {
        let mut external = false;
        f.inst(*id).op.for_each_operand(|o| {
            if let Operand::Value(v) = o {
                if *v != carrier && !internal.contains(v) {
                    external = true;
                }
            }
        });
        external
    })
}

/// Finds every data chain in `f` and unifies them into one [`Plan`].
fn find_chains(f: &Function) -> Plan {
    let mut plan = Plan { state: vec![false; f.insts.len()], chains: 0 };

    for (_, block) in f.iter_blocks() {
        // Register accumulation chains: phis carried through arithmetic.
        for &iid in &block.insts {
            let Op::Phi { ty, incomings } = &f.inst(iid).op else { continue };
            if !chain_ty(*ty) {
                continue;
            }
            let Some(p) = f.inst_result(iid) else { continue };
            let mut slice: Vec<InstId> = Vec::new();
            for (o, _) in incomings {
                if let Operand::Value(u) = o {
                    if *u == p {
                        continue;
                    }
                    if let Some(s) = slice_for(f, *u, p) {
                        for id in s {
                            if !slice.contains(&id) {
                                slice.push(id);
                            }
                        }
                    }
                }
            }
            if !slice.is_empty() && is_data_chain(f, &slice, p) {
                plan.add_chain(iid, &slice);
            }
        }

        // Memory-cell chains: load → arithmetic → store, same cell.
        for (j, &sid) in block.insts.iter().enumerate() {
            let Op::Store { ty, val: Operand::Value(v), addr, atomic: false } = &f.inst(sid).op
            else {
                continue;
            };
            let (ty, v, addr) = (*ty, *v, *addr);
            if !chain_ty(ty) {
                continue;
            }
            for &lid in &block.insts[..j] {
                if plan.state[lid.0 as usize] {
                    continue;
                }
                let Op::Load { ty: lty, addr: laddr, atomic: false } = &f.inst(lid).op else {
                    continue;
                };
                if *lty != ty || *laddr != addr {
                    continue;
                }
                let Some(carrier) = f.inst_result(lid) else { continue };
                let Some(slice) = slice_for(f, v, carrier) else { continue };
                if !is_data_chain(f, &slice, carrier) {
                    continue;
                }
                plan.add_chain(lid, &slice);
                break;
            }
        }
    }
    plan
}

/// Applies the checksum-lane instrumentation for one covered function;
/// returns the number of `chk_correct` instructions inserted.
fn instrument(f: &mut Function, plan: &Plan) -> u64 {
    let mut st = Abft::default();
    st.run(f, plan);
    st.corrections
}

#[derive(Default)]
struct Abft {
    /// The two checksum lanes of the protected chain state.
    lanes: Lanes<2>,
    corrections: u64,
}

impl Abft {
    fn run(&mut self, f: &mut Function, plan: &Plan) {
        let order = Cfg::compute(f).rpo;
        for &b in &order {
            self.rewrite_block(f, b, plan);
        }
        self.lanes.fill_phis(f);
    }

    /// ABFT's reconcile policy: emits `chk_correct ty v, lane1, lane2` and
    /// returns the verified-and-corrected value to use instead of `v`.
    fn corrected(
        &mut self,
        f: &mut Function,
        insts: &mut Vec<InstId>,
        (v, [l1, l2]): (ValueId, [ValueId; 2]),
        ty: Ty,
    ) -> ValueId {
        let (cid, cres) =
            f.create_inst(Op::ChkCorrect { ty, a: v.into(), b: l1.into(), c: l2.into() });
        insts.push(cid);
        self.corrections += 1;
        cres.expect("chk_correct result")
    }

    fn rewrite_block(&mut self, f: &mut Function, b: haft_ir::function::BlockId, plan: &Plan) {
        let old = std::mem::take(&mut f.blocks[b.0 as usize].insts);
        let mut insts: Vec<InstId> = Vec::with_capacity(old.len() + 8);

        for iid in old {
            // Instructions the rewrite creates are never chain state.
            if plan.state.get(iid.0 as usize).copied().unwrap_or(false) {
                // Chain state, three lanes of it. A carrier phi's lane
                // phis ride directly behind it (phis stay contiguous at
                // the block head) and carry the lane flow, shared initial
                // incomings staying the master's; a carrier load is
                // re-read per lane from the (race-free) cell; chain
                // arithmetic is replicated with carried operands swapped
                // for the lane twins and external contributions shared
                // with the master.
                self.lanes.replicate(f, &mut insts, iid);
            } else {
                // Any other use of protected state externalizes it — the
                // store that closes a memory-cell chain first of all:
                // verify-and-correct each such operand on the way out.
                // Phis keep their master incomings (the lane phis carry
                // the lane flow; a correction cannot precede a phi
                // anyway).
                if !f.inst(iid).op.is_phi() {
                    let mut planned: Vec<(ValueId, [ValueId; 2])> = Vec::new();
                    f.inst(iid).op.for_each_operand(|o| {
                        if let Some(v) = o.as_value() {
                            if let Some(l) = self.lanes.of(v) {
                                if !planned.iter().any(|(pv, _)| *pv == v) {
                                    planned.push((v, l));
                                }
                            }
                        }
                    });
                    let mut subs: Vec<(ValueId, ValueId)> = Vec::new();
                    for p in planned {
                        let ty = f.value_ty(p.0);
                        subs.push((p.0, self.corrected(f, &mut insts, p, ty)));
                    }
                    if !subs.is_empty() {
                        f.inst_mut(iid).op.map_operands(|o| {
                            if let Operand::Value(v) = o {
                                if let Some((_, n)) = subs.iter().find(|(pv, _)| *pv == *v) {
                                    *o = Operand::Value(*n);
                                }
                            }
                        });
                    }
                }
                insts.push(iid);
            }
        }
        f.blocks[b.0 as usize].insts = insts;
    }
}

#[cfg(test)]
mod tests;
