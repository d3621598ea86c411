//! Triple Modular Redundancy (TMR) — Elzar-style fault *masking*.
//!
//! The alternative hardening backend, after Elzar (Kuvaiskii et al.,
//! DSN'16 / arXiv:1604.00500): instead of HAFT's duplicate-detect-rollback
//! pipeline, every replicable instruction is *triplicated* into two extra
//! copy flows, and at every synchronization point — stores, branches,
//! calls, returns, externalizations, atomics, locks — a majority-vote
//! instruction replaces the used operand with the two-of-three majority.
//! A transient fault corrupts at most one of the three flows, so the vote
//! masks it in place and execution simply continues: no transactions, no
//! rollback machinery, no re-execution. The price is a ~3× wide
//! instruction stream plus the explicit votes, where HAFT pays ~2× plus
//! transactional bookkeeping.
//!
//! Unlike ILR the pass never splits blocks: votes are straight-line
//! instructions (the VM resolves the majority), so the CFG is preserved
//! exactly.

use haft_ir::cfg::Cfg;
use haft_ir::function::{Function, InstId, Room};
use haft_ir::inst::{Op, Operand};
use haft_ir::module::Module;
use haft_ir::types::Ty;

use crate::replicate::{map_sync_operands, passes_through, Lanes};

/// TMR configuration; each flag is one masking/overhead tradeoff knob.
#[derive(Clone, Debug)]
pub struct TmrConfig {
    /// Triplicate race-free loads through the voted address, so each copy
    /// flow holds an independently loaded value and a fault in any single
    /// one stays maskable. When disabled, loads execute once and the
    /// result is replicated with moves (Elzar's load-once-and-broadcast),
    /// which is cheaper but leaves the loaded value itself as a window of
    /// vulnerability. Addresses are voted in both modes: a wild access
    /// would trap, and without rollback a trap is fatal.
    pub triplicate_loads: bool,
    /// Elide votes whose inputs are copies created by the immediately
    /// preceding replication moves (the vote is tautological at that
    /// point, mirroring ILR's check-elision peephole).
    pub vote_elision: bool,
}

impl Default for TmrConfig {
    fn default() -> Self {
        TmrConfig { triplicate_loads: true, vote_elision: true }
    }
}

impl TmrConfig {
    /// The unoptimized baseline: vote everywhere, never triplicate loads.
    pub fn unoptimized() -> Self {
        TmrConfig { triplicate_loads: false, vote_elision: false }
    }
}

/// Applies TMR to every non-external function; returns the number of
/// vote instructions inserted module-wide.
pub fn run_tmr_module(m: &mut Module, cfg: &TmrConfig) -> u64 {
    let mut votes = 0;
    for f in &mut m.funcs {
        if !f.attrs.external {
            votes += run_tmr(Function::make_mut(f, |f| room(f, cfg)), cfg);
        }
    }
    votes
}

/// What [`run_tmr`] can add to `f`, bounded from `f` before it runs, case
/// by case as `rewrite_block` handles an instruction: two copies per
/// replicated one, a vote per value operand of a synchronization point,
/// and two moves per parameter and per result nothing recomputes. The
/// pass adds no block.
pub(crate) fn room(f: &Function, cfg: &TmrConfig) -> Room {
    let (mut insts, mut values) = (2 * f.params.len(), 2 * f.params.len());
    for &id in f.blocks.iter().flat_map(|b| &b.insts) {
        let op = &f.inst(id).op;
        let copies = 2 * usize::from(op.result_ty().is_some());
        match op {
            op if op.is_replicable() => {
                insts += 2;
                values += copies;
            }
            op if passes_through(op) => {}
            Op::CondBr { t, f: e, .. } if t == e => {}
            _ => {
                let mut votes = 0;
                op.for_each_operand(|o| votes += usize::from(o.as_value().is_some()));
                let race_free_load = matches!(op, Op::Load { atomic: false, .. });
                let copies = if race_free_load && cfg.triplicate_loads { 2 } else { copies };
                insts += votes + copies;
                values += votes + copies;
            }
        }
    }
    Room { insts, values, blocks: 0 }
}

/// Applies TMR to one function in place; returns the vote count.
pub fn run_tmr(f: &mut Function, cfg: &TmrConfig) -> u64 {
    let mut pass = Tmr::new(cfg);
    pass.run(f);
    pass.votes
}

struct Tmr {
    cfg: TmrConfig,
    /// The two copy flows.
    lanes: Lanes<2>,
    votes: u64,
}

impl Tmr {
    fn new(cfg: &TmrConfig) -> Self {
        Tmr { cfg: cfg.clone(), lanes: Lanes::default(), votes: 0 }
    }

    fn run(&mut self, f: &mut Function) {
        let order = Cfg::compute(f).rpo;
        for &b in &order {
            self.rewrite_block(f, b);
        }
        self.lanes.fill_phis(f);
    }

    /// TMR's reconcile policy: emits `vote ty o, copy1, copy2` before a
    /// synchronization point and returns the operand the sync instruction
    /// should use instead of `o`. Tautological votes (constant operands,
    /// or copies created by the immediately preceding moves under vote
    /// elision) are skipped.
    fn voted(&mut self, f: &mut Function, insts: &mut Vec<InstId>, o: Operand, ty: Ty) -> Operand {
        let c1 = self.lanes.lane(0, &o);
        let c2 = self.lanes.lane(1, &o);
        if c1 == o && c2 == o {
            return o; // Constants are their own copies.
        }
        if self.cfg.vote_elision && self.lanes.is_fresh(&o) {
            // The copies were just made from the master; the vote cannot
            // observe a divergence (peephole).
            return o;
        }
        let (v, res) = f.create_inst(Op::Vote { ty, a: o, b: c1, c: c2 });
        insts.push(v);
        self.votes += 1;
        Operand::Value(res.expect("vote has result"))
    }

    fn rewrite_block(&mut self, f: &mut Function, b: haft_ir::function::BlockId) {
        let old = std::mem::take(&mut f.blocks[b.0 as usize].insts);
        let mut insts: Vec<InstId> = Vec::with_capacity(old.len() * 3);

        // Replicate function arguments on entry.
        if b == f.entry() {
            for i in 0..f.params.len() {
                let p = f.param_value(i);
                self.lanes.replicate_by_moves(f, &mut insts, p);
            }
        }
        self.lanes.forget_fresh();

        for iid in old {
            let mut op = f.inst(iid).op.clone();
            if op.is_replicable() {
                self.lanes.replicate(f, &mut insts, iid);
            } else if passes_through(&op) || matches!(&op, Op::CondBr { t, f, .. } if t == f) {
                insts.push(iid);
                self.lanes.forget_fresh();
            } else {
                // A synchronization point or a value source: the
                // instruction runs on the majority of every protected
                // operand. A load's address is among them — a corrupted
                // copy must be outvoted *before* it reaches the memory
                // unit, because a wild access traps and, with no
                // transaction to roll back, a trap is fatal (Elzar votes
                // load/store addresses for exactly this reason).
                map_sync_operands(&mut op, |o, ty| {
                    let ty = ty.unwrap_or_else(|| f.operand_ty(o));
                    *o = self.voted(f, &mut insts, *o, ty);
                });
                let race_free_load = matches!(op, Op::Load { atomic: false, .. });
                let is_store = matches!(op, Op::Store { .. });
                f.inst_mut(iid).op = op;
                if race_free_load && self.cfg.triplicate_loads {
                    // Re-load twice through the voted address so each
                    // lane holds an independently written copy of the
                    // value: a fault in any single loaded value stays
                    // maskable.
                    self.lanes.replicate(f, &mut insts, iid);
                } else {
                    // Atomics, calls, intrinsics (and loads in the
                    // unoptimized mode, which matches Elzar's actual
                    // load-once-and-broadcast): the result is replicated
                    // by moves, leaving it as a window of vulnerability.
                    insts.push(iid);
                    if let Some(r) = f.inst_result(iid) {
                        self.lanes.replicate_by_moves(f, &mut insts, r);
                    }
                }
                // A store closes the fresh-copy window; the other
                // result-less sync points (emit, lock words, void calls)
                // leave it open, as they always have.
                if is_store {
                    self.lanes.forget_fresh();
                }
            }
        }
        f.blocks[b.0 as usize].insts = insts;
    }
}

#[cfg(test)]
mod tests;
