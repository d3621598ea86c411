//! The replication core under the three hardening backends.
//!
//! ILR, TMR and ABFT are one mechanism with different reconcile policies:
//! clone the data flow into `N` redundant *lanes* (ILR's one shadow flow,
//! TMR's two copy flows, ABFT's two checksum lanes), and reconcile master
//! and lanes before every event that lets a value escape. This module
//! holds the mechanism — [`Lanes`] — and the one list of what "escape"
//! means, [`map_sync_operands`]. What a backend does with a protected
//! operand (check and branch to the detect block, vote and substitute,
//! verify-and-correct and substitute) stays in its own block walker.

use std::collections::HashMap;

use haft_ir::function::{Function, InstId, ValueId};
use haft_ir::inst::{Callee, InstMeta, Op, Operand};
use haft_ir::types::Ty;

/// Metadata of every instruction in a redundant lane.
pub(crate) const LANE_META: InstMeta =
    InstMeta { shadow: true, fprop_check: false, ilr_check: false };

/// The master value → lane twins map of one function being hardened,
/// with the operations that grow it.
#[derive(Default)]
pub(crate) struct Lanes<const N: usize> {
    map: HashMap<ValueId, [ValueId; N]>,
    /// (master phi, lane phis) for [`Lanes::fill_phis`].
    phis: Vec<(InstId, [InstId; N])>,
    /// The master value whose lanes the immediately preceding moves
    /// created: reconciling it cannot observe a divergence yet, which is
    /// what the check- and vote-elision peepholes consult.
    fresh: Option<ValueId>,
}

impl<const N: usize> Lanes<N> {
    /// The lane twins of `v`, if it has any.
    pub fn of(&self, v: ValueId) -> Option<[ValueId; N]> {
        self.map.get(&v).copied()
    }

    /// Lane `k`'s view of an operand. Constants, and values no lane was
    /// made for, are their own twins.
    pub fn lane(&self, k: usize, o: &Operand) -> Operand {
        match o {
            Operand::Value(v) => self.map.get(v).map_or(*o, |l| Operand::Value(l[k])),
            other => *other,
        }
    }

    /// Places `iid` and, behind it, one clone per lane reading that lane's
    /// operands — compute, a phi (filled later by [`Lanes::fill_phis`]),
    /// or a race-free load duplicated through the lane's address.
    pub fn replicate(&mut self, f: &mut Function, insts: &mut Vec<InstId>, iid: InstId) {
        insts.push(iid);
        let clones: [InstId; N] = std::array::from_fn(|k| {
            let op = match &f.inst(iid).op {
                Op::Phi { ty, .. } => Op::Phi { ty: *ty, incomings: Vec::new() },
                op => {
                    let mut op = op.clone();
                    op.map_operands(|o| *o = self.lane(k, o));
                    op
                }
            };
            let (cid, _) = f.create_inst_meta(op, LANE_META);
            insts.push(cid);
            cid
        });
        if let Some(master) = f.inst_result(iid) {
            let twins = clones.map(|c| f.inst_result(c).expect("a clone has its master's result"));
            self.map.insert(master, twins);
        }
        if f.inst(iid).op.is_phi() {
            self.phis.push((iid, clones));
        }
        self.fresh = None;
    }

    /// Gives a value no lane can recompute (a parameter, a call or atomic
    /// result, a load that is not duplicated) its twins by
    /// register-to-register moves, as the paper does for non-replicated
    /// value sources.
    pub fn replicate_by_moves(
        &mut self,
        f: &mut Function,
        insts: &mut Vec<InstId>,
        master: ValueId,
    ) {
        let ty = f.value_ty(master);
        let twins = std::array::from_fn(|_| {
            let (mv, res) = f.create_inst_meta(Op::Move { ty, a: master.into() }, LANE_META);
            insts.push(mv);
            res.expect("move has result")
        });
        self.map.insert(master, twins);
        self.fresh = Some(master);
    }

    /// True while `o`'s lanes are the copies the preceding moves just made.
    pub fn is_fresh(&self, o: &Operand) -> bool {
        self.fresh.is_some() && o.as_value() == self.fresh
    }

    /// Ends the fresh-copy window (block boundaries, passed-through ops).
    pub fn forget_fresh(&mut self) {
        self.fresh = None;
    }

    /// Fills the lane phis' incomings once every block has been rewritten
    /// (a back-edge value only acquires lanes after its block runs).
    pub fn fill_phis(&self, f: &mut Function) {
        for (master, clones) in &self.phis {
            let Op::Phi { incomings, .. } = &f.inst(*master).op else {
                unreachable!("phi record holds phis")
            };
            let incomings = incomings.clone();
            for (k, clone) in clones.iter().enumerate() {
                let mapped = incomings.iter().map(|(v, b)| (self.lane(k, v), *b)).collect();
                if let Op::Phi { incomings, .. } = &mut f.inst_mut(*clone).op {
                    *incomings = mapped;
                }
            }
        }
    }
}

/// The synchronization-operand table: visits, in reconcile order, every
/// operand through which a corrupted value would escape the replicated
/// data flow — into memory, another thread, a callee, the caller, the
/// program output, or the choice of the next block — with the type it is
/// reconciled at (`None`: the operand's own type). The visitor may
/// replace the operand (TMR substitutes the vote).
///
/// The match is exhaustive on purpose: a new `Op` does not compile until
/// someone decides what it lets escape.
pub(crate) fn map_sync_operands(op: &mut Op, mut f: impl FnMut(&mut Operand, Option<Ty>)) {
    match op {
        Op::Load { addr, .. } => f(addr, Some(Ty::Ptr)),
        Op::Store { ty, val, addr, .. } => {
            f(val, Some(*ty));
            f(addr, Some(Ty::Ptr));
        }
        Op::Rmw { ty, addr, val, .. } => {
            f(addr, Some(Ty::Ptr));
            f(val, Some(*ty));
        }
        Op::CmpXchg { ty, addr, expected, new } => {
            f(addr, Some(Ty::Ptr));
            f(expected, Some(*ty));
            f(new, Some(*ty));
        }
        Op::Call { callee, args, .. } => {
            // A corrupted function pointer runs the wrong callee with
            // perfectly good arguments.
            if let Callee::Indirect(target) = callee {
                f(target, None);
            }
            for a in args {
                f(a, None);
            }
        }
        Op::Ret { val } => {
            if let Some(v) = val {
                f(v, None);
            }
        }
        Op::CondBr { cond, .. } => f(cond, Some(Ty::I1)),
        Op::Emit { ty, val } => f(val, Some(*ty)),
        Op::Lock { addr } | Op::Unlock { addr } => f(addr, Some(Ty::Ptr)),
        // Replicated per lane, so nothing leaves the lanes here.
        Op::Bin { .. }
        | Op::Un { .. }
        | Op::Cmp { .. }
        | Op::Move { .. }
        | Op::Cast { .. }
        | Op::Select { .. }
        | Op::Gep { .. }
        | Op::Phi { .. } => {}
        // A corrupted allocation size is not reconciled (a window the
        // backends share); the rest take no operands, or are reconcile
        // ops themselves.
        Op::Alloc { .. }
        | Op::Br { .. }
        | Op::TxBegin
        | Op::TxEnd
        | Op::TxCondSplit
        | Op::TxCounterInc { .. }
        | Op::TxAbort { .. }
        | Op::Vote { .. }
        | Op::ChkCorrect { .. }
        | Op::ThreadId
        | Op::NumThreads
        | Op::Nop => {}
    }
}

/// Ops ILR and TMR leave exactly as they are, results unreplicated:
/// transaction intrinsics and reconcile ops (robustness — hardening
/// normally runs on modules that carry neither) and nops.
pub(crate) fn passes_through(op: &Op) -> bool {
    matches!(
        op,
        Op::TxBegin
            | Op::TxEnd
            | Op::TxCondSplit
            | Op::TxCounterInc { .. }
            | Op::TxAbort { .. }
            | Op::Vote { .. }
            | Op::ChkCorrect { .. }
            | Op::Nop
    )
}

#[cfg(test)]
impl<const N: usize> Lanes<N> {
    /// Lane isolation, the property no semantic test can see: a lane
    /// clone that reads the *master's* operand computes the right value
    /// fault-free and protects nothing. Every lane-`k` clone of a
    /// replicated op, phi or duplicated load must read, per operand, the
    /// lane-`k` twin wherever the master's operand has one. (Twins made
    /// by moves read the master by construction and are skipped.)
    pub fn assert_isolated(&self, f: &Function) {
        use haft_ir::function::ValueDef;
        let operands = |id: InstId| {
            let mut v = Vec::new();
            f.inst(id).op.for_each_operand(|o| v.push(*o));
            v
        };
        let mut clones_seen = 0;
        for (master, twins) in &self.map {
            let ValueDef::Inst(mid) = f.value_def(*master) else { continue };
            for (k, twin) in twins.iter().enumerate() {
                let ValueDef::Inst(tid) = f.value_def(*twin) else {
                    panic!("lane twin {twin:?} is not an instruction result")
                };
                let (mop, top) = (&f.inst(mid).op, &f.inst(tid).op);
                if std::mem::discriminant(mop) != std::mem::discriminant(top) {
                    assert!(
                        matches!(top, Op::Move { a, .. } if *a == Operand::Value(*master)),
                        "twin {top:?} of {mop:?} is neither a clone nor a move of the master"
                    );
                    continue;
                }
                let want: Vec<Operand> = operands(mid).iter().map(|o| self.lane(k, o)).collect();
                assert_eq!(
                    operands(tid),
                    want,
                    "lane {k} clone {top:?} of {mop:?} leaves its lane"
                );
                clones_seen += 1;
            }
        }
        assert!(clones_seen > 0, "no lane clone to check");
    }
}
