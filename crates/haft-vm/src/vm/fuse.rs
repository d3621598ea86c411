//! The fuse census: how often the hot harden idioms occur in decoded
//! code.
//!
//! Earlier engines dispatched on a per-pc "fuse" flag — execute
//! `code[pc + 1]` in the same dispatch when `code[pc]` completed cleanly.
//! Since register-only runs (`engine.rs`) the dispatch loop continues
//! through *every* run-eligible op, so no flag steers anything and none
//! is stored: what remains is the static count of adjacent pairs, by
//! pattern ([`FuseStats`], exported as `vm.fuse.*`), which says how much
//! of a hardened module is the idioms the engine is tuned for. Ops are
//! matched in their generic form ([`DOp::generic`]), so a decode-resolved
//! opcode counts exactly like the `Bin`/`Cmp` it stands for.
//!
//! The patterns:
//!
//! * **ILR shadow pairs** (`alu_pairs`): compute→compute, and
//!   load→compute for the load-then-shadow-move idiom — ILR emits the
//!   shadow op right next to its master, so hardened code is dominated
//!   by these.
//! * **Check branches** (`cmp_br`): a compare feeding the immediately
//!   following conditional branch on its result — every ILR detection
//!   check ends this way.
//! * **TX brackets** (`tx_brackets`): `tx_counter_inc` followed by
//!   `tx_cond_split`, the TX pass's per-block bookkeeping pair.
//! * **Vote-then-memory** (`vote_mem`): a TMR majority vote whose result
//!   is the address of the next load/store (votes guard exactly the
//!   sync points, so this adjacency is the common case).
//!
//! A pair never spans a block boundary, and nothing that transfers
//! control, can block, or changes frames heads one.

use super::decode::{DOp, Src};

/// Counts of fused pairs found at decode time, by pattern.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FuseStats {
    /// compute→compute and load→compute (ILR master/shadow idiom).
    pub alu_pairs: usize,
    /// compare→conditional-branch on the compare's result.
    pub cmp_br: usize,
    /// `tx_counter_inc`→`tx_cond_split`.
    pub tx_brackets: usize,
    /// vote→load/store through the voted address.
    pub vote_mem: usize,
}

impl FuseStats {
    /// Total fused pairs.
    pub fn total(&self) -> usize {
        self.alu_pairs + self.cmp_br + self.tx_brackets + self.vote_mem
    }
}

/// Straight-line register compute, in generic form.
fn is_compute(op: &DOp) -> bool {
    matches!(
        op,
        DOp::Bin { .. }
            | DOp::Un { .. }
            | DOp::Cmp { .. }
            | DOp::MoveV { .. }
            | DOp::Cast { .. }
            | DOp::Select { .. }
            | DOp::Gep { .. }
    )
}

/// Counts the pairs of one function's code into `stats`, given its block
/// ranges (`[start, end)` pcs).
pub(crate) fn census(code: &[DOp], blocks: &[(usize, usize)], stats: &mut FuseStats) {
    for &(start, end) in blocks {
        for p in start..end.saturating_sub(1) {
            let (a, b) = (code[p].generic(), code[p + 1].generic());
            match (&a, &b) {
                (DOp::Cmp { dst, .. }, DOp::CondBr { cond: Src::Slot(c), .. }) if c == dst => {
                    stats.cmp_br += 1;
                }
                (DOp::TxCounterInc { .. }, DOp::TxCondSplit) => stats.tx_brackets += 1,
                (
                    DOp::Vote { dst, .. },
                    DOp::Load { addr: Src::Slot(s), .. } | DOp::Store { addr: Src::Slot(s), .. },
                ) if s == dst => stats.vote_mem += 1,
                _ if (is_compute(&a) || matches!(a, DOp::Load { .. })) && is_compute(&b) => {
                    stats.alu_pairs += 1;
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haft_ir::inst::{BinOp, CmpOp};
    use haft_ir::types::Ty;

    use super::super::decode::{Alu2, Edge};

    fn bin(dst: u32) -> DOp {
        DOp::Bin { op: BinOp::Sub, ty: Ty::I64, a: Src::Slot(0), b: Src::Slot(1), dst, lat: 1 }
    }

    fn alu2(dst: u32) -> Alu2 {
        Alu2 { a: Src::Slot(0), b: Src::Slot(1), dst, lat: 1 }
    }

    fn edge() -> Edge {
        Edge { target: 0, moves_at: 0, moves_n: 0 }
    }

    fn count(code: &[DOp], blocks: &[(usize, usize)]) -> FuseStats {
        let mut stats = FuseStats::default();
        census(code, blocks, &mut stats);
        stats
    }

    #[test]
    fn compute_pairs_chain_across_a_block() {
        // bin→add64, add64→bin pair up; bin→ret does not; ret is last.
        let code = [bin(2), DOp::Add64(alu2(3)), bin(4), DOp::Ret { val: None }];
        assert_eq!(count(&code, &[(0, 4)]), FuseStats { alu_pairs: 2, ..Default::default() });
    }

    #[test]
    fn cmp_feeding_its_branch_fuses() {
        let br = |c| DOp::CondBr { cond: Src::Slot(c), t: edge(), f: edge(), bp: 0 };
        let cmp =
            DOp::Cmp { op: CmpOp::ULt, ty: Ty::I64, a: Src::Slot(0), b: Src::Slot(1), dst: 2 };
        // The generic compare and a decode-resolved one count alike.
        for cmp in [cmp, DOp::CmpEq64(alu2(2)), DOp::CmpSlt64(alu2(2))] {
            let stats = count(&[cmp, br(2)], &[(0, 2)]);
            assert_eq!(stats, FuseStats { cmp_br: 1, ..Default::default() });
            // A branch on a different value does not pair with the compare.
            assert_eq!(count(&[cmp, br(9)], &[(0, 2)]).total(), 0);
        }
    }

    #[test]
    fn tx_bracket_and_vote_mem_patterns() {
        let code = [
            DOp::TxCounterInc { amount: 12 },
            DOp::TxCondSplit,
            DOp::Vote { ty: Ty::Ptr, a: Src::Slot(0), b: Src::Slot(1), c: Src::Slot(2), dst: 3 },
            DOp::Load { ty: Ty::I64, addr: Src::Slot(3), atomic: false, dst: 4 },
        ];
        // tx_cond_split → vote is not a pattern.
        let want = FuseStats { tx_brackets: 1, vote_mem: 1, ..Default::default() };
        assert_eq!(count(&code, &[(0, 4)]), want);
        assert_eq!(want.total(), 2);
    }

    #[test]
    fn pairs_never_span_blocks() {
        // Same ops, but a block boundary between them.
        assert_eq!(count(&[bin(2), bin(3)], &[(0, 2)]).total(), 1);
        assert_eq!(count(&[bin(2), bin(3)], &[(0, 1), (1, 2)]).total(), 0);
    }

    #[test]
    fn load_then_shadow_move_fuses() {
        let code = [
            DOp::Load { ty: Ty::I64, addr: Src::Slot(0), atomic: false, dst: 1 },
            DOp::MoveV { ty: Ty::I64, a: Src::Slot(1), dst: 2 },
        ];
        assert_eq!(count(&code, &[(0, 2)]), FuseStats { alu_pairs: 1, ..Default::default() });
    }
}
