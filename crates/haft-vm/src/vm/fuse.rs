//! Super-instruction fusion over decoded code.
//!
//! Fusion is expressed as a per-pc flag rather than as merged opcodes:
//! `fuse[pc] = true` lets the dispatch loop execute `code[pc + 1]` in the
//! same dispatch when `code[pc]` completed cleanly. Every constituent
//! stays a standalone [`DOp`] at its own pc, so a mid-chain bail (window
//! horizon, instruction budget, trap, abort, blocked lock) simply leaves
//! the pc at the next constituent and resumes later — no un-fusing, no
//! special rollback. Adjacent flags compose into chains, which is where
//! the win comes from: a hardened block's master/shadow straight-line
//! run executes as one long dispatch.
//!
//! Since the engine's register-only runs (`engine.rs`) the dispatch loop
//! continues through *every* run-eligible op, flagged or not, so the
//! flags no longer steer dispatch: they are the static census of the hot
//! idioms ([`FuseStats`], `vm.fuse.*`) and the dynamic
//! `Vm::fused_retired` count.
//!
//! What fuses (the hot harden idioms):
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
//! What must not fuse: anything that transfers control (`CondBr` and
//! friends are chain *enders*, never continuers — the flag at their pc
//! stays false because a chain may only run within one block), anything
//! that can block (`Lock`), and frame-changing ops (`Call`/`Ret`), whose
//! successor pc is not `pc + 1`. Cycle accounting is untouched by
//! construction: each constituent still issues on the scoreboard with
//! its own latency, so a fused chain charges exactly the sum of its
//! constituents' costs.

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

/// Straight-line register compute: always completes at `pc + 1` (modulo
/// traps, which end the chain through the bail path).
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

/// Computes the fuse flags for one function's code, given its block
/// ranges (`[start, end)` pcs). Pairs never span a block boundary.
pub(crate) fn compute(code: &[DOp], blocks: &[(usize, usize)], stats: &mut FuseStats) -> Vec<bool> {
    let mut fuse = vec![false; code.len()];
    for &(start, end) in blocks {
        for p in start..end.saturating_sub(1) {
            let (a, b) = (&code[p], &code[p + 1]);
            let fused = match (a, b) {
                (DOp::Cmp { dst, .. }, DOp::CondBr { cond: Src::Slot(c), .. }) if c == dst => {
                    stats.cmp_br += 1;
                    true
                }
                (DOp::TxCounterInc { .. }, DOp::TxCondSplit) => {
                    stats.tx_brackets += 1;
                    true
                }
                (
                    DOp::Vote { dst, .. },
                    DOp::Load { addr: Src::Slot(s), .. } | DOp::Store { addr: Src::Slot(s), .. },
                ) if s == dst => {
                    stats.vote_mem += 1;
                    true
                }
                _ if (is_compute(a) || matches!(a, DOp::Load { .. })) && is_compute(b) => {
                    stats.alu_pairs += 1;
                    true
                }
                _ => false,
            };
            fuse[p] = fused;
        }
    }
    fuse
}

#[cfg(test)]
mod tests {
    use super::*;
    use haft_ir::inst::{BinOp, CmpOp};
    use haft_ir::types::Ty;

    use super::super::decode::Edge;

    fn bin(dst: u32) -> DOp {
        DOp::Bin { op: BinOp::Add, ty: Ty::I64, a: Src::Slot(0), b: Src::Slot(1), dst, lat: 1 }
    }

    fn edge() -> Edge {
        Edge { target: 0, moves_at: 0, moves_n: 0 }
    }

    #[test]
    fn compute_pairs_chain_across_a_block() {
        let code = [bin(2), bin(3), bin(4), DOp::Ret { val: None }];
        let mut stats = FuseStats::default();
        let fuse = compute(&code, &[(0, 4)], &mut stats);
        // bin→bin, bin→bin fuse; bin→ret does not; ret is last.
        assert_eq!(fuse, vec![true, true, false, false]);
        assert_eq!(stats.alu_pairs, 2);
    }

    #[test]
    fn cmp_feeding_its_branch_fuses() {
        let code = [
            DOp::Cmp { op: CmpOp::Eq, ty: Ty::I64, a: Src::Slot(0), b: Src::Slot(1), dst: 2 },
            DOp::CondBr { cond: Src::Slot(2), t: edge(), f: edge(), bp: 0 },
        ];
        let mut stats = FuseStats::default();
        let fuse = compute(&code, &[(0, 2)], &mut stats);
        assert_eq!(fuse, vec![true, false]);
        assert_eq!(stats.cmp_br, 1);
        assert_eq!(stats.alu_pairs, 0);

        // A branch on a different value does not fuse with the compare.
        let code = [
            DOp::Cmp { op: CmpOp::Eq, ty: Ty::I64, a: Src::Slot(0), b: Src::Slot(1), dst: 2 },
            DOp::CondBr { cond: Src::Slot(9), t: edge(), f: edge(), bp: 0 },
        ];
        let mut stats = FuseStats::default();
        let fuse = compute(&code, &[(0, 2)], &mut stats);
        assert_eq!(fuse, vec![false, false]);
    }

    #[test]
    fn tx_bracket_and_vote_mem_patterns() {
        let code = [
            DOp::TxCounterInc { amount: 12 },
            DOp::TxCondSplit,
            DOp::Vote { ty: Ty::Ptr, a: Src::Slot(0), b: Src::Slot(1), c: Src::Slot(2), dst: 3 },
            DOp::Load { ty: Ty::I64, addr: Src::Slot(3), atomic: false, dst: 4 },
        ];
        let mut stats = FuseStats::default();
        let fuse = compute(&code, &[(0, 4)], &mut stats);
        assert_eq!(stats.tx_brackets, 1);
        assert_eq!(stats.vote_mem, 1);
        assert!(fuse[0] && fuse[2]);
        // tx_cond_split → vote is not a pattern.
        assert!(!fuse[1]);
        assert_eq!(stats.total(), 2);
    }

    #[test]
    fn pairs_never_span_blocks() {
        let code = [bin(2), bin(3)];
        let mut stats = FuseStats::default();
        // Same ops, but a block boundary between them.
        let fuse = compute(&code, &[(0, 1), (1, 2)], &mut stats);
        assert_eq!(fuse, vec![false, false]);
        assert_eq!(stats.total(), 0);
    }

    #[test]
    fn load_then_shadow_move_fuses() {
        let code = [
            DOp::Load { ty: Ty::I64, addr: Src::Slot(0), atomic: false, dst: 1 },
            DOp::MoveV { ty: Ty::I64, a: Src::Slot(1), dst: 2 },
        ];
        let mut stats = FuseStats::default();
        let fuse = compute(&code, &[(0, 2)], &mut stats);
        assert_eq!(fuse, vec![true, false]);
        assert_eq!(stats.alu_pairs, 1);
    }
}
