//! Dominator-tree construction (Cooper–Harvey–Kennedy).

use crate::cfg::Cfg;
use crate::function::{BlockId, Function};

/// `idom` entry of a block with no immediate dominator (unreachable).
const NONE: u32 = u32::MAX;

/// Immediate-dominator tree over the reachable blocks of one function: one
/// flat table of block ids.
#[derive(Clone, Debug)]
pub struct DomTree {
    /// `idom[b]` is the immediate dominator of block `b`; the entry's idom
    /// is itself; unreachable blocks hold `NONE`.
    idom: Vec<u32>,
}

impl DomTree {
    /// Computes the dominator tree using the Cooper–Harvey–Kennedy
    /// iterative algorithm over reverse postorder.
    pub fn compute(f: &Function, cfg: &Cfg) -> Self {
        let mut idom = vec![NONE; f.blocks.len()];
        idom[f.entry().0 as usize] = f.entry().0;
        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo.iter().skip(1) {
                // Meet of the processed predecessors (those with an idom).
                let mut new_idom = NONE;
                for &p in cfg.preds(b).iter().filter(|p| idom[p.0 as usize] != NONE) {
                    new_idom = match new_idom {
                        NONE => p.0,
                        cur => intersect(&idom, &cfg.rpo_index, p.0, cur),
                    };
                }
                if new_idom != NONE && idom[b.0 as usize] != new_idom {
                    idom[b.0 as usize] = new_idom;
                    changed = true;
                }
            }
        }
        DomTree { idom }
    }

    /// The immediate dominator of `b` (the entry's is itself), or `None`
    /// if `b` is unreachable.
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        Some(self.idom[b.0 as usize]).filter(|&i| i != NONE).map(BlockId)
    }

    /// Returns true if `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b.0;
        loop {
            if cur == a.0 {
                return true;
            }
            match self.idom[cur as usize] {
                i if i != cur && i != NONE => cur = i,
                _ => return false,
            }
        }
    }

    /// Returns true if `a` strictly dominates `b`.
    pub fn strictly_dominates(&self, a: BlockId, b: BlockId) -> bool {
        a != b && self.dominates(a, b)
    }
}

/// The nearest common dominator of two processed blocks: walk the one
/// later in reverse postorder up its idom chain until the two meet.
fn intersect(idom: &[u32], rpo_index: &[u32], mut a: u32, mut b: u32) -> u32 {
    while a != b {
        while rpo_index[a as usize] > rpo_index[b as usize] {
            a = idom[a as usize];
        }
        while rpo_index[b as usize] > rpo_index[a as usize] {
            b = idom[b as usize];
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::CmpOp;
    use crate::types::Ty;

    fn diamond() -> Function {
        let mut fb = FunctionBuilder::new("d", &[Ty::I64], Some(Ty::I64));
        let a = fb.param(0);
        let c = fb.cmp(CmpOp::SGt, Ty::I64, a, fb.iconst(Ty::I64, 0));
        let r = fb.if_then_else(Ty::I64, c, |b| b.iconst(Ty::I64, 1), |b| b.iconst(Ty::I64, 2));
        fb.ret(Some(r.into()));
        fb.finish()
    }

    #[test]
    fn diamond_dominators() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        let entry = BlockId(0);
        let then_b = BlockId(1);
        let else_b = BlockId(2);
        let join = BlockId(3);
        assert!(dt.dominates(entry, join));
        assert!(dt.dominates(entry, then_b));
        assert!(!dt.dominates(then_b, join), "join has two preds");
        assert!(!dt.dominates(else_b, join));
        assert_eq!(dt.idom(join), Some(entry));
        assert!(dt.strictly_dominates(entry, join));
        assert!(!dt.strictly_dominates(entry, entry));
    }

    #[test]
    fn loop_header_dominates_body_and_exit() {
        let mut fb = FunctionBuilder::new("l", &[Ty::I64], None);
        let n = fb.param(0);
        fb.counted_loop(fb.iconst(Ty::I64, 0), n, |_, _| {});
        fb.ret(None);
        let f = fb.finish();
        let cfg = Cfg::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        let header = BlockId(1);
        let body = BlockId(2);
        let exit = BlockId(3);
        assert!(dt.dominates(header, body));
        assert!(dt.dominates(header, exit));
        assert!(!dt.dominates(body, exit));
    }

    #[test]
    fn entry_is_its_own_idom() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        assert_eq!(dt.idom(BlockId(0)), Some(BlockId(0)));
    }
}
