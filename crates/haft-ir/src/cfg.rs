//! Control-flow-graph utilities: predecessors, reachability, orderings.
//!
//! One [`Cfg`] is a handful of flat tables indexed by block id: the
//! successor and predecessor lists in compressed-sparse-row form (one
//! offset table and one id array each) beside the reverse postorder, so
//! computing it allocates the same few buffers whatever the block count.

use crate::function::{BlockId, Function};

/// Successor and predecessor lists and traversal orders for one function.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// `succ[succ_at[b]..succ_at[b + 1]]` are `b`'s successor slots, as
    /// its terminator lists them (a `condbr` to one block twice lists it
    /// twice).
    succ_at: Vec<u32>,
    succ: Vec<BlockId>,
    /// `pred[pred_at[b]..pred_at[b + 1]]` are `b`'s distinct
    /// predecessors, in ascending block order.
    pred_at: Vec<u32>,
    pred: Vec<BlockId>,
    /// Reverse postorder over reachable blocks, starting at the entry.
    pub rpo: Vec<BlockId>,
    /// Position of each block in `rpo`; `u32::MAX` for unreachable blocks.
    pub rpo_index: Vec<u32>,
}

impl Cfg {
    /// Computes the CFG of `f`.
    pub fn compute(f: &Function) -> Self {
        let n = f.blocks.len();
        let (mut succ_at, mut succ) = (Vec::with_capacity(n + 1), Vec::with_capacity(2 * n));
        succ_at.push(0);
        for b in 0..n {
            succ.extend(f.successors(BlockId(b as u32)).into_iter().flatten());
            succ_at.push(succ.len() as u32);
        }
        // A block's edges: its successors, a `condbr` to one block twice
        // counted once.
        let edges = |b: usize| {
            let ss = &succ[succ_at[b] as usize..succ_at[b + 1] as usize];
            ss.iter().enumerate().filter(move |&(i, s)| i == 0 || *s != ss[0]).map(|(_, s)| *s)
        };
        // Count each target's edges, sum them into range ends, then fill
        // each range backwards from the last block: every list ascends.
        let mut pred_at = vec![0u32; n + 1];
        for s in (0..n).flat_map(edges) {
            pred_at[s.0 as usize] += 1;
        }
        for b in 1..=n {
            pred_at[b] += pred_at[b - 1];
        }
        let mut pred = vec![BlockId(0); pred_at[n] as usize];
        for b in (0..n).rev() {
            for s in edges(b) {
                pred_at[s.0 as usize] -= 1;
                pred[pred_at[s.0 as usize] as usize] = BlockId(b as u32);
            }
        }

        // Iterative DFS postorder.
        let (rpo, rpo_index) = (Vec::with_capacity(n), vec![u32::MAX; n]);
        let mut cfg = Cfg { succ_at, succ, pred_at, pred, rpo, rpo_index };
        // Stack entries: (block, next-successor-index). A block is marked
        // visited by a provisional `rpo_index` of 0.
        let mut stack: Vec<(BlockId, usize)> = vec![(f.entry(), 0)];
        cfg.rpo_index[f.entry().0 as usize] = 0;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if let Some(&s) = cfg.succs(b).get(*i) {
                *i += 1;
                if !cfg.is_reachable(s) {
                    cfg.rpo_index[s.0 as usize] = 0;
                    stack.push((s, 0));
                }
            } else {
                cfg.rpo.push(b);
                stack.pop();
            }
        }
        cfg.rpo.reverse();
        for (i, b) in cfg.rpo.iter().enumerate() {
            cfg.rpo_index[b.0 as usize] = i as u32;
        }
        cfg
    }

    /// The successors of `b`, one per successor slot of its terminator.
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        let b = b.0 as usize;
        &self.succ[self.succ_at[b] as usize..self.succ_at[b + 1] as usize]
    }

    /// The distinct predecessors of `b`, in ascending block order.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        let b = b.0 as usize;
        &self.pred[self.pred_at[b] as usize..self.pred_at[b + 1] as usize]
    }

    /// Returns true if `b` is reachable from the entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index[b.0 as usize] != u32::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    use crate::types::Ty;

    /// entry -> header <-> body, header -> exit.
    fn loop_func() -> Function {
        let mut fb = FunctionBuilder::new("l", &[Ty::I64], None);
        let n = fb.param(0);
        fb.counted_loop(fb.iconst(Ty::I64, 0), n, |_, _| {});
        fb.ret(None);
        fb.finish()
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable_blocks() {
        let f = loop_func();
        let cfg = Cfg::compute(&f);
        assert_eq!(cfg.rpo[0], f.entry());
        assert_eq!(cfg.rpo.len(), 4);
        for b in &cfg.rpo {
            assert!(cfg.is_reachable(*b));
        }
    }

    #[test]
    fn preds_are_inverse_of_succs() {
        let f = loop_func();
        let cfg = Cfg::compute(&f);
        for b in (0..f.blocks.len() as u32).map(BlockId) {
            for s in cfg.succs(b) {
                assert!(cfg.preds(*s).contains(&b));
            }
        }
        // The loop header has two preds: entry and the latch.
        assert_eq!(cfg.preds(BlockId(1)), [BlockId(0), BlockId(2)]);
    }

    #[test]
    fn unreachable_block_is_flagged() {
        let mut fb = FunctionBuilder::new("u", &[], None);
        fb.ret(None);
        let dead = fb.new_block();
        fb.switch_to(dead);
        fb.ret(None);
        let f = fb.finish();
        let cfg = Cfg::compute(&f);
        assert!(!cfg.is_reachable(dead));
        assert_eq!(cfg.rpo.len(), 1);
    }

    #[test]
    fn rpo_orders_header_before_body_and_exit() {
        let f = loop_func();
        let cfg = Cfg::compute(&f);
        let pos = |b: u32| cfg.rpo_index[b as usize];
        // entry(0) < header(1); header < body(2); header < exit(3).
        assert!(pos(0) < pos(1));
        assert!(pos(1) < pos(2));
        assert!(pos(1) < pos(3));
    }
}
