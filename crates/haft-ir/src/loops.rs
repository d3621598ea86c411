//! Natural-loop detection and loop utilities for the TX pass.
//!
//! The TX transactification algorithm (paper §3.2) needs, per loop: the
//! header (where the conditional transaction split goes), every latch
//! (where the instruction counter is incremented), and the longest acyclic
//! instruction path from the header to each latch (the increment amount —
//! "an upper bound of the transaction size"). The fault-propagation check
//! (§3.3) additionally needs loop nesting to identify *innermost* loops and
//! their header phis (induction variables).

use std::collections::BTreeSet;

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::function::{BlockId, Function};
use crate::inst::Op;

/// One natural loop.
#[derive(Clone, Debug)]
pub struct Loop {
    /// The unique entry block of the loop.
    pub header: BlockId,
    /// Blocks with a back edge to the header.
    pub latches: Vec<BlockId>,
    /// All blocks of the loop, including the header.
    pub body: BTreeSet<BlockId>,
    /// Index of the enclosing loop in [`LoopForest::loops`], if nested.
    pub parent: Option<usize>,
    /// Nesting depth (outermost = 1).
    pub depth: u32,
}

/// All natural loops of one function.
#[derive(Clone, Debug, Default)]
pub struct LoopForest {
    pub loops: Vec<Loop>,
}

impl LoopForest {
    /// Finds all natural loops of `f`.
    ///
    /// Back edges are edges `latch -> header` where `header` dominates
    /// `latch`; loops sharing a header are merged (as LLVM does).
    pub fn compute(_f: &Function, cfg: &Cfg, dom: &DomTree) -> Self {
        // Collect back edges grouped by header.
        let mut by_header: Vec<(BlockId, Vec<BlockId>)> = Vec::new();
        for &b in &cfg.rpo {
            for s in &cfg.succs[b.0 as usize] {
                if dom.dominates(*s, b) {
                    match by_header.iter_mut().find(|(h, _)| h == s) {
                        Some((_, latches)) => latches.push(b),
                        None => by_header.push((*s, vec![b])),
                    }
                }
            }
        }

        // Natural loop body: header plus reverse-reachable blocks from the
        // latches that do not pass through the header.
        let mut loops: Vec<Loop> = by_header
            .into_iter()
            .map(|(header, latches)| {
                let mut body: BTreeSet<BlockId> = BTreeSet::new();
                body.insert(header);
                let mut stack: Vec<BlockId> = latches.clone();
                while let Some(b) = stack.pop() {
                    if body.insert(b) {
                        for &p in &cfg.preds[b.0 as usize] {
                            stack.push(p);
                        }
                    }
                }
                Loop { header, latches, body, parent: None, depth: 1 }
            })
            .collect();

        // Establish nesting: the parent of loop L is the smallest loop
        // strictly containing L's header (other than L itself).
        let snapshots: Vec<(BlockId, BTreeSet<BlockId>)> =
            loops.iter().map(|l| (l.header, l.body.clone())).collect();
        for (i, l) in loops.iter_mut().enumerate() {
            let mut best: Option<usize> = None;
            for (j, (hj, bodyj)) in snapshots.iter().enumerate() {
                if i == j || !bodyj.contains(&l.header) || *hj == l.header {
                    continue;
                }
                best = match best {
                    None => Some(j),
                    Some(cur) if bodyj.len() < snapshots[cur].1.len() => Some(j),
                    keep => keep,
                };
            }
            l.parent = best;
        }
        // Depths.
        for i in 0..loops.len() {
            let mut d = 1;
            let mut cur = loops[i].parent;
            while let Some(p) = cur {
                d += 1;
                cur = loops[p].parent;
            }
            loops[i].depth = d;
        }
        LoopForest { loops }
    }

    /// Returns true if loop `i` contains no other loop.
    pub fn is_innermost(&self, i: usize) -> bool {
        !self.loops.iter().any(|l| l.parent == Some(i))
    }
}

/// Upper bounds on `f`'s natural loops from one depth-first walk of its
/// terminators, without a dominator tree: `(back_edges, headers)`.
///
/// A back edge `latch -> header` leaves a block its header dominates, so
/// in any depth-first walk from the entry the header is still on the
/// walk's stack when the edge is taken: every back edge is a retreating
/// edge, and every loop header is the target of one. The walk counts the
/// retreating edges and lists their distinct targets.
pub fn retreating_edges(f: &Function) -> (usize, Vec<BlockId>) {
    let succ = |b: BlockId, i: usize| match f.terminator(b).map(|t| &f.inst(t).op) {
        Some(Op::Br { dest }) => (i == 0).then_some(*dest),
        Some(Op::CondBr { t, f: e, .. }) => [*t, *e].get(i).copied(),
        _ => None,
    };
    let (mut edges, mut headers) = (0, Vec::new());
    // 0: not reached yet, 1: on the walk's stack, 2: finished.
    let mut state = vec![0u8; f.blocks.len()];
    let mut stack = vec![(f.entry(), 0)];
    state[f.entry().0 as usize] = 1;
    while let Some(&mut (b, ref mut i)) = stack.last_mut() {
        let Some(s) = succ(b, *i) else {
            state[b.0 as usize] = 2;
            stack.pop();
            continue;
        };
        *i += 1;
        match state[s.0 as usize] {
            0 => {
                state[s.0 as usize] = 1;
                stack.push((s, 0));
            }
            1 => {
                edges += 1;
                if !headers.contains(&s) {
                    headers.push(s);
                }
            }
            _ => {}
        }
    }
    (edges, headers)
}

/// Computes the longest acyclic instruction path from the loop header to
/// each latch, following only edges inside the loop body and ignoring back
/// edges into the header.
///
/// The result is the paper's counter-increment amount: a worst-case upper
/// bound on the instructions executed in one iteration (shadow instructions
/// included, since TX runs after ILR).
pub fn longest_paths_to_latches(f: &Function, cfg: &Cfg, l: &Loop) -> Vec<(BlockId, u32)> {
    // Longest path in a DAG via memoized DFS from the header. Edges into
    // the header are ignored (they are the back edges), which makes the
    // subgraph acyclic for natural loops with a single header. Inner-loop
    // back edges are handled by skipping edges to already-on-stack nodes
    // (conservative: the longest *acyclic* path is what we bound).
    fn weight(f: &Function, b: BlockId) -> u32 {
        f.blocks[b.0 as usize].insts.len() as u32
    }

    fn dfs(
        f: &Function,
        cfg: &Cfg,
        l: &Loop,
        b: BlockId,
        memo: &mut Vec<Option<u32>>,
        on_stack: &mut Vec<bool>,
    ) -> u32 {
        if let Some(w) = memo[b.0 as usize] {
            return w;
        }
        on_stack[b.0 as usize] = true;
        let mut best = 0;
        for &s in &cfg.succs[b.0 as usize] {
            if s == l.header || !l.body.contains(&s) || on_stack[s.0 as usize] {
                continue;
            }
            best = best.max(dfs(f, cfg, l, s, memo, on_stack));
        }
        on_stack[b.0 as usize] = false;
        let w = weight(f, b) + best;
        memo[b.0 as usize] = Some(w);
        w
    }

    // Longest path from header to a specific latch: compute longest path
    // *ending* at the latch by DFS over reversed edges is more direct, but
    // for counter purposes the paper uses the longest path through the body
    // leading to the latch; we approximate per-latch with the total longest
    // path from the header (a safe upper bound, and exact for single-latch
    // loops, which is what the builder produces).
    let mut memo = vec![None; f.blocks.len()];
    let mut on_stack = vec![false; f.blocks.len()];
    let total = dfs(f, cfg, l, l.header, &mut memo, &mut on_stack);
    l.latches.iter().map(|&latch| (latch, total)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::Ty;

    fn analyze(f: &Function) -> (Cfg, DomTree, LoopForest) {
        let cfg = Cfg::compute(f);
        let dom = DomTree::compute(f, &cfg);
        let lf = LoopForest::compute(f, &cfg, &dom);
        (cfg, dom, lf)
    }

    #[test]
    fn single_loop_is_found() {
        let mut fb = FunctionBuilder::new("l", &[Ty::I64], None);
        let n = fb.param(0);
        fb.counted_loop(fb.iconst(Ty::I64, 0), n, |b, i| {
            b.mul(Ty::I64, i, i);
        });
        fb.ret(None);
        let f = fb.finish();
        let (_, _, lf) = analyze(&f);
        assert_eq!(lf.loops.len(), 1);
        let l = &lf.loops[0];
        assert_eq!(l.header, BlockId(1));
        assert_eq!(l.latches, vec![BlockId(2)]);
        assert!(l.body.contains(&BlockId(1)) && l.body.contains(&BlockId(2)));
        assert_eq!(l.depth, 1);
        assert!(lf.is_innermost(0));
    }

    #[test]
    fn nested_loops_have_correct_depths() {
        let mut fb = FunctionBuilder::new("n", &[Ty::I64], None);
        let n = fb.param(0);
        fb.counted_loop(fb.iconst(Ty::I64, 0), n, |b, _| {
            b.counted_loop(b.iconst(Ty::I64, 0), n, |b2, j| {
                b2.add(Ty::I64, j, j);
            });
        });
        fb.ret(None);
        let f = fb.finish();
        let (_, _, lf) = analyze(&f);
        assert_eq!(lf.loops.len(), 2);
        let outer = lf.loops.iter().position(|l| l.depth == 1).unwrap();
        let inner = lf.loops.iter().position(|l| l.depth == 2).unwrap();
        assert_eq!(lf.loops[inner].parent, Some(outer));
        assert!(lf.is_innermost(inner));
        assert!(!lf.is_innermost(outer));
        // The inner loop's body is a subset of the outer's.
        assert!(lf.loops[inner].body.is_subset(&lf.loops[outer].body));
    }

    #[test]
    fn retreating_edges_bound_the_back_edges() {
        let mut fb = FunctionBuilder::new("n", &[Ty::I64], None);
        let n = fb.param(0);
        fb.counted_loop(fb.iconst(Ty::I64, 0), n, |b, _| {
            b.counted_loop(b.iconst(Ty::I64, 0), n, |_, _| {});
        });
        fb.ret(None);
        let f = fb.finish();
        let (_, _, lf) = analyze(&f);
        let (edges, mut headers) = retreating_edges(&f);
        assert_eq!(edges, lf.loops.iter().map(|l| l.latches.len()).sum::<usize>());
        let mut want: Vec<BlockId> = lf.loops.iter().map(|l| l.header).collect();
        headers.sort();
        want.sort();
        assert_eq!(headers, want);
    }

    #[test]
    fn straight_line_code_has_no_loops() {
        let mut fb = FunctionBuilder::new("s", &[], None);
        fb.ret(None);
        let f = fb.finish();
        let (_, _, lf) = analyze(&f);
        assert!(lf.loops.is_empty());
    }

    #[test]
    fn longest_path_counts_body_instructions() {
        let mut fb = FunctionBuilder::new("l", &[Ty::I64], None);
        let n = fb.param(0);
        fb.counted_loop(fb.iconst(Ty::I64, 0), n, |b, i| {
            b.mul(Ty::I64, i, i);
            b.add(Ty::I64, i, i);
        });
        fb.ret(None);
        let f = fb.finish();
        let (cfg, _, lf) = analyze(&f);
        let paths = longest_paths_to_latches(&f, &cfg, &lf.loops[0]);
        assert_eq!(paths.len(), 1);
        // Header: phi + cmp + condbr = 3; body: mul + add + i+1 + br = 4.
        assert_eq!(paths[0].1, 7);
    }
}
