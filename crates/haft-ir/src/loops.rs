//! Natural-loop detection and loop utilities for the TX pass.
//!
//! The TX transactification algorithm (paper §3.2) needs, per loop: the
//! header (where the conditional transaction split goes), every latch
//! (where the instruction counter is incremented), and the longest acyclic
//! instruction path from the header to each latch (the increment amount —
//! "an upper bound of the transaction size"). The fault-propagation check
//! (§3.3) additionally needs loop nesting to identify *innermost* loops and
//! their header phis (induction variables).

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::function::{BlockId, Function};

/// One natural loop.
#[derive(Clone, Debug)]
pub struct Loop {
    /// The unique entry block of the loop.
    pub header: BlockId,
    /// Blocks with a back edge to the header.
    pub latches: Vec<BlockId>,
    /// All blocks of the loop, including the header, in ascending order.
    pub body: Vec<BlockId>,
    /// Index of the enclosing loop in [`LoopForest::loops`], if nested.
    pub parent: Option<usize>,
    /// Nesting depth (outermost = 1).
    pub depth: u32,
}

impl Loop {
    /// Returns true if `b` is a block of the loop.
    pub fn contains(&self, b: BlockId) -> bool {
        self.body.binary_search(&b).is_ok()
    }
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
    pub fn compute(f: &Function, cfg: &Cfg, dom: &DomTree) -> Self {
        // Collect back edges grouped by header.
        let mut by_header: Vec<(BlockId, Vec<BlockId>)> = Vec::new();
        for &b in &cfg.rpo {
            for &s in cfg.succs(b) {
                if dom.dominates(s, b) {
                    match by_header.iter_mut().find(|(h, _)| *h == s) {
                        Some((_, latches)) => latches.push(b),
                        None => by_header.push((s, vec![b])),
                    }
                }
            }
        }

        // Natural loop body: header plus reverse-reachable blocks from the
        // latches that do not pass through the header. `mark[b]` is the
        // number of the last loop (from 1) that took `b`.
        let mut mark = vec![0u32; f.blocks.len()];
        let mut loops: Vec<Loop> = Vec::with_capacity(by_header.len());
        for (i, (header, latches)) in by_header.into_iter().enumerate() {
            let stamp = i as u32 + 1;
            mark[header.0 as usize] = stamp;
            let mut body = vec![header];
            let mut stack: Vec<BlockId> = latches.clone();
            while let Some(b) = stack.pop() {
                if mark[b.0 as usize] != stamp {
                    mark[b.0 as usize] = stamp;
                    body.push(b);
                    stack.extend_from_slice(cfg.preds(b));
                }
            }
            body.sort_unstable();
            loops.push(Loop { header, latches, body, parent: None, depth: 1 });
        }

        // Establish nesting: the parent of loop L is the smallest loop
        // strictly containing L's header (other than L itself).
        for i in 0..loops.len() {
            let mut best: Option<usize> = None;
            for (j, lj) in loops.iter().enumerate() {
                if i == j || !lj.contains(loops[i].header) || lj.header == loops[i].header {
                    continue;
                }
                best = match best {
                    None => Some(j),
                    Some(cur) if lj.body.len() < loops[cur].body.len() => Some(j),
                    keep => keep,
                };
            }
            loops[i].parent = best;
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
    let succ = |b: BlockId, i: usize| f.successors(b).get(i).copied().flatten();
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
    // Longest path from header to a specific latch: compute longest path
    // *ending* at the latch by DFS over reversed edges is more direct, but
    // for counter purposes the paper uses the longest path through the body
    // leading to the latch; we approximate per-latch with the total longest
    // path from the header (a safe upper bound, and exact for single-latch
    // loops, which is what the builder produces).
    let total = longest_path(f, cfg, l.header, &|b| l.contains(b));
    l.latches.iter().map(|&latch| (latch, total)).collect()
}

/// The longest acyclic instruction path from `from` through the blocks
/// `inside` accepts (the loop body, or the whole function for TX's
/// local-call charge).
///
/// A longest path in a DAG via memoized DFS from `from`. Edges into a
/// block on the walk's stack are skipped: `from`'s own back edges (it
/// stays on the stack throughout), which makes a natural loop's body
/// acyclic, and inner loops' back edges (conservative: the longest
/// *acyclic* path is what we bound).
pub fn longest_path(
    f: &Function,
    cfg: &Cfg,
    from: BlockId,
    inside: &dyn Fn(BlockId) -> bool,
) -> u32 {
    fn dfs(
        (f, cfg, inside): (&Function, &Cfg, &dyn Fn(BlockId) -> bool),
        b: BlockId,
        memo: &mut [Option<u32>],
        on_stack: &mut [bool],
    ) -> u32 {
        if let Some(w) = memo[b.0 as usize] {
            return w;
        }
        on_stack[b.0 as usize] = true;
        let mut best = 0;
        for &s in cfg.succs(b) {
            if inside(s) && !on_stack[s.0 as usize] {
                best = best.max(dfs((f, cfg, inside), s, memo, on_stack));
            }
        }
        on_stack[b.0 as usize] = false;
        let w = f.blocks[b.0 as usize].insts.len() as u32 + best;
        memo[b.0 as usize] = Some(w);
        w
    }
    let (mut memo, mut on_stack) = (vec![None; f.blocks.len()], vec![false; f.blocks.len()]);
    dfs((f, cfg, inside), from, &mut memo, &mut on_stack)
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
        assert!(l.contains(BlockId(1)) && l.contains(BlockId(2)));
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
        assert!(lf.loops[inner].body.iter().all(|&b| lf.loops[outer].contains(b)));
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
