//! Property tests on the CFG/dominator/loop analyses over randomly
//! generated (structured) control flow.

use haft_ir::builder::FunctionBuilder;
use haft_ir::cfg::Cfg;
use haft_ir::dom::DomTree;
use haft_ir::function::Function;
use haft_ir::inst::CmpOp;
use haft_ir::loops::LoopForest;
use haft_ir::types::Ty;
use haft_ir::verify::verify_func;
use proptest::prelude::*;

/// Structured program shapes: sequences of loops and diamonds, possibly
/// nested one level.
#[derive(Clone, Debug)]
enum Shape {
    Loop(u8),
    Diamond,
    LoopInLoop(u8, u8),
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (1u8..20).prop_map(Shape::Loop),
        Just(Shape::Diamond),
        (1u8..8, 1u8..8).prop_map(|(a, b)| Shape::LoopInLoop(a, b)),
    ]
}

fn build(shapes: &[Shape]) -> Function {
    let mut fb = FunctionBuilder::new("f", &[Ty::I64], None);
    let p = fb.param(0);
    for s in shapes {
        match s {
            Shape::Loop(n) => {
                fb.counted_loop(fb.iconst(Ty::I64, 0), fb.iconst(Ty::I64, *n as i64), |b, i| {
                    b.add(Ty::I64, i, p);
                });
            }
            Shape::Diamond => {
                let c = fb.cmp(CmpOp::SGt, Ty::I64, p, fb.iconst(Ty::I64, 3));
                fb.if_then(c, |b| {
                    b.mul(Ty::I64, p, p);
                });
            }
            Shape::LoopInLoop(a, b) => {
                let (a, b) = (*a as i64, *b as i64);
                fb.counted_loop(fb.iconst(Ty::I64, 0), fb.iconst(Ty::I64, a), move |bb, i| {
                    bb.counted_loop(bb.iconst(Ty::I64, 0), bb.iconst(Ty::I64, b), move |b2, j| {
                        b2.add(Ty::I64, i, j);
                    });
                });
            }
        }
    }
    fb.ret(None);
    fb.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dominator facts: the entry dominates every reachable block; every
    /// idom strictly dominates its block; every block's predecessors are
    /// dominated by the idom (the defining property of immediate
    /// dominators).
    #[test]
    fn dominator_invariants(shapes in proptest::collection::vec(shape_strategy(), 1..6)) {
        let f = build(&shapes);
        verify_func(&f, &[], &[]).unwrap();
        let cfg = Cfg::compute(&f);
        let dom = DomTree::compute(&f, &cfg);
        for &b in &cfg.rpo {
            prop_assert!(dom.dominates(f.entry(), b));
            if b != f.entry() {
                let idom = dom.idom(b).unwrap();
                prop_assert!(dom.strictly_dominates(idom, b));
                for &p in cfg.preds(b) {
                    if cfg.is_reachable(p) {
                        prop_assert!(dom.dominates(idom, p) || idom == b,
                            "idom {idom:?} of {b:?} must dominate pred {p:?}");
                    }
                }
            }
        }
    }

    /// Loop facts: headers dominate their bodies and latches; bodies are
    /// closed under predecessors (except through the header); nesting
    /// depths are consistent with parent links.
    #[test]
    fn loop_invariants(shapes in proptest::collection::vec(shape_strategy(), 1..6)) {
        let f = build(&shapes);
        let cfg = Cfg::compute(&f);
        let dom = DomTree::compute(&f, &cfg);
        let forest = LoopForest::compute(&f, &cfg, &dom);
        // Structured builders: loop count equals the loops requested.
        let expected: usize = shapes.iter().map(|s| match s {
            Shape::Loop(_) => 1,
            Shape::Diamond => 0,
            Shape::LoopInLoop(_, _) => 2,
        }).sum();
        prop_assert_eq!(forest.loops.len(), expected);
        for l in &forest.loops {
            for b in &l.body {
                prop_assert!(dom.dominates(l.header, *b),
                    "header {:?} must dominate body block {b:?}", l.header);
            }
            for latch in &l.latches {
                prop_assert!(l.contains(*latch));
            }
        }
        for (i, l) in forest.loops.iter().enumerate() {
            if let Some(parent) = l.parent {
                prop_assert_eq!(l.depth, forest.loops[parent].depth + 1);
                prop_assert!(forest.loops[parent].contains(l.header));
                prop_assert!(i != parent);
            } else {
                prop_assert_eq!(l.depth, 1);
            }
        }
    }

    /// RPO is a topological order w.r.t. dominance: a dominator always
    /// precedes the blocks it dominates.
    #[test]
    fn rpo_respects_dominance(shapes in proptest::collection::vec(shape_strategy(), 1..6)) {
        let f = build(&shapes);
        let cfg = Cfg::compute(&f);
        let dom = DomTree::compute(&f, &cfg);
        for &a in &cfg.rpo {
            for &b in &cfg.rpo {
                if a != b && dom.strictly_dominates(a, b) {
                    prop_assert!(cfg.rpo_index[a.0 as usize] < cfg.rpo_index[b.0 as usize]);
                }
            }
        }
    }
}
