//! IR verifier: SSA dominance, type agreement, and structural invariants.
//!
//! Every HAFT pass output is expected to re-verify; the test suites run the
//! verifier after each transformation, which is how the reproduction guards
//! against the classes of pass bugs the paper's authors debugged at the
//! LLVM CodeGen level.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::function::{BlockId, Function, InstId, ValueDef, ValueId};
use crate::inst::{Callee, Op, Operand};
use crate::module::{Global, GlobalInit, Module};
use crate::types::Ty;

/// Function signature used for cross-function call checking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FnSig {
    pub params: Vec<Ty>,
    pub ret_ty: Option<Ty>,
}

/// Verifies a whole module; returns all diagnostics on failure.
pub fn verify_module(m: &Module) -> Result<(), Vec<String>> {
    let sigs: Vec<FnSig> =
        m.funcs.iter().map(|f| FnSig { params: f.params.clone(), ret_ty: f.ret_ty }).collect();
    let mut errs = Vec::new();
    for g in &m.globals {
        if let GlobalInit::Bytes(b) = &g.init {
            if b.len() as u64 > g.size {
                errs.push(format!(
                    "global {}: {} initial bytes exceed its size {}",
                    g.name,
                    b.len(),
                    g.size
                ));
            }
        }
    }
    for f in &m.funcs {
        if let Err(mut e) = verify_func(f, &sigs, &m.globals) {
            errs.append(&mut e);
        }
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

/// Verifies one function against the module's signatures and globals.
pub fn verify_func(f: &Function, sigs: &[FnSig], globals: &[Global]) -> Result<(), Vec<String>> {
    let mut errs = Vec::new();
    let name = &f.name;

    // Locate every placed instruction.
    let mut location: Vec<Option<(BlockId, usize)>> = vec![None; f.insts.len()];
    for (bid, b) in f.iter_blocks() {
        for (pos, &iid) in b.insts.iter().enumerate() {
            if iid.0 as usize >= f.insts.len() {
                errs.push(format!("{name}: block {bid:?} references bogus inst {iid:?}"));
                continue;
            }
            if location[iid.0 as usize].is_some() {
                errs.push(format!("{name}: inst {iid:?} placed more than once"));
            }
            location[iid.0 as usize] = Some((bid, pos));
        }
    }

    // Structural checks per block: one trailing terminator, phis first.
    // A bogus inst id is reported above; its position counts here, its
    // (absent) op does not.
    let op_of = |iid: InstId| f.insts.get(iid.0 as usize).map(|inst| &inst.op);
    for (bid, b) in f.iter_blocks() {
        let Some(&last) = b.insts.last() else {
            errs.push(format!("{name}: block {bid:?} is empty"));
            continue;
        };
        if op_of(last).is_some_and(|op| !op.is_terminator()) {
            errs.push(format!("{name}: block {bid:?} does not end in a terminator"));
        }
        let mut seen_non_phi = false;
        for (pos, &iid) in b.insts.iter().enumerate() {
            let Some(op) = op_of(iid) else { continue };
            if op.is_terminator() && pos + 1 != b.insts.len() {
                errs.push(format!("{name}: terminator in the middle of block {bid:?}"));
            }
            if op.is_phi() {
                if seen_non_phi {
                    errs.push(format!("{name}: phi after non-phi in block {bid:?}"));
                }
            } else {
                seen_non_phi = true;
            }
            for succ in op.successors() {
                if succ.0 as usize >= f.blocks.len() {
                    errs.push(format!("{name}: branch to bogus block {succ:?}"));
                }
            }
        }
    }
    if !errs.is_empty() {
        // CFG-dependent checks below assume structural sanity.
        return Err(errs);
    }

    let cfg = Cfg::compute(f);
    let dom = DomTree::compute(f, &cfg);

    // Returns the defining location of a value, or None for params.
    let def_loc = |v: ValueId| -> Result<Option<(BlockId, usize)>, String> {
        match f.values.get(v.0 as usize) {
            None => Err(format!("{name}: use of bogus value {v:?}")),
            Some(info) => match info.def {
                ValueDef::Param(_) => Ok(None),
                ValueDef::Inst(iid) => match location.get(iid.0 as usize) {
                    Some(Some(loc)) => Ok(Some(*loc)),
                    Some(None) => Err(format!("{name}: use of unplaced def {v:?}")),
                    None => Err(format!("{name}: {v:?} is defined by bogus inst {iid:?}")),
                },
            },
        }
    };

    // Dominance + type checks per placed instruction.
    for (bid, b) in f.iter_blocks() {
        if !cfg.is_reachable(bid) {
            continue;
        }
        for (pos, &iid) in b.insts.iter().enumerate() {
            let op = &f.inst(iid).op;

            // Dominance of operands (phis handled separately).
            if !op.is_phi() {
                let mut check = |o: &Operand| {
                    if let Operand::Value(v) = o {
                        match def_loc(*v) {
                            Err(e) => errs.push(e),
                            Ok(None) => {}
                            Ok(Some((db, dpos))) => {
                                let ok = if db == bid {
                                    dpos < pos
                                } else {
                                    dom.strictly_dominates(db, bid)
                                };
                                if !ok {
                                    errs.push(format!(
                                        "{name}: {v:?} used in {bid:?}#{pos} does not dominate use"
                                    ));
                                }
                            }
                        }
                    }
                };
                op.for_each_operand(&mut check);
            }

            // Type and shape checks.
            match op {
                Op::Bin { ty, a, b, .. } => {
                    expect_ty(f, name, a, *ty, &mut errs);
                    expect_ty(f, name, b, *ty, &mut errs);
                }
                Op::Cmp { ty, a, b, .. } => {
                    expect_ty(f, name, a, *ty, &mut errs);
                    expect_ty(f, name, b, *ty, &mut errs);
                }
                Op::Un { ty, a, .. } | Op::Move { ty, a } => {
                    expect_ty(f, name, a, *ty, &mut errs);
                }
                Op::Select { ty, c, t, f: fv } => {
                    expect_ty(f, name, c, Ty::I1, &mut errs);
                    expect_ty(f, name, t, *ty, &mut errs);
                    expect_ty(f, name, fv, *ty, &mut errs);
                }
                Op::Gep { base, .. } => {
                    expect_ty(f, name, base, Ty::Ptr, &mut errs);
                }
                Op::Load { addr, .. } => expect_ty(f, name, addr, Ty::Ptr, &mut errs),
                Op::Store { ty, val, addr, .. } => {
                    expect_ty(f, name, val, *ty, &mut errs);
                    expect_ty(f, name, addr, Ty::Ptr, &mut errs);
                }
                Op::Rmw { ty, addr, val, .. } => {
                    expect_ty(f, name, addr, Ty::Ptr, &mut errs);
                    expect_ty(f, name, val, *ty, &mut errs);
                }
                Op::CmpXchg { ty, addr, expected, new } => {
                    expect_ty(f, name, addr, Ty::Ptr, &mut errs);
                    expect_ty(f, name, expected, *ty, &mut errs);
                    expect_ty(f, name, new, *ty, &mut errs);
                }
                Op::CondBr { cond, .. } => expect_ty(f, name, cond, Ty::I1, &mut errs),
                Op::Call { callee: Callee::Direct(fid), args, ret_ty } => {
                    match sigs.get(fid.0 as usize) {
                        None => errs.push(format!("{name}: call to bogus function {fid:?}")),
                        Some(sig) => {
                            if sig.params.len() != args.len() {
                                errs.push(format!(
                                    "{name}: call to #{} with {} args, expected {}",
                                    fid.0,
                                    args.len(),
                                    sig.params.len()
                                ));
                            } else {
                                for (a, ty) in args.iter().zip(&sig.params) {
                                    expect_ty(f, name, a, *ty, &mut errs);
                                }
                            }
                            if sig.ret_ty != *ret_ty {
                                errs.push(format!(
                                    "{name}: call to #{} return-type mismatch",
                                    fid.0
                                ));
                            }
                        }
                    }
                }
                Op::Ret { val } => match (val, f.ret_ty) {
                    (Some(v), Some(ty)) => expect_ty(f, name, v, ty, &mut errs),
                    (None, None) => {}
                    _ => errs.push(format!("{name}: ret arity mismatch")),
                },
                Op::Phi { ty, incomings } => {
                    // Incoming blocks must be exactly the CFG predecessors.
                    let mut preds = cfg.preds[bid.0 as usize].clone();
                    preds.sort();
                    let mut inc: Vec<BlockId> = incomings.iter().map(|(_, b)| *b).collect();
                    inc.sort();
                    if preds != inc {
                        errs.push(format!(
                            "{name}: phi in {bid:?} incomings {inc:?} != preds {preds:?}"
                        ));
                    }
                    for (v, from) in incomings {
                        expect_ty(f, name, v, *ty, &mut errs);
                        if let Operand::Value(val) = v {
                            match def_loc(*val) {
                                Err(e) => errs.push(e),
                                Ok(None) => {}
                                Ok(Some((db, _))) => {
                                    if !dom.dominates(db, *from) {
                                        errs.push(format!(
                                            "{name}: phi incoming {val:?} does not dominate edge from {from:?}"
                                        ));
                                    }
                                }
                            }
                        }
                    }
                }
                Op::Vote { ty, a, b, c } | Op::ChkCorrect { ty, a, b, c } => {
                    expect_ty(f, name, a, *ty, &mut errs);
                    expect_ty(f, name, b, *ty, &mut errs);
                    expect_ty(f, name, c, *ty, &mut errs);
                }
                Op::Emit { ty, val } => expect_ty(f, name, val, *ty, &mut errs),
                Op::Lock { addr } | Op::Unlock { addr } => {
                    expect_ty(f, name, addr, Ty::Ptr, &mut errs)
                }
                Op::Alloc { size } => expect_ty(f, name, size, Ty::I64, &mut errs),
                _ => {}
            }

            // Global references must exist.
            op.for_each_operand(|o| {
                if let Operand::GlobalAddr(g) = o {
                    if g.0 as usize >= globals.len() {
                        errs.push(format!("{name}: reference to bogus global {g:?}"));
                    }
                }
            });
        }
    }

    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

fn expect_ty(f: &Function, name: &str, o: &Operand, want: Ty, errs: &mut Vec<String>) {
    let got = f.operand_ty(o);
    // Pointer/integer immediates interoperate: an `i64` immediate may feed
    // a `ptr` slot and vice versa (address arithmetic).
    let compatible =
        got == want || (got == Ty::Ptr && want == Ty::I64) || (got == Ty::I64 && want == Ty::Ptr);
    if !compatible {
        errs.push(format!("{name}: operand {o:?} has type {got}, expected {want}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, CmpOp};

    #[test]
    fn initialiser_longer_than_its_global_is_rejected() {
        let mut m = Module::new("m");
        m.add_global_init("a", vec![0xff; 100]);
        m.add_global("b", 64);
        assert_eq!(verify_module(&m), Ok(()));
        m.globals[0].size = 8;
        let errs = verify_module(&m).unwrap_err();
        assert_eq!(errs, ["global a: 100 initial bytes exceed its size 8"]);
    }

    #[test]
    fn block_listing_a_bogus_inst_is_diagnosed_not_a_panic() {
        let mut f = Function::new("f", &[], None);
        let (ret, _) = f.create_inst(Op::Ret { val: None });
        f.push_to_block(f.entry(), InstId(999));
        f.push_to_block(f.entry(), ret);
        let errs = verify_func(&f, &[], &[]).unwrap_err();
        assert_eq!(errs, ["f: block BlockId(0) references bogus inst InstId(999)"]);
        // As the block's last entry too.
        f.blocks[0].insts.reverse();
        let errs = verify_func(&f, &[], &[]).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("bogus inst InstId(999)")), "{errs:?}");
    }

    #[test]
    fn value_defined_past_the_inst_arena_is_diagnosed_not_a_panic() {
        use crate::function::ValueInfo;
        let mut f = Function::new("f", &[], Some(Ty::I64));
        let v = ValueId(f.values.len() as u32);
        f.values.push(ValueInfo { ty: Ty::I64, def: ValueDef::Inst(InstId(999)) });
        let (ret, _) = f.create_inst(Op::Ret { val: Some(v.into()) });
        f.push_to_block(f.entry(), ret);
        let errs = verify_func(&f, &[], &[]).unwrap_err();
        assert_eq!(errs, [format!("f: {v:?} is defined by bogus inst InstId(999)")]);
    }

    #[test]
    fn missing_terminator_is_rejected() {
        let mut f = Function::new("f", &[], None);
        let (add, _) = f.create_inst(Op::Bin {
            op: BinOp::Add,
            ty: Ty::I64,
            a: Operand::imm(1, Ty::I64),
            b: Operand::imm(2, Ty::I64),
        });
        f.push_to_block(f.entry(), add);
        let errs = verify_func(&f, &[], &[]).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("terminator")), "{errs:?}");
    }

    #[test]
    fn use_before_def_in_same_block_is_rejected() {
        let mut f = Function::new("f", &[], None);
        // Create the def but place the use first.
        let (def, v) = f.create_inst(Op::Bin {
            op: BinOp::Add,
            ty: Ty::I64,
            a: Operand::imm(1, Ty::I64),
            b: Operand::imm(2, Ty::I64),
        });
        let (useit, _) = f.create_inst(Op::Bin {
            op: BinOp::Add,
            ty: Ty::I64,
            a: v.unwrap().into(),
            b: Operand::imm(1, Ty::I64),
        });
        let (ret, _) = f.create_inst(Op::Ret { val: None });
        f.push_to_block(f.entry(), useit);
        f.push_to_block(f.entry(), def);
        f.push_to_block(f.entry(), ret);
        let errs = verify_func(&f, &[], &[]).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("dominate")), "{errs:?}");
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let mut fb = FunctionBuilder::new("f", &[Ty::I32], None);
        let p = fb.param(0);
        // i32 param fed into an i64 add.
        fb.add(Ty::I64, p, fb.iconst(Ty::I64, 1));
        fb.ret(None);
        let errs = verify_func(&fb.finish(), &[], &[]).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("type")), "{errs:?}");
    }

    #[test]
    fn condbr_requires_i1() {
        let mut fb = FunctionBuilder::new("f", &[Ty::I64], None);
        let p = fb.param(0);
        let b1 = fb.new_block();
        let b2 = fb.new_block();
        fb.condbr(p, b1, b2);
        fb.switch_to(b1);
        fb.ret(None);
        fb.switch_to(b2);
        fb.ret(None);
        let errs = verify_func(&fb.finish(), &[], &[]).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("expected i1")), "{errs:?}");
    }

    #[test]
    fn phi_incomings_must_match_preds() {
        let mut fb = FunctionBuilder::new("f", &[Ty::I64], Some(Ty::I64));
        let n = fb.param(0);
        let join = fb.new_block();
        let cmp = fb.cmp(CmpOp::SGt, Ty::I64, n, fb.iconst(Ty::I64, 0));
        let other = fb.new_block();
        fb.condbr(cmp, join, other);
        fb.switch_to(other);
        fb.br(join);
        fb.switch_to(join);
        let phi = fb.phi(Ty::I64);
        // Only one incoming registered although join has two preds.
        fb.phi_incoming(phi, n, fb.entry());
        fb.ret(Some(phi.into()));
        let errs = verify_func(&fb.finish(), &[], &[]).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("incomings")), "{errs:?}");
    }

    #[test]
    fn call_arity_is_checked() {
        let mut fb = FunctionBuilder::new("caller", &[], None);
        fb.call(crate::module::FuncId(0), &[], Some(Ty::I64));
        fb.ret(None);
        let sig = FnSig { params: vec![Ty::I64], ret_ty: Some(Ty::I64) };
        let errs = verify_func(&fb.finish(), &[sig], &[]).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("args")), "{errs:?}");
    }

    #[test]
    fn valid_module_passes() {
        let mut m = Module::new("m");
        let mut fb = FunctionBuilder::new("f", &[Ty::I64], Some(Ty::I64));
        let p = fb.param(0);
        fb.ret(Some(p.into()));
        m.push_func(fb.finish());
        verify_module(&m).expect("valid");
    }

    #[test]
    fn bogus_global_reference_is_rejected() {
        let mut fb = FunctionBuilder::new("f", &[], None);
        fb.load(Ty::I64, Operand::GlobalAddr(crate::module::GlobalId(3)));
        fb.ret(None);
        let errs = verify_func(&fb.finish(), &[], &[]).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("global")), "{errs:?}");
    }

    #[test]
    fn ptr_and_i64_interoperate() {
        let mut fb = FunctionBuilder::new("f", &[Ty::Ptr], Some(Ty::I64));
        let p = fb.param(0);
        // Pointer used as i64 in arithmetic: allowed.
        let x = fb.add(Ty::I64, p, fb.iconst(Ty::I64, 8));
        fb.ret(Some(x.into()));
        verify_func(&fb.finish(), &[], &[]).expect("ptr/i64 interop");
    }
}
