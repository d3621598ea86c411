//! IR verifier: SSA dominance, type agreement, and structural invariants.
//!
//! Every HAFT pass output is expected to re-verify; the test suites run the
//! verifier after each transformation, which is how the reproduction guards
//! against the classes of pass bugs the paper's authors debugged at the
//! LLVM CodeGen level.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::function::{BlockId, Function, ValueDef};
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

/// `at` entry of an instruction no block lists.
const UNPLACED: (BlockId, u32) = (BlockId(u32::MAX), u32::MAX);

/// Verifies one function against the module's signatures and globals.
///
/// Two walks. The first checks each block's shape and records where each
/// instruction sits; the second visits every reachable instruction once,
/// on the function's flat CFG and dominator tree, and each of its
/// operands once: its global, its type, and its definition's dominance
/// over the use.
pub fn verify_func(f: &Function, sigs: &[FnSig], globals: &[Global]) -> Result<(), Vec<String>> {
    let mut errs = Vec::new();
    let name = &f.name;

    // Walk 1: one trailing terminator, phis first, branches to real
    // blocks; and each placed instruction's (block, index). A bogus inst
    // id counts for its position, not for its (absent) op.
    let mut at = vec![UNPLACED; f.insts.len()];
    for (bid, b) in f.iter_blocks() {
        if b.insts.is_empty() {
            errs.push(format!("{name}: block {bid:?} is empty"));
        }
        let mut seen_non_phi = false;
        for (pos, &iid) in b.insts.iter().enumerate() {
            let Some(inst) = f.insts.get(iid.0 as usize) else {
                errs.push(format!("{name}: block {bid:?} references bogus inst {iid:?}"));
                continue;
            };
            if at[iid.0 as usize] != UNPLACED {
                errs.push(format!("{name}: inst {iid:?} placed more than once"));
            }
            at[iid.0 as usize] = (bid, pos as u32);
            let (op, last) = (&inst.op, pos + 1 == b.insts.len());
            if op.is_terminator() {
                if !last {
                    errs.push(format!("{name}: terminator in the middle of block {bid:?}"));
                }
                for succ in op.successors().into_iter().flatten() {
                    if succ.0 as usize >= f.blocks.len() {
                        errs.push(format!("{name}: branch to bogus block {succ:?}"));
                    }
                }
            } else if last {
                errs.push(format!("{name}: block {bid:?} does not end in a terminator"));
            }
            if !op.is_phi() {
                seen_non_phi = true;
            } else if seen_non_phi {
                errs.push(format!("{name}: phi after non-phi in block {bid:?}"));
            }
        }
    }
    if !errs.is_empty() {
        // CFG-dependent checks below assume structural sanity.
        return Err(errs);
    }

    // Walk 2, over the reachable blocks.
    let cfg = Cfg::compute(f);
    let dom = DomTree::compute(f, &cfg);
    // Checks one operand's global and its type against `want`, where its
    // slot has one, and returns its value and where that is defined:
    // `None` for a parameter or a non-value, or once why it names no
    // placed instruction is recorded (a bogus value has no type to check).
    let operand = |o: &Operand, want: Option<Ty>, errs: &mut Vec<String>| {
        let (got, def) = match *o {
            Operand::Value(v) => {
                let Some(info) = f.values.get(v.0 as usize) else {
                    errs.push(format!("{name}: use of bogus value {v:?}"));
                    return None;
                };
                let def = match info.def {
                    ValueDef::Param(_) => None,
                    ValueDef::Inst(iid) => match at.get(iid.0 as usize) {
                        Some(&UNPLACED) => {
                            errs.push(format!("{name}: use of unplaced def {v:?}"));
                            None
                        }
                        Some(&(db, dpos)) => Some((v, db, dpos)),
                        None => {
                            errs.push(format!("{name}: {v:?} is defined by bogus inst {iid:?}"));
                            None
                        }
                    },
                };
                (info.ty, def)
            }
            Operand::GlobalAddr(g) => {
                if g.0 as usize >= globals.len() {
                    errs.push(format!("{name}: reference to bogus global {g:?}"));
                }
                (Ty::Ptr, None)
            }
            _ => (f.operand_ty(o), None),
        };
        // Pointer/integer immediates interoperate: an `i64` immediate may
        // feed a `ptr` slot and vice versa (address arithmetic).
        if let Some(want) = want
            .filter(|&w| w != got && !matches!((got, w), (Ty::Ptr, Ty::I64) | (Ty::I64, Ty::Ptr)))
        {
            errs.push(format!("{name}: operand {o:?} has type {got}, expected {want}"));
        }
        def
    };
    // `seen[b] == phis` marks a block already matched to an incoming of
    // the `phis`-th phi.
    let (mut seen, mut phis) = (vec![0u32; f.blocks.len()], 0);
    for (bid, b) in f.iter_blocks().filter(|&(bid, _)| cfg.is_reachable(bid)) {
        for (pos, &iid) in b.insts.iter().enumerate() {
            let Op::Phi { ty, incomings } = &f.inst(iid).op else {
                let mut used = |o: &Operand, want: Option<Ty>, errs: &mut Vec<String>| {
                    let Some((v, db, dpos)) = operand(o, want, errs) else { return };
                    let ok =
                        if db == bid { dpos < pos as u32 } else { dom.strictly_dominates(db, bid) };
                    if !ok {
                        errs.push(format!(
                            "{name}: {v:?} used in {bid:?}#{pos} does not dominate use"
                        ));
                    }
                };
                visit_operands(f, &f.inst(iid).op, sigs, &mut used, &mut errs);
                continue;
            };
            // Incoming blocks must be exactly the CFG predecessors: as
            // many, each a predecessor (those are distinct), none twice.
            let preds = cfg.preds(bid);
            phis += 1;
            let same = incomings.len() == preds.len()
                && incomings.iter().all(|&(_, from)| {
                    preds.binary_search(&from).is_ok()
                        && std::mem::replace(&mut seen[from.0 as usize], phis) != phis
                });
            if !same {
                let mut inc: Vec<BlockId> = incomings.iter().map(|(_, b)| *b).collect();
                inc.sort();
                errs.push(format!("{name}: phi in {bid:?} incomings {inc:?} != preds {preds:?}"));
            }
            for (o, from) in incomings {
                // An incoming from a bogus block is named by the mismatch.
                let Some((v, db, _)) = operand(o, Some(*ty), &mut errs) else { continue };
                if (from.0 as usize) < f.blocks.len() && !dom.dominates(db, *from) {
                    errs.push(format!(
                        "{name}: phi incoming {v:?} does not dominate edge from {from:?}"
                    ));
                }
            }
        }
    }

    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

/// Hands each operand of a non-phi `op` to `operand`, with the type its
/// slot wants (`None`: any), and checks the call and return shapes. The
/// match lists every opcode, so a new one cannot skip the check.
fn visit_operands(
    f: &Function,
    op: &Op,
    sigs: &[FnSig],
    operand: &mut impl FnMut(&Operand, Option<Ty>, &mut Vec<String>),
    errs: &mut Vec<String>,
) {
    let name = &f.name;
    let mut typed = |o: &Operand, ty: Ty, errs: &mut Vec<String>| operand(o, Some(ty), errs);
    match op {
        Op::Bin { ty, a, b, .. } | Op::Cmp { ty, a, b, .. } => {
            typed(a, *ty, errs);
            typed(b, *ty, errs);
        }
        Op::Un { ty, a, .. } | Op::Move { ty, a } => typed(a, *ty, errs),
        Op::Select { ty, c, t, f: fv } => {
            typed(c, Ty::I1, errs);
            typed(t, *ty, errs);
            typed(fv, *ty, errs);
        }
        Op::Load { addr, .. } | Op::Lock { addr } | Op::Unlock { addr } => {
            typed(addr, Ty::Ptr, errs)
        }
        Op::Store { ty, val, addr, .. } => {
            typed(val, *ty, errs);
            typed(addr, Ty::Ptr, errs);
        }
        Op::Rmw { ty, addr, val, .. } => {
            typed(addr, Ty::Ptr, errs);
            typed(val, *ty, errs);
        }
        Op::CmpXchg { ty, addr, expected, new } => {
            typed(addr, Ty::Ptr, errs);
            typed(expected, *ty, errs);
            typed(new, *ty, errs);
        }
        Op::Vote { ty, a, b, c } | Op::ChkCorrect { ty, a, b, c } => {
            typed(a, *ty, errs);
            typed(b, *ty, errs);
            typed(c, *ty, errs);
        }
        Op::Emit { ty, val } => typed(val, *ty, errs),
        Op::Alloc { size } => typed(size, Ty::I64, errs),
        Op::CondBr { cond, .. } => typed(cond, Ty::I1, errs),
        Op::Cast { a, .. } => operand(a, None, errs),
        Op::Gep { base, index, .. } => {
            operand(base, Some(Ty::Ptr), errs);
            operand(index, None, errs);
        }
        Op::Call { callee, args, ret_ty } => {
            let params = match callee {
                Callee::Indirect(v) => {
                    operand(v, None, errs);
                    None
                }
                Callee::Direct(fid) => match sigs.get(fid.0 as usize) {
                    None => {
                        errs.push(format!("{name}: call to bogus function {fid:?}"));
                        None
                    }
                    Some(sig) => {
                        let arity = sig.params.len() == args.len();
                        if !arity {
                            errs.push(format!(
                                "{name}: call to #{} with {} args, expected {}",
                                fid.0,
                                args.len(),
                                sig.params.len()
                            ));
                        }
                        if sig.ret_ty != *ret_ty {
                            errs.push(format!("{name}: call to #{} return-type mismatch", fid.0));
                        }
                        arity.then_some(&sig.params)
                    }
                },
            };
            for (i, a) in args.iter().enumerate() {
                operand(a, params.map(|p| p[i]), errs);
            }
        }
        Op::Ret { val } => {
            let want = match (val, f.ret_ty) {
                (Some(_), Some(ty)) => Some(ty),
                (None, None) => None,
                _ => {
                    errs.push(format!("{name}: ret arity mismatch"));
                    None
                }
            };
            if let Some(v) = val {
                operand(v, want, errs);
            }
        }
        Op::Phi { .. }
        | Op::Br { .. }
        | Op::TxBegin
        | Op::TxEnd
        | Op::TxCondSplit
        | Op::TxCounterInc { .. }
        | Op::TxAbort { .. }
        | Op::ThreadId
        | Op::NumThreads
        | Op::Nop => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::{InstId, ValueId};
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
    fn operand_past_the_value_table_is_diagnosed_not_a_panic() {
        let mut fb = FunctionBuilder::new("f", &[Ty::I64], Some(Ty::I64));
        let p = fb.param(0);
        let x = fb.add(Ty::I64, ValueId(999), p);
        let join = fb.new_block();
        fb.br(join);
        fb.switch_to(join);
        let phi = fb.phi(Ty::I64);
        fb.phi_incoming(phi, ValueId(998), fb.entry());
        fb.ret(Some(x.into()));
        let errs = verify_func(&fb.finish(), &[], &[]).unwrap_err();
        assert_eq!(
            errs,
            ["f: use of bogus value ValueId(999)", "f: use of bogus value ValueId(998)"]
        );
    }

    #[test]
    fn phi_incoming_from_a_block_past_the_function_is_diagnosed_not_a_panic() {
        let mut fb = FunctionBuilder::new("f", &[Ty::I64], Some(Ty::I64));
        let p = fb.param(0);
        let x = fb.add(Ty::I64, p, fb.iconst(Ty::I64, 1));
        let join = fb.new_block();
        fb.br(join);
        fb.switch_to(join);
        let phi = fb.phi(Ty::I64);
        fb.phi_incoming(phi, x, BlockId(99));
        fb.ret(Some(phi.into()));
        let mut f = fb.finish();
        let want = ["f: phi in BlockId(1) incomings [BlockId(99)] != preds [BlockId(0)]"];
        assert_eq!(verify_func(&f, &[], &[]).unwrap_err(), want);
        // The same phi with a parameter's value: the same diagnostic.
        let Op::Phi { incomings, .. } = &mut f.insts[f.blocks[1].insts[0].0 as usize].op else {
            panic!("join starts with the phi")
        };
        incomings[0].0 = p.into();
        assert_eq!(verify_func(&f, &[], &[]).unwrap_err(), want);
    }

    #[test]
    fn duplicated_phi_incoming_is_rejected() {
        let mut fb = FunctionBuilder::new("f", &[Ty::I64], Some(Ty::I64));
        let n = fb.param(0);
        let cmp = fb.cmp(CmpOp::SGt, Ty::I64, n, fb.iconst(Ty::I64, 0));
        let (other, join) = (fb.new_block(), fb.new_block());
        fb.condbr(cmp, join, other);
        fb.switch_to(other);
        fb.br(join);
        fb.switch_to(join);
        let phi = fb.phi(Ty::I64);
        // As many incomings as preds, but entry twice and `other` never.
        fb.phi_incoming(phi, n, fb.entry());
        fb.phi_incoming(phi, n, fb.entry());
        fb.ret(Some(phi.into()));
        let errs = verify_func(&fb.finish(), &[], &[]).unwrap_err();
        let want = "f: phi in BlockId(2) incomings [BlockId(0), BlockId(0)] != preds [BlockId(0), BlockId(1)]";
        assert_eq!(errs, [want]);
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
