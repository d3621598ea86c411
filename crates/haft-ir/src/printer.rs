//! Textual printing of modules and functions.
//!
//! The format round-trips through [`crate::parser`]; it is used by golden
//! tests and for inspecting pass output.

use std::fmt::Write as _;

use crate::function::{BlockId, Function};
use crate::inst::{AbortCode, BinOp, Callee, CastKind, CmpOp, Inst, Op, Operand, RmwOp, UnOp};
use crate::module::{GlobalInit, Module};

/// Renders a whole module.
pub fn print_module(m: &Module) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "module \"{}\"", m.name);
    for g in &m.globals {
        match &g.init {
            GlobalInit::Zero => {
                let _ = writeln!(s, "global \"{}\" {} zero", g.name, g.size);
            }
            GlobalInit::Bytes(b) => {
                // Pushed digit by digit: initialisers run to hundreds of
                // KiB, and a `format!` per byte dominated printing them.
                const HEX: &[u8; 16] = b"0123456789abcdef";
                let _ = write!(s, "global \"{}\" {} bytes ", g.name, g.size);
                for x in b.iter() {
                    s.push(char::from(HEX[usize::from(x >> 4)]));
                    s.push(char::from(HEX[usize::from(x & 15)]));
                }
                s.push('\n');
            }
        }
    }
    for f in &m.funcs {
        s.push('\n');
        s.push_str(&print_func(f));
    }
    s
}

/// Renders a single function.
pub fn print_func(f: &Function) -> String {
    let mut s = String::new();
    let params: Vec<String> = f.params.iter().map(|t| t.to_string()).collect();
    let ret = match f.ret_ty {
        Some(t) => format!(" -> {t}"),
        None => String::new(),
    };
    let mut attrs = String::new();
    if f.attrs.external {
        attrs.push_str(" external");
    }
    if !f.attrs.local {
        attrs.push_str(" nonlocal");
    }
    let _ = writeln!(s, "func \"{}\" ({}){}{} {{", f.name, params.join(", "), ret, attrs);
    for (bid, b) in f.iter_blocks() {
        let _ = writeln!(s, "b{}:", bid.0);
        for &iid in &b.insts {
            let inst = f.inst(iid);
            let _ = writeln!(s, "  {}", print_inst(f, iid.0 as usize, inst));
        }
    }
    s.push_str("}\n");
    s
}

fn operand(o: &Operand) -> String {
    match o {
        Operand::Value(v) => format!("%{}", v.0),
        Operand::Imm(v, ty) => format!("{v}:{ty}"),
        Operand::F64Bits(b) => format!("f64#{b:016x}"),
        Operand::GlobalAddr(g) => format!("@g{}", g.0),
        Operand::FuncAddr(f) => format!("@f{}", f.0),
    }
}

fn block(b: BlockId) -> String {
    format!("b{}", b.0)
}

/// Mnemonic tables shared with the parser.
pub(crate) fn binop_name(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Mul => "mul",
        BinOp::SDiv => "sdiv",
        BinOp::UDiv => "udiv",
        BinOp::SRem => "srem",
        BinOp::URem => "urem",
        BinOp::And => "and",
        BinOp::Or => "or",
        BinOp::Xor => "xor",
        BinOp::Shl => "shl",
        BinOp::LShr => "lshr",
        BinOp::AShr => "ashr",
        BinOp::FAdd => "fadd",
        BinOp::FSub => "fsub",
        BinOp::FMul => "fmul",
        BinOp::FDiv => "fdiv",
    }
}

pub(crate) fn unop_name(op: UnOp) -> &'static str {
    match op {
        UnOp::Neg => "neg",
        UnOp::Not => "not",
        UnOp::FNeg => "fneg",
        UnOp::FSqrt => "fsqrt",
        UnOp::FExp => "fexp",
        UnOp::FLn => "fln",
        UnOp::FAbs => "fabs",
    }
}

pub(crate) fn cmp_name(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "eq",
        CmpOp::Ne => "ne",
        CmpOp::SLt => "slt",
        CmpOp::SLe => "sle",
        CmpOp::SGt => "sgt",
        CmpOp::SGe => "sge",
        CmpOp::ULt => "ult",
        CmpOp::ULe => "ule",
        CmpOp::UGt => "ugt",
        CmpOp::UGe => "uge",
        CmpOp::FLt => "flt",
        CmpOp::FLe => "fle",
        CmpOp::FGt => "fgt",
        CmpOp::FGe => "fge",
        CmpOp::FEq => "feq",
        CmpOp::FNe => "fne",
    }
}

pub(crate) fn cast_name(k: CastKind) -> &'static str {
    match k {
        CastKind::ZExt => "zext",
        CastKind::SExt => "sext",
        CastKind::Trunc => "trunc",
        CastKind::SiToFp => "sitofp",
        CastKind::FpToSi => "fptosi",
        CastKind::Bitcast => "bitcast",
    }
}

fn print_inst(f: &Function, idx: usize, inst: &Inst) -> String {
    let res = match f.results[idx] {
        Some(v) => format!("%{} = ", v.0),
        None => String::new(),
    };
    let body = match &inst.op {
        Op::Bin { op, ty, a, b } => {
            format!("{} {} {}, {}", binop_name(*op), ty, operand(a), operand(b))
        }
        Op::Un { op, ty, a } => format!("{} {} {}", unop_name(*op), ty, operand(a)),
        Op::Cmp { op, ty, a, b } => {
            format!("cmp {} {} {}, {}", cmp_name(*op), ty, operand(a), operand(b))
        }
        Op::Move { ty, a } => format!("move {} {}", ty, operand(a)),
        Op::Cast { kind, to, a } => format!("cast {} {} {}", cast_name(*kind), to, operand(a)),
        Op::Select { ty, c, t, f: fv } => {
            format!("select {} {}, {}, {}", ty, operand(c), operand(t), operand(fv))
        }
        Op::Gep { base, index, scale, offset } => {
            format!("gep {}, {}, {}, {}", operand(base), operand(index), scale, offset)
        }
        Op::Phi { ty, incomings } => {
            let incs: Vec<String> =
                incomings.iter().map(|(v, b)| format!("[{}, {}]", operand(v), block(*b))).collect();
            format!("phi {} {}", ty, incs.join(", "))
        }
        Op::Load { ty, addr, atomic } => {
            let m = if *atomic { "load_atomic" } else { "load" };
            format!("{m} {} {}", ty, operand(addr))
        }
        Op::Store { ty, val, addr, atomic } => {
            let m = if *atomic { "store_atomic" } else { "store" };
            format!("{m} {} {}, {}", ty, operand(val), operand(addr))
        }
        Op::Rmw { op, ty, addr, val } => {
            let m = match op {
                RmwOp::Add => "add",
                RmwOp::Xchg => "xchg",
            };
            format!("rmw {m} {} {}, {}", ty, operand(addr), operand(val))
        }
        Op::CmpXchg { ty, addr, expected, new } => {
            format!("cmpxchg {} {}, {}, {}", ty, operand(addr), operand(expected), operand(new))
        }
        Op::Alloc { size } => format!("alloc {}", operand(size)),
        Op::Br { dest } => format!("br {}", block(*dest)),
        Op::CondBr { cond, t, f: fb } => {
            format!("condbr {}, {}, {}", operand(cond), block(*t), block(*fb))
        }
        Op::Call { callee, args, ret_ty } => {
            let argl: Vec<String> = args.iter().map(operand).collect();
            let rt = match ret_ty {
                Some(t) => format!(" -> {t}"),
                None => String::new(),
            };
            match callee {
                Callee::Direct(fid) => format!("call @f{}({}){}", fid.0, argl.join(", "), rt),
                Callee::Indirect(v) => {
                    format!("call_indirect {}({}){}", operand(v), argl.join(", "), rt)
                }
            }
        }
        Op::Ret { val } => match val {
            Some(v) => format!("ret {}", operand(v)),
            None => "ret".to_string(),
        },
        Op::TxBegin => "tx_begin".to_string(),
        Op::TxEnd => "tx_end".to_string(),
        Op::TxCondSplit => "tx_cond_split".to_string(),
        Op::TxCounterInc { amount } => format!("tx_counter_inc {amount}"),
        Op::TxAbort { code } => match code {
            AbortCode::IlrDetected => "tx_abort ilr".to_string(),
            AbortCode::Explicit => "tx_abort explicit".to_string(),
        },
        Op::Vote { ty, a, b, c } => {
            format!("vote {} {}, {}, {}", ty, operand(a), operand(b), operand(c))
        }
        Op::ChkCorrect { ty, a, b, c } => {
            format!("chk_correct {} {}, {}, {}", ty, operand(a), operand(b), operand(c))
        }
        Op::Lock { addr } => format!("lock {}", operand(addr)),
        Op::Unlock { addr } => format!("unlock {}", operand(addr)),
        Op::Emit { ty, val } => format!("emit {} {}", ty, operand(val)),
        Op::ThreadId => "thread_id".to_string(),
        Op::NumThreads => "num_threads".to_string(),
        Op::Nop => "nop".to_string(),
    };
    let mut meta = String::new();
    if inst.meta.shadow {
        meta.push_str(" !shadow");
    }
    if inst.meta.fprop_check {
        meta.push_str(" !fprop");
    }
    if inst.meta.ilr_check {
        meta.push_str(" !check");
    }
    format!("{res}{body}{meta}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::CmpOp;
    use crate::types::Ty;

    #[test]
    fn prints_simple_function() {
        let mut fb = FunctionBuilder::new("f", &[Ty::I64], Some(Ty::I64));
        let p = fb.param(0);
        let v = fb.add(Ty::I64, p, fb.iconst(Ty::I64, 1));
        fb.ret(Some(v.into()));
        let text = print_func(&fb.finish());
        assert!(text.contains("func \"f\" (i64) -> i64 {"), "{text}");
        assert!(text.contains("%1 = add i64 %0, 1:i64"), "{text}");
        assert!(text.contains("ret %1"), "{text}");
    }

    #[test]
    fn prints_phi_and_branches() {
        let mut fb = FunctionBuilder::new("l", &[Ty::I64], None);
        let n = fb.param(0);
        fb.counted_loop(fb.iconst(Ty::I64, 0), n, |_, _| {});
        fb.ret(None);
        let text = print_func(&fb.finish());
        assert!(text.contains("phi i64 [0:i64, b0]"), "{text}");
        assert!(text.contains("condbr"), "{text}");
        assert!(text.contains("cmp slt i64"), "{text}");
    }

    #[test]
    fn prints_module_with_globals() {
        let mut m = Module::new("test");
        m.add_global("zeros", 64);
        m.add_global_init("tab", vec![0xde, 0xad]);
        let mut fb = FunctionBuilder::new("main", &[], None);
        fb.ret(None);
        m.push_func(fb.finish());
        let text = print_module(&m);
        assert!(text.contains("module \"test\""), "{text}");
        assert!(text.contains("global \"zeros\" 64 zero"), "{text}");
        assert!(text.contains("global \"tab\" 2 bytes dead"), "{text}");
    }

    #[test]
    fn prints_f64_as_bits() {
        let mut fb = FunctionBuilder::new("f", &[], Some(Ty::F64));
        let v = fb.bin(crate::inst::BinOp::FAdd, Ty::F64, fb.fconst(1.5), fb.fconst(2.5));
        fb.ret(Some(v.into()));
        let text = print_func(&fb.finish());
        assert!(text.contains(&format!("f64#{:016x}", 1.5f64.to_bits())), "{text}");
    }

    #[test]
    fn prints_meta_flags() {
        let mut f = Function::new("f", &[], None);
        let (id, _) = f.create_inst_meta(
            Op::Cmp {
                op: CmpOp::Ne,
                ty: Ty::I64,
                a: Operand::imm(0, Ty::I64),
                b: Operand::imm(0, Ty::I64),
            },
            crate::inst::InstMeta { shadow: false, fprop_check: true, ilr_check: true },
        );
        f.push_to_block(f.entry(), id);
        let (r, _) = f.create_inst(Op::Ret { val: None });
        f.push_to_block(f.entry(), r);
        let text = print_func(&f);
        assert!(text.contains("!fprop"), "{text}");
        assert!(text.contains("!check"), "{text}");
    }
}
