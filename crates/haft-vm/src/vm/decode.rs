//! Pre-decoder: lowers IR functions into the fused engine's dense form.
//!
//! The interpreter pays per executed instruction for work that is
//! invariant across executions: chasing `BlockId → Vec<InstId> → Inst`
//! indirections, cloning `Op` payloads (calls carry operand `Vec`s),
//! hashing branch-predictor and store-forwarding keys, re-scanning a
//! target block for leading phis on every taken edge, and re-deriving
//! opcode latencies. `Decoded` hoists all of it to a one-time pass:
//! every function becomes a flat `Vec<DOp>` addressed by a single `pc`,
//! operands are pre-resolved ([`Src`] is a register slot or a finished
//! constant — immediates pre-masked, global/function addresses baked
//! in), jump targets are absolute pcs with their phi moves attached, and
//! each static conditional branch owns a dense predictor index.
//!
//! The lowering is 1:1 — one `DOp` per placed instruction, blocks laid
//! out in order — so the interpreter's `(block, idx)` pair names the flat
//! pc `DFunc::block_start[block] + idx` (how it finds the `DOp` it shows
//! the profiler and forensics hooks) and the pre-advance/rewind protocol
//! (`idx += 1` then `idx -= 1` on a blocked lock) carries over unchanged.
//! Phi slots decode to [`DOp::TrapMalformed`]: reaching one through
//! straight-line execution is exactly the interpreter's malformed-IR
//! trap.

use haft_ir::function::{Block, BlockId, Function};
use haft_ir::inst::{AbortCode, BinOp, Callee, CastKind, CmpOp, Op, Operand, RmwOp, UnOp};
use haft_ir::module::Module;
use haft_ir::types::Ty;

use super::profile::OpClass;
use super::{fuse, FUNC_BASE};
use crate::cost;

/// A pre-resolved operand: a register slot in the current frame, or a
/// constant whose value is fully known at decode time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Src {
    /// `frame.regs[n]` / `frame.ready[n]`.
    Slot(u32),
    /// Immediates (pre-masked), f64 bits, global bases, function addresses.
    Const(u64),
}

/// A resolved CFG edge: the absolute target pc (past the target block's
/// leading phis) plus the phi moves this particular edge performs, stored
/// as a range into [`Decoded::moves`] in block order (parallel-phi
/// semantics: the executor reads all sources before writing).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Edge {
    pub target: u32,
    pub moves_at: u32,
    pub moves_n: u32,
}

/// One phi assignment performed when taking an edge.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PhiMove {
    pub dst: u32,
    pub src: Src,
    pub ty: Ty,
}

/// Operands of a decode-resolved two-input ALU opcode: sources,
/// destination, latency. Operator and type are the opcode itself.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Alu2 {
    pub a: Src,
    pub b: Src,
    pub dst: u32,
    pub lat: u64,
}

/// A decoded instruction. Mirrors [`Op`] arm for arm, with every
/// decode-time-computable quantity already computed.
///
/// The `…64` opcodes are `Bin`/`Cmp` with operator and type resolved at
/// decode, on 64-bit integers (`I64` or `Ptr`), where operand masking is
/// the identity, so the engine spends one dispatch on them instead of
/// dispatch, float test, operator jump, mask lookups and a `Result`. The
/// rule for `Bin`: every operator that is neither float nor trapping
/// ([`BinOp::is_float`], [`BinOp::can_trap`]) has its opcode, and `Bin`
/// keeps division, remainder, floats and narrow types. Of `Cmp`, the
/// three predicates that dominate the dynamic census have theirs. Only
/// the engine's executor matches on them; everything that *observes* ops
/// (profiler classes, taint transfer, the fuse census) sees
/// [`DOp::generic`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum DOp {
    Add64(Alu2),
    Sub64(Alu2),
    Mul64(Alu2),
    And64(Alu2),
    Or64(Alu2),
    Xor64(Alu2),
    Shl64(Alu2),
    LShr64(Alu2),
    AShr64(Alu2),
    CmpEq64(Alu2),
    CmpNe64(Alu2),
    CmpSlt64(Alu2),
    Bin {
        op: BinOp,
        ty: Ty,
        a: Src,
        b: Src,
        dst: u32,
        lat: u64,
    },
    Un {
        op: UnOp,
        ty: Ty,
        a: Src,
        dst: u32,
        lat: u64,
    },
    Cmp {
        op: CmpOp,
        ty: Ty,
        a: Src,
        b: Src,
        dst: u32,
    },
    MoveV {
        ty: Ty,
        a: Src,
        dst: u32,
    },
    Cast {
        kind: CastKind,
        from: Ty,
        to: Ty,
        a: Src,
        dst: u32,
    },
    Select {
        ty: Ty,
        c: Src,
        t: Src,
        f: Src,
        dst: u32,
    },
    Gep {
        base: Src,
        index: Src,
        scale: i64,
        offset: u64,
        dst: u32,
    },
    Load {
        ty: Ty,
        addr: Src,
        atomic: bool,
        dst: u32,
    },
    Store {
        ty: Ty,
        val: Src,
        addr: Src,
        atomic: bool,
    },
    Rmw {
        op: RmwOp,
        ty: Ty,
        addr: Src,
        val: Src,
        dst: u32,
    },
    CmpXchg {
        ty: Ty,
        addr: Src,
        expected: Src,
        new: Src,
        dst: u32,
    },
    Alloc {
        size: Src,
        dst: u32,
    },
    Br {
        edge: Edge,
    },
    CondBr {
        cond: Src,
        t: Edge,
        f: Edge,
        bp: u32,
    },
    CallDirect {
        target: u32,
        args_at: u32,
        args_n: u32,
        dst: Option<u32>,
        arity_ok: bool,
    },
    CallInd {
        callee: Src,
        args_at: u32,
        args_n: u32,
        dst: Option<u32>,
    },
    Ret {
        val: Option<Src>,
    },
    TxBegin,
    TxEnd,
    TxCondSplit,
    TxCounterInc {
        amount: u64,
    },
    TxAbortIlr,
    TxAbortExplicit,
    Vote {
        ty: Ty,
        a: Src,
        b: Src,
        c: Src,
        dst: u32,
    },
    ChkCorrect {
        ty: Ty,
        a: Src,
        b: Src,
        c: Src,
        dst: u32,
    },
    Lock {
        addr: Src,
    },
    Unlock {
        addr: Src,
    },
    Emit {
        val: Src,
    },
    ThreadIdD {
        dst: u32,
    },
    NumThreadsD {
        dst: u32,
    },
    Nop,
    /// Phi slot: executable only through malformed control flow.
    TrapMalformed,
}

/// Pattern matching every decode-resolved opcode: the arm an exhaustive
/// match over a [`DOp::generic`] form declares unreachable.
macro_rules! resolved {
    () => {
        DOp::Add64(_)
            | DOp::Sub64(_)
            | DOp::Mul64(_)
            | DOp::And64(_)
            | DOp::Or64(_)
            | DOp::Xor64(_)
            | DOp::Shl64(_)
            | DOp::LShr64(_)
            | DOp::AShr64(_)
            | DOp::CmpEq64(_)
            | DOp::CmpNe64(_)
            | DOp::CmpSlt64(_)
    };
}
pub(crate) use resolved;

impl DOp {
    /// A decoded `Bin`, by the rule on [`DOp`]: on a 64-bit integer, an
    /// operator that is neither float nor trapping has its own opcode.
    fn bin(op: BinOp, ty: Ty, x: Alu2) -> DOp {
        let Alu2 { a, b, dst, lat } = x;
        if !matches!(ty, Ty::I64 | Ty::Ptr) || op.is_float() || op.can_trap() {
            return DOp::Bin { op, ty, a, b, dst, lat };
        }
        match op {
            BinOp::Add => DOp::Add64(x),
            BinOp::Sub => DOp::Sub64(x),
            BinOp::Mul => DOp::Mul64(x),
            BinOp::And => DOp::And64(x),
            BinOp::Or => DOp::Or64(x),
            BinOp::Xor => DOp::Xor64(x),
            BinOp::Shl => DOp::Shl64(x),
            BinOp::LShr => DOp::LShr64(x),
            BinOp::AShr => DOp::AShr64(x),
            _ => unreachable!("{op:?} is float or traps"),
        }
    }

    /// The `Bin`/`Cmp` a decode-resolved opcode stands for (any other op
    /// is returned as it is). The type reads `I64` where the IR may have
    /// said `Ptr`: the same 64-bit word, and no observer reads it.
    pub(crate) fn generic(self) -> DOp {
        let bin = |op, Alu2 { a, b, dst, lat }| DOp::Bin { op, ty: Ty::I64, a, b, dst, lat };
        let cmp = |op, Alu2 { a, b, dst, .. }| DOp::Cmp { op, ty: Ty::I64, a, b, dst };
        match self {
            DOp::Add64(x) => bin(BinOp::Add, x),
            DOp::Sub64(x) => bin(BinOp::Sub, x),
            DOp::Mul64(x) => bin(BinOp::Mul, x),
            DOp::And64(x) => bin(BinOp::And, x),
            DOp::Or64(x) => bin(BinOp::Or, x),
            DOp::Xor64(x) => bin(BinOp::Xor, x),
            DOp::Shl64(x) => bin(BinOp::Shl, x),
            DOp::LShr64(x) => bin(BinOp::LShr, x),
            DOp::AShr64(x) => bin(BinOp::AShr, x),
            DOp::CmpEq64(x) => cmp(CmpOp::Eq, x),
            DOp::CmpNe64(x) => cmp(CmpOp::Ne, x),
            DOp::CmpSlt64(x) => cmp(CmpOp::SLt, x),
            other => other,
        }
    }
}

/// One decoded function: flat code and the frame-layout facts the
/// executor needs without touching the IR.
#[derive(Debug)]
pub(crate) struct DFunc {
    pub code: Vec<DOp>,
    /// `class[pc]` — [`OpClass::of`]`(&code[pc])`, so that a profiled run
    /// charges an op by one byte load.
    pub class: Vec<OpClass>,
    /// `block_start[b]` — pc of block `b`'s first slot.
    pub block_start: Vec<usize>,
    pub n_values: usize,
    pub n_params: usize,
    pub param_masks: Vec<u64>,
    /// Declared return type (`I64` when unspecified), for the caller-side
    /// register write on `Ret`.
    pub ret_ty: Ty,
}

/// A fully decoded module, shared read-only by all threads of a run.
#[derive(Debug)]
pub(crate) struct Decoded {
    pub funcs: Vec<DFunc>,
    /// Phi-move pool, referenced by [`Edge`] ranges.
    pub moves: Vec<PhiMove>,
    /// Call-argument pool, referenced by call `args_at`/`args_n`.
    pub args: Vec<Src>,
    /// Static conditional-branch count (dense predictor table size).
    pub n_condbrs: usize,
    /// What the fusion pass found (diagnostics and tests).
    pub stats: fuse::FuseStats,
}

fn lower(o: &Operand, global_bases: &[u64]) -> Src {
    match o {
        Operand::Value(v) => Src::Slot(v.0),
        Operand::Imm(v, ty) => Src::Const((*v as u64) & ty.mask()),
        Operand::F64Bits(b) => Src::Const(*b),
        Operand::GlobalAddr(g) => Src::Const(global_bases[g.0 as usize]),
        Operand::FuncAddr(f) => Src::Const(FUNC_BASE + f.0 as u64),
    }
}

/// Number of phis at the head of `b`: what any one edge into it moves.
pub(crate) fn lead_phis(f: &Function, b: &Block) -> usize {
    b.insts.iter().take_while(|&&i| f.inst(i).op.is_phi()).count()
}

/// Builds the edge `from → to`, appending its phi moves to `moves`.
fn make_edge(
    f: &Function,
    from: u32,
    to: BlockId,
    block_start: &[usize],
    lead_phis: &[usize],
    moves: &mut Vec<PhiMove>,
    global_bases: &[u64],
) -> Edge {
    let at = moves.len() as u32;
    let tb = &f.blocks[to.0 as usize];
    for &iid in tb.insts.iter().take(lead_phis[to.0 as usize]) {
        if let Op::Phi { ty, incomings } = &f.inst(iid).op {
            // A phi with no incoming for this edge is skipped, exactly
            // as the interpreter's edge walk skips it (no write).
            if let Some((val, _)) = incomings.iter().find(|(_, b)| b.0 == from) {
                moves.push(PhiMove {
                    dst: f.inst_result(iid).expect("phi has result").0,
                    src: lower(val, global_bases),
                    ty: *ty,
                });
            }
        }
    }
    Edge {
        target: (block_start[to.0 as usize] + lead_phis[to.0 as usize]) as u32,
        moves_at: at,
        moves_n: moves.len() as u32 - at,
    }
}

impl Decoded {
    /// Lowers every function of `m`. Pure function of the module and the
    /// global layout — safe to share across threads and runs.
    pub(crate) fn decode(m: &Module, global_bases: &[u64]) -> Decoded {
        let mut moves = Vec::new();
        let mut args: Vec<Src> = Vec::new();
        let mut n_condbrs = 0usize;
        let mut stats = fuse::FuseStats::default();
        let mut funcs = Vec::with_capacity(m.funcs.len());
        for f in &m.funcs {
            // Pass 1: flat layout — blocks in order, one slot per inst.
            let mut block_start = Vec::with_capacity(f.blocks.len());
            let mut pc = 0usize;
            for b in &f.blocks {
                block_start.push(pc);
                pc += b.insts.len();
            }
            let lead_phis: Vec<usize> = f.blocks.iter().map(|b| lead_phis(f, b)).collect();

            // Pass 2: lower each instruction.
            let mut code = Vec::with_capacity(pc);
            let mut ranges = Vec::with_capacity(f.blocks.len());
            for (bi, b) in f.blocks.iter().enumerate() {
                let start = code.len();
                for &iid in &b.insts {
                    let inst = f.inst(iid);
                    let dst = f.inst_result(iid).map(|v| v.0);
                    let dop = match &inst.op {
                        Op::Bin { op, ty, a, b } => {
                            let x = Alu2 {
                                a: lower(a, global_bases),
                                b: lower(b, global_bases),
                                dst: dst.expect("bin has result"),
                                lat: cost::compute_latency(&inst.op),
                            };
                            DOp::bin(*op, *ty, x)
                        }
                        Op::Un { op, ty, a } => DOp::Un {
                            op: *op,
                            ty: *ty,
                            a: lower(a, global_bases),
                            dst: dst.expect("un has result"),
                            lat: cost::compute_latency(&inst.op),
                        },
                        Op::Cmp { op, ty, a, b } => {
                            let x = Alu2 {
                                a: lower(a, global_bases),
                                b: lower(b, global_bases),
                                dst: dst.expect("cmp has result"),
                                lat: cost::LAT_INT,
                            };
                            match (op, ty) {
                                (CmpOp::Eq, Ty::I64 | Ty::Ptr) => DOp::CmpEq64(x),
                                (CmpOp::Ne, Ty::I64 | Ty::Ptr) => DOp::CmpNe64(x),
                                (CmpOp::SLt, Ty::I64 | Ty::Ptr) => DOp::CmpSlt64(x),
                                _ => DOp::Cmp { op: *op, ty: *ty, a: x.a, b: x.b, dst: x.dst },
                            }
                        }
                        Op::Move { ty, a } => DOp::MoveV {
                            ty: *ty,
                            a: lower(a, global_bases),
                            dst: dst.expect("move has result"),
                        },
                        Op::Cast { kind, to, a } => DOp::Cast {
                            kind: *kind,
                            from: f.operand_ty(a),
                            to: *to,
                            a: lower(a, global_bases),
                            dst: dst.expect("cast has result"),
                        },
                        Op::Select { ty, c, t, f: fv } => DOp::Select {
                            ty: *ty,
                            c: lower(c, global_bases),
                            t: lower(t, global_bases),
                            f: lower(fv, global_bases),
                            dst: dst.expect("select has result"),
                        },
                        Op::Gep { base, index, scale, offset } => DOp::Gep {
                            base: lower(base, global_bases),
                            index: lower(index, global_bases),
                            scale: *scale as i64,
                            offset: *offset as u64,
                            dst: dst.expect("gep has result"),
                        },
                        Op::Phi { .. } => DOp::TrapMalformed,
                        Op::Load { ty, addr, atomic } => DOp::Load {
                            ty: *ty,
                            addr: lower(addr, global_bases),
                            atomic: *atomic,
                            dst: dst.expect("load has result"),
                        },
                        Op::Store { ty, val, addr, atomic } => DOp::Store {
                            ty: *ty,
                            val: lower(val, global_bases),
                            addr: lower(addr, global_bases),
                            atomic: *atomic,
                        },
                        Op::Rmw { op, ty, addr, val } => DOp::Rmw {
                            op: *op,
                            ty: *ty,
                            addr: lower(addr, global_bases),
                            val: lower(val, global_bases),
                            dst: dst.expect("rmw has result"),
                        },
                        Op::CmpXchg { ty, addr, expected, new } => DOp::CmpXchg {
                            ty: *ty,
                            addr: lower(addr, global_bases),
                            expected: lower(expected, global_bases),
                            new: lower(new, global_bases),
                            dst: dst.expect("cmpxchg has result"),
                        },
                        Op::Alloc { size } => DOp::Alloc {
                            size: lower(size, global_bases),
                            dst: dst.expect("alloc has result"),
                        },
                        Op::Br { dest } => DOp::Br {
                            edge: make_edge(
                                f,
                                bi as u32,
                                *dest,
                                &block_start,
                                &lead_phis,
                                &mut moves,
                                global_bases,
                            ),
                        },
                        Op::CondBr { cond, t, f: fb } => {
                            let bp = n_condbrs as u32;
                            n_condbrs += 1;
                            DOp::CondBr {
                                cond: lower(cond, global_bases),
                                t: make_edge(
                                    f,
                                    bi as u32,
                                    *t,
                                    &block_start,
                                    &lead_phis,
                                    &mut moves,
                                    global_bases,
                                ),
                                f: make_edge(
                                    f,
                                    bi as u32,
                                    *fb,
                                    &block_start,
                                    &lead_phis,
                                    &mut moves,
                                    global_bases,
                                ),
                                bp,
                            }
                        }
                        Op::Call { callee, args: call_args, ret_ty: _ } => {
                            let at = args.len() as u32;
                            for a in call_args {
                                args.push(lower(a, global_bases));
                            }
                            let n = call_args.len() as u32;
                            match callee {
                                Callee::Direct(t) => DOp::CallDirect {
                                    target: t.0,
                                    args_at: at,
                                    args_n: n,
                                    dst,
                                    arity_ok: m.func(*t).params.len() == call_args.len(),
                                },
                                Callee::Indirect(o) => DOp::CallInd {
                                    callee: lower(o, global_bases),
                                    args_at: at,
                                    args_n: n,
                                    dst,
                                },
                            }
                        }
                        Op::Ret { val } => {
                            DOp::Ret { val: val.as_ref().map(|v| lower(v, global_bases)) }
                        }
                        Op::TxBegin => DOp::TxBegin,
                        Op::TxEnd => DOp::TxEnd,
                        Op::TxCondSplit => DOp::TxCondSplit,
                        Op::TxCounterInc { amount } => DOp::TxCounterInc { amount: *amount as u64 },
                        Op::TxAbort { code } => match code {
                            AbortCode::IlrDetected => DOp::TxAbortIlr,
                            AbortCode::Explicit => DOp::TxAbortExplicit,
                        },
                        Op::Vote { ty, a, b, c } => DOp::Vote {
                            ty: *ty,
                            a: lower(a, global_bases),
                            b: lower(b, global_bases),
                            c: lower(c, global_bases),
                            dst: dst.expect("vote has result"),
                        },
                        Op::ChkCorrect { ty, a, b, c } => DOp::ChkCorrect {
                            ty: *ty,
                            a: lower(a, global_bases),
                            b: lower(b, global_bases),
                            c: lower(c, global_bases),
                            dst: dst.expect("chk_correct has result"),
                        },
                        Op::Lock { addr } => DOp::Lock { addr: lower(addr, global_bases) },
                        Op::Unlock { addr } => DOp::Unlock { addr: lower(addr, global_bases) },
                        Op::Emit { ty: _, val } => DOp::Emit { val: lower(val, global_bases) },
                        Op::ThreadId => DOp::ThreadIdD { dst: dst.expect("thread_id has result") },
                        Op::NumThreads => {
                            DOp::NumThreadsD { dst: dst.expect("num_threads has result") }
                        }
                        Op::Nop => DOp::Nop,
                    };
                    code.push(dop);
                }
                ranges.push((start, code.len()));
            }
            fuse::census(&code, &ranges, &mut stats);
            funcs.push(DFunc {
                class: code.iter().map(OpClass::of).collect(),
                code,
                block_start,
                n_values: f.values.len(),
                n_params: f.params.len(),
                param_masks: f.params.iter().map(|p| p.mask()).collect(),
                ret_ty: f.ret_ty.unwrap_or(Ty::I64),
            });
        }
        Decoded { funcs, moves, args, n_condbrs, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::Memory;
    use haft_ir::function::ValueId;

    fn decode_module(m: &Module) -> Decoded {
        Decoded::decode(m, &Memory::layout(m).0)
    }

    /// Builds `fn f() { b0: br b1; b1: phi [(7, b0)]; ret phi }`.
    fn phi_module() -> Module {
        let mut m = Module::new("t");
        let mut f = Function::new("f", &[], Some(Ty::I64));
        let b1 = f.add_block();
        let (br, _) = f.create_inst(Op::Br { dest: b1 });
        f.push_to_block(f.entry(), br);
        let (phi, pv) = f.create_inst(Op::Phi {
            ty: Ty::I64,
            incomings: vec![(Operand::imm(7, Ty::I64), f.entry())],
        });
        f.push_to_block(b1, phi);
        let (ret, _) = f.create_inst(Op::Ret { val: Some(pv.unwrap().into()) });
        f.push_to_block(b1, ret);
        m.push_func(f);
        m
    }

    #[test]
    fn flat_layout_is_one_slot_per_inst_in_block_order() {
        let m = phi_module();
        let d = decode_module(&m);
        let df = &d.funcs[0];
        // b0: [Br], b1: [TrapMalformed (phi slot), Ret].
        assert_eq!(df.code.len(), 3);
        assert!(matches!(df.code[0], DOp::Br { .. }));
        assert!(matches!(df.code[1], DOp::TrapMalformed));
        assert!(matches!(df.code[2], DOp::Ret { .. }));
    }

    #[test]
    fn edges_skip_leading_phis_and_carry_their_moves() {
        let m = phi_module();
        let d = decode_module(&m);
        let DOp::Br { edge } = d.funcs[0].code[0] else { panic!("expected br") };
        // Target pc lands past the phi slot, on the ret.
        assert_eq!(edge.target, 2);
        assert_eq!(edge.moves_n, 1);
        let mv = d.moves[edge.moves_at as usize];
        assert_eq!(mv.src, Src::Const(7));
        assert_eq!(mv.ty, Ty::I64);
    }

    #[test]
    fn constants_are_fully_resolved() {
        let mut m = Module::new("t");
        let g = m.add_global("g", 8);
        let mut f = Function::new("f", &[], None);
        let (ld, lv) =
            f.create_inst(Op::Load { ty: Ty::I8, addr: Operand::GlobalAddr(g), atomic: false });
        f.push_to_block(f.entry(), ld);
        // Imm operands arrive pre-masked.
        let (add, _) = f.create_inst(Op::Bin {
            op: BinOp::Add,
            ty: Ty::I8,
            a: lv.unwrap().into(),
            b: Operand::imm(-1, Ty::I8),
        });
        f.push_to_block(f.entry(), add);
        let (ret, _) = f.create_inst(Op::Ret { val: None });
        f.push_to_block(f.entry(), ret);
        m.push_func(f);
        let mem = Memory::new(&m, 1 << 16);
        let d = Decoded::decode(&m, &mem.global_bases);
        let DOp::Load { addr, .. } = d.funcs[0].code[0] else { panic!() };
        assert_eq!(addr, Src::Const(mem.global_bases[0]));
        let DOp::Bin { b, a, .. } = d.funcs[0].code[1] else { panic!("an i8 add stays generic") };
        assert_eq!(b, Src::Const(0xff), "imm pre-masked to its type");
        assert_eq!(a, Src::Slot(lv.unwrap().0));
    }

    #[test]
    fn condbrs_get_dense_global_ids() {
        let mut m = Module::new("t");
        for name in ["f", "g"] {
            let mut f = Function::new(name, &[Ty::I64], None);
            let exit = f.add_block();
            let (cmp, cv) = f.create_inst(Op::Cmp {
                op: CmpOp::Eq,
                ty: Ty::I64,
                a: f.param_value(0).into(),
                b: Operand::imm(0, Ty::I64),
            });
            f.push_to_block(f.entry(), cmp);
            let (br, _) = f.create_inst(Op::CondBr { cond: cv.unwrap().into(), t: exit, f: exit });
            f.push_to_block(f.entry(), br);
            let (ret, _) = f.create_inst(Op::Ret { val: None });
            f.push_to_block(exit, ret);
            m.push_func(f);
        }
        let d = decode_module(&m);
        assert_eq!(d.n_condbrs, 2);
        let mut seen = Vec::new();
        for df in &d.funcs {
            for op in &df.code {
                if let DOp::CondBr { bp, .. } = op {
                    seen.push(*bp);
                }
            }
        }
        assert_eq!(seen, vec![0, 1]);
    }

    #[test]
    fn frame_layout_facts_are_captured() {
        let mut m = Module::new("t");
        let mut f = Function::new("f", &[Ty::I8, Ty::I64], Some(Ty::I32));
        let (ret, _) = f.create_inst(Op::Ret { val: Some(Operand::imm(0, Ty::I32)) });
        f.push_to_block(f.entry(), ret);
        m.push_func(f);
        // Keep one extra value so n_values > n_params.
        let _ = ValueId(0);
        let d = decode_module(&m);
        let df = &d.funcs[0];
        assert_eq!(df.n_params, 2);
        assert_eq!(df.param_masks, vec![0xff, u64::MAX]);
        assert_eq!(df.ret_ty, Ty::I32);
        assert_eq!(df.n_values, 2);
    }

    #[test]
    fn direct_call_arity_is_checked_at_decode() {
        let mut m = Module::new("t");
        let mut callee = Function::new("callee", &[Ty::I64], None);
        let (r, _) = callee.create_inst(Op::Ret { val: None });
        callee.push_to_block(callee.entry(), r);
        let callee_id = m.push_func(callee);
        let mut f = Function::new("f", &[], None);
        let (call, _) = f.create_inst(Op::Call {
            callee: Callee::Direct(callee_id),
            args: vec![],
            ret_ty: None,
        });
        f.push_to_block(f.entry(), call);
        let (ret, _) = f.create_inst(Op::Ret { val: None });
        f.push_to_block(f.entry(), ret);
        m.push_func(f);
        let d = decode_module(&m);
        let DOp::CallDirect { arity_ok, args_n, .. } = d.funcs[1].code[0] else { panic!() };
        assert!(!arity_ok, "zero args against one param");
        assert_eq!(args_n, 0);
    }
}
