//! Instruction set of the IR.
//!
//! The grouping of opcodes mirrors the classification the HAFT passes need
//! (paper §3.2): *replicable compute* is duplicated by ILR, *memory* and
//! *control flow* are not, and the `Tx*` intrinsics are inserted by the TX
//! pass to delimit hardware transactions.

use crate::function::{BlockId, ValueId};
use crate::module::{FuncId, GlobalId};
use crate::types::Ty;

/// An instruction operand.
///
/// Constants are immediate operands rather than interned values; this makes
/// shadow-flow construction in ILR trivial (the shadow of a constant is the
/// constant itself, exactly as in the paper's LLVM implementation where
/// immediates need no duplication).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Operand {
    /// An SSA value (function parameter or instruction result).
    Value(ValueId),
    /// An integer (or pointer) immediate of the given type.
    Imm(i64, Ty),
    /// A floating-point immediate, stored as raw IEEE-754 bits.
    F64Bits(u64),
    /// The base address of a global.
    GlobalAddr(GlobalId),
    /// The "address" of a function, for indirect calls.
    FuncAddr(FuncId),
}

impl Operand {
    /// Builds an `f64` immediate.
    pub fn f64(v: f64) -> Self {
        Operand::F64Bits(v.to_bits())
    }

    /// Builds an integer immediate of type `ty`.
    pub fn imm(v: i64, ty: Ty) -> Self {
        Operand::Imm(v, ty)
    }

    /// Returns the contained SSA value, if this operand is one.
    pub fn as_value(self) -> Option<ValueId> {
        match self {
            Operand::Value(v) => Some(v),
            _ => None,
        }
    }

    /// Returns true if this operand is a compile-time constant.
    pub fn is_const(self) -> bool {
        !matches!(self, Operand::Value(_))
    }
}

impl From<ValueId> for Operand {
    fn from(v: ValueId) -> Self {
        Operand::Value(v)
    }
}

/// Integer and floating-point binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    /// Signed division; traps on division by zero (OS-detected fault).
    SDiv,
    UDiv,
    SRem,
    URem,
    And,
    Or,
    Xor,
    Shl,
    LShr,
    AShr,
    FAdd,
    FSub,
    FMul,
    FDiv,
}

impl BinOp {
    /// Returns true for the floating-point operators.
    pub fn is_float(self) -> bool {
        matches!(self, BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv)
    }

    /// Returns true for operators that can trap at run time.
    pub fn can_trap(self) -> bool {
        matches!(self, BinOp::SDiv | BinOp::UDiv | BinOp::SRem | BinOp::URem)
    }
}

/// Unary operators, including the "math unit" ops the FP kernels need.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Integer two's-complement negation.
    Neg,
    /// Bitwise complement.
    Not,
    /// Floating-point negation.
    FNeg,
    /// Floating-point square root.
    FSqrt,
    /// Floating-point natural exponential.
    FExp,
    /// Floating-point natural logarithm.
    FLn,
    /// Floating-point absolute value.
    FAbs,
}

/// Comparison predicates (result type is always `i1`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    SLt,
    SLe,
    SGt,
    SGe,
    ULt,
    ULe,
    UGt,
    UGe,
    FLt,
    FLe,
    FGt,
    FGe,
    FEq,
    FNe,
}

impl CmpOp {
    /// Returns the predicate with operands swapped sides.
    pub fn swapped(self) -> Self {
        use CmpOp::*;
        match self {
            Eq => Eq,
            Ne => Ne,
            SLt => SGt,
            SLe => SGe,
            SGt => SLt,
            SGe => SLe,
            ULt => UGt,
            ULe => UGe,
            UGt => ULt,
            UGe => ULe,
            FLt => FGt,
            FLe => FGe,
            FGt => FLt,
            FGe => FLe,
            FEq => FEq,
            FNe => FNe,
        }
    }
}

/// Value conversions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CastKind {
    /// Zero-extend (or reinterpret low bits when narrowing is impossible).
    ZExt,
    /// Sign-extend.
    SExt,
    /// Truncate to a narrower integer.
    Trunc,
    /// Signed integer to floating point.
    SiToFp,
    /// Floating point to signed integer (round toward zero).
    FpToSi,
    /// Reinterpret bits between `i64`/`f64`/`ptr`.
    Bitcast,
}

/// Read-modify-write atomic operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RmwOp {
    /// Atomic fetch-add; returns the old value.
    Add,
    /// Atomic exchange; returns the old value.
    Xchg,
}

/// Target of a call.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Callee {
    /// Statically-known callee.
    Direct(FuncId),
    /// Indirect call through a function-pointer value.
    ///
    /// HAFT treats indirect callees conservatively as external functions
    /// (the paper's SQLite case study pays exactly this cost).
    Indirect(Operand),
}

/// Transaction-abort codes, mirroring TSX `XABORT` immediate codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AbortCode {
    /// An ILR check detected a master/shadow divergence.
    IlrDetected,
    /// Explicit user abort (used in tests and lock-elision fallback).
    Explicit,
}

/// An instruction opcode with its operands.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    // --- replicable compute -------------------------------------------------
    /// Binary arithmetic/logic.
    Bin { op: BinOp, ty: Ty, a: Operand, b: Operand },
    /// Unary arithmetic.
    Un { op: UnOp, ty: Ty, a: Operand },
    /// Comparison producing `i1`.
    Cmp { op: CmpOp, ty: Ty, a: Operand, b: Operand },
    /// Register-to-register copy.
    ///
    /// ILR uses moves to replicate the results of non-replicated
    /// instructions (loads in unoptimized mode, calls, atomics); the paper
    /// keeps them opaque to the optimizer via pseudo-instructions, which we
    /// model by simply never folding moves.
    Move { ty: Ty, a: Operand },
    /// Conversion.
    Cast { kind: CastKind, to: Ty, a: Operand },
    /// `c ? t : f` without control flow.
    Select { ty: Ty, c: Operand, t: Operand, f: Operand },
    /// Address arithmetic: `base + index * scale + offset`.
    Gep { base: Operand, index: Operand, scale: u32, offset: i64 },
    /// SSA phi node.
    Phi { ty: Ty, incomings: Vec<(Operand, BlockId)> },

    // --- memory -------------------------------------------------------------
    /// Memory load. `atomic` loads are never replicated by ILR.
    Load { ty: Ty, addr: Operand, atomic: bool },
    /// Memory store. `atomic` stores are externalization events for ILR.
    Store { ty: Ty, val: Operand, addr: Operand, atomic: bool },
    /// Atomic read-modify-write; returns the old value.
    Rmw { op: RmwOp, ty: Ty, addr: Operand, val: Operand },
    /// Atomic compare-exchange; returns the old value.
    CmpXchg { ty: Ty, addr: Operand, expected: Operand, new: Operand },
    /// Heap allocation (bump arena); returns a pointer.
    Alloc { size: Operand },

    // --- control flow -------------------------------------------------------
    /// Unconditional branch.
    Br { dest: BlockId },
    /// Conditional branch on an `i1`.
    CondBr { cond: Operand, t: BlockId, f: BlockId },
    /// Function call.
    Call { callee: Callee, args: Vec<Operand>, ret_ty: Option<Ty> },
    /// Function return.
    Ret { val: Option<Operand> },

    // --- runtime intrinsics ---------------------------------------------------
    /// Begin a hardware transaction (TX pass; paper's `tx-begin()`).
    TxBegin,
    /// Commit the current transaction (paper's `tx-end()`).
    TxEnd,
    /// Commit-and-restart if the instruction counter exceeds the threshold
    /// (paper's `tx-cond-split()`).
    TxCondSplit,
    /// Increment the per-thread instruction counter (paper's
    /// `tx-counter-inc(n)`).
    TxCounterInc { amount: u32 },
    /// Abort: roll back the active transaction, or terminate the program
    /// when executing non-transactionally (ILR's fail-stop fallback).
    TxAbort { code: AbortCode },
    /// Acquire a lock word (elidable by HAFT's lock-elision wrapper).
    Lock { addr: Operand },
    /// Release a lock word.
    Unlock { addr: Operand },
    /// Majority vote over three copies of a value (TMR pass; Elzar's
    /// `vote()` at synchronization points). Returns the two-of-three
    /// majority and lets execution continue — a fault in a single copy is
    /// *masked* rather than rolled back. If all three copies disagree the
    /// VM treats it like a failed ILR check (fail-stop, or transactional
    /// rollback when inside a transaction).
    Vote { ty: Ty, a: Operand, b: Operand, c: Operand },
    /// Checksum verify-and-correct over three redundant computations of a
    /// value (ABFT pass). Semantically a two-of-three majority like
    /// [`Op::Vote`], but attributed to the checksum epilogue: a masked
    /// single-lane divergence counts as a *checksum correction* rather
    /// than a vote. Three-way divergence is uncorrectable and fail-stops
    /// through the ILR detect path.
    ChkCorrect { ty: Ty, a: Operand, b: Operand, c: Operand },
    /// Externalize a value to the program output (an I/O event; unfriendly
    /// to transactions, like a syscall under TSX).
    Emit { ty: Ty, val: Operand },
    /// Current simulated thread index as `i64`.
    ThreadId,
    /// Total simulated thread count as `i64`.
    NumThreads,
    /// No-op (placeholder produced by peepholes before compaction).
    Nop,
}

/// Per-instruction metadata flags used for pass-to-pass communication.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InstMeta {
    /// Set by ILR on instructions belonging to the shadow data flow.
    pub shadow: bool,
    /// Set by ILR on fault-propagation checks so that TX can hoist them
    /// into the conditional transaction split (paper §3.3).
    pub fprop_check: bool,
    /// Set by ILR on the compare/branch pair of a detection check.
    pub ilr_check: bool,
}

/// A complete instruction: opcode plus metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct Inst {
    pub op: Op,
    pub meta: InstMeta,
}

impl Inst {
    /// Wraps an opcode with default metadata.
    pub fn new(op: Op) -> Self {
        Inst { op, meta: InstMeta::default() }
    }
}

impl Op {
    /// Returns true if ILR replicates this instruction into the shadow flow.
    ///
    /// Per the paper (§3.2): everything except control flow and memory
    /// accesses is replicated; phis are replicated so the shadow flow stays
    /// closed under SSA.
    pub fn is_replicable(&self) -> bool {
        matches!(
            self,
            Op::Bin { .. }
                | Op::Un { .. }
                | Op::Cmp { .. }
                | Op::Move { .. }
                | Op::Cast { .. }
                | Op::Select { .. }
                | Op::Gep { .. }
                | Op::Phi { .. }
        )
    }

    /// Returns true for block terminators.
    pub fn is_terminator(&self) -> bool {
        matches!(self, Op::Br { .. } | Op::CondBr { .. } | Op::Ret { .. } | Op::TxAbort { .. })
    }

    /// Returns true for atomic memory operations.
    pub fn is_atomic(&self) -> bool {
        match self {
            Op::Load { atomic, .. } | Op::Store { atomic, .. } => *atomic,
            Op::Rmw { .. } | Op::CmpXchg { .. } => true,
            _ => false,
        }
    }

    /// Returns true for phi nodes.
    pub fn is_phi(&self) -> bool {
        matches!(self, Op::Phi { .. })
    }

    /// Returns the result type, or `None` for void instructions.
    pub fn result_ty(&self) -> Option<Ty> {
        match self {
            Op::Bin { ty, .. } | Op::Un { ty, .. } | Op::Move { ty, .. } => Some(*ty),
            Op::Cmp { .. } => Some(Ty::I1),
            Op::Cast { to, .. } => Some(*to),
            Op::Select { ty, .. } => Some(*ty),
            Op::Gep { .. } => Some(Ty::Ptr),
            Op::Phi { ty, .. } => Some(*ty),
            Op::Load { ty, .. } => Some(*ty),
            Op::Rmw { ty, .. } | Op::CmpXchg { ty, .. } => Some(*ty),
            Op::Alloc { .. } => Some(Ty::Ptr),
            Op::Call { ret_ty, .. } => *ret_ty,
            Op::Vote { ty, .. } | Op::ChkCorrect { ty, .. } => Some(*ty),
            Op::ThreadId | Op::NumThreads => Some(Ty::I64),
            _ => None,
        }
    }

    /// Visits every operand.
    pub fn for_each_operand(&self, mut f: impl FnMut(&Operand)) {
        match self {
            Op::Bin { a, b, .. } | Op::Cmp { a, b, .. } => {
                f(a);
                f(b);
            }
            Op::Un { a, .. } | Op::Move { a, .. } | Op::Cast { a, .. } => f(a),
            Op::Select { c, t, f: fv, .. } => {
                f(c);
                f(t);
                f(fv);
            }
            Op::Gep { base, index, .. } => {
                f(base);
                f(index);
            }
            Op::Phi { incomings, .. } => {
                for (v, _) in incomings {
                    f(v);
                }
            }
            Op::Load { addr, .. } => f(addr),
            Op::Store { val, addr, .. } => {
                f(val);
                f(addr);
            }
            Op::Rmw { addr, val, .. } => {
                f(addr);
                f(val);
            }
            Op::CmpXchg { addr, expected, new, .. } => {
                f(addr);
                f(expected);
                f(new);
            }
            Op::Alloc { size } => f(size),
            Op::CondBr { cond, .. } => f(cond),
            Op::Call { callee, args, .. } => {
                if let Callee::Indirect(v) = callee {
                    f(v);
                }
                for a in args {
                    f(a);
                }
            }
            Op::Ret { val: Some(v) } => f(v),
            Op::Vote { a, b, c, .. } | Op::ChkCorrect { a, b, c, .. } => {
                f(a);
                f(b);
                f(c);
            }
            Op::Lock { addr } | Op::Unlock { addr } => f(addr),
            Op::Emit { val, .. } => f(val),
            Op::Br { .. }
            | Op::Ret { val: None }
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

    /// Rewrites every operand in place.
    pub fn map_operands(&mut self, mut f: impl FnMut(&mut Operand)) {
        match self {
            Op::Bin { a, b, .. } | Op::Cmp { a, b, .. } => {
                f(a);
                f(b);
            }
            Op::Un { a, .. } | Op::Move { a, .. } | Op::Cast { a, .. } => f(a),
            Op::Select { c, t, f: fv, .. } => {
                f(c);
                f(t);
                f(fv);
            }
            Op::Gep { base, index, .. } => {
                f(base);
                f(index);
            }
            Op::Phi { incomings, .. } => {
                for (v, _) in incomings {
                    f(v);
                }
            }
            Op::Load { addr, .. } => f(addr),
            Op::Store { val, addr, .. } => {
                f(val);
                f(addr);
            }
            Op::Rmw { addr, val, .. } => {
                f(addr);
                f(val);
            }
            Op::CmpXchg { addr, expected, new, .. } => {
                f(addr);
                f(expected);
                f(new);
            }
            Op::Alloc { size } => f(size),
            Op::CondBr { cond, .. } => f(cond),
            Op::Call { callee, args, .. } => {
                if let Callee::Indirect(v) = callee {
                    f(v);
                }
                for a in args {
                    f(a);
                }
            }
            Op::Ret { val: Some(v) } => f(v),
            Op::Vote { a, b, c, .. } | Op::ChkCorrect { a, b, c, .. } => {
                f(a);
                f(b);
                f(c);
            }
            Op::Lock { addr } | Op::Unlock { addr } => f(addr),
            Op::Emit { val, .. } => f(val),
            _ => {}
        }
    }

    /// Returns the blocks this terminator may transfer control to, in
    /// its two successor slots (`t` then `f`; a `br` fills only the first).
    pub fn successors(&self) -> [Option<BlockId>; 2] {
        match self {
            Op::Br { dest } => [Some(*dest), None],
            Op::CondBr { t, f, .. } => [Some(*t), Some(*f)],
            _ => [None, None],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: u32) -> Operand {
        Operand::Value(ValueId(n))
    }

    #[test]
    fn replicable_classification_matches_paper() {
        // Compute is replicated.
        assert!(Op::Bin { op: BinOp::Add, ty: Ty::I64, a: v(0), b: v(1) }.is_replicable());
        assert!(Op::Phi { ty: Ty::I64, incomings: vec![] }.is_replicable());
        assert!(Op::Gep { base: v(0), index: v(1), scale: 8, offset: 0 }.is_replicable());
        // Memory and control flow are not.
        assert!(!Op::Load { ty: Ty::I64, addr: v(0), atomic: false }.is_replicable());
        assert!(!Op::Store { ty: Ty::I64, val: v(0), addr: v(1), atomic: false }.is_replicable());
        assert!(!Op::Br { dest: BlockId(0) }.is_replicable());
        assert!(!Op::Call { callee: Callee::Direct(FuncId(0)), args: vec![], ret_ty: None }
            .is_replicable());
        // Runtime intrinsics are not.
        assert!(!Op::TxBegin.is_replicable());
        assert!(!Op::Emit { ty: Ty::I64, val: v(0) }.is_replicable());
        // Votes are synchronization points, never replicated themselves.
        assert!(!Op::Vote { ty: Ty::I64, a: v(0), b: v(1), c: v(2) }.is_replicable());
        // Checksum corrections are synchronization points too.
        assert!(!Op::ChkCorrect { ty: Ty::I64, a: v(0), b: v(1), c: v(2) }.is_replicable());
    }

    #[test]
    fn terminators() {
        assert!(Op::Br { dest: BlockId(0) }.is_terminator());
        assert!(Op::CondBr { cond: v(0), t: BlockId(0), f: BlockId(1) }.is_terminator());
        assert!(Op::Ret { val: None }.is_terminator());
        assert!(Op::TxAbort { code: AbortCode::IlrDetected }.is_terminator());
        assert!(!Op::TxEnd.is_terminator());
    }

    #[test]
    fn atomicity_classification() {
        assert!(Op::Load { ty: Ty::I64, addr: v(0), atomic: true }.is_atomic());
        assert!(!Op::Load { ty: Ty::I64, addr: v(0), atomic: false }.is_atomic());
        assert!(Op::Rmw { op: RmwOp::Add, ty: Ty::I64, addr: v(0), val: v(1) }.is_atomic());
        assert!(Op::CmpXchg { ty: Ty::I64, addr: v(0), expected: v(1), new: v(2) }.is_atomic());
    }

    #[test]
    fn result_types() {
        assert_eq!(
            Op::Cmp { op: CmpOp::Eq, ty: Ty::I64, a: v(0), b: v(1) }.result_ty(),
            Some(Ty::I1)
        );
        assert_eq!(
            Op::Gep { base: v(0), index: v(1), scale: 1, offset: 0 }.result_ty(),
            Some(Ty::Ptr)
        );
        assert_eq!(
            Op::Store { ty: Ty::I64, val: v(0), addr: v(1), atomic: false }.result_ty(),
            None
        );
        assert_eq!(Op::ThreadId.result_ty(), Some(Ty::I64));
    }

    #[test]
    fn operand_visitation_covers_all_uses() {
        let op = Op::CmpXchg { ty: Ty::I64, addr: v(0), expected: v(1), new: v(2) };
        let mut seen = vec![];
        op.for_each_operand(|o| seen.push(*o));
        assert_eq!(seen, vec![v(0), v(1), v(2)]);

        let call = Op::Call {
            callee: Callee::Indirect(v(9)),
            args: vec![v(1), Operand::imm(3, Ty::I64)],
            ret_ty: Some(Ty::I64),
        };
        let mut count = 0;
        call.for_each_operand(|_| count += 1);
        assert_eq!(count, 3);

        let vote = Op::Vote { ty: Ty::I64, a: v(4), b: v(5), c: v(6) };
        let mut seen = vec![];
        vote.for_each_operand(|o| seen.push(*o));
        assert_eq!(seen, vec![v(4), v(5), v(6)]);
        assert_eq!(vote.result_ty(), Some(Ty::I64));

        let chk = Op::ChkCorrect { ty: Ty::F64, a: v(4), b: v(5), c: v(6) };
        let mut seen = vec![];
        chk.for_each_operand(|o| seen.push(*o));
        assert_eq!(seen, vec![v(4), v(5), v(6)]);
        assert_eq!(chk.result_ty(), Some(Ty::F64));
    }

    #[test]
    fn map_operands_rewrites_in_place() {
        let mut op = Op::Bin { op: BinOp::Add, ty: Ty::I64, a: v(0), b: v(1) };
        op.map_operands(|o| {
            if let Operand::Value(id) = o {
                *o = Operand::Value(ValueId(id.0 + 10));
            }
        });
        assert_eq!(op, Op::Bin { op: BinOp::Add, ty: Ty::I64, a: v(10), b: v(11) });
    }

    #[test]
    fn successors_of_branches() {
        let op = Op::CondBr { cond: v(0), t: BlockId(1), f: BlockId(2) };
        assert_eq!(op.successors(), [Some(BlockId(1)), Some(BlockId(2))]);
        assert_eq!(Op::Br { dest: BlockId(3) }.successors(), [Some(BlockId(3)), None]);
        assert_eq!(Op::Ret { val: None }.successors(), [None, None]);
    }

    #[test]
    fn cmp_swapped_is_involutive_on_symmetric_ops() {
        assert_eq!(CmpOp::Eq.swapped(), CmpOp::Eq);
        assert_eq!(CmpOp::SLt.swapped(), CmpOp::SGt);
        assert_eq!(CmpOp::SLt.swapped().swapped(), CmpOp::SLt);
    }

    #[test]
    fn const_operands() {
        assert!(Operand::imm(1, Ty::I64).is_const());
        assert!(Operand::f64(1.5).is_const());
        assert!(!v(3).is_const());
        assert_eq!(v(3).as_value(), Some(ValueId(3)));
        assert_eq!(Operand::imm(1, Ty::I64).as_value(), None);
    }
}
