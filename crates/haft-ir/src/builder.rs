//! Ergonomic construction of IR functions.
//!
//! The builder is how workload kernels and tests author programs; it keeps
//! a current insertion block and offers one method per opcode, plus a
//! structured counted-loop helper that creates the header/body/exit blocks
//! and induction-variable phi that the TX pass's loop transformation
//! expects to find.

use crate::function::{BlockId, Function, ValueId};
use crate::inst::{BinOp, Callee, CastKind, CmpOp, Op, Operand, RmwOp, UnOp};
use crate::module::FuncId;
use crate::types::Ty;

/// Builds one [`Function`] instruction by instruction.
pub struct FunctionBuilder {
    f: Function,
    cur: BlockId,
}

impl FunctionBuilder {
    /// Starts a new function; the insertion point is the entry block.
    pub fn new(name: impl Into<String>, params: &[Ty], ret_ty: Option<Ty>) -> Self {
        let f = Function::new(name, params, ret_ty);
        let cur = f.entry();
        FunctionBuilder { f, cur }
    }

    /// Marks the function as external (never transformed by HAFT).
    pub fn set_external(&mut self) {
        self.f.attrs.external = true;
    }

    /// Marks the function as non-local (callable from outside; TX will use
    /// unconditional transaction boundaries for it).
    pub fn set_non_local(&mut self) {
        self.f.attrs.local = false;
    }

    /// Returns the `i`-th parameter value.
    pub fn param(&self, i: usize) -> ValueId {
        self.f.param_value(i)
    }

    /// Returns the entry block id.
    pub fn entry(&self) -> BlockId {
        self.f.entry()
    }

    /// Creates a new (empty) block.
    pub fn new_block(&mut self) -> BlockId {
        self.f.add_block()
    }

    /// Moves the insertion point to `b`.
    pub fn switch_to(&mut self, b: BlockId) {
        self.cur = b;
    }

    /// Returns the current insertion block.
    pub fn current_block(&self) -> BlockId {
        self.cur
    }

    /// Emits an opcode at the insertion point, returning its result if any.
    pub fn emit_op(&mut self, op: Op) -> Option<ValueId> {
        let (id, res) = self.f.create_inst(op);
        self.f.push_to_block(self.cur, id);
        res
    }

    fn emit_valued(&mut self, op: Op) -> ValueId {
        self.emit_op(op).expect("opcode must produce a value")
    }

    // --- constants -----------------------------------------------------------

    /// Integer immediate operand of type `ty`.
    pub fn iconst(&self, ty: Ty, v: i64) -> Operand {
        Operand::Imm(v, ty)
    }

    /// `f64` immediate operand.
    pub fn fconst(&self, v: f64) -> Operand {
        Operand::f64(v)
    }

    // --- compute ---------------------------------------------------------------

    pub fn bin(
        &mut self,
        op: BinOp,
        ty: Ty,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> ValueId {
        self.emit_valued(Op::Bin { op, ty, a: a.into(), b: b.into() })
    }

    pub fn add(&mut self, ty: Ty, a: impl Into<Operand>, b: impl Into<Operand>) -> ValueId {
        self.bin(BinOp::Add, ty, a, b)
    }

    pub fn sub(&mut self, ty: Ty, a: impl Into<Operand>, b: impl Into<Operand>) -> ValueId {
        self.bin(BinOp::Sub, ty, a, b)
    }

    pub fn mul(&mut self, ty: Ty, a: impl Into<Operand>, b: impl Into<Operand>) -> ValueId {
        self.bin(BinOp::Mul, ty, a, b)
    }

    pub fn un(&mut self, op: UnOp, ty: Ty, a: impl Into<Operand>) -> ValueId {
        self.emit_valued(Op::Un { op, ty, a: a.into() })
    }

    pub fn cmp(
        &mut self,
        op: CmpOp,
        ty: Ty,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> ValueId {
        self.emit_valued(Op::Cmp { op, ty, a: a.into(), b: b.into() })
    }

    pub fn mov(&mut self, ty: Ty, a: impl Into<Operand>) -> ValueId {
        self.emit_valued(Op::Move { ty, a: a.into() })
    }

    pub fn cast(&mut self, kind: CastKind, to: Ty, a: impl Into<Operand>) -> ValueId {
        self.emit_valued(Op::Cast { kind, to, a: a.into() })
    }

    pub fn select(
        &mut self,
        ty: Ty,
        c: impl Into<Operand>,
        t: impl Into<Operand>,
        f: impl Into<Operand>,
    ) -> ValueId {
        self.emit_valued(Op::Select { ty, c: c.into(), t: t.into(), f: f.into() })
    }

    /// `base + index * scale + offset` address arithmetic.
    pub fn gep(
        &mut self,
        base: impl Into<Operand>,
        index: impl Into<Operand>,
        scale: u32,
        offset: i64,
    ) -> ValueId {
        self.emit_valued(Op::Gep { base: base.into(), index: index.into(), scale, offset })
    }

    /// Creates a phi of type `ty` with no incomings yet.
    pub fn phi(&mut self, ty: Ty) -> ValueId {
        self.emit_valued(Op::Phi { ty, incomings: vec![] })
    }

    /// Adds an incoming edge to a phi created with [`Self::phi`].
    ///
    /// # Panics
    ///
    /// Panics if `phi` is not a phi instruction result.
    pub fn phi_incoming(&mut self, phi: ValueId, v: impl Into<Operand>, from: BlockId) {
        let def = self.f.value_def(phi);
        let crate::function::ValueDef::Inst(id) = def else {
            panic!("phi_incoming on a parameter");
        };
        match &mut self.f.inst_mut(id).op {
            Op::Phi { incomings, .. } => incomings.push((v.into(), from)),
            other => panic!("phi_incoming on non-phi {other:?}"),
        }
    }

    // --- memory ----------------------------------------------------------------

    pub fn load(&mut self, ty: Ty, addr: impl Into<Operand>) -> ValueId {
        self.emit_valued(Op::Load { ty, addr: addr.into(), atomic: false })
    }

    pub fn load_atomic(&mut self, ty: Ty, addr: impl Into<Operand>) -> ValueId {
        self.emit_valued(Op::Load { ty, addr: addr.into(), atomic: true })
    }

    pub fn store(&mut self, ty: Ty, val: impl Into<Operand>, addr: impl Into<Operand>) {
        self.emit_op(Op::Store { ty, val: val.into(), addr: addr.into(), atomic: false });
    }

    pub fn store_atomic(&mut self, ty: Ty, val: impl Into<Operand>, addr: impl Into<Operand>) {
        self.emit_op(Op::Store { ty, val: val.into(), addr: addr.into(), atomic: true });
    }

    pub fn rmw(
        &mut self,
        op: RmwOp,
        ty: Ty,
        addr: impl Into<Operand>,
        val: impl Into<Operand>,
    ) -> ValueId {
        self.emit_valued(Op::Rmw { op, ty, addr: addr.into(), val: val.into() })
    }

    pub fn cmpxchg(
        &mut self,
        ty: Ty,
        addr: impl Into<Operand>,
        expected: impl Into<Operand>,
        new: impl Into<Operand>,
    ) -> ValueId {
        self.emit_valued(Op::CmpXchg {
            ty,
            addr: addr.into(),
            expected: expected.into(),
            new: new.into(),
        })
    }

    pub fn alloc(&mut self, size: impl Into<Operand>) -> ValueId {
        self.emit_valued(Op::Alloc { size: size.into() })
    }

    // --- control ---------------------------------------------------------------

    pub fn br(&mut self, dest: BlockId) {
        self.emit_op(Op::Br { dest });
    }

    pub fn condbr(&mut self, cond: impl Into<Operand>, t: BlockId, f: BlockId) {
        self.emit_op(Op::CondBr { cond: cond.into(), t, f });
    }

    pub fn call(
        &mut self,
        callee: FuncId,
        args: &[Operand],
        ret_ty: Option<Ty>,
    ) -> Option<ValueId> {
        self.emit_op(Op::Call { callee: Callee::Direct(callee), args: args.to_vec(), ret_ty })
    }

    pub fn call_indirect(
        &mut self,
        target: impl Into<Operand>,
        args: &[Operand],
        ret_ty: Option<Ty>,
    ) -> Option<ValueId> {
        self.emit_op(Op::Call {
            callee: Callee::Indirect(target.into()),
            args: args.to_vec(),
            ret_ty,
        })
    }

    pub fn ret(&mut self, val: Option<Operand>) {
        self.emit_op(Op::Ret { val });
    }

    // --- intrinsics --------------------------------------------------------------

    pub fn lock(&mut self, addr: impl Into<Operand>) {
        self.emit_op(Op::Lock { addr: addr.into() });
    }

    pub fn unlock(&mut self, addr: impl Into<Operand>) {
        self.emit_op(Op::Unlock { addr: addr.into() });
    }

    pub fn emit_out(&mut self, ty: Ty, val: impl Into<Operand>) {
        self.emit_op(Op::Emit { ty, val: val.into() });
    }

    pub fn thread_id(&mut self) -> ValueId {
        self.emit_valued(Op::ThreadId)
    }

    pub fn num_threads(&mut self) -> ValueId {
        self.emit_valued(Op::NumThreads)
    }

    // --- structured helpers --------------------------------------------------------

    /// Builds a counted loop `for i in from..to { body }` and returns after
    /// positioning the insertion point in the exit block.
    ///
    /// `body` receives the builder and the induction value `i` (type `I64`)
    /// and must leave the insertion point in a block that falls through to
    /// the latch (i.e. must not emit its own terminator last).
    pub fn counted_loop(
        &mut self,
        from: impl Into<Operand>,
        to: impl Into<Operand>,
        body: impl FnOnce(&mut Self, ValueId),
    ) {
        let from = from.into();
        let to = to.into();
        let pre = self.cur;
        let header = self.new_block();
        let body_blk = self.new_block();
        let exit = self.new_block();

        self.br(header);
        self.switch_to(header);
        let i = self.phi(Ty::I64);
        self.phi_incoming(i, from, pre);
        let cond = self.cmp(CmpOp::SLt, Ty::I64, i, to);
        self.condbr(cond, body_blk, exit);

        self.switch_to(body_blk);
        body(self, i);
        // The block the body left us in is the latch.
        let latch = self.cur;
        let next = self.add(Ty::I64, i, self.iconst(Ty::I64, 1));
        self.phi_incoming(i, next, latch);
        self.br(header);

        self.switch_to(exit);
    }

    /// Builds an `if cond { then }` diamond; leaves the insertion point in
    /// the join block.
    pub fn if_then(&mut self, cond: impl Into<Operand>, then: impl FnOnce(&mut Self)) {
        let then_blk = self.new_block();
        let join = self.new_block();
        self.condbr(cond, then_blk, join);
        self.switch_to(then_blk);
        then(self);
        self.br(join);
        self.switch_to(join);
    }

    /// Builds an `if cond { a } else { b }` diamond returning a value of
    /// type `ty` (merged with a phi); leaves the insertion point in the
    /// join block.
    pub fn if_then_else(
        &mut self,
        ty: Ty,
        cond: impl Into<Operand>,
        then: impl FnOnce(&mut Self) -> Operand,
        els: impl FnOnce(&mut Self) -> Operand,
    ) -> ValueId {
        let then_blk = self.new_block();
        let else_blk = self.new_block();
        let join = self.new_block();
        self.condbr(cond, then_blk, else_blk);

        self.switch_to(then_blk);
        let tv = then(self);
        let t_end = self.cur;
        self.br(join);

        self.switch_to(else_blk);
        let ev = els(self);
        let e_end = self.cur;
        self.br(join);

        self.switch_to(join);
        let phi = self.phi(ty);
        self.phi_incoming(phi, tv, t_end);
        self.phi_incoming(phi, ev, e_end);
        phi
    }

    /// Finishes building and returns the function.
    pub fn finish(self) -> Function {
        self.f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_func;

    #[test]
    fn straight_line_function_verifies() {
        let mut fb = FunctionBuilder::new("f", &[Ty::I64], Some(Ty::I64));
        let x = fb.param(0);
        let y = fb.mul(Ty::I64, x, fb.iconst(Ty::I64, 3));
        let z = fb.add(Ty::I64, y, x);
        fb.ret(Some(z.into()));
        let f = fb.finish();
        verify_func(&f, &[], &[]).expect("valid function");
        assert_eq!(f.placed_inst_count(), 3);
    }

    #[test]
    fn counted_loop_builds_valid_loop() {
        let mut fb = FunctionBuilder::new("sumto", &[Ty::I64], Some(Ty::I64));
        let n = fb.param(0);
        let acc_cell = fb.alloc(fb.iconst(Ty::I64, 8));
        fb.store(Ty::I64, fb.iconst(Ty::I64, 0), acc_cell);
        fb.counted_loop(fb.iconst(Ty::I64, 0), n, |b, i| {
            let cur = b.load(Ty::I64, acc_cell);
            let nxt = b.add(Ty::I64, cur, i);
            b.store(Ty::I64, nxt, acc_cell);
        });
        let total = fb.load(Ty::I64, acc_cell);
        fb.ret(Some(total.into()));
        let f = fb.finish();
        verify_func(&f, &[], &[]).expect("valid loop");
        // Entry, header, body, exit.
        assert_eq!(f.blocks.len(), 4);
    }

    #[test]
    fn if_then_else_produces_phi() {
        let mut fb = FunctionBuilder::new("max", &[Ty::I64, Ty::I64], Some(Ty::I64));
        let a = fb.param(0);
        let b = fb.param(1);
        let c = fb.cmp(CmpOp::SGt, Ty::I64, a, b);
        let m = fb.if_then_else(Ty::I64, c, |_| a.into(), |_| b.into());
        fb.ret(Some(m.into()));
        let f = fb.finish();
        verify_func(&f, &[], &[]).expect("valid diamond");
    }

    #[test]
    fn if_then_joins() {
        let mut fb = FunctionBuilder::new("clamp0", &[Ty::I64], Some(Ty::I64));
        let g = fb.alloc(fb.iconst(Ty::I64, 8));
        let a = fb.param(0);
        fb.store(Ty::I64, a, g);
        let neg = fb.cmp(CmpOp::SLt, Ty::I64, a, fb.iconst(Ty::I64, 0));
        fb.if_then(neg, |b| {
            b.store(Ty::I64, b.iconst(Ty::I64, 0), g);
        });
        let out = fb.load(Ty::I64, g);
        fb.ret(Some(out.into()));
        verify_func(&fb.finish(), &[], &[]).expect("valid if-then");
    }

    #[test]
    #[should_panic(expected = "phi_incoming on non-phi")]
    fn phi_incoming_on_non_phi_panics() {
        let mut fb = FunctionBuilder::new("f", &[], None);
        let v = fb.add(Ty::I64, fb.iconst(Ty::I64, 1), fb.iconst(Ty::I64, 2));
        fb.phi_incoming(v, fb.iconst(Ty::I64, 0), fb.entry());
    }
}
