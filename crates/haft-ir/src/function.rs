//! Functions, basic blocks, and SSA value bookkeeping.

use std::ops::Add;
use std::sync::Arc;

use crate::inst::{Inst, InstMeta, Op, Operand};
use crate::types::Ty;

/// Identifies an SSA value within one function.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

/// Identifies an instruction within one function's arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub u32);

/// Identifies a basic block within one function.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// How an SSA value is defined.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValueDef {
    /// The `n`-th function parameter.
    Param(u32),
    /// The result of an instruction.
    Inst(InstId),
}

/// Type and definition of one SSA value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ValueInfo {
    pub ty: Ty,
    pub def: ValueDef,
}

/// A basic block: an ordered list of instruction ids ending in a terminator.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Block {
    pub insts: Vec<InstId>,
}

/// Function attributes relevant to the HAFT passes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FnAttrs {
    /// External functions are never transformed (the paper's unprotected
    /// library code, e.g. libc functions outside the hardened musl subset).
    pub external: bool,
    /// Local functions are only called from other hardened functions, which
    /// enables the TX local-call optimization (paper §3.3). Functions called
    /// from outside (e.g. `main`, thread entry points) must be black-listed
    /// by clearing this flag.
    pub local: bool,
}

/// Room a rewrite needs beyond a body's current contents: upper bounds
/// on the instructions, values and blocks it creates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Room {
    /// Instructions created (the arena and `results` grow by as many).
    pub insts: usize,
    /// Values created: one per result-producing instruction.
    pub values: usize,
    /// Blocks added.
    pub blocks: usize,
}

impl Add for Room {
    type Output = Room;

    fn add(self, o: Room) -> Room {
        Room {
            insts: self.insts + o.insts,
            values: self.values + o.values,
            blocks: self.blocks + o.blocks,
        }
    }
}

/// A function in SSA form.
///
/// Instructions live in an arena (`insts`); blocks hold ordered id lists so
/// that passes can splice new instructions cheaply. Every result-producing
/// instruction has an entry in `results`, and `values` maps [`ValueId`] to
/// its type and definition.
#[derive(Clone, Debug, PartialEq)]
pub struct Function {
    pub name: String,
    pub params: Vec<Ty>,
    pub ret_ty: Option<Ty>,
    pub blocks: Vec<Block>,
    pub insts: Vec<Inst>,
    /// Result value of each instruction (parallel to `insts`).
    pub results: Vec<Option<ValueId>>,
    pub values: Vec<ValueInfo>,
    pub attrs: FnAttrs,
}

impl Function {
    /// Creates an empty function with a single (empty) entry block.
    ///
    /// Parameters are assigned the first `params.len()` value ids.
    pub fn new(name: impl Into<String>, params: &[Ty], ret_ty: Option<Ty>) -> Self {
        let values = params
            .iter()
            .enumerate()
            .map(|(i, &ty)| ValueInfo { ty, def: ValueDef::Param(i as u32) })
            .collect();
        Function {
            name: name.into(),
            params: params.to_vec(),
            ret_ty,
            blocks: vec![Block::default()],
            insts: Vec::new(),
            results: Vec::new(),
            values,
            attrs: FnAttrs { external: false, local: true },
        }
    }

    /// Takes a body of a [`crate::Module`] to rewrite it, as every
    /// hardening pass does.
    ///
    /// A body no other module shares is returned as it is. A shared one
    /// is copied first, and the copy's `insts`, `results`, `values` and
    /// `blocks` are each allocated once, with the `room` the rewrite asks
    /// for on top of the body's contents, so a rewrite that stays inside
    /// its room never grows them again. `room` is asked only when a copy
    /// is made.
    pub fn make_mut(body: &mut Arc<Function>, room: impl FnOnce(&Function) -> Room) -> &mut Self {
        if Arc::get_mut(body).is_none() {
            let room = room(body);
            *body = Arc::new(body.copy_with(room));
        }
        Arc::get_mut(body).expect("a fresh copy is not shared")
    }

    /// A deep copy with `room` reserved in each growing table.
    fn copy_with(&self, room: Room) -> Function {
        fn copy<T: Clone>(v: &[T], extra: usize) -> Vec<T> {
            let mut out = Vec::with_capacity(v.len() + extra);
            out.extend_from_slice(v);
            out
        }
        let Function { name, params, ret_ty, blocks, insts, results, values, attrs } = self;
        Function {
            name: name.clone(),
            params: params.clone(),
            ret_ty: *ret_ty,
            blocks: copy(blocks, room.blocks),
            insts: copy(insts, room.insts),
            results: copy(results, room.insts),
            values: copy(values, room.values),
            attrs: attrs.clone(),
        }
    }

    /// Returns the entry block (always block 0).
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Returns the value id of the `i`-th parameter.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn param_value(&self, i: usize) -> ValueId {
        assert!(i < self.params.len(), "parameter index out of range");
        ValueId(i as u32)
    }

    /// Returns the type of a value.
    pub fn value_ty(&self, v: ValueId) -> Ty {
        self.values[v.0 as usize].ty
    }

    /// Returns the definition of a value.
    pub fn value_def(&self, v: ValueId) -> ValueDef {
        self.values[v.0 as usize].def
    }

    /// Returns the type of an operand.
    pub fn operand_ty(&self, o: &Operand) -> Ty {
        match o {
            Operand::Value(v) => self.value_ty(*v),
            Operand::Imm(_, ty) => *ty,
            Operand::F64Bits(_) => Ty::F64,
            Operand::GlobalAddr(_) | Operand::FuncAddr(_) => Ty::Ptr,
        }
    }

    /// Appends a new empty block and returns its id.
    pub fn add_block(&mut self) -> BlockId {
        self.blocks.push(Block::default());
        BlockId(self.blocks.len() as u32 - 1)
    }

    /// Creates an instruction in the arena (not yet placed in any block).
    ///
    /// Returns the instruction id and, if the opcode produces a value, the
    /// freshly allocated result value id.
    pub fn create_inst(&mut self, op: Op) -> (InstId, Option<ValueId>) {
        self.create_inst_meta(op, InstMeta::default())
    }

    /// Creates an instruction with explicit metadata.
    pub fn create_inst_meta(&mut self, op: Op, meta: InstMeta) -> (InstId, Option<ValueId>) {
        let id = InstId(self.insts.len() as u32);
        let result = op.result_ty().map(|ty| {
            let v = ValueId(self.values.len() as u32);
            self.values.push(ValueInfo { ty, def: ValueDef::Inst(id) });
            v
        });
        self.insts.push(Inst { op, meta });
        self.results.push(result);
        (id, result)
    }

    /// Appends an already-created instruction to a block.
    pub fn push_to_block(&mut self, b: BlockId, inst: InstId) {
        self.blocks[b.0 as usize].insts.push(inst);
    }

    /// Returns the result value of an instruction, if any.
    pub fn inst_result(&self, id: InstId) -> Option<ValueId> {
        self.results[id.0 as usize]
    }

    /// Returns a reference to an instruction.
    pub fn inst(&self, id: InstId) -> &Inst {
        &self.insts[id.0 as usize]
    }

    /// Returns a mutable reference to an instruction.
    pub fn inst_mut(&mut self, id: InstId) -> &mut Inst {
        &mut self.insts[id.0 as usize]
    }

    /// Returns the terminator instruction id of a block, if the block ends
    /// in one.
    pub fn terminator(&self, b: BlockId) -> Option<InstId> {
        let last = *self.blocks[b.0 as usize].insts.last()?;
        self.inst(last).op.is_terminator().then_some(last)
    }

    /// Returns the successor slots of a block ([`Op::successors`]; both
    /// empty for `ret`/`tx_abort` or a block without a terminator).
    pub fn successors(&self, b: BlockId) -> [Option<BlockId>; 2] {
        self.terminator(b).map_or([None, None], |t| self.inst(t).op.successors())
    }

    /// Iterates over `(BlockId, &Block)` pairs.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks.iter().enumerate().map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Counts instructions currently placed in blocks (excluding `Nop`s).
    pub fn placed_inst_count(&self) -> usize {
        self.blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|id| !matches!(self.inst(**id).op, Op::Nop))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BinOp, Operand};

    fn sample() -> Function {
        let mut f = Function::new("f", &[Ty::I64, Ty::I64], Some(Ty::I64));
        let a = f.param_value(0);
        let b = f.param_value(1);
        let (add, sum) =
            f.create_inst(Op::Bin { op: BinOp::Add, ty: Ty::I64, a: a.into(), b: b.into() });
        f.push_to_block(f.entry(), add);
        let (ret, _) = f.create_inst(Op::Ret { val: Some(sum.unwrap().into()) });
        f.push_to_block(f.entry(), ret);
        f
    }

    #[test]
    fn params_get_first_value_ids() {
        let f = sample();
        assert_eq!(f.param_value(0), ValueId(0));
        assert_eq!(f.param_value(1), ValueId(1));
        assert_eq!(f.value_ty(ValueId(0)), Ty::I64);
        assert_eq!(f.value_def(ValueId(0)), ValueDef::Param(0));
    }

    #[test]
    fn instruction_results_are_tracked() {
        let f = sample();
        let add = InstId(0);
        let v = f.inst_result(add).expect("add produces a value");
        assert_eq!(f.value_ty(v), Ty::I64);
        assert_eq!(f.value_def(v), ValueDef::Inst(add));
        assert_eq!(f.inst_result(InstId(1)), None, "ret produces no value");
    }

    #[test]
    fn terminator_detection() {
        let f = sample();
        assert_eq!(f.terminator(f.entry()), Some(InstId(1)));
        assert_eq!(f.successors(f.entry()), [None, None]);
    }

    #[test]
    fn block_insertion_preserves_order() {
        let mut f = sample();
        let (nop, _) = f.create_inst(Op::Nop);
        f.push_to_block(f.entry(), nop);
        assert_eq!(f.blocks[0].insts, vec![InstId(0), InstId(1), InstId(2)]);
        assert_eq!(f.placed_inst_count(), 2, "nop not counted");
    }

    #[test]
    fn operand_types() {
        let f = sample();
        assert_eq!(f.operand_ty(&Operand::imm(1, Ty::I32)), Ty::I32);
        assert_eq!(f.operand_ty(&Operand::f64(1.0)), Ty::F64);
        assert_eq!(f.operand_ty(&Operand::Value(ValueId(0))), Ty::I64);
    }

    #[test]
    fn make_mut_copies_a_shared_body_once_with_its_room() {
        let mut body = Arc::new(sample());
        let other = Arc::clone(&body);
        let room = Room { insts: 5, values: 3, blocks: 2 };
        let f = Function::make_mut(&mut body, |_| room);
        assert_eq!((f.insts.capacity(), f.results.capacity()), (2 + 5, 2 + 5));
        assert_eq!((f.values.capacity(), f.blocks.capacity()), (3 + 3, 1 + 2));
        f.create_inst(Op::Nop);
        assert_eq!(*other, sample(), "the other holder's body is untouched");
        assert!(!Arc::ptr_eq(&body, &other));
        // Now unshared: taken in place, and the room is not asked for.
        let before = Arc::as_ptr(&body);
        Function::make_mut(&mut body, |_| unreachable!("no copy, no room"));
        assert_eq!(Arc::as_ptr(&body), before);
    }

    #[test]
    #[should_panic(expected = "parameter index out of range")]
    fn param_out_of_range_panics() {
        sample().param_value(5);
    }
}
