//! SSA-based compiler IR for the HAFT reproduction.
//!
//! HAFT ("Hardware-Assisted Fault Tolerance", EuroSys 2016) is implemented in
//! the paper as a pair of LLVM passes. This crate provides the IR those
//! passes operate on: a small, typed, SSA-form intermediate representation
//! with the exact instruction classes the HAFT transformations distinguish —
//! replicable compute, memory accesses (regular and atomic), control flow,
//! and the runtime intrinsics inserted by the ILR and TX passes
//! (`tx_begin`, `tx_end`, `tx_cond_split`, `tx_counter_inc`, `tx_abort`).
//!
//! The crate also contains the analyses the passes need: CFG utilities,
//! dominator trees, and natural-loop detection, plus a verifier that checks
//! SSA dominance and type agreement after every transformation.
//!
//! # Examples
//!
//! ```
//! use haft_ir::builder::FunctionBuilder;
//! use haft_ir::module::Module;
//! use haft_ir::types::Ty;
//!
//! let mut m = Module::new("demo");
//! let mut fb = FunctionBuilder::new("add1", &[Ty::I64], Some(Ty::I64));
//! let x = fb.param(0);
//! let one = fb.iconst(Ty::I64, 1);
//! let y = fb.add(Ty::I64, x, one);
//! fb.ret(Some(y.into()));
//! m.push_func(fb.finish());
//! assert!(haft_ir::verify::verify_module(&m).is_ok());
//! ```

pub mod builder;
pub mod cfg;
pub mod dom;
pub mod function;
pub mod inst;
pub mod loops;
pub mod module;
pub mod parser;
pub mod printer;
pub mod rng;
pub mod types;
pub mod verify;

pub use function::{BlockId, Function, InstId, Room, ValueDef, ValueId};
pub use inst::{
    AbortCode, BinOp, Callee, CastKind, CmpOp, Inst, InstMeta, Op, Operand, RmwOp, UnOp,
};
pub use module::{FuncId, Global, GlobalId, GlobalInit, Module};
pub use types::Ty;
