//! Modules and global variables.

use std::sync::Arc;

use crate::function::Function;

/// Identifies a function within a module.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// Identifies a global within a module.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

/// Initial contents of a global region.
///
/// Explicit bytes are shared and immutable: cloning a [`Module`] (as
/// every hardening pipeline does first) points the clone at the same
/// buffer, and a run copies the bytes once, into its own memory arena.
/// Whoever needs other data for a global replaces its `init` with a new
/// buffer (`haft_apps::patch_requests` does, per batch) and never
/// mutates the shared one.
#[derive(Clone, Debug, PartialEq)]
pub enum GlobalInit {
    /// Zero-initialized.
    Zero,
    /// Explicit bytes, at most the global's size (padded with zeros up
    /// to it).
    Bytes(Arc<Vec<u8>>),
}

/// A named global memory region.
///
/// The VM lays globals out contiguously (64-byte aligned, so that distinct
/// globals never falsely share a cache line unless a workload wants them
/// to — false sharing is introduced *within* a global on purpose, e.g. by
/// the `wordcount` kernel).
#[derive(Clone, Debug, PartialEq)]
pub struct Global {
    pub name: String,
    pub size: u64,
    pub init: GlobalInit,
}

/// A whole program: functions plus global data.
///
/// Function bodies are shared copy-on-write: cloning a module bumps one
/// reference count per function and copies no instruction, and the
/// clone and its source keep pointing at the same bodies until one side
/// takes a body to rewrite it ([`Function::make_mut`]). Hardening a
/// module therefore copies exactly the bodies its passes transform.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Module {
    pub name: String,
    pub funcs: Vec<Arc<Function>>,
    pub globals: Vec<Global>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module { name: name.into(), funcs: Vec::new(), globals: Vec::new() }
    }

    /// Appends a function and returns its id.
    pub fn push_func(&mut self, f: Function) -> FuncId {
        self.funcs.push(Arc::new(f));
        FuncId(self.funcs.len() as u32 - 1)
    }

    /// Appends a zero-initialized global of `size` bytes.
    pub fn add_global(&mut self, name: impl Into<String>, size: u64) -> GlobalId {
        self.globals.push(Global { name: name.into(), size, init: GlobalInit::Zero });
        GlobalId(self.globals.len() as u32 - 1)
    }

    /// Appends a global initialized with `bytes`, moved in without a copy.
    pub fn add_global_init(&mut self, name: impl Into<String>, bytes: Vec<u8>) -> GlobalId {
        let size = bytes.len() as u64;
        let init = GlobalInit::Bytes(Arc::new(bytes));
        self.globals.push(Global { name: name.into(), size, init });
        GlobalId(self.globals.len() as u32 - 1)
    }

    /// Looks a function up by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs.iter().position(|f| f.name == name).map(|i| FuncId(i as u32))
    }

    /// Looks a global up by name.
    pub fn global_by_name(&self, name: &str) -> Option<GlobalId> {
        self.globals.iter().position(|g| g.name == name).map(|i| GlobalId(i as u32))
    }

    /// Returns a reference to a function.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.0 as usize]
    }

    /// Returns a reference to a global.
    pub fn global(&self, id: GlobalId) -> &Global {
        &self.globals[id.0 as usize]
    }

    /// Total placed (non-`Nop`) instruction count across all functions.
    pub fn total_inst_count(&self) -> usize {
        self.funcs.iter().map(|f| f.placed_inst_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Ty;

    #[test]
    fn function_and_global_lookup() {
        let mut m = Module::new("m");
        let f = m.push_func(Function::new("foo", &[], None));
        let g = m.add_global("data", 128);
        assert_eq!(m.func_by_name("foo"), Some(f));
        assert_eq!(m.func_by_name("bar"), None);
        assert_eq!(m.global_by_name("data"), Some(g));
        assert_eq!(m.global(g).size, 128);
        assert_eq!(m.global(g).init, GlobalInit::Zero);
    }

    #[test]
    fn initialized_global_gets_size_from_bytes() {
        let mut m = Module::new("m");
        let g = m.add_global_init("tab", vec![1, 2, 3, 4]);
        assert_eq!(m.global(g).size, 4);
        assert_eq!(m.global(g).init, GlobalInit::Bytes(Arc::new(vec![1, 2, 3, 4])));
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut m = Module::new("m");
        let f0 = m.push_func(Function::new("a", &[Ty::I64], None));
        let f1 = m.push_func(Function::new("b", &[], Some(Ty::I64)));
        assert_eq!(f0, FuncId(0));
        assert_eq!(f1, FuncId(1));
        assert_eq!(m.func(f1).name, "b");
    }
}
