//! A suspended fault-free run kept to be resumed later ([`Vm::checkpoint`]).

use super::{Upset, Vm};
use crate::mem::{Memory, PageDiff};

/// A fault-free run paused at an op boundary, its arena kept as the pages
/// it has written since its start ([`Vm::checkpoint`]).
pub struct Checkpoint<'m> {
    /// The run as it stood, its arena without the backing bytes.
    pub(super) vm: Vm<'m>,
    /// The backing bytes, as the pages that differ from `image`'s.
    pub(super) arena: PageDiff,
    /// The arena the pages were compared with and are written back into.
    pub(super) image: &'m Memory,
}

impl<'m> Checkpoint<'m> {
    /// The run this checkpoint was taken of, from where it paused, under
    /// an instruction budget of `max_instructions` (in place of its
    /// `VmConfig`'s). It returns exactly what that run returns from there
    /// had its budget been `max_instructions` from op 0: the budget
    /// is read only where an op is about to run, and the run had not used
    /// it up by the pause. So a campaign can take checkpoints of its
    /// reference run before it knows the budget its injection runs get,
    /// and resume them as pilots under that budget.
    ///
    /// # Panics
    ///
    /// Panics if the run had executed more than `max_instructions`
    /// instructions by the pause.
    pub fn resume(&self, max_instructions: u64) -> Vm<'m> {
        assert!(
            self.vm.instructions <= max_instructions,
            "a checkpoint after {} instructions resumed under a budget of {max_instructions}",
            self.vm.instructions
        );
        let mem = self.vm.mem.restored(self.image, &self.arena);
        let mut vm = self.vm.copy(mem, Upset::None, None);
        vm.cfg.max_instructions = max_instructions;
        vm
    }
}
