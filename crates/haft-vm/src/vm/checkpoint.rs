//! A suspended fault-free run kept to be resumed later ([`Vm::checkpoint`]).

use super::{Frame, Reg, Thread, Upset, Vm};
use crate::mem::{Memory, PageDiff};

/// A fault-free run paused at an op boundary, its arena kept as the pages
/// it has written since its start ([`Vm::checkpoint`]).
pub struct Checkpoint<'m> {
    /// The run as it stood, its arena without the backing bytes.
    pub(super) vm: Vm<'m>,
    /// The backing bytes, as the pages the run has written.
    pub(super) arena: PageDiff,
    /// The arena the run started from, which the pages are written back
    /// into.
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

    /// Heap bytes this checkpoint holds, what keeping it costs: the arena
    /// pages it kept; each thread, with its scoreboard, register windows
    /// (the XBEGIN snapshot's included), store-forwarding and write-buffer
    /// slots, branch tables and output so far; and the HTM model's
    /// ([`haft_htm::Htm::held_bytes`]).
    pub fn held_bytes(&self) -> usize {
        use std::mem::size_of;
        let regs = |frames: &[Frame]| frames.iter().map(|f| f.regs.len()).sum::<usize>();
        let threads = self.vm.threads.iter().map(|t| {
            size_of::<Thread>()
                + (regs(&t.frames) + regs(&t.snapshot.frames)) * size_of::<Reg>()
                + t.store_done_fast.table().1 * size_of::<(u64, u64)>()
                + t.fovl.table().1 * size_of::<(u64, (u64, u8))>()
                + (t.store_done.capacity() + t.overlay.capacity() + t.bp.capacity()) * 16
                + t.bp_dense.len()
                + t.emitted.len() * size_of::<u64>()
        });
        self.arena.held_bytes() + threads.sum::<usize>() + self.vm.htm.held_bytes()
    }
}
