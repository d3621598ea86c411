//! Cycle-attribution profiling: per-function, per-op-class virtual-cycle
//! histograms priced off the scoreboard clock.
//!
//! The attribution is *telescoping*: each thread remembers the clock at
//! its previous op fetch, and at the next fetch the elapsed delta is
//! charged to the op fetched previously (the one whose issue moved the
//! clock). Phase boundaries flush the open delta, and a transaction
//! abort re-labels the rollback penalty to the `tx-abort` class. Because
//! every clock advance between 0 and a phase's final clock is charged to
//! exactly one cell, the cell total equals `cpu_cycles` *exactly* — not
//! approximately — which is the invariant the `profile` report section
//! asserts. Clock deltas that precede the first fetch of a phase (none
//! today, by construction) would land in a synthetic `(scheduler)`
//! bucket rather than vanish.

use std::collections::HashMap;

use super::decode::{resolved, DOp};

/// Synthetic function id for cycles not attributable to any fetched op.
const SCHED_FUNC: u32 = u32::MAX;

/// Coarse operation classes for the per-class histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    /// Arithmetic, logic, compares, moves, casts, selects, address math.
    Alu,
    /// Branches (including mispredict bubbles charged at the branch).
    Branch,
    /// Loads, stores, allocation.
    Mem,
    /// Atomic read-modify-write and compare-exchange.
    Atomic,
    /// Calls and returns.
    Call,
    /// Transaction bookkeeping (begin/end/split/counter).
    Tx,
    /// Rollback penalty after an abort.
    TxAbort,
    /// Three-way synchronization points: majority votes (TMR backend)
    /// and checksum verify-and-corrects (ABFT backend) — same latency,
    /// same non-replicated role.
    Vote,
    /// Lock/unlock.
    Sync,
    /// Output externalization.
    Emit,
    /// Everything else (nops, thread intrinsics, scheduler residue).
    Other,
}

impl OpClass {
    /// Stable name used in metrics and the report table.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Alu => "alu",
            OpClass::Branch => "branch",
            OpClass::Mem => "mem",
            OpClass::Atomic => "atomic",
            OpClass::Call => "call",
            OpClass::Tx => "tx",
            OpClass::TxAbort => "tx-abort",
            OpClass::Vote => "vote",
            OpClass::Sync => "sync",
            OpClass::Emit => "emit",
            OpClass::Other => "other",
        }
    }

    /// Classifies an op. Both engines name the op they are about to
    /// execute as a [`DOp`], so this is the only classifier.
    pub(crate) fn of(op: &DOp) -> OpClass {
        match op.generic() {
            DOp::Bin { .. }
            | DOp::Un { .. }
            | DOp::Cmp { .. }
            | DOp::MoveV { .. }
            | DOp::Cast { .. }
            | DOp::Select { .. }
            | DOp::Gep { .. } => OpClass::Alu,
            DOp::Load { .. } | DOp::Store { .. } | DOp::Alloc { .. } => OpClass::Mem,
            DOp::Rmw { .. } | DOp::CmpXchg { .. } => OpClass::Atomic,
            DOp::Br { .. } | DOp::CondBr { .. } => OpClass::Branch,
            DOp::CallDirect { .. } | DOp::CallInd { .. } | DOp::Ret { .. } => OpClass::Call,
            DOp::TxBegin | DOp::TxEnd | DOp::TxCondSplit | DOp::TxCounterInc { .. } => OpClass::Tx,
            DOp::TxAbortIlr | DOp::TxAbortExplicit => OpClass::Tx,
            DOp::Vote { .. } | DOp::ChkCorrect { .. } => OpClass::Vote,
            DOp::Lock { .. } | DOp::Unlock { .. } => OpClass::Sync,
            DOp::Emit { .. } => OpClass::Emit,
            DOp::ThreadIdD { .. } | DOp::NumThreadsD { .. } | DOp::Nop | DOp::TrapMalformed => {
                OpClass::Other
            }
            resolved!() => unreachable!("classified in generic form"),
        }
    }
}

#[derive(Clone, Copy, Default)]
struct ProfThread {
    last_clock: u64,
    pending: Option<(u32, OpClass)>,
}

/// The in-flight attribution state, one lane per VM thread.
pub(crate) struct Profiler {
    threads: Vec<ProfThread>,
    cells: HashMap<(u32, OpClass), u64>,
}

impl Profiler {
    pub(crate) fn new(n_threads: usize) -> Self {
        Profiler { threads: vec![ProfThread::default(); n_threads], cells: HashMap::new() }
    }

    /// Charges the clock delta since the last sync to the pending op.
    fn sync(&mut self, tid: usize, clock: u64) {
        let th = &mut self.threads[tid];
        let delta = clock.saturating_sub(th.last_clock);
        if delta > 0 {
            let key = th.pending.unwrap_or((SCHED_FUNC, OpClass::Other));
            *self.cells.entry(key).or_insert(0) += delta;
        }
        th.last_clock = clock;
    }

    /// Op-fetch hook: settles the previous op's delta, then makes
    /// `(fid, class)` the pending attribution target.
    pub(crate) fn fetch(&mut self, tid: usize, clock: u64, fid: u32, class: OpClass) {
        self.sync(tid, clock);
        self.threads[tid].pending = Some((fid, class));
    }

    /// Abort hook, called *before* the rollback penalty is applied at
    /// `clock`: settles the aborting op, then re-labels the pending cell
    /// so the penalty cycles land in `tx-abort` within `fid`.
    pub(crate) fn abort(&mut self, tid: usize, clock: u64, fid: u32) {
        self.sync(tid, clock);
        self.threads[tid].pending = Some((fid, OpClass::TxAbort));
    }

    /// Phase start: the thread got a fresh scoreboard (clock 0).
    pub(crate) fn phase_start(&mut self, tid: usize) {
        self.threads[tid] = ProfThread::default();
    }

    /// Phase end: settles the final open delta at the phase's last clock.
    pub(crate) fn flush(&mut self, tid: usize, clock: u64) {
        self.sync(tid, clock);
        self.threads[tid].pending = None;
    }

    /// Resolves function ids to names and freezes the histogram.
    pub(crate) fn into_profile(self, resolve: impl Fn(u32) -> String) -> CycleProfile {
        let mut cells: Vec<ProfileCell> = self
            .cells
            .into_iter()
            .map(|((fid, class), cycles)| ProfileCell {
                func: if fid == SCHED_FUNC { "(scheduler)".to_string() } else { resolve(fid) },
                class: class.name(),
                cycles,
            })
            .collect();
        cells.sort_by(|a, b| (&a.func, a.class).cmp(&(&b.func, b.class)));
        CycleProfile { cells }
    }
}

/// One histogram cell: cycles charged to `(function, op class)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileCell {
    pub func: String,
    pub class: &'static str,
    pub cycles: u64,
}

/// The frozen cycle-attribution histogram of one run. The cell total
/// equals the run's `cpu_cycles` exactly (see module docs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CycleProfile {
    /// Cells sorted by function name, then class name.
    pub cells: Vec<ProfileCell>,
}

impl CycleProfile {
    /// Sum over every cell — must equal the run's `cpu_cycles`.
    pub fn total(&self) -> u64 {
        self.cells.iter().map(|c| c.cycles).sum()
    }

    /// Per-function totals, heaviest first (ties broken by name).
    pub fn by_function(&self) -> Vec<(String, u64)> {
        let mut agg: Vec<(String, u64)> = Vec::new();
        for cell in &self.cells {
            match agg.iter_mut().find(|(f, _)| *f == cell.func) {
                Some((_, n)) => *n += cell.cycles,
                None => agg.push((cell.func.clone(), cell.cycles)),
            }
        }
        agg.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        agg
    }

    /// Per-class totals, heaviest first (ties broken by name).
    pub fn by_class(&self) -> Vec<(&'static str, u64)> {
        let mut agg: Vec<(&'static str, u64)> = Vec::new();
        for cell in &self.cells {
            match agg.iter_mut().find(|(c, _)| *c == cell.class) {
                Some((_, n)) => *n += cell.cycles,
                None => agg.push((cell.class, cell.cycles)),
            }
        }
        agg.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telescoping_attribution_charges_every_cycle_once() {
        let mut p = Profiler::new(1);
        p.phase_start(0);
        p.fetch(0, 0, 1, OpClass::Alu); // first fetch at clock 0
        p.fetch(0, 4, 1, OpClass::Mem); // alu op moved the clock by 4
        p.fetch(0, 9, 2, OpClass::Alu); // mem op moved it by 5
        p.flush(0, 10); // final alu op moved it by 1
        let profile = p.into_profile(|fid| format!("f{fid}"));
        assert_eq!(profile.total(), 10);
        assert_eq!(profile.by_function(), vec![("f1".to_string(), 9), ("f2".to_string(), 1)]);
        assert_eq!(profile.by_class(), vec![("alu", 5), ("mem", 5)]);
    }

    #[test]
    fn abort_relabels_the_penalty() {
        let mut p = Profiler::new(1);
        p.phase_start(0);
        p.fetch(0, 0, 3, OpClass::Mem);
        p.abort(0, 2, 3); // the op itself cost 2
        p.flush(0, 162); // then a 160-cycle rollback penalty
        let profile = p.into_profile(|fid| format!("f{fid}"));
        assert_eq!(profile.total(), 162);
        assert_eq!(profile.by_class(), vec![("tx-abort", 160), ("mem", 2)]);
    }

    #[test]
    fn phases_reset_the_clock_lane() {
        let mut p = Profiler::new(1);
        p.phase_start(0);
        p.fetch(0, 0, 0, OpClass::Alu);
        p.flush(0, 7);
        p.phase_start(0); // new scoreboard: clock restarts at 0
        p.fetch(0, 0, 0, OpClass::Alu);
        p.flush(0, 5);
        let profile = p.into_profile(|_| "f".to_string());
        assert_eq!(profile.total(), 12);
    }
}
