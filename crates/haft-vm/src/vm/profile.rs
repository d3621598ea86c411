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
//! today, by construction) land in a synthetic `(scheduler)` row rather
//! than vanish.
//!
//! The reference interpreter fetches per op ([`Profiler::fetch`]). The
//! fused engine telescopes a whole register-only run in locals — all its
//! ops are one function's, so one row of per-class sums — and settles it
//! at the run's exit ([`Profiler::settle_run`]). Only the run's first
//! fetch goes through `fetch`: the cell still open from before the run
//! may belong to another function (a call or return ended the previous
//! run) or be the `tx-abort` relabel, and `fetch` is what closes it. A
//! second fetch of one op at one clock charges nothing, so the op a run
//! refuses is simply fetched again by the one-op path.

use super::decode::{resolved, DOp};

/// Synthetic function id for cycles not attributable to any fetched op.
const SCHED_FUNC: u32 = u32::MAX;

/// Number of [`OpClass`]es: the width of a histogram row.
pub(crate) const N_CLASSES: usize = 11;

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
    /// Names in declaration order: `NAMES[class as usize]`.
    const NAMES: [&'static str; N_CLASSES] = [
        "alu", "branch", "mem", "atomic", "call", "tx", "tx-abort", "vote", "sync", "emit", "other",
    ];

    /// Stable name used in metrics and the report table.
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }

    /// Classifies an op; a decode-resolved opcode is the ALU op it stands
    /// for. Both engines name the op they are about to execute as a
    /// [`DOp`], so this is the only classifier; decode tabulates it per
    /// pc (`DFunc::class`) for the fused engine's runs.
    pub(crate) fn of(op: &DOp) -> OpClass {
        match op {
            resolved!()
            | DOp::Bin { .. }
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
    /// One row per function id, then the `(scheduler)` row.
    cells: Vec<[u64; N_CLASSES]>,
}

impl Profiler {
    pub(crate) fn new(n_threads: usize, n_funcs: usize) -> Self {
        Profiler {
            threads: vec![ProfThread::default(); n_threads],
            cells: vec![[0; N_CLASSES]; n_funcs + 1],
        }
    }

    /// The row of function `fid`; any id past the last is `(scheduler)`.
    fn row(&mut self, fid: u32) -> &mut [u64; N_CLASSES] {
        let sched = self.cells.len() - 1;
        &mut self.cells[(fid as usize).min(sched)]
    }

    /// Charges the clock delta since the last sync to the pending op.
    fn sync(&mut self, tid: usize, clock: u64) {
        let th = &mut self.threads[tid];
        let delta = clock.saturating_sub(th.last_clock);
        th.last_clock = clock;
        let (fid, class) = th.pending.unwrap_or((SCHED_FUNC, OpClass::Other));
        self.row(fid)[class as usize] += delta;
    }

    /// Op-fetch hook: settles the previous op's delta, then makes
    /// `(fid, class)` the pending attribution target.
    pub(crate) fn fetch(&mut self, tid: usize, clock: u64, fid: u32, class: OpClass) {
        self.sync(tid, clock);
        self.threads[tid].pending = Some((fid, class));
    }

    /// Exit of a register-only run of `fid` that telescoped its fetches
    /// after the first in locals: adds its per-class charges, and leaves
    /// the thread as the run's last fetch (`class`, at `clock`) left it.
    pub(crate) fn settle_run(
        &mut self,
        tid: usize,
        fid: u32,
        charged: &[u64; N_CLASSES],
        clock: u64,
        class: OpClass,
    ) {
        for (cell, n) in self.row(fid).iter_mut().zip(charged) {
            *cell += n;
        }
        self.threads[tid] = ProfThread { last_clock: clock, pending: Some((fid, class)) };
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

    /// Resolves function ids to names and freezes the histogram: one cell
    /// per `(function, class)` that was charged at least one cycle.
    pub(crate) fn into_profile(self, resolve: impl Fn(u32) -> String) -> CycleProfile {
        let sched = self.cells.len() - 1;
        let mut cells = Vec::new();
        for (fid, row) in self.cells.iter().enumerate().filter(|(_, row)| **row != [0; N_CLASSES]) {
            let func = if fid == sched { "(scheduler)".to_string() } else { resolve(fid as u32) };
            for (class, &cycles) in OpClass::NAMES.into_iter().zip(row).filter(|(_, &n)| n > 0) {
                cells.push(ProfileCell { func: func.clone(), class, cycles });
            }
        }
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
    use std::collections::HashMap;

    #[test]
    fn telescoping_attribution_charges_every_cycle_once() {
        let mut p = Profiler::new(1, 4);
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
        let mut p = Profiler::new(1, 4);
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
        let mut p = Profiler::new(1, 4);
        p.phase_start(0);
        p.fetch(0, 0, 0, OpClass::Alu);
        p.flush(0, 7);
        p.phase_start(0); // new scoreboard: clock restarts at 0
        p.fetch(0, 0, 0, OpClass::Alu);
        p.flush(0, 5);
        let profile = p.into_profile(|_| "f".to_string());
        assert_eq!(profile.total(), 12);
    }

    /// The attribution as it was kept before the dense rows: one hash-map
    /// cell per `(function, class)`, created by its first nonzero charge,
    /// every fetch through the map.
    #[derive(Default)]
    struct MapProfiler {
        lanes: HashMap<usize, (u64, Option<(u32, OpClass)>)>,
        cells: HashMap<(u32, &'static str), u64>,
    }

    impl MapProfiler {
        fn sync(&mut self, tid: usize, clock: u64, pending: Option<(u32, OpClass)>) {
            let lane = self.lanes.entry(tid).or_default();
            let delta = clock.saturating_sub(lane.0);
            if delta > 0 {
                let (fid, class) = lane.1.unwrap_or((SCHED_FUNC, OpClass::Other));
                *self.cells.entry((fid, class.name())).or_insert(0) += delta;
            }
            *lane = (clock, pending);
        }

        fn into_profile(self, resolve: impl Fn(u32) -> String) -> CycleProfile {
            let name =
                |fid| if fid == SCHED_FUNC { "(scheduler)".to_string() } else { resolve(fid) };
            let cell = |((fid, class), cycles)| ProfileCell { func: name(fid), class, cycles };
            let mut cells: Vec<ProfileCell> = self.cells.into_iter().map(cell).collect();
            cells.sort_by(|a, b| (&a.func, a.class).cmp(&(&b.func, b.class)));
            CycleProfile { cells }
        }
    }

    /// Random event streams over three threads and five functions —
    /// fetches (some at an unchanged clock, some repeated), aborts (some
    /// with no frame to resume in), flushes, phase starts with cycles
    /// before the first fetch — give the map's cells, `(scheduler)` row
    /// included, whether the dense profiler takes each stretch of
    /// fetches in one function op by op or as one settled run.
    #[test]
    fn dense_rows_equal_the_hash_map_cells() {
        const CLASSES: [OpClass; 4] = [OpClass::Alu, OpClass::Mem, OpClass::Call, OpClass::Other];
        let mut rng = haft_ir::rng::Prng::new(7);
        for as_runs in [false, true] {
            let (mut dense, mut map) = (Profiler::new(3, 5), MapProfiler::default());
            let mut clocks = [0u64; 3];
            for _ in 0..4000 {
                let tid = rng.below(3) as usize;
                let fid = rng.below(5) as u32;
                clocks[tid] += rng.below(4) * rng.below(6);
                match rng.below(12) {
                    0 => {
                        let fid = if rng.below(4) == 0 { u32::MAX } else { fid };
                        dense.abort(tid, clocks[tid], fid);
                        map.sync(tid, clocks[tid], Some((fid, OpClass::TxAbort)));
                    }
                    1 => {
                        dense.flush(tid, clocks[tid]);
                        map.sync(tid, clocks[tid], None);
                    }
                    2 => {
                        dense.phase_start(tid);
                        map.lanes.remove(&tid);
                        clocks[tid] = rng.below(3);
                    }
                    _ => {
                        // A stretch of one to five fetches in `fid`.
                        let stretch: Vec<(u64, OpClass)> = (0..rng.range(1, 6))
                            .map(|n| {
                                clocks[tid] += if n == 0 { 0 } else { rng.below(9) };
                                (clocks[tid], CLASSES[rng.below(4) as usize])
                            })
                            .collect();
                        for &(clock, class) in &stretch {
                            map.sync(tid, clock, Some((fid, class)));
                        }
                        if as_runs {
                            // As `register_run` does it: the first fetch for
                            // real, the rest telescoped in locals.
                            let (mut last, mut pending) = stretch[0];
                            dense.fetch(tid, last, fid, pending);
                            let mut charged = [0; N_CLASSES];
                            for &(clock, class) in &stretch[1..] {
                                charged[pending as usize] += clock - last;
                                (last, pending) = (clock, class);
                            }
                            dense.settle_run(tid, fid, &charged, last, pending);
                        } else {
                            for &(clock, class) in &stretch {
                                dense.fetch(tid, clock, fid, class);
                            }
                        }
                    }
                }
            }
            let resolve = |fid: u32| format!("f{fid}");
            let (dense, map) = (dense.into_profile(resolve), map.into_profile(resolve));
            assert_eq!(dense, map, "as runs: {as_runs}");
            assert!(dense.cells.iter().any(|c| c.func == "(scheduler)"), "no scheduler cell");
            assert!(dense.cells.iter().any(|c| c.class == "tx-abort"), "no abort cell");
        }
    }
}
