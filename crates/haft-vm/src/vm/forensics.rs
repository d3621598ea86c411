//! Fault forensics: the flip→detection trajectory of an injected fault.
//!
//! A campaign outcome label (Table 1) says *how a fault ended*; forensics
//! measures the window of vulnerability in between — the HAFT claim that
//! ILR detects *before* corruption escapes and HTM rolls it back is a
//! claim about this window. When a [`crate::FaultPlan`] fires, the VM
//! starts a positional taint track: the flipped register seeds a shadow
//! set keyed by `(thread, call depth, register slot)` plus per-byte
//! memory keys, and every subsequent instruction applies a conservative
//! transfer function *before* it executes. Tracking ends when
//!
//! - the taint set drains (every corrupted value was overwritten:
//!   [`FaultDetector::Masked`], or never read at all:
//!   [`FaultDetector::MaskedAtSite`]),
//! - a detector fires (ILR check, majority vote, HTM rollback, OS trap),
//!   or
//! - corruption externalizes ([`FaultDetector::Escaped`]).
//!
//! Zero cost when off: the state is an `Option<Box<..>>` allocated only
//! when a fork is armed with forensics on ([`Vm::fork`]), so clean
//! runs pay exactly one `None` branch per register-only run of the fused
//! engine (per instruction in the reference interpreter) and fault-free
//! results are bit-identical with the flag unused. Nearly free outside
//! the window as well: the state is inert before the flip and after a
//! detector has fired, so the fused engine executes those stretches as
//! runs and steps op by op between the hooks only from just short of the
//! planned register write until the window closes (`Vm::observed`,
//! `engine.rs`). Both engines call the same transfer function
//! ([`Vm::forensics_transfer`], over the `DOp` of the op about to
//! execute) with engine-invariant keys (a decoded `Slot` index equals the
//! interpreter's `ValueId`), and the record is part of the `RunResult`
//! equality `tests/differential.rs` holds across `Interp` and `Fused`
//! (`engines_agree_under_fault_injection`,
//! `fault_sweep_outcome_histograms_match`).
//!
//! Attribution limits (also in ARCHITECTURE.md): control-flow divergence
//! caused by a tainted branch condition is recorded as a sticky flag —
//! data written on the wrong path is *not* tainted, so a drained taint
//! set under tainted control is never reported as masked; the flag is
//! conservative across rollbacks. Likewise a store, RMW, compare-exchange
//! or lock through a tainted address taints only the cell it reached: the
//! cell it was meant for goes stale untainted. Memory taint at commit time
//! over-approximates `escaped_to_memory` (buffered bytes may still be
//! overwritten later). Cross-thread propagation is tracked through
//! memory only.
//!
//! Settlement rides the same set. A fork run by
//! [`Vm::run_to_settlement`] keeps it whether or not it keeps a record
//! (without one the state exists for that alone), and past the record's
//! detector: where the set drains, nothing the flip reached differs from
//! the fault-free run, and the fork stops. Each way the set can miss a
//! difference refuses that for good ([`ForensicsState::refuse`]); the
//! settle-only window is capped ([`SETTLE_WINDOW`]), past which the state
//! is dropped and the fork runs at run speed.

use haft_htm::table::OpenTable;
use haft_ir::function::{Function, ValueId};
use haft_ir::module::FuncId;
use haft_trace::TraceEvent;

use super::decode::{resolved, DOp, Decoded, Src};
use super::profile::OpClass;
use super::{Frame, RunOutcome, Vm, FUNC_BASE, MAX_CALL_DEPTH};

/// Which mechanism closed (or failed to close) the window of
/// vulnerability. Ordered roughly best to worst.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultDetector {
    /// The flipped register has no static reader: masked at the site
    /// itself, latency zero by definition.
    MaskedAtSite,
    /// Every tainted value was overwritten before any use escaped.
    Masked,
    /// An ILR check (or an unrecoverable 3-way vote divergence) fired.
    Ilr,
    /// A majority vote found the divergent copy and masked it in place.
    Vote,
    /// A checksum verify-and-correct reconstructed the divergent lane
    /// in place (the ABFT backend's epilogue).
    Checksum,
    /// A transactional rollback erased all remaining corruption.
    HtmAbort,
    /// The OS terminated the program (wild access, div-by-zero, ...).
    Trap,
    /// The instruction budget ran out while corruption was still live.
    Hang,
    /// Corruption reached program output (or was still live at exit).
    Escaped,
}

impl FaultDetector {
    /// Every detector, in declaration order (histogram iteration).
    pub const ALL: [FaultDetector; 9] = [
        FaultDetector::MaskedAtSite,
        FaultDetector::Masked,
        FaultDetector::Ilr,
        FaultDetector::Vote,
        FaultDetector::Checksum,
        FaultDetector::HtmAbort,
        FaultDetector::Trap,
        FaultDetector::Hang,
        FaultDetector::Escaped,
    ];

    /// Stable name used in metrics (`faults.detect_latency.<label>.*`)
    /// and report tables.
    pub fn label(self) -> &'static str {
        match self {
            FaultDetector::MaskedAtSite => "masked-at-site",
            FaultDetector::Masked => "masked",
            FaultDetector::Ilr => "ilr",
            FaultDetector::Vote => "vote",
            FaultDetector::Checksum => "abft-correct",
            FaultDetector::HtmAbort => "htm-abort",
            FaultDetector::Trap => "trap",
            FaultDetector::Hang => "hang",
            FaultDetector::Escaped => "escaped",
        }
    }
}

/// Where an injected flip landed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSite {
    /// Name of the function whose register was flipped.
    pub func: String,
    /// Coarse op class of the faulted instruction (profile names).
    pub op_class: &'static str,
    /// The dynamic register-write occurrence that was flipped.
    pub occurrence: u64,
    /// The XOR mask *actually* applied — after type truncation and the
    /// forced-single-bit fallback, not the raw `FaultPlan::xor_mask`.
    pub applied_mask: u64,
}

/// Per-injection trajectory measurements, carried on
/// [`super::RunResult::forensics`] when the run was forked with forensics
/// on ([`Vm::fork`]) and the fault actually fired.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Forensics {
    pub site: FaultSite,
    /// What ended the tracking window.
    pub detector: FaultDetector,
    /// Dynamic instructions from the flip to detection/masking. Zero if
    /// and only if the flip was masked at the site itself.
    pub detect_latency_insts: u64,
    /// Scoreboard cycles over the same window.
    pub detect_latency_cycles: u64,
    /// Peak simultaneous size of the taint set (registers + memory
    /// bytes): how wide the corruption spread before the window closed.
    pub propagation_width: u64,
    /// A tainted value reached committed memory (store outside a
    /// transaction, or a commit while memory bytes were tainted).
    pub escaped_to_memory: bool,
}

/// Tag bit of a register's shadow-set key.
const REG: u64 = 1 << 63;

/// Shadow-set key of a register. Positional — `(thread, call depth,
/// slot)` — which is engine-invariant: a decoded flat slot index is the
/// interpreter's `ValueId` by construction (see `decode::lower`). The
/// other keys of the set are memory cells, `addr >> 3` (tag bit clear);
/// a key's value is the mask of its tainted bytes (bit 0 for a register).
fn reg_key(tid: usize, depth: u32, slot: u32) -> u64 {
    REG | (tid as u64) << 48 | (depth as u64) << 32 | slot as u64
}

/// Calls `each(cell key, byte mask)` for the one or two 8-byte cells that
/// `[addr, addr + len)` covers (`len <= 8`; wraps like the address does).
fn for_cells(addr: u64, len: u32, mut each: impl FnMut(u64, u8)) {
    let mut i = 0;
    while i < len {
        let a = addr.wrapping_add(i as u64);
        let off = (a & 7) as u32;
        let n = (8 - off).min(len - i);
        each(a >> 3, (((1u16 << n) - 1) as u8) << off);
        i += n;
    }
}

/// The cap on a settle-only window: the ops a settling fork steps, one at
/// a time, only to see its taint set drain — from the flip without a
/// record, and from the first detector either way. It is this many ops,
/// or [`SETTLE_SHARE`]'s share of the fault-free run's remaining suffix if
/// that is more. Past the cap the fork drops the set and runs at run
/// speed. Flips that drain at all mostly drain within a few dozen to a few
/// hundred ops (a TMR copy is rewritten soon after its vote, a loop-carried
/// one only when its loop ends); stepping costs several times running, so
/// a window that does not drain costs its fork at most several of these
/// shares of its suffix.
pub(super) const SETTLE_WINDOW: u64 = 256;

/// See [`SETTLE_WINDOW`]: a window may also cover 1/64 of the suffix left.
const SETTLE_SHARE: u64 = 64;

/// Tracking phases. `Pending` exists because the flip happens *inside*
/// an instruction (at its register write) but the site's op class and
/// the dead-use scan need the instruction as a whole — the seed
/// completes in the post-execute hook of the same step.
#[derive(Clone, Copy, Debug)]
enum Phase {
    /// Fault armed, not fired yet.
    Idle,
    /// Flip applied this instruction; site attribution incomplete.
    Pending { func: FuncId, depth: u32, slot: u32, mask: u64, occurrence: u64 },
    /// Shadow set live: the record's window is open, or a settling fork
    /// keeps the set to see it drain.
    Tracking,
    /// Nothing is tracked any more; the record, if any, is frozen.
    Done,
}

/// What a settling fork ([`Vm::run_to_settlement`]) needs to settle where
/// its taint set drains.
#[derive(Clone, Copy, Debug)]
struct Settle {
    /// The last instruction count at which the budget left still covers
    /// the caller's reserve.
    last: u64,
    /// The caller's reserve, the fault-free run's instruction count: where
    /// its suffix ends.
    end: u64,
    /// Where the settle-only window closes ([`SETTLE_WINDOW`]); `u64::MAX`
    /// until it opens.
    until: u64,
}

/// The in-flight forensics state of one fault run.
pub(super) struct ForensicsState {
    phase: Phase,
    /// The run returns a record (forked with forensics on); without one the state
    /// exists only to settle a fork.
    record: bool,
    /// The record's window is open: no detector has frozen it yet.
    recording: bool,
    /// `Some` while a settling fork may still settle where the set drains.
    settle: Option<Settle>,
    /// A detector has fired (the first one freezes an open record).
    detected: bool,
    /// A drain settled the fork ([`Vm::settle_now`]).
    pub(super) drained: bool,
    site_func: FuncId,
    site_class: OpClass,
    occurrence: u64,
    applied_mask: u64,
    /// `Vm::instructions` / absolute virtual time at the flip.
    seed_insts: u64,
    seed_cycles: u64,
    /// The shadow set: key → mask of tainted bytes. Keys stay once
    /// inserted; a zero mask is an absent key.
    taint: OpenTable<u8, true>,
    /// Size of the set: tainted `[memory bytes, registers]`.
    live: [u64; 2],
    /// Per-thread transactional undo log: `(key, bytes, were_present)`
    /// for every shadow-set mutation made while that thread was
    /// transactional. An abort replays its log in reverse so the shadow
    /// set rolls back exactly with the architectural state it mirrors.
    undo: Vec<Vec<(u64, u8, bool)>>,
    /// Scratch for [`phi_taint`]'s read-all-then-write.
    phi: Vec<(u32, bool)>,
    peak: u64,
    /// A tainted value decided a branch (or an indirect call target):
    /// control flow may have diverged, so a drained taint set no longer
    /// proves masking. Sticky, conservatively even across rollbacks.
    control_tainted: bool,
    escaped_to_memory: bool,
    detector: FaultDetector,
    latency_insts: u64,
    latency_cycles: u64,
}

impl ForensicsState {
    /// The state of a run with `n_threads` threads; `record` if it
    /// returns a [`Forensics`] record.
    pub(super) fn new(n_threads: usize, record: bool) -> Self {
        assert!(n_threads <= 1 << 15, "thread ids must fit a register key");
        ForensicsState {
            phase: Phase::Idle,
            record,
            recording: record,
            settle: None,
            detected: false,
            drained: false,
            site_func: FuncId(0),
            site_class: OpClass::Other,
            occurrence: 0,
            applied_mask: 0,
            seed_insts: 0,
            seed_cycles: 0,
            taint: OpenTable::new(),
            live: [0; 2],
            undo: vec![Vec::new(); n_threads],
            phi: Vec::new(),
            peak: 0,
            control_tainted: false,
            escaped_to_memory: false,
            detector: FaultDetector::Masked,
            latency_insts: 0,
            latency_cycles: 0,
        }
    }

    /// Fault hook: the flip was just applied to `slot` of the live frame.
    /// Records the positional seed; op class and counters complete in the
    /// post-execute hook ([`Vm::forensics_seed_complete`]).
    pub(super) fn seed(&mut self, func: FuncId, depth: usize, slot: u32, mask: u64, occ: u64) {
        if matches!(self.phase, Phase::Idle) {
            self.phase = Phase::Pending { func, depth: depth as u32, slot, mask, occurrence: occ };
        }
    }

    /// The set is live: the flip has landed, its seed is complete, and
    /// the record's window is open or a settling fork still watches for
    /// the drain. The only time the hook before an op does anything.
    pub(super) fn tracking(&self) -> bool {
        matches!(self.phase, Phase::Tracking)
    }

    /// No record is open: its measurements are frozen, and no later op or
    /// outcome changes it (or the run keeps none).
    pub(super) fn closed(&self) -> bool {
        !self.recording
    }

    /// Makes the run a settling fork's, one that may settle where its set
    /// drains with the instruction count at most `last`; the fault-free
    /// run ends at instruction `end`.
    pub(super) fn settle_within(&mut self, last: u64, end: u64) {
        self.settle = Some(Settle { last, end, until: u64::MAX });
    }

    /// Opens the settle-only window at instruction count `insts_now`.
    fn open_settle_window(&mut self, insts_now: u64) {
        if let Some(s) = self.settle.as_mut() {
            let window = SETTLE_WINDOW.max(s.end.saturating_sub(insts_now) / SETTLE_SHARE);
            s.until = insts_now.saturating_add(window);
        }
    }

    /// Rules settlement by drain out for good: something the set cannot
    /// see may differ from the fault-free run. Tracking goes on only while
    /// the record needs it.
    fn refuse(&mut self) {
        self.settle = None;
        self.retire();
    }

    /// Ends tracking once neither the record nor settlement needs it.
    fn retire(&mut self) {
        if self.tracking() && !self.recording && self.settle.is_none() {
            self.phase = Phase::Done;
        }
    }

    /// Nothing is tainted and no undo log could resurrect a key on a
    /// future abort.
    fn empty(&self) -> bool {
        self.live == [0; 2] && self.undo.iter().all(|u| u.is_empty())
    }

    /// Freezes the measurements. Any detector other than masked-at-site
    /// fires at an instruction *after* the seed (the flip's own
    /// instruction cannot also detect it — vote results are outside the
    /// fault stream), so its latency is at least one; the clamp makes
    /// `detect_latency_insts == 0 ⇔ MaskedAtSite` hold by construction
    /// even for the budget-exhausted-at-the-seed corner.
    fn freeze(&mut self, det: FaultDetector, insts_now: u64, cycles_now: u64) {
        self.recording = false;
        self.detector = det;
        let insts = insts_now.saturating_sub(self.seed_insts);
        self.latency_insts = if det == FaultDetector::MaskedAtSite { 0 } else { insts.max(1) };
        self.latency_cycles = cycles_now.saturating_sub(self.seed_cycles);
        self.retire();
    }

    /// Detection hook: on a single-fault run, *any* correction or
    /// detection event is caused by the injected fault (clean runs never
    /// diverge), so no taint-relevance check is needed. The first one
    /// freezes an open record, and opens a settling fork's settle-only
    /// window afresh: a fault just outvoted or corrected mostly drains
    /// soon after.
    pub(super) fn detect(&mut self, det: FaultDetector, insts_now: u64, cycles_now: u64) {
        if self.tracking() && !self.detected {
            self.detected = true;
            self.open_settle_window(insts_now);
            if self.recording {
                self.freeze(det, insts_now, cycles_now);
            }
        }
    }

    /// Drain check, where the set can have just emptied: closes an open
    /// record as `det` (unless control was tainted: then a drained set
    /// proves nothing, and the record stays open), and returns true if
    /// the drain settles the fork — the fork is settling, nothing refused
    /// it, the budget left covers the reserve, and no record is open.
    fn drain(&mut self, det: FaultDetector, insts_now: u64, cycles_now: u64) -> bool {
        if !self.empty() {
            return false;
        }
        if self.recording && !self.control_tainted {
            self.freeze(det, insts_now, cycles_now);
        }
        let settles = self.settle.take().is_some_and(|s| insts_now <= s.last) && self.closed();
        self.retire();
        settles
    }

    /// Masked-by-drain check after an op's transfer; true if it settles
    /// the fork.
    fn try_drain(&mut self, insts_now: u64, cycles_now: u64) -> bool {
        self.tracking() && self.drain(FaultDetector::Masked, insts_now, cycles_now)
    }

    /// Taints or clears `bytes` of `key`; returns those that changed.
    fn apply(&mut self, key: u64, bytes: u8, tainted: bool) -> u8 {
        let n = &mut self.live[(key >> 63) as usize];
        if tainted {
            let mask = self.taint.entry(key);
            let new = bytes & !*mask;
            *mask |= bytes;
            *n += new.count_ones() as u64;
            new
        } else {
            let Some(mask) = self.taint.get_mut(key) else { return 0 };
            let gone = *mask & bytes;
            *mask &= !bytes;
            *n -= gone.count_ones() as u64;
            gone
        }
    }

    /// [`Self::apply`] as an op's transfer: logged for undo while `tid`
    /// is transactional, and growth counted towards the peak.
    fn set(&mut self, tid: usize, in_tx: bool, key: u64, bytes: u8, tainted: bool) {
        let changed = self.apply(key, bytes, tainted);
        if changed != 0 && in_tx {
            self.undo[tid].push((key, changed, !tainted));
        }
        if changed != 0 && tainted && self.recording {
            self.peak = self.peak.max(self.live[0] + self.live[1]);
        }
    }

    fn reg_tainted(&self, tid: usize, depth: u32, slot: u32) -> bool {
        self.taint.get(reg_key(tid, depth, slot)).unwrap_or(0) != 0
    }

    fn set_reg(&mut self, tid: usize, in_tx: bool, depth: u32, slot: u32, tainted: bool) {
        self.set(tid, in_tx, reg_key(tid, depth, slot), 1, tainted);
    }

    fn mem_tainted(&self, addr: u64, len: u32) -> bool {
        let mut any = false;
        for_cells(addr, len, |cell, bytes| any |= self.taint.get(cell).unwrap_or(0) & bytes != 0);
        any
    }

    fn set_mem(&mut self, tid: usize, in_tx: bool, addr: u64, len: u32, tainted: bool) {
        for_cells(addr, len, |cell, bytes| self.set(tid, in_tx, cell, bytes, tainted));
        if tainted && !in_tx && self.recording {
            self.escaped_to_memory = true;
        }
    }

    /// Clears every register key `k` with `k >> shift == prefix`: a
    /// popped frame's (`Ret` transfer — its registers cease to exist) or
    /// a whole thread's.
    fn purge(&mut self, tid: usize, in_tx: bool, shift: u32, prefix: u64) {
        let (live, undo) = (&mut self.live[1], &mut self.undo[tid]);
        self.taint.for_each_mut(|key, mask| {
            if key >> shift == prefix && *mask != 0 {
                *mask = 0;
                *live -= 1;
                if in_tx {
                    undo.push((key, 1, true));
                }
            }
        });
    }

    /// Phase boundary: the thread gets a fresh frame stack (and is never
    /// transactional here), so its register taint and undo log are moot.
    /// Memory taint persists across phases.
    pub(super) fn purge_thread(&mut self, tid: usize) {
        self.purge(tid, false, 48, reg_key(tid, 0, 0) >> 48);
        self.undo[tid].clear();
    }

    /// Commit hook: the thread's speculative state became architectural.
    pub(super) fn on_commit(&mut self, tid: usize) {
        if !self.tracking() {
            return;
        }
        self.undo[tid].clear();
        if self.live[0] > 0 && self.recording {
            self.escaped_to_memory = true;
        }
    }

    /// Abort hook, after the architectural rollback of an attempt (which
    /// `allocated` or not): replays the thread's undo log in reverse,
    /// then — if the rollback erased the last live corruption — credits
    /// the HTM with the recovery. True if that drain settles the fork.
    pub(super) fn on_abort(
        &mut self,
        tid: usize,
        allocated: bool,
        insts_now: u64,
        cycles_now: u64,
    ) -> bool {
        if !self.tracking() {
            return false;
        }
        // Refusal: the rollback leaves the heap pointer where the
        // attempt's allocation moved it, so the retry — and every
        // allocation after it — lands elsewhere than in the fault-free run.
        if allocated {
            self.refuse();
        }
        let mut log = std::mem::take(&mut self.undo[tid]);
        for (key, bytes, were_present) in log.drain(..).rev() {
            self.apply(key, bytes, were_present);
        }
        self.undo[tid] = log;
        self.tracking() && self.drain(FaultDetector::HtmAbort, insts_now, cycles_now)
    }
}

/// Operand value against a frame (value half of `RunCtx::rd`).
fn src_val(frame: &Frame, s: Src) -> u64 {
    match s {
        Src::Slot(i) => frame.regs[i as usize].val,
        Src::Const(v) => v,
    }
}

impl<'m> Vm<'m> {
    /// Pre-execute taint transfer for the op thread `tid` is about to
    /// execute — the one set of rules, called by both engines
    /// ([`Vm::before_op`]). Runs before the op executes because control
    /// ops (Ret, Br) invalidate operand reads afterwards; the transfer
    /// models the writes the op is about to perform.
    pub(super) fn forensics_transfer(&mut self, tid: usize, op: &DOp, d: &Decoded) {
        let Some(fx) = self.forensics.as_deref_mut() else { return };
        if fx.settle.is_some_and(|s| self.instructions >= s.until) {
            // Past the settle-only window's cap.
            fx.refuse();
        }
        if !fx.tracking() {
            return;
        }
        let t = &self.threads[tid];
        let frame = t.frames.last().expect("live frame");
        let depth = t.frames.len() as u32;
        let in_tx = t.in_tx();
        let st = |fx: &ForensicsState, s: Src| match s {
            Src::Slot(i) => fx.reg_tainted(tid, depth, i),
            Src::Const(_) => false,
        };
        match op.generic() {
            DOp::Bin { a, b, dst, .. } | DOp::Cmp { a, b, dst, .. } => {
                let any = st(fx, a) || st(fx, b);
                fx.set_reg(tid, in_tx, depth, dst, any);
            }
            DOp::Un { a, dst, .. } | DOp::MoveV { a, dst, .. } | DOp::Cast { a, dst, .. } => {
                let any = st(fx, a);
                fx.set_reg(tid, in_tx, depth, dst, any);
            }
            DOp::Select { c, t: tv, f: fv, dst, .. } => {
                let any = st(fx, c) || st(fx, tv) || st(fx, fv);
                fx.set_reg(tid, in_tx, depth, dst, any);
            }
            DOp::Gep { base, index, dst, .. } => {
                let any = st(fx, base) || st(fx, index);
                fx.set_reg(tid, in_tx, depth, dst, any);
            }
            DOp::ThreadIdD { dst } | DOp::NumThreadsD { dst } => {
                fx.set_reg(tid, in_tx, depth, dst, false);
            }
            DOp::Alloc { size, dst } => {
                let any = st(fx, size);
                if any {
                    // Refusal: the heap pointer moves by a wrong amount,
                    // so every later allocation lands elsewhere.
                    fx.refuse();
                }
                fx.set_reg(tid, in_tx, depth, dst, any);
            }
            DOp::Load { ty, addr, dst, .. } => {
                let av = src_val(frame, addr);
                let any = st(fx, addr) || fx.mem_tainted(av, ty.size_bytes());
                fx.set_reg(tid, in_tx, depth, dst, any);
            }
            DOp::Store { ty, val, addr, .. } => {
                stale_cell(fx, st(fx, addr));
                let any = st(fx, val) || st(fx, addr);
                let av = src_val(frame, addr);
                fx.set_mem(tid, in_tx, av, ty.size_bytes(), any);
            }
            DOp::Rmw { ty, addr, val, dst, .. } => {
                stale_cell(fx, st(fx, addr));
                let av = src_val(frame, addr);
                let any = st(fx, addr) || st(fx, val) || fx.mem_tainted(av, ty.size_bytes());
                fx.set_reg(tid, in_tx, depth, dst, any);
                fx.set_mem(tid, in_tx, av, ty.size_bytes(), any);
            }
            DOp::CmpXchg { ty, addr, expected, new, dst } => {
                stale_cell(fx, st(fx, addr));
                let av = src_val(frame, addr);
                let any = st(fx, addr)
                    || st(fx, expected)
                    || st(fx, new)
                    || fx.mem_tainted(av, ty.size_bytes());
                fx.set_reg(tid, in_tx, depth, dst, any);
                fx.set_mem(tid, in_tx, av, ty.size_bytes(), any);
            }
            DOp::Br { edge } => {
                phi_taint(fx, tid, in_tx, depth, d, edge);
            }
            DOp::CondBr { cond, t: te, f: fe, .. } => {
                if st(fx, cond) {
                    tainted_control(fx);
                }
                let taken = src_val(frame, cond) & 1 != 0;
                phi_taint(fx, tid, in_tx, depth, d, if taken { te } else { fe });
            }
            DOp::CallDirect { args_at, args_n, arity_ok, .. } => {
                if t.frames.len() >= MAX_CALL_DEPTH || !arity_ok {
                    return;
                }
                for (i, s) in
                    d.args[args_at as usize..(args_at + args_n) as usize].iter().enumerate()
                {
                    let at = st(fx, *s);
                    fx.set_reg(tid, in_tx, depth + 1, i as u32, at);
                }
            }
            DOp::CallInd { callee, args_at, args_n, .. } => {
                if st(fx, callee) {
                    tainted_control(fx);
                }
                let v = src_val(frame, callee);
                let idx = v.wrapping_sub(FUNC_BASE);
                if v < FUNC_BASE
                    || (idx as usize) >= d.funcs.len()
                    || t.frames.len() >= MAX_CALL_DEPTH
                    || d.funcs[idx as usize].n_params != args_n as usize
                {
                    return;
                }
                for (i, s) in
                    d.args[args_at as usize..(args_at + args_n) as usize].iter().enumerate()
                {
                    let at = st(fx, *s);
                    fx.set_reg(tid, in_tx, depth + 1, i as u32, at);
                }
            }
            DOp::Ret { val } => {
                let rt = val.map(|s| st(fx, s)).unwrap_or(false);
                fx.purge(tid, in_tx, 32, reg_key(tid, depth, 0) >> 32);
                if t.frames.len() > 1 {
                    if let (Some(dst), Some(_)) = (frame.return_to, val) {
                        fx.set_reg(tid, in_tx, depth - 1, dst.0, rt);
                    }
                }
            }
            DOp::Vote { a, b, c, dst, .. } | DOp::ChkCorrect { a, b, c, dst, .. } => {
                let n = [a, b, c].into_iter().filter(|s| st(fx, *s)).count();
                fx.set_reg(tid, in_tx, depth, dst, n >= 2);
            }
            DOp::Emit { val } => {
                if !in_tx && st(fx, val) {
                    let now = self.wall_cycles + t.sb.clock;
                    fx.detect(FaultDetector::Escaped, self.instructions, now);
                    // Refusal: the output itself is wrong.
                    fx.refuse();
                }
            }
            DOp::Lock { addr } | DOp::Unlock { addr } => stale_cell(fx, st(fx, addr)),
            DOp::TxBegin
            | DOp::TxEnd
            | DOp::TxCondSplit
            | DOp::TxCounterInc { .. }
            | DOp::TxAbortIlr
            | DOp::TxAbortExplicit
            | DOp::Nop
            | DOp::TrapMalformed => {}
            resolved!() => unreachable!("taint moves by the generic form"),
        }
        if fx.try_drain(self.instructions, self.wall_cycles + t.sb.clock) {
            self.settle_now(true);
        }
    }

    /// Post-execute hook: completes a pending seed with the faulted
    /// instruction's op class, stamps the latency baselines, and runs the
    /// static dead-use scan (a flip into a register no instruction ever
    /// reads is masked at the site, latency zero — and, read by nothing,
    /// settles a settling fork at once). The scan walks the IR
    /// (`self.m`), which both engines share, so the verdict is
    /// engine-invariant.
    pub(super) fn forensics_seed_complete(&mut self, tid: usize, class: OpClass) {
        let Some(fx) = self.forensics.as_deref_mut() else { return };
        let Phase::Pending { func, depth, slot, mask, occurrence } = fx.phase else { return };
        let now = self.wall_cycles + self.threads[tid].sb.clock;
        fx.site_func = func;
        fx.site_class = class;
        fx.occurrence = occurrence;
        fx.applied_mask = mask;
        fx.seed_insts = self.instructions;
        fx.seed_cycles = now;
        fx.phase = Phase::Tracking;
        if value_has_uses(self.m.func(func), ValueId(slot)) {
            let in_tx = self.threads[tid].in_tx();
            fx.set_reg(tid, in_tx, depth, slot, true);
            if !fx.recording {
                fx.open_settle_window(self.instructions);
            }
        } else if fx.drain(FaultDetector::MaskedAtSite, self.instructions, now) {
            self.settle_now(true);
        }
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.push(
                TraceEvent::instant("vm", "fault.flip", now)
                    .lane(0, tid as u32)
                    .arg("mask", format!("{mask:#x}")),
            );
        }
    }

    /// Run teardown: resolves whatever phase tracking ended in into the
    /// public [`Forensics`] record. `None` if the fault never fired (the
    /// planned occurrence lay beyond the run's register-write stream).
    pub(super) fn conclude_forensics(&mut self, outcome: RunOutcome) -> Option<Forensics> {
        let mut fx = self.forensics.take()?;
        if !fx.record || matches!(fx.phase, Phase::Idle) {
            return None;
        }
        if let Phase::Pending { func, mask, occurrence, .. } = fx.phase {
            // Defensive: a seed whose instruction never reached the
            // post-execute hook (no such path today).
            fx.site_func = func;
            fx.site_class = OpClass::Other;
            fx.occurrence = occurrence;
            fx.applied_mask = mask;
            fx.seed_insts = self.instructions;
            fx.seed_cycles = self.wall_cycles;
            fx.phase = Phase::Tracking;
        }
        if fx.recording {
            let det = match outcome {
                RunOutcome::Hang => FaultDetector::Hang,
                RunOutcome::Trapped(_) => FaultDetector::Trap,
                // A fail-stop the ILR hook did not see: the explicit
                // abort path outside a transaction.
                RunOutcome::Detected => FaultDetector::Ilr,
                RunOutcome::Completed => {
                    if fx.live == [0; 2] && !fx.control_tainted {
                        FaultDetector::Masked
                    } else {
                        FaultDetector::Escaped
                    }
                }
            };
            fx.freeze(det, self.instructions, self.wall_cycles);
        }
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.push(
                TraceEvent::span("vm", "fault.window", fx.seed_cycles, fx.latency_cycles)
                    .arg("detector", fx.detector.label().to_string()),
            );
        }
        Some(Forensics {
            site: FaultSite {
                func: self.m.func(fx.site_func).name.clone(),
                op_class: fx.site_class.name(),
                occurrence: fx.occurrence,
                applied_mask: fx.applied_mask,
            },
            detector: fx.detector,
            detect_latency_insts: fx.latency_insts,
            detect_latency_cycles: fx.latency_cycles,
            propagation_width: fx.peak,
            escaped_to_memory: fx.escaped_to_memory,
        })
    }
}

/// A tainted value decided a branch or an indirect call. Refusal: data
/// written on the path taken is not tainted, and the path not taken wrote
/// nothing, so a drained set no longer means a clean state.
fn tainted_control(fx: &mut ForensicsState) {
    fx.control_tainted = true;
    fx.refuse();
}

/// A store, RMW, compare-exchange, lock or unlock is about to go through
/// an address that is `tainted`. Refusal: the transfer taints the cell it
/// reaches, but the cell the fault-free run writes keeps its old value
/// untainted.
fn stale_cell(fx: &mut ForensicsState, tainted: bool) {
    if tainted {
        fx.refuse();
    }
}

/// Parallel phi-move taint transfer for a CFG edge — mirrors the
/// engines' `take_edge`s over the edge's move list: read every source's
/// taint, then write.
fn phi_taint(
    fx: &mut ForensicsState,
    tid: usize,
    in_tx: bool,
    depth: u32,
    d: &Decoded,
    edge: super::decode::Edge,
) {
    let at = edge.moves_at as usize;
    let moves = &d.moves[at..at + edge.moves_n as usize];
    let mut updates = std::mem::take(&mut fx.phi);
    updates.clear();
    updates.extend(moves.iter().map(|mv| match mv.src {
        Src::Slot(i) => (mv.dst, fx.reg_tainted(tid, depth, i)),
        Src::Const(_) => (mv.dst, false),
    }));
    for &(slot, tainted) in &updates {
        fx.set_reg(tid, in_tx, depth, slot, tainted);
    }
    fx.phi = updates;
}

/// True if any instruction in `f` reads `v` (phi incomings included).
fn value_has_uses(f: &Function, v: ValueId) -> bool {
    for block in &f.blocks {
        for &iid in &block.insts {
            let mut hit = false;
            f.inst(iid).op.for_each_operand(|o| {
                if o.as_value() == Some(v) {
                    hit = true;
                }
            });
            if hit {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The shadow set as it was kept before the packed table: one hashed
    /// key per register and per memory byte, one undo entry per key.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    enum Key {
        Reg { tid: usize, depth: u32, slot: u32 },
        Mem { addr: u64 },
    }

    #[derive(Default)]
    struct Model {
        taint: HashSet<Key>,
        undo: [Vec<(Key, bool)>; 2],
        peak: usize,
        escaped: bool,
    }

    impl Model {
        fn set(&mut self, tid: usize, in_tx: bool, key: Key, tainted: bool) {
            let changed = if tainted { self.taint.insert(key) } else { self.taint.remove(&key) };
            if changed && in_tx {
                self.undo[tid].push((key, !tainted));
            }
            self.peak = self.peak.max(self.taint.len());
        }

        fn set_mem(&mut self, tid: usize, in_tx: bool, addr: u64, len: u32, tainted: bool) {
            for i in 0..len as u64 {
                self.set(tid, in_tx, Key::Mem { addr: addr.wrapping_add(i) }, tainted);
            }
            self.escaped |= tainted && !in_tx;
        }

        fn purge(&mut self, tid: usize, in_tx: bool, dead: impl Fn(&Key) -> bool) {
            let keys: Vec<Key> = self.taint.iter().copied().filter(dead).collect();
            for key in keys {
                self.set(tid, in_tx, key, false);
            }
        }

        fn abort(&mut self, tid: usize) {
            for (key, was_present) in std::mem::take(&mut self.undo[tid]).into_iter().rev() {
                if was_present {
                    self.taint.insert(key);
                } else {
                    self.taint.remove(&key);
                }
            }
        }

        fn mem_bytes(&self) -> usize {
            self.taint.iter().filter(|k| matches!(k, Key::Mem { .. })).count()
        }
    }

    /// Random transfers, purges, commits and aborts of two threads, over
    /// a few registers and a few dozen bytes — around address zero, so
    /// that ranges wrap, straddle cells and overlap — leave the packed
    /// table and the hashed set with the same contents, sizes, peak,
    /// undo-log emptiness and escape flag after every step.
    #[test]
    fn packed_shadow_set_equals_the_hashed_set() {
        let mut rng = haft_ir::rng::Prng::new(11);
        let (mut fx, mut model) = (ForensicsState::new(2, true), Model::default());
        fx.phase = Phase::Tracking;
        for step in 0..20_000 {
            let (tid, in_tx) = (rng.below(2) as usize, rng.chance(0.5));
            let (depth, slot) = (1 + rng.below(3) as u32, rng.below(4) as u32);
            let (addr, len) = (rng.below(40).wrapping_sub(12), 1 << rng.below(4));
            let tainted = rng.chance(0.4);
            match rng.below(16) {
                0..=5 => {
                    fx.set_reg(tid, in_tx, depth, slot, tainted);
                    model.set(tid, in_tx, Key::Reg { tid, depth, slot }, tainted);
                }
                6..=11 => {
                    fx.set_mem(tid, in_tx, addr, len, tainted);
                    model.set_mem(tid, in_tx, addr, len, tainted);
                }
                12 => {
                    fx.purge(tid, in_tx, 32, reg_key(tid, depth, 0) >> 32);
                    let dead = |k: &Key| matches!(k, Key::Reg { tid: t, depth: d, .. } if (*t, *d) == (tid, depth));
                    model.purge(tid, in_tx, dead);
                }
                13 => {
                    fx.purge_thread(tid);
                    model.purge(tid, false, |k| matches!(k, Key::Reg { tid: t, .. } if *t == tid));
                    model.undo[tid].clear();
                }
                14 => {
                    fx.on_commit(tid);
                    model.undo[tid].clear();
                    model.escaped |= model.mem_bytes() > 0;
                }
                _ => {
                    fx.on_abort(tid, false, 0, 0);
                    model.abort(tid);
                    let drained = model.taint.is_empty() && model.undo.iter().all(|u| u.is_empty());
                    assert_eq!(matches!(fx.phase, Phase::Done), drained, "step {step}");
                    (fx.phase, fx.recording) = (Phase::Tracking, true);
                }
            }
            let sizes = [model.mem_bytes(), model.taint.len() - model.mem_bytes()];
            assert_eq!(fx.live.map(|n| n as usize), sizes, "step {step}");
            assert_eq!((fx.peak as usize, fx.escaped_to_memory), (model.peak, model.escaped));
            for t in 0..2 {
                assert_eq!(fx.undo[t].is_empty(), model.undo[t].is_empty(), "step {step}");
            }
            let reg = Key::Reg { tid, depth, slot };
            assert_eq!(fx.reg_tainted(tid, depth, slot), model.taint.contains(&reg), "step {step}");
            let bytes =
                |a: u64, n: u32| (0..n as u64).map(move |i| Key::Mem { addr: a.wrapping_add(i) });
            let any = bytes(addr, len).any(|k| model.taint.contains(&k));
            assert_eq!(fx.mem_tainted(addr, len), any, "step {step}: [{addr:#x}; {len}]");
        }
        assert!(model.peak > 20 && model.escaped, "the walk must get somewhere: {}", model.peak);
    }
}
