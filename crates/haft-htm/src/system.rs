//! The HTM system: per-thread transactions, conflict detection, capacity.

use haft_ir::rng::Prng;

use crate::abort::AbortCause;
use crate::cache::L1Model;
use crate::config::HtmConfig;
use crate::stats::HtmStats;
use crate::table::OpenTable;

/// Whether an access reads or writes memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    Read,
    Write,
}

/// Per-thread transactional state. The read and write *sets* are this
/// thread's bits in the system's line table; the thread itself keeps only
/// the keys to find them again and how many of each it holds.
#[derive(Clone, Debug, Default)]
struct ThreadTx {
    active: bool,
    doomed: Option<AbortCause>,
    /// Every line carrying one of this thread's bits, once each.
    lines: Vec<u64>,
    n_read: usize,
    n_written: usize,
    start_cycle: u64,
}

/// Which transactions hold a line in their sets (bitmasks by thread id).
#[derive(Clone, Copy, Debug, Default)]
struct LineUsers {
    readers: u64,
    writers: u64,
}

/// The transactional-memory system shared by all simulated threads.
///
/// The system only decides *who aborts and why*; speculative data
/// buffering and register rollback are the VM's job. Aborts are delivered
/// asynchronously through a per-thread `doomed` flag, the way a real core
/// learns of a conflict from a coherence message: the victim discovers the
/// abort at its next instruction boundary.
///
/// All read and write sets live in one `line → {readers, writers}` table
/// ([`OpenTable`] with deletion), so a transactional access costs one
/// probe: the entry answers the conflict check, takes the requester's
/// bit, and says whether the line is new to its set. A line leaves the
/// table with the last transaction that holds it, so the table tracks the
/// live sets, not the program's footprint.
#[derive(Clone, Debug)]
pub struct Htm {
    cfg: HtmConfig,
    /// `log2(cfg.line_bytes)` and `cfg.l1_sets - 1`: line and set indices
    /// by shift and mask (both are powers of two, [`HtmConfig::validate`]).
    line_shift: u32,
    set_mask: u64,
    threads: Vec<ThreadTx>,
    cores: Vec<L1Model>,
    lines: OpenTable<LineUsers, false>,
    /// The immediately preceding `access` call, if nothing else mutated
    /// the system since. An identical repeat — the common case under ILR,
    /// where master and shadow touch the same line back to back — is
    /// fully idempotent (MRU re-touch, set re-insert, same conflict
    /// victims, all already applied) and by construction hits, so it can
    /// short-circuit without replaying the bookkeeping.
    last_access: Option<(usize, u64, u64, AccessKind)>,
    /// Number of threads currently inside a transaction. When zero,
    /// `access` skips conflict and read/write-set bookkeeping entirely.
    active_count: usize,
    /// Aggregate statistics.
    pub stats: HtmStats,
}

impl Htm {
    /// Creates a system for `n_threads` logical threads.
    ///
    /// # Panics
    ///
    /// Panics if the cache geometry fails [`HtmConfig::validate`].
    pub fn new(cfg: HtmConfig, n_threads: usize) -> Self {
        assert!(n_threads <= 64, "thread bitmasks are u64");
        if let Err(why) = cfg.validate() {
            panic!("invalid HtmConfig: {why}");
        }
        let n_cores = if cfg.smt { n_threads.div_ceil(2) } else { n_threads };
        Htm {
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: cfg.l1_sets as u64 - 1,
            threads: vec![ThreadTx::default(); n_threads],
            cores: (0..n_cores.max(1)).map(|_| L1Model::new(cfg.l1_sets, cfg.l1_ways)).collect(),
            lines: OpenTable::new(),
            last_access: None,
            active_count: 0,
            stats: HtmStats::default(),
            cfg,
        }
    }

    /// Returns the configuration.
    pub fn config(&self) -> &HtmConfig {
        &self.cfg
    }

    /// Returns true if `tid` is inside a transaction (`XTEST`).
    pub fn in_tx(&self, tid: usize) -> bool {
        self.threads[tid].active
    }

    /// Returns the pending asynchronous abort for `tid`, if any.
    #[inline]
    pub fn doomed(&self, tid: usize) -> Option<AbortCause> {
        self.threads[tid].doomed
    }

    /// Begins a transaction (`XBEGIN`).
    ///
    /// # Panics
    ///
    /// Panics if `tid` is already transactional (no nesting in this model;
    /// the TX pass never produces nested begins).
    pub fn begin(&mut self, tid: usize, now_cycles: u64) {
        let t = &mut self.threads[tid];
        assert!(!t.active, "nested transaction");
        t.active = true;
        t.doomed = None;
        t.start_cycle = now_cycles;
        self.active_count += 1;
        // The next access must re-run tracking now that a tx is live.
        self.last_access = None;
        self.stats.started += 1;
    }

    /// Commits the transaction of `tid` (`XEND`).
    ///
    /// Returns false (and treats the commit as an abort) if an
    /// asynchronous abort was already pending.
    pub fn commit(&mut self, tid: usize) -> bool {
        if let Some(cause) = self.threads[tid].doomed {
            self.abort(tid, cause);
            return false;
        }
        self.release_lines(tid);
        self.stats.commits += 1;
        true
    }

    /// Aborts the transaction of `tid` with `cause` (explicit `XABORT` or
    /// the delivery of a pending asynchronous abort).
    pub fn abort(&mut self, tid: usize, cause: AbortCause) {
        self.release_lines(tid);
        self.stats.record_abort(cause);
    }

    /// Records that a thread exhausted its retries and fell back to
    /// non-transactional execution.
    pub fn note_fallback(&mut self) {
        self.stats.fallbacks += 1;
    }

    /// Ends the transaction of `tid`: its bits leave the line table, and
    /// a line nobody else holds leaves with them.
    fn release_lines(&mut self, tid: usize) {
        // Released lines leave the tracking sets, so a repeated access is
        // no longer a no-op.
        self.last_access = None;
        let mask = !(1u64 << tid);
        let t = &mut self.threads[tid];
        for line in t.lines.drain(..) {
            let u = self.lines.get_mut(line).expect("a listed line is in the table");
            u.readers &= mask;
            u.writers &= mask;
            if u.readers | u.writers == 0 {
                self.lines.remove(line);
            }
        }
        (t.n_read, t.n_written) = (0, 0);
        t.active = false;
        t.doomed = None;
        self.active_count -= 1;
    }

    /// Registers a memory access by `tid` over `[addr, addr + len)`.
    ///
    /// Applies conflict detection (requester wins: victims are doomed, the
    /// requester proceeds), updates the requester's read/write set if it is
    /// transactional, and models L1 pressure — an evicted write-set line
    /// dooms its owner with a capacity abort.
    ///
    /// Returns true if every touched line was already L1-resident (the VM
    /// uses this to pick hit vs. miss latency).
    #[inline]
    pub fn access(&mut self, tid: usize, addr: u64, len: u64, kind: AccessKind) -> bool {
        // `HtmConfig::lines_of_range`, by shift instead of division
        // (this is the VM's hottest call).
        let first = addr >> self.line_shift;
        let last = (addr + len.max(1) - 1) >> self.line_shift;
        // Exact repeat of the previous access: every effect is already
        // applied and the lines were just made resident.
        if self.last_access == Some((tid, first, last, kind)) {
            return true;
        }
        self.access_lines(tid, first, last, kind)
    }

    /// [`Htm::access`] past its inlined front: lines `first..=last`, not
    /// a repeat of the previous call.
    #[inline(never)]
    fn access_lines(&mut self, tid: usize, first: u64, last: u64, kind: AccessKind) -> bool {
        self.last_access = Some((tid, first, last, kind));
        let core = self.cfg.core_of(tid);
        let mut all_hit = true;
        if self.active_count == 0 {
            // No transaction live anywhere: no conflict scan, no set
            // tracking, no eviction dooms. Only the cache model advances.
            for line in first..=last {
                all_hit &= self.cores[core].touch((line & self.set_mask) as usize, line).0;
            }
            return all_hit;
        }
        let self_bit = 1u64 << tid;
        for line in first..=last {
            let me = &self.threads[tid];
            if me.active && me.doomed.is_none() {
                // One probe: conflict check, then our own bit.
                let users = self.lines.entry(line);
                let held = *users;
                match kind {
                    AccessKind::Read => users.readers |= self_bit,
                    AccessKind::Write => users.writers |= self_bit,
                }
                self.doom_others(held, self_bit, kind);
                let me = &mut self.threads[tid];
                if (held.readers | held.writers) & self_bit == 0 {
                    me.lines.push(line);
                }
                match kind {
                    AccessKind::Read => me.n_read += (held.readers & self_bit == 0) as usize,
                    AccessKind::Write => me.n_written += (held.writers & self_bit == 0) as usize,
                }
                if me.n_read > self.cfg.read_set_lines {
                    self.doom(tid, AbortCause::Capacity);
                }
            } else if let Some(held) = self.lines.get(line) {
                // Not tracking (no transaction of our own, or it is
                // doomed already): conflict detection only.
                self.doom_others(held, self_bit, kind);
            }

            // L1 pressure: every access touches the core's cache; an
            // evicted line aborts any resident transaction holding it in
            // its *write* set (read lines may spill, as in TSX).
            let (hit, evicted) = self.cores[core].touch((line & self.set_mask) as usize, line);
            all_hit &= hit;
            if let Some(writers) = evicted.and_then(|e| self.lines.get(e)).map(|u| u.writers) {
                let peers = if self.cfg.smt { 0b11 << (core * 2) } else { 1 << core };
                for peer in iter_bits(writers & peers) {
                    self.doom(peer, AbortCause::Capacity);
                }
            }
        }
        all_hit
    }

    /// Requester wins: dooms every other transaction that holds a line
    /// (`held`) in a set a `kind` access conflicts with.
    #[inline]
    fn doom_others(&mut self, held: LineUsers, self_bit: u64, kind: AccessKind) {
        let others = match kind {
            AccessKind::Write => (held.readers | held.writers) & !self_bit,
            AccessKind::Read => held.writers & !self_bit,
        };
        for victim in iter_bits(others) {
            self.doom(victim, AbortCause::Conflict);
        }
    }

    fn doom(&mut self, tid: usize, cause: AbortCause) {
        let t = &mut self.threads[tid];
        if t.active && t.doomed.is_none() {
            t.doomed = Some(cause);
        }
    }

    /// Delivers time-based asynchronous aborts: the timer-interrupt budget
    /// and the residual spontaneous-abort rate, evaluated over the
    /// `delta_cycles` that elapsed since the last poll.
    pub fn poll_async(&mut self, tid: usize, now_cycles: u64, delta_cycles: u64, rng: &mut Prng) {
        let t = &self.threads[tid];
        if !t.active || t.doomed.is_some() {
            return;
        }
        if now_cycles.saturating_sub(t.start_cycle) > self.cfg.cycle_budget {
            self.doom(tid, AbortCause::Timer);
            return;
        }
        let p = self.cfg.spontaneous_per_kcycle * delta_cycles as f64 / 1000.0;
        if p > 0.0 && rng.chance(p.min(1.0)) {
            self.doom(tid, AbortCause::Spontaneous);
        }
    }

    /// Dooms `tid` for executing a transaction-unfriendly instruction.
    pub fn unfriendly(&mut self, tid: usize) {
        self.doom(tid, AbortCause::Unfriendly);
    }

    /// Current read/write-set sizes in lines (for tests and diagnostics).
    pub fn set_sizes(&self, tid: usize) -> (usize, usize) {
        (self.threads[tid].n_read, self.threads[tid].n_written)
    }

    /// Lines in the line table and the slots it has for them (tests and
    /// diagnostics: a clone has the fewest slots that hold its lines).
    pub fn line_table(&self) -> (usize, usize) {
        (self.lines.len(), self.lines.capacity())
    }

    /// Heap bytes this system holds: the line table's slots, the L1
    /// models and each thread's line list (diagnostics: what a copy of
    /// it costs).
    pub fn held_bytes(&self) -> usize {
        let l1 = self.cores.iter().map(L1Model::held_bytes).sum::<usize>();
        let listed = self.threads.iter().map(|t| t.lines.len()).sum::<usize>();
        self.lines.capacity() * std::mem::size_of::<(u64, LineUsers)>() + l1 + listed * 8
    }
}

fn iter_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if mask == 0 {
            None
        } else {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            Some(i)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn htm(n: usize) -> Htm {
        Htm::new(HtmConfig::default(), n)
    }

    #[test]
    fn begin_commit_cycle() {
        let mut h = htm(1);
        assert!(!h.in_tx(0));
        h.begin(0, 0);
        assert!(h.in_tx(0));
        h.access(0, 0, 8, AccessKind::Write);
        assert!(h.commit(0));
        assert!(!h.in_tx(0));
        assert_eq!(h.stats.commits, 1);
        assert_eq!(h.stats.started, 1);
    }

    #[test]
    fn remote_write_aborts_reader() {
        let mut h = htm(2);
        h.begin(0, 0);
        h.access(0, 128, 8, AccessKind::Read);
        // Thread 1 (non-transactional) writes the same line.
        h.access(1, 130, 4, AccessKind::Write);
        assert_eq!(h.doomed(0), Some(AbortCause::Conflict));
        // Commit fails and is recorded as an abort.
        assert!(!h.commit(0));
        assert_eq!(h.stats.aborts[&AbortCause::Conflict], 1);
        assert_eq!(h.stats.commits, 0);
    }

    #[test]
    fn remote_read_aborts_writer_only() {
        let mut h = htm(2);
        h.begin(0, 0);
        h.access(0, 0, 8, AccessKind::Write);
        h.begin(1, 0);
        h.access(1, 0, 8, AccessKind::Read);
        // Requester (1) wins; writer (0) is doomed.
        assert_eq!(h.doomed(0), Some(AbortCause::Conflict));
        assert_eq!(h.doomed(1), None);
    }

    #[test]
    fn readers_do_not_conflict_with_readers() {
        let mut h = htm(2);
        h.begin(0, 0);
        h.begin(1, 0);
        h.access(0, 0, 8, AccessKind::Read);
        h.access(1, 0, 8, AccessKind::Read);
        assert_eq!(h.doomed(0), None);
        assert_eq!(h.doomed(1), None);
        assert!(h.commit(0));
        assert!(h.commit(1));
    }

    #[test]
    fn write_set_eviction_capacity_aborts() {
        let cfg = HtmConfig { l1_sets: 1, l1_ways: 2, ..Default::default() };
        let mut h = Htm::new(cfg, 1);
        h.begin(0, 0);
        // Three distinct lines into a 2-way single-set cache: the first
        // write-set line is evicted.
        h.access(0, 0, 8, AccessKind::Write);
        h.access(0, 64, 8, AccessKind::Write);
        h.access(0, 128, 8, AccessKind::Write);
        assert_eq!(h.doomed(0), Some(AbortCause::Capacity));
    }

    #[test]
    fn read_set_eviction_does_not_abort() {
        let cfg = HtmConfig { l1_sets: 1, l1_ways: 2, ..Default::default() };
        let mut h = Htm::new(cfg, 1);
        h.begin(0, 0);
        h.access(0, 0, 8, AccessKind::Read);
        h.access(0, 64, 8, AccessKind::Read);
        h.access(0, 128, 8, AccessKind::Read);
        assert_eq!(h.doomed(0), None, "read lines may spill without aborting");
    }

    #[test]
    fn read_set_soft_bound_aborts() {
        let cfg = HtmConfig { read_set_lines: 4, ..Default::default() };
        let mut h = Htm::new(cfg, 1);
        h.begin(0, 0);
        for i in 0..6u64 {
            h.access(0, i * 64, 8, AccessKind::Read);
        }
        assert_eq!(h.doomed(0), Some(AbortCause::Capacity));
    }

    #[test]
    fn smt_neighbor_evictions_abort_partner() {
        let cfg = HtmConfig { l1_sets: 1, l1_ways: 2, smt: true, ..Default::default() };
        let mut h = Htm::new(cfg, 2);
        h.begin(0, 0);
        h.access(0, 0, 8, AccessKind::Write); // Line 0 in write set.

        // The hyper-thread partner streams through the shared set.
        h.access(1, 64, 8, AccessKind::Read);
        h.access(1, 128, 8, AccessKind::Read);
        assert_eq!(h.doomed(0), Some(AbortCause::Capacity));
    }

    #[test]
    fn without_smt_neighbor_traffic_is_isolated() {
        let cfg = HtmConfig { l1_sets: 1, l1_ways: 2, smt: false, ..Default::default() };
        let mut h = Htm::new(cfg, 2);
        h.begin(0, 0);
        h.access(0, 0, 8, AccessKind::Write);
        h.access(1, 64, 8, AccessKind::Read);
        h.access(1, 128, 8, AccessKind::Read);
        h.access(1, 192, 8, AccessKind::Read);
        assert_eq!(h.doomed(0), None);
    }

    #[test]
    fn timer_abort_after_budget() {
        let cfg = HtmConfig { cycle_budget: 1000, ..Default::default() };
        let mut h = Htm::new(cfg, 1);
        let mut rng = Prng::new(1);
        h.begin(0, 0);
        h.poll_async(0, 500, 500, &mut rng);
        assert_eq!(h.doomed(0), None);
        h.poll_async(0, 1500, 1000, &mut rng);
        assert_eq!(h.doomed(0), Some(AbortCause::Timer));
    }

    #[test]
    fn spontaneous_aborts_happen_at_configured_rate() {
        let cfg = HtmConfig { spontaneous_per_kcycle: 0.5, ..Default::default() };
        let mut h = Htm::new(cfg, 1);
        let mut rng = Prng::new(7);
        let mut doomed = 0;
        for _ in 0..200 {
            h.begin(0, 0);
            h.poll_async(0, 100, 1000, &mut rng);
            if h.doomed(0).is_some() {
                doomed += 1;
            }
            h.abort(0, AbortCause::Explicit);
        }
        // p = 0.5 per poll; expect ~100.
        assert!((60..140).contains(&doomed), "doomed = {doomed}");
    }

    #[test]
    fn abort_releases_lines() {
        let mut h = htm(2);
        h.begin(0, 0);
        h.access(0, 0, 8, AccessKind::Write);
        h.abort(0, AbortCause::Explicit);
        // Thread 1 can now write the line without dooming anyone.
        h.begin(1, 0);
        h.access(1, 0, 8, AccessKind::Write);
        assert_eq!(h.doomed(1), None);
        assert!(h.commit(1));
    }

    #[test]
    fn unfriendly_dooms_only_active() {
        let mut h = htm(1);
        h.unfriendly(0);
        assert_eq!(h.doomed(0), None, "no active transaction to doom");
        h.begin(0, 0);
        h.unfriendly(0);
        assert_eq!(h.doomed(0), Some(AbortCause::Unfriendly));
    }

    #[test]
    #[should_panic(expected = "nested transaction")]
    fn nested_begin_panics() {
        let mut h = htm(1);
        h.begin(0, 0);
        h.begin(0, 0);
    }

    #[test]
    fn set_sizes_report_lines_not_bytes() {
        let mut h = htm(1);
        h.begin(0, 0);
        h.access(0, 0, 8, AccessKind::Read);
        h.access(0, 8, 8, AccessKind::Read); // Same line.
        h.access(0, 64, 8, AccessKind::Write);
        assert_eq!(h.set_sizes(0), (1, 1));
    }
}
