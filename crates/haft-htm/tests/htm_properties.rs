//! Property tests on the HTM system's accounting and isolation
//! invariants under random access sequences, and on the cache model, the
//! line table and the shift/mask line arithmetic against their
//! references.

use std::collections::{BTreeSet, HashMap};

use haft_htm::cache::L1Model;
use haft_htm::table::OpenTable;
use haft_htm::{AbortCause, AccessKind, Htm, HtmConfig};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Act {
    Begin(u8),
    Commit(u8),
    ExplicitAbort(u8),
    Read(u8, u16),
    Write(u8, u16),
}

fn act_strategy(threads: u8) -> impl Strategy<Value = Act> {
    prop_oneof![
        (0..threads).prop_map(Act::Begin),
        (0..threads).prop_map(Act::Commit),
        (0..threads).prop_map(Act::ExplicitAbort),
        (0..threads, any::<u16>()).prop_map(|(t, a)| Act::Read(t, a)),
        (0..threads, any::<u16>()).prop_map(|(t, a)| Act::Write(t, a)),
    ]
}

/// The cache model as it was before the single pass: `resident`, then a
/// remove/push `touch`. Kept here as the reference.
struct RefL1 {
    sets: Vec<Vec<u64>>,
    ways: usize,
}

impl RefL1 {
    fn new(n_sets: usize, ways: usize) -> Self {
        RefL1 { sets: vec![Vec::new(); n_sets], ways }
    }

    fn resident(&self, set: usize, line: u64) -> bool {
        self.sets[set].contains(&line)
    }

    fn touch(&mut self, set: usize, line: u64) -> Option<u64> {
        let s = &mut self.sets[set];
        if let Some(pos) = s.iter().position(|&l| l == line) {
            let l = s.remove(pos);
            s.push(l);
            return None;
        }
        let evicted = if s.len() == self.ways { Some(s.remove(0)) } else { None };
        s.push(line);
        evicted
    }
}

#[derive(Clone, Default)]
struct RefTx {
    active: bool,
    doomed: Option<AbortCause>,
    reads: BTreeSet<u64>,
    writes: BTreeSet<u64>,
}

/// The HTM system written the slow way: lines and sets from
/// [`HtmConfig::lines_of_range`] and [`HtmConfig::set_of`] (division and
/// remainder), conflicts found by scanning every other thread's sets,
/// residency asked before the touch, no repeat-access or no-transaction
/// shortcut.
struct RefHtm {
    cfg: HtmConfig,
    threads: Vec<RefTx>,
    cores: Vec<RefL1>,
}

impl RefHtm {
    fn new(cfg: HtmConfig, n_threads: usize) -> Self {
        let n_cores = if cfg.smt { n_threads.div_ceil(2) } else { n_threads };
        RefHtm {
            threads: vec![RefTx::default(); n_threads],
            cores: (0..n_cores).map(|_| RefL1::new(cfg.l1_sets, cfg.l1_ways)).collect(),
            cfg,
        }
    }

    fn doom(&mut self, tid: usize, cause: AbortCause) {
        let t = &mut self.threads[tid];
        if t.active && t.doomed.is_none() {
            t.doomed = Some(cause);
        }
    }

    fn begin(&mut self, tid: usize) {
        self.threads[tid] = RefTx { active: true, ..Default::default() };
    }

    /// Commit and abort alike: the transaction ends and its lines go.
    fn end(&mut self, tid: usize) {
        self.threads[tid] = RefTx::default();
    }

    fn access(&mut self, tid: usize, addr: u64, len: u64, kind: AccessKind) -> bool {
        let core = self.cfg.core_of(tid);
        let lines: Vec<u64> = self.cfg.lines_of_range(addr, len).collect();
        let mut all_hit = true;
        for line in lines {
            let set = self.cfg.set_of(line);
            all_hit &= self.cores[core].resident(set, line);
            for other in (0..self.threads.len()).filter(|&o| o != tid) {
                let t = &self.threads[other];
                let clash = match kind {
                    AccessKind::Write => t.reads.contains(&line) || t.writes.contains(&line),
                    AccessKind::Read => t.writes.contains(&line),
                };
                if clash {
                    self.doom(other, AbortCause::Conflict);
                }
            }
            let me = &mut self.threads[tid];
            if me.active && me.doomed.is_none() {
                match kind {
                    AccessKind::Read => me.reads.insert(line),
                    AccessKind::Write => me.writes.insert(line),
                };
                if me.reads.len() > self.cfg.read_set_lines {
                    self.doom(tid, AbortCause::Capacity);
                }
            }
            if let Some(evicted) = self.cores[core].touch(set, line) {
                for peer in 0..self.threads.len() {
                    if self.cfg.core_of(peer) == core
                        && self.threads[peer].writes.contains(&evicted)
                    {
                        self.doom(peer, AbortCause::Capacity);
                    }
                }
            }
        }
        all_hit
    }
}

/// One step of the reference comparison.
#[derive(Clone, Debug)]
enum RefAct {
    Begin(u8),
    Commit(u8),
    Abort(u8),
    /// Thread, address seed, log2 of the length in bytes, and whether it
    /// writes. Addresses are unaligned, so an access may straddle a line.
    Access(u8, u16, u8, bool),
}

fn ref_act_strategy(threads: u8) -> impl Strategy<Value = RefAct> {
    prop_oneof![
        (0..threads).prop_map(RefAct::Begin),
        (0..threads).prop_map(RefAct::Commit),
        (0..threads).prop_map(RefAct::Abort),
        // Twice, so that two acts in five are accesses.
        (0..threads, any::<u16>(), 0u8..4, any::<bool>())
            .prop_map(|(t, a, l, w)| RefAct::Access(t, a, l, w)),
        (0..threads, any::<u16>(), 0u8..4, any::<bool>())
            .prop_map(|(t, a, l, w)| RefAct::Access(t, a, l, w)),
    ]
}

/// A stretch of cache touches: one line, the same line several times
/// over (the MRU early-out), or more distinct lines of one set than any
/// associativity in use holds (fill it, then evict all the way round).
#[derive(Clone, Debug)]
enum Touches {
    One(u64),
    Repeat(u64, u8),
    Sweep(u64, u64),
}

fn touches_strategy() -> impl Strategy<Value = Touches> {
    prop_oneof![
        (0u64..48).prop_map(Touches::One),
        (0u64..48).prop_map(Touches::One),
        (0u64..48, 2u8..5).prop_map(|(l, n)| Touches::Repeat(l, n)),
        (0u64..4, 0u64..6).prop_map(|(set, from)| Touches::Sweep(set, from)),
    ]
}

/// One step against the line table, keyed like `Htm` keys it.
#[derive(Clone, Debug)]
enum LineOp {
    /// Set reader and writer bits of a line (at least one).
    Set(u64, u64, u64),
    /// Clear bits of a line; it leaves the table with its last bit.
    Clear(u64, u64),
    Lookup(u64),
}

/// Keys whose home slot, at the table's first capacity of 64, is one of
/// the last three: their probe chains run off the end and wrap.
fn tail_keys() -> Vec<u64> {
    (0u64..4096).filter(|k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58 >= 61).collect()
}

fn line_op_strategy() -> impl Strategy<Value = LineOp> {
    // Narrow (long chains, deletions in their middle), tail (chains that
    // wrap), wide (growth).
    let key = || {
        prop_oneof![
            0u64..40,
            (0usize..24).prop_map(|i| tail_keys()[i]),
            (0usize..24).prop_map(|i| tail_keys()[i]),
            0u64..4096,
        ]
    };
    prop_oneof![
        (key(), any::<u64>(), any::<u64>()).prop_map(|(k, r, w)| LineOp::Set(k, r | 1, w)),
        (key(), any::<u64>(), any::<u64>()).prop_map(|(k, r, w)| LineOp::Set(k, r, w | 2)),
        // Often every bit at once: that is how a line leaves.
        (key(), any::<u64>(), any::<bool>())
            .prop_map(|(k, m, all)| LineOp::Clear(k, if all { u64::MAX } else { m })),
        key().prop_map(|k| LineOp::Clear(k, u64::MAX)),
        key().prop_map(LineOp::Lookup),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The open-addressed line table equals a `HashMap` under set-bits,
    /// clear-bits (with removal of an all-zero line) and lookups: after
    /// every step the touched key reads the same and the sizes agree;
    /// at the end every key does, and the table is no larger than twice
    /// the most lines ever live at once calls for.
    #[test]
    fn line_table_equals_a_hash_map(
        ops in proptest::collection::vec(line_op_strategy(), 1..1500),
    ) {
        let mut table: OpenTable<(u64, u64), false> = OpenTable::new();
        let mut model: HashMap<u64, (u64, u64)> = HashMap::new();
        let mut peak = 0;
        for op in &ops {
            let key = match *op {
                LineOp::Set(k, r, w) => {
                    let (e, m) = (table.entry(k), model.entry(k).or_default());
                    (e.0, e.1, m.0, m.1) = (e.0 | r, e.1 | w, m.0 | r, m.1 | w);
                    k
                }
                LineOp::Clear(k, mask) => {
                    if let Some(m) = model.get_mut(&k) {
                        let e = table.get_mut(k).expect("the model has the key");
                        (e.0, e.1, m.0, m.1) = (e.0 & !mask, e.1 & !mask, m.0 & !mask, m.1 & !mask);
                        if *m == (0, 0) {
                            model.remove(&k);
                            table.remove(k);
                        }
                    } else {
                        prop_assert!(table.get_mut(k).is_none());
                        table.remove(k);
                    }
                    k
                }
                LineOp::Lookup(k) => k,
            };
            prop_assert_eq!(table.get(key), model.get(&key).copied(), "key {} after {:?}", key, op);
            prop_assert_eq!(table.len(), model.len());
            peak = peak.max(model.len());
        }
        for k in (0..4096).chain(tail_keys()) {
            prop_assert_eq!(table.get(k), model.get(&k).copied(), "key {} at the end", k);
        }
        prop_assert!(table.capacity() <= (2 * (peak + 1)).next_power_of_two().max(64),
            "{} slots for a peak of {} lines", table.capacity(), peak);
    }

    /// The single-pass cache step equals `resident` followed by the
    /// remove/push `touch`, for every associativity in use — through
    /// MRU repeats and whole-set evictions too.
    #[test]
    fn single_pass_touch_equals_resident_then_touch(
        touches in proptest::collection::vec(touches_strategy(), 1..300),
    ) {
        let lines: Vec<u64> = touches
            .iter()
            .flat_map(|t| match *t {
                Touches::One(line) => vec![line],
                Touches::Repeat(line, n) => vec![line; n as usize],
                // Nine lines of one set, then the first again: evicted
                // by now at every associativity.
                Touches::Sweep(set, from) => {
                    (from..from + 9).chain([from]).map(|i| set + 4 * i).collect()
                }
            })
            .collect();
        for ways in [1usize, 2, 8] {
            let mut l1 = L1Model::new(4, ways);
            let mut reference = RefL1::new(4, ways);
            for &line in &lines {
                let set = (line % 4) as usize;
                let expected = (reference.resident(set, line), reference.touch(set, line));
                prop_assert_eq!(l1.touch(set, line), expected, "ways {} line {}", ways, line);
                prop_assert_eq!(l1.occupancy(set), reference.sets[set].len());
            }
        }
    }

    /// `Htm::access` by shift and mask equals the reference by division:
    /// same hit/miss answer, same dooms in the same order (first cause
    /// sticks), same read- and write-set sizes, on every geometry in use,
    /// hyper-threading on and off, including accesses that straddle a line.
    #[test]
    fn access_equals_the_division_reference(
        acts in proptest::collection::vec(ref_act_strategy(4), 1..300),
        ways_pick in 0usize..3,
        small_read_set in any::<bool>(),
    ) {
        for (line_bytes, l1_sets) in [(64u64, 64usize), (32, 4), (64, 1), (64, 1 << 14)] {
            for smt in [false, true] {
                let cfg = HtmConfig {
                    line_bytes,
                    l1_sets,
                    l1_ways: [1, 2, 8][ways_pick],
                    read_set_lines: if small_read_set { 4 } else { 16 * 1024 },
                    smt,
                    ..Default::default()
                };
                // Twice the cache, so sets fill and evict.
                let span = (line_bytes * l1_sets as u64 * cfg.l1_ways as u64 * 2).min(1 << 16);
                let mut htm = Htm::new(cfg.clone(), 4);
                let mut reference = RefHtm::new(cfg, 4);
                for act in &acts {
                    match *act {
                        RefAct::Begin(t) => {
                            let t = t as usize;
                            if !htm.in_tx(t) {
                                htm.begin(t, 0);
                                reference.begin(t);
                            }
                        }
                        RefAct::Commit(t) => {
                            let t = t as usize;
                            if htm.in_tx(t) {
                                let doomed = reference.threads[t].doomed.is_some();
                                prop_assert_eq!(htm.commit(t), !doomed);
                                reference.end(t);
                            }
                        }
                        RefAct::Abort(t) => {
                            let t = t as usize;
                            if htm.in_tx(t) {
                                htm.abort(t, AbortCause::Explicit);
                                reference.end(t);
                            }
                        }
                        RefAct::Access(t, seed, len_log2, write) => {
                            let kind = if write { AccessKind::Write } else { AccessKind::Read };
                            let (addr, len) = (seed as u64 % span, 1u64 << len_log2);
                            prop_assert_eq!(
                                htm.access(t as usize, addr, len, kind),
                                reference.access(t as usize, addr, len, kind),
                                "hit/miss of {:?} at {} len {} ({} B x {} sets, smt {})",
                                kind, addr, len, line_bytes, l1_sets, smt
                            );
                        }
                    }
                    for t in 0..4 {
                        let r = &reference.threads[t];
                        prop_assert_eq!(htm.doomed(t), r.doomed, "doom of thread {}", t);
                        prop_assert_eq!(htm.set_sizes(t), (r.reads.len(), r.writes.len()));
                    }
                }
            }
        }
    }

    /// Every started transaction ends exactly once: started == commits +
    /// aborts, and no thread is left with a pending doom after its
    /// transaction ends.
    #[test]
    fn accounting_balances(acts in proptest::collection::vec(act_strategy(4), 1..200)) {
        let mut htm = Htm::new(HtmConfig::default(), 4);
        for act in &acts {
            match *act {
                Act::Begin(t) => {
                    let t = t as usize;
                    if !htm.in_tx(t) {
                        htm.begin(t, 0);
                    }
                }
                Act::Commit(t) => {
                    let t = t as usize;
                    if htm.in_tx(t) {
                        htm.commit(t);
                        prop_assert!(htm.doomed(t).is_none());
                    }
                }
                Act::ExplicitAbort(t) => {
                    let t = t as usize;
                    if htm.in_tx(t) {
                        htm.abort(t, haft_htm::AbortCause::Explicit);
                        prop_assert!(htm.doomed(t).is_none());
                    }
                }
                Act::Read(t, a) => {
                    htm.access(t as usize, a as u64 * 8, 8, AccessKind::Read);
                }
                Act::Write(t, a) => {
                    htm.access(t as usize, a as u64 * 8, 8, AccessKind::Write);
                }
            }
        }
        // Close everything out.
        for t in 0..4 {
            if htm.in_tx(t) {
                htm.abort(t, haft_htm::AbortCause::Explicit);
            }
        }
        let s = &htm.stats;
        prop_assert_eq!(s.started, s.commits + s.total_aborts(),
            "started {} != commits {} + aborts {}", s.started, s.commits, s.total_aborts());
    }

    /// Isolation: if two live transactions touched the same line and at
    /// least one wrote it, at least one of them is doomed.
    #[test]
    fn conflicting_writers_never_both_survive(line in 0u64..64, reader_first in any::<bool>()) {
        let mut htm = Htm::new(HtmConfig::default(), 2);
        htm.begin(0, 0);
        htm.begin(1, 0);
        let addr = line * 64;
        if reader_first {
            htm.access(0, addr, 8, AccessKind::Read);
            htm.access(1, addr, 8, AccessKind::Write);
        } else {
            htm.access(0, addr, 8, AccessKind::Write);
            htm.access(1, addr, 8, AccessKind::Write);
        }
        prop_assert!(htm.doomed(0).is_some() || htm.doomed(1).is_some());
    }

    /// Disjoint lines never conflict, regardless of interleaving.
    #[test]
    fn disjoint_transactions_commit(offsets in proptest::collection::vec(0u64..1000, 1..30)) {
        let mut htm = Htm::new(HtmConfig { l1_sets: 1 << 14, ..Default::default() }, 2);
        htm.begin(0, 0);
        htm.begin(1, 0);
        for (i, off) in offsets.iter().enumerate() {
            // Thread 0 in even lines, thread 1 in odd lines: disjoint.
            let base = off * 128;
            if i % 2 == 0 {
                htm.access(0, base, 8, AccessKind::Write);
            } else {
                htm.access(1, base + 64, 8, AccessKind::Write);
            }
        }
        prop_assert!(htm.doomed(0).is_none(), "{:?}", htm.doomed(0));
        prop_assert!(htm.doomed(1).is_none(), "{:?}", htm.doomed(1));
        prop_assert!(htm.commit(0));
        prop_assert!(htm.commit(1));
    }

    /// Capacity: writing more distinct same-set lines than the
    /// associativity always aborts; staying within it never does.
    #[test]
    fn capacity_boundary_is_exact(extra in 0usize..4) {
        let cfg = HtmConfig { l1_sets: 4, l1_ways: 4, ..Default::default() };
        let sets = cfg.l1_sets as u64;
        let mut htm = Htm::new(cfg, 1);
        htm.begin(0, 0);
        let n = 4 + extra;
        for i in 0..n {
            // All map to set 0.
            htm.access(0, i as u64 * 64 * sets, 8, AccessKind::Write);
        }
        if extra == 0 {
            prop_assert!(htm.doomed(0).is_none());
        } else {
            prop_assert_eq!(htm.doomed(0), Some(haft_htm::AbortCause::Capacity));
        }
    }
}
