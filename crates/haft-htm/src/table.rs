//! One open-addressed `u64 → V` table for every per-access map of the
//! simulator: the HTM's line table here, and the fused engine's
//! store-forwarding map and speculative write buffer and the forensics
//! shadow set in `haft-vm`.
//!
//! Keys are dense small integers (cache lines, 8-byte cells), so the home
//! slot is a Fibonacci multiply-shift — sequential keys spread with no
//! clustering — followed by a linear probe. A slot stores `key + 1`, so
//! zero marks an empty slot and a fresh `vec![default; n]` is an empty
//! table. The table doubles when an insert would take it past load one
//! half and never shrinks.
//!
//! Entries leave in one of two ways, chosen by `LOG` because they cannot
//! be mixed (a deletion moves entries, which a slot log would not see):
//!
//! * `LOG = true` keeps the occupied slot indices, for an `O(live)`
//!   [`clear`](OpenTable::clear) and [`drain`](OpenTable::drain) — maps
//!   that are emptied wholesale (per transaction, per phase).
//! * `LOG = false` offers [`remove`](OpenTable::remove) by backward
//!   shift, which leaves no tombstone: the table never outgrows twice the
//!   largest number of keys live at once, however many pass through.
//!
//! A clone holds the live keys, not the capacity: its slots are the
//! fewest that keep the load at most three quarters, so copying a table
//! that once held many keys costs what it holds now, and a copy that is
//! only kept (a checkpoint's) holds little more. Its first insert grows
//! it back to at most one half, as any insert past one half does. A
//! `LOG` table's clone keeps the keys' insertion order.
//!
//! Deterministic by construction (no per-process seed), which the
//! simulator wants; the keys come from the simulated program, not from
//! outside the process.

/// The table; see the module docs. `V::default()` is the value a key has
/// when [`entry`](OpenTable::entry) first inserts it.
#[derive(Debug, Default)]
pub struct OpenTable<V, const LOG: bool> {
    /// `(key + 1, value)`; key 0 marks an empty slot. Length zero or a
    /// power of two.
    slots: Vec<(u64, V)>,
    /// `64 - log2(slots.len())`: the multiply-shift's shift.
    shift: u32,
    live: usize,
    /// Occupied slot indices in insertion order (`LOG` only).
    used: Vec<u32>,
}

impl<V: Copy + Default, const LOG: bool> OpenTable<V, LOG> {
    /// An empty table; allocates on first insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of keys present.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no key is present.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slots allocated (diagnostics and tests: the growth bound).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Index of the slot holding `key`, or of the empty slot where it
    /// would go. The table must be allocated and not full.
    #[inline]
    fn slot_for(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key) & mask;
        loop {
            let k = self.slots[i].0;
            if k == 0 || k == key + 1 {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// The value of `key`, if present.
    #[inline]
    pub fn get(&self, key: u64) -> Option<V> {
        if self.live == 0 {
            return None;
        }
        let (k, v) = self.slots[self.slot_for(key)];
        (k != 0).then_some(v)
    }

    /// The value of `key` for update in place, if present.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        if self.live == 0 {
            return None;
        }
        let i = self.slot_for(key);
        let slot = &mut self.slots[i];
        (slot.0 != 0).then_some(&mut slot.1)
    }

    /// The value of `key`, inserted as `V::default()` if absent.
    #[inline]
    pub fn entry(&mut self, key: u64) -> &mut V {
        if (self.live + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let i = self.slot_for(key);
        let slot = &mut self.slots[i];
        if slot.0 == 0 {
            slot.0 = key + 1;
            self.live += 1;
            if LOG {
                self.used.push(i as u32);
            }
        }
        &mut slot.1
    }

    #[cold]
    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(64);
        let old = std::mem::replace(&mut self.slots, vec![(0, V::default()); cap]);
        self.shift = 64 - cap.trailing_zeros();
        self.used.clear();
        self.refill(old.into_iter().filter(|(k, _)| *k != 0));
    }

    /// Puts `entries` (stored keys, `key + 1`) into the empty slots of a
    /// table with room for them all, logging each slot in that order.
    fn refill(&mut self, entries: impl Iterator<Item = (u64, V)>) {
        for (k, v) in entries {
            let i = self.slot_for(k - 1);
            self.slots[i] = (k, v);
            if LOG {
                self.used.push(i as u32);
            }
        }
    }
}

impl<V: Copy + Default, const LOG: bool> OpenTable<V, LOG> {
    /// A copy holding the keys `keep` accepts, in the fewest slots that
    /// keep the load at most three quarters (none when it keeps no key);
    /// a `LOG` table's copy keeps their insertion order.
    pub fn retained(&self, mut keep: impl FnMut(u64, V) -> bool) -> Self {
        // Occupied slots: the log's, in order, or every nonempty one.
        let n = if LOG { self.used.len() } else { self.slots.len() };
        let entries = || {
            (0..n)
                .map(|j| self.slots[if LOG { self.used[j] as usize } else { j }])
                .filter(|(k, _)| *k != 0)
        };
        let live = entries().filter(|&(k, v)| keep(k - 1, v)).count();
        let cap = if live == 0 { 0 } else { (live + live / 3 + 1).next_power_of_two() };
        if live == self.live && cap == self.slots.len() {
            let (slots, used) = (self.slots.clone(), self.used.clone());
            return OpenTable { slots, shift: self.shift, live, used };
        }
        let mut t = OpenTable {
            slots: vec![(0, V::default()); cap],
            shift: 64 - cap.trailing_zeros(),
            live,
            used: Vec::with_capacity(if LOG { live } else { 0 }),
        };
        t.refill(entries().filter(|&(k, v)| keep(k - 1, v)));
        t
    }
}

impl<V: Copy + Default, const LOG: bool> Clone for OpenTable<V, LOG> {
    /// The live keys in the fewest slots that keep the load at most three
    /// quarters; see the module docs.
    fn clone(&self) -> Self {
        self.retained(|_, _| true)
    }
}

impl<V: Copy + Default> OpenTable<V, true> {
    /// Empties the table in `O(len)`, keeping its allocation.
    pub fn clear(&mut self) {
        self.drain(|_, _| {});
    }

    /// Hands every key and its value, for update in place, to `each`.
    pub fn for_each_mut(&mut self, mut each: impl FnMut(u64, &mut V)) {
        for &i in &self.used {
            let (k, v) = &mut self.slots[i as usize];
            each(*k - 1, v);
        }
    }

    /// Empties the table, handing every `(key, value)` to `each` in
    /// insertion order (unless the table grew in between).
    pub fn drain(&mut self, mut each: impl FnMut(u64, V)) {
        for &i in &self.used {
            let (k, v) = std::mem::take(&mut self.slots[i as usize]);
            each(k - 1, v);
        }
        self.used.clear();
        self.live = 0;
    }
}

impl<V: Copy + Default> OpenTable<V, false> {
    /// Removes `key` if present, closing the hole by backward shift: each
    /// later entry of the probe chain moves up unless that would put it
    /// before its home slot, so every remaining key is still found by a
    /// probe that stops at the first empty slot.
    pub fn remove(&mut self, key: u64) {
        if self.live == 0 {
            return;
        }
        let mask = self.slots.len() - 1;
        let mut hole = self.slot_for(key);
        if self.slots[hole].0 == 0 {
            return;
        }
        self.live -= 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let k = self.slots[j].0;
            if k == 0 {
                break;
            }
            // Cyclic distances back from `j`: the entry may move to the
            // hole iff its home is not in `(hole, j]`.
            let home = self.home(k - 1) & mask;
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[j];
                hole = j;
            }
        }
        self.slots[hole] = (0, V::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_get_overwrite_and_clear() {
        let mut t: OpenTable<u64, true> = OpenTable::new();
        assert_eq!(t.get(5), None);
        *t.entry(5) = 100;
        *t.entry(5) = 200;
        assert_eq!((t.get(5), t.len()), (Some(200), 1));
        for i in 0..300 {
            *t.entry(i) = i * 2;
        }
        assert!((0..300).all(|i| t.get(i) == Some(i * 2)), "survives growth");
        t.clear();
        assert!(t.is_empty() && t.get(5).is_none());
        assert_eq!(*t.entry(5), 0, "a cleared key comes back as the default");
    }

    #[test]
    fn drain_hands_out_every_pair_once() {
        let mut t: OpenTable<u64, true> = OpenTable::new();
        for i in 0..100u64 {
            *t.entry(i * 7) += i;
        }
        // In place: every pair is visited once, `get_mut` reaches one.
        t.for_each_mut(|k, v| *v += k);
        assert_eq!(t.get_mut(7), Some(&mut 8));
        assert_eq!(t.get_mut(8), None);
        assert!((0..100u64).all(|i| t.get(i * 7) == Some(i * 8)));
        t.for_each_mut(|k, v| *v -= k);
        let mut seen = Vec::new();
        t.drain(|k, v| seen.push((k, v)));
        seen.sort_unstable();
        assert_eq!(seen, (0..100u64).map(|i| (i * 7, i)).collect::<Vec<_>>());
        assert!(t.is_empty());
    }

    /// A clone of a table that once held many more keys has the fewest
    /// slots its live keys need, finds each of them, keeps a `LOG`
    /// table's insertion order, and grows and shrinks on like the table.
    #[test]
    fn a_clone_holds_the_live_keys_not_the_capacity() {
        let mut logged: OpenTable<u64, true> = OpenTable::new();
        let mut shifted: OpenTable<u64, false> = OpenTable::new();
        for i in 0..1_000u64 {
            *logged.entry(i) = i;
            *shifted.entry(i) = i;
        }
        logged.clear();
        (0..1_000).filter(|i| i % 20 != 0).for_each(|i| shifted.remove(i));
        for i in [17u64, 3, 999, 40] {
            *logged.entry(i) = i + 1;
        }
        assert_eq!((logged.capacity(), shifted.capacity()), (2048, 2048));
        let (mut a, mut b) = (logged.clone(), shifted.clone());
        assert_eq!((a.len(), a.capacity()), (4, 8));
        assert_eq!((b.len(), b.capacity()), (50, 128));
        let c = {
            let mut t = b.clone();
            (0..200).for_each(|i| t.remove(i));
            t.clone()
        };
        assert_eq!((c.len(), c.capacity()), (40, 64), "at most three quarters full");
        assert!((200..1_000).step_by(20).all(|i| c.get(i) == Some(i)));
        assert!((0..1_000u64).all(|i| b.get(i) == shifted.get(i) && a.get(i) == logged.get(i)));
        let (mut want, mut got) = (Vec::new(), Vec::new());
        logged.clone().drain(|k, v| want.push((k, v)));
        a.clone().drain(|k, v| got.push((k, v)));
        assert_eq!(got, [(17, 18), (3, 4), (999, 1000), (40, 41)]);
        assert_eq!(got, want, "insertion order");
        for i in 2_000..2_100u64 {
            *a.entry(i) = i;
            *b.entry(i) = i;
        }
        (0..1_000).for_each(|i| b.remove(i));
        assert!((2_000..2_100u64).all(|i| a.get(i) == Some(i) && b.get(i) == Some(i)));
        assert_eq!((a.len(), b.len()), (104, 100));
        let empty: OpenTable<u64, true> = OpenTable::new();
        assert_eq!(empty.clone().capacity(), 0);
        logged.clear();
        assert_eq!(logged.clone().capacity(), 0, "an emptied table's clone allocates nothing");
    }

    #[test]
    fn remove_keeps_the_rest_reachable_and_the_table_small() {
        let mut t: OpenTable<u64, false> = OpenTable::new();
        // A sliding window of 40 live keys over 10 000 inserts.
        for i in 0..10_000u64 {
            *t.entry(i) = i;
            if i >= 40 {
                t.remove(i - 40);
                t.remove(i - 40); // Absent: a no-op.
            }
            assert_eq!(t.get(i), Some(i));
            assert_eq!(t.get(i.saturating_sub(39)), Some(i.saturating_sub(39)));
        }
        assert_eq!(t.len(), 40);
        assert_eq!(t.capacity(), 128, "never past twice the live peak, rounded up");
        *t.get_mut(9_999).unwrap() = 1;
        assert_eq!(t.get(9_999), Some(1));
        assert!(t.get_mut(0).is_none());
    }
}
