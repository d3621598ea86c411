//! L1 set-associative occupancy model.
//!
//! Real TSX pins the write set in L1: a write-set line forced out of its
//! set aborts the transaction, while read-set lines can spill (they are
//! tracked by a secondary structure). We model each physical core's L1 as
//! per-set LRU rings of line tags; every access (transactional or not, and
//! from either hyper-thread of the core) touches the ring, and the model
//! reports which line — if any — was evicted. The HTM system then checks
//! the victim line against the resident transactions' write sets.

/// Per-core L1 occupancy tracker: one flat `sets × ways` tag array, each
/// set's resident lines packed at the front of its row in LRU → MRU
/// order.
#[derive(Clone, Debug)]
pub struct L1Model {
    tags: Vec<u64>,
    /// Resident lines per set.
    fill: Vec<u32>,
    ways: usize,
}

impl L1Model {
    /// Creates an empty L1 with `n_sets` sets of `ways` ways.
    pub fn new(n_sets: usize, ways: usize) -> Self {
        L1Model { tags: vec![0; n_sets * ways], fill: vec![0; n_sets], ways }
    }

    /// Records an access to `line` mapping to `set`, in one pass over the
    /// set; returns whether the line was resident before the access and
    /// the evicted line, if the access forced one out.
    #[inline]
    pub fn touch(&mut self, set: usize, line: u64) -> (bool, Option<u64>) {
        let n = self.fill[set] as usize;
        let row = &mut self.tags[set * self.ways..][..self.ways];
        // Already MRU (a loop walking one line): nothing moves.
        if n > 0 && row[n - 1] == line {
            return (true, None);
        }
        if let Some(pos) = row[..n].iter().position(|&l| l == line) {
            // MRU promotion.
            row.copy_within(pos + 1..n, pos);
            row[n - 1] = line;
            return (true, None);
        }
        if n < row.len() {
            row[n] = line;
            self.fill[set] += 1;
            return (false, None);
        }
        let evicted = row[0];
        row.copy_within(1.., 0);
        row[n - 1] = line;
        (false, Some(evicted))
    }

    /// Heap bytes the model holds (diagnostics).
    pub fn held_bytes(&self) -> usize {
        self.tags.len() * 8 + self.fill.len() * 4
    }

    /// Returns true if `line` is currently resident in `set`.
    pub fn resident(&self, set: usize, line: u64) -> bool {
        self.tags[set * self.ways..][..self.fill[set] as usize].contains(&line)
    }

    /// Number of resident lines in `set`.
    pub fn occupancy(&self, set: usize) -> usize {
        self.fill[set] as usize
    }

    /// Drops all resident lines (e.g. between independent experiments).
    pub fn clear(&mut self) {
        self.fill.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_up_to_ways_without_eviction() {
        let mut l1 = L1Model::new(4, 2);
        assert_eq!(l1.touch(0, 10), (false, None));
        assert_eq!(l1.touch(0, 20), (false, None));
        assert_eq!(l1.occupancy(0), 2);
        assert!(l1.resident(0, 10));
    }

    #[test]
    fn evicts_lru_line() {
        let mut l1 = L1Model::new(4, 2);
        l1.touch(0, 10);
        l1.touch(0, 20);
        // 10 is LRU; a third line evicts it.
        assert_eq!(l1.touch(0, 30), (false, Some(10)));
        assert!(!l1.resident(0, 10));
        assert!(l1.resident(0, 20));
        assert!(l1.resident(0, 30));
    }

    #[test]
    fn touch_promotes_to_mru() {
        let mut l1 = L1Model::new(4, 2);
        l1.touch(0, 10);
        l1.touch(0, 20);
        assert_eq!(l1.touch(0, 10), (true, None)); // Promote 10; now 20 is LRU.
        assert_eq!(l1.touch(0, 30), (false, Some(20)));
    }

    #[test]
    fn sets_are_independent() {
        let mut l1 = L1Model::new(4, 1);
        assert_eq!(l1.touch(0, 10), (false, None));
        assert_eq!(l1.touch(1, 20), (false, None));
        assert_eq!(l1.touch(0, 30), (false, Some(10)));
        assert!(l1.resident(1, 20));
    }

    #[test]
    fn clear_empties_all_sets() {
        let mut l1 = L1Model::new(2, 2);
        l1.touch(0, 1);
        l1.touch(1, 2);
        l1.clear();
        assert_eq!(l1.occupancy(0), 0);
        assert_eq!(l1.occupancy(1), 0);
    }
}
