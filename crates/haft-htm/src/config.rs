//! HTM simulator configuration.

/// Parameters of the simulated TSX implementation.
///
/// Defaults model the paper's Haswell testbed: 32 KB 8-way L1 with 64-byte
/// lines (64 sets), a ~1 MB read-set soft bound, and a timer-interrupt
/// budget of one million cycles (~0.3 ms at 2 GHz — the thresholds quoted
/// in §2.2 after which "more than 10 % of transactions abort").
#[derive(Clone, Debug)]
pub struct HtmConfig {
    /// Cache-line size in bytes.
    pub line_bytes: u64,
    /// Number of L1 sets.
    pub l1_sets: usize,
    /// L1 associativity; evicting a write-set way aborts.
    pub l1_ways: usize,
    /// Maximum distinct read-set lines before a capacity abort.
    pub read_set_lines: usize,
    /// Cycles a transaction may run before the timer interrupt aborts it.
    pub cycle_budget: u64,
    /// Probability of a spontaneous abort per 1000 transactional cycles
    /// (the residual "other" causes of Table 3).
    pub spontaneous_per_kcycle: f64,
    /// Hyper-threading: logical thread pairs `(2k, 2k+1)` share one L1.
    pub smt: bool,
}

impl Default for HtmConfig {
    fn default() -> Self {
        HtmConfig {
            line_bytes: 64,
            l1_sets: 64,
            l1_ways: 8,
            read_set_lines: 16 * 1024, // 1 MB of 64-byte lines.
            cycle_budget: 1_000_000,
            spontaneous_per_kcycle: 2e-4,
            smt: false,
        }
    }
}

impl HtmConfig {
    /// Checks the cache geometry: `line_bytes` and `l1_sets` must be
    /// non-zero powers of two (the system indexes lines and sets by shift
    /// and mask), `l1_ways` non-zero. The error names the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if !self.line_bytes.is_power_of_two() {
            return Err(format!(
                "line_bytes must be a non-zero power of two, got {}",
                self.line_bytes
            ));
        }
        if !self.l1_sets.is_power_of_two() {
            return Err(format!("l1_sets must be a non-zero power of two, got {}", self.l1_sets));
        }
        if self.l1_ways == 0 {
            return Err("l1_ways must be non-zero".to_string());
        }
        Ok(())
    }

    /// Returns the cache line containing `addr`. With
    /// [`HtmConfig::set_of`] and [`HtmConfig::lines_of_range`] this is the
    /// reference arithmetic; [`crate::Htm`] computes the same values by
    /// shift and mask, and the property tests hold the two equal.
    pub fn line_of(&self, addr: u64) -> u64 {
        addr / self.line_bytes
    }

    /// Returns the L1 set index of a line.
    pub fn set_of(&self, line: u64) -> usize {
        (line as usize) % self.l1_sets
    }

    /// Returns the lines covered by `[addr, addr + len)`.
    pub fn lines_of_range(&self, addr: u64, len: u64) -> impl Iterator<Item = u64> + '_ {
        let first = self.line_of(addr);
        let last = self.line_of(addr + len.max(1) - 1);
        first..=last
    }

    /// Returns the physical core hosting a logical thread.
    pub fn core_of(&self, tid: usize) -> usize {
        if self.smt {
            tid / 2
        } else {
            tid
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_models_haswell_l1() {
        let c = HtmConfig::default();
        assert_eq!(c.line_bytes * c.l1_sets as u64 * c.l1_ways as u64, 32 * 1024);
    }

    #[test]
    fn line_and_set_math() {
        let c = HtmConfig::default();
        assert_eq!(c.line_of(0), 0);
        assert_eq!(c.line_of(63), 0);
        assert_eq!(c.line_of(64), 1);
        assert_eq!(c.set_of(63), 63);
        assert_eq!(c.set_of(64), 0);
    }

    #[test]
    fn range_spanning_lines() {
        let c = HtmConfig::default();
        let lines: Vec<u64> = c.lines_of_range(60, 8).collect();
        assert_eq!(lines, vec![0, 1]);
        let one: Vec<u64> = c.lines_of_range(0, 1).collect();
        assert_eq!(one, vec![0]);
        let zero_len: Vec<u64> = c.lines_of_range(128, 0).collect();
        assert_eq!(zero_len, vec![2]);
    }

    #[test]
    fn validate_accepts_every_in_tree_geometry() {
        for (line_bytes, l1_sets, l1_ways) in
            [(64, 64, 8), (64, 1, 2), (64, 4, 4), (64, 1 << 14, 8), (32, 4, 1)]
        {
            let c = HtmConfig { line_bytes, l1_sets, l1_ways, ..Default::default() };
            assert_eq!(c.validate(), Ok(()));
        }
    }

    #[test]
    fn validate_rejects_zero_line_bytes() {
        let err = HtmConfig { line_bytes: 0, ..Default::default() }.validate().unwrap_err();
        assert!(err.contains("line_bytes"), "{err}");
    }

    #[test]
    fn validate_rejects_non_power_of_two_line_bytes() {
        let err = HtmConfig { line_bytes: 48, ..Default::default() }.validate().unwrap_err();
        assert!(err.contains("line_bytes") && err.contains("48"), "{err}");
    }

    #[test]
    fn validate_rejects_zero_sets() {
        let err = HtmConfig { l1_sets: 0, ..Default::default() }.validate().unwrap_err();
        assert!(err.contains("l1_sets"), "{err}");
    }

    #[test]
    fn validate_rejects_non_power_of_two_sets() {
        let err = HtmConfig { l1_sets: 48, ..Default::default() }.validate().unwrap_err();
        assert!(err.contains("l1_sets") && err.contains("48"), "{err}");
    }

    #[test]
    fn validate_rejects_zero_ways() {
        let err = HtmConfig { l1_ways: 0, ..Default::default() }.validate().unwrap_err();
        assert!(err.contains("l1_ways"), "{err}");
    }

    #[test]
    fn smt_pairs_share_cores() {
        let mut c = HtmConfig::default();
        assert_eq!(c.core_of(3), 3);
        c.smt = true;
        assert_eq!(c.core_of(0), 0);
        assert_eq!(c.core_of(1), 0);
        assert_eq!(c.core_of(2), 1);
        assert_eq!(c.core_of(3), 1);
    }
}
