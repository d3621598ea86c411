//! The benchmark's own arithmetic: the calibration kernel, the
//! quiet-round rule, the sum-of-per-cell-minimum estimator, and the
//! small statistics the metrics are built from.
//!
//! Why minima: the shared 2-vCPU hosts this runs on flip, for seconds to
//! tens of seconds at a time, between a quiet phase and one in which the
//! same interpreter code runs 1.6–2× slower (on-CPU time equals wall
//! time in both, so it is contention below the guest, not scheduling).
//! A mean or median of cell times follows the phase mix; the minimum
//! over rounds that are spread across the whole run does not, as long as
//! each cell meets one quiet moment. See README.md for the evidence.

use std::hint::black_box;
use std::time::Instant;

/// A round is *quiet* when its calibration speed is within this share of
/// the best calibration seen in the run.
pub const QUIET_SLACK: f64 = 0.10;

/// Never fewer rounds than this, whatever the time budget says.
pub const MIN_ROUNDS: usize = 5;

/// Share of `--seconds` spent on rounds unconditionally; the rest is
/// spent only while fewer than half the rounds were quiet.
pub const NOMINAL_SHARE: f64 = 0.85;

/// Iterations of the calibration kernel (≈10–20 ms on a 2 GHz core).
const CALIB_ITERS: u64 = 2_000_000;

/// Eight independent multiply-xorshift chains: wide enough that it loses
/// speed when the core's execution ports are shared, which is how the
/// interpreter under test is slowed too (a single dependent chain barely
/// notices). Returns millions of chain steps per second.
pub fn calibrate() -> f64 {
    let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let start = Instant::now();
    for i in 0..black_box(CALIB_ITERS) {
        for (j, x) in lanes.iter_mut().enumerate() {
            *x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i ^ j as u64);
            *x ^= *x >> 29;
        }
    }
    black_box(lanes);
    (CALIB_ITERS * 8) as f64 / start.elapsed().as_secs_f64() / 1e6
}

/// True when a round calibrated at `mops` counts as quiet against the
/// best calibration `best_mops`.
pub fn is_quiet(mops: f64, best_mops: f64) -> bool {
    mops >= best_mops * (1.0 - QUIET_SLACK)
}

/// Per-round quiet flags against the best calibration of the whole run.
pub fn quiet_flags(calib_mops: &[f64]) -> Vec<bool> {
    let best = calib_mops.iter().copied().fold(0.0, f64::max);
    calib_mops.iter().map(|&m| is_quiet(m, best)).collect()
}

/// How many rounds were quiet.
pub fn quiet_count(calib_mops: &[f64]) -> usize {
    quiet_flags(calib_mops).iter().filter(|&&q| q).count()
}

/// Whether to start another round: always up to [`MIN_ROUNDS`]; then
/// while the nominal share of the budget lasts; then, up to the full
/// budget, only while fewer than half the rounds so far were quiet.
pub fn keep_going(rounds: usize, quiet: usize, elapsed_s: f64, budget_s: f64) -> bool {
    if rounds < MIN_ROUNDS {
        return true;
    }
    if elapsed_s < budget_s * NOMINAL_SHARE {
        return true;
    }
    elapsed_s < budget_s && quiet * 2 < rounds
}

/// Host-time estimate for one pass over a workload: for every cell the
/// minimum over rounds, summed over cells. `samples[cell][round]`.
pub fn sum_of_min(samples: &[Vec<f64>]) -> f64 {
    samples.iter().map(|cell| min_of(cell)).sum()
}

/// Minimum of a non-empty sample list.
pub fn min_of(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of the samples taken in quiet rounds; the minimum of all
/// samples when fewer than three rounds were quiet (a median of one or
/// two quiet samples would be no steadier than the minimum).
pub fn quiet_median(samples: &[f64], quiet: &[bool]) -> f64 {
    let kept: Vec<f64> = samples.iter().zip(quiet).filter(|(_, &q)| q).map(|(&s, _)| s).collect();
    if kept.len() >= 3 {
        median(&kept)
    } else {
        min_of(samples)
    }
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty() && xs.iter().all(|&x| x > 0.0), "geomean needs positive values");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Failures counted against attempts, accumulated over rounds and checks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records `attempted` operations of which `failed` failed.
    pub fn add(&mut self, attempted: u64, failed: u64) {
        assert!(failed <= attempted, "{failed} failures out of {attempted} attempts");
        self.attempted += attempted;
        self.failed += failed;
    }

    /// One operation that either held or did not.
    pub fn check(&mut self, ok: bool) {
        self.add(1, u64::from(!ok));
    }

    /// Failed share of attempts (0 when nothing was attempted).
    pub fn share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_of_min_takes_each_cells_own_best_round() {
        // Cell 0 is fastest in round 2, cell 1 in round 0: the estimate
        // mixes rounds, which no single round's total can.
        let samples = vec![vec![3.0, 2.5, 1.0], vec![0.5, 0.9, 0.7]];
        assert_eq!(sum_of_min(&samples), 1.5);
        let round_totals = [3.5, 3.4, 1.7];
        assert!(sum_of_min(&samples) < min_of(&round_totals));
    }

    #[test]
    fn one_slow_phase_does_not_move_the_estimate() {
        let quiet = vec![vec![1.0, 1.01, 1.0], vec![2.0, 2.0, 2.02]];
        let mut noisy = quiet.clone();
        noisy[0].push(1.9);
        noisy[1].push(3.8);
        assert_eq!(sum_of_min(&quiet), sum_of_min(&noisy));
    }

    #[test]
    fn quiet_rule_is_ten_percent_of_the_best_seen() {
        assert!(is_quiet(100.0, 100.0));
        assert!(is_quiet(90.0, 100.0));
        assert!(!is_quiet(89.9, 100.0));
        assert_eq!(quiet_flags(&[50.0, 100.0, 95.0, 89.0]), [false, true, true, false]);
    }

    #[test]
    fn rounds_continue_until_minimum_budget_and_quiet_share() {
        // Below the minimum round count the clock is ignored.
        assert!(keep_going(4, 4, 1e9, 10.0));
        // Inside the nominal share rounds continue regardless of quiet.
        assert!(keep_going(5, 5, 8.4, 10.0));
        // Past it: stop when at least half the rounds were quiet ...
        assert!(!keep_going(10, 5, 8.6, 10.0));
        // ... continue when fewer were, but never past the budget.
        assert!(keep_going(10, 4, 8.6, 10.0));
        assert!(!keep_going(10, 0, 10.0, 10.0));
    }

    #[test]
    fn median_and_quiet_median() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let samples = [5.0, 1.0, 1.2, 1.1, 9.0];
        assert_eq!(quiet_median(&samples, &[false, true, true, true, false]), 1.1);
        // Too few quiet samples: fall back to the minimum of everything.
        assert_eq!(quiet_median(&samples, &[false, false, true, true, false]), 1.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.5]) - 1.5).abs() < 1e-12);
        let g = geomean(&[1.05, 2.4, 4.0]);
        assert!(g > 1.05 && g < 4.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.add(10_000, 0);
        t.check(true);
        t.check(false);
        t.add(8, 3);
        assert_eq!(t, Tally { attempted: 10_010, failed: 4 });
        assert!((t.share() - 4.0 / 10_010.0).abs() < 1e-15);
        assert_eq!(Tally::default().share(), 0.0);
    }

    #[test]
    fn calibration_reports_a_plausible_speed() {
        let mops = calibrate();
        assert!(mops.is_finite() && mops > 1.0, "{mops}");
    }
}
