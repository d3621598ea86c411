//! The paper's Figure 5 chain: Correct / Crashed / Corrupted /
//! HAFT-correctable.

use crate::ctmc::Ctmc;

/// Fault-outcome probabilities (the paper's Table 4, measured by the
/// fault-injection campaigns).
#[derive(Clone, Copy, Debug)]
pub struct FaultProbabilities {
    pub masked: f64,
    pub sdc: f64,
    pub crashed: f64,
    pub haft_correctable: f64,
}

impl FaultProbabilities {
    /// Table 4, "Native" column.
    pub fn native_paper() -> Self {
        FaultProbabilities { masked: 0.613, sdc: 0.262, crashed: 0.125, haft_correctable: 0.0 }
    }

    /// Table 4, "ILR" column.
    pub fn ilr_paper() -> Self {
        FaultProbabilities { masked: 0.242, sdc: 0.008, crashed: 0.750, haft_correctable: 0.0 }
    }

    /// Table 4, "HAFT" column.
    pub fn haft_paper() -> Self {
        FaultProbabilities { masked: 0.242, sdc: 0.011, crashed: 0.077, haft_correctable: 0.670 }
    }
}

/// Recovery rates (1/mean-recovery-time, per second).
#[derive(Clone, Copy, Debug)]
pub struct RecoveryRates {
    /// Manual recovery from corruption (the paper: 6 hours, from the
    /// Amazon S3 incident report).
    pub manual: f64,
    /// Machine reboot (the paper: 10 seconds).
    pub reboot: f64,
    /// Transactional re-execution (the paper: 2.5 µs — a 5,000-instruction
    /// transaction on a 2 GHz core).
    pub tx: f64,
}

impl Default for RecoveryRates {
    fn default() -> Self {
        RecoveryRates { manual: 1.0 / (6.0 * 3600.0), reboot: 1.0 / 10.0, tx: 1.0 / 2.5e-6 }
    }
}

/// Which hardening variant a chain models.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SystemKind {
    Native,
    Ilr,
    Haft,
}

/// State indices of the chain.
const CORRECT: usize = 0;
#[expect(dead_code, reason = "named for documentation symmetry with the chain layout")]
const CRASHED: usize = 1;
const CORRUPTED: usize = 2;
const CORRECTABLE: usize = 3;

/// One point of Figure 10.
#[derive(Clone, Copy, Debug)]
pub struct AvailabilityPoint {
    /// Fault rate (faults/second).
    pub fault_rate: f64,
    /// Expected fraction of the horizon spent available (Correct, plus
    /// the microsecond-scale transactional recoveries).
    pub availability: f64,
    /// Expected fraction spent in the Corrupted state.
    pub corruption: f64,
}

/// The Figure 5 model for one system variant.
#[derive(Clone, Debug)]
pub struct HaftChain {
    pub probs: FaultProbabilities,
    pub rates: RecoveryRates,
}

impl HaftChain {
    /// Builds the chain for a paper-parameterized system.
    pub fn paper(kind: SystemKind) -> Self {
        let probs = match kind {
            SystemKind::Native => FaultProbabilities::native_paper(),
            SystemKind::Ilr => FaultProbabilities::ilr_paper(),
            SystemKind::Haft => FaultProbabilities::haft_paper(),
        };
        HaftChain { probs, rates: RecoveryRates::default() }
    }

    /// The CTMC for a given fault rate λ (faults/second). Masked faults
    /// are self-loops and do not appear as transitions.
    pub fn ctmc(&self, fault_rate: f64) -> Ctmc {
        let p = &self.probs;
        let r = &self.rates;
        #[rustfmt::skip]
        let rates = [
            // Correct ->            Crashed                 Corrupted             Correctable
            0.0,                     fault_rate * p.crashed, fault_rate * p.sdc,   fault_rate * p.haft_correctable,
            r.reboot,                0.0,                    0.0,                  0.0,
            r.manual,                0.0,                    0.0,                  0.0,
            r.tx,                    0.0,                    0.0,                  0.0,
        ];
        Ctmc::from_rates(4, &rates)
    }

    /// Evaluates one Figure 10 point over `horizon` seconds (the paper
    /// uses one hour), starting from the Correct state.
    pub fn evaluate(&self, fault_rate: f64, horizon: f64) -> AvailabilityPoint {
        let occ = self.ctmc(fault_rate).occupancy(&[1.0, 0.0, 0.0, 0.0], horizon);
        AvailabilityPoint {
            fault_rate,
            // The occupancies are exact up to rounding; clamp so that a
            // sum of 1 + 1 ulp does not print as 100.00000000000001 %.
            availability: (occ[CORRECT] + occ[CORRECTABLE]).clamp(0.0, 1.0),
            corruption: occ[CORRUPTED].clamp(0.0, 1.0),
        }
    }

    /// Sweeps fault rates log-uniformly, as Figure 10 does
    /// (0.00028 ≈ once an hour, up to once a second).
    pub fn sweep(&self, lo: f64, hi: f64, points: usize, horizon: f64) -> Vec<AvailabilityPoint> {
        (0..points)
            .map(|i| {
                let f = i as f64 / (points - 1).max(1) as f64;
                let rate = lo * (hi / lo).powf(f);
                self.evaluate(rate, horizon)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOUR: f64 = 3600.0;

    #[test]
    fn zero_ish_fault_rate_is_fully_available() {
        for kind in [SystemKind::Native, SystemKind::Ilr, SystemKind::Haft] {
            let p = HaftChain::paper(kind).evaluate(1e-9, HOUR);
            assert!(p.availability > 0.999, "{kind:?}: {p:?}");
            assert!(p.corruption < 1e-3);
        }
    }

    #[test]
    fn availability_decreases_with_fault_rate() {
        let chain = HaftChain::paper(SystemKind::Haft);
        let pts = chain.sweep(0.00028, 1.0, 8, HOUR);
        for w in pts.windows(2) {
            assert!(w[1].availability <= w[0].availability + 1e-9, "monotone: {pts:?}");
        }
    }

    #[test]
    fn native_corrupts_more_than_hardened() {
        // Figure 10 (right) ordering: native corrupts the most; the
        // hardened variants' 20-30x lower SDC probability keeps them
        // below it at every rate. (Magnitudes differ from the paper at
        // high rates: with a 6-hour manual repair, transient analysis
        // saturates once the first SDC lands within the hour; the
        // `availability-model/fig10-paper` table of REPRODUCTION.md shows
        // the curves.)
        for rate in [0.00028, 0.01, 0.1, 1.0] {
            let native = HaftChain::paper(SystemKind::Native).evaluate(rate, HOUR);
            let ilr = HaftChain::paper(SystemKind::Ilr).evaluate(rate, HOUR);
            let haft = HaftChain::paper(SystemKind::Haft).evaluate(rate, HOUR);
            assert!(ilr.corruption < native.corruption, "rate {rate}: {ilr:?}");
            assert!(haft.corruption < native.corruption, "rate {rate}: {haft:?}");
        }
        let native = HaftChain::paper(SystemKind::Native).evaluate(1.0, HOUR);
        assert!(native.corruption > 0.6, "{native:?}");
    }

    #[test]
    fn haft_beats_native_availability_everywhere() {
        let native = HaftChain::paper(SystemKind::Native);
        let haft = HaftChain::paper(SystemKind::Haft);
        for rate in [0.001, 0.01, 0.1, 1.0] {
            let n = native.evaluate(rate, HOUR);
            let h = haft.evaluate(rate, HOUR);
            assert!(h.availability > n.availability, "rate {rate}: {h:?} vs {n:?}");
        }
    }

    #[test]
    fn correctable_state_has_negligible_occupancy() {
        let chain = HaftChain::paper(SystemKind::Haft);
        let occ = chain.ctmc(1.0).occupancy(&[1.0, 0.0, 0.0, 0.0], HOUR);
        assert!(occ[CORRECTABLE] < 0.01, "{occ:?}");
    }

    #[test]
    fn sweep_is_log_spaced_and_covers_range() {
        let chain = HaftChain::paper(SystemKind::Haft);
        let pts = chain.sweep(0.00028, 1.0, 5, HOUR);
        assert_eq!(pts.len(), 5);
        assert!((pts[0].fault_rate - 0.00028).abs() < 1e-9);
        assert!((pts[4].fault_rate - 1.0).abs() < 1e-9);
        assert!(pts[1].fault_rate / pts[0].fault_rate > 2.0);
    }

    #[test]
    fn capped_recovery_reproduces_the_uniformized_fig10() {
        // The fast-mode `fig10-paper` rows of `report/availability-model.json`
        // as uniformization computed them, which needed transactional
        // recovery capped at 10²/s: per fault rate, available % then
        // corrupted %, each for native, ILR and HAFT.
        #[rustfmt::skip]
        const UNIFORMIZED: [[f64; 6]; 3] = [
            [88.47624507243155, 99.41189710207328, 99.45576903598372,
             11.49286463186781, 0.3799157420478906, 0.5228476139097757],
            [7.246332148378672, 73.11061446798593, 73.7212918862219,
             92.6021606452155, 17.735070510036415, 25.330907198394453],
            [0.12360112806991427, 3.613906550769063, 2.92512907323285,
             99.72195879652797, 69.30010980546521, 94.83840536729423],
        ];
        let rates = RecoveryRates { tx: 1e2, ..Default::default() };
        let sweeps = [SystemKind::Native, SystemKind::Ilr, SystemKind::Haft]
            .map(|kind| HaftChain { rates, ..HaftChain::paper(kind) }.sweep(0.00028, 1.0, 3, HOUR));
        for (i, want) in UNIFORMIZED.iter().enumerate() {
            let available = sweeps.iter().map(|s| s[i].availability);
            let got = available.chain(sweeps.iter().map(|s| s[i].corruption));
            for (k, (g, w)) in got.zip(want).enumerate() {
                assert!((100.0 * g - w).abs() < 1e-7, "row {i} column {k}: {} vs {w}", 100.0 * g);
            }
        }
    }

    #[test]
    fn occupancy_sums_to_one_at_every_sweep_point() {
        for kind in [SystemKind::Native, SystemKind::Ilr, SystemKind::Haft] {
            let chain = HaftChain::paper(kind);
            for pt in chain.sweep(0.00028, 1.0, 12, HOUR) {
                let occ = chain.ctmc(pt.fault_rate).occupancy(&[1.0, 0.0, 0.0, 0.0], HOUR);
                let sum: f64 = occ.iter().sum();
                assert!((sum - 1.0).abs() < 1e-12, "{kind:?} at {}: {occ:?}", pt.fault_rate);
            }
        }
    }
}
