//! Outcome classification (the paper's Table 1).

use haft_vm::{RunOutcome, RunResult, Settlement};

/// Classification of one fault-injection run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Outcome {
    /// The program exceeded its budget (unresponsive).
    Hang,
    /// The OS terminated the program (trap).
    OsDetected,
    /// An ILR check fired and the program fail-stopped
    /// (no transaction to roll back, or retries exhausted).
    IlrDetected,
    /// An ILR check fired inside a transaction, the rollback re-executed
    /// cleanly, and the output is correct.
    HaftCorrected,
    /// A majority vote observed a divergent copy and masked the fault in
    /// place (the TMR backend), and the output is correct — corrected by
    /// masking, with no rollback involved.
    VoteCorrected,
    /// A checksum verify-and-correct observed one divergent lane and
    /// reconstructed the value from the other two (the ABFT backend),
    /// and the output is correct.
    ChecksumCorrected,
    /// The fault had no effect on the output.
    Masked,
    /// Silent data corruption: the run completed with wrong output.
    Sdc,
}

impl Outcome {
    /// The paper's three summary groups (Table 1's right column).
    pub fn group(self) -> Group {
        match self {
            Outcome::Hang | Outcome::OsDetected | Outcome::IlrDetected => Group::Crashed,
            Outcome::HaftCorrected
            | Outcome::VoteCorrected
            | Outcome::ChecksumCorrected
            | Outcome::Masked => Group::Correct,
            Outcome::Sdc => Group::Corrupted,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Hang => "hang",
            Outcome::OsDetected => "os-detected",
            Outcome::IlrDetected => "ilr-detected",
            Outcome::HaftCorrected => "haft-corrected",
            Outcome::VoteCorrected => "vote-corrected",
            Outcome::ChecksumCorrected => "checksum-corrected",
            Outcome::Masked => "masked",
            Outcome::Sdc => "sdc",
        }
    }

    /// All outcomes, in reporting order.
    pub const ALL: [Outcome; 8] = [
        Outcome::Hang,
        Outcome::OsDetected,
        Outcome::IlrDetected,
        Outcome::HaftCorrected,
        Outcome::VoteCorrected,
        Outcome::ChecksumCorrected,
        Outcome::Masked,
        Outcome::Sdc,
    ];

    /// Stable dotted name in the unified metrics registry
    /// (`faults.outcome.<label>`); pinned by the haft-trace schema test.
    pub fn metric_name(self) -> &'static str {
        match self {
            Outcome::Hang => "faults.outcome.hang",
            Outcome::OsDetected => "faults.outcome.os-detected",
            Outcome::IlrDetected => "faults.outcome.ilr-detected",
            Outcome::HaftCorrected => "faults.outcome.haft-corrected",
            Outcome::VoteCorrected => "faults.outcome.vote-corrected",
            Outcome::ChecksumCorrected => "faults.outcome.checksum-corrected",
            Outcome::Masked => "faults.outcome.masked",
            Outcome::Sdc => "faults.outcome.sdc",
        }
    }
}

/// Availability groups.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Group {
    Crashed,
    Correct,
    Corrupted,
}

impl Group {
    /// Stable dotted name in the unified metrics registry
    /// (`faults.group.<label>`); pinned by the haft-trace schema test.
    pub fn metric_name(self) -> &'static str {
        match self {
            Group::Crashed => "faults.group.crashed",
            Group::Correct => "faults.group.correct",
            Group::Corrupted => "faults.group.corrupted",
        }
    }
}

/// Classifies one injected run against the golden reference.
pub fn classify(run: &RunResult, golden: &[u64]) -> Outcome {
    match run.outcome {
        RunOutcome::Hang => Outcome::Hang,
        RunOutcome::Trapped(_) => Outcome::OsDetected,
        RunOutcome::Detected => Outcome::IlrDetected,
        RunOutcome::Completed if run.output == golden => {
            correct(run.recoveries, run.corrected_by_vote, run.corrected_by_checksum)
        }
        RunOutcome::Completed => Outcome::Sdc,
    }
}

/// Classifies an injection run that settled
/// ([`haft_vm::Vm::run_to_settlement`]): what is left of it is the
/// fault-free run under another schedule, so it completes with the golden
/// output, and [`classify`] would say what its counters say.
pub fn classify_settled(run: &Settlement) -> Outcome {
    correct(run.recoveries, run.corrected_by_vote, run.corrected_by_checksum)
}

/// A completed run with the golden output, by the mechanism that fired:
/// rollback before vote before checksum, the costliest event first.
fn correct(recoveries: u64, corrected_by_vote: u64, corrected_by_checksum: u64) -> Outcome {
    if recoveries > 0 {
        Outcome::HaftCorrected
    } else if corrected_by_vote > 0 {
        Outcome::VoteCorrected
    } else if corrected_by_checksum > 0 {
        Outcome::ChecksumCorrected
    } else {
        Outcome::Masked
    }
}

/// Outcome of one *request* inside a service batch run — the per-request
/// refinement of [`Outcome`], which only knows whole runs. A service
/// harness cares about a different axis than Table 1: did each client get
/// a correct reply, and at what cost?
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RequestOutcome {
    /// Correct reply from an undisturbed run.
    Served,
    /// Correct reply from a run that fired a recovery mechanism
    /// (transactional rollback or majority-vote masking) — served, but
    /// the batch paid the recovery latency.
    ServedCorrected,
    /// The run completed but this request's reply is wrong: silent data
    /// corruption delivered to a client.
    Sdc,
    /// The run did not complete (hang, trap, fail-stop): the batch was
    /// dropped and this request never got a reply.
    Failed,
}

impl RequestOutcome {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            RequestOutcome::Served => "served",
            RequestOutcome::ServedCorrected => "served-corrected",
            RequestOutcome::Sdc => "sdc",
            RequestOutcome::Failed => "failed",
        }
    }
}

/// Aggregated per-request outcome counts; the invariant every consumer
/// leans on is `total()` equals the number of requests offered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestCounts {
    pub served: u64,
    pub served_corrected: u64,
    pub sdc: u64,
    pub failed: u64,
}

impl RequestCounts {
    /// Records one request outcome.
    pub fn record(&mut self, o: RequestOutcome) {
        match o {
            RequestOutcome::Served => self.served += 1,
            RequestOutcome::ServedCorrected => self.served_corrected += 1,
            RequestOutcome::Sdc => self.sdc += 1,
            RequestOutcome::Failed => self.failed += 1,
        }
    }

    /// Merges another count set.
    pub fn merge(&mut self, other: &RequestCounts) {
        self.served += other.served;
        self.served_corrected += other.served_corrected;
        self.sdc += other.sdc;
        self.failed += other.failed;
    }

    /// Total requests classified.
    pub fn total(&self) -> u64 {
        self.served + self.served_corrected + self.sdc + self.failed
    }

    /// Correct replies delivered, as a percentage of requests offered —
    /// the datacenter-availability view of fault tolerance.
    pub fn availability_pct(&self) -> f64 {
        if self.total() == 0 {
            return 100.0;
        }
        100.0 * (self.served + self.served_corrected) as f64 / self.total() as f64
    }

    /// Silent corruptions per million requests (the service-level SDC
    /// rate the paper's per-run histogram cannot express).
    pub fn sdc_per_million(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        1e6 * self.sdc as f64 / self.total() as f64
    }
}

/// Classifies every request of one service batch run against its
/// per-request golden replies (`golden[i]` is the correct reply to
/// request `i`; the run's `output[i]` is the reply it actually produced).
///
/// A run that did not complete marks the whole batch [`RequestOutcome::Failed`]
/// — no replies were externalized. A completed run classifies
/// reply-by-reply; correct replies downgrade to
/// [`RequestOutcome::ServedCorrected`] when the run fired a recovery
/// mechanism, because the whole batch shared the recovery stall. A
/// completed run that emitted the wrong number of replies is corruption
/// on every slot that disagrees (missing replies classify as SDC: the
/// client got a malformed response, not none).
pub fn classify_requests(run: &RunResult, golden: &[u64]) -> Vec<RequestOutcome> {
    if run.outcome != RunOutcome::Completed {
        return vec![RequestOutcome::Failed; golden.len()];
    }
    let corrected =
        run.recoveries > 0 || run.corrected_by_vote > 0 || run.corrected_by_checksum > 0;
    golden
        .iter()
        .enumerate()
        .map(|(i, want)| match run.output.get(i) {
            Some(got) if got == want => {
                if corrected {
                    RequestOutcome::ServedCorrected
                } else {
                    RequestOutcome::Served
                }
            }
            _ => RequestOutcome::Sdc,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use haft_htm::HtmStats;

    fn result(outcome: RunOutcome, output: Vec<u64>, recoveries: u64) -> RunResult {
        RunResult {
            outcome,
            output,
            wall_cycles: 1,
            phases: haft_vm::PhaseCycles::default(),
            cpu_cycles: 1,
            instructions: 1,
            register_writes: 1,
            htm: HtmStats::default(),
            detections: recoveries,
            recoveries,
            corrected_by_vote: 0,
            corrected_by_checksum: 0,
            mispredicts: 0,
            forensics: None,
        }
    }

    #[test]
    fn table1_mapping() {
        let golden = vec![1, 2, 3];
        assert_eq!(classify(&result(RunOutcome::Hang, vec![], 0), &golden), Outcome::Hang);
        assert_eq!(
            classify(&result(RunOutcome::Trapped(haft_vm::Trap::DivByZero), vec![], 0), &golden),
            Outcome::OsDetected
        );
        assert_eq!(
            classify(&result(RunOutcome::Detected, vec![], 0), &golden),
            Outcome::IlrDetected
        );
        assert_eq!(
            classify(&result(RunOutcome::Completed, vec![1, 2, 3], 0), &golden),
            Outcome::Masked
        );
        assert_eq!(
            classify(&result(RunOutcome::Completed, vec![1, 2, 3], 2), &golden),
            Outcome::HaftCorrected
        );
        assert_eq!(
            classify(&result(RunOutcome::Completed, vec![9, 2, 3], 0), &golden),
            Outcome::Sdc
        );
    }

    #[test]
    fn vote_correction_classifies_as_corrected_by_masking() {
        let golden = vec![1, 2, 3];
        let mut r = result(RunOutcome::Completed, vec![1, 2, 3], 0);
        r.corrected_by_vote = 4;
        assert_eq!(classify(&r, &golden), Outcome::VoteCorrected);
        // Rollback recovery takes precedence (a hybrid run that did both
        // still reports the rollback, which is the costlier event).
        r.recoveries = 1;
        assert_eq!(classify(&r, &golden), Outcome::HaftCorrected);
    }

    #[test]
    fn checksum_correction_classifies_below_rollback_and_vote() {
        let golden = vec![1, 2, 3];
        let mut r = result(RunOutcome::Completed, vec![1, 2, 3], 0);
        r.corrected_by_checksum = 1;
        assert_eq!(classify(&r, &golden), Outcome::ChecksumCorrected);
        // An ABFT module's fallback functions can also roll back; the
        // costlier event wins the classification.
        r.recoveries = 1;
        assert_eq!(classify(&r, &golden), Outcome::HaftCorrected);
        let mut wrong = result(RunOutcome::Completed, vec![9, 2, 3], 0);
        wrong.corrected_by_checksum = 1;
        assert_eq!(classify(&wrong, &golden), Outcome::Sdc, "a wrong correction is corruption");
    }

    #[test]
    fn recovery_with_wrong_output_is_still_sdc() {
        let golden = vec![1];
        let r = result(RunOutcome::Completed, vec![2], 3);
        assert_eq!(classify(&r, &golden), Outcome::Sdc);
        let mut v = result(RunOutcome::Completed, vec![2], 0);
        v.corrected_by_vote = 2;
        assert_eq!(classify(&v, &golden), Outcome::Sdc, "a wrong vote is still corruption");
    }

    #[test]
    fn per_request_classification_is_reply_by_reply() {
        let golden = vec![10, 20, 30, 40];
        // Clean completed run: every request served.
        let clean = result(RunOutcome::Completed, vec![10, 20, 30, 40], 0);
        assert_eq!(classify_requests(&clean, &golden), vec![RequestOutcome::Served; 4]);
        // One wrong reply: only that request is SDC.
        let one_bad = result(RunOutcome::Completed, vec![10, 99, 30, 40], 0);
        assert_eq!(
            classify_requests(&one_bad, &golden),
            vec![
                RequestOutcome::Served,
                RequestOutcome::Sdc,
                RequestOutcome::Served,
                RequestOutcome::Served
            ]
        );
        // Recovery fired: correct replies are served-corrected.
        let recovered = result(RunOutcome::Completed, vec![10, 20, 30, 40], 2);
        assert_eq!(
            classify_requests(&recovered, &golden),
            vec![RequestOutcome::ServedCorrected; 4]
        );
        let mut voted = result(RunOutcome::Completed, vec![10, 20, 30, 40], 0);
        voted.corrected_by_vote = 1;
        assert_eq!(classify_requests(&voted, &golden), vec![RequestOutcome::ServedCorrected; 4]);
        let mut chk = result(RunOutcome::Completed, vec![10, 20, 30, 40], 0);
        chk.corrected_by_checksum = 1;
        assert_eq!(classify_requests(&chk, &golden), vec![RequestOutcome::ServedCorrected; 4]);
        // A failed run drops the whole batch.
        let dead = result(RunOutcome::Detected, vec![], 0);
        assert_eq!(classify_requests(&dead, &golden), vec![RequestOutcome::Failed; 4]);
        // Truncated output: the missing tail is corruption.
        let short = result(RunOutcome::Completed, vec![10, 20], 0);
        assert_eq!(
            classify_requests(&short, &golden),
            vec![
                RequestOutcome::Served,
                RequestOutcome::Served,
                RequestOutcome::Sdc,
                RequestOutcome::Sdc
            ]
        );
    }

    #[test]
    fn request_counts_sum_and_rates() {
        let golden = vec![1, 2, 3, 4, 5];
        let run = result(RunOutcome::Completed, vec![1, 2, 9, 4, 5], 0);
        let mut counts = RequestCounts::default();
        for o in classify_requests(&run, &golden) {
            counts.record(o);
        }
        assert_eq!(counts.total(), 5, "outcome counts must sum to the request total");
        assert_eq!(counts.sdc, 1);
        assert!((counts.availability_pct() - 80.0).abs() < 1e-9);
        assert!((counts.sdc_per_million() - 200_000.0).abs() < 1e-6);
        // Merging preserves the invariant.
        let mut more = RequestCounts::default();
        for o in classify_requests(&result(RunOutcome::Hang, vec![], 0), &golden) {
            more.record(o);
        }
        counts.merge(&more);
        assert_eq!(counts.total(), 10);
        assert_eq!(counts.failed, 5);
        // Empty counts: vacuously fully available.
        assert_eq!(RequestCounts::default().availability_pct(), 100.0);
        assert_eq!(RequestCounts::default().sdc_per_million(), 0.0);
    }

    #[test]
    fn groups() {
        assert_eq!(Outcome::Hang.group(), Group::Crashed);
        assert_eq!(Outcome::OsDetected.group(), Group::Crashed);
        assert_eq!(Outcome::IlrDetected.group(), Group::Crashed);
        assert_eq!(Outcome::HaftCorrected.group(), Group::Correct);
        assert_eq!(Outcome::VoteCorrected.group(), Group::Correct);
        assert_eq!(Outcome::ChecksumCorrected.group(), Group::Correct);
        assert_eq!(Outcome::Masked.group(), Group::Correct);
        assert_eq!(Outcome::Sdc.group(), Group::Corrupted);
    }
}
