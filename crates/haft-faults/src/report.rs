//! Aggregation of campaign results.

use std::collections::BTreeMap;

use haft_trace::MetricsSnapshot;
use haft_vm::Forensics;

use crate::classify::{Group, Outcome};
use crate::forensics::ForensicsSummary;

/// Aggregated results of one injection campaign.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CampaignReport {
    pub counts: BTreeMap<Outcome, u64>,
    pub runs: u64,
    /// Forensics aggregate; `Some` iff the campaign ran with
    /// [`crate::CampaignConfig::forensics`] enabled.
    pub forensics: Option<ForensicsSummary>,
}

impl CampaignReport {
    /// Records one outcome.
    pub fn record(&mut self, o: Outcome) {
        *self.counts.entry(o).or_insert(0) += 1;
        self.runs += 1;
    }

    /// Folds one per-run forensics record in (creates the aggregate on
    /// first use, so callers never pre-initialize).
    pub fn record_forensics(&mut self, o: Outcome, fx: &Forensics) {
        self.forensics.get_or_insert_with(ForensicsSummary::default).record(o, fx);
    }

    /// Percentage of runs with this outcome.
    pub fn pct(&self, o: Outcome) -> f64 {
        if self.runs == 0 {
            return 0.0;
        }
        100.0 * self.counts.get(&o).copied().unwrap_or(0) as f64 / self.runs as f64
    }

    /// Percentage of runs in a Table-1 group.
    pub fn group_pct(&self, g: Group) -> f64 {
        Outcome::ALL.iter().filter(|o| o.group() == g).map(|o| self.pct(*o)).sum()
    }

    /// Merges another report in (one campaign per program into a suite
    /// total, say).
    pub fn merge(&mut self, other: &CampaignReport) {
        for (o, n) in &other.counts {
            *self.counts.entry(*o).or_insert(0) += n;
        }
        self.runs += other.runs;
        if let Some(fx) = &other.forensics {
            self.forensics.get_or_insert_with(ForensicsSummary::default).merge(fx);
        }
    }

    /// The campaign as unified metrics: run/outcome counters under
    /// `faults.outcome.*`, Table-1 group percentages under
    /// `faults.group.*`, and — when forensics ran — the
    /// `faults.detect_latency.*` / `faults.propagation.*` aggregate. All
    /// names are static; the schema is pinned by the facade trace tests.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut m = MetricsSnapshot::new();
        m.set("faults.runs", self.runs as f64);
        for o in Outcome::ALL {
            m.set(o.metric_name(), self.counts.get(&o).copied().unwrap_or(0) as f64);
        }
        for g in [Group::Correct, Group::Crashed, Group::Corrupted] {
            m.set(g.metric_name(), self.group_pct(g));
        }
        if let Some(fx) = &self.forensics {
            fx.metrics_into(&mut m);
        }
        m
    }

    /// One-line summary: the run count and every outcome's share.
    pub fn summary(&self) -> String {
        let cols: Vec<String> =
            Outcome::ALL.iter().map(|o| format!("{} {:5.1}%", o.label(), self.pct(*o))).collect();
        format!("[{} runs] {}", self.runs, cols.join("  "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentages_sum_to_100() {
        let mut r = CampaignReport::default();
        for _ in 0..3 {
            r.record(Outcome::Masked);
        }
        r.record(Outcome::Sdc);
        let total: f64 = Outcome::ALL.iter().map(|o| r.pct(*o)).sum();
        assert!((total - 100.0).abs() < 1e-9);
        assert!((r.pct(Outcome::Masked) - 75.0).abs() < 1e-9);
    }

    #[test]
    fn group_percentages() {
        let mut r = CampaignReport::default();
        r.record(Outcome::Hang);
        r.record(Outcome::IlrDetected);
        r.record(Outcome::HaftCorrected);
        r.record(Outcome::Sdc);
        assert!((r.group_pct(Group::Crashed) - 50.0).abs() < 1e-9);
        assert!((r.group_pct(Group::Correct) - 25.0).abs() < 1e-9);
        assert!((r.group_pct(Group::Corrupted) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CampaignReport::default();
        a.record(Outcome::Masked);
        let mut b = CampaignReport::default();
        b.record(Outcome::Sdc);
        b.record(Outcome::Sdc);
        a.merge(&b);
        assert_eq!(a.runs, 3);
        assert_eq!(a.counts[&Outcome::Sdc], 2);
    }

    #[test]
    fn metrics_export_uses_stable_names() {
        let mut r = CampaignReport::default();
        r.record(Outcome::Sdc);
        r.record(Outcome::Masked);
        let m = r.metrics();
        assert_eq!(m.get("faults.runs"), Some(2.0));
        assert_eq!(m.get("faults.outcome.sdc"), Some(1.0));
        assert_eq!(m.get("faults.outcome.ilr-detected"), Some(0.0));
        assert_eq!(m.get("faults.group.corrupted"), Some(50.0));
        // The forensics block only appears when forensics actually ran.
        assert_eq!(m.get("faults.forensics.fired"), None);
    }

    #[test]
    fn empty_report_is_all_zero() {
        let r = CampaignReport::default();
        assert_eq!(r.pct(Outcome::Sdc), 0.0);
        assert!(r.summary().contains("[0 runs]"));
    }
}
