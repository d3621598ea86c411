//! Campaign-level fault forensics: latency histograms and the
//! vulnerability map.
//!
//! Each injection run with forensics enabled yields one per-run
//! [`haft_vm::Forensics`] record. This module folds those records into
//! campaign aggregates:
//!
//! * **Detection-latency histograms** — dynamic instructions (and
//!   scoreboard cycles) between the bit flip and the moment the fault was
//!   masked, detected, or escaped, bucketed by power of two and split by
//!   detector (`ilr`, `vote`, `htm-abort`, ...). This is the paper's
//!   "window of vulnerability" view: ILR detects within a handful of
//!   instructions, while escapes drift for thousands.
//! * **Per-site vulnerability map** — AVF-style statistics keyed by
//!   `(function, op-class)`: of the flips landing at that site, what
//!   fraction ended corrupted / crashed / correct.
//!
//! Aggregates export through the unified metrics registry under stable
//! `faults.*` dotted names. Per-site rows are deliberately *not* metrics:
//! function names are program-specific and would break the pinned schema,
//! so they surface through [`ForensicsSummary::top_sites`] and the report
//! section instead.

use std::collections::BTreeMap;

use haft_trace::MetricsSnapshot;
use haft_vm::{FaultDetector, Forensics};

use crate::classify::{Group, Outcome};

/// Log2 bucket count: bucket 0 holds value 0, bucket `i` (1..=64) holds
/// values in `[2^(i-1), 2^i)`.
const BUCKETS: usize = 65;

fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// A power-of-two histogram with exact count / sum / max side channels.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyHistogram {
    /// `buckets[0]` counts zeros; `buckets[i]` counts `[2^(i-1), 2^i)`.
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { buckets: vec![0; BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl LatencyHistogram {
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate percentile (0.0..=100.0): the inclusive upper bound of
    /// the first bucket where the cumulative count reaches `p` percent.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (p / 100.0 * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return if i == 0 { 0 } else { (1u64 << i).wrapping_sub(1).max(1) };
            }
        }
        self.max
    }

    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// AVF-style statistics for one `(function, op-class)` site.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SiteStats {
    pub injections: u64,
    /// Outcome group Corrupted (SDC reached the output).
    pub corrupted: u64,
    /// Outcome group Crashed (hang / OS or ILR detection without recovery).
    pub crashed: u64,
    /// Outcome group Correct (masked or corrected).
    pub correct: u64,
}

impl SiteStats {
    /// Architectural-vulnerability-style score: the percentage of flips at
    /// this site that ended user-visible (corrupted or crashed).
    pub fn avf(&self) -> f64 {
        if self.injections == 0 {
            0.0
        } else {
            100.0 * (self.corrupted + self.crashed) as f64 / self.injections as f64
        }
    }
}

/// Campaign-level forensics aggregate. All fields are counters, so
/// records fold in, and aggregates of several campaigns merge, in any
/// order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ForensicsSummary {
    /// Injection runs whose fault actually fired and produced a record.
    pub fired: u64,
    /// Detection latency in dynamic instructions, split by detector.
    pub latency_insts: BTreeMap<FaultDetector, LatencyHistogram>,
    /// Detection latency in scoreboard cycles, all detectors pooled.
    pub latency_cycles: LatencyHistogram,
    /// Peak propagation width (tainted registers + memory bytes).
    pub propagation: LatencyHistogram,
    /// Runs whose taint reached transactionally committed memory.
    pub escaped_to_memory: u64,
    /// Vulnerability map keyed by `(function, op-class)`.
    pub sites: BTreeMap<(String, &'static str), SiteStats>,
}

impl ForensicsSummary {
    /// Folds one per-run record in, paired with its Table-1 outcome.
    pub fn record(&mut self, outcome: Outcome, fx: &Forensics) {
        self.fired += 1;
        self.latency_insts.entry(fx.detector).or_default().record(fx.detect_latency_insts);
        self.latency_cycles.record(fx.detect_latency_cycles);
        self.propagation.record(fx.propagation_width);
        if fx.escaped_to_memory {
            self.escaped_to_memory += 1;
        }
        let key = (fx.site.func.clone(), fx.site.op_class);
        let s = self.sites.entry(key).or_default();
        s.injections += 1;
        match outcome.group() {
            Group::Corrupted => s.corrupted += 1,
            Group::Crashed => s.crashed += 1,
            Group::Correct => s.correct += 1,
        }
    }

    pub fn merge(&mut self, other: &ForensicsSummary) {
        self.fired += other.fired;
        for (d, h) in &other.latency_insts {
            self.latency_insts.entry(*d).or_default().merge(h);
        }
        self.latency_cycles.merge(&other.latency_cycles);
        self.propagation.merge(&other.propagation);
        self.escaped_to_memory += other.escaped_to_memory;
        for (k, s) in &other.sites {
            let e = self.sites.entry(k.clone()).or_default();
            e.injections += s.injections;
            e.corrupted += s.corrupted;
            e.crashed += s.crashed;
            e.correct += s.correct;
        }
    }

    /// The `n` most vulnerable sites, ordered by AVF score descending
    /// (ties broken by injection count, then key, for determinism).
    pub fn top_sites(&self, n: usize) -> Vec<(&(String, &'static str), &SiteStats)> {
        let mut v: Vec<_> = self.sites.iter().collect();
        v.sort_by(|a, b| {
            b.1.avf()
                .partial_cmp(&a.1.avf())
                .unwrap()
                .then(b.1.injections.cmp(&a.1.injections))
                .then(a.0.cmp(b.0))
        });
        v.truncate(n);
        v
    }

    /// Histogram for one detector (empty default if it never fired).
    pub fn detector_histogram(&self, d: FaultDetector) -> LatencyHistogram {
        self.latency_insts.get(&d).cloned().unwrap_or_default()
    }

    /// Exports the aggregate under stable `faults.*` dotted names. Every
    /// detector row is emitted even at zero so the schema never depends on
    /// which detectors happened to fire.
    pub fn metrics_into(&self, m: &mut MetricsSnapshot) {
        m.set("faults.forensics.fired", self.fired as f64);
        m.set("faults.forensics.escaped_to_memory", self.escaped_to_memory as f64);
        for d in FaultDetector::ALL {
            let h = self.latency_insts.get(&d).cloned().unwrap_or_default();
            let base = format!("faults.detect_latency.{}", d.label());
            m.set(format!("{base}.count"), h.count as f64);
            m.set(format!("{base}.mean_insts"), h.mean());
            m.set(format!("{base}.max_insts"), h.max as f64);
        }
        m.set("faults.detect_latency.mean_cycles", self.latency_cycles.mean());
        m.set("faults.detect_latency.max_cycles", self.latency_cycles.max as f64);
        m.set("faults.propagation.mean", self.propagation.mean());
        m.set("faults.propagation.max", self.propagation.max as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haft_vm::FaultSite;

    fn rec(det: FaultDetector, insts: u64, func: &str, class: &'static str) -> Forensics {
        Forensics {
            site: FaultSite {
                func: func.to_string(),
                op_class: class,
                occurrence: 7,
                applied_mask: 1,
            },
            detector: det,
            detect_latency_insts: insts,
            detect_latency_cycles: insts * 3,
            propagation_width: 2,
            escaped_to_memory: det == FaultDetector::Escaped,
        }
    }

    #[test]
    fn histogram_buckets_and_percentile() {
        let mut h = LatencyHistogram::default();
        for v in [0, 1, 2, 3, 4, 9, 1000] {
            h.record(v);
        }
        assert_eq!(h.count, 7);
        assert_eq!(h.max, 1000);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[3], 1); // 4
        assert_eq!(h.buckets[4], 1); // 9
        assert_eq!(h.buckets[10], 1); // 1000
        assert_eq!(h.percentile(50.0), 3); // 4th of 7 lands in bucket 2
        assert_eq!(h.percentile(100.0), 1023);
    }

    #[test]
    fn summary_records_and_merges_order_independently() {
        let mut a = ForensicsSummary::default();
        let mut b = ForensicsSummary::default();
        a.record(Outcome::IlrDetected, &rec(FaultDetector::Ilr, 4, "f", "int-alu"));
        a.record(Outcome::Sdc, &rec(FaultDetector::Escaped, 900, "g", "load"));
        b.record(Outcome::Masked, &rec(FaultDetector::Masked, 12, "f", "int-alu"));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.fired, 3);
        assert_eq!(ab.escaped_to_memory, 1);
        assert_eq!(ab.sites[&("f".to_string(), "int-alu")].injections, 2);
        assert_eq!(ab.sites[&("g".to_string(), "load")].corrupted, 1);
    }

    #[test]
    fn top_sites_ranks_by_avf() {
        let mut s = ForensicsSummary::default();
        s.record(Outcome::Sdc, &rec(FaultDetector::Escaped, 10, "bad", "store"));
        s.record(Outcome::Masked, &rec(FaultDetector::Masked, 1, "ok", "int-alu"));
        s.record(Outcome::Masked, &rec(FaultDetector::Masked, 1, "ok", "int-alu"));
        let top = s.top_sites(2);
        assert_eq!(top[0].0 .0, "bad");
        assert!((top[0].1.avf() - 100.0).abs() < 1e-9);
        assert_eq!(top[1].1.avf(), 0.0);
    }

    #[test]
    fn metrics_schema_is_complete_even_when_empty() {
        let mut m = MetricsSnapshot::new();
        ForensicsSummary::default().metrics_into(&mut m);
        for d in FaultDetector::ALL {
            assert_eq!(m.get(&format!("faults.detect_latency.{}.count", d.label())), Some(0.0));
        }
        assert_eq!(m.get("faults.forensics.fired"), Some(0.0));
        assert_eq!(m.get("faults.propagation.max"), Some(0.0));
    }
}
