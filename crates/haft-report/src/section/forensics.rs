//! Section: fault forensics — detection-latency distributions and the
//! per-site vulnerability map.

use haft::Experiment;
use haft_faults::{CampaignConfig, ForensicsSummary};
use haft_passes::HardenConfig;
use haft_vm::FaultDetector;
use haft_vm::VmConfig;
use haft_workloads::{workload_by_name, Scale, PHOENIX_BASE_NAMES};

use crate::render::{Series, Table, Tolerance};
use crate::section::{ReportConfig, SectionResult};

const SEED: u64 = 0x0F20;
const TOP_SITES: usize = 5;

pub(super) fn run(cfg: &ReportConfig) -> SectionResult {
    let (names, injections): (&[&str], u64) =
        if cfg.fast { (&["histogram", "linearreg"], 24) } else { (&PHOENIX_BASE_NAMES, 120) };
    let variants: [(&str, HardenConfig); 4] = [
        ("native", HardenConfig::native()),
        ("ILR", HardenConfig::ilr_only()),
        ("HAFT", HardenConfig::haft()),
        ("TMR", HardenConfig::tmr()),
    ];

    let mut mix_columns = vec!["workload · variant"];
    mix_columns.extend(FaultDetector::ALL.iter().map(|d| d.label()));
    let mut mix = Table::new(
        "detector-mix",
        "Which mechanism ends each fault's window of vulnerability (% of fired)",
        &mix_columns,
    )
    .precision(1)
    .tolerance(Tolerance::Abs(10.0));

    let mut latency = Table::new(
        "detect-latency",
        "Detection latency per backend, merged across workloads",
        &["backend", "fired", "mean insts", "p50 insts", "p90 insts", "max insts", "mean cycles"],
    )
    .precision(1)
    .tolerance(Tolerance::Rel(0.5));

    let mut escape = Series::new(
        "native-escape-pct",
        "native: % of fired faults whose taint reached committed memory",
    )
    .tolerance(Tolerance::Abs(10.0));

    // Per-variant aggregate across workloads, and the native-only
    // vulnerability map for the top-sites table.
    let mut merged: Vec<ForensicsSummary> =
        variants.iter().map(|_| ForensicsSummary::default()).collect();
    let mut native_sites = ForensicsSummary::default();

    for name in names {
        let w = workload_by_name(name, Scale::Small).expect("registered workload");
        for (vi, (label, hc)) in variants.iter().enumerate() {
            let report = Experiment::workload(&w)
                .harden(hc.clone())
                .vm(VmConfig { n_threads: 2, ..VmConfig::default() })
                .campaign(CampaignConfig {
                    injections,
                    seed: SEED,
                    forensics: true,
                    ..Default::default()
                })
                .campaign
                .expect("campaign terminal op attaches a report");
            let fx = report.forensics.as_ref().expect("forensics campaign records");
            let fired = fx.fired.max(1) as f64;
            let row: Vec<f64> = FaultDetector::ALL
                .iter()
                .map(|d| 100.0 * fx.detector_histogram(*d).count as f64 / fired)
                .collect();
            mix.push_row(&format!("{name} · {label}"), row);
            merged[vi].merge(fx);
            if *label == "native" {
                escape.push(name, 100.0 * fx.escaped_to_memory as f64 / fired);
                native_sites.merge(fx);
            }
        }
    }

    for ((label, _), fx) in variants.iter().zip(&merged) {
        // Pool every detector into one distribution for the backend.
        let mut all = haft_faults::LatencyHistogram::default();
        for d in FaultDetector::ALL {
            all.merge(&fx.detector_histogram(d));
        }
        latency.push_row(
            label,
            vec![
                fx.fired as f64,
                all.mean(),
                all.percentile(50.0) as f64,
                all.percentile(90.0) as f64,
                all.max as f64,
                fx.latency_cycles.mean(),
            ],
        );
    }

    // Site labels are program-derived (function names), so the values
    // ride an Info band: row *structure* is still pinned — a sampler or
    // ranking change forces a conscious re-pin — but counts may drift.
    let mut sites = Table::new(
        "vulnerable-sites",
        &format!("Top {TOP_SITES} vulnerable sites on native (AVF-ranked)"),
        &["site (function · op-class)", "injections", "corrupted", "crashed", "AVF %"],
    )
    .precision(0)
    .tolerance(Tolerance::Info);
    for (key, s) in native_sites.top_sites(TOP_SITES) {
        sites.push_row(
            &format!("{} · {}", key.0, key.1),
            vec![s.injections as f64, s.corrupted as f64, s.crashed as f64, s.avf()],
        );
    }

    SectionResult {
        notes: vec![
            format!(
                "{injections} forensics-enabled injections per workload × variant \
                 (seed {SEED:#x}), Small inputs, 2 threads. Each run carries a taint \
                 set seeded at the flipped register; the detector that clears it \
                 (or the run's end) closes the window of vulnerability."
            ),
            "Reading the latency table: ILR checks fire within a handful of \
             instructions of the flip; TMR's majority votes sit at the consumer, \
             a little later; HTM aborts pay the distance to the transaction \
             boundary; escapes drift until the output is externalized — that gap \
             is exactly the paper's argument for detection *inside* the window."
                .to_string(),
            "The vulnerability map ranks unprotected (native) sites by an \
             AVF-style score: the share of flips at that (function × op-class) \
             site that ended corrupted or crashed. These are the sites hardening \
             must cover first."
                .to_string(),
        ],
        tables: vec![mix, latency, sites],
        series: vec![escape],
    }
}
