//! Section 8: the ABFT frontier — algorithm-level checksums as a third
//! point between HAFT's rollback and TMR's masking.

use haft::eval::{perf_vm, recommended_threshold};
use haft::Experiment;
use haft_faults::{CampaignConfig, Group, Outcome};
use haft_passes::HardenConfig;
use haft_vm::FaultPlan;
use haft_workloads::{workload_by_name, Scale};

use crate::render::{Table, Tolerance};
use crate::section::{ReportConfig, SectionResult};

/// The matrix-shaped Phoenix kernels the ABFT recognizer targets.
const MATRIX_NAMES: [&str; 4] = ["pca", "linearreg", "matrixmul", "kmeans"];

pub(super) fn run(cfg: &ReportConfig) -> SectionResult {
    let (injections, sweep_points) = if cfg.fast { (40u64, 12u64) } else { (150, 23) };
    let threads = 2;

    // One campaign per (workload, backend): its fault-free reference
    // run is the overhead measurement (same idiom as haft-vs-elzar).
    #[derive(Default)]
    struct Acc {
        oh: Vec<f64>,
        corrected: f64,
        chk: f64,
        crashed: f64,
        sdc: f64,
    }
    let backends = [
        ("HAFT", HardenConfig::haft()),
        ("TMR", HardenConfig::tmr()),
        ("ABFT", HardenConfig::abft()),
    ];
    let mut accs = [Acc::default(), Acc::default(), Acc::default()];
    let mut audit = Table::new(
        "abft-correction-audit",
        "ABFT per workload: recognizer coverage and a correction audit sweep",
        &["workload", "covered", "fallback", "chains", "chk fired", "miscorrected"],
    )
    .precision(0)
    .tolerance(Tolerance::Rel(0.3));

    for name in MATRIX_NAMES {
        let w = workload_by_name(name, Scale::Small).expect("registered workload");
        let vm = perf_vm(threads, recommended_threshold(name));
        let native = Experiment::workload(&w).vm(vm.clone()).run().expect_completed(name);
        for ((label, hc), acc) in backends.iter().zip(&mut accs) {
            let v = Experiment::workload(&w)
                .harden(hc.clone())
                .vm(vm.clone())
                .campaign(CampaignConfig { injections, seed: 0xABF7, ..Default::default() });
            assert_eq!(v.run.output, native.output, "{name}/{label}: output diverged");
            acc.oh.push(v.run.wall_cycles as f64 / native.wall_cycles.max(1) as f64);
            let c = v.campaign.expect("campaign report");
            acc.corrected += c.pct(Outcome::HaftCorrected)
                + c.pct(Outcome::VoteCorrected)
                + c.pct(Outcome::ChecksumCorrected);
            acc.chk += c.pct(Outcome::ChecksumCorrected);
            acc.crashed += c.group_pct(Group::Crashed);
            acc.sdc += c.pct(Outcome::Sdc);
        }

        // The audit sweep: evenly spaced single flips through the
        // ABFT build. Any run whose checksum fired and that still
        // completed must be bit-clean — `miscorrected` is the count
        // of violations and its pinned value is the point: zero.
        let exp = Experiment::workload(&w).harden(HardenConfig::abft()).vm(vm.clone());
        let built = exp.run();
        let clean = &built.run;
        let pm = built.pass_stats.metrics();
        let stat = |key: &str| pm.get(key).unwrap_or(0.0);
        let (mut fired, mut miscorrected) = (0u64, 0u64);
        let step = (clean.register_writes / sweep_points).max(1);
        for occurrence in (0..clean.register_writes).step_by(step as usize) {
            let r = exp.run_with_fault(FaultPlan { occurrence, xor_mask: 0x10 }, false).run;
            if r.corrected_by_checksum > 0 {
                fired += 1;
                if r.outcome == clean.outcome && r.output != clean.output {
                    miscorrected += 1;
                }
            }
        }
        assert_eq!(miscorrected, 0, "{name}: a fired checksum let corruption through");
        audit.push_row(
            name,
            vec![
                stat("pass.abft.functions_covered"),
                stat("pass.abft.functions_fallback"),
                stat("pass.abft.chains"),
                fired as f64,
                miscorrected as f64,
            ],
        );
    }

    let n = MATRIX_NAMES.len() as f64;
    let mean = |acc: &Acc| acc.oh.iter().sum::<f64>() / n;
    let [haft, tmr, abft] = accs;
    assert!(
        mean(&abft) < mean(&tmr),
        "ABFT must undercut TMR on its home turf: {:.2} vs {:.2}",
        mean(&abft),
        mean(&tmr)
    );

    let mut overheads = Table::new(
        "abft-overheads",
        "Runtime overhead × native, matrix kernels, three backends",
        &["workload", "HAFT", "TMR", "ABFT"],
    )
    .tolerance(Tolerance::Rel(0.3));
    for (i, name) in MATRIX_NAMES.iter().enumerate() {
        overheads.push_row(name, vec![haft.oh[i], tmr.oh[i], abft.oh[i]]);
    }
    overheads.push_row("mean", vec![mean(&haft), mean(&tmr), mean(&abft)]);

    let mut outcomes = Table::new(
        "abft-coverage-vs-sdc",
        "Fault-injection outcomes (% of runs, matrix-kernel mean)",
        &["metric", "HAFT", "TMR", "ABFT"],
    )
    .tolerance(Tolerance::Abs(8.0));
    outcomes.push_row(
        "corrected (rollback/vote/checksum) %",
        vec![haft.corrected / n, tmr.corrected / n, abft.corrected / n],
    );
    outcomes.push_row("checksum-corrected %", vec![haft.chk / n, tmr.chk / n, abft.chk / n]);
    outcomes.push_row("crashed group %", vec![haft.crashed / n, tmr.crashed / n, abft.crashed / n]);
    outcomes.push_row("SDC %", vec![haft.sdc / n, tmr.sdc / n, abft.sdc / n]);

    SectionResult {
        notes: vec![
            format!(
                "Matrix kernels at Small scale, {threads} threads, {injections} injections \
                 per workload per backend (seed 0xABF7); the audit sweep steps {sweep_points} \
                 evenly spaced single flips (mask 0x10) through each ABFT build."
            ),
            "How to read it: ABFT replaces blanket instruction replication with two extra \
             checksum lanes over each kernel's accumulation chains, so its overhead sits \
             well below TMR's third copy. The price is coverage: flips outside the \
             checksummed chains (shared inputs, addressing) are invisible to it, which is \
             why its SDC share exceeds the replication backends'. The audit table pins the \
             half it does promise: `miscorrected` — a fired verify-and-correct whose \
             completed run still diverged — must stay zero."
                .to_string(),
        ],
        tables: vec![overheads, outcomes, audit],
        series: vec![],
    }
}
