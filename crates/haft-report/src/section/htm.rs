//! Section 11: why transactions abort, what hyper-threading does to
//! them, and how much of the run they cover.

use haft::eval::{perf_vm, recommended_threshold};
use haft::htm::abort::Table3Bucket;
use haft::htm::HtmConfig;
use haft::Experiment;
use haft_passes::HardenConfig;
use haft_vm::VmConfig;
use haft_workloads::Workload;

use crate::render::Tolerance;
use crate::section::{perf_grid, workload_table, ReportConfig, SectionResult};

pub(super) fn run(cfg: &ReportConfig) -> SectionResult {
    let (names, scale, threads) = perf_grid(cfg);
    let haft = |w: &Workload, vm: VmConfig| {
        let exp = Experiment::workload(w).harden(HardenConfig::haft()).vm(vm);
        exp.run().expect_completed(w.name).htm
    };

    let causes = workload_table(
        "abort-causes",
        "Abort rate (% of started) and its cause split (% of aborts), threshold 5000",
        &["rate %", "capacity %", "conflict %", "other %"],
        names,
        scale,
        |w| {
            let htm = haft(w, perf_vm(threads, 5000));
            vec![
                htm.abort_rate_pct(),
                htm.bucket_pct(Table3Bucket::Capacity),
                htm.bucket_pct(Table3Bucket::Conflict),
                htm.bucket_pct(Table3Bucket::Other),
            ]
        },
    )
    .tolerance(Tolerance::Abs(5.0));
    let smt = workload_table(
        "smt-factor-and-coverage",
        "Hyper-threading abort factor (×) and cycles spent inside transactions (%)",
        &["HT ×", "coverage %"],
        names,
        scale,
        |w| {
            // Hyper-threading: the same logical threads on half the cores.
            let vm = perf_vm(threads, recommended_threshold(w.name));
            let smt_vm =
                VmConfig { htm: HtmConfig { smt: true, ..HtmConfig::default() }, ..vm.clone() };
            let (base, smt) = (haft(w, vm), haft(w, smt_vm));
            let rate = |pct: f64| pct.max(0.01);
            vec![rate(smt.abort_rate_pct()) / rate(base.abort_rate_pct()), base.coverage_pct()]
        },
    );

    SectionResult {
        notes: vec![format!(
            "HAFT over {} workloads at {scale:?} scale, {threads} threads; `mean` rows \
             average the columns. The cause table runs at the worst-case threshold 5000; the \
             second at each workload's recommended threshold, on full cores and again with \
             sibling hyper-threads sharing an L1 (`HtmConfig::smt`), abort rates floored at \
             0.01 % before the ratio. Conflicts dominate where threads truly share, capacity \
             where one transaction's footprint outgrows the L1 — the workloads \
             hyper-threading hurts, since it halves the cache a transaction may fill.",
            names.len()
        )],
        tables: vec![causes, smt],
        series: Vec::new(),
    }
}
