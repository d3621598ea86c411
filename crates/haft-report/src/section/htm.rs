//! Section 11: why transactions abort, what hyper-threading does to
//! them, and how much of the run they cover.

use haft::eval::{perf_vm, recommended_threshold};
use haft::htm::abort::Table3Bucket;
use haft::htm::{HtmConfig, HtmStats};
use haft::{Experiment, VariantReport};
use haft_passes::HardenConfig;
use haft_vm::VmConfig;
use haft_workloads::Workload;

use crate::render::Tolerance;
use crate::section::{perf_grid, workload_table, ReportConfig, SectionResult};

fn haft(w: &Workload, vm: VmConfig) -> Experiment<'_> {
    Experiment::workload(w).harden(HardenConfig::haft()).vm(vm)
}

fn htm<'r>(name: &str, v: &'r VariantReport) -> &'r HtmStats {
    assert!(v.completed(), "{name}: variant `{}` did not complete", v.label);
    &v.run.htm
}

pub(super) fn run(cfg: &ReportConfig) -> SectionResult {
    let (names, scale, threads) = perf_grid(cfg);

    let causes = workload_table(
        "abort-causes",
        "Abort rate (% of started) and its cause split (% of aborts), threshold 5000",
        &["rate %", "capacity %", "conflict %", "other %"],
        names,
        scale,
        |w| vec![haft(w, perf_vm(threads, 5000))],
        |name, reports| {
            let htm = htm(name, &reports[0]);
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
            vec![haft(w, vm), haft(w, smt_vm)]
        },
        |name, reports| {
            let (base, smt) = (htm(name, &reports[0]), htm(name, &reports[1]));
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
