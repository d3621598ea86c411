//! Section 9: HAFT's normalized runtime as the thread count grows.

use haft::{Experiment, VariantReport};
use haft_passes::HardenConfig;
use haft_workloads::{workload_by_name, Workload};

use crate::section::{
    overhead_runs, overheads_vs_native, par_map, perf_grid, workload_table, ReportConfig,
    SectionResult,
};

/// A native and a hardened run at each thread count.
fn sweep<'w>(w: &'w Workload, threads: &[usize], hc: &HardenConfig) -> Vec<Experiment<'w>> {
    threads.iter().flat_map(|&t| overhead_runs(w, t, std::slice::from_ref(hc))).collect()
}

/// One overhead per thread count, from [`sweep`]'s run pairs.
fn row(name: &str, reports: &[VariantReport]) -> Vec<f64> {
    reports.chunks(2).map(|pair| overheads_vs_native(name, pair)[0]).collect()
}

pub(super) fn run(cfg: &ReportConfig) -> SectionResult {
    let (names, scale, _) = perf_grid(cfg);
    let threads: &[usize] = if cfg.fast { &[2, 8] } else { &[1, 2, 4, 8, 14] };

    let columns: Vec<String> = threads.iter().map(|t| format!("{t} thr")).collect();
    let haft = HardenConfig::haft();
    let mut table = workload_table(
        "haft-runtime-vs-threads",
        "HAFT normalized runtime vs native",
        &columns,
        names,
        scale,
        |w| sweep(w, threads, &haft),
        row,
    );
    let vips = workload_by_name("vips", scale).expect("registered workload");
    let nc = sweep(&vips, threads, &haft.without_local_calls());
    table.push_row("vips-nc", row(vips.name, &par_map(nc, |exp| exp.run())));

    SectionResult {
        notes: vec![format!(
            "{} workloads at {scale:?} scale, recommended transaction thresholds; `mean` \
             averages them. `vips-nc` (after the mean, not in it) is `vips` with the \
             local-call optimization off, as the paper reports it. Overheads stay flat \
             where threads share nothing and climb where transactions start to conflict.",
            names.len()
        )],
        tables: vec![table],
        series: Vec::new(),
    }
}
