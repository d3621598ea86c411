//! Section 9: HAFT's normalized runtime as the thread count grows.

use haft_passes::HardenConfig;
use haft_workloads::workload_by_name;

use crate::section::{overheads_vs_native, perf_grid, workload_table, ReportConfig, SectionResult};

pub(super) fn run(cfg: &ReportConfig) -> SectionResult {
    let (names, scale, _) = perf_grid(cfg);
    let threads: &[usize] = if cfg.fast { &[2, 8] } else { &[1, 2, 4, 8, 14] };
    let sweep = |w: &_, hc: HardenConfig| -> Vec<f64> {
        let configs = [hc];
        threads.iter().map(|&t| overheads_vs_native(w, t, &configs)[0]).collect()
    };

    let columns: Vec<String> = threads.iter().map(|t| format!("{t} thr")).collect();
    let mut table = workload_table(
        "haft-runtime-vs-threads",
        "HAFT normalized runtime vs native",
        &columns,
        names,
        scale,
        |w| sweep(w, HardenConfig::haft()),
    );
    let vips = workload_by_name("vips", scale).expect("registered workload");
    table.push_row("vips-nc", sweep(&vips, HardenConfig::haft().without_local_calls()));

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
