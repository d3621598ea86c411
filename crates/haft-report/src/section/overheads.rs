//! Section 1: normalized runtime of every backend across the suites.

use haft::eval::hardened_variants;

use crate::render::{Series, Tolerance};
use crate::section::{
    overhead_runs, overheads_vs_native, perf_grid, workload_table, ReportConfig, SectionResult,
};

pub(super) fn run(cfg: &ReportConfig) -> SectionResult {
    let (names, scale, threads) = perf_grid(cfg);
    let (labels, configs): (Vec<&str>, Vec<_>) = hardened_variants().into_iter().unzip();

    let table = workload_table(
        "normalized-runtime",
        "Normalized runtime vs native (lower is better)",
        &labels,
        names,
        scale,
        |w| overhead_runs(w, threads, &configs),
        overheads_vs_native,
    )
    .tolerance(Tolerance::Rel(0.15));
    let series = |id: &str, label: &str| {
        let col = labels.iter().position(|l| *l == label).expect("standard variant");
        let mut s = Series::new(id, &format!("{label} overhead across workloads"));
        for row in &table.rows[..names.len()] {
            s.push(&row.label, row.values[col]);
        }
        s
    };
    let series = vec![series("haft-overhead", "HAFT"), series("tmr-overhead", "TMR")];

    SectionResult {
        notes: vec![
            format!(
                "{} workloads at {:?} scale, {threads} simulated threads, per-workload \
                 transaction thresholds per the paper's §5.3 methodology \
                 (`haft::eval::recommended_threshold`). Every variant's output is verified \
                 bit-identical to native before its overhead is reported.",
                names.len(),
                scale
            ),
            "ILR pays for the duplicated data flow, TX for transaction begin/commit and \
             aborts, HAFT for both, and TMR for a tripled stream plus votes — the spread \
             across workloads tracks native IPC (see ARCHITECTURE.md)."
                .to_string(),
        ],
        tables: vec![table],
        series,
    }
}
