//! Section 10: the cumulative optimization levels — what each buys in
//! runtime and what it costs in reliability.

use haft_passes::{HardenConfig, OptLevel};
use haft_workloads::{workload_by_name, Scale};

use crate::section::{
    campaign, outcome_row, outcome_table, overhead_runs, overheads_vs_native, perf_grid,
    workload_table, ReportConfig, SectionResult,
};

pub(super) fn run(cfg: &ReportConfig) -> SectionResult {
    let (names, scale, threads) = perf_grid(cfg);
    let configs = OptLevel::ALL.map(HardenConfig::at_opt_level);
    let overhead = workload_table(
        "overhead-by-level",
        "Normalized runtime vs native per level",
        &OptLevel::ALL.map(OptLevel::label),
        names,
        scale,
        |w| overhead_runs(w, threads, &configs),
        overheads_vs_native,
    );

    let (fault_names, injections): (&[&str], u64) =
        if cfg.fast { (&["linearreg"], 24) } else { (&["linearreg", "canneal"], 150) };
    let mut outcomes = outcome_table("outcomes-by-level", "Fault-injection outcomes per level (%)");
    for name in fault_names {
        let w = workload_by_name(name, Scale::Small).expect("registered workload");
        for (level, hc) in OptLevel::ALL.iter().zip(&configs) {
            let report = campaign(&w, hc.clone(), injections, 0x0F19);
            outcomes.push_row(&format!("{name} · {}", level.label()), outcome_row(&report));
        }
    }

    SectionResult {
        notes: vec![
            format!(
                "Levels are cumulative: N none, S + duplicated loads in place of address \
                 checks, C + shadow basic blocks in place of pre-branch checks, L + a counter \
                 in place of the transaction bracket around local calls, F + checks on \
                 otherwise unchecked loop induction variables. Overheads: {} workloads at \
                 {scale:?} scale, {threads} threads, recommended thresholds. Outcomes: \
                 {injections} injections per level (seed 0xf19), Small inputs, 2 threads.",
                names.len()
            ),
            "S, C and L buy runtime; F spends some of it, so that faults N to L catch only \
             after their transaction committed (ilr-detected, a fail-stop) are caught while \
             a rollback can still correct them (haft-corrected)."
                .to_string(),
        ],
        tables: vec![overhead, outcomes],
        series: Vec::new(),
    }
}
