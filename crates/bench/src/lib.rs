//! Shared harness for the table/figure regeneration benches.
//!
//! Each `benches/<id>.rs` target reproduces one table or figure of the
//! paper's evaluation; `cargo bench --workspace` runs them all and prints
//! the same rows/series the paper reports. `REPRODUCTION.md` (generated
//! by `haft-report`) is the durable, checked form of the simulated
//! numbers, and host time is measured by the repository benchmark
//! (`benchmark/`), not here.
//!
//! All measurement goes through the facade's [`Experiment`] pipeline.
//! Methodology defaults (per-benchmark transaction thresholds, the
//! standard variant grid, the perf VM shape) live in [`haft::eval`] so
//! the bench targets and the report generator cannot drift apart; table
//! formatting is `haft-report`'s render module. This crate only adds the
//! fast-CI switch and thin wrappers.

use haft::Experiment;
use haft_passes::HardenConfig;
use haft_vm::RunResult;
use haft_workloads::Workload;

pub use haft::eval::recommended_threshold;

/// Fast mode: honor `HAFT_BENCH_FAST=1` to shrink sweeps during CI runs.
pub fn fast_mode() -> bool {
    std::env::var("HAFT_BENCH_FAST").map(|v| v == "1").unwrap_or(false)
}

/// An [`Experiment`] over one workload, pre-wired with the bench VM
/// configuration. Callers chain `.harden(..)`/`.vm(..)` and a terminal
/// op.
pub fn experiment(w: &Workload, threads: usize, threshold: u64) -> Experiment<'_> {
    Experiment::workload(w).vm(haft::eval::perf_vm(threads, threshold))
}

/// Measures normalized runtime of `hc` over native for one workload,
/// using the paper's recommended transaction threshold.
pub fn overhead(w: &Workload, hc: &HardenConfig, threads: usize) -> (f64, RunResult) {
    let report =
        experiment(w, threads, recommended_threshold(w.name)).compare(std::slice::from_ref(hc));
    assert!(report.outputs_agree(), "{}: output diverged or run failed", w.name);
    let v = report.variants.into_iter().nth(1).unwrap();
    (v.overhead_vs_native.unwrap(), v.run)
}

/// Prints a table header row.
pub fn header(cols: &[&str]) {
    print!("{}", haft_report::render::console_header(cols, "benchmark"));
}

/// Prints one formatted row.
pub fn row(name: &str, vals: &[f64]) {
    print!("{}", haft_report::render::console_row(name, vals));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_are_the_shared_methodology() {
        // The paper examples, via the deduped `haft::eval` definition.
        assert_eq!(recommended_threshold("kmeans"), 1000);
        assert_eq!(recommended_threshold("blackscholes"), 5000);
    }

    #[test]
    fn overhead_runs_end_to_end() {
        let w =
            haft_workloads::workload_by_name("histogram", haft_workloads::Scale::Small).unwrap();
        let (oh, r) = overhead(&w, &HardenConfig::haft(), 2);
        assert!(oh > 1.0, "hardening must cost something: {oh}");
        assert!(r.htm.commits > 0);
    }
}
