//! Shared evaluation methodology: the standard variant grid, per-workload
//! transaction thresholds, and the perf-run VM shape.
//!
//! The paper's evaluation sweeps one grid — {native, ILR, TX, HAFT} (+
//! the Elzar-style TMR foil) × workloads × thresholds — and the report
//! generator (`haft-report`), the repository benchmark and the tests all
//! walk it. This module is the single definition of that grid, so they
//! cannot drift apart on methodology defaults.

use haft_passes::HardenConfig;
use haft_vm::VmConfig;

/// The standard variant columns of every overhead table, in presentation
/// order: the native baseline, the paper's ILR/TX components, full HAFT,
/// and the Elzar-style TMR backend.
pub fn standard_variants() -> [(&'static str, HardenConfig); 5] {
    [
        ("native", HardenConfig::native()),
        ("ILR", HardenConfig::ilr_only()),
        ("TX", HardenConfig::tx_only()),
        ("HAFT", HardenConfig::haft()),
        ("TMR", HardenConfig::tmr()),
    ]
}

/// The hardened (non-baseline) subset of [`standard_variants`] — what a
/// `compare` call takes, since `Experiment::compare` supplies the native
/// baseline itself.
pub fn hardened_variants() -> [(&'static str, HardenConfig); 4] {
    let [_, ilr, tx, haft, tmr] = standard_variants();
    [ilr, tx, haft, tmr]
}

/// The serving-experiment variant grid: the unprotected baseline plus
/// the two full-strength hardening backends. Shared by the report's
/// `serving` and `service-load` sections so the two measure the same
/// thing.
pub fn serving_variants() -> [(&'static str, HardenConfig); 3] {
    [
        ("native", HardenConfig::native()),
        ("HAFT", HardenConfig::haft()),
        ("TMR", HardenConfig::tmr()),
    ]
}

/// Per-benchmark transaction-size threshold, mirroring the paper's
/// methodology: "we set for each benchmark the transaction size to the
/// greatest value such that the percentage of aborts is sufficiently low"
/// (§5.3 — e.g. 1000 for kmeans and pca, 5000 for stringmatch and
/// blackscholes).
pub fn recommended_threshold(name: &str) -> u64 {
    match name {
        "kmeans" | "pca" | "wordcount" | "streamcluster" | "vips" => 1000,
        "swaptions" | "ferret" | "dedup" => 2000,
        _ => 5000,
    }
}

/// The VM configuration of a performance run: the requested thread count
/// and threshold, with an instruction budget large enough that no Large
/// -scale workload hangs against it.
pub fn perf_vm(threads: usize, tx_threshold: u64) -> VmConfig {
    VmConfig {
        n_threads: threads,
        tx_threshold,
        max_instructions: 2_000_000_000,
        ..VmConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haft_passes::Backend;

    #[test]
    fn variant_grid_labels_and_order() {
        let vs = standard_variants();
        let labels: Vec<String> = vs.iter().map(|(_, hc)| hc.label()).collect();
        assert_eq!(labels, ["native", "ILR", "TX", "HAFT", "TMR"]);
        for (name, hc) in &vs {
            assert_eq!(*name, hc.label(), "display name matches the config label");
        }
        assert_eq!(vs[4].1.backend(), Backend::Tmr);
        let hardened: Vec<&str> = hardened_variants().iter().map(|(n, _)| *n).collect();
        assert_eq!(hardened, ["ILR", "TX", "HAFT", "TMR"]);
        let serving: Vec<String> = serving_variants().iter().map(|(_, hc)| hc.label()).collect();
        assert_eq!(serving, ["native", "HAFT", "TMR"]);
    }

    #[test]
    fn thresholds_follow_paper_examples() {
        assert_eq!(recommended_threshold("kmeans"), 1000);
        assert_eq!(recommended_threshold("pca"), 1000);
        assert_eq!(recommended_threshold("stringmatch"), 5000);
        assert_eq!(recommended_threshold("blackscholes"), 5000);
        assert_eq!(recommended_threshold("ferret"), 2000);
    }

    #[test]
    fn perf_vm_shape() {
        let vm = perf_vm(8, 1000);
        assert_eq!(vm.n_threads, 8);
        assert_eq!(vm.tx_threshold, 1000);
        assert!(vm.max_instructions >= 2_000_000_000);
    }
}
