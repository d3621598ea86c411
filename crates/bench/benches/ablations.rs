//! Ablations of HAFT design choices beyond the paper's own sweeps:
//! the check-elision peephole, the TX begin/end peephole, and the
//! adaptive-transaction-sizing extension (the paper's §7 future work).

use haft::Experiment;
use haft_bench::experiment;
use haft_passes::{HardenConfig, IlrConfig, TxConfig};
use haft_workloads::{all_workloads, workload_by_name, Scale};

/// Static instruction count of the module a config produces.
fn inst_count(w: &haft_workloads::Workload, hc: HardenConfig) -> usize {
    Experiment::new(&w.module).harden(hc).build().0.total_inst_count()
}

fn main() {
    let threads = if haft_bench::fast_mode() { 2 } else { 8 };

    println!("\n=== Ablation: ILR check-elision peephole ===");
    println!("{:<16}{:>14}{:>14}{:>10}", "benchmark", "insts(on)", "insts(off)", "saved");
    for name in ["histogram", "vips", "dedup", "x264"] {
        let w = workload_by_name(name, Scale::Small).unwrap();
        let a = inst_count(&w, HardenConfig::haft());
        let b = inst_count(
            &w,
            HardenConfig {
                ilr: Some(IlrConfig { check_elision: false, ..Default::default() }),
                tx: Some(TxConfig::default()),
                ..HardenConfig::default()
            },
        );
        println!(
            "{:<16}{:>14}{:>14}{:>9.1}%",
            name,
            a,
            b,
            100.0 * (b as f64 - a as f64) / b as f64
        );
    }

    println!("\n=== Ablation: TX begin/end peephole ===");
    println!("{:<16}{:>14}{:>14}{:>10}", "benchmark", "insts(on)", "insts(off)", "saved");
    for name in ["dedup", "vips"] {
        let w = workload_by_name(name, Scale::Small).unwrap();
        let a = inst_count(&w, HardenConfig::haft());
        let b = inst_count(
            &w,
            HardenConfig {
                ilr: Some(IlrConfig::default()),
                tx: Some(TxConfig { peephole: false, ..Default::default() }),
                ..HardenConfig::default()
            },
        );
        println!(
            "{:<16}{:>14}{:>14}{:>9.1}%",
            name,
            a,
            b,
            100.0 * (b as f64 - a as f64) / b as f64
        );
    }

    println!("\n=== Ablation: adaptive transaction sizing (paper §7 future work) ===");
    println!(
        "{:<16}{:>10}{:>10}{:>12}{:>12}{:>10}{:>10}",
        "benchmark", "oh(fix)", "oh(adpt)", "abort%(fix)", "abort%(adpt)", "cov(fix)", "cov(adpt)"
    );
    for w in all_workloads(Scale::Large) {
        // Only the conflict-prone kernels are interesting here.
        if !matches!(w.name, "kmeans" | "pca" | "wordcount" | "streamcluster" | "vips") {
            continue;
        }
        let native = experiment(&w, threads, 5000).run().expect_completed(w.name);
        let fixed = experiment(&w, threads, 5000)
            .harden(HardenConfig::haft())
            .run()
            .expect_completed(w.name);
        let mut acfg = haft::eval::perf_vm(threads, 5000);
        acfg.adaptive_threshold = true;
        let adaptive = Experiment::workload(&w)
            .vm(acfg)
            .harden(HardenConfig::haft())
            .run()
            .expect_completed(w.name);
        println!(
            "{:<16}{:>10.2}{:>10.2}{:>12.2}{:>12.2}{:>9.1}%{:>9.1}%",
            w.name,
            fixed.wall_cycles as f64 / native.wall_cycles as f64,
            adaptive.wall_cycles as f64 / native.wall_cycles as f64,
            fixed.htm.abort_rate_pct(),
            adaptive.htm.abort_rate_pct(),
            fixed.htm.coverage_pct(),
            adaptive.htm.coverage_pct(),
        );
    }
}
