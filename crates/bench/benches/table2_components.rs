//! Table 2: ILR-only / TX-only / HAFT overheads, hyper-threading abort
//! increase, and code coverage.

use haft_bench::{experiment, header, overhead, recommended_threshold, row};
use haft_htm::HtmConfig;
use haft_passes::HardenConfig;
use haft_workloads::{all_workloads, Scale};

fn main() {
    let threads = if haft_bench::fast_mode() { 4 } else { 8 };
    println!(
        "\n=== Table 2: component overheads, HT abort factor, coverage ({threads} threads) ==="
    );
    header(&["ILR", "TX", "HAFT", "HTx", "Cov%"]);
    let workloads = all_workloads(Scale::Large);
    let mut means = [0.0; 5];
    for w in &workloads {
        let (ilr, _) = overhead(w, &HardenConfig::ilr_only(), threads);
        let (tx, _) = overhead(w, &HardenConfig::tx_only(), threads);
        let (haft, r) = overhead(w, &HardenConfig::haft(), threads);
        // Hyper-threading: same logical thread count on half the cores.
        let mut smt_cfg = haft::eval::perf_vm(threads, recommended_threshold(w.name));
        smt_cfg.htm = HtmConfig { smt: true, ..HtmConfig::default() };
        let smt = experiment(w, threads, recommended_threshold(w.name))
            .vm(smt_cfg)
            .harden(HardenConfig::haft())
            .run()
            .expect_completed(w.name);
        let base_rate = r.htm.abort_rate_pct().max(0.01);
        let ht_factor = smt.htm.abort_rate_pct().max(0.01) / base_rate;
        let cov = r.htm.coverage_pct();
        let vals = [ilr, tx, haft, ht_factor, cov];
        for (m, v) in means.iter_mut().zip(vals) {
            *m += v;
        }
        row(w.name, &vals);
    }
    let n = workloads.len() as f64;
    row("mean", &means.map(|m| m / n));
}
