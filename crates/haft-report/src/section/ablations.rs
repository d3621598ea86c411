//! Section 14: ablations of HAFT design choices beyond the paper's own
//! sweeps — the two peepholes and adaptive transaction sizing.

use haft::eval::perf_vm;
use haft::Experiment;
use haft_passes::{HardenConfig, IlrConfig, TxConfig};
use haft_vm::VmConfig;
use haft_workloads::{workload_by_name, Scale};

use crate::render::Table;
use crate::section::{ReportConfig, SectionResult};

pub(super) fn run(cfg: &ReportConfig) -> SectionResult {
    let with = |ilr, tx| HardenConfig::IlrTx { ilr: Some(ilr), tx: Some(tx) };
    let ilr_off = IlrConfig { check_elision: false, ..Default::default() };
    let tx_off = TxConfig { peephole: false, ..Default::default() };
    let peepholes: [(&str, &[&str], HardenConfig); 2] = [
        (
            "check-elision",
            &["histogram", "vips", "dedup", "x264"],
            with(ilr_off, TxConfig::default()),
        ),
        ("tx-peephole", &["dedup", "vips"], with(IlrConfig::default(), tx_off)),
    ];
    let mut savings = Table::new(
        "peephole-savings",
        "Static instructions of the hardened module with each peephole on and off",
        &["peephole · workload", "insts on", "insts off", "saved %"],
    )
    .precision(1);
    for (label, names, without) in peepholes {
        for name in names {
            let w = workload_by_name(name, Scale::Small).expect("registered workload");
            let [on, off] = [HardenConfig::haft(), without.clone()].map(|hc| {
                Experiment::new(&w.module).harden(hc).build().0.total_inst_count() as f64
            });
            let row = vec![on, off, 100.0 * (off - on) / off];
            savings.push_row(&format!("{label} · {name}"), row);
        }
    }

    // Only the conflict-prone kernels are interesting here.
    let (names, scale, threads): (&[&str], Scale, usize) = if cfg.fast {
        (&["kmeans", "wordcount"], Scale::Small, 2)
    } else {
        (&["kmeans", "pca", "wordcount", "streamcluster", "vips"], Scale::Large, 8)
    };
    let mut adaptive = Table::new(
        "adaptive-threshold",
        "Fixed threshold 5000 vs adaptive sizing: overhead ×, abort %, coverage %",
        &["workload", "oh fix", "oh adpt", "abort fix", "abort adpt", "cov fix", "cov adpt"],
    );
    for name in names {
        let w = workload_by_name(name, scale).expect("registered workload");
        let vm = perf_vm(threads, 5000);
        let run = |hc: HardenConfig, vm: VmConfig| {
            Experiment::workload(&w).harden(hc).vm(vm).run().expect_completed(name)
        };
        let native = run(HardenConfig::native(), vm.clone());
        let fixed = run(HardenConfig::haft(), vm.clone());
        let adapt = run(HardenConfig::haft(), VmConfig { adaptive_threshold: true, ..vm });
        let runs = [&fixed, &adapt];
        let mut row = runs.map(|r| r.wall_cycles as f64 / native.wall_cycles as f64).to_vec();
        row.extend(runs.map(|r| r.htm.abort_rate_pct()));
        row.extend(runs.map(|r| r.htm.coverage_pct()));
        adaptive.push_row(name, row);
    }

    SectionResult {
        notes: vec![format!(
            "Peepholes: static instruction counts (Small scale; they do not depend on the \
             input) — check elision finds nothing left to remove on these kernels. Adaptive \
             sizing: {scale:?} scale, {threads} threads, both runs start from threshold \
             5000; the adaptive VM halves a thread's threshold on an abort and grows it \
             back on commits, recovering most of what a mis-set threshold loses to aborts."
        )],
        tables: vec![savings, adaptive],
        series: Vec::new(),
    }
}
