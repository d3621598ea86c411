//! Figure 11: memcached throughput under YCSB A and D, native vs HAFT
//! with/without lock elision, plus the SEI comparison (right graph).

use haft::Experiment;
use haft_apps::{memcached, KvSync, WorkloadMix};
use haft_passes::HardenConfig;
use haft_vm::RunResult;
use haft_workloads::Scale;

/// Simulated throughput in M ops per second at 2 GHz.
fn throughput(wall_cycles: u64, ops: f64) -> f64 {
    ops / (wall_cycles as f64 / 2.0e9) / 1.0e6
}

/// One grid cell: a memcached variant hardened with `hc`, with or
/// without the VM's lock-elision wrapper.
fn cell(
    mix: WorkloadMix,
    sync: KvSync,
    hc: HardenConfig,
    elide: bool,
    threads: usize,
) -> RunResult {
    let w = memcached(mix, sync, Scale::Large);
    Experiment::workload(&w)
        .vm(haft::eval::perf_vm(threads, 3000))
        .harden(hc)
        .lock_elision(elide)
        .run()
        .expect_completed(w.name)
}

fn main() {
    let threads: Vec<usize> =
        if haft_bench::fast_mode() { vec![2, 8] } else { vec![1, 2, 4, 8, 16] };
    let ops = 24_000.0;
    for (mix, label) in
        [(WorkloadMix::A, "A (50r/50w, zipf)"), (WorkloadMix::D, "D (95r/5w, latest)")]
    {
        println!("\n=== Figure 11: memcached workload {label} — throughput (M msg/s) ===");
        println!(
            "{:<10}{:>14}{:>14}{:>14}{:>14}{:>16}",
            "threads", "native-atom", "native-lock", "HAFT-atom", "HAFT-lock", "HAFT-lock-noel"
        );
        for &t in &threads {
            let na = cell(mix, KvSync::Atomics, HardenConfig::native(), false, t);
            let nl = cell(mix, KvSync::Lock, HardenConfig::native(), false, t);
            let ha = cell(mix, KvSync::Atomics, HardenConfig::haft(), false, t);
            let hl = cell(mix, KvSync::Lock, HardenConfig::haft_with_elision(), true, t);
            let hn = cell(mix, KvSync::Lock, HardenConfig::haft(), false, t);
            println!(
                "{:<10}{:>14.3}{:>14.3}{:>14.3}{:>14.3}{:>16.3}",
                t,
                throughput(na.wall_cycles, ops),
                throughput(nl.wall_cycles, ops),
                throughput(ha.wall_cycles, ops),
                throughput(hl.wall_cycles, ops),
                throughput(hn.wall_cycles, ops),
            );
        }
    }

    println!("\n=== Figure 11 (right): HAFT vs SEI (mcblaster-style, uniform keys) ===");
    println!("{:<10}{:>14}{:>14}{:>14}", "threads", "native-lock", "HAFT-lock", "SEI");
    for &t in &threads {
        let nl = cell(WorkloadMix::Uniform, KvSync::Lock, HardenConfig::native(), false, t);
        let hl =
            cell(WorkloadMix::Uniform, KvSync::Lock, HardenConfig::haft_with_elision(), true, t);
        let sei = cell(WorkloadMix::Uniform, KvSync::Sei, HardenConfig::native(), false, t);
        println!(
            "{:<10}{:>14.3}{:>14.3}{:>14.3}",
            t,
            throughput(nl.wall_cycles, ops),
            throughput(hl.wall_cycles, ops),
            throughput(sei.wall_cycles, ops),
        );
    }
}
