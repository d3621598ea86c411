//! Section 5: HAFT vs Elzar-style TMR, side by side.

use haft::eval::{perf_vm, recommended_threshold};
use haft::Experiment;
use haft_apps::{kv_shard, KvSync};
use haft_faults::{CampaignConfig, Group, Outcome};
use haft_passes::HardenConfig;
use haft_serve::{FaultLoad, ServeConfig};
use haft_workloads::{workload_by_name, Scale, PHOENIX_BASE_NAMES};

use crate::render::{Table, Tolerance};
use crate::section::{ReportConfig, SectionResult};

pub(super) fn run(cfg: &ReportConfig) -> SectionResult {
    let (names, injections, requests): (&[&str], u64, usize) = if cfg.fast {
        (&["histogram", "linearreg"], 24, 800)
    } else {
        (&PHOENIX_BASE_NAMES, 150, 2_000)
    };
    let threads = 2;

    // Batch side: mean overhead and campaign outcomes over Phoenix.
    // One campaign per (workload, backend) supplies *both* numbers:
    // its fault-free reference run is the overhead measurement (same
    // VM, same entry points as a plain `run`), so nothing hardens or
    // executes twice.
    #[derive(Default)]
    struct Acc {
        oh: f64,
        corrected: f64,
        crashed: f64,
        sdc: f64,
        commits: u64,
    }
    let backends = [("HAFT", HardenConfig::haft()), ("TMR", HardenConfig::tmr())];
    let mut accs = [Acc::default(), Acc::default()];
    for name in names {
        let w = workload_by_name(name, Scale::Small).expect("registered workload");
        let vm = perf_vm(threads, recommended_threshold(name));
        let native = Experiment::workload(&w).vm(vm.clone()).run().expect_completed(name);
        for ((label, hc), acc) in backends.iter().zip(&mut accs) {
            let v = Experiment::workload(&w)
                .harden(hc.clone())
                .vm(vm.clone())
                .campaign(CampaignConfig { injections, seed: 0xE15A, ..Default::default() });
            assert_eq!(v.run.output, native.output, "{name}/{label}: output diverged");
            acc.oh += v.run.wall_cycles as f64 / native.wall_cycles.max(1) as f64;
            acc.commits += v.run.htm.commits;
            let c = v.campaign.expect("campaign report");
            acc.corrected += c.pct(Outcome::HaftCorrected) + c.pct(Outcome::VoteCorrected);
            acc.crashed += c.group_pct(Group::Crashed);
            acc.sdc += c.pct(Outcome::Sdc);
        }
    }
    let n = names.len() as f64;
    let [haft, tmr] = accs;

    // Service side: the recovery-latency spike under a 1% SEU load —
    // rollback stalls a whole batch; voting masks nearly in place.
    // This deliberately re-measures the serving section's fault-load
    // experiment: sections run standalone (`--section haft-vs-elzar`
    // must not depend on another section's output), and the run is
    // deterministic, so the two pins agree whenever both regenerate.
    let spike = |hc: HardenConfig| {
        let w = kv_shard(KvSync::Atomics);
        let r = Experiment::workload(&w).harden(hc).serve(&ServeConfig {
            requests,
            shards: 2,
            faults: Some(FaultLoad { rate_per_request: 0.01, seed: 0xFA_17 }),
            ..ServeConfig::default()
        });
        let f = r.faults.expect("fault report attached");
        (f.availability_pct(), f.recovery_spike_factor())
    };
    let (haft_avail, haft_spike) = spike(HardenConfig::haft());
    let (tmr_avail, tmr_spike) = spike(HardenConfig::tmr());

    let mut table = Table::new(
        "haft-vs-tmr",
        "HAFT vs TMR, same pipeline, same workloads",
        &["metric", "HAFT", "TMR"],
    )
    .tolerance(Tolerance::Rel(0.3));
    table.push_row("mean overhead × native (Phoenix)", vec![haft.oh / n, tmr.oh / n]);
    table.push_row("corrected (rollback/vote) %", vec![haft.corrected / n, tmr.corrected / n]);
    table.push_row("crashed group %", vec![haft.crashed / n, tmr.crashed / n]);
    table.push_row("SDC %", vec![haft.sdc / n, tmr.sdc / n]);
    table.push_row("HTM commits (reference runs)", vec![haft.commits as f64, tmr.commits as f64]);
    table.push_row("service availability @1% SEU (%)", vec![haft_avail, tmr_avail]);
    table.push_row("recovery-latency spike ×", vec![haft_spike, tmr_spike]);

    SectionResult {
        notes: vec![
            format!(
                "Phoenix at Small scale, {threads} threads, {injections} injections per \
                 workload per backend; the serving rows replay the availability experiment \
                 at 2 shards, {requests} requests, 1% per-request SEU."
            ),
            "How to read it: HAFT detects with two copies and needs HTM rollback to \
             correct, so it is cheaper per instruction but recovery is a visible stall \
             (the spike row) and detect-without-recover paths leak into the crashed \
             group. TMR pays a third copy plus votes up front — zero HTM commits by \
             construction — and masks faults nearly in place."
                .to_string(),
        ],
        tables: vec![table],
        series: vec![],
    }
}
