//! Section 4: the serving harness — shard scaling, tail latency, and
//! availability under fault load.

use haft::eval::serving_variants;
use haft::Experiment;
use haft_apps::{kv_shard, KvSync, WorkloadMix};
use haft_serve::{ArrivalMode, FaultLoad, ServeConfig, ServeMode, ServiceReport};

use crate::render::{Series, Table, Tolerance};
use crate::section::{par_map, ReportConfig, SectionResult};

pub(super) fn run(cfg: &ReportConfig) -> SectionResult {
    let (shard_counts, requests): (&[usize], usize) =
        if cfg.fast { (&[1, 2], 200) } else { (&[1, 2, 4, 8], 2_000) };
    // The fault-load rows need enough injected batches for at least
    // one rollback recovery to land in the tail, so they keep a
    // larger request count even in fast mode.
    let fault_requests = if cfg.fast { 800 } else { requests };

    // One experiment per variant across every cell: the hardened
    // module is built once (the `Experiment` cache) and only the
    // serve configuration changes between runs.
    let w = kv_shard(KvSync::Atomics);
    let variants: Vec<(&str, Experiment<'_>)> = serving_variants()
        .into_iter()
        .map(|(label, hc)| (label, Experiment::workload(&w).harden(hc)))
        .collect();

    let mut throughput = Table::new(
        "throughput-vs-shards",
        "Closed-loop capacity (k req/s), YCSB mix B (95r/5u Zipfian)",
        &["shards", "native", "HAFT", "TMR", "HAFT ×", "TMR ×"],
    )
    .tolerance(Tolerance::Rel(0.25));
    let mut haft_scaling = Series::new("haft-throughput", "HAFT k req/s, scaling shards")
        .tolerance(Tolerance::Rel(0.25));
    let mut latency = Table::new(
        "tail-latency-us",
        "Per-request latency at 2 shards (µs)",
        &["variant", "p50", "p95", "p99", "p999"],
    )
    .tolerance(Tolerance::Rel(0.25));

    // Every simulated cell — the scaling cells, the fault-load rows and
    // the runtime table's Sim column — goes out at once on `par_map`;
    // the tables are then filled in the serial order.
    let scaling_cfg = |shards: usize| ServeConfig {
        requests,
        mix: WorkloadMix::B,
        shards,
        arrival: ArrivalMode::ClosedLoop { clients: 8 * shards, think_ns: 0 },
        ..ServeConfig::default()
    };
    let fault_cfg = ServeConfig {
        requests: fault_requests,
        shards: 2,
        faults: Some(FaultLoad { rate_per_request: 0.01, seed: 0xFA_17 }),
        ..ServeConfig::default()
    };
    let rcfg = ServeConfig {
        requests: if cfg.fast { 400 } else { requests },
        mix: WorkloadMix::B,
        shards: 2,
        arrival: ArrivalMode::ClosedLoop { clients: 16, think_ns: 0 },
        ..ServeConfig::default()
    };
    let mut cells = Vec::new();
    for scfg in shard_counts.iter().map(|&s| scaling_cfg(s)).chain([fault_cfg, rcfg.clone()]) {
        cells.extend(variants.iter().map(|(_, exp)| (exp, scfg.clone())));
    }
    let mut sim = par_map(cells, |(exp, scfg)| exp.serve(&scfg)).into_iter();
    let mut next_row = || -> Vec<ServiceReport> { sim.by_ref().take(variants.len()).collect() };

    for &shards in shard_counts {
        let reports = next_row();
        let [native, haft, tmr] = &reports[..] else { unreachable!() };
        assert_eq!(native.requests_served, requests as u64, "clean run serves everything");
        throughput.push_row(
            &shards.to_string(),
            vec![
                native.achieved_rps / 1e3,
                haft.achieved_rps / 1e3,
                tmr.achieved_rps / 1e3,
                native.achieved_rps / haft.achieved_rps,
                native.achieved_rps / tmr.achieved_rps,
            ],
        );
        haft_scaling.push(&format!("{shards} shard(s)"), haft.achieved_rps / 1e3);
        if shards == 2 {
            for (r, (label, _)) in reports.iter().zip(&variants) {
                latency.push_row(
                    label,
                    vec![
                        r.latency.p50_ns as f64 / 1e3,
                        r.latency.p95_ns as f64 / 1e3,
                        r.latency.p99_ns as f64 / 1e3,
                        r.latency.p999_ns as f64 / 1e3,
                    ],
                );
            }
        }
    }

    let mut availability = Table::new(
        "availability-pct",
        "Availability under a 1% per-request SEU load, 2 shards (%)",
        &["variant", "available"],
    )
    .tolerance(Tolerance::Abs(1.0));
    let mut fault_load = Table::new(
        "fault-load",
        "Fault-load accounting, 2 shards (counts, sdc/M, recovery spike)",
        &["variant", "sdc/M", "crashed batches", "corrected batches", "spike ×", "p999 µs"],
    )
    .tolerance(Tolerance::Rel(0.5));
    for ((label, _), r) in variants.iter().zip(next_row()) {
        let f = r.faults.expect("fault report attached");
        assert_eq!(f.counts.total(), fault_requests as u64, "{label}: outcomes must sum");
        availability.push_row(label, vec![f.availability_pct()]);
        fault_load.push_row(
            label,
            vec![
                f.sdc_per_million(),
                f.crashed_batches as f64,
                f.corrected_batches as f64,
                f.recovery_spike_factor(),
                r.latency.p999_ns as f64 / 1e3,
            ],
        );
    }

    // The work-stealing native runtime, next to its DES twin. The
    // wall-clock column is real threads on whatever host runs the
    // report — host- and load-dependent by construction — so the
    // table is informational (`Tolerance::Info`): its structure is
    // pinned and `--check`ed, its values live only in the JSON
    // snapshot and are elided from the Markdown. The twin ratio
    // (native cycle-priced throughput over the simulation's) is the
    // contract the haft-runtime test suite enforces with a hard band.
    // These native runs stay serial, after the fan-out: each puts a
    // worker on every host core and times the wall clock.
    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut runtime = Table::new(
        "runtime",
        "Native runtime at 2 shards, one worker per host core: wall-clock vs cycle-priced \
         k req/s (informational, host-dependent — values in report/serving.json)",
        &["variant", "wall k/s", "native cycle k/s", "sim cycle k/s", "twin ratio"],
    )
    .tolerance(Tolerance::Info);
    for ((label, exp), sim) in variants.iter().zip(next_row()) {
        let nat = exp.serve_in(ServeMode::Native { workers }, &rcfg);
        assert_eq!(sim.requests_served, nat.requests_served, "{label}: twin served counts");
        let wall = nat.wall.expect("native mode fills the wall report");
        runtime.push_row(
            label,
            vec![
                wall.achieved_rps / 1e3,
                nat.achieved_rps / 1e3,
                sim.achieved_rps / 1e3,
                nat.achieved_rps / sim.achieved_rps,
            ],
        );
    }

    SectionResult {
        notes: vec![
            format!(
                "{requests} requests per scaling/latency cell and {fault_requests} per \
                 fault-load row, through `Experiment::serve`: hardened `kv_shard` modules \
                 behind a key-hash router, closed-loop clients (8 per shard), batch ≤ 8; \
                 service time is the batch's serve+fini simulated cycles at 2 GHz plus \
                 fixed dispatch. Each variant hardens once and serves every cell from the \
                 cache. Deterministic seeds throughout."
            ),
            "The hardening tax shows up twice: as a capacity ratio (HAFT/TMR × columns) \
             and in the tail. Under fault load the backends split: native stays fast but \
             leaks SDC to clients; HAFT and TMR both deliver full availability, paying \
             respectively a rollback spike or a steady voting tax (see the trade-off \
             section)."
                .to_string(),
        ],
        tables: vec![throughput, latency, availability, fault_load, runtime],
        series: vec![haft_scaling],
    }
}
