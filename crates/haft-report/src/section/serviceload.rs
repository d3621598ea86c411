//! Section 15: the sharded service under a write-heavy mix and under
//! open-loop load — what the `serving` section's closed-loop YCSB B
//! tables leave out.

use haft::eval::serving_variants;
use haft::Experiment;
use haft_apps::{kv_shard, KvSync, WorkloadMix};
use haft_serve::{ArrivalMode, ServeConfig, ServiceReport};

use crate::render::{Table, Tolerance};
use crate::section::{ReportConfig, SectionResult};

pub(super) fn run(cfg: &ReportConfig) -> SectionResult {
    let (shard_counts, requests, fracs): (&[usize], usize, &[f64]) = if cfg.fast {
        (&[1, 2], 200, &[0.5, 1.2])
    } else {
        (&[1, 2, 4, 8], 2_000, &[0.3, 0.6, 0.9, 1.2])
    };
    let w = kv_shard(KvSync::Atomics);
    let [native, haft, tmr] = serving_variants().map(|(_, hc)| Experiment::workload(&w).harden(hc));
    let us = |ns: u64| ns as f64 / 1e3;
    // One closed-loop cell per shard count: [native, HAFT, TMR].
    let closed_loop = |mix| -> Vec<[ServiceReport; 3]> {
        shard_counts
            .iter()
            .map(|&shards| {
                let scfg = ServeConfig {
                    requests,
                    mix,
                    shards,
                    arrival: ArrivalMode::ClosedLoop { clients: 8 * shards, think_ns: 0 },
                    ..ServeConfig::default()
                };
                [&native, &haft, &tmr].map(|exp| exp.serve(&scfg))
            })
            .collect()
    };

    let mut capacity = Table::new(
        "capacity-ycsb-a",
        "Closed-loop capacity (k req/s) and p99 (µs), YCSB mix A (50r/50u Zipfian)",
        &["shards", "native", "HAFT", "TMR", "HAFT p99", "TMR p99", "HAFT ×", "TMR ×"],
    )
    .tolerance(Tolerance::Rel(0.25));
    for (shards, [n, h, t]) in shard_counts.iter().zip(closed_loop(WorkloadMix::A)) {
        assert_eq!(n.requests_served, requests as u64, "clean run serves everything");
        capacity.push_row(
            &shards.to_string(),
            vec![
                n.achieved_rps / 1e3,
                h.achieved_rps / 1e3,
                t.achieved_rps / 1e3,
                us(h.latency.p99_ns),
                us(t.latency.p99_ns),
                n.achieved_rps / h.achieved_rps,
                n.achieved_rps / t.achieved_rps,
            ],
        );
    }

    // Mix B capacity is the `serving` section's; here, its p99 per
    // cell, and HAFT's 2-shard capacity as the open-loop yardstick.
    let mut p99 = Table::new(
        "p99-ycsb-b",
        "Closed-loop p99 (µs) at every shard count, YCSB mix B",
        &["shards", "HAFT p99", "TMR p99"],
    )
    .tolerance(Tolerance::Rel(0.25));
    let mut haft_2shard_rps = 0.0;
    for (&shards, [_, h, t]) in shard_counts.iter().zip(closed_loop(WorkloadMix::B)) {
        p99.push_row(&shards.to_string(), vec![us(h.latency.p99_ns), us(t.latency.p99_ns)]);
        if shards == 2 {
            haft_2shard_rps = h.achieved_rps;
        }
    }

    let mut open_loop = Table::new(
        "open-loop-latency",
        "Open-loop latency (µs) vs offered load, 2 shards, mix B, unbatched",
        &["load", "offered k/s", "HAFT p50", "HAFT p99", "TMR p50", "TMR p99"],
    )
    .tolerance(Tolerance::Rel(0.25));
    for &frac in fracs {
        let rate_rps = haft_2shard_rps * frac;
        let scfg = ServeConfig {
            requests: requests / 2,
            shards: 2,
            batch: 1,
            arrival: ArrivalMode::OpenLoop { rate_rps },
            ..ServeConfig::default()
        };
        let mut row = vec![rate_rps / 1e3];
        for exp in [&haft, &tmr] {
            let r = exp.serve(&scfg);
            row.extend([us(r.latency.p50_ns), us(r.latency.p99_ns)]);
        }
        open_loop.push_row(&format!("{:.0}% cap", frac * 100.0), row);
    }

    SectionResult {
        notes: vec![format!(
            "{requests} requests per closed-loop cell (8 clients per shard, batch ≤ 8) and {} per \
             open-loop cell, hardened `kv_shard` modules through `Experiment::serve`, as in the \
             `serving` section. Offered load is a fraction of HAFT's closed-loop mix B capacity \
             at 2 shards, for both backends. Writes cost the hardened backends no more than \
             reads (mix A tracks mix B); past saturation queueing takes over the tail, and TMR \
             — the same absolute load against a smaller capacity — saturates first.",
            requests / 2
        )],
        tables: vec![capacity, p99, open_loop],
        series: Vec::new(),
    }
}
