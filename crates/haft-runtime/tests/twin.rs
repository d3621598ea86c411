//! Twin validation: the DES and the native runtime are two executions of
//! one serving model, and their cycle-priced numbers must track.
//!
//! Everything here compares *virtual* (cost-model) throughput, which is
//! host-independent — these tests pass identically on a laptop and a
//! loaded CI box. The only host-dependent check is the wall-clock
//! saturation test, which is `#[ignore]`d and run explicitly by the CI
//! release job.

use haft::prelude::*;
use haft_apps::{kv_shard, KvSync};

fn host_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[test]
fn native_throughput_tracks_the_sim_twin_across_shard_counts() {
    let w = kv_shard(KvSync::Atomics);
    let exp = Experiment::workload(&w).harden(HardenConfig::haft());
    let workers = host_workers();
    let mut sim_rps = Vec::new();
    let mut nat_rps = Vec::new();
    for shards in [1usize, 2, 4] {
        let cfg = ServeConfig { requests: 600, shards, batch: 8, ..Default::default() };
        let sim = exp.serve_in(ServeMode::Sim, &cfg);
        let nat = exp.serve_in(ServeMode::Native { workers }, &cfg);
        assert_eq!(sim.requests_served, nat.requests_served);
        assert_eq!(nat.requests_offered, 600);
        assert!(nat.wall.is_some() && sim.wall.is_none());
        // Point-wise band: same model, same cost pricing, different
        // batch composition.
        let ratio = nat.achieved_rps / sim.achieved_rps;
        assert!(
            (0.4..=2.5).contains(&ratio),
            "{shards} shard(s): native/sim cycle-priced throughput ratio {ratio:.3}"
        );
        sim_rps.push(sim.achieved_rps);
        nat_rps.push(nat.achieved_rps);
    }
    // Shape band: normalize both curves to their 1-shard point; the
    // relative scaling with shard count must agree within 2×.
    for i in 1..sim_rps.len() {
        let shape = (nat_rps[i] / nat_rps[0]) / (sim_rps[i] / sim_rps[0]);
        assert!(
            (0.5..=2.0).contains(&shape),
            "shard-count scaling diverged at point {i}: shape ratio {shape:.3} \
             (sim {sim_rps:?}, native {nat_rps:?})"
        );
    }
}

#[test]
fn twin_holds_for_the_tmr_backend_too() {
    let w = kv_shard(KvSync::Atomics);
    let exp = Experiment::workload(&w).harden(HardenConfig::tmr());
    let cfg = ServeConfig { requests: 400, shards: 2, ..Default::default() };
    let sim = exp.serve_in(ServeMode::Sim, &cfg);
    let nat = exp.serve_in(ServeMode::Native { workers: host_workers() }, &cfg);
    let ratio = nat.achieved_rps / sim.achieved_rps;
    assert!((0.4..=2.5).contains(&ratio), "TMR native/sim ratio {ratio:.3}");
}

#[test]
fn single_worker_native_is_deterministic_up_to_wall_clock() {
    let w = kv_shard(KvSync::Atomics);
    let exp = Experiment::workload(&w).harden(HardenConfig::haft());
    let cfg = ServeConfig {
        requests: 300,
        shards: 3,
        sagas: Some(SagaLoad::default()),
        ..Default::default()
    };
    let strip = |mut r: ServiceReport| {
        r.wall = None;
        r
    };
    let a = strip(exp.serve_in(ServeMode::Native { workers: 1 }, &cfg));
    let b = strip(exp.serve_in(ServeMode::Native { workers: 1 }, &cfg));
    assert_eq!(a, b, "one worker serializes every scheduling decision");
}

/// Where both drivers make the same batch-start decisions, one worker
/// must reproduce the simulation *exactly* — the whole report, not a
/// band. That region is: open loop without sagas (every arrival is
/// seeded up front, so "what has arrived by `t0`" is the same set in
/// both drivers) at any shard/batch shape when fault-free, and at one
/// shard with faults (one shard ⇒ the per-shard stream `seed ^ 0` *is*
/// the global stream); closed loop only at one shard and batch 1, where
/// coalescing cannot differ. Outside it the DES starts an idle shard's
/// batch on the first arrival alone while the actor coalesces everything
/// present, which is driver policy, not accounting.
#[test]
fn single_worker_native_equals_sim_exactly() {
    let w = kv_shard(KvSync::Atomics);
    let open = ArrivalMode::OpenLoop { rate_rps: 200_000.0 };
    let closed = ArrivalMode::ClosedLoop { clients: 8, think_ns: 0 };
    let faults = Some(FaultLoad { rate_per_request: 0.05, seed: 77 });
    let mut region = Vec::new();
    for shards in [1usize, 3] {
        for batch in [1usize, 8] {
            region.push((open, shards, batch, None));
        }
    }
    for batch in [1usize, 8] {
        region.push((open, 1, batch, faults));
    }
    region.push((closed, 1, 1, None));
    region.push((closed, 1, 1, faults));

    for hc in [HardenConfig::native(), HardenConfig::haft(), HardenConfig::tmr()] {
        let exp = Experiment::workload(&w).harden(hc.clone());
        for &(arrival, shards, batch, faults) in &region {
            let cfg =
                ServeConfig { requests: 300, arrival, shards, batch, faults, ..Default::default() };
            let sim = exp.serve_in(ServeMode::Sim, &cfg);
            let mut nat = exp.serve_in(ServeMode::Native { workers: 1 }, &cfg);
            assert!(nat.wall.take().is_some() && sim.wall.is_none());
            assert_eq!(
                nat,
                sim,
                "{}: {arrival:?}, {shards} shard(s), batch {batch}, faults {faults:?}",
                hc.label()
            );
        }
    }
}

#[test]
fn serve_sweep_hardens_exactly_once_per_config() {
    // The counter is process-global and keyed by module name; rename the
    // module so parallel tests hardening kv_shard don't race this count.
    let mut w = kv_shard(KvSync::Atomics);
    w.module.name = "kv_shard_harden_cache_probe".into();
    let probe = || haft::passes::harden_runs_for("kv_shard_harden_cache_probe");
    let before = probe();

    let exp = Experiment::workload(&w).harden(HardenConfig::haft());
    for shards in [1usize, 2, 3] {
        let cfg = ServeConfig { requests: 120, shards, ..Default::default() };
        let _ = exp.serve_in(ServeMode::Sim, &cfg);
        let _ = exp.serve_in(ServeMode::Native { workers: 1 }, &cfg);
        let _ = exp.serve_in(ServeMode::Native { workers: 2 }, &cfg);
    }
    assert_eq!(
        probe() - before,
        1,
        "nine serve calls (3 shard counts × 3 modes) over one config must harden once"
    );

    // A different harden config is a different cache entry: exactly one
    // more run.
    let exp2 = Experiment::workload(&w).harden(HardenConfig::tmr());
    let _ = exp2.serve(&ServeConfig { requests: 60, ..Default::default() });
    let _ = exp2.serve_in(
        ServeMode::Native { workers: 1 },
        &ServeConfig { requests: 60, ..Default::default() },
    );
    assert_eq!(probe() - before, 2, "second config hardens once more");
}

/// Wall-clock scaling — the one host-dependent check. On an N-core host
/// the pool must reach ≥ 0.7× linear speedup from 1 worker to N (on a
/// single-core host the bound degenerates to noise tolerance). Ignored
/// by default; the CI release job runs it with `-- --ignored`.
#[test]
#[ignore = "host-dependent wall-clock saturation; run explicitly with -- --ignored"]
fn native_mode_saturates_the_host() {
    let cores = host_workers();
    let w = kv_shard(KvSync::Atomics);
    let exp = Experiment::workload(&w).harden(HardenConfig::haft());
    let cfg = ServeConfig {
        requests: 4_000,
        shards: (2 * cores).max(4),
        batch: 16,
        router: RouterPolicy::RoundRobin,
        ..Default::default()
    };
    // Warm once (allocator, page faults), then measure.
    let _ = exp.serve_in(ServeMode::Native { workers: 1 }, &cfg);
    let one = exp.serve_in(ServeMode::Native { workers: 1 }, &cfg).wall.unwrap();
    let all = exp.serve_in(ServeMode::Native { workers: cores }, &cfg).wall.unwrap();
    let speedup = all.achieved_rps / one.achieved_rps;
    assert!(
        speedup >= 0.7 * cores as f64,
        "wall-clock speedup {speedup:.2}x on {cores} core(s): \
         1-worker {:.1}k req/s, {cores}-worker {:.1}k req/s",
        one.achieved_rps / 1e3,
        all.achieved_rps / 1e3
    );
}
