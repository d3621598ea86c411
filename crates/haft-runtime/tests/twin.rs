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

/// Outside the exact region (closed loop over several shards, sagas) the
/// two drivers still serve the same work multiset, so their cycle-priced
/// throughput and batch counts must track within a band, and so must
/// their scaling from 2 to 4 shards.
#[test]
fn native_throughput_tracks_the_sim_twin_across_shard_counts() {
    let w = kv_shard(KvSync::Atomics);
    let exp = Experiment::workload(&w).harden(HardenConfig::haft());
    let cfg = |requests, shards| ServeConfig { requests, shards, batch: 8, ..Default::default() };
    let sagas = ServeConfig { sagas: Some(SagaLoad::default()), ..cfg(600, 2) };
    let workers = host_workers();
    let cells = [(cfg(600, 2), workers), (cfg(600, 4), workers), (sagas, workers)];
    let mut ratios = Vec::new();
    for (cfg, workers) in &cells {
        let sim = exp.serve_in(ServeMode::Sim, cfg);
        let nat = exp.serve_in(ServeMode::Native { workers: *workers }, cfg);
        assert_eq!(sim.requests_served, nat.requests_served);
        assert_eq!(nat.requests_offered, cfg.requests as u64);
        assert!(nat.wall.is_some() && sim.wall.is_none());
        let at = format!("{} shards, {workers} worker(s), sagas {:?}", cfg.shards, cfg.sagas);
        let ratio = nat.achieved_rps / sim.achieved_rps;
        assert!((0.4..=2.5).contains(&ratio), "{at}: native/sim throughput ratio {ratio:.3}");
        let batches = nat.batches as f64 / sim.batches as f64;
        assert!((0.5..=2.0).contains(&batches), "{at}: native/sim batch ratio {batches:.3}");
        ratios.push(ratio);
    }
    let shape = ratios[1] / ratios[0];
    assert!((0.5..=2.0).contains(&shape), "2 → 4 shard scaling diverged: {shape:.3}");
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

/// Both drivers form batches by one rule and draw each shard's faults from
/// its own stream, so one worker reproduces the simulation *exactly* —
/// the whole report, not a band — on every open-loop shape and every
/// one-shard closed loop, with and without faults. A closed loop over
/// several shards stays outside: the single worker issues the freed
/// clients' requests in host order, not virtual-time order.
#[test]
fn single_worker_native_equals_sim_exactly() {
    let w = kv_shard(KvSync::Atomics);
    let open = ArrivalMode::OpenLoop { rate_rps: 200_000.0 };
    let closed = [
        ArrivalMode::ClosedLoop { clients: 8, think_ns: 0 },
        ArrivalMode::ClosedLoop { clients: 3, think_ns: 500 },
    ];
    let mut region = Vec::new();
    for faults in [None, Some(FaultLoad { rate_per_request: 0.05, seed: 77 })] {
        for batch in [1usize, 8] {
            for shards in [1usize, 3] {
                region.push((open, shards, batch, faults));
            }
            for arrival in closed {
                region.push((arrival, 1, batch, faults));
            }
        }
    }

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
/// single-core host the bound degenerates to noise tolerance), each side
/// the best of 5 warm runs, so that a busy host moment does not decide
/// it. Ignored by default; the CI release job runs it with `-- --ignored`.
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
    // Warm once (allocator, page faults), then take the best of 5.
    let best = |workers| {
        let rps = || exp.serve_in(ServeMode::Native { workers }, &cfg).wall.unwrap().achieved_rps;
        rps();
        (0..5).map(|_| rps()).fold(0.0, f64::max)
    };
    let (one, all) = (best(1), best(cores));
    let speedup = all / one;
    assert!(
        speedup >= 0.7 * cores as f64,
        "wall-clock speedup {speedup:.2}x on {cores} core(s): \
         1-worker {:.1}k req/s, {cores}-worker {:.1}k req/s",
        one / 1e3,
        all / 1e3
    );
}
