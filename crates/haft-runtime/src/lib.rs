//! `haft-runtime` — hardened backends on real threads.
//!
//! The `haft-serve` discrete-event simulation prices a fleet of shard
//! VMs on one host thread; this crate *runs* the same fleet: N shard
//! actors — each batch a fresh VM over its own clone of the one shard
//! image ([`haft_serve::BatchRunner`]) they share — scheduled across a
//! work-stealing pool of OS threads ([`pool::Pool`]). It is the second
//! *driver* of
//! [`haft_serve::ShardCore`]: batch formation, the per-shard fault
//! streams, the batch step, pricing, classification, accounting and
//! report assembly are the simulation's own code, and this crate decides
//! only when a shard's next batch is formed (inboxes and
//! [`haft_serve::ShardCore::form_batch`]), and splits cross-shard
//! multi-key requests into per-key sub-operations that join as sagas
//! ([`traffic::Saga`]).
//!
//! # The DES is the deterministic twin
//!
//! Both modes take one [`ServeConfig`] and emit one [`ServiceReport`].
//! The simulation is bit-reproducible and generates every pinned table.
//! With one worker the native runtime reproduces it *exactly* on every
//! open loop and every one-shard closed loop without sagas (this crate's
//! twin-validation test). A closed loop over several shards stays
//! outside: freed clients' requests are issued in host order (the one
//! worker's, or whichever worker gets there first), not virtual-time
//! order, and the simulation serves saga sub-operations as independent
//! requests. There the cycle-priced numbers *track* the simulation
//! within a band rather than matching bit-for-bit. Wall-clock
//! throughput, the one thing only real threads can measure, is reported
//! separately in [`haft_serve::WallReport`] and never pinned.

pub mod actor;
pub mod pool;
pub mod traffic;

use std::time::Instant;

use haft_apps::KV_KEYSPACE;
use haft_ir::module::Module;
use haft_serve::{
    calibrate_writes_per_req, ArrivalMode, BatchRunner, ServeConfig, ServiceReport, WallReport,
};
use haft_trace::TraceBuf;
use haft_vm::{RunSpec, VmConfig};

pub use actor::ShardActor;
pub use pool::{ActorSlot, Pool};
pub use traffic::{Req, Saga, TrafficSource};

/// Pool knobs for [`run_native`].
#[derive(Clone, Copy, Debug)]
pub struct NativeOpts {
    /// OS threads in the work-stealing pool, the calling thread included
    /// (clamped to ≥ 1).
    pub workers: usize,
    /// When set, workers sprinkle seeded `yield_now` calls at scheduling
    /// decision points — the release-mode interleaving shaker used by
    /// the stress tests. `None` (the default) costs nothing.
    pub shake_seed: Option<u64>,
}

impl Default for NativeOpts {
    fn default() -> Self {
        NativeOpts { workers: 1, shake_seed: None }
    }
}

/// Serves `cfg.requests` of generated traffic through `cfg.shards` shard
/// actors on a work-stealing pool of `opts.workers` OS threads — the
/// real-thread counterpart of [`haft_serve::run_service`], taking the
/// identical arguments and returning the identical report schema (plus
/// [`WallReport`]).
///
/// With one worker the run is deterministic (one thread serializes every
/// scheduling decision); with more, thread timing varies batch
/// composition and the report is reproducible only in distribution.
///
/// With `trace` attached, scheduling events (steals, actor drains, saga
/// splits) land in it on the host wall clock and batch/saga/VM/HTM
/// events on the virtual clock — each carrying the other clock as an
/// argument. The report is assembled exactly as in an untraced run.
///
/// # Panics
///
/// Same degenerate-configuration panics as [`haft_serve::run_service`].
pub fn run_native(
    module: &Module,
    spec: RunSpec<'_>,
    vm: VmConfig,
    label: impl Into<String>,
    cfg: &ServeConfig,
    opts: NativeOpts,
    mut trace: Option<&mut TraceBuf>,
) -> ServiceReport {
    cfg.validate(spec);
    let workers = opts.workers.max(1);
    // One shard image for the calibration and every actor; same estimate
    // as the DES.
    let runner = BatchRunner::new(module, spec, vm);
    let writes_per_req = cfg.faults.map_or(1, |_| calibrate_writes_per_req(&runner, cfg));

    let epoch = trace.as_ref().map(|_| Instant::now());
    let slots: Vec<ActorSlot> = (0..cfg.shards)
        .map(|i| {
            let mut actor = ShardActor::new(&runner, cfg, i, writes_per_req);
            if epoch.is_some() {
                actor.core.enable_trace(epoch);
            }
            ActorSlot::new(actor)
        })
        .collect();
    let mut traffic = TrafficSource::new(cfg.seed, KV_KEYSPACE, cfg.mix, cfg.requests, cfg.sagas);
    if epoch.is_some() {
        traffic.enable_trace();
    }
    let mut pool = Pool::new(slots, cfg, traffic, workers, opts.shake_seed, epoch);

    // Seed the arrival process (virtual timestamps; matches the DES).
    match cfg.arrival {
        ArrivalMode::OpenLoop { rate_rps } => {
            let mut poisson = haft_serve::PoissonArrivals::new(cfg.seed ^ 0x0A88_17A1, rate_rps);
            while !pool.traffic_exhausted() {
                let t = poisson.next_ns();
                let issued = pool.issue_group_at(t, None);
                // One Poisson draw per *operation* keeps the arrival
                // stream aligned with the simulation, which issues every
                // operation individually; a multi-key group arrives at
                // its first draw and consumes the rest.
                for _ in 1..issued {
                    poisson.next_ns();
                }
            }
        }
        ArrivalMode::ClosedLoop { clients, .. } => {
            for _ in 0..clients.max(1) {
                if pool.issue_group_at(0, None) == 0 {
                    break;
                }
            }
        }
    }

    let t0 = Instant::now();
    pool.run(workers);
    let wall_ns = (t0.elapsed().as_nanos() as u64).max(1);

    let steals = pool.steals();
    if let Some(buf) = trace.as_deref_mut() {
        buf.events.extend(pool.take_trace());
    }
    let cores = pool.into_actors().into_iter().map(|a| a.core).collect();
    let mut report = ServiceReport::assemble(label.into(), cfg, cores, trace);
    report.wall = Some(WallReport {
        workers,
        duration_ns: wall_ns,
        achieved_rps: report.requests_served as f64 * 1e9 / wall_ns as f64,
        steals,
    });
    report
}

// The pool shares borrowed module/spec data across scoped threads; these
// assertions pin the Send/Sync audit at compile time.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_sync::<Pool<'static>>();
    assert_send::<ShardActor<'static>>();
    assert_send::<Req>();
    assert_sync::<Saga>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use haft_apps::{kv_shard, KvSync};
    use haft_serve::run_service;

    fn native(cfg: &ServeConfig, workers: usize) -> ServiceReport {
        let w = kv_shard(KvSync::Atomics);
        let opts = NativeOpts { workers, shake_seed: None };
        run_native(&w.module, w.run_spec(), VmConfig::default(), "native", cfg, opts, None)
    }

    fn small_cfg() -> ServeConfig {
        ServeConfig { requests: 200, shards: 3, batch: 8, ..Default::default() }
    }

    #[test]
    fn native_single_worker_accounts_every_request() {
        let r = native(&small_cfg(), 1);
        assert_eq!(r.requests_offered, 200);
        assert_eq!(r.requests_served, 200);
        assert_eq!(r.latency.count, 200);
        assert_eq!(r.shards.len(), 3);
        assert_eq!(r.shards.iter().map(|s| s.requests).sum::<u64>(), 200);
        let wall = r.wall.expect("native mode fills the wall report");
        assert_eq!(wall.workers, 1);
        assert!(wall.duration_ns > 0 && wall.achieved_rps > 0.0);
    }

    #[test]
    fn native_tracks_the_sim_twin_on_cycle_priced_throughput() {
        let w = kv_shard(KvSync::Atomics);
        let cfg = small_cfg();
        let sim = run_service(&w.module, w.run_spec(), VmConfig::default(), "sim", &cfg, None);
        let nat = native(&cfg, 1);
        assert_eq!(nat.requests_served, sim.requests_served);
        // A closed loop over several shards is outside the exact region:
        // the worker issues freed clients' requests in host order, not
        // virtual-time order, so batch counts track but need not match.
        let batch_ratio = nat.batches as f64 / sim.batches as f64;
        assert!((0.5..=2.0).contains(&batch_ratio), "batching diverged: {batch_ratio:.3}");
        let ratio = nat.achieved_rps / sim.achieved_rps;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "native cycle-priced throughput diverged from the twin: {ratio:.3}"
        );
    }

    #[test]
    fn sagas_join_across_shards_and_preserve_the_op_budget() {
        let cfg =
            ServeConfig { sagas: Some(haft_serve::SagaLoad { every: 2, span: 3 }), ..small_cfg() };
        let r = native(&cfg, 1);
        assert_eq!(r.requests_offered, 200, "budget counts operations, sagas or not");
        assert_eq!(r.requests_served, 200);
        assert!(
            r.latency.count < 200,
            "joined sagas sample once per multi-key request, got {}",
            r.latency.count
        );
        assert!(r.latency.count > 0);
    }

    #[test]
    fn open_loop_native_completes_and_prices_latency() {
        let cfg =
            ServeConfig { arrival: ArrivalMode::OpenLoop { rate_rps: 50_000.0 }, ..small_cfg() };
        let r = native(&cfg, 2);
        assert_eq!(r.requests_served, 200);
        assert_eq!(r.offered_rps, Some(50_000.0));
        assert!(r.latency.p50_ns > 0);
    }

    #[test]
    fn native_faults_account_every_request() {
        let cfg = ServeConfig {
            requests: 300,
            faults: Some(haft_serve::FaultLoad { rate_per_request: 0.02, seed: 77 }),
            ..small_cfg()
        };
        let r = native(&cfg, 2);
        let f = r.faults.expect("fault load attached");
        assert_eq!(f.counts.total(), 300);
        assert_eq!(r.requests_served, 300 - f.counts.failed);
        assert_eq!(r.latency.count, r.requests_served);
        // Telemetry merged across shards accounts the same totals, on the
        // same schema the simulation uses.
        let t = r.fault_telemetry.expect("telemetry attached with fault load");
        assert_eq!(t.intervals.values().map(|c| c.total()).sum::<u64>(), 300);
        assert_eq!(t.intervals.values().map(|c| c.sdc).sum::<u64>(), f.counts.sdc);
        let ewma = t.fault_rate_ewma(haft_serve::report::TELEMETRY_EWMA_ALPHA);
        assert!((0.0..=1.0).contains(&ewma));
    }
}
