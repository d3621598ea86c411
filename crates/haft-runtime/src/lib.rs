//! `haft-runtime` — hardened backends on real threads.
//!
//! The `haft-serve` discrete-event simulation prices a fleet of shard
//! VMs on one host thread; this crate *runs* the same fleet on a
//! work-stealing pool of OS threads. It is the second *driver* of
//! [`haft_serve::ShardCore`], and everything but the driver is
//! `haft-serve`'s: the setup ([`haft_serve::setup`]: validation, the one
//! shard image every batch starts from, fault calibration, traced cores),
//! the traffic source ([`haft_serve::TrafficSource`]), the arrival seeding
//! ([`haft_serve::seed_arrivals`]), batch formation, the per-shard fault
//! streams, the batch step, pricing, classification, accounting and
//! report assembly. The pool decides only when a shard's next batch is
//! formed (inboxes and [`haft_serve::ShardCore::form_batch`]), and joins
//! the per-key sub-operations of cross-shard multi-key requests as sagas
//! ([`haft_serve::Saga`]).
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

mod pool;

use std::time::Instant;

use haft_apps::KV_KEYSPACE;
use haft_ir::module::Module;
use haft_serve::{
    seed_arrivals, setup, Req, Saga, ServeConfig, ServiceReport, ShardCore, TrafficSource,
    WallReport,
};
use haft_trace::TraceBuf;
use haft_vm::{RunSpec, VmConfig};

use pool::Pool;

/// Serves `cfg.requests` of generated traffic through `cfg.shards` shard
/// cores on a work-stealing pool of `workers` OS threads (clamped to
/// ≥ 1, the calling thread included) — the real-thread counterpart of
/// [`haft_serve::run_service`], taking the same arguments plus `workers`
/// and returning the identical report schema (plus [`WallReport`]).
///
/// With one worker the run is deterministic (one thread serializes every
/// scheduling decision); with more, thread timing varies batch
/// composition and the report is reproducible only in distribution.
///
/// With `trace` attached, scheduling events (steals, shard drains, saga
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
    workers: usize,
    trace: Option<&mut TraceBuf>,
) -> ServiceReport {
    run_pool(module, spec, vm, label.into(), cfg, workers, None, trace)
}

/// [`run_native`], with the workers sprinkling `yield_now` calls seeded by
/// `shake_seed` at scheduling decision points when it is set — the
/// release-mode interleaving shaker of the stress tests.
#[allow(clippy::too_many_arguments)]
fn run_pool(
    module: &Module,
    spec: RunSpec<'_>,
    vm: VmConfig,
    label: String,
    cfg: &ServeConfig,
    workers: usize,
    shake_seed: Option<u64>,
    mut trace: Option<&mut TraceBuf>,
) -> ServiceReport {
    let workers = workers.max(1);
    let epoch = trace.as_ref().map(|_| Instant::now());
    let (runner, cores) = setup(module, spec, vm, cfg, epoch.is_some(), epoch);
    let mut traffic = TrafficSource::new(cfg.seed, KV_KEYSPACE, cfg.mix, cfg.requests, cfg.sagas);
    if epoch.is_some() {
        traffic.enable_trace();
    }
    let mut pool = Pool::new(&runner, cores, cfg, traffic, workers, shake_seed, epoch);
    seed_arrivals(cfg, |at_vns| pool.issue_group_at(at_vns, None));

    let t0 = Instant::now();
    pool.run(workers);
    let wall_ns = (t0.elapsed().as_nanos() as u64).max(1);

    let steals = pool.steals();
    if let Some(buf) = trace.as_deref_mut() {
        buf.events.extend(pool.take_trace());
    }
    let mut report = ServiceReport::assemble(label, cfg, pool.into_cores(), trace);
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
    assert_send::<ShardCore>();
    assert_send::<Req>();
    assert_sync::<Saga>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use haft_apps::{kv_shard, KvSync};
    use haft_serve::{run_service, ArrivalMode};

    fn native(cfg: &ServeConfig, workers: usize) -> ServiceReport {
        let w = kv_shard(KvSync::Atomics);
        run_native(&w.module, w.run_spec(), VmConfig::default(), "native", cfg, workers, None)
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
