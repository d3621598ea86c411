//! Acceptance tests for the service harness, driven through the facade's
//! `Experiment::serve` (ISSUE 4 criteria):
//!
//! (a) open-loop p99 latency is monotonically non-decreasing in offered
//!     load;
//! (b) HAFT and TMR throughput at 2 shards bracket the PR-3 overhead
//!     ratios (HAFT faster than TMR on mean, within [1.5, 3.5]× of
//!     native);
//! (c) a fault campaign under load reports availability and per-request
//!     outcome counts that sum to the request total.

use haft::Experiment;
use haft_apps::{kv_shard, KvSync};
use haft_passes::HardenConfig;
use haft_serve::{ArrivalMode, FaultLoad, ServeConfig, ServiceReport};
use haft_vm::Engine;

/// A serve config sized for tests: small request counts, default mix B.
fn base_cfg(requests: usize, shards: usize) -> ServeConfig {
    ServeConfig { requests, shards, ..ServeConfig::default() }
}

fn serve(hc: HardenConfig, cfg: &ServeConfig) -> ServiceReport {
    let w = kv_shard(KvSync::Atomics);
    Experiment::workload(&w).harden(hc).serve(cfg)
}

/// (a) Open loop: pushing more load can only push p99 up.
///
/// The arrival process is seeded, so sweeping the rate rescales the same
/// arrival pattern in time over the same request stream — the cleanest
/// possible monotonicity probe. Rates are self-calibrated against the
/// measured closed-loop capacity so the sweep spans under-load to
/// overload regardless of cost-model drift.
#[test]
fn open_loop_p99_is_monotone_in_offered_load() {
    // Probe capacity: 1 client, 1 shard, no queueing.
    let probe = serve(
        HardenConfig::haft(),
        &ServeConfig {
            arrival: ArrivalMode::ClosedLoop { clients: 1, think_ns: 0 },
            batch: 1,
            ..base_cfg(60, 1)
        },
    );
    assert_eq!(probe.requests_served, 60);
    let per_req_ns = probe.latency.mean_ns;
    assert!(per_req_ns > 0.0);
    let capacity_rps = 2.0 * 1e9 / per_req_ns; // 2 shards

    let mut p99s = Vec::new();
    let mut p50s = Vec::new();
    for frac in [0.3, 0.6, 0.9, 1.4] {
        let r = serve(
            HardenConfig::haft(),
            &ServeConfig {
                arrival: ArrivalMode::OpenLoop { rate_rps: capacity_rps * frac },
                batch: 1,
                ..base_cfg(300, 2)
            },
        );
        assert_eq!(r.requests_offered, 300);
        assert_eq!(r.offered_rps, Some(capacity_rps * frac));
        p99s.push(r.latency.p99_ns);
        p50s.push(r.latency.p50_ns);
    }
    for w in p99s.windows(2) {
        assert!(w[1] >= w[0], "p99 dipped under heavier load: {p99s:?}");
    }
    // And overload visibly queues: the saturated point is far above the
    // lightly loaded one.
    assert!(
        *p99s.last().unwrap() > p99s[0] * 2,
        "overload should inflate p99: {p99s:?} (p50s {p50s:?})"
    );
}

/// (b) Closed-loop capacity at 2 shards: native / HAFT / TMR bracket the
/// batch-mode overhead ratios measured in PR 3.
#[test]
fn two_shard_throughput_brackets_backend_overheads() {
    let cfg = base_cfg(400, 2);
    let native = serve(HardenConfig::native(), &cfg);
    let haft = serve(HardenConfig::haft(), &cfg);
    let tmr = serve(HardenConfig::tmr(), &cfg);
    for r in [&native, &haft, &tmr] {
        assert_eq!(r.requests_served, 400, "{}: all requests must complete", r.label);
        assert!(r.faults.is_none());
    }

    let haft_overhead = native.achieved_rps / haft.achieved_rps;
    assert!(
        (1.5..=3.5).contains(&haft_overhead),
        "HAFT throughput overhead {haft_overhead:.2}x outside [1.5, 3.5] \
         (native {:.0} rps, HAFT {:.0} rps)",
        native.achieved_rps,
        haft.achieved_rps
    );
    // The Elzar tradeoff under load: voting at every sync point costs
    // more mean throughput than detect-and-rollback.
    assert!(
        haft.achieved_rps > tmr.achieved_rps,
        "HAFT ({:.0} rps) should out-serve TMR ({:.0} rps) on mean",
        haft.achieved_rps,
        tmr.achieved_rps
    );
    assert!(
        haft.latency.mean_ns < tmr.latency.mean_ns,
        "HAFT mean latency {:.0} ns should undercut TMR {:.0} ns",
        haft.latency.mean_ns,
        tmr.latency.mean_ns
    );
}

/// (c) Fault campaign under load: availability is reported and the
/// per-request outcome counts sum exactly to the offered request total.
#[test]
fn fault_campaign_under_load_accounts_every_request() {
    let cfg = ServeConfig {
        faults: Some(FaultLoad { rate_per_request: 0.08, seed: 0xD00F }),
        ..base_cfg(400, 2)
    };
    let r = serve(HardenConfig::haft(), &cfg);
    let f = r.faults.expect("fault report must be attached");
    assert_eq!(
        f.counts.total(),
        r.requests_offered,
        "outcome counts must sum to the request total"
    );
    assert_eq!(r.requests_offered, 400);
    assert!(f.injected_batches > 0, "an 8% per-request rate must hit some batches");
    assert!(f.availability_pct() > 50.0 && f.availability_pct() <= 100.0);
    assert!(f.sdc_per_million() >= 0.0);
    // Bookkeeping cross-checks: served requests are exactly the
    // non-failed ones, and latency samples cover them.
    assert_eq!(r.requests_served, f.counts.total() - f.counts.failed);
    assert_eq!(r.latency.count, r.requests_served);
}

/// Fault telemetry buckets every request outcome on the virtual clock:
/// interval totals sum back to the aggregate counts, the decayed
/// fault-rate estimate is a valid fraction, the time-resolved map is
/// deterministic, and fault-free runs carry no telemetry at all.
#[test]
fn fault_telemetry_intervals_sum_to_the_outcome_counts() {
    let cfg = ServeConfig {
        faults: Some(FaultLoad { rate_per_request: 0.08, seed: 0xD00F }),
        ..base_cfg(400, 2)
    };
    let r = serve(HardenConfig::haft(), &cfg);
    let t = r.fault_telemetry.as_ref().expect("telemetry attached with fault load");
    let f = r.faults.as_ref().unwrap();
    assert_eq!(t.intervals.values().map(|c| c.total()).sum::<u64>(), f.counts.total());
    assert_eq!(t.intervals.values().map(|c| c.corrected).sum::<u64>(), f.counts.served_corrected);
    assert_eq!(t.intervals.values().map(|c| c.sdc).sum::<u64>(), f.counts.sdc);
    let ewma = t.fault_rate_ewma(haft_serve::report::TELEMETRY_EWMA_ALPHA);
    assert!((0.0..=1.0).contains(&ewma), "ewma out of range: {ewma}");
    let again = serve(HardenConfig::haft(), &cfg);
    assert_eq!(again.fault_telemetry.as_ref(), Some(t));
    let clean = serve(HardenConfig::haft(), &base_cfg(100, 2));
    assert!(clean.fault_telemetry.is_none(), "no fault load, no telemetry");
}

/// HAFT recovers under load where native corrupts or dies: availability
/// ranks hardened above native at the same fault rate, and HAFT's
/// recovery shows up as corrected batches with a latency spike.
#[test]
fn hardening_buys_availability_under_load() {
    let cfg = ServeConfig {
        faults: Some(FaultLoad { rate_per_request: 0.10, seed: 0xBEEF }),
        ..base_cfg(300, 2)
    };
    let native = serve(HardenConfig::native(), &cfg).faults.unwrap();
    let haft = serve(HardenConfig::haft(), &cfg).faults.unwrap();
    assert!(
        haft.counts.sdc <= native.counts.sdc,
        "HAFT must not corrupt more replies than native (HAFT {} vs native {})",
        haft.counts.sdc,
        native.counts.sdc
    );
    assert!(
        native.counts.sdc + native.counts.failed > 0,
        "the native baseline should visibly suffer at a 10% rate"
    );
    assert!(haft.availability_pct() >= native.availability_pct());
    if haft.corrected_batches > 0 {
        assert!(haft.recovery_spike_factor() >= 1.0);
    }
}

/// Requests that arrive at one instant start one batch: eight zero-think
/// clients on one shard with batch 8 reissue together at every
/// completion, so every batch is full.
#[test]
fn same_instant_arrivals_coalesce_into_full_batches() {
    let cfg = ServeConfig { batch: 8, ..base_cfg(1_600, 1) };
    assert_eq!(cfg.arrival, ArrivalMode::ClosedLoop { clients: 8, think_ns: 0 });
    let r = serve(HardenConfig::native(), &cfg);
    assert_eq!(r.requests_served, 1_600);
    assert_eq!(r.batches, 1_600 / 8);
}

/// The whole harness is deterministic: identical configuration ⇒
/// identical report, field for field.
#[test]
fn service_runs_are_deterministic() {
    let cfg = ServeConfig { faults: Some(FaultLoad::default()), ..base_cfg(200, 2) };
    let a = serve(HardenConfig::haft(), &cfg);
    let b = serve(HardenConfig::haft(), &cfg);
    assert_eq!(a.latency, b.latency);
    assert_eq!(a.duration_ns, b.duration_ns);
    assert_eq!(a.batches, b.batches);
    assert_eq!(a.faults.unwrap().counts, b.faults.unwrap().counts);
}

/// More shards serve a closed loop faster (the scaling story the
/// ROADMAP's "heavy traffic" north star needs to be measurable).
#[test]
fn sharding_scales_closed_loop_throughput() {
    let mk = |shards: usize| ServeConfig {
        arrival: ArrivalMode::ClosedLoop { clients: 4 * shards, think_ns: 0 },
        ..base_cfg(400, shards)
    };
    let one = serve(HardenConfig::haft(), &mk(1));
    let four = serve(HardenConfig::haft(), &mk(4));
    assert!(
        four.achieved_rps > one.achieved_rps * 1.5,
        "4 shards ({:.0} rps) should clearly out-serve 1 ({:.0} rps)",
        four.achieved_rps,
        one.achieved_rps
    );
    assert_eq!(four.shards.len(), 4);
    // Key-hash routing under Zipfian heat: utilization is reported per
    // shard and at least one shard did real work.
    assert!(four.max_utilization() > 0.5);
}

/// The execution engine is invisible at the service level: the fused
/// engine and the reference interpreter produce the *same*
/// `ServiceReport`, field for field — same latency distribution, same
/// shard accounting, same fault ledger. Service pricing is defined by
/// the cycle model, not by how fast the host happens to dispatch ops.
#[test]
fn service_reports_are_engine_independent() {
    let w = kv_shard(KvSync::Atomics);
    let cfg = ServeConfig { faults: Some(FaultLoad::default()), ..base_cfg(200, 2) };
    for hc in [HardenConfig::native(), HardenConfig::haft(), HardenConfig::tmr()] {
        let interp = Experiment::workload(&w).harden(hc.clone()).engine(Engine::Interp).serve(&cfg);
        let fused = Experiment::workload(&w).harden(hc.clone()).engine(Engine::Fused).serve(&cfg);
        assert_eq!(interp, fused, "{}: engines priced the service differently", hc.label());
    }
}

/// The simulation is pinned orthogonally to the native mode (ISSUE 7):
/// `ServeMode::Sim` produces the identical report whether invoked via
/// `serve` or `serve_in(Sim)`, before or after native runs on the same
/// experiment at any worker count, under either engine — and the
/// simulation ignores saga grouping entirely (the join is a
/// runtime-layer concept), so attaching `SagaLoad` changes nothing.
#[test]
fn sim_reports_are_unaffected_by_the_native_mode() {
    use haft_serve::{SagaLoad, ServeMode};
    let w = kv_shard(KvSync::Atomics);
    let cfg = ServeConfig { faults: Some(FaultLoad::default()), ..base_cfg(200, 2) };
    let exp = Experiment::workload(&w).harden(HardenConfig::haft());
    let pinned = exp.serve(&cfg);
    assert_eq!(pinned, exp.serve_in(ServeMode::Sim, &cfg), "serve is serve_in(Sim)");
    for workers in [1usize, 2, 4] {
        let _ = exp.serve_in(ServeMode::Native { workers }, &cfg);
        assert_eq!(
            pinned,
            exp.serve_in(ServeMode::Sim, &cfg),
            "Sim report drifted after a {workers}-worker native run"
        );
    }
    let interp = Experiment::workload(&w)
        .harden(HardenConfig::haft())
        .engine(Engine::Interp)
        .serve_in(ServeMode::Sim, &cfg);
    assert_eq!(pinned, interp, "Sim must stay engine-independent");
    let with_sagas =
        exp.serve_in(ServeMode::Sim, &ServeConfig { sagas: Some(SagaLoad::default()), ..cfg });
    assert_eq!(pinned, with_sagas, "the simulation must not read the saga field");
}

/// Degenerate configurations panic instead of silently coercing.
#[test]
#[should_panic(expected = "at least one shard")]
fn zero_shards_is_rejected() {
    serve(HardenConfig::native(), &base_cfg(10, 0));
}

/// A saga load with no heads (`every: 0`) or single-key sagas (`span < 2`)
/// is refused by the one validation both modes share, before any traffic
/// is drawn.
#[test]
fn an_invalid_saga_load_is_rejected_in_both_modes() {
    use haft_serve::{SagaLoad, ServeMode};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let w = kv_shard(KvSync::Atomics);
    let exp = Experiment::workload(&w).harden(HardenConfig::native());
    for (sagas, why) in [
        (SagaLoad { every: 0, span: 3 }, "SagaLoad::every must be >= 1"),
        (SagaLoad { every: 2, span: 1 }, "SagaLoad::span must be >= 2"),
    ] {
        let cfg = ServeConfig { sagas: Some(sagas), ..base_cfg(20, 2) };
        for mode in [ServeMode::Sim, ServeMode::Native { workers: 1 }] {
            let panic = catch_unwind(AssertUnwindSafe(|| exp.serve_in(mode, &cfg)))
                .expect_err(&format!("{mode:?} served {sagas:?}"));
            let msg = panic.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(msg.contains(why), "{mode:?}, {sagas:?}: panicked with {msg:?}");
        }
    }
}
