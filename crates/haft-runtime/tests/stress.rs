//! Seeded-interleaving stress for the queue/steal paths.
//!
//! The offline container has no ThreadSanitizer and no loom, so this is
//! the substitute: oversubscribe the pool (more workers than shards or
//! cores), turn on the splitmix-seeded yield shaker at every scheduling
//! decision point, and sweep seeds. Each seed perturbs which thread wins
//! each race — the actor state machine's own assertions (`QUEUED →
//! RUNNING` CAS, `try_lock` exclusivity, the accounted-once ledger)
//! then do the checking. CI runs this under `--release`, where the
//! narrow races actually surface.

use haft_apps::{kv_shard, KvSync};
use haft_runtime::{run_native, NativeOpts};
use haft_serve::{FaultLoad, SagaLoad, ServeConfig};
use haft_vm::VmConfig;

#[test]
fn shaken_interleavings_preserve_the_accounting_invariants() {
    let w = kv_shard(KvSync::Atomics);
    for seed in 0..6u64 {
        let cfg = ServeConfig {
            requests: 400,
            shards: 5,
            batch: 4,
            sagas: Some(SagaLoad { every: 3, span: 3 }),
            seed: 0x57E5 ^ (seed << 8),
            ..Default::default()
        };
        let r = run_native(
            &w.module,
            w.run_spec(),
            VmConfig::default(),
            "shake",
            &cfg,
            NativeOpts { workers: 4, shake_seed: Some(seed) },
            None,
        );
        assert_eq!(r.requests_offered, 400, "seed {seed}");
        assert_eq!(r.requests_served, 400, "seed {seed}");
        assert_eq!(r.shards.len(), 5);
        assert_eq!(r.shards.iter().map(|s| s.requests).sum::<u64>(), 400, "seed {seed}");
        assert!(r.latency.count > 0 && r.latency.count <= 400);
        assert!(r.batches >= 100 / 4, "someone actually batched: {}", r.batches);
    }
}

#[test]
fn shaken_interleavings_hold_under_fault_injection() {
    let w = kv_shard(KvSync::Atomics);
    for seed in 0..4u64 {
        let cfg = ServeConfig {
            requests: 300,
            shards: 3,
            batch: 8,
            faults: Some(FaultLoad { rate_per_request: 0.03, seed: 0xFA ^ seed }),
            ..Default::default()
        };
        let r = run_native(
            &w.module,
            w.run_spec(),
            VmConfig::default(),
            "shake-faults",
            &cfg,
            NativeOpts { workers: 3, shake_seed: Some(0xABCD ^ seed) },
            None,
        );
        let f = r.faults.expect("fault load attached");
        assert_eq!(f.counts.total(), 300, "every request classified exactly once, seed {seed}");
        assert_eq!(r.requests_served, 300 - f.counts.failed, "seed {seed}");
        assert_eq!(r.latency.count, r.requests_served, "failed requests never sampled");
    }
}
