//! One shard actor: the pool-side driver of a [`ShardCore`].
//!
//! Every actor starts its batches from the serve call's one shard image
//! ([`BatchRunner`]), which batches only read, so batches on different
//! shards really execute concurrently on different cores, each on its
//! own clone of the image's arena. Batch formation, the fault stream and
//! service pricing are the same [`ShardCore`] the DES steps, on a
//! *per-shard virtual clock*: a batch starts at `max(shard vclock,
//! latest arrival in the batch)` and the shard's clock advances to its
//! completion. That keeps latency and throughput host-independent and
//! comparable with the DES twin, while host wall-clock is measured
//! separately by the pool. What lives here is only resolving saga joins.

use haft_apps::Op;
use haft_faults::RequestOutcome;
use haft_serve::{BatchRunner, ServeConfig, ShardCore};

use std::sync::atomic::Ordering;

use crate::traffic::Req;

/// What one batch did, for the pool's progress and closed-loop
/// bookkeeping.
pub struct BatchOutput {
    /// Operations this batch accounted (every op exactly once, including
    /// ones dropped by a crashed run).
    pub ops_accounted: usize,
    /// Virtual times at which client requests finished with this batch —
    /// one entry per completed single request or joined saga; in a closed
    /// loop each frees one client at that time.
    pub freed_vns: Vec<u64>,
}

/// A shard as the pool schedules it: the shared shard image and the
/// [`ShardCore`] that forms, prices and accounts its batches (merged into
/// the final [`haft_serve::ServiceReport`]).
pub struct ShardActor<'a> {
    runner: &'a BatchRunner<'a>,
    /// Saga joins land on whichever shard's core finished last.
    pub core: ShardCore,
}

impl<'a> ShardActor<'a> {
    /// Builds the actor for shard `idx` over the shard image `runner`.
    /// `writes_per_req` comes from the pool's one off-traffic calibration
    /// batch (shared by all shards, identical to the DES's estimate).
    pub fn new(
        runner: &'a BatchRunner<'a>,
        cfg: &ServeConfig,
        idx: usize,
        writes_per_req: u64,
    ) -> Self {
        ShardActor { runner, core: ShardCore::new(cfg, idx, writes_per_req) }
    }

    /// Serves one batch ([`ShardCore::form_batch`] formed it) on the core,
    /// starting at `max(shard vclock, latest arrival in the batch)`, and
    /// resolves its saga joins: a multi-key request samples once, at the
    /// join, on the shard that finished last.
    pub fn run_one_batch(&mut self, batch: Vec<Req>) -> BatchOutput {
        let ops: Vec<Op> = batch.iter().map(|r| r.op).collect();
        let latest = batch.iter().map(|r| r.arrival_vns).max().expect("ran an empty batch");
        let start = self.core.vclock_ns().max(latest);
        let arrivals = batch.iter().map(|r| r.saga.is_none().then_some(r.arrival_vns));
        let served = self.core.serve(self.runner, &ops, arrivals, start);

        let mut freed_vns = Vec::with_capacity(batch.len());
        for (req, &o) in batch.iter().zip(&served.outcomes) {
            let Some(saga) = &req.saga else {
                freed_vns.push(served.completion_ns);
                continue;
            };
            if o == RequestOutcome::Failed {
                saga.failed.store(true, Ordering::Release);
            }
            if let Some(join_vns) = saga.complete_one(served.completion_ns) {
                let failed = saga.failed.load(Ordering::Acquire);
                self.core.record_join(join_vns, saga.arrival_vns, failed);
                freed_vns.push(join_vns);
            }
        }
        BatchOutput { ops_accounted: batch.len(), freed_vns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haft_apps::{kv_shard, KvSync, WorkloadMix, YcsbGen};
    use haft_vm::VmConfig;

    #[test]
    fn failed_saga_joins_are_counted_not_silently_dropped() {
        use crate::traffic::Saga;
        use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
        use std::sync::Arc;

        let w = kv_shard(KvSync::Atomics);
        let cfg = ServeConfig { requests: 2, ..Default::default() };
        let runner = BatchRunner::new(&w.module, w.run_spec(), VmConfig::default());
        let mut a = ShardActor::new(&runner, &cfg, 0, 1);
        let mut gen = YcsbGen::new(4, 100);
        let ops = gen.generate(WorkloadMix::B, 2);

        // Saga 1: a sub-batch on another shard already failed — the join
        // here must free the client but withhold the latency sample and
        // count the suppression.
        let failed = Arc::new(Saga {
            remaining: AtomicUsize::new(1),
            latest_vns: AtomicU64::new(0),
            failed: AtomicBool::new(true),
            arrival_vns: 10,
        });
        // Saga 2: clean — joins normally and samples once.
        let clean = Arc::new(Saga {
            remaining: AtomicUsize::new(1),
            latest_vns: AtomicU64::new(0),
            failed: AtomicBool::new(false),
            arrival_vns: 10,
        });
        let batch = vec![
            Req { op: ops[0], arrival_vns: 10, saga: Some(failed) },
            Req { op: ops[1], arrival_vns: 10, saga: Some(clean) },
        ];
        let out = a.run_one_batch(batch);
        assert_eq!(out.freed_vns.len(), 2, "both joins free their clients");
        let r = haft_serve::ServiceReport::assemble("t".into(), &cfg, vec![a.core], None);
        assert_eq!(r.suppressed_joins, 1, "the failed join must be counted");
        assert_eq!(r.latency.count, 1, "only the clean join samples latency");
    }
}
