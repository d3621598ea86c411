//! The one traffic source: a seeded YCSB stream in operations, drawn in
//! client request groups, plus the saga split/join bookkeeping.
//!
//! Both drivers draw from it — one [`YcsbGen`] draw per operation, in
//! issue order — so the multiset of operations a run serves is the same
//! stream in either mode. The simulation builds it without sagas, so every
//! group is one operation. What the runtime cannot reproduce is the
//! *assignment* of draws to clients: whichever worker frees a client first
//! takes the next draw, so over several shards the mapping (and therefore
//! batch composition) depends on thread timing. That is where the
//! deterministic-twin contract weakens from bit-equal reports to banded
//! curves.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use haft_apps::{Op, WorkloadMix, YcsbGen};
use haft_trace::{TraceBuf, TraceEvent};

use crate::SagaLoad;

/// One routed sub-operation travelling to a shard's inbox.
#[derive(Clone, Debug)]
pub struct Req {
    /// The operation to serve.
    pub op: Op,
    /// Virtual arrival time: when the issuing client handed the request
    /// to the router, on the simulated clock.
    pub arrival_vns: u64,
    /// Join state when this sub-operation belongs to a multi-key
    /// request; `None` for ordinary single-key requests.
    pub saga: Option<Arc<Saga>>,
}

/// Join state for one multi-key request (the saga): sub-operations are
/// served independently by their home shards, and the request completes
/// — one latency sample, one freed client — when the *last* sub-operation
/// finishes.
#[derive(Debug)]
pub struct Saga {
    /// Sub-operations still in flight.
    pub remaining: AtomicUsize,
    /// Latest sub-operation completion seen so far (virtual ns); the
    /// join time once `remaining` hits zero.
    pub latest_vns: AtomicU64,
    /// Set when any sub-operation died with a crashed batch: the joined
    /// request still frees its client (the client saw an error and
    /// retries) but contributes no latency sample, matching the DES
    /// excluding `Failed` requests from the distribution.
    pub failed: AtomicBool,
    /// When the client issued the multi-key request.
    pub arrival_vns: u64,
}

impl Saga {
    /// Records one sub-operation completion at `completion_vns`. Returns
    /// the join time if this was the last one, `None` otherwise.
    pub fn complete_one(&self, completion_vns: u64) -> Option<u64> {
        self.latest_vns.fetch_max(completion_vns, Ordering::AcqRel);
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            Some(self.latest_vns.load(Ordering::Acquire))
        } else {
            None
        }
    }
}

/// The budgeted request stream: the simulation's own, or shared (behind a
/// mutex) by every worker of the pool.
pub struct TrafficSource {
    gen: YcsbGen,
    mix: WorkloadMix,
    sagas: Option<SagaLoad>,
    /// Operations drawn so far (the budget is in operations, matching
    /// `ServeConfig::requests`).
    issued: usize,
    /// Client request groups issued (a saga counts once).
    groups: usize,
    total: usize,
    /// Saga-split events when tracing (virtual-ns timestamps); the
    /// traffic mutex already serializes access, so no extra locking.
    pub trace: Option<TraceBuf>,
}

impl TrafficSource {
    /// `total` operations drawn from `YcsbGen::new(seed, keyspace)`,
    /// grouped by `sagas` (already checked by [`ServeConfig::validate`]).
    ///
    /// [`ServeConfig::validate`]: crate::ServeConfig::validate
    pub fn new(
        seed: u64,
        keyspace: u64,
        mix: WorkloadMix,
        total: usize,
        sagas: Option<SagaLoad>,
    ) -> Self {
        TrafficSource {
            gen: YcsbGen::new(seed, keyspace),
            mix,
            sagas,
            issued: 0,
            groups: 0,
            total,
            trace: None,
        }
    }

    /// Turns on saga-split event collection.
    pub fn enable_trace(&mut self) {
        self.trace = Some(TraceBuf::new());
    }

    /// True when the operation budget is exhausted.
    pub fn exhausted(&self) -> bool {
        self.issued >= self.total
    }

    /// Draws the next client request at virtual time `at_vns`: one
    /// operation, or — every `SagaLoad::every`-th request — a multi-key
    /// group of up to `SagaLoad::span` operations sharing one [`Saga`]
    /// join (truncated by the remaining budget; a span truncated to one
    /// operation degrades to a plain request). Returns an empty vector
    /// once the budget is exhausted.
    pub fn next_group(&mut self, at_vns: u64) -> Vec<Req> {
        if self.exhausted() {
            return Vec::new();
        }
        let span = match self.sagas {
            Some(s) if (self.groups + 1).is_multiple_of(s.every) => {
                s.span.min(self.total - self.issued)
            }
            _ => 1,
        };
        self.groups += 1;
        self.issued += span;
        let ops = self.gen.generate(self.mix, span);
        if span >= 2 {
            if let Some(tr) = self.trace.as_mut() {
                tr.push(TraceEvent::instant("saga", "split", at_vns).arg("span", span));
            }
            let saga = Arc::new(Saga {
                remaining: AtomicUsize::new(span),
                latest_vns: AtomicU64::new(0),
                failed: AtomicBool::new(false),
                arrival_vns: at_vns,
            });
            ops.into_iter()
                .map(|op| Req { op, arrival_vns: at_vns, saga: Some(Arc::clone(&saga)) })
                .collect()
        } else {
            vec![Req { op: ops[0], arrival_vns: at_vns, saga: None }]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_matches_the_des_draw_order() {
        // One draw per op, in issue order: grouping must not change the
        // underlying stream.
        let total = 40;
        let mut plain = TrafficSource::new(7, 1000, WorkloadMix::B, total, None);
        let mut grouped = TrafficSource::new(
            7,
            1000,
            WorkloadMix::B,
            total,
            Some(SagaLoad { every: 3, span: 4 }),
        );
        let drain = |src: &mut TrafficSource| {
            let mut ops = Vec::new();
            loop {
                let g = src.next_group(0);
                if g.is_empty() {
                    break;
                }
                ops.extend(g.into_iter().map(|r| r.op));
            }
            ops
        };
        let a = drain(&mut plain);
        let b = drain(&mut grouped);
        assert_eq!(a.len(), total);
        assert_eq!(a, b, "saga grouping must not perturb the op stream");
    }

    #[test]
    fn saga_groups_share_a_join_and_respect_the_budget() {
        let mut src =
            TrafficSource::new(1, 1000, WorkloadMix::B, 5, Some(SagaLoad { every: 1, span: 3 }));
        let g1 = src.next_group(10);
        assert_eq!(g1.len(), 3);
        let saga = g1[0].saga.as_ref().unwrap();
        assert!(g1.iter().all(|r| Arc::ptr_eq(r.saga.as_ref().unwrap(), saga)));
        assert_eq!(saga.arrival_vns, 10);
        // Budget truncation: only 2 ops left.
        let g2 = src.next_group(20);
        assert_eq!(g2.len(), 2);
        assert!(src.exhausted());
        assert!(src.next_group(30).is_empty());
    }

    #[test]
    fn saga_join_fires_exactly_once_at_the_latest_completion() {
        let saga = Saga {
            remaining: AtomicUsize::new(3),
            latest_vns: AtomicU64::new(0),
            failed: AtomicBool::new(false),
            arrival_vns: 5,
        };
        assert_eq!(saga.complete_one(100), None);
        assert_eq!(saga.complete_one(400), None);
        assert_eq!(saga.complete_one(250), Some(400), "join reports the max completion");
    }
}
