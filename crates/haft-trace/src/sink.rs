//! Event sinks: the plain buffer (DES/VM) and the bounded ring
//! (native runtime).
//!
//! Neither sink synchronizes — each is owned by exactly one execution
//! context at a time. The DES's buffers belong to its event loop (a batch
//! its lookahead helper runs fills a buffer of its own, which the loop
//! splices in), the VM runs inside one `Vm::run` call, and the native
//! runtime gives every worker its own ring
//! plus every shard actor its own ring (the pool's `QUEUED → RUNNING` CAS
//! already guarantees a single worker drains an actor at a time). Rings
//! are merged only after the pool joins, so the hot path never contends
//! on a shared trace lock.

use std::collections::VecDeque;

use crate::event::TraceEvent;

/// An unbounded event buffer for bounded producers (one VM run, the DES).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceBuf {
    pub events: Vec<TraceEvent>,
}

impl TraceBuf {
    pub fn new() -> Self {
        TraceBuf::default()
    }

    pub fn push(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Moves the buffered events out, leaving this buffer empty.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

/// A bounded ring for long-running single-owner producers (pool workers,
/// shard actors): when full it overwrites the oldest event and counts the
/// drop, so a hot worker can never grow the trace without bound — recent
/// history wins.
#[derive(Clone, Debug)]
pub struct Ring {
    cap: usize,
    buf: VecDeque<TraceEvent>,
    dropped: u64,
}

impl Ring {
    /// # Panics
    ///
    /// Panics on zero capacity.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "a trace ring needs room for at least one event");
        Ring { cap, buf: VecDeque::with_capacity(cap), dropped: 0 }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the ring: surviving events in arrival order, plus the
    /// overwrite count.
    pub fn into_events(self) -> (Vec<TraceEvent>, u64) {
        (self.buf.into_iter().collect(), self.dropped)
    }

    /// Appends `ev`, overwriting the oldest event when the ring is full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buf_takes_and_rescales() {
        let mut buf = TraceBuf::new();
        buf.push(TraceEvent::instant("vm", "a", 10));
        let mut taken = buf.take();
        assert!(buf.is_empty());
        assert_eq!(taken.len(), 1);
        taken[0].rescale(2.0, 100);
        assert_eq!(taken[0].ts, 120);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut ring = Ring::new(2);
        for ts in 0..5u64 {
            ring.push(TraceEvent::instant("pool", "steal", ts));
        }
        assert_eq!(ring.len(), 2);
        let (events, dropped) = ring.into_events();
        assert_eq!(dropped, 3);
        assert_eq!(events.iter().map(|e| e.ts).collect::<Vec<_>>(), vec![3, 4]);
    }

    #[test]
    #[should_panic(expected = "at least one event")]
    fn zero_capacity_ring_is_rejected() {
        Ring::new(0);
    }
}
