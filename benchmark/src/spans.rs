//! Benchmark-side spans: one record around each call the benchmark makes
//! into a layer (name, start, end, parent, cell id), kept in memory and
//! exported through `haft-trace` when the run ends.
//!
//! The recorder is either on (the traced pass) or off; when off,
//! [`Spans::scope`] only calls its closure, so every end-to-end number
//! is taken with tracing off and the traced pass over the same cells
//! gives the tracing overhead.

use std::time::Instant;

use haft_trace::{TraceBuf, TraceEvent};

/// One closed span. Times are nanoseconds since the recorder started.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRec {
    /// The layer (crate) the call enters; the Chrome trace category.
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Index of the workload cell the call belongs to, if any.
    pub cell: Option<usize>,
}

impl SpanRec {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children (children never overlap — calls on one thread nest).
pub fn self_times(recs: &[SpanRec]) -> Vec<u64> {
    let mut own: Vec<u64> = recs.iter().map(SpanRec::dur).collect();
    for r in recs {
        if let Some(p) = r.parent {
            own[p] -= r.dur();
        }
    }
    own
}

/// Self time and call count per layer, in first-seen order.
pub fn by_layer(recs: &[SpanRec]) -> Vec<(&'static str, u64, usize)> {
    let mut out: Vec<(&'static str, u64, usize)> = Vec::new();
    for (r, own) in recs.iter().zip(self_times(recs)) {
        match out.iter_mut().find(|(l, _, _)| *l == r.layer) {
            Some(row) => {
                row.1 += own;
                row.2 += 1;
            }
            None => out.push((r.layer, own, 1)),
        }
    }
    out
}

/// The span recorder.
pub struct Spans {
    on: bool,
    t0: Instant,
    recs: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Spans { on: false, t0: Instant::now(), recs: Vec::new(), open: Vec::new() }
    }

    /// A recording recorder; its clock starts now.
    pub fn on() -> Self {
        Spans { on: true, ..Spans::off() }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span. Spans opened by `f` become its children.
    pub fn scope<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        cell: Option<usize>,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.recs.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.recs.push(SpanRec { layer, name, start_ns, end_ns: start_ns, parent, cell });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.recs[id].end_ns = self.now_ns();
        out
    }

    /// The closed spans, in opening order.
    pub fn records(&self) -> &[SpanRec] {
        &self.recs
    }

    /// The spans as trace events on the host wall clock (nanoseconds),
    /// each carrying its id, parent, cell and self time as arguments.
    pub fn to_trace(&self) -> TraceBuf {
        let mut buf = TraceBuf::new();
        for (id, (r, own)) in self.recs.iter().zip(self_times(&self.recs)).enumerate() {
            let mut ev = TraceEvent::span(r.layer, r.name, r.start_ns, r.dur())
                .lane(1, 0)
                .arg("id", id)
                .arg("self_ns", own);
            if let Some(p) = r.parent {
                ev = ev.arg("parent", p);
            }
            if let Some(c) = r.cell {
                ev = ev.arg("cell", c);
            }
            buf.push(ev);
        }
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> SpanRec {
        SpanRec { layer, name: "x", start_ns: start, end_ns: end, parent, cell: None }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // round [0,100] ── cell a [10,40] ── vm [15,35]
        //               └─ cell b [50,90]
        let recs = vec![
            rec("bench", 0, 100, None),
            rec("haft", 10, 40, Some(0)),
            rec("vm", 15, 35, Some(1)),
            rec("haft", 50, 90, Some(0)),
        ];
        // The grandchild is subtracted from its parent only, not twice.
        assert_eq!(self_times(&recs), [30, 10, 20, 40]);
        assert_eq!(self_times(&recs).iter().sum::<u64>(), 100, "self times partition the root");
        assert_eq!(by_layer(&recs), [("bench", 30, 1), ("haft", 50, 2), ("vm", 20, 1)]);
    }

    #[test]
    fn recorder_nests_scopes_and_exports_parents() {
        let mut s = Spans::on();
        s.scope("bench", "round", None, |s| {
            s.scope("vm", "run", Some(3), |_| std::hint::black_box(1 + 1));
            s.scope("faults", "campaign", Some(4), |_| ());
        });
        let recs = s.records();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].parent, None);
        assert_eq!(recs[1].parent, Some(0));
        assert_eq!((recs[2].parent, recs[2].cell), (Some(0), Some(4)));
        assert!(recs[0].start_ns <= recs[1].start_ns && recs[2].end_ns <= recs[0].end_ns);
        let text = haft_trace::render_chrome(&s.to_trace().events);
        let cats = haft_trace::validate_chrome_trace(&text).expect("valid Chrome trace");
        assert_eq!(cats.iter().map(|(_, n)| n).sum::<usize>(), 3);
    }

    #[test]
    fn off_recorder_records_nothing_but_still_runs_the_closure() {
        let mut s = Spans::off();
        let v = s.scope("vm", "run", None, |s| s.scope("vm", "inner", None, |_| 7));
        assert_eq!(v, 7);
        assert!(s.records().is_empty());
    }
}
