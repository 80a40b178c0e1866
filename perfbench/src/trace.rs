//! In-memory spans recorded by the benchmark's own code.
//!
//! The program under test is not instrumented: a span is opened and
//! closed around a call the benchmark makes into a layer's public API
//! (an HTTP request, a whole job, one `AnalysisSession::next_event`).
//! Spans are appended to a vector and written out once, at the end of
//! the run. Self time is a span's duration minus its children's.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use serde::Serialize;
use xplain_lp::SolverCounters;

/// One closed (or still open, `dur_ms < 0`) span.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ms: f64,
    pub dur_ms: f64,
    /// Solver work between open and close, where the caller took
    /// [`SolverCounters`] snapshots on each side.
    pub solver: Option<SolverCounters>,
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Default, Serialize)]
pub struct SpanSummary {
    pub count: usize,
    pub total_ms: f64,
    pub self_ms: f64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ms_since_epoch(&self, at: Instant) -> f64 {
        at.duration_since(self.epoch).as_secs_f64() * 1000.0
    }

    /// Open a span starting at `at`; close it with [`Tracer::close`].
    pub fn open(&self, name: &str, parent: Option<usize>, at: Instant) -> usize {
        let mut spans = self.spans.lock().expect("span log");
        spans.push(Span {
            name: name.to_string(),
            parent,
            start_ms: self.ms_since_epoch(at),
            dur_ms: -1.0,
            solver: None,
        });
        spans.len() - 1
    }

    pub fn close(&self, id: usize, at: Instant, solver: Option<SolverCounters>) {
        let end = self.ms_since_epoch(at);
        let mut spans = self.spans.lock().expect("span log");
        let span = &mut spans[id];
        span.dur_ms = end - span.start_ms;
        span.solver = solver;
    }

    /// Record an already finished interval as a closed span.
    pub fn record(&self, name: &str, parent: Option<usize>, from: Instant, to: Instant) -> usize {
        let id = self.open(name, parent, from);
        self.close(id, to, None);
        id
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log").clone()
    }

    /// Count, total, and self time per span name.
    pub fn summary(&self) -> BTreeMap<String, SpanSummary> {
        let spans = self.spans();
        let mut child_ms = vec![0.0; spans.len()];
        for span in spans.iter().filter(|s| s.dur_ms >= 0.0) {
            if let Some(parent) = span.parent {
                child_ms[parent] += span.dur_ms;
            }
        }
        let mut out: BTreeMap<String, SpanSummary> = BTreeMap::new();
        for (span, children) in spans.iter().zip(child_ms) {
            if span.dur_ms < 0.0 {
                continue;
            }
            let entry = out.entry(span.name.clone()).or_default();
            entry.count += 1;
            entry.total_ms += span.dur_ms;
            entry.self_ms += span.dur_ms - children;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new();
        let t0 = Instant::now();
        let parent = t.open("job", None, t0);
        t.record("a", Some(parent), t0, t0 + Duration::from_millis(3));
        t.record("b", Some(parent), t0, t0 + Duration::from_millis(4));
        t.close(parent, t0 + Duration::from_millis(10), None);
        let s = t.summary();
        assert!((s["job"].total_ms - 10.0).abs() < 1e-6);
        assert!((s["job"].self_ms - 3.0).abs() < 1e-6);
        assert_eq!(s["a"].count, 1);
    }
}
