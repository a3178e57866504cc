//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the run's
//! epoch), the span that caused it and, for serving requests, the
//! request id shared by every entry point the same request was sent to.
//! Each thread records into its own [`Trace`]; the buffers are merged
//! when the threads are joined and written out once, at the end.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use gps_types::json::Json;

/// Spans written to the trace file; the per-layer summary always covers
/// every span recorded.
const MAX_SPANS_WRITTEN: usize = 50_000;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span buffer. A disabled trace records nothing, so the
/// untraced run executes the same code without the bookkeeping.
pub struct Trace {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(epoch: Instant, enabled: bool) -> Trace {
        Trace {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// An empty buffer on the same clock, for another thread.
    pub fn fork(&self) -> Trace {
        Trace::new(self.epoch, self.enabled)
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span timed by the caller; returns its id, or `None` when
    /// tracing is off.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Run `f` inside a span named `name`; `f` receives the span's id as
    /// the parent for nested spans. Returns `f`'s value and the span's
    /// duration (measured whether or not tracing is on).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(&mut Trace, Option<usize>) -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let id = self.record(name, parent, None, start, start);
        let value = f(self, id);
        let end = Instant::now();
        if let Some(id) = id {
            self.spans[id].end_ns = self.ns(end);
        }
        (value, end - start)
    }

    /// Append another buffer's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Trace) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Total seconds spent in spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum::<f64>() / 1e9
    }

    /// Per-layer summary: count, total and self time per span name. Self
    /// time is a span's duration minus the part of it its children cover.
    pub fn summary(&self) -> BTreeMap<&'static str, LayerSummary> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, LayerSummary> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let covered = covered_ns(
                children[i]
                    .iter()
                    .map(|&c| (self.spans[c].start_ns, self.spans[c].end_ns)),
            );
            let entry = out.entry(s.name).or_default();
            entry.count += 1;
            entry.total_ns += s.duration_ns();
            entry.self_ns += s.duration_ns().saturating_sub(covered);
        }
        out
    }

    pub fn to_json(&self) -> Json {
        let mut layers = Json::obj();
        for (name, layer) in self.summary() {
            let mut entry = Json::obj();
            entry
                .set("count", Json::Num(layer.count as f64))
                .set("total_s", Json::Num(layer.total_ns as f64 / 1e9))
                .set("self_s", Json::Num(layer.self_ns as f64 / 1e9));
            layers.set(name, entry);
        }
        let spans: Vec<Json> = self
            .spans
            .iter()
            .take(MAX_SPANS_WRITTEN)
            .map(|s| {
                let mut span = Json::obj();
                span.set("name", s.name)
                    .set("start_ns", Json::Num(s.start_ns as f64))
                    .set("end_ns", Json::Num(s.end_ns as f64));
                if let Some(p) = s.parent {
                    span.set("parent", Json::Num(p as f64));
                }
                if let Some(r) = s.request {
                    span.set("request", Json::Num(r as f64));
                }
                span
            })
            .collect();
        let mut json = Json::obj();
        json.set("layers", layers)
            .set("spans_recorded", Json::Num(self.spans.len() as f64))
            .set("spans", spans);
        json
    }
}

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LayerSummary {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Length of the union of `[start, end)` intervals.
fn covered_ns(intervals: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut intervals: Vec<(u64, u64)> = intervals.collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children() {
        assert_eq!(covered_ns([(0, 10), (5, 15), (20, 25)].into_iter()), 20);
        assert_eq!(covered_ns([(0, 10), (2, 3)].into_iter()), 10);
        assert_eq!(covered_ns(std::iter::empty()), 0);
    }

    #[test]
    fn self_time_and_absorb() {
        let epoch = Instant::now();
        let at = |ns: u64| epoch + Duration::from_nanos(ns);
        let mut main = Trace::new(epoch, true);
        let root = main.record("setup", None, None, at(0), at(100));
        main.record("generate", root, None, at(10), at(40));
        let mut worker = main.fork();
        let req = worker.record("request", None, Some(7), at(0), at(50));
        worker.record("kernel", req, Some(7), at(5), at(15));
        main.absorb(worker);
        let summary = main.summary();
        assert_eq!(summary["setup"].self_ns, 70);
        assert_eq!(summary["generate"].self_ns, 30);
        assert_eq!(summary["request"].self_ns, 40);
        assert_eq!(main.spans()[3].parent, Some(2));
        assert_eq!(main.spans()[3].request, Some(7));
        assert_eq!(main.total_s("kernel"), 10e-9);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut trace = Trace::new(Instant::now(), false);
        let (value, _) = trace.span("outer", None, |t, id| {
            assert_eq!(id, None);
            t.span("inner", id, |_, _| 3).0
        });
        assert_eq!(value, 3);
        assert!(trace.spans().is_empty());
    }
}
