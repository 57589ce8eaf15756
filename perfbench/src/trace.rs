//! In-memory span recording around the benchmark's calls into each layer,
//! self-time arithmetic, and Chrome trace-event export.
//!
//! Spans are recorded only while a trace is active on the calling thread
//! ([`start`] .. [`stop`]); otherwise [`span`] just runs its closure. The
//! benchmark drives every layer from one thread, so spans nest strictly and a
//! span's parent is the innermost span open when it began.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Spans kept per run; later spans are counted as dropped, not recorded.
const MAX_SPANS: usize = 400_000;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.plan`.
    pub name: &'static str,
    /// Start, nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, nanoseconds since the trace began.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The benchmark operation the span belongs to.
    pub op: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans of one traced run.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    dropped: u64,
}

impl Trace {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) -> Option<usize> {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        Some(id)
    }

    fn end(&mut self, id: usize) {
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        if self.open.last() == Some(&id) {
            self.open.pop();
        }
    }

    /// Builds a trace from explicit spans (tests and offline analysis).
    #[must_use]
    pub fn from_spans(spans: Vec<Span>) -> Self {
        Self {
            epoch: Instant::now(),
            spans,
            open: Vec::new(),
            op: 0,
            dropped: 0,
        }
    }

    /// The recorded spans, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans not recorded because the buffer was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Self time of every span, nanoseconds: its duration minus the part of
    /// its interval covered by its direct children.
    #[must_use]
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Self time of the spans named `name`, summed per operation,
    /// microseconds, in operation order.
    #[must_use]
    pub fn self_us_per_op(&self, name: &str) -> Vec<f64> {
        let self_ns = self.self_times_ns();
        let mut per_op: BTreeMap<u64, u64> = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self_ns) {
            if span.name == name {
                *per_op.entry(span.op).or_insert(0) += ns;
            }
        }
        per_op.values().map(|&ns| ns as f64 / 1e3).collect()
    }

    /// Median over operations of the per-operation self time of `name`,
    /// microseconds (0 when no such span was recorded).
    #[must_use]
    pub fn median_self_us(&self, name: &str) -> f64 {
        crate::stats::median(&self.self_us_per_op(name))
    }

    /// Chrome trace-event JSON (complete events, microsecond timestamps),
    /// loadable in Perfetto or `chrome://tracing`.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}{}\n",
                span.name,
                span.name.split('.').next().unwrap_or(span.name),
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
                span.op,
                if i + 1 == self.spans.len() { "" } else { "," },
            ));
        }
        out.push_str("]}\n");
        out
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<Trace>> = const { RefCell::new(None) };
}

/// Starts recording spans on this thread.
pub fn start() {
    ACTIVE.with(|t| *t.borrow_mut() = Some(Trace::new()));
}

/// Resumes recording into an earlier trace (same clock, same span list).
pub fn resume(trace: Trace) {
    ACTIVE.with(|t| *t.borrow_mut() = Some(trace));
}

/// Stops recording and returns the trace, if one was active.
pub fn stop() -> Option<Trace> {
    ACTIVE.with(|t| t.borrow_mut().take())
}

/// Whether a trace is being recorded on this thread.
#[must_use]
pub fn active() -> bool {
    ACTIVE.with(|t| t.borrow().is_some())
}

/// Tags the spans that follow with operation id `op`.
pub fn set_op(op: u64) {
    ACTIVE.with(|t| {
        if let Some(trace) = t.borrow_mut().as_mut() {
            trace.op = op;
        }
    });
}

/// Runs `f` inside a span named `name` (a plain call when not tracing).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = ACTIVE.with(|t| t.borrow_mut().as_mut().and_then(|trace| trace.begin(name)));
    let result = f();
    if let Some(id) = id {
        ACTIVE.with(|t| {
            if let Some(trace) = t.borrow_mut().as_mut() {
                trace.end(id);
            }
        });
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>, op: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let trace = Trace::from_spans(vec![
            s("op", 0, 100_000, None, 0),
            s("core.plan", 10_000, 40_000, Some(0), 0),
            s("core.mpsp", 15_000, 25_000, Some(1), 0),
            s("runtime.sim", 50_000, 90_000, Some(0), 0),
        ]);
        assert_eq!(trace.self_times_ns(), vec![30_000, 20_000, 10_000, 40_000]);
        assert_eq!(trace.self_us_per_op("core.plan"), vec![20.0]);
    }

    #[test]
    fn self_time_sums_per_operation_then_takes_the_median() {
        let trace = Trace::from_spans(vec![
            s("core.mpsp", 0, 1_000, None, 0),
            s("core.mpsp", 2_000, 4_000, None, 0),
            s("core.mpsp", 5_000, 6_000, None, 1),
            s("core.mpsp", 7_000, 17_000, None, 2),
        ]);
        assert_eq!(trace.self_us_per_op("core.mpsp"), vec![3.0, 1.0, 10.0]);
        assert_eq!(trace.median_self_us("core.mpsp"), 3.0);
        assert_eq!(trace.median_self_us("absent"), 0.0);
    }

    #[test]
    fn recorder_nests_spans_and_tags_operations() {
        start();
        set_op(7);
        let v = span("outer", || span("inner", || 41) + 1);
        assert_eq!(v, 42);
        let trace = stop().expect("trace was active");
        assert!(!active());
        let spans = trace.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        // Outside a trace, spans are plain calls.
        assert_eq!(span("untraced", || 5), 5);
    }

    #[test]
    fn chrome_export_lists_every_span() {
        let trace = Trace::from_spans(vec![
            s("op", 0, 2_000, None, 3),
            s("core.plan", 500, 1_500, Some(0), 3),
        ]);
        let json = trace.to_chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"name\":\"core.plan\",\"cat\":\"core\""));
        assert!(json.contains("\"ts\":0.500,\"dur\":1.000"));
        assert!(json.contains("\"parent\":0,\"op\":3"));
    }
}
