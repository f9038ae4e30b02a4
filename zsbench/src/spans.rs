//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program under test is not instrumented: a span is opened before a
//! call into a layer's public function and closed after it returns, with
//! the span that was open at the time as its parent.  Spans stay in
//! memory until the run ends.  With tracing off (`--trace 0`) `enter` and
//! `exit` are a branch each, so the untraced run pays nothing for them.

use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.what`, the layer being the crate the call goes into.
    pub name: &'static str,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the log's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the log's origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log of one thread.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// A log that records (`--trace 1`) or ignores (`--trace 0`) spans.
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = now;
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Forget all closed spans (between repetitions, so memory stays
    /// bounded by one repetition).
    pub fn clear(&mut self) {
        assert!(self.open.is_empty(), "clear with a span still open");
        self.spans.clear();
    }
}

/// Self time of span `id`: its duration minus the part its direct
/// children cover.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::duration_ns)
        .sum();
    spans[id].duration_ns().saturating_sub(children)
}

/// Total duration of all spans called `name`, in seconds.
pub fn total_secs(spans: &[Span], name: &str) -> f64 {
    durations_ns(spans, name).iter().sum::<f64>() / 1e9
}

/// Durations (ns) of all spans called `name`, in start order.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// Share of the first span called `root` that none of its direct
/// children covers: `1 − Σ children ÷ root`.  The layer spans tile a
/// repetition when this is close to 0.
pub fn untiled_share(spans: &[Span], root: &str) -> f64 {
    match spans.iter().position(|s| s.name == root) {
        Some(id) if spans[id].duration_ns() > 0 => {
            self_time_ns(spans, id) as f64 / spans[id].duration_ns() as f64
        }
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = vec![
            span("rep", None, 0, 1_000),
            span("a", Some(0), 0, 400),
            span("a.inner", Some(1), 100, 300),
            span("b", Some(0), 400, 950),
        ];
        // Grandchildren do not count twice against the root.
        assert_eq!(self_time_ns(&spans, 0), 1_000 - 400 - 550);
        assert_eq!(self_time_ns(&spans, 1), 400 - 200);
        assert_eq!(self_time_ns(&spans, 2), 200);
        assert_eq!(untiled_share(&spans, "rep"), 0.05);
        assert_eq!(total_secs(&spans, "a"), 400e-9);
        assert_eq!(untiled_share(&spans, "missing"), 0.0);
    }

    #[test]
    fn log_nests_spans_and_a_disabled_log_records_nothing() {
        let mut log = SpanLog::new(true);
        log.enter("rep");
        log.enter("child");
        log.exit();
        log.enter("child");
        log.exit();
        log.exit();
        let spans = log.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert_eq!(durations_ns(spans, "child").len(), 2);
        assert!(untiled_share(spans, "rep") <= 1.0);

        let mut off = SpanLog::new(false);
        off.enter("rep");
        off.exit();
        assert!(off.spans().is_empty());
    }
}
