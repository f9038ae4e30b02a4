//! Checkpoint span tracer with wire-propagatable trace ids.
//!
//! A trace decomposes one request into consecutive *stages*: the request
//! carries an [`ActiveTrace`] through the pipeline and each layer calls
//! [`ActiveTrace::mark`] when its stage completes.  `mark` is a
//! checkpoint — the stage's duration is the time since the previous
//! checkpoint — so the stages tile the whole interval from trace start to
//! the final mark and their sum equals the end-to-end latency by
//! construction (no gaps, no overlap).
//!
//! Trace ids are plain `u64`s so they fit in a frame-header extension and
//! can be minted on either side of the wire; id 0 means "untraced".
//! [`Tracer::finish`] hands the finished [`Trace`] back and keeps nothing:
//! the caller decides where it goes (the serving layer's stage histograms
//! and provenance log).  The tracer doubles as a sink for standalone
//! structured [`TraceEvent`]s — drift scores, model swaps — that are not
//! tied to a single request, kept in per-thread bounded rings (same
//! striping as the metric shards).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::Serialize;

use crate::stripe::ShardSet;

/// One completed stage of a [`Trace`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceStage {
    /// Stage name (static so marking never allocates).
    pub name: &'static str,
    /// Stage duration in nanoseconds (time since the previous checkpoint).
    pub duration_ns: u64,
}

/// A finished request trace.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Trace {
    /// Request-scoped trace id (0 is reserved for "untraced").
    pub id: u64,
    /// End-to-end duration in nanoseconds: trace start to the last mark.
    pub total_ns: u64,
    /// The stages, in completion order; their durations sum to `total_ns`.
    pub stages: Vec<TraceStage>,
}

impl Trace {
    /// Duration of the named stage, if present.
    pub fn stage_ns(&self, name: &str) -> Option<u64> {
        self.stages
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.duration_ns)
    }
}

/// A standalone structured event (not tied to one request).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceEvent {
    /// Event name.
    pub name: &'static str,
    /// Numeric payload (a drift score, a duration in seconds, ...).
    pub value: f64,
    /// Free-form context (model version, error text, ...).
    pub detail: String,
    /// Monotonic sequence number across all events of this tracer.
    pub seq: u64,
}

/// An in-flight trace.  Owned by the request and moved through the
/// pipeline with it; it holds no reference to the [`Tracer`], so it can
/// cross channel and thread boundaries freely.
#[derive(Debug)]
pub struct ActiveTrace {
    id: u64,
    started: Instant,
    last: Instant,
    stages: Vec<TraceStage>,
}

fn as_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl ActiveTrace {
    /// The trace id (propagated over the wire; never 0).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Close the current stage at the checkpoint `now = Instant::now()`:
    /// its duration is the time elapsed since the previous checkpoint
    /// (or since the trace started, for the first mark).
    pub fn mark(&mut self, stage: &'static str) {
        let now = Instant::now();
        self.stages.push(TraceStage {
            name: stage,
            duration_ns: as_ns(now.duration_since(self.last)),
        });
        self.last = now;
    }

    /// Nanoseconds since the trace started.
    pub fn elapsed_ns(&self) -> u64 {
        as_ns(self.started.elapsed())
    }

    /// The stages closed so far (for mid-flight inspection, e.g.
    /// assembling provenance before later layers mark their stages).
    pub fn stages(&self) -> &[TraceStage] {
        &self.stages
    }
}

#[derive(Debug, Default)]
struct EventShard {
    events: Mutex<VecDeque<TraceEvent>>,
}

#[derive(Debug)]
struct TracerInner {
    enabled: AtomicBool,
    next_id: AtomicU64,
    seq: AtomicU64,
    /// Events kept per recording thread.
    capacity: usize,
    events: ShardSet<EventShard>,
}

/// Trace collector (see module docs).  Cloning shares the collector.
#[derive(Clone, Debug)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    /// Create a tracer keeping up to `capacity` events per recording
    /// thread.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            inner: Arc::new(TracerInner {
                enabled: AtomicBool::new(true),
                next_id: AtomicU64::new(1),
                seq: AtomicU64::new(0),
                capacity: capacity.max(1),
                events: ShardSet::default(),
            }),
        }
    }

    /// Whether tracing is currently on.
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turn tracing on or off.  Traces already in flight still finish.
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Mint a fresh non-zero trace id (also usable by clients that want
    /// to pick the id before the trace starts server-side).
    pub fn next_id(&self) -> u64 {
        // fetch_add starting at 1 can only yield 0 again after 2^64 ids.
        self.inner.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Start a trace with a self-assigned id; `None` while disabled.
    pub fn begin(&self) -> Option<ActiveTrace> {
        if !self.enabled() {
            return None;
        }
        Some(self.begin_with_id(self.next_id()))
    }

    /// Start a trace under an externally supplied id (e.g. one carried in
    /// a frame header).  An id of 0 is replaced with a fresh id.
    pub fn begin_with_id(&self, id: u64) -> ActiveTrace {
        let id = if id == 0 { self.next_id() } else { id };
        let now = Instant::now();
        ActiveTrace {
            id,
            started: now,
            last: now,
            stages: Vec::with_capacity(8),
        }
    }

    /// Finish a trace: total time is start → last checkpoint, so the
    /// stage durations sum to it exactly.  Nothing is stored: the caller
    /// owns the returned trace.
    pub fn finish(&self, active: ActiveTrace) -> Trace {
        Trace {
            id: active.id,
            total_ns: active.stages.iter().map(|s| s.duration_ns).sum(),
            stages: active.stages,
        }
    }

    /// Record a standalone structured event.
    pub fn event(&self, name: &'static str, value: f64, detail: impl Into<String>) {
        if !self.enabled() {
            return;
        }
        let event = TraceEvent {
            name,
            value,
            detail: detail.into(),
            seq: self.inner.seq.fetch_add(1, Ordering::Relaxed),
        };
        let capacity = self.inner.capacity;
        self.inner.events.with_local(|shard| {
            let mut ring = shard.events.lock().expect("event ring poisoned");
            if ring.len() == capacity {
                ring.pop_front();
            }
            ring.push_back(event);
        });
    }

    /// The most recent structured events, newest first, up to `limit`.
    pub fn events(&self, limit: usize) -> Vec<TraceEvent> {
        let mut all = self.inner.events.fold(Vec::new(), |mut acc, shard| {
            let ring = shard.events.lock().expect("event ring poisoned");
            acc.extend(ring.iter().cloned());
            acc
        });
        all.sort_by_key(|t| std::cmp::Reverse(t.seq));
        all.truncate(limit);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn stages_tile_the_trace_exactly() {
        let tracer = Tracer::new(16);
        let mut t = tracer.begin().expect("enabled by default");
        std::thread::sleep(Duration::from_millis(2));
        t.mark("queue_wait");
        std::thread::sleep(Duration::from_millis(1));
        t.mark("forward");
        let done = tracer.finish(t);
        assert_eq!(done.stages.len(), 2);
        let sum: u64 = done.stages.iter().map(|s| s.duration_ns).sum();
        assert_eq!(sum, done.total_ns, "checkpoints tile start..finish");
        assert!(done.stage_ns("queue_wait").unwrap() >= 2_000_000);
        assert!(done.stage_ns("forward").unwrap() >= 1_000_000);
    }

    #[test]
    fn disabled_tracer_returns_none_and_drops_events() {
        let tracer = Tracer::new(4);
        tracer.set_enabled(false);
        assert!(tracer.begin().is_none());
        tracer.event("swap", 1.0, "v2");
        assert!(tracer.events(10).is_empty());
    }

    #[test]
    fn external_ids_are_preserved_and_zero_is_replaced() {
        let tracer = Tracer::new(4);
        let t = tracer.begin_with_id(0xABCD);
        assert_eq!(t.id(), 0xABCD);
        let t0 = tracer.begin_with_id(0);
        assert_ne!(t0.id(), 0, "id 0 means untraced; must be replaced");
    }

    #[test]
    fn event_ring_is_bounded_per_thread() {
        let tracer = Tracer::new(3);
        for i in 0..10 {
            tracer.event("tick", f64::from(i), "");
        }
        let values: Vec<f64> = tracer.events(100).iter().map(|e| e.value).collect();
        assert_eq!(values, vec![9.0, 8.0, 7.0], "newest 3, newest first");
    }

    #[test]
    fn events_record_value_and_detail() {
        let tracer = Tracer::new(8);
        tracer.event("drift_score", 3.5, "median q-error");
        tracer.event("model_swap", 2.0, "promoted v2");
        let events = tracer.events(10);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "model_swap");
        assert_eq!(events[1].value, 3.5);
    }
}
