//! Serving metrics: request throughput, latency percentiles and
//! per-stage breakdowns.
//!
//! Recording is wait-free on the hot path: every mutable piece of
//! [`ServeMetrics`] is either a plain atomic or a per-thread striped
//! structure from [`zsdb_obs`] (counters, the per-shard queue-depth
//! gauges, the latency window, the per-stage histograms), so no worker
//! thread ever
//! takes a lock shared with another worker to record a sample.  The old
//! design — a global `Mutex<LatencyRing>` hit on every request — was the
//! named bottleneck past a few hundred thousand q/s; shards are now
//! merged only when a snapshot or exposition is requested.

use crate::cache::CacheStats;
use crate::provenance::{ProvenanceLog, ProvenanceSeed};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use zsdb_nn::percentile_of_sorted;
use zsdb_obs::{
    render_prometheus, sanitize_metric_name, Counter, FlightClass, FlightRecorder,
    FlightRecorderConfig, Gauge, Histogram, LatencyWindow, Registry, SloConfig, SloTracker, Trace,
};
use zsdb_protocol::{WireSloStatus, WireSloWindow};

/// How many of the most recent request latencies are retained *per
/// recording thread* for the percentile estimates.  A bounded ring keeps
/// a long-running server's memory constant (a naive grow-forever log at
/// ~50k q/s leaks ≈ 1.5 GB/hour) and keeps `snapshot()` cost independent
/// of uptime; lifetime min/max are tracked separately.
pub const LATENCY_WINDOW: usize = 65_536;

/// Human-readable labels of the batch-size histogram buckets reported in
/// [`MetricsSnapshot::batch_size_histogram`].  Bucket `i` counts batches
/// whose size falls in the labelled range; single-plan requests count as
/// batches of size 1.
pub const BATCH_SIZE_BUCKET_LABELS: [&str; 8] = [
    "1", "2-3", "4-7", "8-15", "16-31", "32-63", "64-127", "128+",
];

/// Stage name: admission control (quota + queue reservation).
pub const STAGE_ADMISSION: &str = "admission";
/// Stage name: time spent queued before a worker picked the job up.
pub const STAGE_QUEUE_WAIT: &str = "queue_wait";
/// Stage name: feature-cache probe (hit or miss decision).
pub const STAGE_CACHE_LOOKUP: &str = "cache_lookup";
/// Stage name: plan featurization on a cache miss.
pub const STAGE_FEATURIZE: &str = "featurize";
/// Stage name: the (possibly batched) model forward pass.
pub const STAGE_FORWARD: &str = "forward";
/// Stage name: response encode + socket write.
pub const STAGE_RESPOND: &str = "respond";

/// Bucket index of a batch size (log₂ buckets, capped at the last).
fn batch_size_bucket(batch_size: usize) -> usize {
    let mut bucket = 0usize;
    let mut bound = 2usize;
    while bucket + 1 < BATCH_SIZE_BUCKET_LABELS.len() && batch_size >= bound {
        bucket += 1;
        bound *= 2;
    }
    bucket
}

/// Pre-resolved histogram handles for the per-stage latency breakdown,
/// so recording a finished trace never takes the registry lock.  Cheap to
/// clone; worker and responder threads keep their own copy.
#[derive(Clone, Debug)]
pub struct StageRecorder {
    admission: Histogram,
    queue_wait: Histogram,
    cache_lookup: Histogram,
    featurize: Histogram,
    forward: Histogram,
    respond: Histogram,
    other: Histogram,
}

impl StageRecorder {
    fn new(registry: &Registry) -> Self {
        StageRecorder {
            admission: registry.histogram("serve.stage.admission_ns"),
            queue_wait: registry.histogram("serve.stage.queue_wait_ns"),
            cache_lookup: registry.histogram("serve.stage.cache_lookup_ns"),
            featurize: registry.histogram("serve.stage.featurize_ns"),
            forward: registry.histogram("serve.stage.forward_ns"),
            respond: registry.histogram("serve.stage.respond_ns"),
            other: registry.histogram("serve.stage.other_ns"),
        }
    }

    fn of(&self, stage: &str) -> &Histogram {
        match stage {
            STAGE_ADMISSION => &self.admission,
            STAGE_QUEUE_WAIT => &self.queue_wait,
            STAGE_CACHE_LOOKUP => &self.cache_lookup,
            STAGE_FEATURIZE => &self.featurize,
            STAGE_FORWARD => &self.forward,
            STAGE_RESPOND => &self.respond,
            _ => &self.other,
        }
    }

    /// Record one stage duration (nanoseconds).
    pub fn record(&self, stage: &str, ns: u64) {
        self.of(stage).record(ns);
    }

    /// Feed every stage of a finished trace into the stage histograms,
    /// stamping each bucket with the trace id as its exemplar — a
    /// latency bucket in the exposition links back to a concrete recent
    /// request answerable by the `Explain` op.
    pub fn record_trace(&self, trace: &Trace) {
        for stage in &trace.stages {
            self.of(stage.name)
                .record_with_exemplar(stage.duration_ns, trace.id);
        }
    }
}

/// Observability tunables of a server: slow-request retention and the
/// SLO the burn-rate windows are measured against.
#[derive(Debug, Clone, Default)]
pub struct ObservabilityConfig {
    /// Slow-request triggers of the flight recorder, and the ring sizes
    /// of the provenance log that keeps finished traced requests.
    pub flight: FlightRecorderConfig,
    /// Latency/availability objective and rolling window lengths.
    pub slo: SloConfig,
}

/// Shared latency/throughput recorder, updated by every worker thread.
pub struct ServeMetrics {
    started: Instant,
    /// Nanoseconds after `started` at which the first request completed,
    /// plus one (`0` = no request yet).  Throughput is measured from this
    /// instant, not from construction — a server that idled for an hour
    /// before its first request would otherwise report a near-zero q/s
    /// forever.
    first_request_ns: AtomicU64,
    completed: Counter,
    /// Requests turned away at admission (queue full or server closed).
    rejected: Counter,
    /// Recent latencies (per-thread rings) + lifetime min/max.
    window: LatencyWindow,
    /// Batch-size histogram (see [`BATCH_SIZE_BUCKET_LABELS`]).
    batch_sizes: [AtomicU64; BATCH_SIZE_BUCKET_LABELS.len()],
    /// Model hot-swaps performed over the server's lifetime.
    swaps: Counter,
    /// Named registry behind the counters, shard queue gauges and stage
    /// histograms — the source of the Prometheus exposition.
    registry: Registry,
    stages: StageRecorder,
    /// Slow-request flight recorder: classifies every completion on the
    /// warm path.
    flight: FlightRecorder,
    /// Rolling good/bad windows against the configured latency SLO.
    slo: SloTracker,
    /// Provenance of traced requests — the one store of finished traced
    /// requests, retaining the slow/failed classes.
    provenance: ProvenanceLog,
}

impl ServeMetrics {
    /// Create a recorder with default observability settings; throughput
    /// is measured from the first recorded request.
    pub fn new() -> Self {
        ServeMetrics::with_observability(ObservabilityConfig::default())
    }

    /// Create a recorder with explicit flight-recorder and SLO settings.
    pub fn with_observability(config: ObservabilityConfig) -> Self {
        let registry = Registry::new();
        registry.describe("serve.requests_total", "Requests fully served");
        registry.describe(
            "serve.rejected_total",
            "Requests turned away at admission (queue full or server closed)",
        );
        registry.describe(
            "serve.model_swaps_total",
            "Model hot-swaps over the server lifetime",
        );
        let stages = StageRecorder::new(&registry);
        ServeMetrics {
            started: Instant::now(),
            first_request_ns: AtomicU64::new(0),
            completed: registry.counter("serve.requests_total"),
            rejected: registry.counter("serve.rejected_total"),
            window: LatencyWindow::new(LATENCY_WINDOW),
            batch_sizes: std::array::from_fn(|_| AtomicU64::new(0)),
            swaps: registry.counter("serve.model_swaps_total"),
            registry,
            stages,
            provenance: ProvenanceLog::new(
                config.flight.recent_capacity,
                config.flight.slow_capacity,
            ),
            flight: FlightRecorder::new(config.flight),
            slo: SloTracker::new(config.slo),
        }
    }

    /// Record one model hot-swap.
    pub fn record_swap(&self) {
        self.swaps.inc();
    }

    /// Record one request (or batch) turned away at admission — a
    /// `try_submit` that answered `Overloaded`, or any submission against
    /// a closed server.  Rejections burn the SLO error budget.
    pub fn record_rejection(&self) {
        self.rejected.inc();
        self.slo.record(0, false);
    }

    /// Record one completed single-plan request and its queue-to-response
    /// latency (a batch of size 1 in the histogram).  Returns the flight
    /// recorder's verdict so the caller can attach it to the prediction.
    pub fn record(&self, latency: Duration) -> FlightClass {
        self.record_batch(1, latency)
    }

    /// Record one completed batch of `batch_size` requests that shared a
    /// single enqueue-to-response latency.  Every request of the batch
    /// contributes a latency sample, an SLO good/bad event and counts
    /// toward throughput; the batch itself lands in one histogram bucket
    /// and is classified once by the flight recorder.  Wait-free and
    /// allocation-free (the warm-path half of slow-request retention).
    pub fn record_batch(&self, batch_size: usize, latency: Duration) -> FlightClass {
        if batch_size == 0 {
            return FlightClass::Normal;
        }
        // First request ever: pin the throughput clock (the +1 keeps 0 as
        // the "unset" sentinel; a race just picks one of two near-equal
        // instants).
        let _ = self.first_request_ns.compare_exchange(
            0,
            (self.started.elapsed().as_nanos() as u64).saturating_add(1),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        self.batch_sizes[batch_size_bucket(batch_size)].fetch_add(1, Ordering::Relaxed);
        self.completed.add(batch_size as u64);
        let ns = latency.as_nanos() as u64;
        for _ in 0..batch_size {
            self.window.record(ns);
            self.slo.record(ns, true);
        }
        self.flight.classify(ns, true)
    }

    /// Cold-path bookkeeping for one finished traced request: feed the
    /// stage histograms (with the trace id as exemplar), then store the
    /// request in the provenance log, which retains it under its
    /// classification and answers it as a
    /// [`ProvenanceRecord`](zsdb_protocol::ProvenanceRecord).
    pub fn record_completed_trace(&self, seed: &ProvenanceSeed, done: &Trace) {
        self.stages.record_trace(done);
        self.provenance.record(seed, done);
    }

    /// The slow-request flight recorder (the warm-path classifier).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The SLO burn-rate tracker.
    pub fn slo(&self) -> &SloTracker {
        &self.slo
    }

    /// The provenance log behind the `Explain`/`SlowLog` ops.
    pub fn provenance(&self) -> &ProvenanceLog {
        &self.provenance
    }

    /// The server's SLO position in wire form (the `SloStatusOk`
    /// payload).
    pub fn slo_status(&self) -> WireSloStatus {
        let snap = self.slo.snapshot();
        WireSloStatus {
            latency_objective_ns: snap.latency_objective_ns,
            target: snap.target,
            windows: snap
                .windows
                .iter()
                .map(|w| WireSloWindow {
                    window_secs: w.window_secs,
                    good: w.good,
                    bad: w.bad,
                    error_rate: w.error_rate,
                    burn_rate: w.burn_rate,
                })
                .collect(),
        }
    }

    /// Handle on the queue-depth gauge of one server shard, registered
    /// as `serve.shard.N.queue_depth` — the only gauge a queue has.  The
    /// server moves it under shard `N`'s queue lock (up at enqueue, down
    /// at dequeue by the owning worker or a stealer), so it never reads
    /// below zero; the gauges surface in the Prometheus exposition,
    /// ordered by shard index in
    /// [`MetricsSnapshot::shard_queue_depths`], and summed in
    /// [`MetricsSnapshot::queue_depth`].
    pub fn shard_queue_gauge(&self, shard: usize) -> Gauge {
        self.registry
            .gauge(&format!("serve.shard.{shard}.queue_depth"))
    }

    /// Handle on the per-stage histogram recorder.
    pub fn stage_recorder(&self) -> StageRecorder {
        self.stages.clone()
    }

    /// The named-metric registry behind this recorder (counters, shard
    /// queue gauges, stage histograms) — snapshot it for custom exports.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Wall-clock seconds since the recorder (server) was constructed.
    pub fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Snapshot the current metrics, combining them with cache statistics
    /// and the worker count for a complete serving report.
    ///
    /// Percentiles are computed over each recording thread's most recent
    /// [`LATENCY_WINDOW`] requests; `latency_min_ms`/`latency_max_ms`
    /// cover the whole server lifetime.
    pub fn snapshot(&self, cache: CacheStats, workers: usize) -> MetricsSnapshot {
        let elapsed = self.started.elapsed().as_secs_f64();
        let window = self.window.snapshot();
        let mut latencies_ms: Vec<f64> = window.samples.iter().map(|&ns| ns as f64 / 1e6).collect();
        // One sort serves every percentile.
        latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let total_requests = self.completed.value();
        // Throughput over the active window (first completed request →
        // now), so pre-traffic idle time does not dilute q/s.
        let first_ns = self.first_request_ns.load(Ordering::Relaxed);
        let active_secs = if first_ns == 0 {
            0.0
        } else {
            (elapsed - (first_ns - 1) as f64 / 1e9).max(0.0)
        };
        // Per-shard queue depths, collected from the registry's
        // `serve.shard.N.queue_depth` gauges and ordered by shard index.
        let mut shard_depths: Vec<(usize, u64)> = self
            .registry
            .snapshot()
            .gauges
            .iter()
            .filter_map(|(name, value)| {
                let index = name
                    .strip_prefix("serve.shard.")?
                    .strip_suffix(".queue_depth")?
                    .parse()
                    .ok()?;
                Some((index, (*value).max(0) as u64))
            })
            .collect();
        shard_depths.sort_unstable_by_key(|&(index, _)| index);
        let slo = self.slo_status();
        MetricsSnapshot {
            total_requests,
            uptime_seconds: elapsed,
            rejected_requests: self.rejected.value(),
            throughput_qps: if active_secs > 0.0 {
                total_requests as f64 / active_secs
            } else {
                0.0
            },
            queue_depth: shard_depths.iter().map(|&(_, depth)| depth).sum(),
            latency_p50_ms: percentile_of_sorted(&latencies_ms, 50.0),
            latency_p95_ms: percentile_of_sorted(&latencies_ms, 95.0),
            latency_p99_ms: percentile_of_sorted(&latencies_ms, 99.0),
            latency_min_ms: window.min.map_or(f64::NAN, |ns| ns as f64 / 1e6),
            latency_max_ms: if window.count == 0 {
                f64::NAN
            } else {
                window.max as f64 / 1e6
            },
            window_occupancy: window.occupancy,
            window_capacity: window.capacity,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_hit_rate: cache.hit_rate(),
            cache_invalidations: cache.invalidations,
            model_swaps: self.swaps.value(),
            workers,
            shard_queue_depths: shard_depths.into_iter().map(|(_, depth)| depth).collect(),
            batch_size_histogram: self
                .batch_sizes
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            slow_requests_retained: self.provenance.slow_len() as u64,
            slo_latency_objective_ns: slo.latency_objective_ns,
            slo_target: slo.target,
            slo_windows: slo.windows,
        }
    }

    /// Render everything as Prometheus text exposition: the registry
    /// (request counters, shard queue gauges, per-stage histograms) plus
    /// derived summary series (percentiles, throughput, total queue depth,
    /// cache stats, the labelled batch-size histogram).
    pub fn prometheus_text(&self, cache: CacheStats, workers: usize) -> String {
        use std::fmt::Write as _;
        let snap = self.snapshot(cache, workers);
        let mut out = render_prometheus(&self.registry.snapshot());
        // Derived series run through the same sanitizer as registry
        // names, so every emitted name obeys the exposition charset no
        // matter how it was spelled here.
        let mut gauge = |name: &str, value: f64| {
            let name = sanitize_metric_name(name);
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(
                out,
                "{name} {}",
                if value.is_finite() { value } else { 0.0 }
            );
        };
        gauge("serve_uptime_seconds", snap.uptime_seconds);
        gauge("serve_throughput_qps", snap.throughput_qps);
        gauge("serve_latency_p50_ms", snap.latency_p50_ms);
        gauge("serve_latency_p95_ms", snap.latency_p95_ms);
        gauge("serve_latency_p99_ms", snap.latency_p99_ms);
        gauge("serve_latency_min_ms", snap.latency_min_ms);
        gauge("serve_latency_max_ms", snap.latency_max_ms);
        gauge("serve_window_occupancy", snap.window_occupancy as f64);
        gauge("serve_window_capacity", snap.window_capacity as f64);
        gauge("serve_cache_hit_rate", snap.cache_hit_rate);
        gauge("serve_workers", snap.workers as f64);
        gauge("serve_queue_depth", snap.queue_depth as f64);
        let _ = writeln!(out, "# TYPE serve_cache_hits_total counter");
        let _ = writeln!(out, "serve_cache_hits_total {}", snap.cache_hits);
        let _ = writeln!(out, "# TYPE serve_cache_misses_total counter");
        let _ = writeln!(out, "serve_cache_misses_total {}", snap.cache_misses);
        let _ = writeln!(out, "# TYPE serve_batch_size counter");
        for (label, count) in BATCH_SIZE_BUCKET_LABELS
            .iter()
            .zip(&snap.batch_size_histogram)
        {
            let _ = writeln!(out, "serve_batch_size{{bucket=\"{label}\"}} {count}");
        }
        // Slow-request retention and SLO burn rates.
        let _ = writeln!(out, "# TYPE serve_slow_requests_retained gauge");
        let _ = writeln!(
            out,
            "serve_slow_requests_retained {}",
            snap.slow_requests_retained
        );
        let _ = writeln!(out, "# TYPE serve_slo_latency_objective_ns gauge");
        let _ = writeln!(
            out,
            "serve_slo_latency_objective_ns {}",
            snap.slo_latency_objective_ns
        );
        let _ = writeln!(out, "# TYPE serve_slo_target gauge");
        let _ = writeln!(out, "serve_slo_target {}", snap.slo_target);
        let finite = |v: f64| if v.is_finite() { v } else { 0.0 };
        let _ = writeln!(out, "# TYPE serve_slo_error_rate gauge");
        for window in &snap.slo_windows {
            let _ = writeln!(
                out,
                "serve_slo_error_rate{{window=\"{}s\"}} {}",
                window.window_secs,
                finite(window.error_rate)
            );
        }
        let _ = writeln!(out, "# TYPE serve_slo_burn_rate gauge");
        for window in &snap.slo_windows {
            let _ = writeln!(
                out,
                "serve_slo_burn_rate{{window=\"{}s\"}} {}",
                window.window_secs,
                finite(window.burn_rate)
            );
        }
        out
    }
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics::new()
    }
}

/// A point-in-time serving report: what [`crate::Server::metrics`] and
/// `shutdown` return, serializable as JSON.
///
/// Latency percentiles are `NaN` until at least one request completed
/// (serde_json renders them as `null`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Requests fully served since the server started.
    pub total_requests: u64,
    /// Requests turned away at admission (queue full / server closed)
    /// since the server started.
    pub rejected_requests: u64,
    /// Wall-clock seconds since the server started.
    pub uptime_seconds: f64,
    /// Completed requests per second, measured from the first completed
    /// request (0 before any traffic) — idle time before the first
    /// request does not dilute the rate.
    pub throughput_qps: f64,
    /// Jobs sitting in the bounded queues right now: the sum of
    /// `shard_queue_depths`.
    pub queue_depth: u64,
    /// Median request latency (enqueue → response) in milliseconds.
    pub latency_p50_ms: f64,
    /// 95th-percentile latency in milliseconds.
    pub latency_p95_ms: f64,
    /// 99th-percentile latency in milliseconds.
    pub latency_p99_ms: f64,
    /// Best observed latency in milliseconds, over the whole lifetime
    /// (`NaN` until a request completes).
    pub latency_min_ms: f64,
    /// Worst observed latency in milliseconds, over the whole lifetime.
    pub latency_max_ms: f64,
    /// Latency samples currently held in the percentile window — with
    /// `window_capacity`, distinguishes a cold ring from a saturated one.
    pub window_occupancy: usize,
    /// Total window slots across the rings of every recording thread.
    pub window_capacity: usize,
    /// Feature-cache hits.
    pub cache_hits: u64,
    /// Feature-cache misses.
    pub cache_misses: u64,
    /// `hits / (hits + misses)`, 0 before any traffic.
    pub cache_hit_rate: f64,
    /// Times the feature cache was wholesale invalidated (hot-swaps).
    pub cache_invalidations: u64,
    /// Model hot-swaps performed over the server's lifetime.
    pub model_swaps: u64,
    /// Number of worker threads serving predictions.
    pub workers: usize,
    /// Live queue depth of each server shard, ordered by shard index —
    /// shard `i` corresponds to the `serve.shard.i.queue_depth` gauge.
    pub shard_queue_depths: Vec<u64>,
    /// Batch-size histogram: bucket `i` counts completed batches whose
    /// size falls in `BATCH_SIZE_BUCKET_LABELS[i]` (single requests are
    /// size-1 batches).
    pub batch_size_histogram: Vec<u64>,
    /// Slow/failed requests currently retained in the provenance log
    /// (answerable through the `SlowLog` op).
    pub slow_requests_retained: u64,
    /// Latency objective (nanoseconds) a request must meet to count as
    /// an SLO-good event.
    pub slo_latency_objective_ns: u64,
    /// Configured availability target in `(0, 1)`.
    pub slo_target: f64,
    /// SLO good/bad counts and burn rate per rolling window, shortest
    /// window first.
    pub slo_windows: Vec<WireSloWindow>,
}

/// Render a millisecond value for display: `-` when no samples exist yet
/// (the percentile is `NaN`) instead of the literal string `NaN ms`.
fn fmt_ms(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.3} ms")
    } else {
        "-".to_string()
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} requests ({} rejected, {} queued) in {:.2}s up ({:.0} q/s) · latency \
             min {}, p50 {}, p95 {}, p99 {} · cache hit-rate {:.1}% ({} workers)",
            self.total_requests,
            self.rejected_requests,
            self.queue_depth,
            self.uptime_seconds,
            self.throughput_qps,
            fmt_ms(self.latency_min_ms),
            fmt_ms(self.latency_p50_ms),
            fmt_ms(self.latency_p95_ms),
            fmt_ms(self.latency_p99_ms),
            self.cache_hit_rate * 100.0,
            self.workers
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache_stats(hits: u64, misses: u64) -> CacheStats {
        CacheStats {
            hits,
            misses,
            len: 0,
            capacity: 16,
            invalidations: 0,
        }
    }

    #[test]
    fn snapshot_aggregates_latencies() {
        let metrics = ServeMetrics::new();
        for ms in [1u64, 2, 3, 4, 100] {
            metrics.record(Duration::from_millis(ms));
        }
        let snap = metrics.snapshot(cache_stats(3, 2), 4);
        assert_eq!(snap.total_requests, 5);
        assert_eq!(snap.workers, 4);
        assert!(snap.latency_p50_ms >= 2.0 && snap.latency_p50_ms <= 4.0);
        assert!(snap.latency_p99_ms <= snap.latency_max_ms);
        assert!(snap.latency_max_ms >= 99.0);
        assert!(snap.latency_min_ms <= 1.1, "lifetime min tracked");
        assert!((snap.cache_hit_rate - 0.6).abs() < 1e-12);
        assert!(snap.throughput_qps > 0.0);
        assert!(snap.uptime_seconds > 0.0);
        assert_eq!(snap.window_occupancy, 5);
    }

    #[test]
    fn empty_snapshot_has_nan_latencies_and_zero_throughput_requests() {
        let metrics = ServeMetrics::new();
        let snap = metrics.snapshot(cache_stats(0, 0), 1);
        assert_eq!(snap.total_requests, 0);
        assert!(snap.latency_p50_ms.is_nan());
        assert!(snap.latency_min_ms.is_nan());
        assert_eq!(snap.cache_hit_rate, 0.0);
        assert_eq!(snap.window_occupancy, 0);
        assert_eq!(snap.queue_depth, 0);
    }

    #[test]
    fn latency_window_is_bounded_but_min_max_are_lifetime() {
        let metrics = ServeMetrics::new();
        // One early outlier and one early best-case, then far more than
        // LATENCY_WINDOW mid-range requests: the ring forgets both for
        // percentiles, but the lifetime extremes keep them.
        metrics.record(Duration::from_secs(2));
        metrics.record(Duration::from_nanos(500));
        for _ in 0..(LATENCY_WINDOW + 100) {
            metrics.record(Duration::from_micros(50));
        }
        let snap = metrics.snapshot(cache_stats(0, 0), 1);
        assert_eq!(snap.total_requests, (LATENCY_WINDOW + 102) as u64);
        assert!(snap.latency_p99_ms < 1.0, "window forgot the outlier");
        assert!(snap.latency_max_ms >= 2_000.0, "lifetime max retained");
        assert!(snap.latency_min_ms <= 0.001, "lifetime min retained");
        assert_eq!(
            snap.window_occupancy, LATENCY_WINDOW,
            "sample storage is bounded"
        );
        assert_eq!(snap.window_capacity, LATENCY_WINDOW, "single-thread ring");
    }

    #[test]
    fn window_occupancy_distinguishes_cold_from_saturated() {
        let metrics = ServeMetrics::new();
        metrics.record(Duration::from_micros(10));
        let cold = metrics.snapshot(cache_stats(0, 0), 1);
        assert_eq!(cold.window_occupancy, 1);
        assert_eq!(cold.window_capacity, LATENCY_WINDOW);
        assert!(cold.window_occupancy < cold.window_capacity, "cold ring");
    }

    #[test]
    fn recording_from_many_threads_matches_single_thread_totals() {
        // Striped-shard merge determinism: the same samples recorded from
        // 1 thread and from N threads must yield identical totals and
        // identical lifetime extremes.
        let single = ServeMetrics::new();
        for i in 0..400u64 {
            single.record(Duration::from_micros(10 + i % 90));
        }
        let striped = std::sync::Arc::new(ServeMetrics::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let m = std::sync::Arc::clone(&striped);
                std::thread::spawn(move || {
                    for i in (t * 100)..((t + 1) * 100) {
                        m.record(Duration::from_micros(10 + i % 90));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let a = single.snapshot(cache_stats(0, 0), 1);
        let b = striped.snapshot(cache_stats(0, 0), 4);
        assert_eq!(a.total_requests, b.total_requests);
        assert_eq!(a.latency_min_ms, b.latency_min_ms);
        assert_eq!(a.latency_max_ms, b.latency_max_ms);
        assert_eq!(a.window_occupancy, b.window_occupancy);
        assert_eq!(b.window_capacity, 4 * LATENCY_WINDOW, "one ring per thread");
    }

    #[test]
    fn batch_sizes_land_in_log2_buckets() {
        assert_eq!(batch_size_bucket(1), 0);
        assert_eq!(batch_size_bucket(2), 1);
        assert_eq!(batch_size_bucket(3), 1);
        assert_eq!(batch_size_bucket(4), 2);
        assert_eq!(batch_size_bucket(7), 2);
        assert_eq!(batch_size_bucket(8), 3);
        assert_eq!(batch_size_bucket(15), 3);
        assert_eq!(batch_size_bucket(16), 4);
        assert_eq!(batch_size_bucket(31), 4);
        assert_eq!(batch_size_bucket(32), 5);
        assert_eq!(batch_size_bucket(63), 5);
        assert_eq!(batch_size_bucket(64), 6);
        assert_eq!(batch_size_bucket(127), 6);
        assert_eq!(batch_size_bucket(128), 7);
        assert_eq!(batch_size_bucket(100_000), 7);
        assert_eq!(batch_size_bucket(usize::MAX), 7);
    }

    #[test]
    fn record_batch_updates_histogram_and_throughput() {
        let metrics = ServeMetrics::new();
        metrics.record(Duration::from_micros(10)); // size 1
        metrics.record_batch(32, Duration::from_micros(500));
        metrics.record_batch(32, Duration::from_micros(450));
        metrics.record_batch(3, Duration::from_micros(40));
        let snap = metrics.snapshot(cache_stats(0, 0), 2);
        // 1 + 32 + 32 + 3 requests completed.
        assert_eq!(snap.total_requests, 68);
        assert_eq!(
            snap.batch_size_histogram.len(),
            BATCH_SIZE_BUCKET_LABELS.len()
        );
        assert_eq!(snap.batch_size_histogram[0], 1); // "1"
        assert_eq!(snap.batch_size_histogram[1], 1); // "2-3"
        assert_eq!(snap.batch_size_histogram[5], 2); // "32-63"
        assert_eq!(snap.batch_size_histogram.iter().sum::<u64>(), 4);
        // Every request of a batch contributes one latency sample.
        assert_eq!(snap.window_occupancy, 68);
        // Zero-size batches are ignored.
        metrics.record_batch(0, Duration::from_micros(1));
        assert_eq!(metrics.snapshot(cache_stats(0, 0), 2).total_requests, 68);
    }

    #[test]
    fn shard_queue_gauges_surface_in_snapshot_ordered_by_index() {
        let metrics = ServeMetrics::new();
        // Register out of order to prove the snapshot sorts by index
        // (registries typically return gauges in registration order).
        let g2 = metrics.shard_queue_gauge(2);
        let g0 = metrics.shard_queue_gauge(0);
        let g1 = metrics.shard_queue_gauge(1);
        g0.inc();
        g1.inc();
        g1.inc();
        g2.inc();
        g2.inc();
        g2.inc();
        let snap = metrics.snapshot(cache_stats(0, 0), 3);
        assert_eq!(snap.shard_queue_depths, vec![1, 2, 3]);
        assert_eq!(snap.queue_depth, 1 + 2 + 3, "the total is their sum");
        // A recorder no server registered shards on reports none.
        let plain = ServeMetrics::new().snapshot(cache_stats(0, 0), 1);
        assert!(plain.shard_queue_depths.is_empty());
        // The gauges also ride along in the Prometheus exposition, next
        // to the derived total.
        let text = metrics.prometheus_text(cache_stats(0, 0), 3);
        assert!(text.contains("serve_shard_1_queue_depth 2"), "{text}");
        assert!(text.contains("serve_queue_depth 6"), "{text}");
    }

    #[test]
    fn stage_recorder_feeds_named_histograms() {
        let metrics = ServeMetrics::new();
        let stages = metrics.stage_recorder();
        stages.record(STAGE_QUEUE_WAIT, 1_000);
        stages.record(STAGE_FORWARD, 5_000);
        stages.record("never_heard_of_it", 9);
        let snap = metrics.registry().snapshot();
        let histogram = |name: &str| {
            snap.histograms
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, h)| h.clone())
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        assert_eq!(histogram("serve.stage.queue_wait_ns").count, 1);
        assert_eq!(histogram("serve.stage.queue_wait_ns").sum, 1_000);
        assert_eq!(histogram("serve.stage.forward_ns").count, 1);
        assert_eq!(histogram("serve.stage.other_ns").count, 1);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let metrics = ServeMetrics::new();
        metrics.record(Duration::from_micros(1500));
        let snap = metrics.snapshot(cache_stats(1, 1), 2);
        let json = serde_json::to_string(&snap).unwrap();
        for key in [
            "throughput_qps",
            "latency_p50_ms",
            "latency_p95_ms",
            "latency_p99_ms",
            "latency_min_ms",
            "cache_hit_rate",
            "uptime_seconds",
            "queue_depth",
            "window_occupancy",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.total_requests, 1);
    }

    #[test]
    fn prometheus_text_covers_registry_and_derived_series() {
        let metrics = ServeMetrics::new();
        metrics.record(Duration::from_micros(100));
        metrics.record_batch(3, Duration::from_micros(200));
        metrics.stage_recorder().record(STAGE_FORWARD, 42_000);
        let text = metrics.prometheus_text(cache_stats(1, 1), 2);
        assert!(text.contains("serve_requests_total 4"));
        assert!(text.contains("# TYPE serve_queue_depth gauge"));
        assert!(text.contains("serve_stage_forward_ns_count 1"));
        assert!(text.contains("serve_uptime_seconds"));
        assert!(text.contains("serve_throughput_qps"));
        assert!(text.contains("serve_batch_size{bucket=\"2-3\"} 1"));
        assert!(!text.contains("NaN"), "non-finite values render as 0");
    }

    #[test]
    fn display_is_readable() {
        let metrics = ServeMetrics::new();
        metrics.record(Duration::from_millis(2));
        let text = metrics.snapshot(cache_stats(1, 0), 8).to_string();
        assert!(text.contains("8 workers"));
        assert!(text.contains("hit-rate"));
        assert!(text.contains("ms"));
        assert!(text.contains("queued"));
    }

    #[test]
    fn display_renders_empty_percentiles_as_dash_not_nan() {
        let metrics = ServeMetrics::new();
        let text = metrics.snapshot(cache_stats(0, 0), 1).to_string();
        assert!(!text.contains("NaN"), "no literal NaN in: {text}");
        assert!(text.contains("p50 -"), "dash placeholder in: {text}");
        assert!(text.contains("min -"), "dash placeholder for min: {text}");
    }

    #[test]
    fn rejections_are_counted_independently_of_completions() {
        let metrics = ServeMetrics::new();
        metrics.record(Duration::from_micros(10));
        metrics.record_rejection();
        metrics.record_rejection();
        let snap = metrics.snapshot(cache_stats(0, 0), 1);
        assert_eq!(snap.total_requests, 1);
        assert_eq!(snap.rejected_requests, 2);
        assert!(snap.to_string().contains("(2 rejected"));
    }

    fn observed_metrics() -> ServeMetrics {
        ServeMetrics::with_observability(ObservabilityConfig {
            flight: FlightRecorderConfig {
                slow_capacity: 8,
                recent_capacity: 8,
                slow_threshold_ns: 1_000_000,
                percentile: 0.0,
                min_samples: 0,
            },
            slo: SloConfig {
                latency_objective_ns: 1_000_000,
                target: 0.99,
                windows: vec![Duration::from_secs(60)],
            },
        })
    }

    #[test]
    fn completions_feed_the_slo_and_classify_against_the_threshold() {
        let metrics = observed_metrics();
        assert_eq!(
            metrics.record(Duration::from_micros(10)),
            FlightClass::Normal
        );
        assert_eq!(
            metrics.record(Duration::from_millis(5)),
            FlightClass::SlowThreshold
        );
        metrics.record_rejection();
        let slo = metrics.slo_status();
        assert_eq!(slo.latency_objective_ns, 1_000_000);
        assert_eq!(slo.windows.len(), 1);
        // 1 good (fast), 2 bad (over-objective completion + rejection).
        assert_eq!(slo.windows[0].good, 1);
        assert_eq!(slo.windows[0].bad, 2);
        assert!(slo.windows[0].burn_rate > 1.0, "budget burning fast");
    }

    #[test]
    fn completed_traces_retain_provenance_and_surface_in_the_snapshot() {
        let metrics = observed_metrics();
        let tracer = zsdb_obs::Tracer::new(8);
        let mut t = tracer.begin_with_id(321);
        std::thread::sleep(Duration::from_millis(2));
        t.mark(STAGE_FORWARD);
        let done = tracer.finish(t);
        let class = metrics.record(Duration::from_nanos(done.total_ns));
        assert_eq!(class, FlightClass::SlowThreshold);
        let seed = crate::provenance::ProvenanceSeed {
            fingerprint: 7,
            model_name: crate::provenance::MODEL_NAME,
            model_version: 2,
            cache_hit: false,
            home_shard: 0,
            executed_shard: 1,
            stolen: true,
            predicted_secs: 0.5,
            class,
        };
        metrics.record_completed_trace(&seed, &done);
        // Explain path: the record is findable and complete.
        let record = metrics.provenance().find(321).expect("retained");
        assert_eq!(record.model_version, 2);
        assert!(record.stolen);
        assert_eq!(metrics.provenance().slow_len(), 1);
        // The stage histogram bucket carries the trace id as exemplar.
        let snap = metrics.registry().snapshot();
        let (_, forward) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "serve.stage.forward_ns")
            .expect("forward histogram");
        assert!(forward.exemplars.contains(&321));
        // And the serving snapshot reports retention + SLO position.
        let report = metrics.snapshot(cache_stats(0, 0), 1);
        assert_eq!(report.slow_requests_retained, 1);
        assert_eq!(report.slo_latency_objective_ns, 1_000_000);
        assert_eq!(report.slo_windows.len(), 1);
        let json = serde_json::to_string(&report).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.slow_requests_retained, 1);
        assert_eq!(back.slo_windows, report.slo_windows);
    }

    #[test]
    fn prometheus_text_exposes_help_slo_and_slow_log_series() {
        let metrics = observed_metrics();
        metrics.record(Duration::from_micros(10));
        metrics.record(Duration::from_millis(5));
        let text = metrics.prometheus_text(cache_stats(0, 0), 1);
        assert!(
            text.contains("# HELP serve_requests_total Requests fully served"),
            "described registry metrics emit HELP: {text}"
        );
        assert!(text.contains("serve_slow_requests_retained"));
        assert!(text.contains("serve_slo_target 0.99"));
        assert!(text.contains("serve_slo_error_rate{window=\"60s\"}"));
        assert!(text.contains("serve_slo_burn_rate{window=\"60s\"}"));
        assert!(!text.contains("NaN"));
    }

    #[test]
    fn throughput_is_measured_from_the_first_request_not_construction() {
        let metrics = ServeMetrics::new();
        // Idle before the first request: this gap must not dilute q/s.
        std::thread::sleep(Duration::from_millis(120));
        for _ in 0..10 {
            metrics.record(Duration::from_micros(5));
        }
        let snap = metrics.snapshot(cache_stats(0, 0), 1);
        let diluted = snap.total_requests as f64 / snap.uptime_seconds;
        assert!(
            snap.throughput_qps > 10.0 * diluted,
            "active-window q/s ({}) should dwarf the lifetime rate ({diluted})",
            snap.throughput_qps
        );
        // No traffic yet → a defined 0, not NaN or a division by ~0.
        let idle = ServeMetrics::new().snapshot(cache_stats(0, 0), 1);
        assert_eq!(idle.throughput_qps, 0.0);
    }
}
