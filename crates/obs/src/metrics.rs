//! Striped metric primitives and the named-metric [`Registry`].
//!
//! All three primitives ([`Counter`], [`Gauge`], [`Histogram`]) stripe
//! their storage per recording thread via the internal `ShardSet`: the record path is
//! a handful of `Relaxed` atomic operations on the thread's own shard, and
//! shards are merged only when a snapshot is taken.  Handles are cheap
//! `Arc` clones, so hot loops hold a handle instead of re-resolving names.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::Serialize;

use crate::stripe::ShardSet;

/// Number of log₂ buckets in a [`Histogram`]: bucket 0 holds the value 0,
/// bucket `i` (1 ..= 64) holds values in `[2^(i-1), 2^i - 1]`, so 1 ns
/// lands in bucket 1 and `u64::MAX` in bucket 64.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Log₂ bucket index for a histogram value (see [`HISTOGRAM_BUCKETS`]).
pub fn log2_bucket(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a log₂ bucket; `None` for the last bucket
/// (whose bound is `u64::MAX` — callers render it as `+Inf`).
pub fn bucket_upper_bound(bucket: usize) -> Option<u64> {
    match bucket {
        0 => Some(0),
        b if b < 64 => Some((1u64 << b) - 1),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

#[derive(Default, Debug)]
struct CounterShard(AtomicU64);

/// Monotonic counter; `add` is wait-free on the caller's own shard.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    shards: Arc<ShardSet<CounterShard>>,
}

impl Counter {
    /// Create an unregistered counter (most callers get one from a
    /// [`Registry`] instead).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.shards
            .with_local(|s| s.0.fetch_add(n, Ordering::Relaxed));
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Sum across all shards.
    pub fn value(&self) -> u64 {
        self.shards
            .fold(0u64, |acc, s| acc.wrapping_add(s.0.load(Ordering::Relaxed)))
    }
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

#[derive(Default, Debug)]
struct GaugeShard(AtomicI64);

/// Point-in-time signed gauge, stored as per-thread deltas so `inc` on one
/// thread and `dec` on another (the queue-depth pattern) still sum to the
/// true level at snapshot time.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    shards: Arc<ShardSet<GaugeShard>>,
}

impl Gauge {
    /// Create an unregistered gauge.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Add a (possibly negative) delta.
    pub fn add(&self, delta: i64) {
        self.shards
            .with_local(|s| s.0.fetch_add(delta, Ordering::Relaxed));
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrement by one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current level: the sum of all per-thread deltas, clamped at zero
    /// from below only by the caller's own usage discipline (a transient
    /// negative read is possible mid-update and is reported as-is).
    pub fn value(&self) -> i64 {
        self.shards
            .fold(0i64, |acc, s| acc.wrapping_add(s.0.load(Ordering::Relaxed)))
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct HistogramShard {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    /// Lifetime minimum; `u64::MAX` while empty.
    min: AtomicU64,
    max: AtomicU64,
    /// Per-bucket exemplar trace id (0 = none); the most recently minted
    /// id recorded into each bucket.
    exemplars: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramShard {
    fn default() -> Self {
        HistogramShard {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            exemplars: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Log₂-bucketed histogram of `u64` values (nanoseconds by convention),
/// with lifetime count / sum / min / max.  Recording is wait-free on the
/// caller's own shard.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    shards: Arc<ShardSet<HistogramShard>>,
}

/// Merged view of a [`Histogram`] at one point in time.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (see [`log2_bucket`] for the bucket layout).
    pub buckets: Vec<u64>,
    /// Total number of recorded values.
    pub count: u64,
    /// Sum of all recorded values (wrapping).
    pub sum: u64,
    /// Smallest recorded value, if any value was recorded.
    pub min: Option<u64>,
    /// Largest recorded value (0 while empty).
    pub max: u64,
    /// Per-bucket exemplar trace id (0 = none): a recent trace whose
    /// value landed in that bucket, recorded via
    /// [`Histogram::record_with_exemplar`].  Plain [`Histogram::record`]
    /// calls leave exemplars untouched.
    pub exemplars: Vec<u64>,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the recorded values; `None` while empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }
}

impl Histogram {
    /// Create an unregistered histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one value.  Min/max use owner-only load-then-store, which is
    /// race-free because each shard has exactly one writer.
    pub fn record(&self, value: u64) {
        self.shards.with_local(|s| {
            s.buckets[log2_bucket(value)].fetch_add(1, Ordering::Relaxed);
            s.count.fetch_add(1, Ordering::Relaxed);
            s.sum.fetch_add(value, Ordering::Relaxed);
            if value < s.min.load(Ordering::Relaxed) {
                s.min.store(value, Ordering::Relaxed);
            }
            if value > s.max.load(Ordering::Relaxed) {
                s.max.store(value, Ordering::Relaxed);
            }
        });
    }

    /// [`Histogram::record`] that also stamps `trace_id` as the bucket's
    /// exemplar (ignored when 0), linking the latency bucket to a recent
    /// request whose trace the caller keeps (the serving layer answers it
    /// by id through its provenance log).  Same wait-free cost as a plain
    /// record.
    pub fn record_with_exemplar(&self, value: u64, trace_id: u64) {
        self.shards.with_local(|s| {
            let bucket = log2_bucket(value);
            s.buckets[bucket].fetch_add(1, Ordering::Relaxed);
            s.count.fetch_add(1, Ordering::Relaxed);
            s.sum.fetch_add(value, Ordering::Relaxed);
            if value < s.min.load(Ordering::Relaxed) {
                s.min.store(value, Ordering::Relaxed);
            }
            if value > s.max.load(Ordering::Relaxed) {
                s.max.store(value, Ordering::Relaxed);
            }
            if trace_id != 0 {
                s.exemplars[bucket].store(trace_id, Ordering::Relaxed);
            }
        });
    }

    /// Merge all shards into a snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot {
            buckets: vec![0u64; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: None,
            max: 0,
            exemplars: vec![0u64; HISTOGRAM_BUCKETS],
        };
        self.shards.fold((), |(), s| {
            for (m, b) in merged.buckets.iter_mut().zip(&s.buckets) {
                *m += b.load(Ordering::Relaxed);
            }
            merged.count += s.count.load(Ordering::Relaxed);
            merged.sum = merged.sum.wrapping_add(s.sum.load(Ordering::Relaxed));
            let shard_min = s.min.load(Ordering::Relaxed);
            if shard_min != u64::MAX {
                merged.min = Some(merged.min.map_or(shard_min, |m| m.min(shard_min)));
            }
            merged.max = merged.max.max(s.max.load(Ordering::Relaxed));
            // Trace ids are minted monotonically, so the largest id per
            // bucket is the most recent exemplar — and the merge stays
            // deterministic for a given shard state.
            for (m, e) in merged.exemplars.iter_mut().zip(&s.exemplars) {
                *m = (*m).max(e.load(Ordering::Relaxed));
            }
        });
        merged
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Default, Debug)]
struct RegistryInner {
    counters: Mutex<Vec<(String, Counter)>>,
    gauges: Mutex<Vec<(String, Gauge)>>,
    histograms: Mutex<Vec<(String, Histogram)>>,
    /// Optional `# HELP` text per metric name (any kind).
    descriptions: Mutex<Vec<(String, String)>>,
}

/// A named-metric registry.  `counter`/`gauge`/`histogram` return (and on
/// first use create) a handle for the given name; hot paths keep the
/// handle.  Registration order is preserved in snapshots and exposition.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

/// Merged view of every metric in a [`Registry`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RegistrySnapshot {
    /// `(name, value)` for every counter, in registration order.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)` for every gauge, in registration order.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` for every histogram, in registration order.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// `(name, help)` for every described metric (see
    /// [`Registry::describe`]), in description order.
    pub descriptions: Vec<(String, String)>,
}

impl RegistrySnapshot {
    /// The `# HELP` text registered for `name`, if any.
    pub fn description(&self, name: &str) -> Option<&str> {
        self.descriptions
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, help)| help.as_str())
    }
}

fn get_or_insert<T: Clone + Default>(slots: &Mutex<Vec<(String, T)>>, name: &str) -> T {
    let mut slots = slots.lock().expect("registry poisoned");
    if let Some((_, v)) = slots.iter().find(|(n, _)| n == name) {
        return v.clone();
    }
    let v = T::default();
    slots.push((name.to_string(), v.clone()));
    v
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Handle for the named counter (created on first use).
    pub fn counter(&self, name: &str) -> Counter {
        get_or_insert(&self.inner.counters, name)
    }

    /// Handle for the named gauge (created on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        get_or_insert(&self.inner.gauges, name)
    }

    /// Handle for the named histogram (created on first use).
    pub fn histogram(&self, name: &str) -> Histogram {
        get_or_insert(&self.inner.histograms, name)
    }

    /// Attach (or replace) `# HELP` text for the named metric; the
    /// exposition layer emits it ahead of the `# TYPE` line.
    pub fn describe(&self, name: &str, help: &str) {
        let mut descriptions = self.inner.descriptions.lock().expect("registry poisoned");
        if let Some((_, existing)) = descriptions.iter_mut().find(|(n, _)| n == name) {
            existing.clear();
            existing.push_str(help);
        } else {
            descriptions.push((name.to_string(), help.to_string()));
        }
    }

    /// Merge every metric into a snapshot.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(n, c)| (n.clone(), c.value()))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(n, g)| (n.clone(), g.value()))
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(n, h)| (n.clone(), h.snapshot()))
            .collect();
        let descriptions = self
            .inner
            .descriptions
            .lock()
            .expect("registry poisoned")
            .clone();
        RegistrySnapshot {
            counters,
            gauges,
            histograms,
            descriptions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn log2_bucket_edges() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1); // 1 ns: first non-zero bucket
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket((1 << 20) - 1), 20);
        assert_eq!(log2_bucket(1 << 20), 21);
        assert_eq!(log2_bucket(u64::MAX), 64); // top bucket, last index
        assert_eq!(log2_bucket(u64::MAX / 2 + 1), 64);
        assert_eq!(log2_bucket(u64::MAX / 2), 63);
    }

    #[test]
    fn bucket_upper_bounds_bracket_their_values() {
        for v in [0u64, 1, 2, 3, 1023, 1024, u64::MAX - 1, u64::MAX] {
            let b = log2_bucket(v);
            match bucket_upper_bound(b) {
                Some(hi) => assert!(v <= hi, "{v} above bound {hi} of bucket {b}"),
                None => assert_eq!(b, 64),
            }
            if b > 0 {
                let below = bucket_upper_bound(b - 1).unwrap();
                assert!(v > below, "{v} not above bucket {}'s bound {below}", b - 1);
            }
        }
    }

    #[test]
    fn histogram_snapshot_merges_count_sum_min_max() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().min, None);
        assert_eq!(h.snapshot().mean(), None);
        h.record(1);
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.min, Some(1));
        assert_eq!(snap.max, u64::MAX);
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(snap.buckets[64], 1);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 2);
    }

    #[test]
    fn striped_merge_is_deterministic_one_thread_equals_n_threads() {
        // The same multiset of samples must produce identical snapshot
        // totals whether recorded from 1 thread or from N.
        let samples: Vec<u64> = (0..1000)
            .map(|i| (i * i * 2654435761u64) % 1_000_000)
            .collect();

        let single = Histogram::new();
        for &s in &samples {
            single.record(s);
        }

        let striped = Histogram::new();
        let chunks: Vec<Vec<u64>> = samples.chunks(250).map(|c| c.to_vec()).collect();
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                let h = striped.clone();
                std::thread::spawn(move || {
                    for s in chunk {
                        h.record(s);
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }

        assert_eq!(single.snapshot(), striped.snapshot());
    }

    #[test]
    fn gauge_levels_survive_cross_thread_inc_dec() {
        let g = Gauge::new();
        g.add(10);
        let g2 = g.clone();
        std::thread::spawn(move || {
            for _ in 0..7 {
                g2.dec();
            }
        })
        .join()
        .unwrap();
        assert_eq!(g.value(), 3);
    }

    #[test]
    fn registry_returns_the_same_underlying_metric_per_name() {
        let r = Registry::new();
        r.counter("requests").inc();
        r.counter("requests").add(2);
        assert_eq!(r.counter("requests").value(), 3);
        let snap = r.snapshot();
        assert_eq!(snap.counters, vec![("requests".to_string(), 3)]);
    }

    #[test]
    fn histogram_sum_and_mean_are_exact_not_bucket_derived() {
        // The sum is tracked as an exact atomic alongside the log₂
        // buckets: values that share a bucket must still contribute
        // their exact values, not the bucket's upper bound.
        let h = Histogram::new();
        h.record(5); // bucket 3 (le=7)
        h.record(6); // same bucket
        h.record(1000); // bucket 10 (le=1023)
        let snap = h.snapshot();
        assert_eq!(snap.sum, 1011, "exact sum, not 7 + 7 + 1023");
        assert_eq!(snap.mean(), Some(1011.0 / 3.0));
    }

    #[test]
    fn exact_sum_merges_across_threads() {
        let h = Histogram::new();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }
        let expected: u64 = (0..4000u64).sum();
        assert_eq!(h.snapshot().sum, expected);
    }

    #[test]
    fn exemplars_link_buckets_to_the_latest_trace_id() {
        let h = Histogram::new();
        h.record_with_exemplar(5, 41); // bucket 3
        h.record_with_exemplar(6, 42); // same bucket: newer id wins
        h.record_with_exemplar(1000, 7); // bucket 10
        h.record(1000); // plain record never touches exemplars
        let snap = h.snapshot();
        assert_eq!(snap.exemplars[log2_bucket(5)], 42);
        assert_eq!(snap.exemplars[log2_bucket(1000)], 7);
        assert!(
            snap.exemplars
                .iter()
                .enumerate()
                .all(|(i, &e)| e == 0 || i == log2_bucket(5) || i == log2_bucket(1000)),
            "untouched buckets have no exemplar"
        );
    }

    #[test]
    fn exemplar_id_zero_is_ignored() {
        let h = Histogram::new();
        h.record_with_exemplar(5, 9);
        h.record_with_exemplar(5, 0); // untraced: keeps the old exemplar
        assert_eq!(h.snapshot().exemplars[log2_bucket(5)], 9);
        assert_eq!(h.snapshot().count, 2, "still counted as a sample");
    }

    #[test]
    fn registry_descriptions_round_trip_into_the_snapshot() {
        let r = Registry::new();
        r.counter("serve.requests_total").inc();
        r.describe("serve.requests_total", "Requests completed");
        r.describe("serve.requests_total", "Total requests completed");
        let snap = r.snapshot();
        assert_eq!(
            snap.description("serve.requests_total"),
            Some("Total requests completed"),
            "re-describe replaces"
        );
        assert_eq!(snap.description("unknown"), None);
        assert_eq!(snap.descriptions.len(), 1);
    }

    #[test]
    fn concurrent_recording_loses_no_samples() {
        // 8 threads × 10_000 records with no shared lock on the record
        // path must still account for every sample.
        let h = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.snapshot().count, 80_000);
    }
}
