//! Slow-request flight recorder: the warm-path classifier that decides
//! which finished requests are worth keeping for post-hoc diagnosis.
//!
//! The recorder answers "is this request anomalous?" for every completion
//! — failed, over an absolute latency threshold, or in the slow tail of
//! the live latency population (above a configured percentile) — so the
//! serving layer can retain the interesting requests in a slow ring that
//! a burst of normal traffic cannot flush.  It stores no requests itself:
//! the serving layer's provenance log holds the retained records, sized
//! by this recorder's [`FlightRecorderConfig`] capacities.
//!
//! [`FlightRecorder::classify`] is wait-free and performs **zero heap
//! allocations**: it maintains the latency population in a fixed array
//! of log₂ buckets (plain shared atomics, no per-thread lazy shard setup)
//! and returns the retention decision.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use serde::Serialize;

use crate::metrics::{log2_bucket, HISTOGRAM_BUCKETS};

/// Tunables of a [`FlightRecorder`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightRecorderConfig {
    /// Capacity of the slow ring: how many retained (anomalous) requests
    /// the serving layer keeps.
    pub slow_capacity: usize,
    /// Capacity of the recent ring: how many finished traced requests of
    /// any class the serving layer keeps (they age out fast).
    pub recent_capacity: usize,
    /// Absolute retention trigger: a request at or above this latency
    /// (nanoseconds) is kept.  `0` disables the threshold trigger.
    pub slow_threshold_ns: u64,
    /// Percentile retention trigger: a request whose latency bucket lies
    /// strictly above the population's percentile bucket is kept (e.g.
    /// `99.0` keeps roughly the slowest 1%).  `0.0` disables it.
    pub percentile: f64,
    /// Observations required before the percentile trigger arms, so a
    /// cold recorder does not flag its first requests as tail latency.
    pub min_samples: u64,
}

impl Default for FlightRecorderConfig {
    fn default() -> Self {
        FlightRecorderConfig {
            slow_capacity: 64,
            recent_capacity: 128,
            slow_threshold_ns: 0,
            percentile: 99.0,
            min_samples: 100,
        }
    }
}

/// Why a request was (or was not) retained in the slow ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FlightClass {
    /// Unremarkable request: kept in the recent ring only.
    Normal,
    /// At or above the absolute [`FlightRecorderConfig::slow_threshold_ns`].
    SlowThreshold,
    /// In the slow tail of the live latency population (percentile
    /// trigger).
    SlowTail,
    /// The request failed; always retained.
    Failed,
}

impl FlightClass {
    /// Whether this class lands in the slow ring.
    pub fn retained(self) -> bool {
        !matches!(self, FlightClass::Normal)
    }

    /// Stable lower-case label (wire / exposition friendly).
    pub fn label(self) -> &'static str {
        match self {
            FlightClass::Normal => "normal",
            FlightClass::SlowThreshold => "slow_threshold",
            FlightClass::SlowTail => "slow_tail",
            FlightClass::Failed => "failed",
        }
    }
}

#[derive(Debug)]
struct FlightInner {
    config: FlightRecorderConfig,
    enabled: AtomicBool,
    /// Live latency population, log₂-bucketed (same layout as
    /// [`crate::metrics::Histogram`]), in plain shared atomics so the
    /// warm path never allocates — not even on a thread's first call.
    population: [AtomicU64; HISTOGRAM_BUCKETS],
    observed: AtomicU64,
}

/// The slow-request flight recorder (see module docs).  Cloning shares
/// the recorder.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    inner: Arc<FlightInner>,
}

impl FlightRecorder {
    /// Create a recorder with the given retention configuration.
    pub fn new(config: FlightRecorderConfig) -> Self {
        FlightRecorder {
            inner: Arc::new(FlightInner {
                config,
                enabled: AtomicBool::new(true),
                population: std::array::from_fn(|_| AtomicU64::new(0)),
                observed: AtomicU64::new(0),
            }),
        }
    }

    /// Whether the recorder is currently on.
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turn the recorder on or off.  While off, [`classify`] always
    /// answers [`FlightClass::Normal`] without touching the population,
    /// so nothing is retained.
    ///
    /// [`classify`]: FlightRecorder::classify
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Number of latencies observed so far.
    pub fn observed(&self) -> u64 {
        self.inner.observed.load(Ordering::Relaxed)
    }

    /// Fold one request's latency into the live population and decide
    /// whether it should be retained.  Wait-free, zero heap allocations —
    /// safe to call on the zero-allocation serving path for every
    /// request.
    pub fn classify(&self, latency_ns: u64, ok: bool) -> FlightClass {
        if !self.enabled() {
            return FlightClass::Normal;
        }
        let inner = &*self.inner;
        let bucket = log2_bucket(latency_ns);
        inner.population[bucket].fetch_add(1, Ordering::Relaxed);
        let observed = inner.observed.fetch_add(1, Ordering::Relaxed) + 1;
        if !ok {
            return FlightClass::Failed;
        }
        let threshold = inner.config.slow_threshold_ns;
        if threshold > 0 && latency_ns >= threshold {
            return FlightClass::SlowThreshold;
        }
        if inner.config.percentile > 0.0 && observed >= inner.config.min_samples.max(1) {
            if let Some(tail_bucket) = self.percentile_bucket(observed) {
                if bucket > tail_bucket {
                    return FlightClass::SlowTail;
                }
            }
        }
        FlightClass::Normal
    }

    /// The log₂ bucket holding the configured percentile of the live
    /// population (`None` while the population is empty).
    fn percentile_bucket(&self, observed: u64) -> Option<usize> {
        if observed == 0 {
            return None;
        }
        let pct = self.inner.config.percentile.clamp(0.0, 100.0);
        // Rank of the percentile sample, 1-based; ceil so p100 = last.
        let rank = ((observed as f64) * pct / 100.0).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, b) in self.inner.population.iter().enumerate() {
            cumulative += b.load(Ordering::Relaxed);
            if cumulative >= rank {
                return Some(i);
            }
        }
        Some(HISTOGRAM_BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_trigger_flags_requests_at_or_above_it() {
        let recorder = FlightRecorder::new(FlightRecorderConfig {
            slow_threshold_ns: 1_000_000,
            percentile: 0.0,
            min_samples: 0,
            ..FlightRecorderConfig::default()
        });
        assert_eq!(
            recorder.classify(5_000_000, true),
            FlightClass::SlowThreshold
        );
        assert_eq!(
            recorder.classify(1_000_000, true),
            FlightClass::SlowThreshold
        );
        assert_eq!(recorder.classify(10, true), FlightClass::Normal);
        assert_eq!(recorder.observed(), 3);
    }

    #[test]
    fn failures_are_always_retained() {
        let recorder = FlightRecorder::new(FlightRecorderConfig::default());
        assert_eq!(recorder.classify(1, false), FlightClass::Failed);
        assert!(FlightClass::Failed.retained());
        assert!(!FlightClass::Normal.retained());
    }

    #[test]
    fn percentile_trigger_arms_after_min_samples_and_flags_the_tail() {
        let recorder = FlightRecorder::new(FlightRecorderConfig {
            slow_capacity: 8,
            recent_capacity: 8,
            slow_threshold_ns: 0,
            percentile: 99.0,
            min_samples: 100,
        });
        // Cold recorder: even an outlier is Normal before min_samples.
        assert_eq!(recorder.classify(1 << 40, true), FlightClass::Normal);
        // Build a tight population around ~1µs.
        for _ in 0..200 {
            recorder.classify(1_000, true);
        }
        // Far above every populated bucket: tail.
        assert_eq!(recorder.classify(1 << 40, true), FlightClass::SlowTail);
        // In the dominant bucket: normal.
        assert_eq!(recorder.classify(1_000, true), FlightClass::Normal);
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let recorder = FlightRecorder::new(FlightRecorderConfig {
            slow_threshold_ns: 1,
            ..FlightRecorderConfig::default()
        });
        recorder.set_enabled(false);
        assert_eq!(recorder.classify(u64::MAX, false), FlightClass::Normal);
        assert_eq!(recorder.observed(), 0);
    }
}
