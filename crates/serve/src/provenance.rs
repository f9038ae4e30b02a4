//! Prediction provenance: per-request records of *where a number came
//! from* — plan fingerprint, model name/version, cache hit, shard
//! placement (home vs. stolen), the predicted value, and the per-stage
//! latency breakdown of the finished trace.
//!
//! Storage is cold-path only: a request enters the log when its trace
//! finishes (the gateway traces every request; the in-process warm path
//! without a trace never allocates here), as its `Copy` seed and the
//! finished trace, and its [`ProvenanceRecord`] is assembled only when
//! asked for.  The [`ProvenanceLog`] is the one store of finished traced
//! requests, in two bounded rings sized by the
//! [`FlightRecorderConfig`](zsdb_obs::FlightRecorderConfig) capacities:
//! a *recent* ring holding the last N traced requests of any class, and
//! a *slow* ring that only the classes the flight recorder retains
//! (threshold/tail-slow, failed) enter — so the interesting requests
//! survive bursts of normal traffic that flush the recent ring.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use zsdb_obs::{FlightClass, Trace};
use zsdb_protocol::{ProvenanceRecord, ProvenanceStage};

/// Name of the zero-shot cost model family — the
/// [`Servable::NAME`](crate::Servable::NAME) of
/// [`TrainedModel`](zsdb_core::train::TrainedModel), reported in every
/// [`ProvenanceRecord`] its server assembles (the registry versions
/// models; this names what the versions are *of*).
pub const MODEL_NAME: &str = "zero-shot-cost";

/// Everything the worker knows about a prediction before its trace
/// finishes — the warm half of a [`ProvenanceRecord`], `Copy` so it
/// travels with the prediction through channels without allocating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProvenanceSeed {
    /// Structural fingerprint of the predicted plan.
    pub fingerprint: u64,
    /// Family name of the model that answered (its
    /// [`Servable::NAME`](crate::Servable::NAME)).
    pub model_name: &'static str,
    /// Version of the model that answered.
    pub model_version: u32,
    /// Whether featurization was skipped thanks to the feature cache.
    pub cache_hit: bool,
    /// Shard the plan's fingerprint routes to.
    pub home_shard: u32,
    /// Shard whose worker actually executed the request.
    pub executed_shard: u32,
    /// Whether the request was work-stolen off its home queue.
    pub stolen: bool,
    /// The predicted runtime in seconds.
    pub predicted_secs: f64,
    /// The flight recorder's verdict on this request.
    pub class: FlightClass,
}

impl ProvenanceSeed {
    /// Assemble the full record from this seed and the finished trace.
    pub fn into_record(self, done: &Trace) -> ProvenanceRecord {
        ProvenanceRecord {
            trace_id: done.id,
            fingerprint: self.fingerprint,
            model_name: self.model_name.to_string(),
            model_version: self.model_version,
            cache_hit: self.cache_hit,
            home_shard: self.home_shard,
            executed_shard: self.executed_shard,
            stolen: self.stolen,
            predicted_secs: self.predicted_secs,
            total_ns: done.total_ns,
            flight_class: self.class.label().to_string(),
            stages: done
                .stages
                .iter()
                .map(|s| ProvenanceStage {
                    name: s.name.to_string(),
                    duration_ns: s.duration_ns,
                })
                .collect(),
        }
    }
}

/// One stored request: its seed, its finished trace and its insertion
/// sequence, which disambiguates recurring trace ids (newest wins) and
/// breaks `slow_log` ties.
type Entry = (ProvenanceSeed, Trace, u64);

#[derive(Debug)]
struct LogInner {
    recent_capacity: usize,
    slow_capacity: usize,
    recent: Mutex<VecDeque<Entry>>,
    slow: Mutex<VecDeque<Entry>>,
    seq: std::sync::atomic::AtomicU64,
}

/// Bounded store of finished traced requests, answered as
/// [`ProvenanceRecord`]s (see module docs).  Cloning shares the store;
/// all methods are cold-path (mutex-guarded).
#[derive(Clone, Debug)]
pub struct ProvenanceLog {
    inner: Arc<LogInner>,
}

impl ProvenanceLog {
    /// Create a log keeping `recent_capacity` records of any class and
    /// `slow_capacity` retained (slow/failed) records.
    pub fn new(recent_capacity: usize, slow_capacity: usize) -> Self {
        ProvenanceLog {
            inner: Arc::new(LogInner {
                recent_capacity: recent_capacity.max(1),
                slow_capacity: slow_capacity.max(1),
                recent: Mutex::new(VecDeque::new()),
                slow: Mutex::new(VecDeque::new()),
                seq: std::sync::atomic::AtomicU64::new(0),
            }),
        }
    }

    /// Store one finished traced request.  Retained classes additionally
    /// enter the slow ring.
    pub fn record(&self, seed: &ProvenanceSeed, done: &Trace) {
        let seq = self
            .inner
            .seq
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let entry = (*seed, done.clone(), seq);
        if seed.class.retained() {
            let mut slow = self.inner.slow.lock().expect("slow ring poisoned");
            if slow.len() == self.inner.slow_capacity {
                slow.pop_front();
            }
            slow.push_back(entry.clone());
        }
        let mut recent = self.inner.recent.lock().expect("recent ring poisoned");
        if recent.len() == self.inner.recent_capacity {
            recent.pop_front();
        }
        recent.push_back(entry);
    }

    /// Look up the provenance of a trace id, checking both rings (a
    /// retained record survives the recent ring's eviction).  When the
    /// same id recurs, the newest record wins.
    pub fn find(&self, trace_id: u64) -> Option<ProvenanceRecord> {
        let mut best: Option<(ProvenanceRecord, u64)> = None;
        for ring in [&self.inner.recent, &self.inner.slow] {
            let ring = ring.lock().expect("provenance ring poisoned");
            for (seed, trace, seq) in ring.iter() {
                if trace.id == trace_id
                    && best.as_ref().is_none_or(|(_, best_seq)| *seq > *best_seq)
                {
                    best = Some((seed.into_record(trace), *seq));
                }
            }
        }
        best.map(|(record, _)| record)
    }

    /// The retained (slow/failed) records, worst — longest `total_ns` —
    /// first, up to `limit`.
    pub fn slow_log(&self, limit: usize) -> Vec<ProvenanceRecord> {
        let ring = self.inner.slow.lock().expect("slow ring poisoned");
        let mut entries: Vec<&Entry> = ring.iter().collect();
        entries.sort_by_key(|(_, trace, seq)| std::cmp::Reverse((trace.total_ns, *seq)));
        entries
            .into_iter()
            .take(limit)
            .map(|(seed, trace, _)| seed.into_record(trace))
            .collect()
    }

    /// Number of retained records currently in the slow ring.
    pub fn slow_len(&self) -> usize {
        self.inner.slow.lock().expect("slow ring poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zsdb_obs::Tracer;

    fn seed(class: FlightClass) -> ProvenanceSeed {
        ProvenanceSeed {
            fingerprint: 0xF00D,
            model_name: MODEL_NAME,
            model_version: 3,
            cache_hit: true,
            home_shard: 1,
            executed_shard: 2,
            stolen: true,
            predicted_secs: 0.125,
            class,
        }
    }

    fn finished(tracer: &Tracer, id: u64, spin: std::time::Duration) -> Trace {
        let mut t = tracer.begin_with_id(id);
        std::thread::sleep(spin);
        t.mark("work");
        tracer.finish(t)
    }

    #[test]
    fn records_carry_the_full_provenance_and_tile_the_latency() {
        let log = ProvenanceLog::new(8, 4);
        let tracer = Tracer::new(8);
        let done = finished(&tracer, 42, std::time::Duration::from_micros(50));
        log.record(&seed(FlightClass::Normal), &done);
        let record = log.find(42).expect("recorded");
        assert_eq!(record.model_name, MODEL_NAME);
        assert_eq!(record.model_version, 3);
        assert!(record.cache_hit);
        assert_eq!((record.home_shard, record.executed_shard), (1, 2));
        assert!(record.stolen);
        assert_eq!(record.predicted_secs.to_bits(), 0.125f64.to_bits());
        assert_eq!(record.flight_class, "normal");
        assert_eq!(
            record.stages.iter().map(|s| s.duration_ns).sum::<u64>(),
            record.total_ns,
            "stages tile the end-to-end latency"
        );
    }

    #[test]
    fn recurring_trace_ids_answer_the_newest_record() {
        let log = ProvenanceLog::new(4, 4);
        let tracer = Tracer::new(8);
        let first = finished(&tracer, 9, std::time::Duration::ZERO);
        let mut old = seed(FlightClass::Normal);
        old.model_version = 1;
        log.record(&old, &first);
        let second = finished(&tracer, 9, std::time::Duration::ZERO);
        let mut new = seed(FlightClass::Normal);
        new.model_version = 2;
        log.record(&new, &second);
        assert_eq!(log.find(9).expect("resident").model_version, 2);
    }
}
