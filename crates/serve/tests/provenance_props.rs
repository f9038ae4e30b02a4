//! Property coverage for the [`ProvenanceLog`] retention invariants, with
//! every request classified by a live [`FlightRecorder`]: the rings stay
//! bounded, the slow ring only ever holds retained classes, failures and
//! over-threshold requests are always retained, retained records survive
//! bursts of normal traffic that flush the recent ring and stay findable
//! by id, and `slow_log` is worst first.

use std::collections::VecDeque;

use proptest::prelude::*;
use zsdb_obs::{FlightClass, FlightRecorder, FlightRecorderConfig, Trace, TraceStage};
use zsdb_serve::{ProvenanceLog, ProvenanceSeed, MODEL_NAME};

/// Deterministic SplitMix64 so one sampled seed expands into a whole
/// request sequence.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A finished one-stage trace of exactly `latency_ns`.
fn finished(id: u64, latency_ns: u64) -> Trace {
    Trace {
        id,
        total_ns: latency_ns,
        stages: vec![TraceStage {
            name: "work",
            duration_ns: latency_ns,
        }],
    }
}

fn seed(class: FlightClass) -> ProvenanceSeed {
    ProvenanceSeed {
        fingerprint: 0xF00D,
        model_name: MODEL_NAME,
        model_version: 1,
        cache_hit: false,
        home_shard: 0,
        executed_shard: 0,
        stolen: false,
        predicted_secs: 0.5,
        class,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rings_stay_bounded_and_slow_holds_only_retained_classes(
        seed_value in 0u64..u64::MAX,
        slow_capacity in 1usize..8,
        recent_capacity in 1usize..8,
        requests in 1u64..200,
    ) {
        let mut gen = Gen(seed_value);
        let threshold = 1_000_000u64;
        let recorder = FlightRecorder::new(FlightRecorderConfig {
            slow_capacity,
            recent_capacity,
            slow_threshold_ns: threshold,
            percentile: 99.0,
            min_samples: 50,
        });
        let log = ProvenanceLog::new(recent_capacity, slow_capacity);
        // Reference model of the two rings: (id, latency) in arrival order.
        let mut recent = VecDeque::new();
        let mut slow = VecDeque::new();
        for id in 1..=requests {
            let latency = gen.below(2_000_000); // half below, half above
            let ok = gen.below(10) != 0; // ~10% failures
            let class = recorder.classify(latency, ok);
            // Hard classification guarantees, independent of population.
            if !ok {
                prop_assert_eq!(class, FlightClass::Failed);
            } else if latency >= threshold {
                prop_assert_eq!(class, FlightClass::SlowThreshold);
            }
            log.record(&seed(class), &finished(id, latency));
            if class.retained() {
                slow.push_back((id, latency));
                if slow.len() > slow_capacity {
                    slow.pop_front();
                }
            }
            recent.push_back(id);
            if recent.len() > recent_capacity {
                recent.pop_front();
            }
            prop_assert!(log.slow_len() <= slow_capacity);
        }
        prop_assert_eq!(log.slow_len(), slow.len());
        // A record is findable exactly while one of the rings holds it.
        for id in 1..=requests {
            let held = recent.contains(&id) || slow.iter().any(|&(s, _)| s == id);
            prop_assert!(log.find(id).is_some() == held, "id {} held {}", id, held);
        }
        let slow_log = log.slow_log(usize::MAX);
        for record in &slow_log {
            prop_assert!(
                record.flight_class != FlightClass::Normal.label(),
                "slow ring held a normal request"
            );
            // Every retained record is findable by its trace id.
            prop_assert!(log.find(record.trace_id).is_some());
        }
        // slow_log() is sorted worst (longest) first, newest first on ties.
        let mut expected: Vec<(u64, u64)> = slow.iter().copied().collect();
        expected.sort_by_key(|&(id, latency)| std::cmp::Reverse((latency, id)));
        let got: Vec<(u64, u64)> = slow_log.iter().map(|r| (r.trace_id, r.total_ns)).collect();
        prop_assert_eq!(got, expected);
        prop_assert_eq!(recorder.observed(), requests);
    }

    #[test]
    fn retained_records_survive_normal_bursts_that_flush_the_recent_ring(
        seed_value in 0u64..u64::MAX,
        burst in 10u64..100,
    ) {
        let mut gen = Gen(seed_value);
        let recorder = FlightRecorder::new(FlightRecorderConfig {
            slow_capacity: 8,
            recent_capacity: 4,
            slow_threshold_ns: 1_000,
            percentile: 0.0,
            min_samples: 0,
        });
        let log = ProvenanceLog::new(4, 8);
        // One slow request first...
        let class = recorder.classify(50_000, true);
        prop_assert_eq!(class, FlightClass::SlowThreshold);
        log.record(&seed(class), &finished(1, 50_000));
        // ...then a burst of fast ones, far larger than the recent ring.
        for id in 2..2 + burst {
            let latency = gen.below(1_000); // strictly under the threshold
            let class = recorder.classify(latency, true);
            prop_assert_eq!(class, FlightClass::Normal);
            log.record(&seed(class), &finished(id, latency));
        }
        // The slow request aged out of recent but is retained in slow.
        let kept = log.find(1);
        prop_assert!(kept.is_some(), "retained record evicted by normal burst");
        prop_assert_eq!(kept.unwrap().flight_class, "slow_threshold");
        // And none of the normal requests leaked into the slow ring.
        prop_assert_eq!(log.slow_len(), 1);
        prop_assert!(log.find(2).is_none(), "normal records age out");
    }
}
