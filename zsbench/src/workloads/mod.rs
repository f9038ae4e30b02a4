//! The six workloads, what one run of a workload yields, and the check
//! that a run emits exactly the metrics `BENCHMARK.json` declares.

pub mod corpus;
pub mod serve;
pub mod train;

use crate::inputs::Sizes;
use crate::spec::Spec;
use crate::stats;
use serde_json::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 6] = [
    "corpus_build",
    "train_zero_shot",
    "serve_inproc",
    "serve_batch",
    "serve_wire",
    "serve_swap_mix",
];

/// Per-layer metrics `corpus_build` measures.
const CORPUS_LAYERS: &[&str] = &[
    "catalog.schema_gen_s",
    "storage.datagen_s",
    "storage.datagen_rows_per_s",
    "storage.index_build_s",
    "query.workload_gen_s",
    "engine.plan_s",
    "engine.plan_us_per_query",
    "engine.execute_s",
    "engine.execute_tuples_per_s",
    "engine.execute_us_per_query_p50",
    "engine.execute_us_per_query_p99",
    "core.featurize_exec_s",
    "core.featurize_exec_us_per_graph",
    "engine.oracle_mismatches",
    "loadgen.untiled_share",
    "loadgen.rep_iqr_pct",
    "loadgen.peak_rss_mb",
];

/// Per-layer metrics `train_zero_shot` measures.
const TRAIN_LAYERS: &[&str] = &[
    "core.train_s",
    "core.train_graph_epochs_per_s",
    "core.train_speedup_vs_1thread",
    "core.forward_batch_us_per_graph",
    "core.rep_weight_mismatches",
    "core.eval_s",
    "core.finetune_s",
    "core.heldout_p95_qerror",
    "loadgen.rep_iqr_pct",
    "loadgen.peak_rss_mb",
];

/// Per-layer metrics every `serve_*` workload measures.
const SERVE_LAYERS: &[&str] = &[
    "engine.fingerprint_us",
    "core.featurize_plan_us",
    "core.forward_us",
    "core.forward_batch_us_per_plan",
    "protocol.encode_predict_us",
    "protocol.decode_predict_us",
    "protocol.encode_reply_us",
    "protocol.decode_reply_us",
    "protocol.predict_frame_bytes",
    "json.plan_to_string_us",
    "json.plan_from_str_us",
    "serve.stage_admission_us",
    "serve.stage_queue_wait_us",
    "serve.stage_cache_lookup_us",
    "serve.stage_featurize_us",
    "serve.stage_forward_us",
    "serve.stage_respond_us",
    "serve.server_side_mean_us",
    "serve.server_side_p50_us",
    "serve.capacity_queue_wait_us",
    "serve.overhead_us",
    "serve.cache_hit_share",
    "serve.batch_size_mean",
    "serve.rejected",
    "obs.tracing_overhead_pct",
    "loadgen.offered_ops_s",
    "loadgen.lag_p99_ms",
    "loadgen.lag_max_ms",
    "loadgen.backlog_end",
    "loadgen.latency_p99_ms",
    "loadgen.latency_p999_ms",
    "loadgen.latency_max_ms",
    "loadgen.rep_iqr_pct",
    "loadgen.peak_rss_mb",
];

/// Visible only in in-process replies (the wire reply does not say which
/// shard executed a request).
const INPROC_LAYERS: &[&str] = &["serve.stolen_share"];

/// Per-layer metrics only `serve_swap_mix` measures.
const SWAP_LAYERS: &[&str] = &[
    "serve.swap_call_us",
    "serve.swaps",
    "serve.cache_invalidations",
    "serve.misses_per_swap",
];

/// Per-layer metrics only `serve_wire` measures.
const WIRE_LAYERS: &[&str] = &[
    "serve.net_admitted",
    "serve.net_rejected_quota",
    "serve.net_rejected_shed",
    "client.round_trip_p50_us",
    "client.wire_tax_us",
];

/// The per-layer metrics a workload measures in its traced run.  Every
/// other declared per-layer metric is reported as 0 for that workload:
/// the layer did no work in it.
pub fn measured_layers(workload: &str) -> Vec<&'static str> {
    let groups: &[&[&str]] = match workload {
        "corpus_build" => &[CORPUS_LAYERS],
        "train_zero_shot" => &[TRAIN_LAYERS],
        "serve_inproc" | "serve_batch" => &[SERVE_LAYERS, INPROC_LAYERS],
        "serve_swap_mix" => &[SERVE_LAYERS, INPROC_LAYERS, SWAP_LAYERS],
        "serve_wire" => &[SERVE_LAYERS, WIRE_LAYERS],
        _ => &[],
    };
    groups.iter().flat_map(|g| g.iter().copied()).collect()
}

/// How one invocation measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Settings {
    /// `--seed`: drives every generated input.
    pub seed: u64,
    /// `--seconds`: how long the timed windows last in total.
    pub seconds: f64,
    /// `--trace 1`: record spans and per-layer metrics.
    pub traced: bool,
    /// `--smoke`: tiny inputs, one repetition, one set-up.
    pub smoke: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// Generator threads / connections.
    pub generators: usize,
    /// Server workers / trainer threads.
    pub workers: usize,
}

impl Settings {
    /// Settings of a run on this machine.  Busy threads never exceed the
    /// core count: `G = W = clamp(nproc / 2, 1, 2)`.
    pub fn new(seed: u64, seconds: f64, traced: bool, smoke: bool) -> Self {
        let half = (nproc() / 2).clamp(1, 2);
        Settings {
            seed,
            seconds,
            traced,
            smoke,
            sizes: if smoke { Sizes::smoke() } else { Sizes::full() },
            generators: half,
            workers: half,
        }
    }

    /// Set-ups timed per run (see [`timed_setups`]).
    pub fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Length of one capacity window of a `serve_*` workload, and of a
    /// reference window unless that would hold too few requests.  The build box flips between two speeds many times a
    /// second, so a window has to be this short for some windows to lie
    /// wholly inside a fast phase of every core in use (see README,
    /// "Noise").
    pub fn window(&self) -> Duration {
        Duration::from_millis(30)
    }

    /// Repetitions of a `serve_*` workload: as many as fit into
    /// `--seconds` when one repetition's windows last `per_repetition`.
    pub fn repetitions(&self, per_repetition: Duration) -> usize {
        if self.smoke {
            3
        } else {
            ((self.seconds / per_repetition.as_secs_f64()) as usize).max(1)
        }
    }

    /// Fewest repetitions of a whole-task workload (`corpus_build`,
    /// `train_zero_shot`), whose repetitions take as long as they take.
    pub fn min_task_repetitions(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What one run of one workload yields.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted over all timed phases.
    pub attempted: u64,
    /// Operations failed: errors, rejections, timeouts and every
    /// operation covered by a violated correctness gate.
    pub failed: u64,
    /// Violated correctness gates, by name.
    pub violated_gates: Vec<String>,
    /// Diagnostics printed above the result (not declared metrics).
    pub notes: Vec<String>,
    /// Measured metrics by declared name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record a measured metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let previous = self.metrics.insert(name, value);
        assert!(previous.is_none(), "metric `{name}` measured twice");
    }

    /// Record the end-to-end metrics, which every workload reports.
    pub fn set_end_to_end(
        &mut self,
        setup_s: f64,
        throughput_ops_s: f64,
        latency_p50_ms: f64,
        heldout_median_qerror: f64,
        fewshot_median_qerror: f64,
    ) {
        self.set("setup_s", setup_s);
        self.set("throughput_ops_s", throughput_ops_s);
        self.set("latency_p50_ms", latency_p50_ms);
        self.set("heldout_median_qerror", heldout_median_qerror);
        self.set("fewshot_median_qerror", fewshot_median_qerror);
    }

    /// Record a violated gate: it is named in the output and the
    /// operations it covers count as failed.
    pub fn violate(&mut self, gate: &str, affected_ops: u64) {
        self.violated_gates
            .push(format!("{gate} ({affected_ops} operations)"));
        self.failed = (self.failed + affected_ops).min(self.attempted);
    }
}

/// Splits one set-up into pieces (a query executed, a model trained, a
/// server started), so that set-up time can be estimated the way every
/// other time is: from the fastest time each piece was seen to take.
pub struct SetupClock {
    last: Instant,
    pieces: Vec<f64>,
}

impl SetupClock {
    /// A clock whose first piece begins now.
    pub fn start() -> Self {
        SetupClock {
            last: Instant::now(),
            pieces: Vec::new(),
        }
    }

    /// Close the piece that began at the previous lap (or at the start).
    pub fn lap(&mut self) {
        let now = Instant::now();
        self.pieces.push((now - self.last).as_secs_f64());
        self.last = now;
    }

    /// Close the piece that began at the previous lap, as the given
    /// sub-pieces (ns each, timed by the caller) plus what is left of it.
    pub fn lap_split(&mut self, parts_ns: &[f64]) {
        let now = Instant::now();
        let whole = (now - self.last).as_secs_f64();
        self.pieces.extend(parts_ns.iter().map(|ns| ns / 1e9));
        self.pieces
            .push((whole - parts_ns.iter().sum::<f64>() / 1e9).max(0.0));
        self.last = now;
    }
}

/// Run `setup` [`Settings::setups`] times; returns the last fixture and
/// the set-up time: the sum over the set-up's pieces of the fastest time
/// each took (see README, "Noise" — a set-up takes seconds, far longer
/// than the box stays at one speed, so the median of whole set-ups drifts
/// by a third between a good and a bad minute).  Earlier fixtures are
/// dropped inside the first piece: tearing down is part of setting up
/// again.
pub fn timed_setups<T>(
    settings: &Settings,
    mut setup: impl FnMut(&mut SetupClock) -> T,
) -> (T, f64) {
    let mut runs: Vec<Vec<f64>> = Vec::new();
    let mut fixture = None;
    for _ in 0..settings.setups() {
        let mut clock = SetupClock::start();
        drop(fixture.take());
        fixture = Some(setup(&mut clock));
        clock.lap();
        runs.push(clock.pieces);
    }
    let fixture = fixture.expect("at least one set-up");
    let same_pieces = runs.iter().all(|r| r.len() == runs[0].len());
    let envelope = if same_pieces {
        (0..runs[0].len())
            .map(|i| stats::min(&runs.iter().map(|r| r[i]).collect::<Vec<f64>>()))
            .sum()
    } else {
        // Set-ups are deterministic, so this cannot happen; if it does,
        // the fastest whole set-up is the next best estimate.
        stats::min(&runs.iter().map(|r| r.iter().sum()).collect::<Vec<f64>>())
    };
    (fixture, envelope)
}

/// Repeat a whole-task repetition until `seconds` of measuring are used
/// up: at least `min_reps` times, and never starting a repetition that
/// the last one's duration says would overshoot.  Returns each
/// repetition's wall time.
pub fn repeat_for<F: FnMut(usize)>(seconds: f64, min_reps: usize, mut rep: F) -> Vec<f64> {
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut times: Vec<f64> = Vec::new();
    loop {
        let rep_started = Instant::now();
        rep(times.len());
        times.push(rep_started.elapsed().as_secs_f64());
        let last = Duration::from_secs_f64(*times.last().expect("just pushed"));
        if times.len() >= min_reps && started.elapsed() + last > budget {
            return times;
        }
    }
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run one workload.
pub fn run(workload: &str, settings: &Settings) -> Outcome {
    match workload {
        "corpus_build" => corpus::run(settings),
        "train_zero_shot" => train::run(settings),
        "serve_inproc" => serve::run(serve::Mode::Inproc, settings),
        "serve_batch" => serve::run(serve::Mode::Batch, settings),
        "serve_wire" => serve::run(serve::Mode::Wire, settings),
        "serve_swap_mix" => serve::run(serve::Mode::SwapMix, settings),
        other => panic!("unknown workload `{other}`"),
    }
}

/// Check an outcome against the declared metrics and render the result
/// line.  The run must have measured exactly the end-to-end metrics
/// (untraced) or exactly its [`measured_layers`] (traced); a name that is
/// missing, undeclared or not finite is an error, not a silent gap.
pub fn result_line(
    spec: &Spec,
    workload: &str,
    traced: bool,
    outcome: &Outcome,
) -> Result<String, String> {
    let declared = spec.metrics(traced);
    let required: Vec<&str> = if traced {
        measured_layers(workload)
    } else {
        declared.iter().map(|m| m.name.as_str()).collect()
    };
    for name in &required {
        if !outcome.metrics.contains_key(name) {
            return Err(format!(
                "{workload}: declared metric `{name}` was not measured"
            ));
        }
    }
    for (name, value) in &outcome.metrics {
        if !required.contains(name) {
            return Err(format!(
                "{workload}: measured `{name}`, which BENCHMARK.json does not declare for this run"
            ));
        }
        if !value.is_finite() {
            return Err(format!("{workload}: metric `{name}` is {value}"));
        }
    }
    if outcome.attempted == 0 {
        return Err(format!("{workload}: no operation was attempted"));
    }
    let metrics: Vec<(String, Value)> = declared
        .iter()
        .map(|m| {
            // A declared per-layer metric the workload does not measure
            // belongs to a layer that did no work in it.
            let value = outcome.metrics.get(m.name.as_str()).copied().unwrap_or(0.0);
            (
                m.name.clone(),
                Value::Object(vec![
                    ("value".to_string(), Value::Float(value)),
                    ("unit".to_string(), Value::Str(m.unit.clone())),
                ]),
            )
        })
        .collect();
    let line = Value::Object(vec![
        (
            "correct".to_string(),
            Value::Bool(outcome.failed == 0 && outcome.violated_gates.is_empty()),
        ),
        ("attempted".to_string(), Value::UInt(outcome.attempted)),
        ("failed".to_string(), Value::UInt(outcome.failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_rejects_missing_and_undeclared_names() {
        let spec = Spec::load();
        let mut outcome = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        for m in &spec.end_to_end {
            // Leak: test-only way to get a 'static name.
            outcome.set(Box::leak(m.name.clone().into_boxed_str()), 1.5);
        }
        let line = result_line(&spec, "corpus_build", false, &outcome).unwrap();
        let parsed = serde_json::parse_value(&line).unwrap();
        let keys: Vec<&str> = parsed
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);

        outcome.set("not.declared", 1.0);
        assert!(result_line(&spec, "corpus_build", false, &outcome)
            .unwrap_err()
            .contains("not.declared"));
        outcome.metrics.remove("not.declared");
        outcome.metrics.remove("setup_s");
        assert!(result_line(&spec, "corpus_build", false, &outcome)
            .unwrap_err()
            .contains("setup_s"));
    }

    #[test]
    fn smoke_run_completes_all_workloads_with_every_declared_metric() {
        let spec = Spec::load();
        let started = Instant::now();
        let mut measured_layers_seen = std::collections::BTreeSet::new();
        for workload in WORKLOADS {
            for traced in [false, true] {
                let outcome = run(workload, &Settings::new(3, 0.2, traced, true));
                assert_eq!(
                    (outcome.failed, &outcome.violated_gates),
                    (0, &Vec::new()),
                    "{workload} trace {traced}"
                );
                let line = result_line(&spec, workload, traced, &outcome)
                    .unwrap_or_else(|e| panic!("{e}"));
                let parsed = serde_json::parse_value(&line).unwrap();
                let (_, metrics) = &parsed.as_object().unwrap()[3];
                let emitted: Vec<&str> = metrics
                    .as_object()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                let declared: Vec<&str> = spec
                    .metrics(traced)
                    .iter()
                    .map(|m| m.name.as_str())
                    .collect();
                assert_eq!(emitted, declared, "{workload} trace {traced}");
                if traced {
                    measured_layers_seen.extend(outcome.metrics.keys().copied());
                } else {
                    // End-to-end metrics are never 0.
                    assert!(outcome.metrics.values().all(|v| *v > 0.0), "{workload}");
                }
            }
        }
        let declared: std::collections::BTreeSet<&str> =
            spec.per_layer.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(measured_layers_seen, declared);
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "smoke run took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn setup_time_is_the_sum_of_each_pieces_fastest_time() {
        // Three set-ups of two pieces; one piece is slow in one set-up,
        // the other piece in another.
        let naps_ms = [[10u64, 40], [40, 10], [40, 40]];
        let mut run = 0;
        let settings = Settings::new(1, 1.0, false, false);
        let ((), setup_s) = timed_setups(&settings, |clock| {
            std::thread::sleep(Duration::from_millis(naps_ms[run][0]));
            clock.lap();
            std::thread::sleep(Duration::from_millis(naps_ms[run][1]));
            run += 1;
        });
        assert_eq!(run, 3);
        assert!((0.02..0.045).contains(&setup_s), "envelope {setup_s} s");

        let mut clock = SetupClock::start();
        std::thread::sleep(Duration::from_millis(5));
        clock.lap_split(&[1e6, 2e6]);
        assert_eq!(clock.pieces.len(), 3);
        assert_eq!((clock.pieces[0], clock.pieces[1]), (0.001, 0.002));
        assert!(clock.pieces[2] >= 0.002);
    }

    #[test]
    fn a_violated_gate_counts_its_operations_as_failed() {
        let mut outcome = Outcome {
            attempted: 100,
            ..Outcome::default()
        };
        outcome.violate("corpus checksum differs between repetitions", 250);
        assert_eq!(outcome.failed, 100);
        assert!(outcome.violated_gates[0].contains("checksum"));
    }

    #[test]
    fn repeat_for_runs_the_minimum_and_stops_before_overshooting() {
        let mut calls = 0;
        let times = repeat_for(0.0, 3, |_| calls += 1);
        assert_eq!((calls, times.len()), (3, 3));
        let times = repeat_for(0.05, 1, |_| std::thread::sleep(Duration::from_millis(20)));
        assert!(
            (1..=3).contains(&times.len()),
            "{} repetitions",
            times.len()
        );
    }
}
