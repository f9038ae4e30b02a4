//! End-to-end serving test (ISSUE 2 acceptance): train a zero-shot model
//! on generated databases, register it, reload it through the integrity
//! check, and serve ≥ 1000 concurrent predictions through a ≥ 4-thread
//! worker pool, asserting
//!
//! (a) every served prediction equals the single-threaded path
//!     bit-for-bit,
//! (b) the feature cache gets hits on a repeated workload, and
//! (c) the metrics snapshot, written as JSON, reports throughput and
//!     p50/p95/p99 latency.
//!
//! One ignored test gates the cost of the tracer, and of the flight
//! recorder with the provenance log, on wall-clock throughput; run it in
//! release, alone:
//! `cargo test --release --test serve_end_to_end -- --ignored`.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use zero_shot_db::catalog::presets;
use zero_shot_db::engine::PlanNode;
use zero_shot_db::query::WorkloadGenerator;
use zero_shot_db::serve::{
    MetricsSnapshot, ModelRegistry, ObservabilityConfig, PredictionServer, ServerConfig,
};
use zero_shot_db::storage::Database;
use zero_shot_db::zeroshot::dataset::{collect_training_corpus, TrainingDataConfig};
use zero_shot_db::zeroshot::features::featurize_plan;
use zero_shot_db::zeroshot::{
    plan_fingerprint, FeaturizerConfig, ModelConfig, PlanGraph, Trainer, TrainingConfig,
};
use zsdb_engine::QueryRunner;

const WORKERS: usize = 4;
const REPEATS: usize = 10;
const DISTINCT_PLANS: usize = 100;

#[test]
fn train_register_and_serve_concurrently() {
    // ---- Train on generated databases --------------------------------
    let data_config = TrainingDataConfig::tiny();
    let corpus = collect_training_corpus(&data_config);
    let schemas = zero_shot_db::catalog::SchemaGenerator::new(data_config.schema_config.clone())
        .generate_corpus("train", data_config.num_databases, data_config.seed);
    let trainer = Trainer::new(
        ModelConfig::tiny(),
        TrainingConfig {
            epochs: 3,
            validation_fraction: 0.0,
            ..TrainingConfig::tiny()
        },
        FeaturizerConfig::estimated(),
    );
    let graphs = trainer.featurize_corpus(&corpus, |name| {
        schemas.iter().find(|s| s.name == name).expect("catalog")
    });
    let model = trainer.train(&graphs);

    // ---- Register + integrity-checked reload -------------------------
    let dir = std::env::temp_dir().join(format!("zsdb_serve_e2e_{}", std::process::id()));
    let registry = ModelRegistry::open(&dir).expect("open registry");
    let version = registry
        .register("e2e", &model, &graphs[..6])
        .expect("register");
    let served_model = registry
        .load("e2e", version)
        .expect("integrity-checked load");

    // ---- Request stream: optimizer plans on an unseen database -------
    let imdb = Database::generate(presets::imdb_like(0.02), 42);
    let runner = QueryRunner::with_defaults(&imdb);
    let queries = WorkloadGenerator::with_defaults().generate(imdb.catalog(), DISTINCT_PLANS, 99);
    let plans = runner.plan_workload(&queries);
    assert_eq!(plans.len(), DISTINCT_PLANS);

    // Single-threaded reference predictions, keyed by fingerprint.
    let reference: HashMap<u64, u64> = plans
        .iter()
        .map(|p| {
            let g: PlanGraph = featurize_plan(imdb.catalog(), p, served_model.featurizer);
            (plan_fingerprint(p), served_model.predict(&g).to_bits())
        })
        .collect();

    // ---- Serve ≥ 1000 requests through ≥ 4 workers -------------------
    let server = Arc::new(PredictionServer::start(
        served_model,
        imdb.catalog().clone(),
        ServerConfig {
            workers: WORKERS,
            queue_capacity: 64,
            cache_capacity: 512,
            ..ServerConfig::default()
        },
    ));
    let clients = 8;
    let per_client = DISTINCT_PLANS * REPEATS / clients;
    assert!(clients * per_client >= 1000);

    let mut handles = Vec::new();
    for c in 0..clients {
        let server = Arc::clone(&server);
        let plans = plans.clone();
        handles.push(std::thread::spawn(move || {
            let mut results = Vec::with_capacity(per_client);
            for i in 0..per_client {
                let plan = plans[(c * per_client + i) % plans.len()].clone();
                let prediction = server.submit(plan).expect("submit").wait().expect("wait");
                results.push(prediction);
            }
            results
        }));
    }
    let predictions: Vec<_> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    assert_eq!(predictions.len(), DISTINCT_PLANS * REPEATS);

    // (a) bit-for-bit equality with the single-threaded path.
    for p in &predictions {
        let expected = reference
            .get(&p.fingerprint)
            .expect("served fingerprint matches a submitted plan");
        assert_eq!(
            p.runtime_secs.to_bits(),
            *expected,
            "served prediction diverged from the single-threaded path"
        );
    }

    // (b) repeated workload ⇒ cache hits.
    let final_metrics = server.metrics();
    assert!(
        final_metrics.cache_hit_rate > 0.0,
        "expected cache hits on a {REPEATS}x-repeated workload"
    );
    assert!(predictions.iter().any(|p| p.cache_hit));

    // (c) The metrics report carries throughput and latency percentiles.
    let report_path = dir.join("metrics.json");
    let json = serde_json::to_string_pretty(&final_metrics).expect("serialize metrics");
    std::fs::write(&report_path, &json).expect("write metrics.json");
    let raw = std::fs::read_to_string(&report_path).expect("read back report");
    for key in [
        "throughput_qps",
        "latency_p50_ms",
        "latency_p95_ms",
        "latency_p99_ms",
        "cache_hit_rate",
        "total_requests",
    ] {
        assert!(raw.contains(key), "metrics.json missing key {key}");
    }
    let parsed: MetricsSnapshot = serde_json::from_str(&raw).expect("parse report");
    assert_eq!(parsed.total_requests, (DISTINCT_PLANS * REPEATS) as u64);
    assert_eq!(parsed.workers, WORKERS);
    assert!(parsed.throughput_qps > 0.0);
    assert!(parsed.latency_p50_ms > 0.0);
    assert!(parsed.latency_p95_ms >= parsed.latency_p50_ms);
    assert!(parsed.latency_p99_ms >= parsed.latency_p95_ms);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batched_submission_matches_single_submission_over_1000_requests() {
    // ISSUE 3 acceptance: 1000 requests in batches of 32 through
    // `submit_batch`, bit-identical to `submit`, with the batch sizes
    // showing up in the metrics histogram.
    const TOTAL: usize = 1000;
    const BATCH: usize = 32;

    let db = Database::generate(presets::imdb_like(0.02), 21);
    let runner = QueryRunner::with_defaults(&db);
    let queries = WorkloadGenerator::with_defaults().generate(db.catalog(), 40, 9);
    let executions = runner.run_workload(&queries, 0);
    let graphs: Vec<PlanGraph> = executions
        .iter()
        .map(|e| {
            zero_shot_db::zeroshot::features::featurize_execution(
                db.catalog(),
                e,
                FeaturizerConfig::exact(),
            )
        })
        .collect();
    let model = Trainer::new(
        ModelConfig::tiny(),
        TrainingConfig {
            epochs: 1,
            validation_fraction: 0.0,
            ..TrainingConfig::tiny()
        },
        FeaturizerConfig::exact(),
    )
    .train(&graphs);
    let plans = runner.plan_workload(&queries);

    let server = PredictionServer::start(
        model,
        db.catalog().clone(),
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 256,
            ..ServerConfig::default()
        },
    );

    // Single-submission reference, keyed by fingerprint.
    let reference: HashMap<u64, u64> = plans
        .iter()
        .map(|p| {
            let served = server.submit(p.clone()).unwrap().wait().unwrap();
            (served.fingerprint, served.runtime_secs.to_bits())
        })
        .collect();
    let singles = plans.len() as u64;

    // The same request stream as 32-plan batches.
    let request_stream: Vec<_> = (0..TOTAL).map(|i| plans[i % plans.len()].clone()).collect();
    let mut tickets = Vec::new();
    for chunk in request_stream.chunks(BATCH) {
        tickets.push(server.submit_batch(chunk.to_vec()).expect("submit batch"));
    }
    let mut served = 0usize;
    for ticket in tickets {
        for prediction in ticket.wait().expect("batch answered") {
            let expected = reference
                .get(&prediction.fingerprint)
                .expect("known fingerprint");
            assert_eq!(
                prediction.runtime_secs.to_bits(),
                *expected,
                "batched prediction diverged from single submission"
            );
            served += 1;
        }
    }
    assert_eq!(served, TOTAL);

    // Histogram: 31 full batches of 32 in "32-63", one tail batch of 8 in
    // "8-15", plus the single-submission warmup in "1".
    let metrics = server.shutdown();
    assert_eq!(metrics.total_requests, TOTAL as u64 + singles);
    let labels = zero_shot_db::serve::BATCH_SIZE_BUCKET_LABELS;
    let hist = &metrics.batch_size_histogram;
    assert_eq!(hist.len(), labels.len());
    let bucket_of = |label: &str| labels.iter().position(|l| *l == label).unwrap();
    assert_eq!(hist[bucket_of("1")], singles);
    assert_eq!(hist[bucket_of("32-63")], (TOTAL / BATCH) as u64);
    assert_eq!(hist[bucket_of("8-15")], 1, "tail batch of 8");
}

#[test]
fn backpressure_sheds_load_under_a_burst() {
    // A tiny queue and a single worker: a fast burst of try_submit calls
    // must observe `Overloaded` instead of queueing without bound, while
    // blocking `submit` still eventually serves everything.
    let db = Database::generate(presets::imdb_like(0.02), 7);
    let runner = QueryRunner::with_defaults(&db);
    let queries = WorkloadGenerator::with_defaults().generate(db.catalog(), 10, 3);
    let executions = runner.run_workload(&queries, 0);
    let graphs: Vec<PlanGraph> = executions
        .iter()
        .map(|e| {
            zero_shot_db::zeroshot::features::featurize_execution(
                db.catalog(),
                e,
                FeaturizerConfig::exact(),
            )
        })
        .collect();
    let model = Trainer::new(
        ModelConfig::tiny(),
        TrainingConfig {
            epochs: 1,
            validation_fraction: 0.0,
            ..TrainingConfig::tiny()
        },
        FeaturizerConfig::exact(),
    )
    .train(&graphs);
    let plans = runner.plan_workload(&queries);

    let server = PredictionServer::start(
        model,
        db.catalog().clone(),
        ServerConfig {
            workers: 1,
            queue_capacity: 2,
            cache_capacity: 0,
            ..ServerConfig::default()
        },
    );
    let mut accepted = Vec::new();
    let mut shed = 0usize;
    for i in 0..300 {
        match server.try_submit(plans[i % plans.len()].clone()) {
            Ok(ticket) => accepted.push(ticket),
            Err(rejected)
                if matches!(rejected.reason, zero_shot_db::serve::ServeError::Overloaded) =>
            {
                shed += 1
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(shed > 0, "burst of 300 should overflow a 2-slot queue");
    for ticket in accepted {
        ticket.wait().expect("accepted requests are served");
    }
    let metrics = server.shutdown();
    assert_eq!(metrics.total_requests as usize, 300 - shed);
}

/// Fire `requests` traced predictions from `clients` threads through
/// `server` and return the throughput.  A request that carries a trace is
/// finished the way the network responder finishes it: into the stage
/// histograms, and with `provenance` also into the provenance log.
fn traced_pass(
    server: &PredictionServer,
    plans: &[PlanNode],
    requests: usize,
    clients: usize,
    provenance: bool,
) -> f64 {
    let started = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let per_client = requests / clients + usize::from(c < requests % clients);
            scope.spawn(move || {
                for i in 0..per_client {
                    let plan = plans[(c + i * clients) % plans.len()].clone();
                    let trace = server.tracer().begin();
                    let ticket = server.submit_traced(plan, trace).unwrap();
                    let (prediction, trace) = ticket.wait_traced().unwrap();
                    if let Some(trace) = trace {
                        if provenance {
                            server.complete_traced(&prediction, trace);
                        } else {
                            let done = server.tracer().finish(trace);
                            server.recorder().stage_recorder().record_trace(&done);
                        }
                    }
                }
            });
        }
    });
    requests as f64 / started.elapsed().as_secs_f64()
}

/// The tracer costs at most 10% of throughput, and the flight recorder
/// with provenance at most 10% on top of it.  Tracer off, tracer on and
/// recorder on run alternately, three rounds each, and each side is
/// scored by its best round, so a noisy neighbour hits all three.  A
/// wall-clock gate: ignored in tier-1, run by name in release.
#[test]
#[ignore = "wall-clock gate; run in release with --ignored"]
fn tracing_and_flight_recorder_cost_at_most_ten_percent() {
    const REQUESTS: usize = 1_000;
    const WORKERS: usize = 4;
    const MAX_OVERHEAD_PCT: f64 = 10.0;

    let db = Database::generate(presets::imdb_like(0.02), 11);
    let (model, plans) = zsdb_bench::tiny_serving_fixture(&db, 50, 5);
    let server = PredictionServer::start_observed(
        model,
        1,
        db.catalog().clone(),
        ServerConfig {
            workers: WORKERS,
            queue_capacity: 256,
            cache_capacity: 1_024,
            ..ServerConfig::default()
        },
        ObservabilityConfig::default(),
    );
    let set = |tracer: bool, recorder: bool| {
        server.tracer().set_enabled(tracer);
        server.flight_recorder().set_enabled(recorder);
    };

    // Warm the feature cache and the workers outside the clock.
    set(false, false);
    traced_pass(&server, &plans, REQUESTS / 4, WORKERS, false);
    let (mut off, mut tracer, mut recorder) = (0.0f64, 0.0f64, 0.0f64);
    for _ in 0..3 {
        set(false, false);
        off = off.max(traced_pass(&server, &plans, REQUESTS, WORKERS, false));
        set(true, false);
        tracer = tracer.max(traced_pass(&server, &plans, REQUESTS, WORKERS, false));
        set(true, true);
        recorder = recorder.max(traced_pass(&server, &plans, REQUESTS, WORKERS, true));
    }
    let tracer_pct = (off - tracer) / off * 100.0;
    let recorder_pct = (tracer - recorder) / tracer * 100.0;
    println!(
        "tracer off {off:.0} req/s, on {tracer:.0} req/s ({tracer_pct:+.1}%), \
         recorder on {recorder:.0} req/s ({recorder_pct:+.1}%)"
    );
    assert!(
        server.metrics().slow_requests_retained > 0,
        "the recorder retained nothing while measured"
    );
    assert!(
        tracer_pct <= MAX_OVERHEAD_PCT,
        "tracer overhead {tracer_pct:.1}% exceeds {MAX_OVERHEAD_PCT}%"
    );
    assert!(
        recorder_pct <= MAX_OVERHEAD_PCT,
        "flight recorder overhead {recorder_pct:.1}% exceeds {MAX_OVERHEAD_PCT}%"
    );
}
