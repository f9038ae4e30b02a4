//! Online-adaptation benchmark: quantifies the execute → observe →
//! fine-tune → hot-swap loop of `zsdb_serve::adapt` and emits a
//! machine-readable `BENCH_adapt.json` report.
//!
//! Scenario: a zero-shot cost model is trained against one hardware
//! profile, then serves a database whose observed runtimes come from a
//! **drifted** profile (`HardwareProfile::slow_disk()` — e.g. the model
//! was trained on NVMe boxes and deployed next to spinning rust).  The
//! report shows
//!
//! * median q-error on the drifted database **before vs. after** N
//!   adaptation rounds (frozen model vs. adapted model),
//! * the p99 serving-latency impact of performing hot-swaps under load
//!   (target: < 5% degradation), and
//! * that a registry rollback restores predictions **bit-identical** to
//!   the prior version.
//!
//! Usage:
//! `cargo run -p zsdb_bench --release --bin bench_adapt -- \
//!    [--rounds N] [--train-queries N] [--observe N] [--eval N] \
//!    [--requests N] [--workers N] [--epochs N] [--out PATH]`

use serde::Serialize;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use zsdb_bench::{parse_command_line, write_json_report, FlagError, Flags};
use zsdb_catalog::presets;
use zsdb_core::features::featurize_execution;
use zsdb_core::{
    FeaturizerConfig, FinetuneConfig, ModelConfig, PlanGraph, TrainedModel, Trainer, TrainingConfig,
};
use zsdb_engine::{EngineConfig, HardwareProfile, ObservationLog, PlanNode, QueryRunner};
use zsdb_nn::percentile;
use zsdb_query::WorkloadGenerator;
use zsdb_serve::{
    rollback_and_swap, AdaptationConfig, AdaptationLoop, ModelRegistry, PredictionServer,
    ServerConfig,
};
use zsdb_storage::Database;

struct Args {
    rounds: u64,
    train_queries: usize,
    observe_per_round: usize,
    eval_queries: usize,
    requests: usize,
    workers: usize,
    epochs: usize,
    out: String,
}

impl Args {
    fn parse(args: Vec<String>) -> Result<Self, FlagError> {
        let flags = Flags::parse(
            args,
            "--rounds --train-queries --observe --eval --requests --workers --epochs --out",
            "",
        )?;
        Ok(Args {
            rounds: flags.value("--rounds", 3)?,
            train_queries: flags.value("--train-queries", 120)?,
            observe_per_round: flags.value("--observe", 40)?,
            eval_queries: flags.value("--eval", 60)?,
            requests: flags.value("--requests", 2_000)?,
            workers: flags.value("--workers", 4)?,
            epochs: flags.value("--epochs", 12)?,
            out: flags.value("--out", "BENCH_adapt.json".to_string())?,
        })
    }
}

/// The `BENCH_adapt.json` payload.
#[derive(Debug, Serialize)]
struct AdaptReport {
    rounds: u64,
    observe_per_round: usize,
    eval_queries: usize,
    requests_per_phase: usize,
    workers: usize,
    /// Median q-error of the frozen (pre-adaptation) model on the
    /// drifted holdout.
    frozen_median_qerror: f64,
    /// Median q-error of the final adapted model on the same holdout.
    adapted_median_qerror: f64,
    /// Holdout median q-error after each adaptation round, in order.
    round_qerrors: Vec<f64>,
    /// Observations the adaptation loop consumed.
    observations_consumed: u64,
    /// `adapted < frozen`, strictly (the acceptance bar).
    qerror_improved: bool,
    /// Client-side p99 latency (ms) with no swap activity.
    p99_no_swap_ms: f64,
    /// Client-side p99 latency (ms) while hot-swaps fire mid-stream.
    p99_during_swaps_ms: f64,
    /// `(during - baseline) / baseline`, in percent (may be negative).
    p99_degradation_pct: f64,
    /// Hot-swaps performed during the measured phase.
    swaps_during_phase: u64,
    /// Whether rollback restored bit-identical predictions.
    rollback_bit_identical: bool,
    /// The version rollback restored.
    rollback_restored_version: u32,
}

fn median_qerror_on(model: &TrainedModel, holdout: &[PlanGraph]) -> f64 {
    zsdb_core::train::median_q_error(&model.model, holdout)
}

/// Fire `requests` predictions from `workers` client threads and return
/// the client-observed p99 latency in milliseconds.  `mid_phase` runs on
/// the driver thread once half the requests are in flight — the swap
/// injection hook of the measured phase.
fn latency_phase(
    server: &Arc<PredictionServer>,
    plans: &[PlanNode],
    requests: usize,
    clients: usize,
    mid_phase: impl FnOnce(),
) -> f64 {
    let latencies: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::with_capacity(requests)));
    let per_client = requests / clients.max(1);
    let mut handles = Vec::new();
    for c in 0..clients.max(1) {
        let server = Arc::clone(server);
        let plans = plans.to_vec();
        let latencies = Arc::clone(&latencies);
        handles.push(std::thread::spawn(move || {
            let mut local = Vec::with_capacity(per_client);
            for i in 0..per_client {
                let plan = plans[(c + i) % plans.len()].clone();
                let prediction = server
                    .submit(plan)
                    .expect("submit")
                    .wait()
                    .expect("answered");
                local.push(prediction.latency.as_secs_f64() * 1e3);
            }
            latencies.lock().expect("latencies").extend(local);
        }));
    }
    // Let the phase ramp up, then inject the mid-phase action.
    std::thread::sleep(Duration::from_millis(30));
    mid_phase();
    for h in handles {
        h.join().expect("client");
    }
    let all = latencies.lock().expect("latencies");
    percentile(&all, 99.0)
}

fn main() {
    let args = parse_command_line(Args::parse);
    println!(
        "# Online adaptation benchmark: {} rounds × {} observations, {} eval queries\n",
        args.rounds, args.observe_per_round, args.eval_queries
    );

    // ---- 1. Train the base model on the *source* hardware -----------
    let db = Database::generate(presets::imdb_like(0.02), 11);
    let source_runner = QueryRunner::with_defaults(&db);
    let train_queries =
        WorkloadGenerator::with_defaults().generate(db.catalog(), args.train_queries, 5);
    let train_graphs: Vec<PlanGraph> = source_runner
        .run_workload(&train_queries, 0)
        .iter()
        .map(|e| featurize_execution(db.catalog(), e, FeaturizerConfig::exact()))
        .collect();
    let trainer = Trainer::new(
        ModelConfig::tiny(),
        TrainingConfig {
            epochs: args.epochs,
            validation_fraction: 0.0,
            ..TrainingConfig::tiny()
        },
        FeaturizerConfig::exact(),
    );
    let base_model = trainer.train(&train_graphs);

    // ---- 2. The drifted deployment: same data, slower hardware ------
    let drifted_runner =
        QueryRunner::new(&db, EngineConfig::default(), HardwareProfile::slow_disk());
    let eval_queries =
        WorkloadGenerator::with_defaults().generate(db.catalog(), args.eval_queries, 77);
    let holdout: Vec<PlanGraph> = drifted_runner
        .run_workload(&eval_queries, 900)
        .iter()
        .map(|e| featurize_execution(db.catalog(), e, FeaturizerConfig::exact()))
        .collect();
    let frozen_q = median_qerror_on(&base_model, &holdout);
    println!("frozen model on drifted hardware: median q-error {frozen_q:.3}");

    // ---- 3. Registry + server + background adaptation ----------------
    let dir = std::env::temp_dir().join(format!("zsdb_bench_adapt_{}", std::process::id()));
    let registry = ModelRegistry::open(&dir).expect("open registry");
    let v1 = registry
        .register("adaptive", &base_model, &train_graphs[..4])
        .expect("register base");
    registry.promote("adaptive", v1).expect("promote base");
    let server = Arc::new(PredictionServer::start_versioned(
        registry.load("adaptive", v1).expect("load base"),
        v1,
        db.catalog().clone(),
        ServerConfig {
            workers: args.workers,
            ..ServerConfig::default()
        },
    ));
    let plans = drifted_runner.plan_workload(&eval_queries);

    let log = Arc::new(ObservationLog::new(args.observe_per_round.max(8), 13));
    let adaptation = AdaptationLoop::start(
        Arc::clone(&server),
        registry.clone(),
        "adaptive",
        Arc::clone(&log),
        AdaptationConfig {
            drift_threshold: 1.2,
            drift_window: args.observe_per_round.max(8),
            min_observations: (args.observe_per_round / 2).max(4),
            poll_interval: Duration::from_millis(25),
            finetune: FinetuneConfig {
                epochs: 30,
                learning_rate: 1e-3,
                ..FinetuneConfig::default()
            },
            max_probe_graphs: 4,
            max_swaps: args.rounds,
        },
    );

    // Feed observed (drifted) executions until every round completed.
    let observe_queries = WorkloadGenerator::with_defaults().generate(
        db.catalog(),
        args.observe_per_round * args.rounds as usize,
        31,
    );
    let deadline = Instant::now() + Duration::from_secs(300);
    let mut fed = 0usize;
    while adaptation.status().swaps < args.rounds && Instant::now() < deadline {
        let chunk_end = (fed + args.observe_per_round).min(observe_queries.len());
        if fed < chunk_end {
            drifted_runner.run_workload_observed(
                &observe_queries[fed..chunk_end],
                2000 + fed as u64,
                &log,
            );
            fed = chunk_end;
        } else {
            // All chunks fed; re-observe the same workload until the
            // loop catches up.
            fed = 0;
        }
        std::thread::sleep(Duration::from_millis(40));
    }
    let status = adaptation.stop();
    assert!(
        status.swaps >= args.rounds,
        "adaptation performed only {} of {} rounds (status: {status:?})",
        status.swaps,
        args.rounds
    );

    // Per-round holdout accuracy from the registry's version trail.
    let mut round_qerrors = Vec::new();
    for version in (v1 + 1)..=(v1 + args.rounds as u32) {
        let model = registry.load("adaptive", version).expect("load round");
        round_qerrors.push(median_qerror_on(&model, &holdout));
    }
    let adapted_q = *round_qerrors.last().expect("at least one round");
    println!(
        "adapted model after {} rounds: median q-error {adapted_q:.3}",
        args.rounds
    );
    for (i, q) in round_qerrors.iter().enumerate() {
        println!("  round {}: {q:.3}", i + 1);
    }

    // ---- 4. p99 latency impact of hot-swapping under load ------------
    // Warm-up pass so both phases run against a warm cache and JIT-warm
    // code paths.
    latency_phase(&server, &plans, args.requests / 4, args.workers, || {});
    let p99_no_swap = latency_phase(&server, &plans, args.requests, args.workers, || {});
    let final_version = server.model_version();
    let swap_a = registry.load("adaptive", final_version).expect("load A");
    let swap_b = registry
        .load("adaptive", final_version - 1)
        .expect("load B");
    let swaps_during_phase = 4u64;
    let p99_during_swaps = {
        let server_for_swaps = Arc::clone(&server);
        latency_phase(&server, &plans, args.requests, args.workers, move || {
            // Alternate between the two newest versions mid-stream.
            for i in 0..swaps_during_phase {
                let (model, version) = if i % 2 == 0 {
                    (swap_b.clone(), final_version - 1)
                } else {
                    (swap_a.clone(), final_version)
                };
                server_for_swaps.swap_model(model, version);
                std::thread::sleep(Duration::from_millis(10));
            }
        })
    };
    // Leave the server on the newest version regardless of parity.
    server.swap_model(
        registry.load("adaptive", final_version).expect("reload"),
        final_version,
    );
    let degradation_pct = (p99_during_swaps - p99_no_swap) / p99_no_swap * 100.0;
    println!(
        "\np99 latency: {:.3} ms without swaps, {:.3} ms across {} swaps ({:+.1}%, target < +5%)",
        p99_no_swap, p99_during_swaps, swaps_during_phase, degradation_pct
    );

    // ---- 5. Rollback restores the prior version bit-for-bit ----------
    let restored = rollback_and_swap(&server, &registry, "adaptive").expect("rollback");
    let prior = registry.load("adaptive", restored).expect("load prior");
    let rollback_bit_identical = plans.iter().all(|plan| {
        let served = server.predict_blocking(plan.clone()).expect("serve");
        let expected = prior.predict(&zsdb_core::features::featurize_plan(
            db.catalog(),
            plan,
            prior.featurizer,
        ));
        served.runtime_secs.to_bits() == expected.to_bits()
    });
    assert!(
        rollback_bit_identical,
        "rollback must restore bit-identical predictions"
    );
    println!("rollback to v{restored}: bit-identical predictions restored");

    // ---- 6. Emit the report ------------------------------------------
    let report = AdaptReport {
        rounds: args.rounds,
        observe_per_round: args.observe_per_round,
        eval_queries: args.eval_queries,
        requests_per_phase: args.requests,
        workers: args.workers,
        frozen_median_qerror: frozen_q,
        adapted_median_qerror: adapted_q,
        round_qerrors,
        observations_consumed: status.observations_consumed,
        qerror_improved: adapted_q < frozen_q,
        p99_no_swap_ms: p99_no_swap,
        p99_during_swaps_ms: p99_during_swaps,
        p99_degradation_pct: degradation_pct,
        swaps_during_phase,
        rollback_bit_identical,
        rollback_restored_version: restored,
    };
    assert!(
        report.qerror_improved,
        "post-adaptation median q-error ({adapted_q:.3}) must be strictly better than the \
         frozen model's ({frozen_q:.3})"
    );
    write_json_report(&args.out, &report);
    let _ = std::fs::remove_dir_all(registry.root());
}
