//! Multi-task benchmark: trains the jointly-trained multi-task model and
//! the single-task cost model on the same multi-database corpus, then
//! evaluates **per head** on a held-out database the models never saw, and
//! emits a machine-readable `BENCH_multitask.json` report:
//!
//! * **cost head** — median/p95 runtime q-error vs the single-task
//!   zero-shot cost model and the (database-specific, privileged) MSCN
//!   baseline trained on half the held-out workload;
//! * **cardinality head** — median/p95 root-result cardinality q-error vs
//!   the classical estimators (`postgres_like`, `histogram`, `sampling`),
//!   all with the same `+1` smoothing, plus the per-operator head's
//!   median;
//! * **end-to-end plan quality** — the System-R optimizer planning the
//!   held-out workload with [`LearnedCardEstimator`] vs classical
//!   cardinalities, both plan sets executed on a noiseless runtime
//!   simulator.
//!
//! Usage:
//! `cargo run -p zsdb_bench --release --bin bench_multitask -- \
//!    [--train-dbs N] [--queries-per-db N] [--epochs N] [--eval-queries N] \
//!    [--scale F] [--threads N] [--out PATH]`

use serde::Serialize;
use zsdb_baselines::{MscnConfig, MscnModel};
use zsdb_bench::{parse_command_line, print_training_settings, FlagError, Flags};
use zsdb_cardest::{
    CardinalityEstimator, HistogramEstimator, PostgresLikeEstimator, SamplingEstimator,
};
use zsdb_core::dataset::{collect_training_corpus, TrainingDataConfig};
use zsdb_core::{FeaturizerConfig, ModelConfig, Trainer, TrainingConfig};
use zsdb_engine::{EngineConfig, HardwareProfile, Optimizer, QueryExecution, QueryRunner};
use zsdb_multitask::{
    samples_from_executions, LearnedCardEstimator, MultiTaskConfig, MultiTaskSample,
    MultiTaskTrainer,
};
use zsdb_nn::{median, percentile, q_error};
use zsdb_query::WorkloadGenerator;
use zsdb_storage::Database;

struct Args {
    train_dbs: usize,
    queries_per_db: usize,
    epochs: usize,
    eval_queries: usize,
    scale: f64,
    threads: usize,
    out: String,
}

impl Args {
    fn parse(args: Vec<String>) -> Result<Self, FlagError> {
        let flags = Flags::parse(
            args,
            "--train-dbs --queries-per-db --epochs --eval-queries --scale --threads --out",
            "",
        )?;
        Ok(Args {
            train_dbs: flags.value("--train-dbs", 6)?,
            queries_per_db: flags.value("--queries-per-db", 200)?,
            epochs: flags.value("--epochs", 20)?,
            eval_queries: flags.value("--eval-queries", 160)?,
            scale: flags.value("--scale", 0.03)?,
            threads: flags.value("--threads", 0)?,
            out: flags.value("--out", "BENCH_multitask.json".to_string())?,
        })
    }
}

/// Median/p95 q-error block of one estimator or head.
#[derive(Serialize)]
struct QErrorReport {
    median: f64,
    p95: f64,
}

fn qerrors(qs: &[f64]) -> QErrorReport {
    QErrorReport {
        median: median(qs),
        p95: percentile(qs, 95.0),
    }
}

/// The `BENCH_multitask.json` payload.
#[derive(Serialize)]
struct MultitaskBenchReport {
    corpus_graphs: usize,
    eval_queries: usize,
    mscn_training_queries: usize,
    epochs: usize,
    threads: usize,
    hidden_dim: usize,
    /// Runtime q-error of the jointly-trained cost head.
    cost_multitask: QErrorReport,
    /// Runtime q-error of the single-task zero-shot cost model.
    cost_single_task: QErrorReport,
    /// Runtime q-error of the MSCN baseline (trained on the held-out
    /// database itself — a privileged workload-driven baseline).
    cost_mscn: QErrorReport,
    /// Joint training kept the cost head within 5% of the single-task
    /// median.
    cost_within_5pct: bool,
    /// Root-result cardinality q-error of the learned head.
    root_card_learned: QErrorReport,
    /// Root-result cardinality q-error of the classical estimators.
    root_card_postgres_like: QErrorReport,
    root_card_histogram: QErrorReport,
    root_card_sampling: QErrorReport,
    /// The learned head beats the classical `postgres_like` median.
    learned_beats_postgres: bool,
    /// Per-operator intermediate-cardinality q-error of the learned head.
    op_card_learned: QErrorReport,
    /// End-to-end plan quality: the held-out workload planned with
    /// learned vs classical cardinalities, both executed on a noiseless
    /// simulator.
    plan_runtime_learned_secs: f64,
    plan_runtime_classical_secs: f64,
    /// `classical / learned` — above 1.0 means learned cardinalities
    /// produced cheaper plans overall.
    plan_runtime_ratio: f64,
    plan_learned_wins: usize,
    plan_classical_wins: usize,
    plan_ties: usize,
}

/// Root-result ground truth of an executed query: rows entering the root
/// aggregate.
fn true_root_rows(execution: &QueryExecution) -> f64 {
    execution
        .executed
        .children
        .first()
        .map(|c| c.actual_cardinality)
        .unwrap_or(execution.executed.actual_cardinality) as f64
}

fn card_qerrors(estimates: impl Iterator<Item = f64>, truths: &[f64]) -> Vec<f64> {
    estimates
        .zip(truths)
        .map(|(est, truth)| q_error(est + 1.0, truth + 1.0))
        .collect()
}

fn main() {
    let args = parse_command_line(Args::parse);
    let seed = 0xBEEFu64;
    println!(
        "# Multi-task benchmark: {} dbs × {} queries, {} epochs, eval {} queries at scale {}\n",
        args.train_dbs, args.queries_per_db, args.epochs, args.eval_queries, args.scale
    );

    // ---- Shared multi-database training corpus ------------------------
    let data_config = TrainingDataConfig {
        num_databases: args.train_dbs,
        queries_per_database: args.queries_per_db,
        seed,
        ..TrainingDataConfig::default()
    };
    let corpus = collect_training_corpus(&data_config);
    let schemas = zsdb_catalog::SchemaGenerator::new(data_config.schema_config.clone())
        .generate_corpus("train", data_config.num_databases, data_config.seed);
    let catalog_of = |name: &str| {
        schemas
            .iter()
            .find(|s| s.name == name)
            .expect("catalog for corpus database")
    };
    // Estimated-cardinality featurization: the cardinality heads must not
    // see true cardinalities in their inputs (at planning time none
    // exist), so they learn to *correct* the classical estimates.
    let featurizer = FeaturizerConfig::estimated();
    let samples = samples_from_executions(&corpus, catalog_of, featurizer);
    let training_config = TrainingConfig {
        epochs: args.epochs,
        threads: args.threads,
        ..TrainingConfig::default()
    };
    print_training_settings(&training_config);
    println!("corpus: {} graphs\n", samples.len());

    // ---- Train both models --------------------------------------------
    println!("training the single-task cost model ...");
    let single_trainer = Trainer::new(ModelConfig::default(), training_config, featurizer);
    let graphs: Vec<_> = samples.iter().map(|s| s.graph.clone()).collect();
    let single = single_trainer.train(&graphs);
    println!("  final train q-error {:.3}\n", single.final_train_qerror);

    println!("training the multi-task model (cost + root card + operator card) ...");
    let multi_config = MultiTaskConfig::default();
    let multi_trainer = MultiTaskTrainer::new(multi_config, training_config, featurizer);
    let multi = multi_trainer.train(&samples);
    println!(
        "  final train q-errors: cost {:.3} · root card {:.3} · op card {:.3}\n",
        multi.final_train_qerror.cost,
        multi.final_train_qerror.root_card,
        multi.final_train_qerror.op_card
    );

    // ---- Held-out database and workload -------------------------------
    let db = Database::generate(zsdb_catalog::presets::imdb_like(args.scale), seed ^ 0x1111);
    let runner = QueryRunner::new(
        &db,
        EngineConfig::default(),
        HardwareProfile::default().noiseless(),
    );
    let queries =
        WorkloadGenerator::with_defaults().generate(db.catalog(), args.eval_queries, seed ^ 0x77);
    let executions = runner.run_workload(&queries, seed ^ 0x99);
    let split = executions.len() / 2;
    let (mscn_train, eval) = executions.split_at(split);
    let eval_samples: Vec<MultiTaskSample> =
        samples_from_executions(eval, |_| db.catalog(), featurizer);
    println!(
        "held-out db '{}': {} MSCN-training / {} evaluation queries\n",
        db.catalog().name,
        mscn_train.len(),
        eval.len()
    );

    // ---- Cost head vs single-task vs MSCN -----------------------------
    let eval_graphs: Vec<&zsdb_core::PlanGraph> = eval_samples.iter().map(|s| &s.graph).collect();
    let multi_predictions = multi.model.predict_batch(&eval_graphs);
    let cost_multitask: Vec<f64> = multi_predictions
        .iter()
        .zip(eval)
        .map(|(p, e)| q_error(p.runtime_secs, e.runtime_secs))
        .collect();
    let cost_single: Vec<f64> = single
        .predict_batch(&eval_graphs)
        .into_iter()
        .zip(eval)
        .map(|(p, e)| q_error(p, e.runtime_secs))
        .collect();
    let mut mscn = MscnModel::new(db.catalog(), MscnConfig::default());
    mscn.train(db.catalog(), mscn_train);
    let cost_mscn: Vec<f64> = eval
        .iter()
        .map(|e| q_error(mscn.predict(db.catalog(), &e.query), e.runtime_secs))
        .collect();

    // ---- Cardinality head vs classical estimators ---------------------
    let truths: Vec<f64> = eval.iter().map(true_root_rows).collect();
    let learned_card = card_qerrors(multi_predictions.iter().map(|p| p.root_rows), &truths);
    let postgres = PostgresLikeEstimator::new(db.catalog().clone());
    let histogram = HistogramEstimator::build(&db, seed ^ 0x5);
    let sampling = SamplingEstimator::build(&db, 2_000, seed ^ 0x6);
    let postgres_card = card_qerrors(
        eval.iter().map(|e| postgres.query_cardinality(&e.query)),
        &truths,
    );
    let histogram_card = card_qerrors(
        eval.iter().map(|e| histogram.query_cardinality(&e.query)),
        &truths,
    );
    let sampling_card = card_qerrors(
        eval.iter().map(|e| sampling.query_cardinality(&e.query)),
        &truths,
    );
    let op_card: Vec<f64> = multi_predictions
        .iter()
        .zip(&eval_samples)
        .flat_map(|(p, s)| {
            p.operator_rows
                .iter()
                .zip(&s.targets.operator_rows)
                .map(|(pr, ar)| q_error(pr + 1.0, ar + 1.0))
                .collect::<Vec<_>>()
        })
        .collect();

    // ---- End-to-end plan quality: optimizer with learned cards --------
    println!("planning the held-out workload with learned vs classical cardinalities ...");
    let learned_est = LearnedCardEstimator::new(&multi, postgres.clone());
    let learned_optimizer = Optimizer::new(&db, EngineConfig::default(), &learned_est);
    let classical_optimizer = Optimizer::new(&db, EngineConfig::default(), &postgres);
    let (mut learned_total, mut classical_total) = (0.0f64, 0.0f64);
    let (mut learned_wins, mut classical_wins, mut ties) = (0usize, 0usize, 0usize);
    for (i, e) in eval.iter().enumerate() {
        let noise = seed ^ 0x200 ^ i as u64;
        let learned_runtime = runner
            .run_plan(&e.query, learned_optimizer.plan(&e.query), noise)
            .runtime_secs;
        let classical_runtime = runner
            .run_plan(&e.query, classical_optimizer.plan(&e.query), noise)
            .runtime_secs;
        learned_total += learned_runtime;
        classical_total += classical_runtime;
        if learned_runtime < classical_runtime {
            learned_wins += 1;
        } else if classical_runtime < learned_runtime {
            classical_wins += 1;
        } else {
            ties += 1;
        }
    }

    // ---- Report -------------------------------------------------------
    let report = MultitaskBenchReport {
        corpus_graphs: samples.len(),
        eval_queries: eval.len(),
        mscn_training_queries: mscn_train.len(),
        epochs: args.epochs,
        threads: training_config.effective_threads(),
        hidden_dim: multi_config.hidden_dim,
        cost_multitask: qerrors(&cost_multitask),
        cost_single_task: qerrors(&cost_single),
        cost_mscn: qerrors(&cost_mscn),
        cost_within_5pct: qerrors(&cost_multitask).median <= qerrors(&cost_single).median * 1.05,
        root_card_learned: qerrors(&learned_card),
        root_card_postgres_like: qerrors(&postgres_card),
        root_card_histogram: qerrors(&histogram_card),
        root_card_sampling: qerrors(&sampling_card),
        learned_beats_postgres: qerrors(&learned_card).median < qerrors(&postgres_card).median,
        op_card_learned: qerrors(&op_card),
        plan_runtime_learned_secs: learned_total,
        plan_runtime_classical_secs: classical_total,
        plan_runtime_ratio: classical_total / learned_total.max(1e-12),
        plan_learned_wins: learned_wins,
        plan_classical_wins: classical_wins,
        plan_ties: ties,
    };

    println!("\n## Per-head q-error on the held-out database (median / p95)");
    zsdb_bench::print_row(&["head".into(), "model".into(), "median".into(), "p95".into()]);
    let row = |head: &str, model: &str, q: &QErrorReport| {
        zsdb_bench::print_row(&[
            head.into(),
            model.into(),
            format!("{:.3}", q.median),
            format!("{:.3}", q.p95),
        ]);
    };
    row("cost", "multi-task", &report.cost_multitask);
    row("cost", "single-task", &report.cost_single_task);
    row("cost", "MSCN (privileged)", &report.cost_mscn);
    row("root card", "learned head", &report.root_card_learned);
    row(
        "root card",
        "postgres_like",
        &report.root_card_postgres_like,
    );
    row("root card", "histogram", &report.root_card_histogram);
    row("root card", "sampling", &report.root_card_sampling);
    row("op card", "learned head", &report.op_card_learned);
    println!(
        "\nplan quality: learned {:.4}s vs classical {:.4}s (ratio {:.3}; \
         learned wins {} · classical wins {} · ties {})",
        report.plan_runtime_learned_secs,
        report.plan_runtime_classical_secs,
        report.plan_runtime_ratio,
        report.plan_learned_wins,
        report.plan_classical_wins,
        report.plan_ties
    );
    println!(
        "cost head within 5% of single-task: {} · learned card beats postgres_like: {}\n",
        report.cost_within_5pct, report.learned_beats_postgres
    );

    zsdb_bench::write_json_report(&args.out, &report);
}
