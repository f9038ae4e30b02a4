//! Training-throughput benchmark: trains the same multi-database corpus
//! with the pre-refactor per-example trainer and with the batched
//! (level, kind)-scheduled trainer, and emits a machine-readable
//! `BENCH_train.json` report (graphs/sec for both engines, speedup,
//! epochs-to-convergence, final median q-error, the batched-vs-
//! per-example bit-equivalence check, the active kernel and an FNV-1a of
//! the batched engine's trained weights — which neither the kernel choice
//! nor the thread count may move for a given corpus and configuration).
//!
//! Measurement methodology: both engines are timed over their **whole
//! training loop**, exactly as a user experiences them.  That includes
//! each engine's per-epoch bookkeeping — the per-example baseline
//! reproduces the pre-refactor trainer faithfully, with its separate
//! full-corpus evaluation pass per epoch, while the batched engine's
//! training curve reuses the epoch's own training forwards (plus a small
//! validation pass).  The reported `speedup` therefore credits the
//! batched engine both for its faster kernels and for eliminating the
//! redundant evaluation sweep; both are deliberate parts of the
//! refactor.
//!
//! Usage:
//! `cargo run -p zsdb_bench --release --bin bench_train -- \
//!    [--train-dbs N] [--queries-per-db N] [--epochs N] [--batch N] \
//!    [--microbatch N] [--threads N] [--hidden N] [--out PATH]`

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::Serialize;
use std::time::Instant;
use zsdb_core::dataset::{collect_training_corpus, TrainingDataConfig};
use zsdb_core::{
    FeaturizerConfig, ModelConfig, PlanGraph, Trainable, TrainedModel, Trainer, TrainingConfig,
    ZeroShotCostModel,
};
use zsdb_nn::{median, q_error, Adam};

struct Args {
    train_dbs: usize,
    queries_per_db: usize,
    epochs: usize,
    batch: usize,
    microbatch: usize,
    threads: usize,
    hidden: usize,
    out: String,
}

impl Args {
    fn parse() -> Self {
        let argv: Vec<String> = std::env::args().collect();
        let value_of = |flag: &str| -> Option<String> {
            argv.iter()
                .position(|a| a == flag)
                .and_then(|i| argv.get(i + 1).cloned())
        };
        let num = |flag: &str, default: usize| {
            value_of(flag)
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        };
        Args {
            train_dbs: num("--train-dbs", 4),
            queries_per_db: num("--queries-per-db", 100),
            epochs: num("--epochs", 10),
            batch: num("--batch", 64),
            microbatch: num("--microbatch", 32),
            threads: num("--threads", 0),
            hidden: num("--hidden", 48),
            out: value_of("--out").unwrap_or_else(|| "BENCH_train.json".to_string()),
        }
    }
}

/// Per-engine result block of `BENCH_train.json`.
#[derive(Serialize)]
struct EngineReport {
    wall_secs: f64,
    graphs_per_sec: f64,
    epochs_run: usize,
    final_median_qerror: f64,
}

/// The `BENCH_train.json` payload.
#[derive(Serialize)]
struct TrainBenchReport {
    corpus_graphs: usize,
    train_graphs: usize,
    validation_graphs: usize,
    epochs: usize,
    batch_size: usize,
    microbatch_size: usize,
    threads: usize,
    hidden_dim: usize,
    /// Active MLP kernel (`"simd"` or `"scalar"`, from `ZSDB_KERNEL`).
    kernel: &'static str,
    per_example: EngineReport,
    batched: EngineReport,
    speedup: f64,
    /// First epoch (1-based) at which the batched trainer's median
    /// training q-error dropped below 2.0; `None` when never reached.
    epochs_to_convergence: Option<usize>,
    /// Whether batched predictions of the trained model are bit-identical
    /// to per-example predictions over the training corpus.
    equivalence_bit_identical: bool,
    /// FNV-1a (64-bit, hex) of the batched engine's trained model JSON:
    /// two runs of one configuration agree exactly when they trained the
    /// same weights, whatever the kernel and the thread count.
    weights_fnv1a: String,
}

fn engine_report(trained: &TrainedModel, graphs_trained_on: usize, wall_secs: f64) -> EngineReport {
    let epochs_run = trained.training_curve.len();
    EngineReport {
        wall_secs,
        graphs_per_sec: (epochs_run * graphs_trained_on) as f64 / wall_secs.max(1e-12),
        epochs_run,
        final_median_qerror: trained.final_train_qerror,
    }
}

/// The pre-batching trainer, kept verbatim as the baseline this binary
/// times the batched engine against: one graph at a time through per-node
/// mat-vec message passing, gradients accumulated directly into the
/// model, and a separate full-corpus evaluation pass per epoch.
fn train_per_example(
    model_config: ModelConfig,
    cfg: TrainingConfig,
    graphs: &[PlanGraph],
) -> TrainedModel {
    let median_q_error = |model: &ZeroShotCostModel, graphs: &[PlanGraph]| {
        let qs: Vec<f64> = graphs
            .iter()
            .map(|g| q_error(model.predict(g), g.runtime_secs.expect("labelled")))
            .collect();
        median(&qs)
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let val_len = ((graphs.len() as f64) * cfg.validation_fraction) as usize;
    let (train_graphs, val_graphs) = graphs.split_at(graphs.len() - val_len);

    let mut model = ZeroShotCostModel::new(model_config);
    let mut adam = Adam::new(cfg.learning_rate);
    let mut indices: Vec<usize> = (0..train_graphs.len()).collect();
    let mut training_curve = Vec::with_capacity(cfg.epochs);
    for _epoch in 0..cfg.epochs {
        indices.shuffle(&mut rng);
        let mut batch_count = 0usize;
        model.zero_grad();
        for &i in &indices {
            let g = &train_graphs[i];
            model.accumulate_gradients(g, g.runtime_secs.expect("labelled"));
            batch_count += 1;
            if batch_count == cfg.batch_size {
                model.apply_step(&mut adam);
                model.zero_grad();
                batch_count = 0;
            }
        }
        if batch_count > 0 {
            model.apply_step(&mut adam);
            model.zero_grad();
        }
        training_curve.push(median_q_error(&model, train_graphs));
    }

    TrainedModel {
        final_train_qerror: *training_curve.last().unwrap_or(&f64::NAN),
        final_validation_qerror: (!val_graphs.is_empty())
            .then(|| median_q_error(&model, val_graphs)),
        model,
        featurizer: FeaturizerConfig::exact(),
        training_curve,
        validation_curve: Vec::new(),
        stopped_early: false,
    }
}

fn main() {
    let args = Args::parse();
    println!(
        "# Training benchmark: {} dbs × {} queries, {} epochs, batch {}, microbatch {}, threads {}\n",
        args.train_dbs, args.queries_per_db, args.epochs, args.batch, args.microbatch, args.threads
    );

    // ---- Corpus --------------------------------------------------------
    let data_config = TrainingDataConfig {
        num_databases: args.train_dbs,
        queries_per_database: args.queries_per_db,
        ..TrainingDataConfig::default()
    };
    let corpus = collect_training_corpus(&data_config);
    let schemas = zsdb_catalog::SchemaGenerator::new(data_config.schema_config.clone())
        .generate_corpus("train", data_config.num_databases, data_config.seed);

    let model_config = ModelConfig {
        hidden_dim: args.hidden,
        ..ModelConfig::default()
    };
    let training_config = TrainingConfig {
        epochs: args.epochs,
        batch_size: args.batch,
        microbatch_size: args.microbatch,
        threads: args.threads,
        validation_fraction: 0.1,
        // Both engines must run the same number of epochs for a clean
        // throughput comparison; convergence behaviour is reported
        // separately via `epochs_to_convergence`.
        early_stopping_patience: 0,
        ..TrainingConfig::default()
    };
    let trainer = Trainer::new(model_config, training_config, FeaturizerConfig::exact());
    let graphs = trainer.featurize_corpus(&corpus, |name| {
        schemas
            .iter()
            .find(|s| s.name == name)
            .expect("catalog for corpus database")
    });
    let val_len = ((graphs.len() as f64) * training_config.validation_fraction) as usize;
    let train_len = graphs.len() - val_len;
    println!(
        "corpus: {} graphs ({} train / {} validation)\n",
        graphs.len(),
        train_len,
        val_len
    );

    // ---- Pre-refactor per-example engine ------------------------------
    println!("training with the per-example reference engine ...");
    let started = Instant::now();
    let reference = train_per_example(model_config, training_config, &graphs);
    let reference_secs = started.elapsed().as_secs_f64();
    let per_example = engine_report(&reference, train_len, reference_secs);
    println!(
        "  {:.2}s · {:.0} graphs/sec · final median q-error {:.3}",
        per_example.wall_secs, per_example.graphs_per_sec, per_example.final_median_qerror
    );

    // ---- Batched engine -----------------------------------------------
    println!("training with the batched engine ...");
    let started = Instant::now();
    let trained = trainer.train(&graphs);
    let batched_secs = started.elapsed().as_secs_f64();
    let batched = engine_report(&trained, train_len, batched_secs);
    println!(
        "  {:.2}s · {:.0} graphs/sec · final median q-error {:.3}",
        batched.wall_secs, batched.graphs_per_sec, batched.final_median_qerror
    );

    let epochs_to_convergence = trained
        .training_curve
        .iter()
        .position(|&q| q < 2.0)
        .map(|i| i + 1);

    // ---- Bit-equivalence of batched and per-example inference ---------
    let sample: Vec<&PlanGraph> = graphs.iter().take(256).collect();
    let batched_predictions = trained.model.predict_batch(&sample);
    let equivalence_bit_identical = sample
        .iter()
        .zip(&batched_predictions)
        .all(|(g, p)| p.to_bits() == trained.model.predict(g).to_bits());

    let mut weights_hash = zsdb_engine::fingerprint::Fnv64::new();
    trained
        .model
        .to_json()
        .bytes()
        .for_each(|b| weights_hash.write_u8(b));

    let speedup = batched.graphs_per_sec / per_example.graphs_per_sec.max(1e-12);
    let report = TrainBenchReport {
        corpus_graphs: graphs.len(),
        train_graphs: train_len,
        validation_graphs: val_len,
        epochs: args.epochs,
        batch_size: args.batch,
        microbatch_size: args.microbatch,
        threads: training_config.effective_threads(),
        hidden_dim: args.hidden,
        kernel: zsdb_nn::active_kernel().name(),
        per_example,
        batched,
        speedup,
        epochs_to_convergence,
        equivalence_bit_identical,
        weights_fnv1a: format!("{:016x}", weights_hash.finish()),
    };

    println!(
        "\nspeedup: {:.2}x (batched {:.0} vs per-example {:.0} graphs/sec) · \
         epochs-to-convergence {:?} · bit-identical {} · {} kernel · weights {}",
        report.speedup,
        report.batched.graphs_per_sec,
        report.per_example.graphs_per_sec,
        report.epochs_to_convergence,
        report.equivalence_bit_identical,
        report.kernel,
        report.weights_fnv1a
    );
    // Fail loudly in CI if the batched engine ever regresses below the
    // equivalence guarantee.
    assert!(
        report.equivalence_bit_identical,
        "batched predictions diverged from the per-example path"
    );

    zsdb_bench::write_json_report(&args.out, &report);
}
