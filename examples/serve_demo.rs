//! Serving demo: train a zero-shot cost model, persist it in the model
//! registry, reload it with an integrity check, and answer a concurrent
//! stream of prediction requests through the worker pool.  The registry
//! calls are generic over the model type; a multi-task model goes through
//! the same `register` / `manifest::<MultiTaskModel>` / `load` calls.
//!
//! Run with: `cargo run --release --example serve_demo`

use zero_shot_db::catalog::presets;
use zero_shot_db::query::WorkloadGenerator;
use zero_shot_db::serve::{ModelRegistry, PredictionServer, ServerConfig};
use zero_shot_db::storage::Database;
use zero_shot_db::zeroshot::dataset::{collect_training_corpus, TrainingDataConfig};
use zero_shot_db::zeroshot::features::featurize_plan;
use zero_shot_db::zeroshot::{
    FeaturizerConfig, ModelConfig, Trainer, TrainingConfig, ZeroShotCostModel,
};
use zsdb_engine::QueryRunner;

fn main() {
    // 1. Train a small zero-shot model on synthetic databases.
    let data_config = TrainingDataConfig::tiny();
    println!(
        "Training on {} synthetic databases ...",
        data_config.num_databases
    );
    let corpus = collect_training_corpus(&data_config);
    let schemas = zero_shot_db::catalog::SchemaGenerator::new(data_config.schema_config.clone())
        .generate_corpus("train", data_config.num_databases, data_config.seed);
    let trainer = Trainer::new(
        ModelConfig::tiny(),
        TrainingConfig {
            epochs: 15,
            ..TrainingConfig::tiny()
        },
        FeaturizerConfig::estimated(),
    );
    let graphs = trainer.featurize_corpus(&corpus, |name| {
        schemas.iter().find(|s| s.name == name).expect("catalog")
    });
    let model = trainer.train(&graphs);
    println!("final training q-error: {:.2}", model.final_train_qerror);

    // 2. Register the model: a versioned on-disk artifact with provenance
    //    and prediction round-trip integrity probes.
    let registry_dir =
        std::env::temp_dir().join(format!("zsdb_demo_registry_{}", std::process::id()));
    let registry = ModelRegistry::open(&registry_dir).expect("open registry");
    let version = registry
        .register("zero-shot-cost", &model, &graphs[..5])
        .expect("register model");
    let manifest = registry
        .manifest::<ZeroShotCostModel>("zero-shot-cost", version)
        .expect("manifest");
    println!(
        "\nregistered 'zero-shot-cost' v{version} ({}, heads {:?}, {} parameters, {} probes) at {}",
        manifest.model_name,
        manifest.task_heads,
        manifest.num_parameters,
        manifest.probes.len(),
        registry_dir.display()
    );

    // 3. Reload it (every load re-verifies the probes bit-for-bit) and
    //    serve an unseen database.
    let served_model = registry
        .load_latest::<ZeroShotCostModel>("zero-shot-cost")
        .expect("load model");
    let imdb = Database::generate(presets::imdb_like(0.03), 123);
    let runner = QueryRunner::with_defaults(&imdb);
    let queries = WorkloadGenerator::with_defaults().generate(imdb.catalog(), 50, 7);
    let plans = runner.plan_workload(&queries);

    let server = PredictionServer::start(
        served_model.clone(),
        imdb.catalog().clone(),
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 256,
            ..ServerConfig::default()
        },
    );

    // Submit each plan three times: repeats are answered from the feature
    // cache without re-featurizing.
    println!("\nserving {} requests on 4 workers ...", plans.len() * 3);
    let tickets: Vec<_> = (0..3)
        .flat_map(|_| {
            plans
                .iter()
                .map(|p| server.submit(p.clone()).expect("submit"))
        })
        .collect();
    let predictions: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("wait"))
        .collect();

    for (plan, prediction) in plans.iter().zip(&predictions).take(3) {
        let reference = served_model.predict(&featurize_plan(
            imdb.catalog(),
            plan,
            served_model.featurizer,
        ));
        println!(
            "  plan {:#018x}: served {:.2} ms (direct {:.2} ms, cache_hit={})",
            prediction.fingerprint,
            prediction.runtime_secs * 1e3,
            reference * 1e3,
            prediction.cache_hit
        );
    }

    let metrics = server.shutdown();
    println!("\n{metrics}");
    let _ = std::fs::remove_dir_all(&registry_dir);
}
