//! Serialization round-trip suite: a trained model saved as JSON (directly
//! or through the model registry) must reload with **bit-identical**
//! predictions — the guarantee the vendored serde_json float round-trip
//! claims, verified end-to-end on held-out plans.

use zero_shot_db::catalog::presets;
use zero_shot_db::query::{WorkloadGenerator, WorkloadSpec};
use zero_shot_db::serve::ModelRegistry;
use zero_shot_db::storage::Database;
use zero_shot_db::zeroshot::dataset::collect_for_database;
use zero_shot_db::zeroshot::features::{featurize_execution, featurize_plan};
use zero_shot_db::zeroshot::{
    FeaturizerConfig, ModelConfig, PlanGraph, Trainable, TrainedModel, Trainer, TrainingConfig,
};
use zsdb_engine::QueryRunner;

fn train_tiny_model() -> TrainedModel {
    let db = Database::generate(presets::imdb_like(0.02), 21);
    let executions = collect_for_database(&db, &WorkloadSpec::paper_training(), 40, 3);
    let graphs: Vec<PlanGraph> = executions
        .iter()
        .map(|e| featurize_execution(db.catalog(), e, FeaturizerConfig::exact()))
        .collect();
    Trainer::new(
        ModelConfig::tiny(),
        TrainingConfig {
            epochs: 4,
            validation_fraction: 0.0,
            ..TrainingConfig::tiny()
        },
        FeaturizerConfig::exact(),
    )
    .train(&graphs)
}

/// 20 held-out plans from a database the model never saw during training.
fn held_out_graphs(model: &TrainedModel) -> Vec<PlanGraph> {
    let db = Database::generate(presets::ssb_like(0.02), 77);
    let runner = QueryRunner::with_defaults(&db);
    let queries = WorkloadGenerator::with_defaults().generate(db.catalog(), 20, 13);
    runner
        .plan_workload(&queries)
        .iter()
        .map(|p| featurize_plan(db.catalog(), p, model.featurizer))
        .collect()
}

#[test]
fn json_roundtrip_preserves_predictions_bit_for_bit() {
    let model = train_tiny_model();
    let graphs = held_out_graphs(&model);
    assert_eq!(graphs.len(), 20);

    let json = model.to_json();
    let restored = TrainedModel::from_json(&json).expect("reload model");
    for (i, g) in graphs.iter().enumerate() {
        let original = model.predict(g);
        let reloaded = restored.predict(g);
        assert_eq!(
            original.to_bits(),
            reloaded.to_bits(),
            "plan {i}: {original} != {reloaded} after JSON round-trip"
        );
    }

    // Double round-trip: serialize the reloaded model again; the artifact
    // must be byte-stable (no drift on repeated save/load cycles).
    assert_eq!(json, restored.to_json());
}

#[test]
fn registry_file_roundtrip_preserves_predictions_bit_for_bit() {
    let model = train_tiny_model();
    let graphs = held_out_graphs(&model);

    let dir = std::env::temp_dir().join(format!("zsdb_serialization_test_{}", std::process::id()));
    let registry = ModelRegistry::open(&dir).expect("open registry");
    let version = registry
        .register("roundtrip", &model, &graphs[..8])
        .expect("register");
    let loaded = registry.load("roundtrip", version).expect("load");
    for (i, g) in graphs.iter().enumerate() {
        assert_eq!(
            model.predict(g).to_bits(),
            loaded.predict(g).to_bits(),
            "plan {i} drifted through the registry file round-trip"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn featurizer_config_survives_the_roundtrip() {
    let model = train_tiny_model();
    let restored = TrainedModel::from_json(&model.to_json()).unwrap();
    assert_eq!(model.featurizer, restored.featurizer);
    assert_eq!(model.model.config(), restored.model.config());
    assert_eq!(
        model.model.num_parameters(),
        restored.model.num_parameters()
    );
}
