//! Training-step throughput of the zero-shot model (gradient accumulation
//! and optimizer step).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use zsdb_catalog::presets;
use zsdb_core::features::{featurize_execution, FeaturizerConfig};
use zsdb_core::{ModelConfig, Trainable, ZeroShotCostModel};
use zsdb_engine::QueryRunner;
use zsdb_nn::Adam;
use zsdb_query::WorkloadGenerator;
use zsdb_storage::Database;

fn bench_training(c: &mut Criterion) {
    let db = Database::generate(presets::imdb_like(0.02), 1);
    let runner = QueryRunner::with_defaults(&db);
    let queries = WorkloadGenerator::with_defaults().generate(db.catalog(), 16, 5);
    let executions = runner.run_workload(&queries, 0);
    let graphs: Vec<_> = executions
        .iter()
        .map(|e| featurize_execution(db.catalog(), e, FeaturizerConfig::exact()))
        .collect();

    c.bench_function("training_minibatch_16", |b| {
        let mut model = ZeroShotCostModel::new(ModelConfig::default());
        let mut adam = Adam::new(1e-3);
        b.iter(|| {
            model.zero_grad();
            for g in &graphs {
                black_box(model.accumulate_gradients(black_box(g), g.runtime_secs.unwrap()));
            }
            model.apply_step(&mut adam);
        })
    });

    c.bench_function("training_minibatch_16_batched", |b| {
        let mut model = ZeroShotCostModel::new(ModelConfig::default());
        let mut adam = Adam::new(1e-3);
        let refs: Vec<&zsdb_core::PlanGraph> = graphs.iter().collect();
        let targets: Vec<f64> = refs.iter().map(|g| g.runtime_secs.unwrap()).collect();
        b.iter(|| {
            model.zero_grad();
            black_box(model.accumulate_gradients_batch(black_box(&refs), &targets));
            model.apply_step(&mut adam);
        })
    });
}

criterion_group!(benches, bench_training);
criterion_main!(benches);
