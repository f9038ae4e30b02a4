//! Ablation: accuracy on the unseen database as a function of the number
//! of training databases.  The paper reports that "after 19 databases the
//! performance stagnated"; this binary sweeps the number of training
//! databases and prints the resulting median Q-errors so the saturation
//! point of this (simulated) setup can be read off.
//!
//! Usage: `cargo run -p zsdb_bench --release --bin training_dbs_ablation -- [--quick|--full]`

use zsdb_bench::{
    benchmark_executions, evaluation_database, print_training_settings, ExperimentScale,
};
use zsdb_core::dataset::collect_training_corpus;
use zsdb_core::{evaluate, FeaturizerConfig, ModelConfig, Trainer};
use zsdb_query::WorkloadKind;

fn main() {
    let scale = ExperimentScale::from_args();
    // The paper's ladder, up to the scale's own database count (8 quick,
    // 19 full, or `--train-dbs`).
    let sweep: Vec<usize> = [1, 2, 4, 8, 12, 16, 19]
        .into_iter()
        .filter(|&n| n <= scale.train_databases)
        .collect();
    println!("# Training-database ablation (scale: {scale:?})\n");
    print_training_settings(&scale.training_config());

    let db = evaluation_database(&scale);
    let eval = benchmark_executions(&db, WorkloadKind::Synthetic, &scale);

    println!("| training databases | training queries | median q-error | 95th |");
    println!("|---|---|---|---|");
    for &num_dbs in &sweep {
        let mut data_config = scale.training_data_config();
        data_config.num_databases = num_dbs;
        let corpus = collect_training_corpus(&data_config);
        let schemas = zsdb_catalog::SchemaGenerator::new(data_config.schema_config.clone())
            .generate_corpus("train", num_dbs, data_config.seed);
        let trainer = Trainer::new(
            ModelConfig::default(),
            scale.training_config(),
            FeaturizerConfig::exact(),
        );
        let graphs = trainer.featurize_corpus(&corpus, |name| {
            schemas.iter().find(|s| s.name == name).expect("catalog")
        });
        let trained = trainer.train(&graphs);
        let report = evaluate(&trained, &db, "synthetic", &eval);
        println!(
            "| {num_dbs} | {} | {:.2} | {:.2} |",
            corpus.len(),
            report.qerrors.median,
            report.qerrors.p95
        );
    }
}
