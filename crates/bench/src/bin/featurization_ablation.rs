//! Ablation: transferable features vs. the hashed one-hot (identity)
//! featurization the paper argues against (Section 2.2).  Both variants
//! use the *same* architecture and multi-database training corpus; only
//! the table/column features differ.  The transferable variant should
//! generalize to the unseen IMDB-like database, the one-hot variant should
//! not.
//!
//! Usage: `cargo run -p zsdb_bench --release --bin featurization_ablation -- [--quick|--full]`

use zsdb_bench::{benchmark_executions, evaluation_database, train_zero_shot, ExperimentScale};
use zsdb_core::features::FeatureMode;
use zsdb_core::{evaluate, CardinalityMode, FeaturizerConfig};
use zsdb_query::WorkloadKind;

fn main() {
    let scale = ExperimentScale::from_args();
    println!("# Featurization ablation (scale: {scale:?})\n");

    let db = evaluation_database(&scale);

    let variants = [
        (
            "transferable (paper)",
            FeaturizerConfig {
                cardinality_mode: CardinalityMode::Exact,
                feature_mode: FeatureMode::Transferable,
            },
        ),
        (
            "hashed one-hot (non-transferable)",
            FeaturizerConfig {
                cardinality_mode: CardinalityMode::Exact,
                feature_mode: FeatureMode::HashedOneHot,
            },
        ),
    ];

    println!("| featurization | train q-error | scale | synthetic | job-light |");
    println!("|---|---|---|---|---|");
    for (label, featurizer) in variants {
        let (model, _) = train_zero_shot(&scale, featurizer);
        let mut cells = vec![
            label.to_string(),
            format!("{:.2}", model.final_train_qerror),
        ];
        for kind in WorkloadKind::FIGURE3 {
            let eval = benchmark_executions(&db, kind, &scale);
            let report = evaluate(&model, &db, kind.name(), &eval);
            cells.push(format!("{:.2}", report.qerrors.median));
        }
        zsdb_bench::print_row(&cells);
    }
}
