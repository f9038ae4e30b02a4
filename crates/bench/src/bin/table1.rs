//! Reproduces **Table 1** of the paper: median / 95th-percentile / max
//! Q-errors of the zero-shot cost model (exact vs. estimated
//! cardinalities) on the Scale, Synthetic and JOB-light workloads, plus the
//! **Index** what-if workload of Section 4.1.
//!
//! Usage: `cargo run -p zsdb_bench --release --bin table1 -- [--quick|--full]`

use zsdb_bench::{benchmark_executions, evaluation_database, train_zero_shot, ExperimentScale};
use zsdb_core::{evaluate, evaluate_predictions, FeaturizerConfig, WhatIfCostEstimator};
use zsdb_engine::WhatIfPlanner;
use zsdb_query::WorkloadKind;

fn main() {
    let scale = ExperimentScale::from_args();
    println!("# Table 1 reproduction (scale: {scale:?})\n");

    println!(
        "Training zero-shot models (with random per-database indexes for the what-if row) ..."
    );
    let (zs_exact, _) = train_zero_shot(&scale, FeaturizerConfig::exact());
    let (zs_est, _) = train_zero_shot(&scale, FeaturizerConfig::estimated());

    let mut db = evaluation_database(&scale);

    println!("\n| Workload | variant | median | 95th | max |");
    println!("|---|---|---|---|---|");

    // Plain cost-estimation rows.
    for kind in WorkloadKind::FIGURE3 {
        let eval = benchmark_executions(&db, kind, &scale);
        for (label, model) in [("Exact Card.", &zs_exact), ("Estimated Card.", &zs_est)] {
            let report = evaluate(model, &db, kind.name(), &eval);
            println!(
                "| {} | Zero-Shot ({label}) | {:.2} | {:.2} | {:.2} |",
                kind.name(),
                report.qerrors.median,
                report.qerrors.p95,
                report.qerrors.max
            );
        }
    }

    // Index what-if row: for each query of the index workload, pick a random
    // predicate attribute, ask the model for the runtime *if* an index on it
    // existed, and compare against the ground truth obtained by actually
    // building the index and executing.
    let index_workload = zsdb_query::BenchmarkWorkload::generate(
        WorkloadKind::Index,
        db.catalog(),
        scale.eval_queries,
        scale.seed ^ 0x333,
    );
    let planner = WhatIfPlanner::with_defaults();
    for (label, model) in [("Exact Card.", &zs_exact), ("Estimated Card.", &zs_est)] {
        let estimator = WhatIfCostEstimator::new(model);
        let mut pairs = Vec::new();
        for (i, query) in index_workload.queries.iter().enumerate() {
            let Some(column) = WhatIfPlanner::candidate_index_column(query, i as u64) else {
                continue;
            };
            let truth =
                planner.ground_truth_with_index(&mut db, query, column, scale.seed ^ i as u64);
            let predicted = estimator.predict_with_index(&db, query, column);
            pairs.push((predicted, truth.runtime_secs));
        }
        let report = evaluate_predictions("index", &pairs);
        println!(
            "| index | Zero-Shot ({label}) | {:.2} | {:.2} | {:.2} |",
            report.qerrors.median, report.qerrors.p95, report.qerrors.max
        );
    }
}
