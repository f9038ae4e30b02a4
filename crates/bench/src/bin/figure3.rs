//! Reproduces **Figure 3** of the paper: median Q-error of workload-driven
//! baselines (MSCN, E2E, Scaled Optimizer Cost) as a function of the number
//! of training queries on the IMDB-like database, compared with the
//! zero-shot model (exact / estimated cardinalities) that never saw that
//! database — plus the execution time (hours) needed to collect the
//! baselines' training queries.
//!
//! Usage: `cargo run -p zsdb_bench --release --bin figure3 -- [--quick|--full]`

use zsdb_baselines::{E2EModel, MscnConfig, MscnModel, ScaledOptimizerCost};
use zsdb_bench::{benchmark_executions, evaluation_database, train_zero_shot, ExperimentScale};
use zsdb_core::dataset::{collect_for_database, workload_execution_hours};
use zsdb_core::{evaluate, FeaturizerConfig, ModelConfig};
use zsdb_nn::QErrorSummary;
use zsdb_query::{WorkloadKind, WorkloadSpec};

fn main() {
    let scale = ExperimentScale::from_args();
    let median_qerror = |pairs: &[(f64, f64)]| QErrorSummary::from_predictions(pairs).median;
    println!("# Figure 3 reproduction (scale: {scale:?})\n");

    // 1. Zero-shot models trained on synthetic databases only.
    println!(
        "Training zero-shot models on {} synthetic databases ...",
        scale.train_databases
    );
    let (zs_exact, corpus_size) = train_zero_shot(&scale, FeaturizerConfig::exact());
    let (zs_est, _) = train_zero_shot(&scale, FeaturizerConfig::estimated());
    println!(
        "  corpus: {corpus_size} executed queries, final train q-error {:.2} (exact) / {:.2} (est.)\n",
        zs_exact.final_train_qerror, zs_est.final_train_qerror
    );

    // 2. The unseen evaluation database and its benchmark workloads.
    let db = evaluation_database(&scale);

    // 3. Training pool for the workload-driven baselines (queries executed
    //    on the *target* database, as the paper's x-axis).
    let max_training = *scale.baseline_training_sizes.iter().max().unwrap_or(&100);
    println!(
        "Collecting up to {max_training} baseline training queries on the target database ..."
    );
    let baseline_pool = collect_for_database(
        &db,
        &WorkloadSpec::paper_training(),
        max_training,
        scale.seed ^ 0xABC,
    );

    for kind in WorkloadKind::FIGURE3 {
        let eval = benchmark_executions(&db, kind, &scale);
        println!("\n## Workload: {}  ({} queries)\n", kind.name(), eval.len());
        println!("| training queries | MSCN | E2E | Scaled Opt. Cost | Zero-Shot (exact) | Zero-Shot (est.) | exec. time (h) |");
        println!("|---|---|---|---|---|---|---|");

        let zs_exact_report = evaluate(&zs_exact, &db, kind.name(), &eval);
        let zs_est_report = evaluate(&zs_est, &db, kind.name(), &eval);

        for &n in &scale.baseline_training_sizes {
            let train_slice = &baseline_pool[..n.min(baseline_pool.len())];

            let opt = ScaledOptimizerCost::fit(train_slice);
            let opt_q = median_qerror(
                &eval
                    .iter()
                    .map(|e| (opt.predict(e), e.runtime_secs))
                    .collect::<Vec<_>>(),
            );

            let mut mscn = MscnModel::new(db.catalog(), MscnConfig::default());
            mscn.train(db.catalog(), train_slice);
            let mscn_q = median_qerror(
                &eval
                    .iter()
                    .map(|e| (mscn.predict(db.catalog(), &e.query), e.runtime_secs))
                    .collect::<Vec<_>>(),
            );

            let mut e2e = E2EModel::new(ModelConfig::default(), scale.epochs, 1.5e-3);
            e2e.train(&db, train_slice);
            let e2e_q = median_qerror(
                &eval
                    .iter()
                    .map(|e| (e2e.predict(&db, e), e.runtime_secs))
                    .collect::<Vec<_>>(),
            );

            let hours = workload_execution_hours(train_slice);
            println!(
                "| {n} | {mscn_q:.2} | {e2e_q:.2} | {opt_q:.2} | {:.2} | {:.2} | {hours:.3} |",
                zs_exact_report.qerrors.median, zs_est_report.qerrors.median
            );
        }
        println!(
            "\nZero-shot models used 0 queries on the target database ({} queries on other databases).",
            corpus_size
        );
    }
}
