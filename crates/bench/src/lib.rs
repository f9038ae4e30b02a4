//! # zsdb-bench
//!
//! Shared harness code for the experiment binaries that regenerate the
//! paper's Figure 3 and Table 1, and the fixtures the integration suites
//! share ([`tiny_serving_fixture`]).  Throughput and latency are measured
//! by the seeded parent/change benchmark in `zsbench/`, not here.
//!
//! Every paper binary accepts `--quick` (default) or `--full` plus
//! individual overrides (`--train-dbs N`, `--queries-per-db N`,
//! `--eval-queries N`, `--scale F`, `--epochs N`, `--threads N`), so the
//! same code can run a CI-sized sanity pass or an overnight paper-scale
//! reproduction.  An unknown flag or an unparsable value is an error that
//! names the flag ([`Flags`]).  All binaries train through the batched
//! (level, kind)-scheduled engine and print the batch/thread settings they
//! ran with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::str::FromStr;

use zsdb_catalog::presets;
use zsdb_core::dataset::{collect_training_corpus, TrainingDataConfig};
use zsdb_core::features::featurize_execution;
use zsdb_core::{FeaturizerConfig, ModelConfig, TrainedModel, Trainer, TrainingConfig};
use zsdb_engine::{EngineConfig, HardwareProfile, PlanNode, QueryExecution, QueryRunner};
use zsdb_query::{BenchmarkWorkload, WorkloadGenerator, WorkloadKind};
use zsdb_storage::Database;

/// Knobs of an experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentScale {
    /// Number of synthetic training databases for the zero-shot model.
    pub train_databases: usize,
    /// Queries executed per training database.
    pub queries_per_database: usize,
    /// Scale factor of the IMDB-like evaluation database.
    pub eval_scale: f64,
    /// Number of queries per evaluation workload.
    pub eval_queries: usize,
    /// Training-set sizes for the workload-driven baselines (Figure 3
    /// x-axis).
    pub baseline_training_sizes: Vec<usize>,
    /// Training epochs for the zero-shot model.
    pub epochs: usize,
    /// Random indexes per training database (for the Table 1 index row).
    pub random_indexes: usize,
    /// Worker threads for sharded gradient accumulation (0 = one per
    /// available CPU core; any value trains to bit-identical weights).
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
}

impl ExperimentScale {
    /// A quick configuration that finishes in a few minutes on a laptop.
    pub fn quick() -> Self {
        ExperimentScale {
            train_databases: 8,
            queries_per_database: 250,
            eval_scale: 0.04,
            eval_queries: 150,
            baseline_training_sizes: vec![100, 300, 1_000, 3_000],
            epochs: 30,
            random_indexes: 3,
            threads: 0,
            seed: 0xBEEF,
        }
    }

    /// The paper-scale configuration (19 databases × 5,000 queries,
    /// baseline training sets up to 50,000 queries).  Expect hours of
    /// runtime.
    pub fn full() -> Self {
        ExperimentScale {
            train_databases: 19,
            queries_per_database: 5_000,
            eval_scale: 0.5,
            eval_queries: 500,
            baseline_training_sizes: vec![100, 500, 1_000, 5_000, 10_000, 50_000],
            epochs: 60,
            random_indexes: 5,
            threads: 0,
            seed: 0xBEEF,
        }
    }

    /// This process's command line (`--quick`, `--full` and individual
    /// overrides); exits with status 2 on a [`FlagError`].
    pub fn from_args() -> Self {
        parse_command_line(Self::parse)
    }

    /// Parse `args` (without the program name): `--full` selects
    /// [`ExperimentScale::full`], otherwise [`ExperimentScale::quick`],
    /// and each override replaces one field of it.
    pub fn parse(args: Vec<String>) -> Result<Self, FlagError> {
        let flags = Flags::parse(
            args,
            "--train-dbs --queries-per-db --eval-queries --scale --epochs --threads",
            "--quick --full",
        )?;
        let preset = if flags.switch("--full") {
            ExperimentScale::full()
        } else {
            ExperimentScale::quick()
        };
        Ok(ExperimentScale {
            train_databases: flags.value("--train-dbs", preset.train_databases)?,
            queries_per_database: flags.value("--queries-per-db", preset.queries_per_database)?,
            eval_queries: flags.value("--eval-queries", preset.eval_queries)?,
            eval_scale: flags.value("--scale", preset.eval_scale)?,
            epochs: flags.value("--epochs", preset.epochs)?,
            threads: flags.value("--threads", preset.threads)?,
            ..preset
        })
    }

    /// Training-data configuration derived from this experiment scale.
    pub fn training_data_config(&self) -> TrainingDataConfig {
        TrainingDataConfig {
            num_databases: self.train_databases,
            queries_per_database: self.queries_per_database,
            random_indexes_per_database: self.random_indexes,
            seed: self.seed,
            ..TrainingDataConfig::default()
        }
    }

    /// Training configuration derived from this experiment scale.
    pub fn training_config(&self) -> TrainingConfig {
        TrainingConfig {
            epochs: self.epochs,
            threads: self.threads,
            ..TrainingConfig::default()
        }
    }
}

/// A command line an experiment binary refuses; the message names the
/// flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlagError(pub String);

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// The command line of an experiment binary, checked against what it
/// accepts: options (`--name value`) and switches (`--name`).  Anything
/// else is a [`FlagError`], never silently ignored.
#[derive(Debug, Default)]
pub struct Flags {
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    /// Split `args` (without the program name) into `options` with their
    /// values and `switches` (both given as whitespace-separated names).
    pub fn parse(args: Vec<String>, options: &str, switches: &str) -> Result<Self, FlagError> {
        let is = |names: &str, arg: &str| names.split_whitespace().any(|n| n == arg);
        let mut flags = Flags::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if is(options, &arg) {
                let value = args
                    .next()
                    .ok_or_else(|| FlagError(format!("{arg} needs a value")))?;
                flags.values.push((arg, value));
            } else if is(switches, &arg) {
                flags.switches.push(arg);
            } else {
                return Err(FlagError(format!("unknown flag {arg}")));
            }
        }
        Ok(flags)
    }

    /// Whether switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Option `name`'s value (its last occurrence) as a `T`, or `default`
    /// when it was not given.
    pub fn value<T: FromStr>(&self, name: &str, default: T) -> Result<T, FlagError> {
        match self.values.iter().rev().find(|(flag, _)| flag == name) {
            None => Ok(default),
            Some((flag, value)) => value
                .parse()
                .map_err(|_| FlagError(format!("invalid value {value:?} for {flag}"))),
        }
    }
}

/// Run `parse` over this process's arguments (without the program name);
/// on a [`FlagError`] print it and exit with status 2.
pub fn parse_command_line<T>(parse: impl FnOnce(Vec<String>) -> Result<T, FlagError>) -> T {
    parse(std::env::args().skip(1).collect()).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// Print the batched-trainer settings an experiment runs with (batch and
/// shard sizes, threads, early stopping) so every experiment log records
/// how its training was executed.
pub fn print_training_settings(config: &TrainingConfig) {
    println!(
        "batched trainer: batch {} · microbatch {} · threads {} · \
         validation {:.0}% · early-stopping patience {}",
        config.batch_size,
        config.microbatch_size,
        config.effective_threads(),
        config.validation_fraction * 100.0,
        config.early_stopping_patience
    );
}

/// Build the (unseen) IMDB-like evaluation database.
pub fn evaluation_database(scale: &ExperimentScale) -> Database {
    Database::generate(presets::imdb_like(scale.eval_scale), scale.seed ^ 0x1111)
}

/// Execute one of the evaluation benchmark workloads on the evaluation
/// database and return the executions (ground-truth runtimes).
pub fn benchmark_executions(
    db: &Database,
    kind: WorkloadKind,
    scale: &ExperimentScale,
) -> Vec<QueryExecution> {
    let workload =
        BenchmarkWorkload::generate(kind, db.catalog(), scale.eval_queries, scale.seed ^ 0x77);
    let runner = QueryRunner::new(db, EngineConfig::default(), HardwareProfile::default());
    runner.run_workload(&workload.queries, scale.seed ^ 0x99)
}

/// Train a zero-shot model with the given featurizer over the multi
/// database training corpus described by `scale`.  Returns the trained
/// model and the corpus size (for reporting).
pub fn train_zero_shot(
    scale: &ExperimentScale,
    featurizer: FeaturizerConfig,
) -> (TrainedModel, usize) {
    let data_config = scale.training_data_config();
    let corpus = collect_training_corpus(&data_config);
    let schemas = zsdb_catalog::SchemaGenerator::new(data_config.schema_config.clone())
        .generate_corpus("train", data_config.num_databases, data_config.seed);
    let training_config = scale.training_config();
    print_training_settings(&training_config);
    let trainer = Trainer::new(ModelConfig::default(), training_config, featurizer);
    let graphs = trainer.featurize_corpus(&corpus, |name| {
        schemas
            .iter()
            .find(|s| s.name == name)
            .expect("catalog for corpus database")
    });
    (trainer.train(&graphs), corpus.len())
}

/// Print a markdown-style table row.
pub fn print_row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Write a machine-readable benchmark report as pretty-printed JSON and
/// print the artifact path — the one emitter shared by the `BENCH_*`
/// binaries (`bench_multitask`, `bench_adapt`), so both reports are
/// formatted identically and every run ends by naming its artifact.
pub fn write_json_report<T: serde::Serialize>(path: &str, report: &T) {
    let json = serde_json::to_string_pretty(report).expect("benchmark report serialization");
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    let shown = std::fs::canonicalize(path)
        .map(|p| p.display().to_string())
        .unwrap_or_else(|_| path.to_string());
    println!("wrote {shown}");
}

/// Shared serving fixture of the integration suites: execute a
/// `num_queries` random workload on a small IMDB-like database, train a
/// tiny model on it, and return the model together with the workload's
/// optimizer plans (the request stream a serving test replays).
pub fn tiny_serving_fixture(
    db: &Database,
    num_queries: usize,
    seed: u64,
) -> (TrainedModel, Vec<PlanNode>) {
    let runner = QueryRunner::with_defaults(db);
    let queries = WorkloadGenerator::with_defaults().generate(db.catalog(), num_queries, seed);
    let graphs: Vec<_> = runner
        .run_workload(&queries, 0)
        .iter()
        .map(|e| featurize_execution(db.catalog(), e, FeaturizerConfig::exact()))
        .collect();
    let trainer = Trainer::new(
        ModelConfig::tiny(),
        TrainingConfig {
            epochs: 3,
            validation_fraction: 0.0,
            ..TrainingConfig::tiny()
        },
        FeaturizerConfig::exact(),
    );
    (trainer.train(&graphs), runner.plan_workload(&queries))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_is_smaller_than_full() {
        let quick = ExperimentScale::quick();
        let full = ExperimentScale::full();
        assert!(quick.train_databases < full.train_databases);
        assert!(quick.queries_per_database < full.queries_per_database);
        assert!(quick.baseline_training_sizes.len() <= full.baseline_training_sizes.len());
    }

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn scale_flags_override_their_preset() {
        let scale = ExperimentScale::parse(args("--full --epochs 7 --scale 0.25")).unwrap();
        assert_eq!(scale.epochs, 7);
        assert_eq!(scale.eval_scale, 0.25);
        assert_eq!(
            scale.train_databases,
            ExperimentScale::full().train_databases
        );
        let scale = ExperimentScale::parse(args("--train-dbs 3 --train-dbs 4")).unwrap();
        assert_eq!(scale.train_databases, 4, "the last occurrence wins");
        assert_eq!(scale.epochs, ExperimentScale::quick().epochs);
    }

    #[test]
    fn bad_flags_are_errors_that_name_the_flag() {
        for (line, error) in [
            ("--train-db 3", "unknown flag --train-db"),
            ("--quick 8", "unknown flag 8"),
            ("--epochs", "--epochs needs a value"),
            ("--epochs ten", "invalid value \"ten\" for --epochs"),
            ("--threads -1", "invalid value \"-1\" for --threads"),
        ] {
            let got = ExperimentScale::parse(args(line)).unwrap_err();
            assert_eq!(got.to_string(), error, "{line}");
        }
    }

    #[test]
    fn evaluation_database_has_imdb_tables() {
        let scale = ExperimentScale {
            eval_scale: 0.02,
            ..ExperimentScale::quick()
        };
        let db = evaluation_database(&scale);
        assert!(db.catalog().table_by_name("title").is_ok());
    }

    #[test]
    fn benchmark_executions_produce_runtimes() {
        let scale = ExperimentScale {
            eval_scale: 0.02,
            eval_queries: 5,
            ..ExperimentScale::quick()
        };
        let db = evaluation_database(&scale);
        let execs = benchmark_executions(&db, WorkloadKind::JobLight, &scale);
        assert_eq!(execs.len(), 5);
        assert!(execs.iter().all(|e| e.runtime_secs > 0.0));
    }
}
