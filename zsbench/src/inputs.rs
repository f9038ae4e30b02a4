//! Seeded inputs: everything the program under test is handed comes from
//! here and is a pure function of `--seed`, so the same seed gives the
//! same databases, queries, noise and request plans, and the program only
//! ever sees generated inputs.

use crate::spans::SpanLog;
use crate::workloads::SetupClock;
use zsdb_catalog::{presets, GeneratorConfig, SchemaCatalog, SchemaGenerator};
use zsdb_core::features::featurize_execution;
use zsdb_core::{FeaturizerConfig, ModelConfig, PlanGraph, TrainedModel, Trainer, TrainingConfig};
use zsdb_engine::{plan_fingerprint, PlanNode, QueryExecution, QueryRunner};
use zsdb_query::{BenchmarkWorkload, Query, WorkloadGenerator, WorkloadKind, WorkloadSpec};
use zsdb_storage::Database;

/// Every `ORACLE_STRIDE`-th query of a corpus is re-run through the
/// row-at-a-time reference executor after the timed windows (a fixed 5%
/// sample).
pub const ORACLE_STRIDE: usize = 20;

/// Input sizes.  `full` is what `BENCHMARK.json` measures; `smoke` only
/// proves that every workload runs and emits every metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Training databases of `corpus_build` and `train_zero_shot`.
    pub corpus_dbs: usize,
    /// Queries executed per training database in `corpus_build`.
    pub corpus_queries: usize,
    /// Queries per training database behind `train_zero_shot`'s corpus
    /// (smaller, because that corpus is built three times in set-up).
    pub train_queries: usize,
    /// Graphs one timed `train_zero_shot` repetition trains on, for one
    /// epoch: the head of the corpus, so that a repetition is short enough
    /// to fit inside one speed phase of the build box.
    pub train_rep_graphs: usize,
    /// Epochs of the model `train_zero_shot` evaluates for accuracy.
    pub train_epochs: usize,
    /// Training databases behind the served model.
    pub serve_dbs: usize,
    /// Queries per training database behind the served model.
    pub serve_queries: usize,
    /// Epochs the served model is trained for.
    pub serve_epochs: usize,
    /// Distinct request plans of the `serve_*` workloads.
    pub plans: usize,
    /// Held-out evaluation queries per benchmark kind (three kinds).
    pub eval_per_kind: usize,
    /// Executions of the unseen database used for few-shot fine-tuning.
    pub fewshot_executions: usize,
    /// Scale of the unseen IMDB-like database.
    pub imdb_scale: f64,
    /// Generate training schemas with `GeneratorConfig::tiny()`.
    pub tiny_schemas: bool,
}

impl Sizes {
    /// The measured configuration.
    pub fn full() -> Self {
        Sizes {
            corpus_dbs: 6,
            corpus_queries: 250,
            train_queries: 200,
            train_rep_graphs: 400,
            train_epochs: 8,
            serve_dbs: 3,
            serve_queries: 300,
            serve_epochs: 5,
            plans: 256,
            eval_per_kind: 150,
            fewshot_executions: 100,
            imdb_scale: 0.05,
            tiny_schemas: false,
        }
    }

    /// A seconds-sized configuration for `--smoke`.
    pub fn smoke() -> Self {
        Sizes {
            corpus_dbs: 2,
            corpus_queries: 40,
            train_queries: 40,
            train_rep_graphs: 40,
            train_epochs: 2,
            serve_dbs: 2,
            serve_queries: 40,
            serve_epochs: 2,
            plans: 32,
            eval_per_kind: 20,
            fewshot_executions: 20,
            imdb_scale: 0.02,
            tiny_schemas: true,
        }
    }

    fn schema_config(&self) -> GeneratorConfig {
        if self.tiny_schemas {
            GeneratorConfig::tiny()
        } else {
            GeneratorConfig::default()
        }
    }
}

/// Independent seed streams derived from `--seed` (splitmix64 of the
/// seed and a stream tag), so no two inputs share a random sequence.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const STREAM_SCHEMA: u64 = 1;
const STREAM_DATA: u64 = 2;
const STREAM_INDEX: u64 = 3;
const STREAM_QUERIES: u64 = 4;
const STREAM_NOISE: u64 = 5;
const STREAM_UNSEEN_DB: u64 = 6;
const STREAM_REQUESTS: u64 = 7;
const STREAM_EVAL: u64 = 8;
const STREAM_FEWSHOT: u64 = 9;

/// 64-bit FNV-1a, owned by the benchmark so that no change to the
/// program can move a checksum.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Mix in one 64-bit word, little-endian byte by byte.
    pub fn write(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Checksum of what an execution contributes to training: the runtime
/// label's bits and the true cardinality of every operator.
pub fn execution_checksum(hash: &mut Fnv, execution: &QueryExecution) {
    hash.write(execution.runtime_secs.to_bits());
    for node in execution.executed.iter() {
        hash.write(node.actual_cardinality);
    }
}

/// Checksum of a request-plan stream (structure only).
pub fn plans_checksum(plans: &[PlanNode]) -> u64 {
    let mut hash = Fnv::new();
    for plan in plans {
        hash.write(plan_fingerprint(plan));
    }
    hash.finish()
}

/// q-error of one prediction: the factor by which it misses, ≥ 1.
pub fn q_error(predicted: f64, actual: f64) -> f64 {
    let p = predicted.max(1e-9);
    let a = actual.max(1e-9);
    (p / a).max(a / p)
}

/// A labelled training corpus plus what the correctness gates need.
pub struct Corpus {
    /// One labelled graph per executed query, in execution order.
    pub graphs: Vec<PlanGraph>,
    /// FNV over runtime bits and true cardinalities, in execution order.
    pub checksum: u64,
    /// Σ input tuples of every operator the executor ran.
    pub input_tuples: u64,
    /// Rows generated over all tables of all databases.
    pub rows_generated: u64,
    /// Wall time of each query's plan → execute → featurize, ns.
    pub query_ns: Vec<f64>,
    /// The databases, kept for the row-oracle pass.
    pub databases: Vec<Database>,
    /// Every `ORACLE_STRIDE`-th execution with its database index and
    /// noise seed, kept for the row-oracle pass.
    pub oracle_sample: Vec<(usize, u64, QueryExecution)>,
}

/// The paper's one-time data collection: generate `dbs` synthetic
/// databases with three random indexes each and turn `queries` random
/// queries per database into labelled plan graphs.  Single-threaded.
///
/// Each call into a layer is wrapped in a span named after it; with a
/// disabled log this is the untraced measured path.
pub fn build_corpus(
    sizes: &Sizes,
    dbs: usize,
    queries: usize,
    featurizer: FeaturizerConfig,
    seed: u64,
    spans: &mut SpanLog,
) -> Corpus {
    let mut corpus = Corpus {
        graphs: Vec::with_capacity(dbs * queries),
        checksum: 0,
        input_tuples: 0,
        rows_generated: 0,
        query_ns: Vec::with_capacity(dbs * queries),
        databases: Vec::with_capacity(dbs),
        oracle_sample: Vec::new(),
    };
    let mut hash = Fnv::new();

    spans.enter("catalog.schema_gen");
    let schemas = SchemaGenerator::new(sizes.schema_config()).generate_corpus(
        "train",
        dbs,
        derive_seed(0x5EED, STREAM_SCHEMA),
    );
    spans.exit();

    for (i, schema) in schemas.into_iter().enumerate() {
        let i64 = i as u64;
        spans.enter("storage.datagen");
        let mut db = Database::generate(schema, derive_seed(seed, STREAM_DATA).wrapping_add(i64));
        spans.exit();
        corpus.rows_generated += db
            .catalog()
            .iter_tables()
            .map(|(_, t)| t.num_tuples)
            .sum::<u64>();

        spans.enter("storage.index_build");
        db.create_random_indexes(3, derive_seed(seed, STREAM_INDEX).wrapping_add(i64));
        spans.exit();

        spans.enter("query.workload_gen");
        let workload = WorkloadGenerator::new(WorkloadSpec::paper_training()).generate(
            db.catalog(),
            queries,
            derive_seed(seed, STREAM_QUERIES).wrapping_add(i64),
        );
        spans.exit();

        let runner = QueryRunner::with_defaults(&db);
        let noise_base = derive_seed(seed, STREAM_NOISE).wrapping_add(i64 << 32);
        for (q, query) in workload.iter().enumerate() {
            let started = std::time::Instant::now();
            spans.enter("engine.plan");
            let plan = runner.plan(query);
            spans.exit();

            let noise = noise_base.wrapping_add(q as u64);
            spans.enter("engine.execute");
            let execution = runner.run_plan(query, plan, noise);
            spans.exit();

            spans.enter("core.featurize_exec");
            let graph = featurize_execution(db.catalog(), &execution, featurizer);
            spans.exit();
            corpus.query_ns.push(started.elapsed().as_nanos() as f64);

            execution_checksum(&mut hash, &execution);
            corpus.input_tuples += execution.total_work().input_tuples;
            corpus.graphs.push(graph);
            if q % ORACLE_STRIDE == 0 {
                corpus.oracle_sample.push((i, noise, execution));
            }
        }
        corpus.databases.push(db);
    }
    corpus.checksum = hash.finish();
    corpus
}

/// Re-run the oracle sample through the row-at-a-time reference executor
/// and count the executions that are not bit-identical to what the
/// batched executor produced.
pub fn oracle_mismatches(corpus: &Corpus) -> usize {
    corpus
        .oracle_sample
        .iter()
        .filter(|(db, noise, batched)| {
            let runner = QueryRunner::with_defaults(&corpus.databases[*db]);
            let row = runner.run_plan_row_baseline(&batched.query, batched.plan.clone(), *noise);
            row.executed != batched.executed
                || row.aggregates != batched.aggregates
                || row.runtime_secs.to_bits() != batched.runtime_secs.to_bits()
        })
        .count()
}

/// Training configuration of every model the benchmark trains: the
/// defaults with a fixed epoch count and `threads` gradient workers.  A
/// patience of `epochs` can never stop a run early, so the work per
/// repetition is constant, but it makes the trainer return the weights of
/// its best validation epoch instead of its last one — the last epoch of a
/// short run lands anywhere, and with it the held-out q-error.
pub fn training_config(epochs: usize, threads: usize) -> TrainingConfig {
    TrainingConfig {
        epochs,
        early_stopping_patience: epochs,
        threads,
        ..TrainingConfig::default()
    }
}

/// A trainer for the default-sized model (hidden 48; `tiny()`'s 16-wide
/// forward would hide the kernel).
pub fn trainer(epochs: usize, threads: usize, featurizer: FeaturizerConfig) -> Trainer {
    Trainer::new(
        ModelConfig::default(),
        training_config(epochs, threads),
        featurizer,
    )
}

/// The unseen database of the held-out evaluation and of every
/// `serve_*` workload.
pub fn unseen_database(sizes: &Sizes, seed: u64) -> Database {
    Database::generate(
        presets::imdb_like(sizes.imdb_scale),
        derive_seed(seed, STREAM_UNSEEN_DB),
    )
}

/// What the `serve_*` workloads serve: a model trained in set-up, the
/// unseen database's catalog, distinct request plans over it and the
/// executed runtime of each plan (the truth served predictions are
/// compared with).
pub struct ServeFixture {
    /// Served model (odd versions under `serve_swap_mix`).
    pub model: TrainedModel,
    /// Second model for `serve_swap_mix` (even versions): the same
    /// architecture after a single epoch, so its answers differ.
    pub alternate: Option<TrainedModel>,
    /// Catalog of the unseen database.
    pub catalog: SchemaCatalog,
    /// Distinct request plans (by structural fingerprint).
    pub plans: Vec<PlanNode>,
    /// Executed runtime of each plan, seconds.
    pub actual_runtime_secs: Vec<f64>,
}

/// Build the serving fixture.  `with_alternate` trains the second model.
pub fn serve_fixture(
    sizes: &Sizes,
    seed: u64,
    threads: usize,
    with_alternate: bool,
    clock: &mut SetupClock,
) -> ServeFixture {
    // Requests are featurized from plans, which carry estimates only, so
    // the served model is trained on estimated cardinalities too.
    let featurizer = FeaturizerConfig::estimated();
    let corpus = build_corpus(
        sizes,
        sizes.serve_dbs,
        sizes.serve_queries,
        featurizer,
        seed,
        &mut SpanLog::new(false),
    );
    clock.lap_split(&corpus.query_ns);
    let model = trainer(sizes.serve_epochs, threads, featurizer).train(&corpus.graphs);
    clock.lap();
    let alternate = with_alternate.then(|| trainer(1, threads, featurizer).train(&corpus.graphs));
    drop(corpus);
    clock.lap();

    let db = unseen_database(sizes, seed);
    let runner = QueryRunner::with_defaults(&db);
    let mut plans: Vec<PlanNode> = Vec::with_capacity(sizes.plans);
    let mut actual_runtime_secs = Vec::with_capacity(sizes.plans);
    let mut seen = std::collections::HashSet::new();
    // Scale-benchmark queries (1–5 joins); a few generated queries plan
    // to the same shape, so generate in rounds until enough are distinct.
    let mut round = 0u64;
    while plans.len() < sizes.plans {
        let queries = BenchmarkWorkload::generate(
            WorkloadKind::Scale,
            db.catalog(),
            sizes.plans,
            derive_seed(seed, STREAM_REQUESTS).wrapping_add(round),
        )
        .queries;
        for (q, query) in queries.iter().enumerate() {
            let plan = runner.plan(query);
            if plans.len() < sizes.plans && seen.insert(plan_fingerprint(&plan)) {
                let noise = derive_seed(seed, STREAM_NOISE).wrapping_add((round << 32) | q as u64);
                actual_runtime_secs.push(runner.run_plan(query, plan.clone(), noise).runtime_secs);
                plans.push(plan);
            }
            clock.lap();
        }
        round += 1;
        assert!(round < 64, "the scale workload stopped producing new plans");
    }
    ServeFixture {
        model,
        alternate,
        catalog: db.catalog().clone(),
        plans,
        actual_runtime_secs,
    }
}

/// Held-out evaluation set: executions of the three benchmark workloads
/// (JOB-light, scale, synthetic) on the unseen database, pooled.
pub fn heldout_executions(sizes: &Sizes, db: &Database, seed: u64) -> Vec<QueryExecution> {
    let runner = QueryRunner::with_defaults(db);
    let mut executions = Vec::with_capacity(3 * sizes.eval_per_kind);
    for (k, kind) in WorkloadKind::FIGURE3.into_iter().enumerate() {
        let queries: Vec<Query> = BenchmarkWorkload::generate(
            kind,
            db.catalog(),
            sizes.eval_per_kind,
            derive_seed(seed, STREAM_EVAL).wrapping_add(k as u64),
        )
        .queries;
        executions.extend(runner.run_workload(
            &queries,
            derive_seed(seed, STREAM_NOISE).wrapping_add((0xE7A1 + k as u64) << 32),
        ));
    }
    executions
}

/// The few executions of the unseen database a few-shot fine-tune sees.
pub fn fewshot_executions(sizes: &Sizes, db: &Database, seed: u64) -> Vec<QueryExecution> {
    let queries = WorkloadGenerator::new(WorkloadSpec::paper_training()).generate(
        db.catalog(),
        sizes.fewshot_executions,
        derive_seed(seed, STREAM_FEWSHOT),
    );
    QueryRunner::with_defaults(db).run_workload(
        &queries,
        derive_seed(seed, STREAM_NOISE).wrapping_add(0xF5 << 32),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_another_seed_another_plan_stream() {
        let sizes = Sizes::smoke();
        let build = |seed| {
            build_corpus(
                &sizes,
                sizes.corpus_dbs,
                sizes.corpus_queries,
                FeaturizerConfig::exact(),
                seed,
                &mut SpanLog::new(false),
            )
        };
        let (a, b, c) = (build(7), build(7), build(8));
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.graphs, b.graphs);
        assert_ne!(a.checksum, c.checksum);
        assert_eq!(a.graphs.len(), sizes.corpus_dbs * sizes.corpus_queries);
        assert_eq!(oracle_mismatches(&a), 0);

        let fixture = |seed| serve_fixture(&sizes, seed, 1, false, &mut SetupClock::start());
        let (x, y, z) = (fixture(7), fixture(7), fixture(8));
        assert_eq!(plans_checksum(&x.plans), plans_checksum(&y.plans));
        assert_ne!(plans_checksum(&x.plans), plans_checksum(&z.plans));
        assert_eq!(x.plans.len(), sizes.plans);
        assert_eq!(x.actual_runtime_secs, y.actual_runtime_secs);
        let distinct: std::collections::HashSet<u64> =
            x.plans.iter().map(plan_fingerprint).collect();
        assert_eq!(distinct.len(), sizes.plans);
    }

    #[test]
    fn derived_seed_streams_differ() {
        assert_ne!(derive_seed(1, STREAM_DATA), derive_seed(1, STREAM_INDEX));
        assert_ne!(derive_seed(1, STREAM_DATA), derive_seed(2, STREAM_DATA));
        assert_eq!(derive_seed(1, STREAM_DATA), derive_seed(1, STREAM_DATA));
        assert_eq!(q_error(2.0, 1.0), 2.0);
        assert_eq!(q_error(1.0, 4.0), 4.0);
    }
}
