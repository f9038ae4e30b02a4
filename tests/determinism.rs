//! Determinism regression suite: the entire synthetic pipeline must be a
//! pure function of its seeds.  Any accidental use of ambient entropy
//! (hash-map iteration order, time, thread scheduling) breaks zero-shot
//! training reproducibility and shows up here.

use zero_shot_db::catalog::{GeneratorConfig, SchemaGenerator};
use zero_shot_db::engine::QueryRunner;
use zero_shot_db::query::{WorkloadGenerator, WorkloadSpec};
use zero_shot_db::storage::Database;

const SEEDS: [u64; 3] = [0, 7, 0xDEAD_BEEF];

#[test]
fn same_seed_generates_identical_schemas() {
    for seed in SEEDS {
        let a = SchemaGenerator::new(GeneratorConfig::tiny()).generate("det_db", seed);
        let b = SchemaGenerator::new(GeneratorConfig::tiny()).generate("det_db", seed);
        assert_eq!(a, b, "schema generation diverged for seed {seed}");
    }
}

#[test]
fn same_seed_generates_identical_database_contents() {
    for seed in SEEDS {
        let schema = SchemaGenerator::new(GeneratorConfig::tiny()).generate("det_db", seed);
        let a = Database::generate(schema.clone(), seed ^ 0xABCD);
        let b = Database::generate(schema, seed ^ 0xABCD);
        assert_eq!(a.catalog(), b.catalog());
        for (tid, _) in a.catalog().iter_tables() {
            assert_eq!(
                a.table_data(tid),
                b.table_data(tid),
                "table {tid:?} contents diverged for seed {seed}"
            );
        }
    }
}

#[test]
fn different_seeds_generate_different_contents() {
    let schema = SchemaGenerator::new(GeneratorConfig::tiny()).generate("det_db", 5);
    let a = Database::generate(schema.clone(), 1);
    let b = Database::generate(schema, 2);
    let any_differs = a
        .catalog()
        .iter_tables()
        .any(|(tid, _)| a.table_data(tid) != b.table_data(tid));
    assert!(any_differs, "different data seeds must change the contents");
}

#[test]
fn same_seed_generates_identical_query_sequences() {
    let schema = SchemaGenerator::new(GeneratorConfig::tiny()).generate("det_db", 3);
    let db = Database::generate(schema, 4);
    let spec = WorkloadSpec::default();
    for seed in SEEDS {
        let a = WorkloadGenerator::new(spec.clone()).generate(db.catalog(), 25, seed);
        let b = WorkloadGenerator::new(spec.clone()).generate(db.catalog(), 25, seed);
        assert_eq!(a, b, "workload generation diverged for seed {seed}");
    }
    // And the sequence must actually depend on the seed.
    let a = WorkloadGenerator::new(spec.clone()).generate(db.catalog(), 25, 1);
    let b = WorkloadGenerator::new(spec).generate(db.catalog(), 25, 2);
    assert_ne!(a, b, "different workload seeds must change the queries");
}

#[test]
fn same_seed_executes_to_identical_observations() {
    let schema = SchemaGenerator::new(GeneratorConfig::tiny()).generate("det_db", 9);
    let db = Database::generate(schema, 10);
    let queries = WorkloadGenerator::with_defaults().generate(db.catalog(), 5, 11);
    let runner = QueryRunner::with_defaults(&db);
    for q in &queries {
        let a = runner.run(q, 12);
        let b = runner.run(q, 12);
        assert_eq!(a.runtime_secs.to_bits(), b.runtime_secs.to_bits());
        assert_eq!(a.aggregates, b.aggregates);
        assert_eq!(a.plan, b.plan);
    }
}

/// The serving fixture's predictions, summed in plan order, pinned to the
/// bit.  The golden was captured on the commit before `zsdb_nn` moved to
/// input-major weights and an output-tiled forward: any change to a
/// reduction order, an activation, the featurizer or the training loop
/// moves it, under either kernel and on either forward path.
#[test]
fn serving_fixture_prediction_sum_bits_are_pinned() {
    use zero_shot_db::catalog::presets;
    use zero_shot_db::zeroshot::features::featurize_plan;

    const GOLDEN_SUM_BITS: u64 = 0x4043_7a30_fb0e_84bd;

    let db = Database::generate(presets::imdb_like(0.02), 11);
    let (model, plans) = zsdb_bench::tiny_serving_fixture(&db, 40, 5);
    let graphs: Vec<_> = plans
        .iter()
        .map(|plan| featurize_plan(db.catalog(), plan, model.featurizer))
        .collect();

    let refs: Vec<_> = graphs.iter().collect();
    let per_example: f64 = graphs.iter().map(|g| model.model.predict(g)).sum();
    let batched: f64 = model.model.predict_batch(&refs).iter().sum();
    for (path, sum) in [("per-example", per_example), ("batched", batched)] {
        assert_eq!(
            sum.to_bits(),
            GOLDEN_SUM_BITS,
            "{path} sum {sum} = {:016x}",
            sum.to_bits()
        );
    }
}
