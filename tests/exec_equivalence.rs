//! Equivalence of the two execution strategies.
//!
//! The vectorized batch executor ([`Executor`]) must be *result-identical*
//! to the row-at-a-time reference ([`RowExecutor`]): same aggregate values
//! (bit-identical floats), same true cardinalities, same work metrics on
//! every operator of every plan.  This is the contract that makes the
//! batched rewrite safe for training-data generation — observed-runtime
//! labels cannot depend on which executor produced them.
//!
//! The suite covers optimizer-produced plans over random schemas and
//! workloads (including NULL-heavy databases and with physical indexes),
//! predicates that filter out every row, hand-built nested-loop plans (one
//! over inner keys that repeat and are NULL, under a float `SUM`), joins
//! whose stored side a predicate empties and the mistyped-join-key
//! regression.

use proptest::prelude::*;
use zero_shot_db::cardest::PostgresLikeEstimator;
use zero_shot_db::catalog::{
    presets, ColumnId, ColumnMeta, ColumnRef, ColumnStatistics, DataType, Distribution,
    GeneratorConfig, SchemaCatalog, SchemaGenerator, TableId, TableMeta, Value,
};
use zero_shot_db::engine::executor::row_width_bytes;
use zero_shot_db::engine::{
    EngineConfig, Executor, Optimizer, PhysOperator, PhysOperatorKind, PlanNode, QueryRunner,
    RowExecutor, WorkMetrics,
};
use zero_shot_db::query::{
    AggFunc, Aggregate, CmpOp, JoinCondition, Predicate, Query, WorkloadGenerator, WorkloadSpec,
};
use zero_shot_db::storage::{Database, TableData};

/// Plan `q` with the production optimizer and execute it with both
/// strategies, asserting full `QueryResult` equality (aggregates, actual
/// cardinalities and work metrics on every node).
fn assert_equivalent(db: &Database, q: &Query) {
    let est = PostgresLikeEstimator::new(db.catalog().clone());
    let optimizer = Optimizer::new(db, EngineConfig::default(), &est);
    let plan = optimizer.plan(q);
    assert_plan_equivalent(db, &plan);
    if let Some(plan) = aggregating_below_the_deepest_join(db, plan) {
        assert_plan_equivalent(db, &plan);
    }
}

/// The same plan with its root aggregating over every column of the table
/// scanned on the build (first) side of the deepest join — the column that
/// has the longest way up through stored build sides and gather lists.
/// `None` for plans without a join.
fn aggregating_below_the_deepest_join(db: &Database, mut plan: PlanNode) -> Option<PlanNode> {
    let is_join = |n: &&PlanNode| n.children.len() == 2;
    let deepest = plan.iter().filter(is_join).find(|n| n.depth() == 2)?;
    let table = deepest.children[0].op.scanned_table()?;
    let aggregates = (0..db.catalog().table(table).num_columns())
        .map(|c| ColumnRef::new(table, ColumnId(c as u32)))
        .flat_map(|column| [AggFunc::Sum, AggFunc::Min].map(|f| Aggregate::over(f, column)))
        .chain([Aggregate::count_star()])
        .collect();
    plan.op = PhysOperator::Aggregate { aggregates };
    Some(plan)
}

fn assert_plan_equivalent(db: &Database, plan: &PlanNode) {
    let batched = Executor::new(db).execute(plan);
    let row = RowExecutor::new(db).execute(plan);
    assert_eq!(batched, row, "batched and row-at-a-time execution diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random schemas × random workloads: both executors agree on every
    /// optimizer plan.
    #[test]
    fn random_workloads_are_equivalent(seed in 0u64..5_000) {
        let schema = SchemaGenerator::new(GeneratorConfig::tiny()).generate("equiv_db", seed);
        let db = Database::generate(schema, seed ^ 0xBEEF);
        let queries = WorkloadGenerator::new(WorkloadSpec {
            max_tables: 3,
            ..WorkloadSpec::default()
        })
        .generate(db.catalog(), 4, seed);
        for q in &queries {
            assert_equivalent(&db, q);
        }
    }

    /// NULL-heavy databases: predicates and aggregates must treat NULL
    /// lanes identically in both strategies.
    #[test]
    fn null_heavy_workloads_are_equivalent(seed in 0u64..5_000) {
        let config = GeneratorConfig {
            max_null_fraction: 0.9,
            ..GeneratorConfig::tiny()
        };
        let schema = SchemaGenerator::new(config).generate("null_db", seed);
        let db = Database::generate(schema, seed ^ 0xA0);
        let queries = WorkloadGenerator::with_defaults().generate(db.catalog(), 4, seed);
        for q in &queries {
            assert_equivalent(&db, q);
        }
    }

    /// With physical indexes present the optimizer may pick index scans;
    /// both executors must agree on those plans too.
    #[test]
    fn indexed_plans_are_equivalent(seed in 0u64..2_000) {
        let schema = SchemaGenerator::new(GeneratorConfig::tiny()).generate("idx_db", seed);
        let mut db = Database::generate(schema, seed);
        // Index every table's first non-key column.
        let num_tables = db.catalog().tables().len();
        for t in 0..num_tables {
            let table = TableId(t as u32);
            if db.catalog().table(table).num_columns() > 1 {
                db.create_index(ColumnRef::new(table, ColumnId(1)));
            }
        }
        let queries = WorkloadGenerator::with_defaults().generate(db.catalog(), 4, seed);
        for q in &queries {
            assert_equivalent(&db, q);
        }
    }
}

#[test]
fn all_filtered_batches_are_equivalent() {
    // A predicate no row satisfies: every batch is fully filtered, the
    // batched scan must not emit a single batch and the aggregates must be
    // the empty-input values in both strategies.
    let db = Database::generate(presets::imdb_like(0.02), 11);
    let year = db
        .catalog()
        .resolve_column("title", "production_year")
        .unwrap();
    let (title, _) = db.catalog().table_by_name("title").unwrap();
    for aggregates in [
        vec![Aggregate::count_star()],
        vec![
            Aggregate::over(AggFunc::Sum, year),
            Aggregate::over(AggFunc::Min, year),
            Aggregate::over(AggFunc::Count, year),
        ],
    ] {
        let q = Query {
            tables: vec![title],
            joins: vec![],
            predicates: vec![Predicate::new(year, CmpOp::Lt, Value::Int(i64::MIN + 1))],
            aggregates,
        };
        let est = PostgresLikeEstimator::new(db.catalog().clone());
        let optimizer = Optimizer::new(&db, EngineConfig::default(), &est);
        let plan = optimizer.plan(&q);
        let batched = Executor::new(&db).execute(&plan);
        let row = RowExecutor::new(&db).execute(&plan);
        assert_eq!(batched, row);
        assert_eq!(batched.root.children[0].actual_cardinality, 0);
    }
}

#[test]
fn join_workloads_are_equivalent() {
    let db = Database::generate(presets::imdb_like(0.03), 17);
    let queries = WorkloadGenerator::new(WorkloadSpec {
        max_tables: 4,
        ..WorkloadSpec::default()
    })
    .generate(db.catalog(), 12, 23);
    for q in &queries {
        assert_equivalent(&db, q);
    }
}

#[test]
fn float_sum_above_a_build_side_with_repeated_keys_is_bit_identical() {
    // movie_info_idx ⋈ movie_companies on movie_id is many-to-many: each
    // probe lane matches a run of build rows, and the order that run comes
    // out in decides the order SUM(info) adds its floats in.
    let db = Database::generate(presets::imdb_like(0.03), 19);
    let catalog = db.catalog();
    let info = catalog.resolve_column("movie_info_idx", "info").unwrap();
    let build_key = catalog
        .resolve_column("movie_info_idx", "movie_id")
        .unwrap();
    let probe_key = catalog
        .resolve_column("movie_companies", "movie_id")
        .unwrap();
    let node = |op, children| PlanNode {
        op,
        children,
        est_cardinality: 1.0,
        est_cost: 1.0,
        output_width: 8.0,
    };
    let scan = |table| {
        let predicates = vec![];
        node(PhysOperator::SeqScan { table, predicates }, vec![])
    };
    let join = node(
        PhysOperator::HashJoin {
            build_key,
            probe_key,
        },
        vec![scan(build_key.table), scan(probe_key.table)],
    );
    let aggregates = vec![
        Aggregate::over(AggFunc::Sum, info),
        Aggregate::over(AggFunc::Avg, info),
    ];
    let plan = node(PhysOperator::Aggregate { aggregates }, vec![join]);
    let batched = Executor::new(&db).execute(&plan);
    assert_eq!(batched, RowExecutor::new(&db).execute(&plan));
    let Value::Float(sum) = batched.aggregates[0] else {
        panic!("SUM over a float column is a float");
    };
    assert!(
        sum.is_finite() && sum.fract() != 0.0,
        "degenerate sum {sum}"
    );
    let join = &batched.root.children[0];
    assert!(
        join.actual_cardinality > 2 * join.children[0].actual_cardinality,
        "build keys do not repeat"
    );
}

#[test]
fn hand_built_nested_loop_plans_are_equivalent() {
    let db = Database::generate(presets::imdb_like(0.02), 29);
    let catalog = db.catalog();
    let (title, _) = catalog.table_by_name("title").unwrap();
    let (mc, _) = catalog.table_by_name("movie_companies").unwrap();
    let title_id = catalog.resolve_column("title", "id").unwrap();
    let movie_id = catalog
        .resolve_column("movie_companies", "movie_id")
        .unwrap();
    let scan = |t| PlanNode {
        op: PhysOperator::SeqScan {
            table: t,
            predicates: vec![],
        },
        children: vec![],
        est_cardinality: 1.0,
        est_cost: 1.0,
        output_width: 8.0,
    };
    let plan = PlanNode {
        op: PhysOperator::NestedLoopJoin {
            outer_key: movie_id,
            inner_key: title_id,
        },
        children: vec![scan(mc), scan(title)],
        est_cardinality: 1.0,
        est_cost: 1.0,
        output_width: 16.0,
    };
    assert_plan_equivalent(&db, &plan);
}

/// Two-table database whose "join" columns are deliberately mistyped: an
/// `Int` key on one side, a `Bool` column on the other, with numerically
/// overlapping values (`1` vs `true`).
fn mistyped_join_db() -> (Database, Query) {
    let mut catalog = SchemaCatalog::new("mistyped");
    let stats = |min: f64, max: f64| ColumnStatistics {
        distinct_count: 2,
        null_fraction: 0.0,
        min: Some(min),
        max: Some(max),
        distribution: Distribution::Uniform,
    };
    let left = catalog
        .add_table(TableMeta::new(
            "left",
            vec![
                ColumnMeta::primary_key("id", 4),
                ColumnMeta::new("k_int", DataType::Int, stats(0.0, 1.0)),
            ],
            4,
        ))
        .unwrap();
    let right = catalog
        .add_table(TableMeta::new(
            "right",
            vec![
                ColumnMeta::primary_key("id", 4),
                ColumnMeta::new("k_bool", DataType::Bool, stats(0.0, 1.0)),
            ],
            4,
        ))
        .unwrap();
    let left_key = catalog.resolve_column("left", "k_int").unwrap();
    let right_key = catalog.resolve_column("right", "k_bool").unwrap();
    // Declare the mistyped columns as a foreign key so the workload layer
    // accepts the join.
    catalog.add_foreign_key(left_key, right_key).unwrap();

    let mut left_data = TableData::empty(catalog.table(left));
    let mut right_data = TableData::empty(catalog.table(right));
    for i in 0..4i64 {
        left_data.push_row(&[Value::Int(i), Value::Int(i % 2)]);
        right_data.push_row(&[Value::Int(i), Value::Bool(i % 2 == 1)]);
    }
    let db = Database::from_parts(catalog, vec![left_data, right_data]);
    let q = Query {
        tables: vec![left, right],
        joins: vec![JoinCondition::new(left_key, right_key)],
        predicates: vec![],
        aggregates: vec![Aggregate::count_star()],
    };
    (db, q)
}

#[test]
fn mistyped_join_keys_never_match() {
    // Regression: the old executor coerced Cat and Bool into the Int key
    // space, so Int(1) joined Bool(true).  Typed join keys must produce
    // zero matches here — in both executors and in both join algorithms.
    let (db, q) = mistyped_join_db();
    let est = PostgresLikeEstimator::new(db.catalog().clone());
    let optimizer = Optimizer::new(&db, EngineConfig::default(), &est);
    let plan = optimizer.plan(&q);
    let batched = Executor::new(&db).execute(&plan);
    let row = RowExecutor::new(&db).execute(&plan);
    assert_eq!(batched, row);
    assert_eq!(batched.aggregates[0], Value::Int(0));

    let left_key = db.catalog().resolve_column("left", "k_int").unwrap();
    let right_key = db.catalog().resolve_column("right", "k_bool").unwrap();
    let scan = |t| PlanNode {
        op: PhysOperator::SeqScan {
            table: t,
            predicates: vec![],
        },
        children: vec![],
        est_cardinality: 4.0,
        est_cost: 1.0,
        output_width: 8.0,
    };
    let (left, _) = db.catalog().table_by_name("left").unwrap();
    let (right, _) = db.catalog().table_by_name("right").unwrap();
    for op in [
        PhysOperator::HashJoin {
            build_key: left_key,
            probe_key: right_key,
        },
        PhysOperator::NestedLoopJoin {
            outer_key: left_key,
            inner_key: right_key,
        },
    ] {
        let join = PlanNode {
            op,
            children: vec![scan(left), scan(right)],
            est_cardinality: 1.0,
            est_cost: 1.0,
            output_width: 16.0,
        };
        let is_hash_join = matches!(join.op, PhysOperator::HashJoin { .. });
        let batched = Executor::new(&db).execute(&join);
        let row = RowExecutor::new(&db).execute(&join);
        assert_eq!(batched, row);
        assert_eq!(batched.root.actual_cardinality, 0);
        // The stored side is drained and charged although nothing of it is
        // kept.
        let work = batched.root.work;
        if is_hash_join {
            // 4 tuples of Int + Int + header + 16 B per entry.
            assert_eq!(work.hash_build_tuples, 4);
            assert_eq!(work.hash_probe_tuples, 4);
            assert_eq!(work.build_bytes, 4 * (8 + 8 + 24 + 16));
        } else {
            // 4 inner tuples of Int + Bool + header, each compared with and
            // rescanned for each of the 4 outer tuples.
            assert_eq!(work.build_bytes, 4 * (8 + 1 + 24));
            assert_eq!(work.comparisons, 4 * 4);
            assert_eq!(work.input_tuples, 4 + 4 * 4);
        }
    }
}

fn plan_node(op: PhysOperator, children: Vec<PlanNode>) -> PlanNode {
    PlanNode {
        op,
        children,
        est_cardinality: 1.0,
        est_cost: 1.0,
        output_width: 8.0,
    }
}

fn scan_node(table: TableId, predicates: Vec<Predicate>) -> PlanNode {
    plan_node(PhysOperator::SeqScan { table, predicates }, vec![])
}

/// Two tables joined on `k`: `outer_t` (`id`, `k`) and `inner_t` (`id`,
/// `k`, `x`), whose keys repeat and are NULL every seventh row, and whose
/// `x` is a float with a non-trivial mantissa.
fn repeated_key_db() -> Database {
    let mut catalog = SchemaCatalog::new("repeated_keys");
    let stats = |min: f64, max: f64| ColumnStatistics {
        distinct_count: 40,
        null_fraction: 0.15,
        min: Some(min),
        max: Some(max),
        distribution: Distribution::Uniform,
    };
    let key = || ColumnMeta::new("k", DataType::Int, stats(0.0, 49.0));
    let (outer_rows, inner_rows) = (1500, 700);
    let outer = TableMeta::new(
        "outer_t",
        vec![ColumnMeta::primary_key("id", outer_rows), key()],
        outer_rows,
    );
    let inner = TableMeta::new(
        "inner_t",
        vec![
            ColumnMeta::primary_key("id", inner_rows),
            key(),
            ColumnMeta::new("x", DataType::Float, stats(0.0, 30.0)),
        ],
        inner_rows,
    );
    let outer = catalog.add_table(outer).unwrap();
    let inner = catalog.add_table(inner).unwrap();
    let mut outer_data = TableData::empty(catalog.table(outer));
    let mut inner_data = TableData::empty(catalog.table(inner));
    let key_of = |i: i64, modulus: i64| match i % 7 {
        0 => Value::Null,
        _ => Value::Int(i * 13 % modulus),
    };
    for i in 0..outer_rows as i64 {
        outer_data.push_row(&[Value::Int(i), key_of(i, 50)]);
    }
    for i in 0..inner_rows as i64 {
        let x = (i as f64).sqrt() * 1.1 + 0.1 / (i + 1) as f64;
        inner_data.push_row(&[Value::Int(i), key_of(i, 40), Value::Float(x)]);
    }
    Database::from_parts(catalog, vec![outer_data, inner_data])
}

#[test]
fn float_sum_above_a_nested_loop_with_repeated_and_null_inner_keys_is_bit_identical() {
    // Each outer lane matches a run of inner rows; the order the run comes
    // out in decides the order SUM(x) adds its floats in.
    let db = repeated_key_db();
    let catalog = db.catalog();
    let [outer_key, inner_key] =
        ["outer_t", "inner_t"].map(|t| catalog.resolve_column(t, "k").unwrap());
    let x = catalog.resolve_column("inner_t", "x").unwrap();
    let join = plan_node(
        PhysOperator::NestedLoopJoin {
            outer_key,
            inner_key,
        },
        vec![
            scan_node(outer_key.table, vec![]),
            scan_node(inner_key.table, vec![]),
        ],
    );
    let aggregates = vec![
        Aggregate::over(AggFunc::Sum, x),
        Aggregate::over(AggFunc::Avg, x),
        Aggregate::count_star(),
    ];
    let plan = plan_node(PhysOperator::Aggregate { aggregates }, vec![join]);
    let batched = Executor::new(&db).execute(&plan);
    assert_eq!(batched, RowExecutor::new(&db).execute(&plan));
    let Value::Float(sum) = batched.aggregates[0] else {
        panic!("SUM over a float column is a float");
    };
    assert!(
        sum.is_finite() && sum.fract() != 0.0,
        "degenerate sum {sum}"
    );
    let join = &batched.root.children[0];
    let inner = &join.children[1];
    assert_eq!(inner.actual_cardinality, 700);
    assert_eq!(join.work.comparisons, 1500 * 700);
    assert!(
        join.actual_cardinality > 10 * inner.actual_cardinality,
        "inner keys do not repeat"
    );
}

#[test]
fn a_side_a_predicate_empties_is_charged_without_matching() {
    // The stored side of either join is filtered to nothing; the other
    // side is still drained, and both are charged exactly.
    let db = Database::generate(presets::imdb_like(0.02), 31);
    let catalog = db.catalog();
    let title_id = catalog.resolve_column("title", "id").unwrap();
    let year = catalog.resolve_column("title", "production_year").unwrap();
    let movie_id = catalog
        .resolve_column("movie_companies", "movie_id")
        .unwrap();
    let (mc, mc_meta) = catalog.table_by_name("movie_companies").unwrap();
    let nothing = Predicate::new(year, CmpOp::Lt, Value::Int(i64::MIN + 1));
    let empty = || scan_node(title_id.table, vec![nothing]);
    let full = || scan_node(mc, vec![]);
    let rows = db.table_data(mc).num_rows() as u64;
    let mc_types: Vec<DataType> = mc_meta.columns.iter().map(|c| c.data_type).collect();
    let full_work = WorkMetrics {
        input_tuples: rows,
        output_tuples: rows,
        pages_seq: mc_meta.num_pages(),
        output_bytes: rows * row_width_bytes(&mc_types),
        ..WorkMetrics::default()
    };
    let hash_join = plan_node(
        PhysOperator::HashJoin {
            build_key: title_id,
            probe_key: movie_id,
        },
        vec![empty(), full()],
    );
    let nested_loop = plan_node(
        PhysOperator::NestedLoopJoin {
            outer_key: movie_id,
            inner_key: title_id,
        },
        vec![full(), empty()],
    );
    for (plan, full_side, join_work) in [
        (
            hash_join,
            1,
            WorkMetrics {
                input_tuples: rows,
                hash_probe_tuples: rows,
                ..WorkMetrics::default()
            },
        ),
        (
            nested_loop,
            0,
            WorkMetrics {
                input_tuples: rows,
                ..WorkMetrics::default()
            },
        ),
    ] {
        let batched = Executor::new(&db).execute(&plan);
        assert_eq!(batched, RowExecutor::new(&db).execute(&plan));
        let join = &batched.root;
        assert_eq!(join.work, join_work, "{:?}", join.kind);
        assert_eq!(join.children[full_side].work, full_work, "{:?}", join.kind);
        let emptied = &join.children[1 - full_side];
        assert_eq!(emptied.actual_cardinality, 0);
        assert_eq!(emptied.work.predicate_evals, emptied.work.input_tuples);
    }
}

#[test]
fn runner_baselines_agree_across_a_workload() {
    // End-to-end through QueryRunner: simulated runtimes (noiseless) are
    // identical because the executed trees are identical.
    let db = Database::generate(presets::imdb_like(0.02), 41);
    let runner = QueryRunner::new(
        &db,
        EngineConfig::default(),
        zero_shot_db::engine::HardwareProfile::default().noiseless(),
    );
    let queries = WorkloadGenerator::with_defaults().generate(db.catalog(), 15, 7);
    for (i, q) in queries.iter().enumerate() {
        let plan = runner.plan(q);
        let batched = runner.run_plan(q, plan.clone(), i as u64);
        let row = runner.run_plan_row_baseline(q, plan, i as u64);
        assert_eq!(batched.executed, row.executed);
        assert_eq!(batched.aggregates, row.aggregates);
        assert_eq!(batched.runtime_secs, row.runtime_secs);
    }
    // Work-metric identity must also hold operator-kind by operator-kind.
    let plan = runner.plan(&queries[0]);
    let batched = Executor::new(&db).execute(&plan);
    for node in batched.root.iter() {
        assert!(matches!(
            node.kind,
            PhysOperatorKind::SeqScan
                | PhysOperatorKind::IndexScan
                | PhysOperatorKind::HashJoin
                | PhysOperatorKind::NestedLoopJoin
                | PhysOperatorKind::Aggregate
        ));
    }
}

#[test]
fn batched_executor_matches_brute_force_counts() {
    // Independent oracle: COUNT(*) with a predicate must equal a direct
    // scan over the column data (not just agree with the row executor).
    let db = Database::generate(presets::imdb_like(0.02), 53);
    let year = db
        .catalog()
        .resolve_column("title", "production_year")
        .unwrap();
    let (title, _) = db.catalog().table_by_name("title").unwrap();
    for (op, lit) in [
        (CmpOp::Gt, Value::Int(2000)),
        (CmpOp::Leq, Value::Int(1990)),
        (CmpOp::Eq, Value::Null),
    ] {
        let predicate = Predicate::new(year, op, lit);
        let q = Query {
            tables: vec![title],
            joins: vec![],
            predicates: vec![predicate],
            aggregates: vec![Aggregate::count_star()],
        };
        let est = PostgresLikeEstimator::new(db.catalog().clone());
        let optimizer = Optimizer::new(&db, EngineConfig::default(), &est);
        let plan = optimizer.plan(&q);
        let result = Executor::new(&db).execute(&plan);
        let column = db.table_data(title).column(year.column);
        let expected = (0..column.len())
            .filter(|&r| predicate.matches(column.get(r)))
            .count() as i64;
        assert_eq!(result.aggregates[0], Value::Int(expected), "op {op}");
    }
}
