//! End-to-end multi-task pipeline: train the joint model on a
//! multi-database corpus, register the artifact in the persistent
//! registry, load it back through the all-heads integrity check, serve it
//! concurrently (one submit → every head), and **close the loop**: drive
//! the System-R optimizer and the what-if planner with the registry-loaded
//! model's learned cardinality head on a database the model never saw.

use std::sync::Arc;
use zero_shot_db::cardest::{CardinalityEstimator, PostgresLikeEstimator};
use zero_shot_db::catalog::presets;
use zero_shot_db::engine::fingerprint::Fnv64;
use zero_shot_db::engine::{EngineConfig, Optimizer, PhysOperatorKind, PlanNode, QueryRunner};
use zero_shot_db::multitask::{
    sample_from_execution, LearnedCardEstimator, MultiTaskConfig, MultiTaskModel, MultiTaskSample,
    MultiTaskTrainer, TrainedMultiTaskModel,
};
use zero_shot_db::query::{CmpOp, Predicate, Query, WorkloadGenerator};
use zero_shot_db::serve::{
    ModelRegistry, MultiTaskPredictionServer, ServeError, ServedMultiTaskPrediction, ServerConfig,
};
use zero_shot_db::storage::Database;
use zero_shot_db::zeroshot::features::featurize_plan;
use zero_shot_db::zeroshot::{FeaturizerConfig, FinetuneConfig, TrainingConfig};
use zsdb_catalog::Value;

/// Executed samples of two synthetic databases (estimated featurization,
/// so the cardinality heads can run at planning time).
fn small_corpus() -> Vec<MultiTaskSample> {
    let mut samples: Vec<MultiTaskSample> = Vec::new();
    for seed in [31u64, 32] {
        let db = Database::generate(presets::imdb_like(0.02), seed);
        let runner = QueryRunner::with_defaults(&db);
        let queries = WorkloadGenerator::with_defaults().generate(db.catalog(), 40, seed);
        samples.extend(
            runner
                .run_workload(&queries, 0)
                .iter()
                .map(|e| sample_from_execution(db.catalog(), e, FeaturizerConfig::estimated())),
        );
    }
    samples
}

/// Train a small multi-task model on [`small_corpus`].
fn train_small_model() -> TrainedMultiTaskModel {
    MultiTaskTrainer::new(
        MultiTaskConfig::tiny(),
        TrainingConfig {
            epochs: 10,
            validation_fraction: 0.0,
            early_stopping_patience: 0,
            ..TrainingConfig::default()
        },
        FeaturizerConfig::estimated(),
    )
    .train(&small_corpus())
}

/// A database the model never saw, twenty queries on it and their
/// optimised plans.
fn unseen_workload() -> (Database, Vec<Query>, Vec<PlanNode>) {
    let db = Database::generate(presets::imdb_like(0.02), 77);
    let queries = WorkloadGenerator::with_defaults().generate(db.catalog(), 20, 13);
    let plans = QueryRunner::with_defaults(&db).plan_workload(&queries);
    (db, queries, plans)
}

/// FNV-1a over every head's bit pattern, in answer order.
fn heads_fnv(served: &[ServedMultiTaskPrediction]) -> u64 {
    let mut hash = Fnv64::new();
    for answer in served {
        hash.write_f64(answer.tasks.runtime_secs);
        hash.write_f64(answer.tasks.root_rows);
        for &rows in &answer.tasks.operator_rows {
            hash.write_f64(rows);
        }
    }
    hash.finish()
}

#[test]
fn registry_serve_and_optimizer_close_the_loop() {
    let trained = train_small_model();

    // --- A database the model has never seen -------------------------
    let (db, queries, plans) = unseen_workload();
    let runner = QueryRunner::with_defaults(&db);
    let probe_graphs: Vec<_> = plans
        .iter()
        .take(4)
        .map(|p| featurize_plan(db.catalog(), p, trained.featurizer))
        .collect();

    // --- Register + integrity-checked load ---------------------------
    let dir = std::env::temp_dir().join(format!("zsdb_multitask_e2e_{}", std::process::id()));
    let registry = ModelRegistry::open(&dir).expect("open registry");
    let version = registry
        .register("one-model", &trained, &probe_graphs)
        .expect("register multitask artifact");
    let manifest = registry
        .manifest::<MultiTaskModel>("one-model", version)
        .expect("read manifest");
    assert_eq!(
        manifest.task_heads,
        vec!["cost", "root_cardinality", "operator_cardinality"]
    );
    assert_eq!(manifest.probes.len(), 4);
    let loaded = registry
        .load::<MultiTaskModel>("one-model", version)
        .expect("integrity-checked load");

    // --- Serve: one submit answers all heads, bit-identical ----------
    let server = Arc::new(MultiTaskPredictionServer::start(
        loaded.clone(),
        db.catalog().clone(),
        ServerConfig {
            workers: 3,
            ..ServerConfig::default()
        },
    ));
    let mut clients = Vec::new();
    for c in 0..3usize {
        let server = Arc::clone(&server);
        let plans = plans.clone();
        clients.push(std::thread::spawn(move || {
            let mut served = Vec::new();
            for round in 0..10 {
                let idx = (c + round) % plans.len();
                served.push((idx, server.predict_blocking(plans[idx].clone()).unwrap()));
            }
            served
        }));
    }
    for client in clients {
        for (idx, served) in client.join().unwrap() {
            let graph = featurize_plan(db.catalog(), &plans[idx], loaded.featurizer);
            let reference = trained.model.predict(&graph);
            assert_eq!(
                served.tasks.runtime_secs.to_bits(),
                reference.runtime_secs.to_bits(),
                "served cost differs from the trained model"
            );
            assert_eq!(
                served.tasks.root_rows.to_bits(),
                reference.root_rows.to_bits(),
                "served root cardinality differs"
            );
            assert_eq!(served.tasks.operator_rows, reference.operator_rows);
        }
    }
    assert_eq!(server.metrics().total_requests, 30);

    // --- Close the loop: optimizer driven by the served model --------
    let fallback = PostgresLikeEstimator::new(db.catalog().clone());
    let learned = LearnedCardEstimator::new(&loaded, fallback);
    let optimizer = Optimizer::new(&db, EngineConfig::default(), &learned);
    for (query, _) in queries.iter().zip(&plans) {
        let plan = optimizer.plan(query);
        assert_eq!(plan.op.kind(), PhysOperatorKind::Aggregate);
        assert_eq!(plan.scanned_tables().len(), query.num_tables());
        assert!(plan.est_cost.is_finite() && plan.est_cost > 0.0);
        assert!(plan.est_cardinality.is_finite() && plan.est_cardinality >= 1.0);
        // The learned plan executes to the same results as the classical
        // plan — cardinality estimates may change the shape, never the
        // answer.
        let learned_run = runner.run_plan(query, plan, 5);
        let classical_run = runner.run(query, 5);
        assert_eq!(learned_run.aggregates, classical_run.aggregates);
    }

    // --- What-if planning with learned cardinalities ------------------
    let year = db
        .catalog()
        .resolve_column("title", "production_year")
        .unwrap();
    let (title, _) = db.catalog().table_by_name("title").unwrap();
    let whatif_query = Query {
        tables: vec![title],
        joins: vec![],
        predicates: vec![Predicate::new(year, CmpOp::Gt, Value::Int(2018))],
        aggregates: vec![zero_shot_db::query::Aggregate::count_star()],
    };
    let mut whatif = Optimizer::new(&db, EngineConfig::default(), &learned);
    whatif.add_hypothetical_index(year);
    let whatif_plan = whatif.plan(&whatif_query);
    assert!(whatif_plan.est_cost.is_finite() && whatif_plan.est_cost > 0.0);
    assert!(
        whatif_plan
            .iter()
            .any(|n| n.op.kind() == PhysOperatorKind::IndexScan),
        "hypothetical index should be picked for a selective predicate:\n{}",
        whatif_plan.explain()
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn learned_estimates_are_sane_on_an_unseen_database() {
    let trained = train_small_model();
    let db = Database::generate(presets::imdb_like(0.03), 91);
    let learned =
        LearnedCardEstimator::new(&trained, PostgresLikeEstimator::new(db.catalog().clone()));
    let queries = WorkloadGenerator::with_defaults().generate(db.catalog(), 15, 21);
    for q in &queries {
        let card = learned.query_cardinality(q);
        assert!(card.is_finite() && card >= 1.0, "query cardinality {card}");
        for &t in &q.tables {
            let rows = learned.table_cardinality(t, &q.predicates);
            let upper = db.catalog().table(t).num_tuples as f64;
            assert!(rows.is_finite() && rows >= 1.0 && rows <= upper + 0.5);
        }
    }
}

/// Every head of twenty served plans, pinned to the bit.  The golden was
/// captured on the commit before the multi-task server moved from its own
/// worker pool (allocating `featurize_plan`, one shared cache) onto the
/// sharded engine (`featurize_plan_into`, per-shard cache slices): the
/// move may not change a bit of any head, singly or batched.
#[test]
fn served_head_bits_are_pinned() {
    const GOLDEN_HEADS_FNV1A: u64 = 0x5071_fbb0_066c_ddb8;

    let (db, _, plans) = unseen_workload();
    assert_eq!(plans.len(), 20);
    let server = MultiTaskPredictionServer::start(
        train_small_model(),
        db.catalog().clone(),
        ServerConfig {
            workers: 3,
            ..ServerConfig::default()
        },
    );
    let singles: Vec<_> = plans
        .iter()
        .map(|p| server.predict_blocking(p.clone()).unwrap())
        .collect();
    let batch = server.submit_batch(plans.clone()).unwrap().wait().unwrap();
    for (path, served) in [("predict_blocking", &singles), ("submit_batch", &batch)] {
        assert_eq!(
            heads_fnv(served),
            GOLDEN_HEADS_FNV1A,
            "{path} heads hash to {:#018x}",
            heads_fnv(served)
        );
    }
}

/// What only the shared engine can do: the shard count (and with it the
/// routing, the cache slices and who executes what) moves no bit of any
/// head, also when the model is hot-swapped mid-stream.
#[test]
fn one_shard_and_three_shards_agree_across_a_hot_swap() {
    let samples = small_corpus();
    let trained = train_small_model();
    let tuned = MultiTaskTrainer::finetune_from(
        &trained,
        &samples[..8],
        FinetuneConfig {
            epochs: 3,
            learning_rate: 1e-3,
            ..FinetuneConfig::default()
        },
    );
    let (db, _, plans) = unseen_workload();
    let serve = |workers: usize| {
        let server = MultiTaskPredictionServer::start(
            trained.clone(),
            db.catalog().clone(),
            ServerConfig {
                workers,
                ..ServerConfig::default()
            },
        );
        let mut answers = Vec::new();
        for (i, plan) in plans.iter().enumerate() {
            if i == plans.len() / 2 {
                server.swap_model(tuned.clone(), 2);
            }
            answers.push(server.predict_blocking(plan.clone()).unwrap());
        }
        answers.extend(server.submit_batch(plans.clone()).unwrap().wait().unwrap());
        for answer in &answers {
            assert_eq!(
                u64::from(answer.home_shard),
                answer.fingerprint % workers as u64,
                "answers are placed by the sharded engine"
            );
        }
        answers
    };
    let (one, three) = (serve(1), serve(3));
    assert_eq!(one.len(), 2 * plans.len());
    for (i, (a, b)) in one.iter().zip(&three).enumerate() {
        assert_eq!(a.model_version, if i < plans.len() / 2 { 1 } else { 2 });
        assert_eq!(a.model_version, b.model_version);
        assert_eq!(a.fingerprint, b.fingerprint);
    }
    assert_eq!(heads_fnv(&one), heads_fnv(&three));
    // The swap is visible: the same plan answers differently before
    // (single, version 1) and after (batch, version 2).
    assert_ne!(heads_fnv(&one[..1]), heads_fnv(&one[plans.len()..][..1]));
}

/// `try_submit_batch` exists on the multi-task server by construction:
/// over a one-slot queue an oversized batch is admitted in part, the
/// unsent remainder comes back in order and the admitted prefix is
/// claimable, every head bit-identical to the unserved model.
#[test]
fn try_submit_batch_returns_the_unsent_remainder_in_order() {
    let trained = train_small_model();
    let (db, _, plans) = unseen_workload();
    let server = MultiTaskPredictionServer::start(
        trained.clone(),
        db.catalog().clone(),
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            cache_capacity: 0,
            max_batch_size: 2,
        },
    );
    // Ten chunks over one queue slot: keep offering the batch until one
    // offer lands some chunks before the slot is taken.
    let mut saw_partial = false;
    for _ in 0..500 {
        let rejected = match server.try_submit_batch(plans.clone()) {
            Ok(ticket) => {
                assert_eq!(ticket.wait().unwrap().len(), plans.len());
                continue;
            }
            Err(rejected) => rejected,
        };
        assert!(matches!(rejected.reason, ServeError::Overloaded));
        let sent = plans.len() - rejected.plans.len();
        assert_eq!(rejected.plans, plans[sent..].to_vec(), "remainder in order");
        assert_eq!(rejected.answered.is_some(), sent > 0);
        if let Some(answered) = rejected.answered {
            let prefix = answered.wait().expect("admitted chunks are answered");
            assert_eq!(prefix.len(), sent);
            for (served, plan) in prefix.iter().zip(&plans) {
                let graph = featurize_plan(db.catalog(), plan, trained.featurizer);
                assert_eq!(served.tasks, trained.model.predict(&graph));
            }
            saw_partial = true;
            break;
        }
    }
    assert!(
        saw_partial,
        "a ten-chunk batch over a one-slot queue splits"
    );
    assert!(server.metrics().rejected_requests > 0);
}
