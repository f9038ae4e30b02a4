//! Catalog node states: a served forward copies the hidden state of every
//! node without a plan operator below it — Table, Column, Predicate and
//! Aggregation nodes — out of its model version's `CatalogStates` instead
//! of computing it.  These tests hold every tabled answer to the untabled
//! `predict` / `predict_batch` bit for bit — for the cost model and the
//! multi-task heads, in both feature modes, for graphs of a catalog the
//! table was not built from, for a batched group that is only partly
//! found, for hand-edited nodes the table cannot hold, and across a
//! hot-swap — count exactly which nodes are found, and prove with a table
//! of other weights that the served path really reads it.

use zero_shot_db::catalog::presets;
use zero_shot_db::engine::{PlanNode, QueryRunner};
use zero_shot_db::multitask::{
    sample_from_execution, MultiTaskConfig, MultiTaskTrainer, TrainedMultiTaskModel,
};
use zero_shot_db::query::WorkloadGenerator;
use zero_shot_db::serve::{PredictionServer, Servable, ServerConfig};
use zero_shot_db::storage::Database;
use zero_shot_db::zeroshot::features::{catalog_nodes, featurize_plan};
use zero_shot_db::zeroshot::{
    CatalogStates, FeatureMode, FeaturizerConfig, InferenceScratch, ModelConfig, NodeKind,
    PlanGraph, TrainedModel, TrainingConfig, ZeroShotCostModel,
};
use zsdb_bench::tiny_serving_fixture;

/// The serving fixture: database, trained cost model, request plans.
fn fixture() -> (Database, TrainedModel, Vec<PlanNode>) {
    let db = Database::generate(presets::imdb_like(0.02), 11);
    let (model, plans) = tiny_serving_fixture(&db, 40, 5);
    (db, model, plans)
}

/// A small multi-task model trained on `db`.
fn multitask_model(db: &Database) -> TrainedMultiTaskModel {
    let queries = WorkloadGenerator::with_defaults().generate(db.catalog(), 24, 3);
    let samples: Vec<_> = QueryRunner::with_defaults(db)
        .run_workload(&queries, 0)
        .iter()
        .map(|e| sample_from_execution(db.catalog(), e, FeaturizerConfig::estimated()))
        .collect();
    MultiTaskTrainer::new(
        MultiTaskConfig::tiny(),
        TrainingConfig {
            epochs: 2,
            validation_fraction: 0.0,
            early_stopping_patience: 0,
            batch_size: 8,
            microbatch_size: 4,
            ..TrainingConfig::default()
        },
        FeaturizerConfig::estimated(),
    )
    .train(&samples)
}

fn graphs_of(db: &Database, plans: &[PlanNode], featurizer: FeaturizerConfig) -> Vec<PlanGraph> {
    plans
        .iter()
        .map(|plan| featurize_plan(db.catalog(), plan, featurizer))
        .collect()
}

fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
    values.into_iter().map(f64::to_bits).collect()
}

/// The served cost forwards through `table`: per example, then batched.
fn served(model: &TrainedModel, graphs: &[PlanGraph], table: &CatalogStates) -> [Vec<u64>; 2] {
    let mut scratch = InferenceScratch::default();
    let refs: Vec<&PlanGraph> = graphs.iter().collect();
    [
        bits(graphs.iter().map(|g| model.forward(g, table, &mut scratch))),
        bits(model.forward_batch(&refs, table)),
    ]
}

/// The untabled predictions: per example, then batched.
fn untabled(model: &TrainedModel, graphs: &[PlanGraph]) -> [Vec<u64>; 2] {
    let refs: Vec<&PlanGraph> = graphs.iter().collect();
    [
        bits(graphs.iter().map(|g| model.predict(g))),
        bits(model.predict_batch(&refs)),
    ]
}

#[test]
fn tabled_forwards_equal_untabled_predictions_in_both_feature_modes() {
    let (db, model, plans) = fixture();
    let multitask = multitask_model(&db);
    let head_bits = TrainedMultiTaskModel::head_bits;
    for feature_mode in [FeatureMode::Transferable, FeatureMode::HashedOneHot] {
        let featurizer = FeaturizerConfig {
            feature_mode,
            ..model.featurizer
        };
        let graphs = graphs_of(&db, &plans, featurizer);
        let table = model
            .model
            .encoder()
            .catalog_states(db.catalog(), featurizer);
        assert!(!table.is_empty());
        assert_eq!(
            served(&model, &graphs, &table),
            untabled(&model, &graphs),
            "cost model, {feature_mode:?}"
        );

        let featurizer = FeaturizerConfig {
            feature_mode,
            ..multitask.featurizer
        };
        let graphs = graphs_of(&db, &plans, featurizer);
        let refs: Vec<&PlanGraph> = graphs.iter().collect();
        let table = multitask
            .model
            .encoder()
            .catalog_states(db.catalog(), featurizer);
        let reference = multitask.model.predict_batch(&refs);
        let batched = multitask.forward_batch(&refs, &table);
        for ((graph, want), got) in graphs.iter().zip(&reference).zip(&batched) {
            let single = multitask.forward(graph, &table, &mut ());
            assert_eq!(head_bits(&single), head_bits(want), "{feature_mode:?}");
            assert_eq!(head_bits(got), head_bits(want), "{feature_mode:?}");
            assert_eq!(head_bits(&multitask.model.predict(graph)), head_bits(want));
        }
    }
}

/// The table holds exactly the nodes a plan over its catalog can produce:
/// every Table, Column, Predicate and Aggregation node of every fixture
/// plan is found and no operator is, so a served forward computes its
/// operators alone.  Per distinct column the table holds 24 predicates (6
/// operators × 4 literal types: a NULL literal is featurized as an
/// integer one) and 5 aggregations, and it holds 5 aggregations without a
/// column.
#[test]
fn every_non_operator_node_is_found_and_only_operators_are_computed() {
    let (db, model, plans) = fixture();
    for feature_mode in [FeatureMode::Transferable, FeatureMode::HashedOneHot] {
        let featurizer = FeaturizerConfig {
            feature_mode,
            ..model.featurizer
        };
        let table = model
            .model
            .encoder()
            .catalog_states(db.catalog(), featurizer);
        let distinct = |kind: NodeKind| {
            let mut seen: Vec<Vec<u64>> = catalog_nodes(db.catalog(), featurizer)
                .iter()
                .filter(|n| n.kind == kind)
                .map(|n| bits(n.features.iter().copied()))
                .collect();
            seen.sort();
            seen.dedup();
            seen.len()
        };
        let (tables, columns) = (distinct(NodeKind::Table), distinct(NodeKind::Column));
        assert_eq!(
            table.len(),
            tables + columns * (1 + 24 + 5) + 5,
            "{feature_mode:?}"
        );

        let (mut computed, mut operators, mut derived) = (0, 0, 0);
        for graph in graphs_of(&db, &plans, featurizer) {
            let entries = table.entries(&graph);
            for (node, entry) in graph.nodes.iter().zip(&entries) {
                let operator = node.kind == NodeKind::PlanOperator;
                assert_eq!(
                    entry.is_none(),
                    operator,
                    "{:?}, {feature_mode:?}",
                    node.kind
                );
                derived += usize::from(matches!(
                    node.kind,
                    NodeKind::Predicate | NodeKind::Aggregation
                ));
            }
            computed += entries.iter().filter(|e| e.is_none()).count();
            operators += graph.count_kind(NodeKind::PlanOperator);
        }
        assert_eq!(computed, operators, "{feature_mode:?}");
        assert!(derived > 0, "the fixture has predicates or aggregations");
    }
}

/// The positive control: every leaf of every fixture graph is in the
/// table, and a table holding other weights' states for the same keys
/// moves every served answer — so the served path reads the table.
#[test]
fn every_fixture_leaf_is_found_and_other_states_move_every_answer() {
    let (db, model, plans) = fixture();
    let graphs = graphs_of(&db, &plans, model.featurizer);
    let table = model
        .model
        .encoder()
        .catalog_states(db.catalog(), model.featurizer);
    let mut leaves = 0;
    for graph in &graphs {
        let entries = table.entries(graph);
        for (node, entry) in graph.nodes.iter().zip(entries) {
            if matches!(node.kind, NodeKind::Table | NodeKind::Column) {
                let entry = entry.expect("every fixture leaf is in the table");
                assert_eq!(table.state(entry).len(), model.model.config().hidden_dim);
                leaves += 1;
            }
        }
    }
    assert!(
        leaves > graphs.len(),
        "every plan reads a table and a column"
    );

    let other = ZeroShotCostModel::new(ModelConfig {
        seed: 99,
        ..*model.model.config()
    });
    let perturbed = other
        .encoder()
        .catalog_states(db.catalog(), model.featurizer);
    let [single, batched] = served(&model, &graphs, &perturbed);
    let [reference, _] = untabled(&model, &graphs);
    assert_eq!(single, batched, "both forwards read the same table");
    for (got, want) in single.iter().zip(&reference) {
        assert_ne!(got, want, "an answer ignored the table");
    }
}

/// Plans of the serving catalog's database `other`, featurized for `model`.
fn foreign_graphs(other: &Database, model: &TrainedModel) -> Vec<PlanGraph> {
    let queries = WorkloadGenerator::with_defaults().generate(other.catalog(), 20, 7);
    let plans = QueryRunner::with_defaults(other).plan_workload(&queries);
    graphs_of(other, &plans, model.featurizer)
}

/// Graphs of a catalog the table was not built from keep their bits,
/// alone and in a batch mixed with the table's own.  A table or column is
/// found exactly when it equals one of the table's catalog's nodes bit
/// for bit (two catalogs can share a categorical column's statistics), a
/// predicate or aggregation exactly when its column is found (or it has
/// none), and then its state is the right one too.
#[test]
fn graphs_of_another_catalog_keep_their_bits() {
    let (db, model, plans) = fixture();
    let table = model
        .model
        .encoder()
        .catalog_states(db.catalog(), model.featurizer);
    let other = Database::generate(presets::ssb_like(0.02), 3);
    let foreign = foreign_graphs(&other, &model);
    let nodes = catalog_nodes(db.catalog(), model.featurizer);
    let mut misses = 0;
    for graph in &foreign {
        let entries = table.entries(graph);
        for (node, entry) in graph.nodes.iter().zip(&entries) {
            let expected = match node.kind {
                NodeKind::PlanOperator => false,
                NodeKind::Table | NodeKind::Column => nodes.contains(node),
                NodeKind::Predicate | NodeKind::Aggregation => {
                    node.children.iter().all(|&c| entries[c].is_some())
                }
            };
            assert_eq!(entry.is_some(), expected, "{:?}", node.kind);
            misses += usize::from(node.kind != NodeKind::PlanOperator && entry.is_none());
        }
    }
    assert!(misses > foreign.len(), "every foreign table misses");
    assert_eq!(served(&model, &foreign, &table), untabled(&model, &foreign));

    let own = graphs_of(&db, &plans, model.featurizer);
    let mixed: Vec<PlanGraph> = own
        .into_iter()
        .zip(foreign)
        .flat_map(|(a, b)| [a, b])
        .collect();
    assert_eq!(served(&model, &mixed, &table), untabled(&model, &mixed));
}

/// One batched level-1 Predicate group holding both found members (the
/// table's own plans) and missed ones (a foreign catalog's, whose columns
/// miss): only the misses run, each over its own children, and every
/// answer keeps its bits.
#[test]
fn a_partly_found_batched_group_keeps_its_bits() {
    let (db, model, plans) = fixture();
    let table = model
        .model
        .encoder()
        .catalog_states(db.catalog(), model.featurizer);
    let other = Database::generate(presets::ssb_like(0.02), 3);
    let mut mixed = graphs_of(&db, &plans, model.featurizer);
    mixed.extend(foreign_graphs(&other, &model));
    let (mut found, mut missed) = (0, 0);
    for graph in &mixed {
        let entries = table.entries(graph);
        for (node, entry) in graph.nodes.iter().zip(&entries) {
            if node.kind == NodeKind::Predicate {
                // A predicate's one child is a column: it sits at level 1.
                assert_eq!(graph.nodes[node.children[0]].kind, NodeKind::Column);
                if entry.is_some() {
                    found += 1;
                } else {
                    missed += 1;
                }
            }
        }
    }
    assert!(found > 0 && missed > 0, "{found} found, {missed} missed");
    assert_eq!(served(&model, &mixed, &table), untabled(&model, &mixed));
}

/// A node the table cannot hold is computed: a predicate with two
/// operator bits set misses while its column is still found, and a
/// predicate over an edited column misses because its child does.  Every
/// answer keeps the untabled bits.
#[test]
fn an_edited_node_misses_and_is_computed() {
    let (db, model, plans) = fixture();
    let table = model
        .model
        .encoder()
        .catalog_states(db.catalog(), model.featurizer);
    let mut edited = Vec::new();
    for graph in graphs_of(&db, &plans, model.featurizer) {
        let Some(p) = graph
            .nodes
            .iter()
            .position(|n| n.kind == NodeKind::Predicate)
        else {
            continue;
        };
        let column = graph.nodes[p].children[0];

        let mut two_ops = graph.clone();
        let features = &mut two_ops.nodes[p].features;
        let other_op = usize::from(features[0] == 1.0);
        features[other_op] = 1.0;
        let entries = table.entries(&two_ops);
        assert!(entries[p].is_none(), "two operator bits are not enumerated");
        assert!(entries[column].is_some(), "its column is untouched");
        edited.push(two_ops);

        let mut new_column = graph;
        new_column.nodes[column].features[5] += 0.5;
        let entries = table.entries(&new_column);
        assert!(entries[column].is_none(), "an edited column misses");
        assert!(entries[p].is_none(), "so does the predicate over it");
        edited.push(new_column);
    }
    assert!(!edited.is_empty(), "the fixture has predicates");
    assert_eq!(served(&model, &edited, &table), untabled(&model, &edited));
}

/// Each version is served from its own table: after a swap every answer,
/// single and batched, is the new model's untabled prediction.
#[test]
fn a_swapped_in_version_is_served_from_its_own_table() {
    let (db, model, plans) = fixture();
    let (alternate, _) = tiny_serving_fixture(&db, 40, 6);
    let server = PredictionServer::start(
        model.clone(),
        db.catalog().clone(),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    );
    let check = |expected: &TrainedModel, version: u32| {
        let graphs = graphs_of(&db, &plans, expected.featurizer);
        let [want, _] = untabled(expected, &graphs);
        let singles: Vec<_> = plans
            .iter()
            .map(|p| server.predict_blocking(p.clone()).unwrap())
            .collect();
        let batch = server.submit_batch(plans.clone()).unwrap().wait().unwrap();
        for answers in [&singles, &batch] {
            assert!(answers.iter().all(|a| a.model_version == version));
            assert_eq!(bits(answers.iter().map(|a| a.runtime_secs)), want);
        }
        want
    };
    let first = check(&model, 1);
    let table = model
        .model
        .encoder()
        .catalog_states(db.catalog(), model.featurizer);
    assert_eq!(server.model().catalog_states.len(), table.len());
    server.swap_model(alternate.clone(), 2);
    let second = check(&alternate, 2);
    assert_ne!(first, second, "the two versions answer differently");
}
