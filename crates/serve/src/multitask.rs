//! Serving multi-task models: one submitted plan, **all** task heads
//! answered.
//!
//! There is no second server here, and no second registry path.
//! [`MultiTaskPredictionServer`] is the sharded engine of
//! [`server`](crate::server) — fingerprint-routed bounded queues, work
//! stealing, per-shard cache slices, arena featurization, hot-swap,
//! tracing, provenance, the whole submission API — instantiated for
//! [`TrainedMultiTaskModel`], and the registry stores it through the same
//! generic calls as the cost model; this module holds only the answer type
//! and the model's [`Servable`] impl.  A request is
//! featurized **once** and pushed through the shared encoder **once**;
//! the cost, root-cardinality and per-operator heads all read that single
//! pass — which is the point of the multi-task subsystem: the marginal
//! cost of an extra task at serving time is one tiny head MLP, not
//! another model.
//!
//! Served predictions are bit-identical to the single-threaded
//! `model.predict(featurize_plan(…))` path, for every head.  Unlike the
//! cost model's, this model's forward allocates (its scratch is `()`).

use crate::provenance::ProvenanceSeed;
use crate::server::{BatchTicket, Placement, Servable, ServedModel, Server, Ticket};
use std::time::Duration;
use zsdb_core::{CatalogStates, FeaturizerConfig, PlanEncoder, PlanGraph};
use zsdb_multitask::{MultiTaskPrediction, TaskHead, TrainedMultiTaskModel};
use zsdb_obs::FlightClass;

/// One answered multi-task request: every head's output from one submit.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedMultiTaskPrediction {
    /// All task-head outputs (runtime, root cardinality, per-operator
    /// cardinalities).
    pub tasks: MultiTaskPrediction,
    /// Structural fingerprint of the request plan.
    pub fingerprint: u64,
    /// Whether featurization was skipped thanks to the feature cache.
    pub cache_hit: bool,
    /// Enqueue-to-response latency.
    pub latency: Duration,
    /// Version of the model that answered (changes across hot-swaps).
    pub model_version: u32,
    /// Shard the plan's fingerprint routes to (its cache home).
    pub home_shard: u32,
    /// Shard whose worker executed the request — differs from
    /// `home_shard` when the job was work-stolen.
    pub executed_shard: u32,
    /// Whether the request was stolen off its home queue.
    pub stolen: bool,
    /// The flight recorder's verdict on this request's latency.
    pub flight_class: FlightClass,
}

impl ServedMultiTaskPrediction {
    /// The provenance seed of this prediction (see
    /// [`Prediction::provenance_seed`](crate::Prediction::provenance_seed));
    /// the recorded predicted value is the cost head's runtime.
    pub fn provenance_seed(&self) -> ProvenanceSeed {
        ProvenanceSeed {
            fingerprint: self.fingerprint,
            model_name: TrainedMultiTaskModel::NAME,
            model_version: self.model_version,
            cache_hit: self.cache_hit,
            home_shard: self.home_shard,
            executed_shard: self.executed_shard,
            stolen: self.stolen,
            predicted_secs: self.tasks.runtime_secs,
            class: self.flight_class,
        }
    }
}

impl Servable for TrainedMultiTaskModel {
    const NAME: &'static str = "zero-shot-multitask";
    const TASK_HEADS: &'static [&'static str] = &[
        TaskHead::Cost.name(),
        TaskHead::RootCardinality.name(),
        TaskHead::OperatorCardinality.name(),
    ];
    type Scratch = ();
    type Output = MultiTaskPrediction;
    type Prediction = ServedMultiTaskPrediction;

    fn featurizer(&self) -> FeaturizerConfig {
        self.featurizer
    }

    fn encoder(&self) -> &PlanEncoder {
        self.model.encoder()
    }

    fn forward(
        &self,
        graph: &PlanGraph,
        catalog: &CatalogStates,
        _scratch: &mut (),
    ) -> MultiTaskPrediction {
        self.model
            .predict_batch_with(&[graph], catalog)
            .pop()
            .expect("one graph in, one prediction out")
    }

    fn forward_batch(
        &self,
        graphs: &[&PlanGraph],
        catalog: &CatalogStates,
    ) -> Vec<MultiTaskPrediction> {
        self.model.predict_batch_with(graphs, catalog)
    }

    /// Cost, root cardinality, then every operator's cardinality.
    fn head_bits(tasks: &MultiTaskPrediction) -> Vec<Vec<u64>> {
        vec![
            vec![tasks.runtime_secs.to_bits()],
            vec![tasks.root_rows.to_bits()],
            tasks.operator_rows.iter().map(|r| r.to_bits()).collect(),
        ]
    }

    fn answer(tasks: MultiTaskPrediction, placement: Placement) -> ServedMultiTaskPrediction {
        ServedMultiTaskPrediction {
            tasks,
            fingerprint: placement.fingerprint,
            cache_hit: placement.cache_hit,
            latency: placement.latency,
            model_version: placement.model_version,
            home_shard: placement.home_shard,
            executed_shard: placement.executed_shard,
            stolen: placement.stolen,
            flight_class: placement.flight_class,
        }
    }

    fn provenance_seed(prediction: &ServedMultiTaskPrediction) -> ProvenanceSeed {
        prediction.provenance_seed()
    }
}

/// The engine serving a multi-task model: one submit answers **every**
/// task head.
pub type MultiTaskPredictionServer = Server<TrainedMultiTaskModel>;
/// A versioned, immutable served multi-task model.
pub type ServedMultiTaskModel = ServedModel<TrainedMultiTaskModel>;
/// Claim ticket of a [`MultiTaskPredictionServer`] request.
pub type MultiTaskPredictionTicket = Ticket<ServedMultiTaskPrediction>;
/// Claim ticket of a [`MultiTaskPredictionServer`] batch.
pub type MultiTaskBatchTicket = BatchTicket<ServedMultiTaskPrediction>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{STAGE_CACHE_LOOKUP, STAGE_FORWARD, STAGE_QUEUE_WAIT};
    use crate::server::ServerConfig;
    use zsdb_catalog::{presets, SchemaCatalog};
    use zsdb_core::features::featurize_plan;
    use zsdb_core::fingerprint::plan_fingerprint;
    use zsdb_core::TrainingConfig;
    use zsdb_engine::{PlanNode, QueryRunner};
    use zsdb_multitask::{sample_from_execution, MultiTaskConfig, MultiTaskTrainer};
    use zsdb_query::WorkloadGenerator;
    use zsdb_storage::Database;

    fn fixture() -> (
        TrainedMultiTaskModel,
        SchemaCatalog,
        Vec<PlanNode>,
        Vec<zsdb_multitask::MultiTaskSample>,
    ) {
        let db = Database::generate(presets::imdb_like(0.02), 3);
        let runner = QueryRunner::with_defaults(&db);
        let queries = WorkloadGenerator::with_defaults().generate(db.catalog(), 15, 1);
        let samples: Vec<_> = runner
            .run_workload(&queries, 0)
            .iter()
            .map(|e| sample_from_execution(db.catalog(), e, FeaturizerConfig::estimated()))
            .collect();
        let trainer = MultiTaskTrainer::new(
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
        );
        let model = trainer.train(&samples);
        let plans = runner.plan_workload(&queries);
        (model, db.catalog().clone(), plans, samples)
    }

    #[test]
    fn one_submit_answers_every_head_bit_identically() {
        let (model, catalog, plans, _) = fixture();
        let server = MultiTaskPredictionServer::start(
            model.clone(),
            catalog.clone(),
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        );
        for plan in &plans {
            let served = server.predict_blocking(plan.clone()).unwrap();
            let reference = model
                .model
                .predict(&featurize_plan(&catalog, plan, model.featurizer));
            assert_eq!(
                served.tasks.runtime_secs.to_bits(),
                reference.runtime_secs.to_bits()
            );
            assert_eq!(
                served.tasks.root_rows.to_bits(),
                reference.root_rows.to_bits()
            );
            assert_eq!(served.tasks.operator_rows, reference.operator_rows);
            assert_eq!(served.fingerprint, plan_fingerprint(plan));
        }
    }

    #[test]
    fn hot_swap_serves_the_new_heads_and_invalidates_the_cache() {
        let (model, catalog, plans, samples) = fixture();
        let tuned = MultiTaskTrainer::finetune_from(
            &model,
            &samples[..8],
            zsdb_core::FinetuneConfig {
                epochs: 3,
                learning_rate: 1e-3,
                ..zsdb_core::FinetuneConfig::default()
            },
        );
        let server = MultiTaskPredictionServer::start(
            model.clone(),
            catalog.clone(),
            ServerConfig::default(),
        );
        assert_eq!(server.model_version(), 1);
        let before = server.predict_blocking(plans[0].clone()).unwrap();
        assert_eq!(before.model_version, 1);

        server.swap_model(tuned.clone(), 2);
        assert_eq!(server.model_version(), 2);
        let after = server.predict_blocking(plans[0].clone()).unwrap();
        assert_eq!(after.model_version, 2);
        assert!(!after.cache_hit, "swap invalidated the feature cache");
        let reference = tuned
            .model
            .predict(&featurize_plan(&catalog, &plans[0], tuned.featurizer));
        assert_eq!(
            after.tasks.runtime_secs.to_bits(),
            reference.runtime_secs.to_bits()
        );
        assert_eq!(
            after.tasks.root_rows.to_bits(),
            reference.root_rows.to_bits()
        );
        assert_eq!(after.tasks.operator_rows, reference.operator_rows);
        let metrics = server.metrics();
        assert_eq!(metrics.model_swaps, 1);
        assert_eq!(metrics.cache_invalidations, 1);
    }

    #[test]
    fn batch_submission_matches_singles_and_hits_the_cache() {
        let (model, catalog, plans, _) = fixture();
        let server = MultiTaskPredictionServer::start(model, catalog, ServerConfig::default());
        let singles: Vec<ServedMultiTaskPrediction> = plans
            .iter()
            .map(|p| server.predict_blocking(p.clone()).unwrap())
            .collect();
        let batch = server.submit_batch(plans.clone()).unwrap().wait().unwrap();
        assert_eq!(batch.len(), plans.len());
        for (single, batched) in singles.iter().zip(&batch) {
            assert_eq!(
                single.tasks.runtime_secs.to_bits(),
                batched.tasks.runtime_secs.to_bits()
            );
            assert_eq!(
                single.tasks.root_rows.to_bits(),
                batched.tasks.root_rows.to_bits()
            );
            assert_eq!(single.tasks.operator_rows, batched.tasks.operator_rows);
            assert!(batched.cache_hit, "singles warmed the cache");
        }
        let metrics = server.shutdown();
        assert_eq!(metrics.total_requests, 2 * plans.len() as u64);
    }

    #[test]
    fn traced_submit_marks_the_pipeline_stages() {
        let (model, catalog, plans, _) = fixture();
        let server = MultiTaskPredictionServer::start(model, catalog, ServerConfig::default());
        // Warm the cache so the traced request takes the hit path.
        server.predict_blocking(plans[0].clone()).unwrap();
        let active = server.tracer().begin().expect("tracer starts enabled");
        let id = active.id();
        let ticket = server
            .submit_traced(plans[0].clone(), Some(active))
            .unwrap();
        let (prediction, trace) = ticket.wait_traced().unwrap();
        assert!(prediction.cache_hit);
        let done = server.complete_traced(&prediction, trace.expect("trace rides the job"));
        assert_eq!(done.id, id);
        let stages: Vec<&str> = done.stages.iter().map(|s| s.name).collect();
        assert_eq!(
            stages,
            vec![STAGE_QUEUE_WAIT, STAGE_CACHE_LOOKUP, STAGE_FORWARD]
        );
        assert_eq!(
            done.total_ns,
            done.stages.iter().map(|s| s.duration_ns).sum::<u64>(),
            "stages tile the trace"
        );
        // The finished trace is queryable by id as its provenance record.
        let record = server.explain(id).expect("provenance retained");
        assert_eq!(record.trace_id, id);
        assert_eq!(record.model_name, TrainedMultiTaskModel::NAME);
        assert_ne!(record.model_name, crate::MODEL_NAME, "not the cost model");
        assert_eq!(record.model_version, prediction.model_version);
        assert_eq!(record.fingerprint, prediction.fingerprint);
        assert!(record.cache_hit);
        assert_eq!(
            record.predicted_secs.to_bits(),
            prediction.tasks.runtime_secs.to_bits()
        );
        // Default config: four shards, routed by fingerprint.
        assert_eq!(u64::from(record.home_shard), prediction.fingerprint % 4);
        assert_eq!(record.executed_shard, prediction.executed_shard);
    }

    #[test]
    fn a_stolen_request_says_so_in_its_provenance() {
        let (model, catalog, plans, _) = fixture();
        // One plan shape, so every job routes to one shard whose queue
        // holds a single job: the other three workers can only work by
        // stealing (the engine's hot-fingerprint set-up).
        let server = MultiTaskPredictionServer::start(
            model,
            catalog,
            ServerConfig {
                workers: 4,
                queue_capacity: 4,
                cache_capacity: 0,
                ..ServerConfig::default()
            },
        );
        let home = (plan_fingerprint(&plans[0]) % 4) as u32;
        let mut stolen = None;
        for _ in 0..50 {
            let tickets: Vec<_> = (0..200)
                .map(|_| {
                    let trace = server.tracer().begin();
                    server.submit_traced(plans[0].clone(), trace).unwrap()
                })
                .collect();
            for ticket in tickets {
                let (prediction, trace) = ticket.wait_traced().unwrap();
                assert_eq!(prediction.home_shard, home);
                assert_eq!(prediction.stolen, prediction.executed_shard != home);
                if prediction.stolen && stolen.is_none() {
                    stolen = Some((prediction, trace.expect("trace rides the job")));
                }
            }
            if stolen.is_some() {
                break;
            }
        }
        let (prediction, trace) = stolen.expect("a hot shard with one slot is stolen from");
        let id = server.complete_traced(&prediction, trace).id;
        let record = server.explain(id).expect("provenance retained");
        assert!(record.stolen);
        assert_eq!(record.home_shard, home);
        assert_eq!(record.executed_shard, prediction.executed_shard);
        assert_ne!(record.executed_shard, home);
    }
}
