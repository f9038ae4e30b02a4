//! The multi-task zero-shot model: one shared plan-graph encoder, one MLP
//! head per task.
//!
//! All heads read the node hidden states produced by a **single** encoder
//! pass through `zsdb_core`'s (level, kind)-batched message passing:
//!
//! * the **cost** head decodes the root state into `ln(runtime_secs)` —
//!   identical architecture (and, for the same seed, identical
//!   initialisation) to the single-task [`ZeroShotCostModel`] output MLP;
//! * the **root-cardinality** head decodes the root state into
//!   `ln(1 + rows)` of the query result before aggregation;
//! * the **per-operator cardinality** head decodes *every* plan-operator
//!   node's state into `ln(1 + rows)` of that operator's true output.
//!
//! Training accumulates one weighted joint loss
//! (`cost_weight · L_cost + root_card_weight · L_root + op_card_weight ·
//! L_op`) through a single backward pass over the shared encoder; the
//! per-operator loss is averaged over each graph's operators so plans of
//! different sizes contribute comparably.  The gradient reduction order
//! is fixed (cost → root → operator head deposits, then the encoder's
//! reverse-schedule walk), so batched multi-task training is exactly as
//! deterministic as the single-task engine.
//!
//! [`ZeroShotCostModel`]: zsdb_core::ZeroShotCostModel

use crate::sample::{operator_node_indices, MultiTaskSample};
use serde::{Deserialize, Serialize};
use zsdb_core::features::PlanGraph;
use zsdb_core::{
    BatchSchedule, CatalogStates, EncodeScratch, EncoderTrace, NodeStates, PlanEncoder,
};
use zsdb_nn::{
    active_kernel, Activation, Batch, BatchBackwardScratch, BatchForwardScratch, Mlp, MlpBatchCache,
};

/// Hyper-parameters of the multi-task model, including the per-task loss
/// weights used during joint training.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiTaskConfig {
    /// Hidden dimension of the shared encoder's node states.
    pub hidden_dim: usize,
    /// Hidden width of every task-head MLP.
    pub head_hidden_dim: usize,
    /// Weight initialisation seed (encoder seeds derive from it exactly
    /// like the single-task model's, so the shared encoder starts
    /// weight-identical for the same seed).
    pub seed: u64,
    /// Loss weight of the runtime-cost head.
    pub cost_weight: f64,
    /// Loss weight of the root-result cardinality head.
    pub root_card_weight: f64,
    /// Loss weight of the per-operator cardinality head (averaged over
    /// each graph's operators).
    pub op_card_weight: f64,
}

impl Default for MultiTaskConfig {
    fn default() -> Self {
        MultiTaskConfig {
            hidden_dim: 48,
            head_hidden_dim: 32,
            seed: 0xC0FFEE,
            cost_weight: 1.0,
            // The auxiliary heads get deliberately small weights: large
            // enough for the cardinality heads to clearly beat the
            // classical estimators, small enough that the jointly-trained
            // cost head stays within a few percent of the single-task
            // model (see `bench_multitask`).
            root_card_weight: 0.25,
            op_card_weight: 0.1,
        }
    }
}

impl MultiTaskConfig {
    /// A small configuration for unit tests (fast training).
    pub fn tiny() -> Self {
        MultiTaskConfig {
            hidden_dim: 16,
            head_hidden_dim: 8,
            seed: 7,
            ..MultiTaskConfig::default()
        }
    }
}

/// The tasks served by the model, in canonical head order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskHead {
    /// Runtime cost (seconds; trained on `ln(runtime)`).
    Cost,
    /// Root-result cardinality (rows entering the root aggregate).
    RootCardinality,
    /// Per-operator intermediate cardinality.
    OperatorCardinality,
}

impl TaskHead {
    /// All heads in canonical order.
    pub const ALL: [TaskHead; 3] = [
        TaskHead::Cost,
        TaskHead::RootCardinality,
        TaskHead::OperatorCardinality,
    ];

    /// Short stable name (used in manifests and reports).
    pub const fn name(self) -> &'static str {
        match self {
            TaskHead::Cost => "cost",
            TaskHead::RootCardinality => "root_cardinality",
            TaskHead::OperatorCardinality => "operator_cardinality",
        }
    }
}

/// All task predictions for one plan graph — one submit, every head.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiTaskPrediction {
    /// Predicted runtime in seconds.
    pub runtime_secs: f64,
    /// Predicted number of rows entering the root aggregate.
    pub root_rows: f64,
    /// Predicted output cardinality of every plan operator, aligned with
    /// [`operator_node_indices`] of the graph.
    pub operator_rows: Vec<f64>,
}

/// Result of one batched multi-task gradient-accumulation pass.
pub struct MultiTaskBackprop {
    /// Weighted joint loss over the mini-batch.
    pub loss: f64,
    /// Unweighted summed squared error of the cost head (`ln` space).
    pub cost_loss: f64,
    /// Unweighted summed squared error of the root-cardinality head.
    pub root_card_loss: f64,
    /// Unweighted per-graph-averaged squared error of the operator head.
    pub op_card_loss: f64,
    /// Per-graph predictions from the training forward pass (bit-identical
    /// to [`MultiTaskModel::predict`] under the pre-step weights).
    pub predictions: Vec<MultiTaskPrediction>,
}

/// The multi-task zero-shot model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiTaskModel {
    config: MultiTaskConfig,
    /// Shared plan-graph encoder (same type the single-task model uses).
    pub(crate) encoder: PlanEncoder,
    /// Root state → `ln(runtime_secs)`.
    pub(crate) cost_head: Mlp,
    /// Root state → `ln(1 + root rows)`.
    pub(crate) root_card_head: Mlp,
    /// Operator state → `ln(1 + operator rows)`.
    pub(crate) op_card_head: Mlp,
}

/// Inverse of the `ln(1 + rows)` target transform, clamped to a valid row
/// count.
fn rows_from_log(x: f64) -> f64 {
    (x.exp() - 1.0).max(0.0)
}

impl MultiTaskModel {
    /// Create a freshly initialised model.  The encoder derives its seeds
    /// from `config.seed` exactly like [`zsdb_core::ZeroShotCostModel`],
    /// and the cost head uses the same seed derivation as the single-task
    /// output MLP — so for equal dimensions and seed, the cost path starts
    /// weight-identical to the single-task model.
    pub fn new(config: MultiTaskConfig) -> Self {
        let h = config.hidden_dim;
        let head = |seed_salt: u64| {
            Mlp::new(
                &[h, config.head_hidden_dim, 1],
                Activation::LeakyRelu,
                config.seed ^ seed_salt,
            )
        };
        MultiTaskModel {
            encoder: PlanEncoder::new(h, config.seed),
            cost_head: head(0x20),
            root_card_head: head(0x30),
            op_card_head: head(0x40),
            config,
        }
    }

    /// The model configuration (including loss weights).
    pub fn config(&self) -> &MultiTaskConfig {
        &self.config
    }

    /// The shared plan-graph encoder.
    pub fn encoder(&self) -> &PlanEncoder {
        &self.encoder
    }

    /// Flat node ids of every plan-operator node across the mini-batch,
    /// with CSR-style per-graph offsets (`op_offsets[gi]..op_offsets[gi+1]`
    /// is graph `gi`'s slice of `op_flats`).
    fn operator_flats(graphs: &[&PlanGraph], schedule: &BatchSchedule) -> (Vec<usize>, Vec<usize>) {
        let mut op_flats = Vec::new();
        let mut op_offsets = Vec::with_capacity(graphs.len() + 1);
        op_offsets.push(0);
        for (gi, g) in graphs.iter().enumerate() {
            let base = schedule.offsets()[gi];
            for ni in operator_node_indices(g) {
                op_flats.push(base + ni);
            }
            op_offsets.push(op_flats.len());
        }
        (op_flats, op_offsets)
    }

    /// Assemble per-graph predictions from head output batches.
    fn assemble_predictions(
        cost_out: &Batch,
        root_out: &Batch,
        op_out: &Batch,
        op_offsets: &[usize],
    ) -> Vec<MultiTaskPrediction> {
        (0..cost_out.n())
            .map(|e| MultiTaskPrediction {
                runtime_secs: cost_out.get(0, e).exp(),
                root_rows: rows_from_log(root_out.get(0, e)),
                operator_rows: (op_offsets[e]..op_offsets[e + 1])
                    .map(|k| rows_from_log(op_out.get(0, k)))
                    .collect(),
            })
            .collect()
    }

    /// Predict every task for a mini-batch of graphs in one shared encoder
    /// pass.  Deterministic, and bit-identical to single-graph
    /// [`MultiTaskModel::predict`] per graph.
    pub fn predict_batch(&self, graphs: &[&PlanGraph]) -> Vec<MultiTaskPrediction> {
        self.predict_batch_with(graphs, &CatalogStates::default())
    }

    /// [`MultiTaskModel::predict_batch`] copying the state of every
    /// node `catalog` holds instead of computing it — bit-identical for
    /// every head (`zsdb_core::model`, "Catalog nodes").
    pub fn predict_batch_with(
        &self,
        graphs: &[&PlanGraph],
        catalog: &CatalogStates,
    ) -> Vec<MultiTaskPrediction> {
        if graphs.is_empty() {
            return Vec::new();
        }
        let schedule = BatchSchedule::build(graphs);
        let mut scratch = EncodeScratch::default();
        self.encoder
            .encode_batch_into(graphs, &schedule, catalog, &mut scratch);
        let states = scratch.states();
        let root_states = states.gather(schedule.roots());
        let (op_flats, op_offsets) = Self::operator_flats(graphs, &schedule);
        let op_states = states.gather(&op_flats);
        let kind = active_kernel();
        let forward = |head: &Mlp, x: &Batch| {
            head.forward_batch_into(kind, x, &mut BatchForwardScratch::default())
                .clone()
        };
        let cost_out = forward(&self.cost_head, &root_states);
        let root_out = forward(&self.root_card_head, &root_states);
        let op_out = forward(&self.op_card_head, &op_states);
        Self::assemble_predictions(&cost_out, &root_out, &op_out, &op_offsets)
    }

    /// Predict every task for one plan graph.
    pub fn predict(&self, graph: &PlanGraph) -> MultiTaskPrediction {
        self.predict_batch(&[graph])
            .pop()
            .expect("one graph in, one prediction out")
    }

    /// Batched joint training step contribution: one shared encoder
    /// forward, per-head losses with the configured weights, one backward
    /// pass accumulating gradients (no optimizer step).
    ///
    /// Loss conventions: the cost and root-cardinality heads sum squared
    /// errors per graph (in `ln` / `ln(1+·)` space); the operator head
    /// averages its squared errors over each graph's operators before
    /// summing, so a 15-operator plan does not dominate a 3-operator one.
    /// The gradient deposit order (cost → root → operator, examples
    /// ascending, then the encoder's reverse-schedule walk) is fixed, so
    /// accumulation is a deterministic function of the mini-batch.
    pub fn accumulate_gradients_batch(
        &mut self,
        samples: &[&MultiTaskSample],
    ) -> MultiTaskBackprop {
        if samples.is_empty() {
            return MultiTaskBackprop {
                loss: 0.0,
                cost_loss: 0.0,
                root_card_loss: 0.0,
                op_card_loss: 0.0,
                predictions: Vec::new(),
            };
        }
        let graphs: Vec<&PlanGraph> = samples.iter().map(|s| &s.graph).collect();
        let schedule = BatchSchedule::build(&graphs);
        let h = self.config.hidden_dim;

        // ---- Forward with caches -------------------------------------
        let (mut trace, mut states) = (EncoderTrace::default(), NodeStates::default());
        self.encoder
            .encode_batch_cached(&graphs, &schedule, &mut trace, &mut states);
        let root_states = states.gather(schedule.roots());
        let (op_flats, op_offsets) = Self::operator_flats(&graphs, &schedule);
        let op_states = states.gather(&op_flats);
        let kind = active_kernel();
        let forward_cached = |head: &Mlp, x: Batch| {
            let mut cache = MlpBatchCache::default();
            *cache.input_mut() = x;
            let out = head.forward_batch_cached_into(kind, &mut cache).clone();
            (out, cache)
        };
        let (cost_out, cost_cache) = forward_cached(&self.cost_head, root_states.clone());
        let (root_out, root_cache) = forward_cached(&self.root_card_head, root_states);
        let (op_out, op_cache) = forward_cached(&self.op_card_head, op_states);

        // ---- Losses --------------------------------------------------
        let n = samples.len();
        let w = &self.config;
        let mut cost_loss = 0.0;
        let mut root_card_loss = 0.0;
        let mut op_card_loss = 0.0;
        let mut d_cost = Batch::zeros(1, n);
        let mut d_root = Batch::zeros(1, n);
        let mut d_op = Batch::zeros(1, op_flats.len());
        for (e, s) in samples.iter().enumerate() {
            let cost_err = cost_out.get(0, e) - s.targets.runtime_secs.max(1e-9).ln();
            cost_loss += cost_err * cost_err;
            d_cost.set(0, e, w.cost_weight * 2.0 * cost_err);

            let root_err = root_out.get(0, e) - (s.targets.root_rows + 1.0).ln();
            root_card_loss += root_err * root_err;
            d_root.set(0, e, w.root_card_weight * 2.0 * root_err);

            let ops = op_offsets[e + 1] - op_offsets[e];
            // Samples built by `sample_from_execution` are aligned by
            // construction, but `MultiTaskSample` is all-public and
            // deserializable — a misaligned label vector must fail loudly
            // here, not deposit gradients into a neighbouring graph.
            assert_eq!(
                ops,
                s.targets.operator_rows.len(),
                "graph {e}: operator labels misaligned with the graph's operator nodes"
            );
            let per_op = 1.0 / ops.max(1) as f64;
            let mut graph_op_loss = 0.0;
            for (j, rows) in s.targets.operator_rows.iter().enumerate() {
                let k = op_offsets[e] + j;
                let op_err = op_out.get(0, k) - (rows + 1.0).ln();
                graph_op_loss += op_err * op_err;
                d_op.set(0, k, w.op_card_weight * per_op * 2.0 * op_err);
            }
            op_card_loss += graph_op_loss * per_op;
        }
        let loss = w.cost_weight * cost_loss
            + w.root_card_weight * root_card_loss
            + w.op_card_weight * op_card_loss;
        let predictions = Self::assemble_predictions(&cost_out, &root_out, &op_out, &op_offsets);

        // ---- Backward ------------------------------------------------
        let mut backward = BatchBackwardScratch::default();
        let mut d_states = NodeStates::zeros(h, schedule.num_nodes());
        let roots = schedule.roots();
        for (head, cache, d_out, flats) in [
            (&mut self.cost_head, &cost_cache, &d_cost, roots),
            (&mut self.root_card_head, &root_cache, &d_root, roots),
            (&mut self.op_card_head, &op_cache, &d_op, &op_flats[..]),
        ] {
            let d_state = head.backward_batch_into(kind, cache, d_out, &mut backward);
            d_states.scatter_add(flats, d_state);
        }
        self.encoder
            .backward_batch(&schedule, &mut trace, &mut d_states, &mut backward);

        MultiTaskBackprop {
            loss,
            cost_loss,
            root_card_loss,
            op_card_loss,
            predictions,
        }
    }

    /// Serialize the model to a JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("model serialization cannot fail")
    }

    /// Load a model from its JSON representation.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::sample_from_execution;
    use zsdb_catalog::presets;
    use zsdb_core::features::FeaturizerConfig;
    use zsdb_core::Trainable;
    use zsdb_engine::QueryRunner;
    use zsdb_nn::Adam;
    use zsdb_query::WorkloadGenerator;
    use zsdb_storage::Database;

    fn samples() -> Vec<MultiTaskSample> {
        let db = Database::generate(presets::imdb_like(0.02), 3);
        let runner = QueryRunner::with_defaults(&db);
        let queries = WorkloadGenerator::with_defaults().generate(db.catalog(), 24, 1);
        runner
            .run_workload(&queries, 0)
            .iter()
            .map(|e| sample_from_execution(db.catalog(), e, FeaturizerConfig::estimated()))
            .collect()
    }

    #[test]
    fn predictions_are_finite_and_shaped() {
        let samples = samples();
        let model = MultiTaskModel::new(MultiTaskConfig::tiny());
        for s in &samples {
            let p = model.predict(&s.graph);
            assert!(p.runtime_secs.is_finite() && p.runtime_secs > 0.0);
            assert!(p.root_rows.is_finite() && p.root_rows >= 0.0);
            assert_eq!(p.operator_rows.len(), s.targets.operator_rows.len());
            assert!(p.operator_rows.iter().all(|r| r.is_finite() && *r >= 0.0));
        }
    }

    #[test]
    fn batched_predictions_match_single_graph_predictions() {
        let samples = samples();
        let model = MultiTaskModel::new(MultiTaskConfig::tiny());
        let refs: Vec<&PlanGraph> = samples.iter().map(|s| &s.graph).collect();
        let batched = model.predict_batch(&refs);
        for (s, b) in samples.iter().zip(&batched) {
            let single = model.predict(&s.graph);
            assert_eq!(single.runtime_secs.to_bits(), b.runtime_secs.to_bits());
            assert_eq!(single.root_rows.to_bits(), b.root_rows.to_bits());
            assert_eq!(single.operator_rows.len(), b.operator_rows.len());
            for (x, y) in single.operator_rows.iter().zip(&b.operator_rows) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn cost_path_initialises_identically_to_single_task_model() {
        // Same seed and dimensions → the shared encoder and the cost head
        // start weight-identical to the single-task cost model, so the
        // cost prediction of a fresh multi-task model equals the fresh
        // single-task prediction bit for bit.
        let samples = samples();
        let multi = MultiTaskModel::new(MultiTaskConfig::tiny());
        let single = zsdb_core::ZeroShotCostModel::new(zsdb_core::ModelConfig::tiny());
        for s in samples.iter().take(8) {
            assert_eq!(
                multi.predict(&s.graph).runtime_secs.to_bits(),
                single.predict(&s.graph).to_bits()
            );
        }
    }

    #[test]
    fn joint_training_reduces_every_task_loss() {
        let samples = samples();
        let refs: Vec<&MultiTaskSample> = samples.iter().collect();
        let mut model = MultiTaskModel::new(MultiTaskConfig::tiny());
        let mut adam = Adam::new(3e-3);
        model.zero_grad();
        let first = model.accumulate_gradients_batch(&refs);
        model.apply_step(&mut adam);
        for _ in 0..120 {
            model.zero_grad();
            model.accumulate_gradients_batch(&refs);
            model.apply_step(&mut adam);
        }
        model.zero_grad();
        let last = model.accumulate_gradients_batch(&refs);
        assert!(
            last.cost_loss < first.cost_loss,
            "cost loss should improve: {} -> {}",
            first.cost_loss,
            last.cost_loss
        );
        assert!(
            last.root_card_loss < first.root_card_loss,
            "root-card loss should improve: {} -> {}",
            first.root_card_loss,
            last.root_card_loss
        );
        assert!(
            last.op_card_loss < first.op_card_loss,
            "op-card loss should improve: {} -> {}",
            first.op_card_loss,
            last.op_card_loss
        );
        assert!(last.loss < first.loss);
    }

    #[test]
    #[should_panic(expected = "operator labels misaligned")]
    fn misaligned_operator_labels_fail_loudly() {
        // MultiTaskSample is all-public and deserializable, so a label
        // vector that does not match the graph's operator nodes must be a
        // clean panic, never silent gradient corruption.
        let samples = samples();
        let mut bad = samples[0].clone();
        bad.targets.operator_rows.push(1.0);
        let mut model = MultiTaskModel::new(MultiTaskConfig::tiny());
        model.zero_grad();
        model.accumulate_gradients_batch(&[&bad]);
    }

    #[test]
    fn gradient_accumulation_is_deterministic() {
        let samples = samples();
        let refs: Vec<&MultiTaskSample> = samples.iter().take(6).collect();
        let mut grads = Vec::new();
        for _ in 0..2 {
            let mut model = MultiTaskModel::new(MultiTaskConfig::tiny());
            model.zero_grad();
            model.accumulate_gradients_batch(&refs);
            let mut flat = Vec::new();
            model.export_gradients(&mut flat);
            grads.push(flat);
        }
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        assert_eq!(bits(&grads[0]), bits(&grads[1]));
    }

    /// The first parameter buffer (layer 0's weights) of `mlp`.
    fn param(mlp: &mut zsdb_nn::Mlp) -> &mut zsdb_nn::ParamBuf {
        mlp.params_mut().next().expect("an MLP has parameters")
    }

    /// Layer 0's weight 0 of every head and of the encoder's combine MLP:
    /// the analytic gradient against a central finite difference of the
    /// joint weighted loss.
    #[test]
    fn cost_head_gradients_match_finite_differences() {
        let samples = samples();
        let refs: Vec<&MultiTaskSample> = samples.iter().take(4).collect();
        let mut model = MultiTaskModel::new(MultiTaskConfig::tiny());
        model.zero_grad();
        model.accumulate_gradients_batch(&refs);
        let loss_at = |m: &mut MultiTaskModel| {
            m.zero_grad();
            let bp = m.accumulate_gradients_batch(&refs);
            m.zero_grad();
            bp.loss
        };
        type Select = fn(&mut MultiTaskModel) -> &mut zsdb_nn::ParamBuf;
        let selects: [(&str, Select); 4] = [
            ("cost_head", |m| param(&mut m.cost_head)),
            ("root_card_head", |m| param(&mut m.root_card_head)),
            ("op_card_head", |m| param(&mut m.op_card_head)),
            // The combine MLP comes last in the encoder's parameters: its
            // two layers are the last four buffers.
            ("combine", |m| {
                let k = m.encoder.params().count() - 4;
                m.encoder.params_mut().nth(k).expect("combine layer 0")
            }),
        ];
        let analytic: Vec<f64> = selects.iter().map(|(_, p)| p(&mut model).grad[0]).collect();
        let eps = 1e-6;
        for ((name, p), analytic) in selects.iter().zip(analytic) {
            let orig = p(&mut model).data[0];
            p(&mut model).data[0] = orig + eps;
            let up = loss_at(&mut model);
            p(&mut model).data[0] = orig - eps;
            let down = loss_at(&mut model);
            p(&mut model).data[0] = orig;
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 1e-4 * (1.0 + numeric.abs()),
                "{name}: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn serialization_roundtrip_preserves_all_heads() {
        let samples = samples();
        let model = MultiTaskModel::new(MultiTaskConfig::tiny());
        let restored = MultiTaskModel::from_json(&model.to_json()).unwrap();
        assert_eq!(model.num_parameters(), restored.num_parameters());
        for s in samples.iter().take(5) {
            let a = model.predict(&s.graph);
            let b = restored.predict(&s.graph);
            assert_eq!(a.runtime_secs.to_bits(), b.runtime_secs.to_bits());
            assert_eq!(a.root_rows.to_bits(), b.root_rows.to_bits());
            assert_eq!(a.operator_rows, b.operator_rows);
        }
    }
}
