//! The zero-shot cost model: DeepSets-style bottom-up message passing over
//! plan graphs (paper Section 3.1).
//!
//! Architecture, exactly as sketched in the paper:
//!
//! 1. every node's features are encoded into a fixed-size hidden vector by
//!    a node-type-specific encoder MLP,
//! 2. the DAG is traversed bottom-up; at every node the hidden states of
//!    its children are **summed** (DeepSets) and combined with the node's
//!    own encoding through a combine MLP, producing the node's final hidden
//!    state,
//! 3. the root's hidden state is fed into an output MLP that predicts the
//!    runtime (in log space).
//!
//! Training uses plain MSE on `ln(runtime)` over a mini-batch
//! ([`ZeroShotCostModel::accumulate_gradients_batch`], in [`crate::batch`]):
//! gradients flow back through the output, combine and encoder MLPs by
//! walking the batch's (level, kind) schedule in reverse, one batched
//! backward per group of nodes.
//!
//! # Catalog nodes
//!
//! A Table or Column node has no children, and its features are the
//! catalog's statistics.  A Predicate node is featurized by its comparison
//! operator and its literal's data type, never the literal, and its one
//! child is a Column; an Aggregation node by its function, over one Column
//! or none.  So the hidden state of every node without a plan operator
//! below it is a function of the catalog and the weights alone: the same
//! for every plan that reads the table or filters or aggregates the
//! column that way.  [`CatalogStates`] holds those states for one catalog
//! and one set of weights — every Table, Column, Predicate and Aggregation
//! node a plan over the catalog can produce, as enumerated by
//! [`catalog_nodes`] — keyed by node kind, exact feature bits and the
//! entry of the node's child.  Both inference
//! forwards ([`ZeroShotCostModel::predict_log_with`] and
//! [`PlanEncoder::encode_batch_into`]) resolve a node's entry from its
//! children's entries, children first, and copy the state of a node they
//! find instead of running two MLPs for it: a served forward computes its
//! plan operators alone.
//!
//! The copy is bit-exact.  The table's states come from the per-example
//! forward's own per-node step, each derived node's from its child's
//! tabled state, and the batched forward is bit-identical to the
//! per-example one; a lookup compares every feature bit and the child's
//! entry, and a node the table does not hold — an operator, a node of
//! another catalog, a node over a computed child — is computed as without
//! a table.  So an answer never depends on which catalog its graph came
//! from.  A server builds one table per model version, before the version
//! serves.  Training never uses a table: its weights move every step, and
//! a table is only the states of the weights it was built from.

use crate::features::{catalog_nodes, FeaturizerConfig, GraphNode, NodeKind, PlanGraph};
use serde::{Deserialize, Serialize};
use zsdb_catalog::SchemaCatalog;
use zsdb_nn::{active_kernel, Activation, ForwardScratch, KernelKind, Mlp};

/// Hyper-parameters of the zero-shot cost model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Hidden dimension of node states.
    pub hidden_dim: usize,
    /// Hidden width of the final output MLP.
    pub output_hidden_dim: usize,
    /// Weight initialisation seed.
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            hidden_dim: 48,
            output_hidden_dim: 32,
            seed: 0xC0FFEE,
        }
    }
}

impl ModelConfig {
    /// A small configuration for unit tests (fast training).
    pub fn tiny() -> Self {
        ModelConfig {
            hidden_dim: 16,
            output_hidden_dim: 8,
            seed: 7,
        }
    }
}

/// The shared plan-graph encoder: per-node-kind encoder MLPs plus the
/// DeepSets combine MLP, producing one hidden state per graph node.
///
/// This is the *task-independent* part of every zero-shot model.  The
/// single-head [`ZeroShotCostModel`] puts one output MLP on top of the
/// root state; the multi-task model (`zsdb_multitask`) attaches several
/// task heads to the same states.  The batched (level, kind)-scheduled
/// message passing lives in [`crate::batch`] as methods on this type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanEncoder {
    /// Hidden dimension of node states.
    pub(crate) hidden_dim: usize,
    /// One encoder per node kind, indexed by `NodeKind::index()`.
    pub(crate) encoders: Vec<Mlp>,
    /// Combine MLP: `[own encoding ‖ sum of child states] → hidden`.
    pub(crate) combine: Mlp,
}

impl PlanEncoder {
    /// Create a freshly initialised encoder.  The per-kind encoder seeds
    /// and the combine seed are derived from `seed` exactly as the
    /// original single-head model derived them, so a `PlanEncoder` built
    /// with the same `(hidden_dim, seed)` is weight-identical to the
    /// encoder half of a pre-refactor `ZeroShotCostModel`.
    pub fn new(hidden_dim: usize, seed: u64) -> Self {
        let encoders = NodeKind::ALL
            .iter()
            .map(|kind| {
                Mlp::new(
                    &[kind.feature_dim(), hidden_dim, hidden_dim],
                    Activation::LeakyRelu,
                    seed ^ (kind.index() as u64 + 1),
                )
            })
            .collect();
        let combine = Mlp::new(
            &[2 * hidden_dim, hidden_dim, hidden_dim],
            Activation::LeakyRelu,
            seed ^ 0x10,
        );
        PlanEncoder {
            hidden_dim,
            encoders,
            combine,
        }
    }

    /// Hidden dimension of the node states this encoder produces.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Every parameter buffer in canonical order (encoders by node kind,
    /// then combine; weights before bias per layer).
    pub fn params(&self) -> impl Iterator<Item = &zsdb_nn::ParamBuf> + '_ {
        let encoders = self.encoders.iter().flat_map(Mlp::params);
        encoders.chain(self.combine.params())
    }

    /// Mutable counterpart of [`PlanEncoder::params`], same order.
    pub fn params_mut(&mut self) -> impl Iterator<Item = &mut zsdb_nn::ParamBuf> + '_ {
        let encoders = self.encoders.iter_mut().flat_map(Mlp::params_mut);
        encoders.chain(self.combine.params_mut())
    }

    /// One node's hidden state, `combine([encoder(features) ‖ Σ child
    /// states])`, with its children's states (`children`, in
    /// `node.children` order) summed: the per-example forward's one
    /// per-node step, and the one [`PlanEncoder::catalog_states`] fills its
    /// table with.
    fn node_state<'s, 'c>(
        &self,
        kind: KernelKind,
        node: &GraphNode,
        children: impl Iterator<Item = &'c [f64]>,
        mlp: &'s mut ForwardScratch,
        combine_input: &mut Vec<f64>,
    ) -> &'s [f64] {
        let h = self.hidden_dim;
        // Own encoding, then the DeepSets sum of child states, laid out
        // back-to-back as the combine MLP's input.
        combine_input.clear();
        combine_input.reserve(2 * h);
        combine_input.extend_from_slice(self.encoders[node.kind.index()].forward_into(
            kind,
            &node.features,
            mlp,
        ));
        combine_input.resize(2 * h, 0.0);
        let (_, sum) = combine_input.split_at_mut(h);
        for child in children {
            for (s, v) in sum.iter_mut().zip(child) {
                *s += v;
            }
        }
        self.combine.forward_into(kind, combine_input, mlp)
    }

    /// The hidden state, under these weights, of every node without a plan
    /// operator below it that `catalog` yields in `featurizer`'s feature
    /// mode (see the module docs, "Catalog nodes").  Sized by the catalog:
    /// one entry per distinct node.
    pub fn catalog_states(
        &self,
        catalog: &SchemaCatalog,
        featurizer: FeaturizerConfig,
    ) -> CatalogStates {
        let nodes = catalog_nodes(catalog, featurizer);
        let h = self.hidden_dim;
        let mut table = CatalogStates {
            hidden: h,
            keys: Vec::with_capacity(nodes.len()),
            states: Vec::with_capacity(nodes.len() * h),
            slots: vec![0; (2 * nodes.len()).next_power_of_two()],
        };
        let kind = active_kernel();
        let (mut mlp, mut combine_input) = (ForwardScratch::default(), Vec::new());
        // The entry of every enumerated node, as the forwards resolve it.
        let mut entries = Vec::with_capacity(nodes.len());
        for node in nodes {
            let child = child_key(&node, &entries)
                .expect("an enumerated node's child is enumerated before it");
            let hash = node_hash(node.kind, child, &node.features);
            // Equal nodes (two columns with equal statistics, their
            // predicates, a NULL and an integer literal) are one entry.
            let entry = match table.find(hash, node.kind, child, &node.features) {
                Ok(entry) => entry,
                Err(slot) => {
                    let children = node.children.iter().map(|&c| table.state(entries[c]));
                    let state =
                        self.node_state(kind, &node, children, &mut mlp, &mut combine_input);
                    table.states.extend_from_slice(state);
                    table.keys.push(NodeKey {
                        hash,
                        kind: node.kind,
                        child,
                        features: node.features,
                    });
                    table.slots[slot] = table.keys.len() as u32;
                    table.keys.len() - 1
                }
            };
            entries.push(entry as u32);
        }
        table
    }
}

/// The entry id of a node a [`CatalogStates`] does not hold, and the child
/// of a key without one.
pub(crate) const NO_ENTRY: u32 = u32::MAX;

/// The hidden states of a catalog's Table, Column, Predicate and
/// Aggregation nodes under one set of encoder weights, built by
/// [`PlanEncoder::catalog_states`] (see the module docs, "Catalog nodes").
///
/// An entry is keyed by node kind, exact feature bits and the entry of the
/// node's one child (none for a childless node).  A lookup hashes
/// the key, then compares every bit, so only an equal node over an equal
/// child is ever found.  Lookups never insert, so no request can lengthen
/// a probe beyond what the catalog's own entries built.  The default
/// table is empty: every lookup misses, and a forward through it computes
/// every node.
#[derive(Debug, Clone, Default)]
pub struct CatalogStates {
    /// State dimension of the encoder the table was built from.
    hidden: usize,
    /// What each entry is the state of.
    keys: Vec<NodeKey>,
    /// Entry `i`'s state is `states[i * hidden..(i + 1) * hidden]`.
    states: Vec<f64>,
    /// Open-addressing index over `keys`, probed linearly: `entry + 1`,
    /// or 0 where free.  A power of two, more than twice the entries, so
    /// every probe meets a free slot.
    slots: Vec<u32>,
}

/// The node a [`CatalogStates`] entry is the state of.
#[derive(Debug, Clone)]
struct NodeKey {
    hash: u64,
    kind: NodeKind,
    /// The entry of the node's one child, or [`NO_ENTRY`] for none.
    child: u32,
    features: Vec<f64>,
}

/// The child part of `node`'s key, its children's entries being
/// `entries[c]`: [`NO_ENTRY`] for a childless node, its one child's entry
/// if the table holds that child, and `None` — not in any table — for a
/// node with a computed child or with more than one.
#[inline]
fn child_key(node: &GraphNode, entries: &[u32]) -> Option<u32> {
    match node.children[..] {
        [] => Some(NO_ENTRY),
        [c] if entries[c] != NO_ENTRY => Some(entries[c]),
        _ => None,
    }
}

/// A word-wise FNV-1a over a node's kind, child entry and feature bits.
fn node_hash(kind: NodeKind, child: u32, features: &[f64]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let seed = (0xcbf2_9ce4_8422_2325 ^ kind.index() as u64).wrapping_mul(PRIME);
    let seed = (seed ^ u64::from(child)).wrapping_mul(PRIME);
    features
        .iter()
        .fold(seed, |h, f| (h ^ f.to_bits()).wrapping_mul(PRIME))
}

impl CatalogStates {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` for a table without entries.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The state of entry `entry`.
    #[inline]
    pub fn state(&self, entry: u32) -> &[f64] {
        let entry = entry as usize;
        &self.states[entry * self.hidden..(entry + 1) * self.hidden]
    }

    /// The entry of every node of `graph` (`None` where it misses), as
    /// both forwards resolve them: children first, a node found only over
    /// a found child.
    pub fn entries(&self, graph: &PlanGraph) -> Vec<Option<u32>> {
        let mut entries = Vec::with_capacity(graph.len());
        for node in &graph.nodes {
            let entry = self.resolve(node, &entries);
            entries.push(entry);
        }
        entries
            .into_iter()
            .map(|e| (e != NO_ENTRY).then_some(e))
            .collect()
    }

    /// The entry holding `node`, whose children's entries are
    /// `entries[c]`, or [`NO_ENTRY`].
    #[inline]
    pub(crate) fn resolve(&self, node: &GraphNode, entries: &[u32]) -> u32 {
        if self.keys.is_empty() {
            return NO_ENTRY;
        }
        let Some(child) = child_key(node, entries) else {
            return NO_ENTRY;
        };
        let hash = node_hash(node.kind, child, &node.features);
        self.find(hash, node.kind, child, &node.features)
            .map_or(NO_ENTRY, |entry| entry as u32)
    }

    /// The entry holding `(kind, child, features)`, or the free slot it
    /// would take.  Needs a non-empty `slots`.
    fn find(
        &self,
        hash: u64,
        kind: NodeKind,
        child: u32,
        features: &[f64],
    ) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        // Fibonacci hashing: the product's high half depends on every bit
        // of the hash.
        let mut slot = (hash.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & mask;
        while let Some(entry) = self.slots[slot].checked_sub(1) {
            let key = &self.keys[entry as usize];
            let equal = key.hash == hash
                && key.kind == kind
                && key.child == child
                && key.features.len() == features.len()
                && key
                    .features
                    .iter()
                    .zip(features)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if equal {
                return Ok(entry as usize);
            }
            slot = (slot + 1) & mask;
        }
        Err(slot)
    }
}

/// The zero-shot cost model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ZeroShotCostModel {
    pub(crate) config: ModelConfig,
    /// Shared plan-graph encoder (node-kind encoders + combine MLP).
    pub(crate) encoder: PlanEncoder,
    /// Output MLP: root hidden state → predicted `ln(runtime_secs)`.
    pub(crate) output: Mlp,
}

/// Reusable buffers for allocation-free inference (no backprop caches).
///
/// Serving workers hold one scratch per thread and push every request
/// through [`ZeroShotCostModel::predict_with`]; all buffers are reused
/// across calls, so steady-state inference performs no heap allocation.
/// The model itself is only read, so one model can be shared (`&self` /
/// `Arc`) across any number of worker threads, each with its own scratch.
#[derive(Debug, Clone, Default)]
pub struct InferenceScratch {
    /// Combined hidden state per node, one flat buffer with stride
    /// `hidden_dim` (node `i`'s state is `states[i*h..(i+1)*h]`) — a
    /// single reusable allocation instead of one `Vec` per node.
    states: Vec<f64>,
    /// The [`CatalogStates`] entry of each node, or [`NO_ENTRY`] where the
    /// node was computed: how a parent finds its child's entry.
    entries: Vec<u32>,
    /// Ping-pong buffers for the encoder/combine/output MLPs.
    mlp: ForwardScratch,
    /// `[own encoding ‖ sum of child states]` input of the combine MLP.
    combine_input: Vec<f64>,
}

impl ZeroShotCostModel {
    /// Create a freshly initialised model.
    pub fn new(config: ModelConfig) -> Self {
        let encoder = PlanEncoder::new(config.hidden_dim, config.seed);
        let output = Mlp::new(
            &[config.hidden_dim, config.output_hidden_dim, 1],
            Activation::LeakyRelu,
            config.seed ^ 0x20,
        );
        ZeroShotCostModel {
            config,
            encoder,
            output,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The shared plan-graph encoder.
    pub fn encoder(&self) -> &PlanEncoder {
        &self.encoder
    }

    /// Predict the runtime (in seconds) of a featurized plan.
    pub fn predict(&self, graph: &PlanGraph) -> f64 {
        self.predict_with(graph, &mut InferenceScratch::default())
    }

    /// Predict the log-runtime of a featurized plan (the model's native
    /// output space).
    pub fn predict_log(&self, graph: &PlanGraph) -> f64 {
        self.predict_log_with(
            graph,
            &CatalogStates::default(),
            &mut InferenceScratch::default(),
        )
    }

    /// Allocation-free runtime prediction with caller-provided scratch
    /// buffers.  Bit-identical to [`ZeroShotCostModel::predict`].
    pub fn predict_with(&self, graph: &PlanGraph, scratch: &mut InferenceScratch) -> f64 {
        self.predict_log_with(graph, &CatalogStates::default(), scratch)
            .exp()
    }

    /// Allocation-free log-runtime prediction with caller-provided scratch
    /// buffers (the serving hot path): the state of every node `catalog`
    /// holds is copied from it, every other node's is computed.  Equal
    /// bits with any table, the empty one included (see the module docs,
    /// "Catalog nodes").
    ///
    /// Performs the same floating-point operations in the same order as
    /// the training-time forward pass, but records no backprop cache,
    /// which is what makes concurrent shared-read inference cheap.
    pub fn predict_log_with(
        &self,
        graph: &PlanGraph,
        catalog: &CatalogStates,
        scratch: &mut InferenceScratch,
    ) -> f64 {
        let h = self.config.hidden_dim;
        let kind = active_kernel();
        let InferenceScratch {
            states,
            entries,
            mlp,
            combine_input,
        } = scratch;
        // Flat node-state buffer, stride `h`, and one entry per node.
        // Every slot a parent reads is fully overwritten earlier in this
        // same pass (children precede parents), so stale values from
        // previous graphs are never read and the buffers only ever *grow*
        // to the high-water mark.
        let needed = graph.len() * h;
        if states.len() < needed {
            states.resize(needed, 0.0);
        }
        if entries.len() < graph.len() {
            entries.resize(graph.len(), NO_ENTRY);
        }

        for (idx, node) in graph.nodes.iter().enumerate() {
            let entry = catalog.resolve(node, entries);
            entries[idx] = entry;
            let state = if entry == NO_ENTRY {
                let children = node.children.iter().map(|&c| &states[c * h..(c + 1) * h]);
                self.encoder
                    .node_state(kind, node, children, mlp, combine_input)
            } else {
                catalog.state(entry)
            };
            states[idx * h..(idx + 1) * h].copy_from_slice(state);
        }

        let root = graph.root;
        self.output
            .forward_into(kind, &states[root * h..(root + 1) * h], mlp)[0]
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
    use crate::features::{featurize_execution, FeaturizerConfig};
    use crate::train::Trainable;
    use zsdb_catalog::presets;
    use zsdb_engine::QueryRunner;
    use zsdb_nn::{q_error, Adam};
    use zsdb_query::WorkloadGenerator;
    use zsdb_storage::Database;

    fn graphs() -> Vec<PlanGraph> {
        let db = Database::generate(presets::imdb_like(0.02), 3);
        let runner = QueryRunner::with_defaults(&db);
        let queries = WorkloadGenerator::with_defaults().generate(db.catalog(), 30, 1);
        runner
            .run_workload(&queries, 0)
            .iter()
            .map(|e| featurize_execution(db.catalog(), e, FeaturizerConfig::exact()))
            .collect()
    }

    #[test]
    fn predictions_are_finite_and_positive() {
        let model = ZeroShotCostModel::new(ModelConfig::tiny());
        for g in graphs() {
            let p = model.predict(&g);
            assert!(p.is_finite() && p > 0.0);
        }
    }

    #[test]
    fn model_overfits_a_small_training_set() {
        // Sanity check of the whole forward/backward path: training on a
        // handful of graphs must drive the error down dramatically.
        let graphs = graphs();
        let refs: Vec<&PlanGraph> = graphs.iter().collect();
        let targets: Vec<f64> = graphs.iter().map(|g| g.runtime_secs.unwrap()).collect();
        let mut model = ZeroShotCostModel::new(ModelConfig::tiny());
        let mut adam = Adam::new(3e-3);
        for _ in 0..150 {
            model.zero_grad();
            model.accumulate_gradients_batch(&refs, &targets);
            model.apply_step(&mut adam);
        }
        let median_q = {
            let mut qs: Vec<f64> = graphs
                .iter()
                .map(|g| q_error(model.predict(g), g.runtime_secs.unwrap()))
                .collect();
            qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            qs[qs.len() / 2]
        };
        assert!(median_q < 1.6, "median training q-error {median_q}");
    }

    /// The first parameter buffer (layer 0's weights) of `mlp`.
    fn param(mlp: &mut zsdb_nn::Mlp) -> &mut zsdb_nn::ParamBuf {
        mlp.params_mut().next().expect("an MLP has parameters")
    }

    #[test]
    fn gradient_accumulation_matches_finite_differences_on_output_mlp() {
        let graphs = graphs();
        let g = &graphs[0];
        let target = g.runtime_secs.unwrap();
        let mut model = ZeroShotCostModel::new(ModelConfig::tiny());

        model.zero_grad();
        model.accumulate_gradients_batch(&[g], &[target]);
        // Pick one parameter of the output MLP and compare with a finite
        // difference of the loss.
        let analytic = param(&mut model.output).grad[0];
        let eps = 1e-6;
        let orig = param(&mut model.output).data[0];
        let loss_at = |m: &ZeroShotCostModel| {
            let err = m.predict_log(g) - target.max(1e-9).ln();
            err * err
        };
        param(&mut model.output).data[0] = orig + eps;
        let up = loss_at(&model);
        param(&mut model.output).data[0] = orig - eps;
        let down = loss_at(&model);
        param(&mut model.output).data[0] = orig;
        let numeric = (up - down) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 1e-4 * (1.0 + numeric.abs()),
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn serialization_preserves_predictions() {
        let graphs = graphs();
        let model = ZeroShotCostModel::new(ModelConfig::tiny());
        let json = model.to_json();
        let restored = ZeroShotCostModel::from_json(&json).unwrap();
        for g in graphs.iter().take(5) {
            assert!((model.predict(g) - restored.predict(g)).abs() < 1e-9);
        }
        assert_eq!(model.num_parameters(), restored.num_parameters());
    }

    #[test]
    fn scratch_inference_is_bit_identical_to_fresh_prediction() {
        // One reused scratch across many graphs must produce exactly the
        // same bits as per-call predictions — the property the concurrent
        // serving layer relies on to match the single-threaded path.
        let graphs = graphs();
        let model = ZeroShotCostModel::new(ModelConfig::tiny());
        let mut scratch = InferenceScratch::default();
        for g in &graphs {
            let fresh = model.predict(g);
            let reused = model.predict_with(g, &mut scratch);
            assert_eq!(fresh.to_bits(), reused.to_bits());
            assert_eq!(
                model.predict_log(g).to_bits(),
                model
                    .predict_log_with(g, &CatalogStates::default(), &mut scratch)
                    .to_bits()
            );
        }
    }

    #[test]
    fn parameter_count_scales_with_hidden_dim() {
        let small = ZeroShotCostModel::new(ModelConfig::tiny());
        let large = ZeroShotCostModel::new(ModelConfig::default());
        assert!(large.num_parameters() > small.num_parameters());
    }
}
