//! Batched execution of the shared plan-graph encoder over mini-batches of
//! plan graphs.
//!
//! The per-example path walks one DAG at a time, calling the encoder and
//! combine MLPs once **per node** — thousands of tiny mat-vec products and
//! heap allocations per training step.  This module restructures the same
//! computation around a [`BatchSchedule`]: all nodes of a mini-batch are
//! grouped by *(topological level, [`NodeKind`])*, and each group is
//! pushed through the node-type encoder and the combine MLP in **one
//! batched call** — one fused matrix loop per (level, kind) instead of one
//! mat-vec per node.
//!
//! The batched message passing is implemented on [`PlanEncoder`], the
//! task-independent half of every zero-shot model: it produces one hidden
//! state per node ([`NodeStates`]), and any number of task heads can read
//! those states and push gradients back through
//! [`PlanEncoder::backward_batch`].  The single-head
//! [`ZeroShotCostModel`] composes exactly these primitives; the
//! multi-task model (`zsdb_multitask`) attaches several heads to the same
//! encoder pass.
//!
//! Bit-consistency: the batched MLP loops in `zsdb_nn` perform, per
//! example, exactly the floating-point operations of the per-example path
//! in exactly the same order, and the DeepSets child-state sums below add
//! children in the same `node.children` order as
//! [`ZeroShotCostModel::predict_log_with`].  Batched predictions are
//! therefore **bit-identical** to per-example predictions — the guarantee
//! the serving layer and the equivalence tests rely on.
//!
//! Gradient accumulation in [`ZeroShotCostModel::accumulate_gradients_batch`]
//! uses a fixed reduction order (groups in reverse schedule order, examples
//! ascending), so batched training is deterministic; it is *not* required
//! to be bit-identical to per-example gradient accumulation (the summation
//! order across examples necessarily differs).

use crate::features::{NodeKind, PlanGraph};
use crate::model::{PlanEncoder, ZeroShotCostModel};
use zsdb_nn::{Batch, BatchForwardScratch, MlpBatchCache};

/// One batched unit of work: all nodes of one [`NodeKind`] at one
/// topological level, across every graph of the mini-batch.
#[derive(Default)]
struct KindGroup {
    /// Index into [`NodeKind::ALL`] — selects the encoder MLP.
    kind: usize,
    /// Member nodes as `(graph index, node index)` in ascending order.
    members: Vec<(usize, usize)>,
    /// CSR offsets into `children`: the children of member `e` are
    /// `children[child_offsets[e]..child_offsets[e + 1]]`.
    child_offsets: Vec<usize>,
    /// Flat-node-id children of all members, concatenated in the graphs'
    /// own `node.children` order (the DeepSets summation order).
    children: Vec<usize>,
}

/// A batched execution plan for a mini-batch of plan graphs: nodes grouped
/// by *(topological level, node kind)*, levels ascending, so every group
/// only depends on states produced by earlier groups.
///
/// A schedule is **reusable**: [`BatchSchedule::rebuild`] re-derives the
/// grouping for a new mini-batch while recycling every internal buffer
/// (groups, member lists, CSR children, bucketing scratch), so a
/// long-lived schedule makes repeated scheduling allocation-free once the
/// buffers have grown to the workload's high-water mark.
#[derive(Default)]
pub struct BatchSchedule {
    /// Groups in execution order.
    groups: Vec<KindGroup>,
    /// Flat node id of each graph's root.
    roots: Vec<usize>,
    /// Flat-node-id offset of each graph: node `(gi, ni)` has flat id
    /// `offsets[gi] + ni`.
    offsets: Vec<usize>,
    /// Total number of nodes across the mini-batch.
    total_nodes: usize,
    /// Reusable build scratch: topological level per flat node.
    level: Vec<usize>,
    /// Reusable build scratch: `(level, kind)` buckets.
    buckets: Vec<Vec<(usize, usize)>>,
    /// Recycled groups (member/children capacity retained).
    spare_groups: Vec<KindGroup>,
}

impl BatchSchedule {
    /// An empty schedule, ready for [`BatchSchedule::rebuild`].
    pub fn empty() -> Self {
        BatchSchedule::default()
    }

    /// Build the schedule for a mini-batch.
    ///
    /// Runs in `O(nodes + edges)`: one pass to compute topological levels
    /// (children always precede parents in a `PlanGraph`), one pass to
    /// bucket nodes by `(level, kind)`.
    pub fn build(graphs: &[&PlanGraph]) -> Self {
        let mut schedule = BatchSchedule::empty();
        schedule.rebuild(graphs);
        schedule
    }

    /// Rebuild this schedule in place for a new mini-batch, reusing every
    /// internal buffer.  Produces exactly the grouping of
    /// [`BatchSchedule::build`].
    pub fn rebuild(&mut self, graphs: &[&PlanGraph]) {
        // Recycle the previous build: groups keep their buffers, buckets
        // keep their capacity.
        for mut g in self.groups.drain(..) {
            g.members.clear();
            g.child_offsets.clear();
            g.children.clear();
            self.spare_groups.push(g);
        }
        for b in &mut self.buckets {
            b.clear();
        }
        self.roots.clear();
        self.offsets.clear();

        let mut total_nodes = 0usize;
        for g in graphs {
            self.offsets.push(total_nodes);
            total_nodes += g.len();
        }
        self.total_nodes = total_nodes;

        // Topological level per flat node: leaves at 0, parents one above
        // their deepest child.
        self.level.clear();
        self.level.resize(total_nodes, 0);
        let mut max_level = 0usize;
        for (gi, g) in graphs.iter().enumerate() {
            let base = self.offsets[gi];
            for (ni, node) in g.nodes.iter().enumerate() {
                let l = node
                    .children
                    .iter()
                    .map(|&c| self.level[base + c] + 1)
                    .max()
                    .unwrap_or(0);
                self.level[base + ni] = l;
                max_level = max_level.max(l);
            }
        }

        // Bucket by (level, kind) in deterministic (level, kind, graph,
        // node) order.
        let num_kinds = NodeKind::ALL.len();
        let num_buckets = (max_level + 1) * num_kinds;
        while self.buckets.len() < num_buckets {
            self.buckets.push(Vec::new());
        }
        for (gi, g) in graphs.iter().enumerate() {
            let base = self.offsets[gi];
            for (ni, node) in g.nodes.iter().enumerate() {
                self.buckets[self.level[base + ni] * num_kinds + node.kind.index()].push((gi, ni));
            }
        }

        for l in 0..=max_level {
            for k in 0..num_kinds {
                // Swap the bucket out so a recycled group can be filled
                // while the bucket slot stays addressable; swapped back
                // (cleared, capacity kept) afterwards.
                let members = std::mem::take(&mut self.buckets[l * num_kinds + k]);
                if members.is_empty() {
                    self.buckets[l * num_kinds + k] = members;
                    continue;
                }
                let mut group = self.spare_groups.pop().unwrap_or_default();
                group.kind = k;
                group.members.extend_from_slice(&members);
                group.child_offsets.push(0);
                for &(gi, ni) in &group.members {
                    let base = self.offsets[gi];
                    for &c in &graphs[gi].nodes[ni].children {
                        group.children.push(base + c);
                    }
                    group.child_offsets.push(group.children.len());
                }
                self.groups.push(group);
                let mut bucket = members;
                bucket.clear();
                self.buckets[l * num_kinds + k] = bucket;
            }
        }

        for (gi, g) in graphs.iter().enumerate() {
            self.roots.push(self.offsets[gi] + g.root);
        }
    }

    /// Number of (level, kind) groups — i.e. batched MLP invocations per
    /// encoder/combine stage.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Total number of nodes across the mini-batch.
    pub fn num_nodes(&self) -> usize {
        self.total_nodes
    }

    /// Flat node id of each graph's root, in graph order.
    pub fn roots(&self) -> &[usize] {
        &self.roots
    }

    /// Flat-node-id offset of each graph: node `ni` of graph `gi` has flat
    /// id `offsets()[gi] + ni`.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }
}

/// Node-major storage of one hidden vector per flat node:
/// `data[flat * hidden..]` is node `flat`'s state — contiguous, so the
/// DeepSets child-state sums and their backward counterparts are
/// vectorised adds over whole rows.
///
/// Task heads consume states through [`NodeStates::gather`] (rows →
/// feature-major [`Batch`]) and push gradients back through
/// [`NodeStates::scatter_add`] before handing the accumulated per-node
/// gradients to [`PlanEncoder::backward_batch`].
#[derive(Default)]
pub struct NodeStates {
    data: Vec<f64>,
    hidden: usize,
}

impl NodeStates {
    /// All-zero states for `total` nodes of dimension `hidden`.
    pub fn zeros(hidden: usize, total: usize) -> Self {
        NodeStates {
            data: vec![0.0; hidden * total],
            hidden,
        }
    }

    /// Reshape to `total` zeroed rows of dimension `hidden`, reusing the
    /// existing allocation (grown to the high-water mark, never shrunk).
    pub fn resize(&mut self, hidden: usize, total: usize) {
        self.hidden = hidden;
        self.data.clear();
        self.data.resize(hidden * total, 0.0);
    }

    /// State dimension.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Number of node rows.
    pub fn num_nodes(&self) -> usize {
        self.data.len().checked_div(self.hidden).unwrap_or(0)
    }

    /// The state row of flat node `flat`.
    #[inline]
    pub fn row(&self, flat: usize) -> &[f64] {
        &self.data[flat * self.hidden..(flat + 1) * self.hidden]
    }

    /// Mutable state row of flat node `flat`.
    #[inline]
    pub fn row_mut(&mut self, flat: usize) -> &mut [f64] {
        &mut self.data[flat * self.hidden..(flat + 1) * self.hidden]
    }

    /// Gather the rows of `flats` into a feature-major batch (column `e`
    /// is the state of `flats[e]`) — the input layout of a task-head MLP.
    pub fn gather(&self, flats: &[usize]) -> Batch {
        let mut batch = Batch::default();
        self.gather_into(flats, &mut batch);
        batch
    }

    /// [`NodeStates::gather`] into a reusable batch (allocation-free once
    /// `out` has grown to the high-water mark).
    pub fn gather_into(&self, flats: &[usize], out: &mut Batch) {
        out.resize(self.hidden, flats.len());
        for (e, &flat) in flats.iter().enumerate() {
            for (f, &v) in self.row(flat).iter().enumerate() {
                out.set(f, e, v);
            }
        }
    }

    /// Add column `e` of `grads` onto the row of `flats[e]` for every
    /// member — how a task head deposits its state gradients (columns in
    /// ascending example order, so accumulation is deterministic).
    pub fn scatter_add(&mut self, flats: &[usize], grads: &Batch) {
        for (e, &flat) in flats.iter().enumerate() {
            let row = self.row_mut(flat);
            for (f, d) in row.iter_mut().enumerate() {
                *d += grads.get(f, e);
            }
        }
    }
}

/// Per-group backprop caches recorded by
/// [`PlanEncoder::encode_batch_cached`], consumed (by reference) by
/// [`PlanEncoder::backward_batch`].
pub struct EncoderTrace {
    groups: Vec<GroupTrace>,
}

/// Per-group backprop caches recorded by the batched forward pass.
struct GroupTrace {
    enc_cache: MlpBatchCache,
    combine_cache: MlpBatchCache,
}

/// Reusable buffers for allocation-free batched encoding
/// ([`PlanEncoder::encode_batch_into`],
/// [`ZeroShotCostModel::predict_log_scheduled_into`]).
///
/// Every buffer grows to the workload's high-water mark and is never
/// shrunk, so a long-lived scratch makes repeated batched inference
/// allocation-free after warm-up — the batched counterpart of
/// [`crate::model::InferenceScratch`].
#[derive(Default)]
pub struct EncodeScratch {
    /// Per-group feature batch.
    features: Batch,
    /// Ping-pong batches for the encoder MLPs.
    enc_fwd: BatchForwardScratch,
    /// Per-group `[encoding ‖ child sum]` combine input.
    combine_in: Batch,
    /// Ping-pong batches for the combine MLP.
    combine_fwd: BatchForwardScratch,
    /// Node-major child-sum accumulator (`h × group members`).
    sums: Vec<f64>,
    /// The encoded node states (output of the pass).
    states: NodeStates,
    /// Root states gathered for the output head.
    root_states: Batch,
    /// Ping-pong batches for the output MLP.
    out_fwd: BatchForwardScratch,
}

impl EncodeScratch {
    /// The node states produced by the last
    /// [`PlanEncoder::encode_batch_into`] pass.
    pub fn states(&self) -> &NodeStates {
        &self.states
    }
}

impl PlanEncoder {
    /// Gather the feature vectors of a group into a reusable batch.
    fn group_features_into(&self, graphs: &[&PlanGraph], group: &KindGroup, out: &mut Batch) {
        let dim = NodeKind::ALL[group.kind].feature_dim();
        out.resize(dim, group.members.len());
        for (e, &(gi, ni)) in group.members.iter().enumerate() {
            out.set_example(e, &graphs[gi].nodes[ni].features);
        }
    }

    /// Assemble the combine-MLP input of a group: `[encoder output ‖ sum
    /// of child states]`, with children summed in `node.children` order
    /// (the same element-wise order as the per-example path).
    ///
    /// Child states are accumulated into contiguous node-major rows
    /// (vectorised adds over the whole hidden vector per edge), then
    /// transposed once into the feature-major MLP input.  `sums` and the
    /// output batch are caller-provided reusable buffers.
    fn group_combine_input_into(
        &self,
        group: &KindGroup,
        enc_out: &Batch,
        states: &NodeStates,
        sums: &mut Vec<f64>,
        combine_in: &mut Batch,
    ) {
        let h = self.hidden_dim;
        let n = group.members.len();
        combine_in.resize(2 * h, n);
        combine_in.copy_rows_from(0, enc_out, h);
        sums.clear();
        sums.resize(h * n, 0.0);
        for e in 0..n {
            let row = &mut sums[e * h..(e + 1) * h];
            for &c in &group.children[group.child_offsets[e]..group.child_offsets[e + 1]] {
                for (s, v) in row.iter_mut().zip(states.row(c)) {
                    *s += v;
                }
            }
        }
        for f in 0..h {
            let dst = combine_in.feature_row_mut(h + f);
            for (e, d) in dst.iter_mut().enumerate() {
                *d = sums[e * h + f];
            }
        }
    }

    /// Scatter a group's combine output columns back into the node-major
    /// state storage (one transpose pass per group).
    fn scatter_group_states(
        &self,
        group: &KindGroup,
        offsets: &[usize],
        out: &Batch,
        states: &mut NodeStates,
    ) {
        for e in 0..group.members.len() {
            let (gi, ni) = group.members[e];
            let row = states.row_mut(offsets[gi] + ni);
            for (f, s) in row.iter_mut().enumerate() {
                *s = out.get(f, e);
            }
        }
    }

    /// Batched encoder forward: one hidden state per node, no backprop
    /// caches (the inference path).  Bit-identical per node to the
    /// per-example message passing.
    pub fn encode_batch(&self, graphs: &[&PlanGraph], schedule: &BatchSchedule) -> NodeStates {
        let mut scratch = EncodeScratch::default();
        self.encode_batch_into(graphs, schedule, &mut scratch);
        scratch.states
    }

    /// [`PlanEncoder::encode_batch`] into reusable scratch buffers: the
    /// states land in `scratch.states()` and every intermediate batch is
    /// recycled, so warm calls perform zero heap allocations.
    /// Bit-identical to [`PlanEncoder::encode_batch`].
    pub fn encode_batch_into(
        &self,
        graphs: &[&PlanGraph],
        schedule: &BatchSchedule,
        scratch: &mut EncodeScratch,
    ) {
        scratch.states.resize(self.hidden_dim, schedule.total_nodes);
        for group in &schedule.groups {
            self.group_features_into(graphs, group, &mut scratch.features);
            let enc_out = self.encoders[group.kind]
                .forward_batch_into(&scratch.features, &mut scratch.enc_fwd);
            self.group_combine_input_into(
                group,
                enc_out,
                &scratch.states,
                &mut scratch.sums,
                &mut scratch.combine_in,
            );
            let out = self
                .combine
                .forward_batch_into(&scratch.combine_in, &mut scratch.combine_fwd);
            self.scatter_group_states(group, &schedule.offsets, out, &mut scratch.states);
        }
    }

    /// Batched encoder forward with per-group backprop caches (the
    /// training path).  States are bit-identical to
    /// [`PlanEncoder::encode_batch`].
    pub fn encode_batch_cached(
        &self,
        graphs: &[&PlanGraph],
        schedule: &BatchSchedule,
    ) -> (NodeStates, EncoderTrace) {
        let mut states = NodeStates::zeros(self.hidden_dim, schedule.total_nodes);
        let mut traces = Vec::with_capacity(schedule.groups.len());
        let mut sums = Vec::new();
        for group in &schedule.groups {
            let mut features = Batch::default();
            self.group_features_into(graphs, group, &mut features);
            let (enc_out, enc_cache) = self.encoders[group.kind].forward_batch_cached(features);
            let mut combine_in = Batch::default();
            self.group_combine_input_into(group, &enc_out, &states, &mut sums, &mut combine_in);
            let (out, combine_cache) = self.combine.forward_batch_cached(combine_in);
            self.scatter_group_states(group, &schedule.offsets, &out, &mut states);
            traces.push(GroupTrace {
                enc_cache,
                combine_cache,
            });
        }
        (states, EncoderTrace { groups: traces })
    }

    /// Backpropagate per-node state gradients (accumulated by one or more
    /// task heads via [`NodeStates::scatter_add`]) through the message
    /// passing, *accumulating* encoder parameter gradients.
    ///
    /// The reduction order is fixed — groups in reverse schedule order,
    /// examples ascending within a group — making the accumulated
    /// gradients a deterministic function of the input.
    pub fn backward_batch(
        &mut self,
        schedule: &BatchSchedule,
        trace: &EncoderTrace,
        mut d_states: NodeStates,
    ) {
        let h = self.hidden_dim;
        for (group, trace) in schedule.groups.iter().zip(&trace.groups).rev() {
            let n = group.members.len();
            let mut d_out = Batch::zeros(h, n);
            for e in 0..n {
                let (gi, ni) = group.members[e];
                let flat = schedule.offsets[gi] + ni;
                for (f, &v) in d_states.row(flat).iter().enumerate() {
                    d_out.set(f, e, v);
                }
            }
            let d_combine_in = self.combine.backward_batch(&trace.combine_cache, &d_out);
            let d_enc = d_combine_in.sub_rows(0, h);
            self.encoders[group.kind].backward_batch(&trace.enc_cache, &d_enc);
            // Sum pooling: every child receives the parent's child-sum
            // gradient.  Transpose the child-sum half once into node-major
            // rows, then add whole rows per edge (vectorised).
            let mut d_sums = vec![0.0f64; h * n];
            for f in 0..h {
                for (e, &g) in d_combine_in.feature_row(h + f).iter().enumerate() {
                    d_sums[e * h + f] = g;
                }
            }
            for e in 0..n {
                let src = &d_sums[e * h..(e + 1) * h];
                for &c in &group.children[group.child_offsets[e]..group.child_offsets[e + 1]] {
                    for (d, &g) in d_states.row_mut(c).iter_mut().zip(src) {
                        *d += g;
                    }
                }
            }
        }
    }
}

/// Result of one batched gradient-accumulation pass.
pub struct BatchBackprop {
    /// Summed squared error on `ln(runtime)` over the mini-batch (same
    /// convention as per-example [`ZeroShotCostModel::accumulate_gradients`]).
    pub loss: f64,
    /// Per-graph runtime predictions (seconds) from the training forward
    /// pass, bit-identical to [`ZeroShotCostModel::predict`] under the
    /// pre-step weights.  Lets trainers track a running training metric
    /// without a separate evaluation pass.
    pub predictions: Vec<f64>,
}

impl ZeroShotCostModel {
    /// Batched log-runtime prediction over a mini-batch of graphs,
    /// **bit-identical** per graph to
    /// [`ZeroShotCostModel::predict_log`].
    pub fn predict_log_batch(&self, graphs: &[&PlanGraph]) -> Vec<f64> {
        if graphs.is_empty() {
            return Vec::new();
        }
        let schedule = BatchSchedule::build(graphs);
        self.predict_log_scheduled(graphs, &schedule)
    }

    /// Batched log-runtime prediction with a prebuilt schedule (callers
    /// that reuse the same mini-batch composition can amortise the
    /// schedule).
    pub fn predict_log_scheduled(
        &self,
        graphs: &[&PlanGraph],
        schedule: &BatchSchedule,
    ) -> Vec<f64> {
        let mut scratch = EncodeScratch::default();
        let mut out = Vec::new();
        self.predict_log_scheduled_into(graphs, schedule, &mut scratch, &mut out);
        out
    }

    /// [`ZeroShotCostModel::predict_log_scheduled`] through reusable
    /// scratch buffers: predictions are written into `out` (cleared
    /// first).  With a warm [`EncodeScratch`], a rebuilt
    /// [`BatchSchedule`] and a pre-grown `out`, the whole batched
    /// inference pass performs zero heap allocations.  Bit-identical to
    /// the allocating variant.
    pub fn predict_log_scheduled_into(
        &self,
        graphs: &[&PlanGraph],
        schedule: &BatchSchedule,
        scratch: &mut EncodeScratch,
        out: &mut Vec<f64>,
    ) {
        self.encoder.encode_batch_into(graphs, schedule, scratch);
        scratch
            .states
            .gather_into(schedule.roots(), &mut scratch.root_states);
        let pred = self
            .output
            .forward_batch_into(&scratch.root_states, &mut scratch.out_fwd);
        out.clear();
        out.extend_from_slice(pred.feature_row(0));
    }

    /// Batched runtime prediction (seconds), bit-identical per graph to
    /// [`ZeroShotCostModel::predict`].
    pub fn predict_batch(&self, graphs: &[&PlanGraph]) -> Vec<f64> {
        self.predict_log_batch(graphs)
            .into_iter()
            .map(f64::exp)
            .collect()
    }

    /// Batched training step contribution: forward the whole mini-batch,
    /// compute the squared error on `ln(runtime)` per graph, backpropagate
    /// and **accumulate** gradients (no optimizer step).  Returns the
    /// summed squared error — the same loss convention as calling
    /// [`ZeroShotCostModel::accumulate_gradients`] per graph.
    ///
    /// The gradient reduction order is fixed (groups in reverse schedule
    /// order, examples ascending within a group), making the accumulated
    /// gradients a deterministic function of the mini-batch content.
    pub fn accumulate_gradients_batch(
        &mut self,
        graphs: &[&PlanGraph],
        targets: &[f64],
    ) -> BatchBackprop {
        assert_eq!(graphs.len(), targets.len());
        if graphs.is_empty() {
            return BatchBackprop {
                loss: 0.0,
                predictions: Vec::new(),
            };
        }
        let h = self.config.hidden_dim;
        let schedule = BatchSchedule::build(graphs);

        // ---- Forward with caches -------------------------------------
        let (states, trace) = self.encoder.encode_batch_cached(graphs, &schedule);
        let root_states = states.gather(schedule.roots());
        let (out, output_cache) = self.output.forward_batch_cached(root_states);

        // ---- Loss ----------------------------------------------------
        let n_graphs = graphs.len();
        let mut loss = 0.0;
        let mut predictions = Vec::with_capacity(n_graphs);
        let mut d_pred = Batch::zeros(1, n_graphs);
        for (e, t) in targets.iter().enumerate() {
            let target = t.max(1e-9).ln();
            let log_pred = out.get(0, e);
            predictions.push(log_pred.exp());
            let error = log_pred - target;
            loss += error * error;
            d_pred.set(0, e, 2.0 * error);
        }

        // ---- Backward ------------------------------------------------
        let d_root = self.output.backward_batch(&output_cache, &d_pred);
        let mut d_states = NodeStates::zeros(h, schedule.num_nodes());
        d_states.scatter_add(schedule.roots(), &d_root);
        self.encoder.backward_batch(&schedule, &trace, d_states);
        BatchBackprop { loss, predictions }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{featurize_execution, FeaturizerConfig};
    use crate::model::ModelConfig;
    use crate::train::Trainable;
    use zsdb_catalog::presets;
    use zsdb_engine::QueryRunner;
    use zsdb_query::WorkloadGenerator;
    use zsdb_storage::Database;

    fn graphs() -> Vec<PlanGraph> {
        let db = Database::generate(presets::imdb_like(0.02), 3);
        let runner = QueryRunner::with_defaults(&db);
        let queries = WorkloadGenerator::with_defaults().generate(db.catalog(), 24, 1);
        runner
            .run_workload(&queries, 0)
            .iter()
            .map(|e| featurize_execution(db.catalog(), e, FeaturizerConfig::exact()))
            .collect()
    }

    #[test]
    fn schedule_levels_respect_dependencies() {
        let graphs = graphs();
        let refs: Vec<&PlanGraph> = graphs.iter().collect();
        let schedule = BatchSchedule::build(&refs);
        assert_eq!(
            schedule.num_nodes(),
            graphs.iter().map(|g| g.len()).sum::<usize>()
        );
        // Every node appears exactly once across all groups, and every
        // child has been scheduled in an earlier group than its parent.
        let mut seen = vec![false; schedule.num_nodes()];
        let offsets = schedule.offsets();
        for group in &schedule.groups {
            for (e, &(gi, ni)) in group.members.iter().enumerate() {
                let flat = offsets[gi] + ni;
                assert!(!seen[flat], "node scheduled twice");
                for &c in &group.children[group.child_offsets[e]..group.child_offsets[e + 1]] {
                    assert!(seen[c], "child {c} scheduled after parent {flat}");
                }
                assert_eq!(graphs[gi].nodes[ni].kind.index(), group.kind);
            }
            for &(gi, ni) in &group.members {
                seen[offsets[gi] + ni] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every node scheduled");
    }

    #[test]
    fn batched_predictions_are_bit_identical_to_per_example_predictions() {
        let graphs = graphs();
        let model = ZeroShotCostModel::new(ModelConfig::tiny());
        for batch_len in [1, 2, 7, graphs.len()] {
            let refs: Vec<&PlanGraph> = graphs.iter().take(batch_len).collect();
            let batched = model.predict_batch(&refs);
            let batched_log = model.predict_log_batch(&refs);
            assert_eq!(batched.len(), batch_len);
            for (g, (p, lp)) in refs.iter().zip(batched.iter().zip(&batched_log)) {
                assert_eq!(p.to_bits(), model.predict(g).to_bits());
                assert_eq!(lp.to_bits(), model.predict_log(g).to_bits());
            }
        }
    }

    #[test]
    fn reused_schedule_and_scratch_are_bit_identical_to_fresh_build() {
        // One schedule + one scratch rebuilt/reused across differently
        // composed mini-batches must match fresh builds bit for bit.
        let graphs = graphs();
        let model = ZeroShotCostModel::new(ModelConfig::tiny());
        let mut schedule = BatchSchedule::empty();
        let mut scratch = EncodeScratch::default();
        let mut out = Vec::new();
        for batch_len in [7, 2, graphs.len(), 1, 5] {
            let refs: Vec<&PlanGraph> = graphs.iter().take(batch_len).collect();
            schedule.rebuild(&refs);
            model.predict_log_scheduled_into(&refs, &schedule, &mut scratch, &mut out);
            let fresh = model.predict_log_batch(&refs);
            assert_eq!(out.len(), fresh.len());
            for (a, b) in out.iter().zip(&fresh) {
                assert_eq!(a.to_bits(), b.to_bits(), "batch_len {batch_len}");
            }
        }
    }

    #[test]
    fn encoder_states_match_per_example_hidden_states() {
        // The exposed NodeStates rows are exactly the per-node combined
        // hidden states the per-example path computes — the contract the
        // multi-task heads build on.
        let graphs = graphs();
        let refs: Vec<&PlanGraph> = graphs.iter().take(5).collect();
        let model = ZeroShotCostModel::new(ModelConfig::tiny());
        let schedule = BatchSchedule::build(&refs);
        let states = model.encoder().encode_batch(&refs, &schedule);
        // Root rows pushed through the output MLP must reproduce the
        // model's own predictions bit for bit.
        for (gi, g) in refs.iter().enumerate() {
            let flat = schedule.offsets()[gi] + g.root;
            let root = states.row(flat).to_vec();
            let out = model.output.forward(&root);
            assert_eq!(out[0].to_bits(), model.predict_log(g).to_bits());
        }
    }

    #[test]
    fn batched_gradients_match_summed_per_example_gradients() {
        let graphs = graphs();
        let refs: Vec<&PlanGraph> = graphs.iter().take(8).collect();
        let targets: Vec<f64> = refs.iter().map(|g| g.runtime_secs.unwrap()).collect();

        let mut per_example = ZeroShotCostModel::new(ModelConfig::tiny());
        per_example.zero_grad();
        let mut ref_loss = 0.0;
        for (g, t) in refs.iter().zip(&targets) {
            ref_loss += per_example.accumulate_gradients(g, *t);
        }
        let mut ref_grads = Vec::new();
        per_example.export_gradients(&mut ref_grads);

        let mut batched = ZeroShotCostModel::new(ModelConfig::tiny());
        batched.zero_grad();
        let backprop = batched.accumulate_gradients_batch(&refs, &targets);
        let loss = backprop.loss;
        let mut got_grads = Vec::new();
        batched.export_gradients(&mut got_grads);

        // Training-pass predictions equal inference predictions bit for
        // bit (same forward, caches aside).
        let fresh = ZeroShotCostModel::new(ModelConfig::tiny());
        for (g, p) in refs.iter().zip(&backprop.predictions) {
            assert_eq!(p.to_bits(), fresh.predict(g).to_bits());
        }

        assert!(
            (ref_loss - loss).abs() < 1e-9 * (1.0 + ref_loss.abs()),
            "loss {ref_loss} vs {loss}"
        );
        assert_eq!(ref_grads.len(), got_grads.len());
        let scale: f64 = ref_grads.iter().map(|g| g.abs()).fold(0.0, f64::max);
        for (r, g) in ref_grads.iter().zip(&got_grads) {
            assert!(
                (r - g).abs() < 1e-9 * (1.0 + scale),
                "gradient mismatch: per-example {r} vs batched {g}"
            );
        }
    }

    #[test]
    fn batched_gradient_accumulation_is_deterministic() {
        let graphs = graphs();
        let refs: Vec<&PlanGraph> = graphs.iter().take(6).collect();
        let targets: Vec<f64> = refs.iter().map(|g| g.runtime_secs.unwrap()).collect();
        let mut grads = Vec::new();
        for trial in 0..2 {
            let mut model = ZeroShotCostModel::new(ModelConfig::tiny());
            model.zero_grad();
            model.accumulate_gradients_batch(&refs, &targets);
            let mut flat = Vec::new();
            model.export_gradients(&mut flat);
            grads.push(flat);
            let _ = trial;
        }
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        assert_eq!(bits(&grads[0]), bits(&grads[1]));
    }

    #[test]
    fn gradient_export_reduce_roundtrip() {
        let graphs = graphs();
        let refs: Vec<&PlanGraph> = graphs.iter().take(4).collect();
        let targets: Vec<f64> = refs.iter().map(|g| g.runtime_secs.unwrap()).collect();

        // Gradients computed in two shards and reduced in fixed order must
        // equal accumulating both shards into one model back-to-back, up
        // to the (associativity-free) two-term sum per parameter.
        let mut shard_a = ZeroShotCostModel::new(ModelConfig::tiny());
        let mut shard_b = ZeroShotCostModel::new(ModelConfig::tiny());
        shard_a.zero_grad();
        shard_b.zero_grad();
        shard_a.accumulate_gradients_batch(&refs[..2], &targets[..2]);
        shard_b.accumulate_gradients_batch(&refs[2..], &targets[2..]);
        let (mut flat_a, mut flat_b) = (Vec::new(), Vec::new());
        shard_a.export_gradients(&mut flat_a);
        shard_b.export_gradients(&mut flat_b);

        let mut master = ZeroShotCostModel::new(ModelConfig::tiny());
        master.zero_grad();
        master.add_gradients(&flat_a);
        master.add_gradients(&flat_b);
        let mut reduced = Vec::new();
        master.export_gradients(&mut reduced);

        let expected: Vec<f64> = flat_a.iter().zip(&flat_b).map(|(a, b)| a + b).collect();
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        assert_eq!(bits(&reduced), bits(&expected));
    }

    #[test]
    fn copy_weights_from_synchronises_replicas() {
        let graphs = graphs();
        let refs: Vec<&PlanGraph> = graphs.iter().take(3).collect();
        let mut master = ZeroShotCostModel::new(ModelConfig::tiny());
        let mut replica = ZeroShotCostModel::new(ModelConfig {
            seed: 999,
            ..ModelConfig::tiny()
        });
        assert_ne!(
            master.predict(refs[0]).to_bits(),
            replica.predict(refs[0]).to_bits()
        );
        replica.copy_weights_from(&master);
        for g in &refs {
            assert_eq!(master.predict(g).to_bits(), replica.predict(g).to_bits());
        }
        // Train the master one step; replicas stay put until re-synced.
        let mut adam = zsdb_nn::Adam::new(1e-3);
        master.zero_grad();
        let targets: Vec<f64> = refs.iter().map(|g| g.runtime_secs.unwrap()).collect();
        master.accumulate_gradients_batch(&refs, &targets);
        master.apply_step(&mut adam);
        assert_ne!(
            master.predict(refs[0]).to_bits(),
            replica.predict(refs[0]).to_bits()
        );
        let _ = &mut replica;
    }
}
