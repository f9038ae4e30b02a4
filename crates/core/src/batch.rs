//! Batched execution of the shared plan-graph encoder over mini-batches of
//! plan graphs.
//!
//! Walking one DAG at a time calls the encoder and combine MLPs once **per
//! node** — thousands of tiny mat-vec products per training step.  This
//! module restructures the same
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
//! [`PlanEncoder::encode_batch_into`] takes a [`CatalogStates`] and keeps
//! one table entry per flat node.  Groups run in level order, so a
//! member's children are resolved before it: a member the table holds
//! over its children's entries gets its state copied, and only the members
//! it does not hold go through the encoder and combine MLPs, each over its
//! own children.  A group whose every member is found — a level-0 Table or
//! Column group, a level-1 Predicate or Aggregation group of the table's
//! catalog — runs no MLP at all; a group mixing catalogs runs its misses
//! only.  The copy keeps every bit because the table was filled by the
//! per-example forward, which the batched one matches (see `model`'s
//! "Catalog nodes").  [`PlanEncoder::encode_batch_cached`], the training
//! forward, takes no table: the weights move every step.
//!
//! Gradient accumulation in [`ZeroShotCostModel::accumulate_gradients_batch`]
//! is the workspace's one backpropagation through the plan DAG.  It uses a
//! fixed reduction order (groups in reverse schedule order, examples
//! ascending), so training is deterministic.  The tests keep a per-example
//! DAG walk as its reference, equal up to rounding: the summation order
//! across examples necessarily differs.
//!
//! # A training step without allocation
//!
//! Everything a step builds lives in reusable buffers, and the trainer
//! keeps one [`TrainScratch`] per worker replica:
//!
//! * the [`BatchSchedule`] is flat — every group's members, and every
//!   member's children, are ranges of three shared vectors, built by a
//!   counting sort over (level, kind) buckets and rebuilt in place;
//! * the [`EncoderTrace`] keeps one pair of MLP caches per (level, kind)
//!   *bucket*, not per group of the last pass, so a slot is only ever
//!   filled by one encoder, with groups of one level and kind, and can be
//!   sized for the largest such group;
//! * node states, their gradients, the output head's cache, the loss
//!   gradient and the MLP backward's ping-pong batches are fields of the
//!   scratch.
//!
//! All of them are sized **up front** from the corpus
//! ([`Trainable::reserve_scratch`](crate::train::Trainable::reserve_scratch)):
//! per (level, kind) bucket the most members one graph has, times the
//! micro-batch size; per shard the nodes and edges of the largest graphs.
//! No shuffle of the corpus can make a later step outgrow the first, so a
//! warm step performs no heap allocation at all
//! (`tests/alloc_regression.rs` counts it).

use crate::features::{NodeKind, PlanGraph};
use crate::model::{CatalogStates, PlanEncoder, ZeroShotCostModel, NO_ENTRY};
use zsdb_nn::{active_kernel, Batch, BatchBackwardScratch, BatchForwardScratch, MlpBatchCache};

/// Number of node kinds: (level, kind) bucket `b` holds kind `b % KINDS`
/// at level `b / KINDS`.
const KINDS: usize = NodeKind::ALL.len();

/// One batched unit of work: all nodes of one [`NodeKind`] at one
/// topological level, across every graph of the mini-batch.
#[derive(Clone, Copy)]
struct KindGroup {
    /// Index into [`NodeKind::ALL`] — selects the encoder MLP.
    kind: usize,
    /// The group's (level, kind) bucket, `level * KINDS + kind` — the
    /// slot of its caches in an [`EncoderTrace`].
    bucket: usize,
    /// The group's members are `members[start..end]` of the schedule.
    start: usize,
    end: usize,
}

/// A batched execution plan for a mini-batch of plan graphs: nodes grouped
/// by *(topological level, node kind)*, levels ascending, so every group
/// only depends on states produced by earlier groups.
///
/// A schedule is **reusable**: [`BatchSchedule::rebuild`] re-derives the
/// grouping for a new mini-batch in place.  Its buffers are flat (one
/// vector each for groups, members, child offsets and children), so a
/// schedule sized once for the largest mini-batch never allocates again.
#[derive(Default)]
pub struct BatchSchedule {
    /// Groups in execution order.
    groups: Vec<KindGroup>,
    /// Every group's members as `(graph index, node index)`, concatenated
    /// in group order, ascending within a group.
    members: Vec<(usize, usize)>,
    /// CSR offsets into `children`: the children of member `m` are
    /// `children[child_offsets[m]..child_offsets[m + 1]]`.
    child_offsets: Vec<usize>,
    /// Flat-node-id children of all members, concatenated in the graphs'
    /// own `node.children` order (the DeepSets summation order).
    children: Vec<usize>,
    /// Flat node id of each graph's root.
    roots: Vec<usize>,
    /// Flat-node-id offset of each graph: node `(gi, ni)` has flat id
    /// `offsets[gi] + ni`.
    offsets: Vec<usize>,
    /// Total number of nodes across the mini-batch.
    total_nodes: usize,
    /// Build scratch: topological level per flat node.
    level: Vec<usize>,
    /// Build scratch: per (level, kind) bucket its member count, then
    /// where its run in `members` ends.
    bucket_ends: Vec<usize>,
}

/// Topological level of every node of `graph` into `level` (leaves at 0,
/// parents one above their deepest child — children always precede
/// parents in a `PlanGraph`); returns the deepest level.
fn node_levels(graph: &PlanGraph, level: &mut [usize]) -> usize {
    let mut deepest = 0;
    for (ni, node) in graph.nodes.iter().enumerate() {
        let l = node
            .children
            .iter()
            .map(|&c| level[c] + 1)
            .max()
            .unwrap_or(0);
        level[ni] = l;
        deepest = deepest.max(l);
    }
    deepest
}

impl BatchSchedule {
    /// An empty schedule, ready for [`BatchSchedule::rebuild`].
    pub fn empty() -> Self {
        BatchSchedule::default()
    }

    /// Build the schedule for a mini-batch.
    ///
    /// Runs in `O(nodes + edges)`: one pass to compute topological levels,
    /// two to bucket nodes by `(level, kind)` (count, then place).
    pub fn build(graphs: &[&PlanGraph]) -> Self {
        let mut schedule = BatchSchedule::empty();
        schedule.rebuild(graphs);
        schedule
    }

    /// Rebuild this schedule in place for a new mini-batch, reusing every
    /// internal buffer.  Produces exactly the grouping of
    /// [`BatchSchedule::build`].
    pub fn rebuild(&mut self, graphs: &[&PlanGraph]) {
        self.groups.clear();
        self.members.clear();
        self.child_offsets.clear();
        self.children.clear();
        self.roots.clear();
        self.offsets.clear();

        let mut total_nodes = 0usize;
        for g in graphs {
            self.offsets.push(total_nodes);
            total_nodes += g.len();
        }
        self.total_nodes = total_nodes;

        self.level.clear();
        self.level.resize(total_nodes, 0);
        let mut max_level = 0usize;
        for (g, &base) in graphs.iter().zip(&self.offsets) {
            let deepest = node_levels(g, &mut self.level[base..base + g.len()]);
            max_level = max_level.max(deepest);
        }

        // Counting sort into (level, kind) buckets, visiting nodes in
        // (graph, node) order: every bucket's members come out ascending,
        // and buckets in (level, kind) order are the groups.
        let bucket = |level: &[usize], base: usize, ni: usize, kind: NodeKind| {
            level[base + ni] * KINDS + kind.index()
        };
        self.bucket_ends.clear();
        self.bucket_ends.resize((max_level + 1) * KINDS, 0);
        for (g, &base) in graphs.iter().zip(&self.offsets) {
            for (ni, node) in g.nodes.iter().enumerate() {
                self.bucket_ends[bucket(&self.level, base, ni, node.kind)] += 1;
            }
        }
        let mut start = 0;
        for slot in &mut self.bucket_ends {
            let count = *slot;
            *slot = start;
            start += count;
        }
        self.members.resize(total_nodes, (0, 0));
        for (gi, (g, &base)) in graphs.iter().zip(&self.offsets).enumerate() {
            for (ni, node) in g.nodes.iter().enumerate() {
                let next = &mut self.bucket_ends[bucket(&self.level, base, ni, node.kind)];
                self.members[*next] = (gi, ni);
                *next += 1;
            }
        }
        let mut start = 0;
        for (b, &end) in self.bucket_ends.iter().enumerate() {
            if end > start {
                self.groups.push(KindGroup {
                    kind: b % KINDS,
                    bucket: b,
                    start,
                    end,
                });
            }
            start = end;
        }

        self.child_offsets.push(0);
        for &(gi, ni) in &self.members {
            let base = self.offsets[gi];
            let children = graphs[gi].nodes[ni].children.iter().map(|&c| base + c);
            self.children.extend(children);
            self.child_offsets.push(self.children.len());
        }
        for (g, &base) in graphs.iter().zip(&self.offsets) {
            self.roots.push(base + g.root);
        }
    }

    /// Size every buffer for mini-batches within `bounds`.
    fn reserve(&mut self, bounds: &ShardBounds) {
        let buckets = bounds.bucket_members.len();
        self.groups.reserve(buckets);
        self.members.reserve(bounds.nodes);
        self.child_offsets.reserve(bounds.nodes + 1);
        self.children.reserve(bounds.edges);
        self.roots.reserve(bounds.graphs);
        self.offsets.reserve(bounds.graphs);
        self.level.reserve(bounds.nodes);
        self.bucket_ends.reserve(buckets);
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

    /// The members of `group`, as `(graph index, node index)`.
    fn members(&self, group: &KindGroup) -> &[(usize, usize)] {
        &self.members[group.start..group.end]
    }

    /// The flat-node-id children of member `m` (an index into the
    /// concatenated members, `group.start + e` for member `e` of a group).
    fn children(&self, m: usize) -> &[usize] {
        &self.children[self.child_offsets[m]..self.child_offsets[m + 1]]
    }

    /// Flat node id of a member.
    fn flat(&self, (gi, ni): (usize, usize)) -> usize {
        self.offsets[gi] + ni
    }
}

/// What one micro-batch of at most `graphs` graphs of a corpus can hold:
/// the bounds every training buffer is sized to up front.
struct ShardBounds {
    /// Graphs per micro-batch.
    graphs: usize,
    /// Nodes of the `graphs` largest graphs.
    nodes: usize,
    /// Edges of the `graphs` most-connected graphs.
    edges: usize,
    /// Per (level, kind) bucket: the most members one graph has there,
    /// times `graphs` (and never more than `nodes`).
    bucket_members: Vec<usize>,
}

impl ShardBounds {
    fn of(corpus: &[PlanGraph], microbatch: usize) -> Self {
        let mut level = Vec::new();
        let mut counts = Vec::new();
        let mut per_graph_max: Vec<usize> = Vec::new();
        let mut lens = Vec::with_capacity(corpus.len());
        let mut edges = Vec::with_capacity(corpus.len());
        for g in corpus {
            level.clear();
            level.resize(g.len(), 0);
            let deepest = node_levels(g, &mut level);
            counts.clear();
            counts.resize((deepest + 1) * KINDS, 0usize);
            for (node, &l) in g.nodes.iter().zip(&level) {
                counts[l * KINDS + node.kind.index()] += 1;
            }
            if per_graph_max.len() < counts.len() {
                per_graph_max.resize(counts.len(), 0);
            }
            for (most, &count) in per_graph_max.iter_mut().zip(&counts) {
                *most = (*most).max(count);
            }
            lens.push(g.len());
            edges.push(g.nodes.iter().map(|n| n.children.len()).sum());
        }
        let graphs = microbatch.min(corpus.len());
        let largest = |mut v: Vec<usize>| -> usize {
            v.sort_unstable_by(|a, b| b.cmp(a));
            v.iter().take(graphs).sum()
        };
        let nodes = largest(lens);
        ShardBounds {
            graphs,
            nodes,
            edges: largest(edges),
            bucket_members: per_graph_max
                .iter()
                .map(|most| (most * graphs).min(nodes))
                .collect(),
        }
    }

    /// The most members any one group can have.
    fn widest_group(&self) -> usize {
        self.bucket_members.iter().copied().max().unwrap_or(0)
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

    /// Make room for `total` rows of dimension `hidden` up front.
    fn reserve(&mut self, hidden: usize, total: usize) {
        let len = hidden * total;
        self.data.reserve(len.saturating_sub(self.data.len()));
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

/// What [`PlanEncoder::encode_batch_cached`] records for
/// [`PlanEncoder::backward_batch`], and the group buffers both reuse.
///
/// The caches live in one slot per (level, kind) bucket, so a long-lived
/// trace recycles every buffer: a slot is always filled by the same
/// encoder, with a group of the same level and kind.
#[derive(Default)]
pub struct EncoderTrace {
    /// Forward caches of every bucket, indexed by `KindGroup::bucket`.
    slots: Vec<GroupTrace>,
    /// One group's child-state sums, node-major (`h × members`): the
    /// combine input's second half going forward, its gradient going back.
    sums: Vec<f64>,
    /// One group's state gradients (backward).
    d_out: Batch,
    /// One group's encoder-output gradients (backward).
    d_enc: Batch,
}

/// The backprop caches of one (level, kind) bucket.
#[derive(Default)]
struct GroupTrace {
    enc: MlpBatchCache,
    combine: MlpBatchCache,
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
    /// The [`CatalogStates`] entry of each flat node, or [`NO_ENTRY`]
    /// where the node was computed.
    entries: Vec<u32>,
    /// One group's members the catalog table does not hold, as indices
    /// into the schedule's concatenated members.
    misses: Vec<usize>,
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

/// Everything one training replica of a [`ZeroShotCostModel`] reuses from
/// step to step — the schedule, the encoder trace, node states and their
/// gradients, the output head's cache and loss gradient, the MLP
/// backward's buffers — plus the batched-inference buffers of the
/// trainer's evaluation.  The model's `Trainable::Scratch`; see the module
/// docs for how it is sized.
#[derive(Default)]
pub struct TrainScratch {
    schedule: BatchSchedule,
    trace: EncoderTrace,
    states: NodeStates,
    d_states: NodeStates,
    /// Output-MLP cache: root states in, log-runtime predictions out.
    output: MlpBatchCache,
    /// Loss gradient w.r.t. the log-runtime predictions.
    d_pred: Batch,
    backward: BatchBackwardScratch,
    /// Inference buffers of evaluation.
    encode: EncodeScratch,
    /// Log-runtime predictions of one evaluation chunk.
    log_predictions: Vec<f64>,
}

impl PlanEncoder {
    /// Gather the feature vectors of `n` group members (member `e` is
    /// `member(e)`) into a reusable batch.
    fn group_features_into(
        &self,
        graphs: &[&PlanGraph],
        kind: usize,
        n: usize,
        member: impl Fn(usize) -> (usize, usize),
        out: &mut Batch,
    ) {
        let dim = NodeKind::ALL[kind].feature_dim();
        out.resize(dim, n);
        for e in 0..n {
            let (gi, ni) = member(e);
            out.set_example(e, &graphs[gi].nodes[ni].features);
        }
    }

    /// Assemble the combine-MLP input of `n` group members: `[encoder
    /// output ‖ sum of child states]`, member `e`'s children (`children(e)`,
    /// flat ids) summed in `node.children` order (the same element-wise
    /// order as the per-example path).
    ///
    /// Child states are accumulated into contiguous node-major rows
    /// (vectorised adds over the whole hidden vector per edge), then
    /// transposed once into the feature-major MLP input.  `sums` and the
    /// output batch are caller-provided reusable buffers.
    fn group_combine_input_into<'c>(
        &self,
        n: usize,
        children: impl Fn(usize) -> &'c [usize],
        enc_out: &Batch,
        states: &NodeStates,
        sums: &mut Vec<f64>,
        combine_in: &mut Batch,
    ) {
        let h = self.hidden_dim;
        combine_in.resize(2 * h, n);
        combine_in.copy_rows_from(0, enc_out, h);
        sums.clear();
        sums.resize(h * n, 0.0);
        for e in 0..n {
            let row = &mut sums[e * h..(e + 1) * h];
            for &c in children(e) {
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
    /// state rows of its `n` members (member `e` is `member(e)`; one
    /// transpose pass per group).
    fn scatter_group_states(
        &self,
        schedule: &BatchSchedule,
        n: usize,
        member: impl Fn(usize) -> (usize, usize),
        out: &Batch,
        states: &mut NodeStates,
    ) {
        for e in 0..n {
            let row = states.row_mut(schedule.flat(member(e)));
            for (f, s) in row.iter_mut().enumerate() {
                *s = out.get(f, e);
            }
        }
    }

    /// Batched encoder forward, no backprop caches (the inference path):
    /// one hidden state per node lands in `scratch.states()`, bit-identical
    /// per node to the per-example message passing.  The state of a member
    /// `catalog` holds is copied from it, and only a group's other members
    /// are computed (see the module docs).  Every intermediate batch is
    /// recycled, so warm calls perform zero heap allocations.
    pub fn encode_batch_into(
        &self,
        graphs: &[&PlanGraph],
        schedule: &BatchSchedule,
        catalog: &CatalogStates,
        scratch: &mut EncodeScratch,
    ) {
        let kind = active_kernel();
        let EncodeScratch {
            features,
            enc_fwd,
            combine_in,
            combine_fwd,
            sums,
            entries,
            misses,
            states,
            ..
        } = scratch;
        states.resize(self.hidden_dim, schedule.total_nodes);
        // Every entry a parent reads is written by an earlier group.
        if entries.len() < schedule.total_nodes {
            entries.resize(schedule.total_nodes, NO_ENTRY);
        }
        for group in &schedule.groups {
            misses.clear();
            for m in group.start..group.end {
                let (gi, ni) = schedule.members[m];
                let base = schedule.offsets[gi];
                let entry = catalog.resolve(&graphs[gi].nodes[ni], &entries[base..]);
                entries[base + ni] = entry;
                if entry == NO_ENTRY {
                    misses.push(m);
                } else {
                    states
                        .row_mut(base + ni)
                        .copy_from_slice(catalog.state(entry));
                }
            }
            if misses.is_empty() {
                continue;
            }
            let n = misses.len();
            let member = |e: usize| schedule.members[misses[e]];
            self.group_features_into(graphs, group.kind, n, member, features);
            let enc_out = self.encoders[group.kind].forward_batch_into(kind, features, enc_fwd);
            let children = |e: usize| schedule.children(misses[e]);
            self.group_combine_input_into(n, children, enc_out, states, sums, combine_in);
            let out = self
                .combine
                .forward_batch_into(kind, combine_in, combine_fwd);
            self.scatter_group_states(schedule, n, member, out, states);
        }
    }

    /// Batched encoder forward recording per-group backprop caches into
    /// `trace` (the training path); the states land in `states`.  States
    /// are bit-identical to [`PlanEncoder::encode_batch_into`]'s.  Every
    /// buffer is reused: with a trace and states sized up front, the pass
    /// performs no heap allocation.
    pub fn encode_batch_cached(
        &self,
        graphs: &[&PlanGraph],
        schedule: &BatchSchedule,
        trace: &mut EncoderTrace,
        states: &mut NodeStates,
    ) {
        let kind = active_kernel();
        let EncoderTrace { slots, sums, .. } = trace;
        if slots.len() < schedule.bucket_ends.len() {
            slots.resize_with(schedule.bucket_ends.len(), GroupTrace::default);
        }
        states.resize(self.hidden_dim, schedule.total_nodes);
        for group in &schedule.groups {
            let GroupTrace { enc, combine } = &mut slots[group.bucket];
            let members = schedule.members(group);
            let (n, member) = (members.len(), |e: usize| members[e]);
            self.group_features_into(graphs, group.kind, n, member, enc.input_mut());
            let enc_out = self.encoders[group.kind].forward_batch_cached_into(kind, enc);
            let combine_in = combine.input_mut();
            let children = |e| schedule.children(group.start + e);
            self.group_combine_input_into(n, children, enc_out, states, sums, combine_in);
            let out = self.combine.forward_batch_cached_into(kind, combine);
            self.scatter_group_states(schedule, n, member, out, states);
        }
    }

    /// Backpropagate per-node state gradients (accumulated by one or more
    /// task heads via [`NodeStates::scatter_add`]) through the message
    /// passing recorded in `trace`, *accumulating* encoder parameter
    /// gradients; `d_states` gains the child-state gradients on the way.
    ///
    /// The reduction order is fixed — groups in reverse schedule order,
    /// examples ascending within a group — making the accumulated
    /// gradients a deterministic function of the input.  The encoder
    /// MLPs' input gradients (w.r.t. the node features) are never used,
    /// so they are not computed.
    pub fn backward_batch(
        &mut self,
        schedule: &BatchSchedule,
        trace: &mut EncoderTrace,
        d_states: &mut NodeStates,
        backward: &mut BatchBackwardScratch,
    ) {
        let kind = active_kernel();
        let h = self.hidden_dim;
        let EncoderTrace {
            slots,
            sums: d_sums,
            d_out,
            d_enc,
        } = trace;
        for group in schedule.groups.iter().rev() {
            let slot = &slots[group.bucket];
            let members = schedule.members(group);
            let n = members.len();
            d_out.resize(h, n);
            for (e, &member) in members.iter().enumerate() {
                for (f, &v) in d_states.row(schedule.flat(member)).iter().enumerate() {
                    d_out.set(f, e, v);
                }
            }
            let d_combine_in =
                self.combine
                    .backward_batch_into(kind, &slot.combine, d_out, backward);
            d_enc.resize(h, n);
            d_enc.copy_rows_from(0, d_combine_in, h);
            // Sum pooling: every child receives the parent's child-sum
            // gradient.  Transpose the child-sum half once into node-major
            // rows, then add whole rows per edge (vectorised).
            d_sums.clear();
            d_sums.resize(h * n, 0.0);
            for f in 0..h {
                for (e, &g) in d_combine_in.feature_row(h + f).iter().enumerate() {
                    d_sums[e * h + f] = g;
                }
            }
            self.encoders[group.kind].backward_batch_params_into(kind, &slot.enc, d_enc, backward);
            for e in 0..n {
                let src = &d_sums[e * h..(e + 1) * h];
                for &c in schedule.children(group.start + e) {
                    for (d, &g) in d_states.row_mut(c).iter_mut().zip(src) {
                        *d += g;
                    }
                }
            }
        }
    }

    /// Size `trace` and `backward` for every micro-batch within `bounds`.
    fn reserve_training(
        &self,
        bounds: &ShardBounds,
        trace: &mut EncoderTrace,
        backward: &mut BatchBackwardScratch,
    ) {
        let buckets = bounds.bucket_members.len();
        if trace.slots.len() < buckets {
            trace.slots.resize_with(buckets, GroupTrace::default);
        }
        for (b, (slot, &n)) in trace
            .slots
            .iter_mut()
            .zip(&bounds.bucket_members)
            .enumerate()
        {
            self.encoders[b % KINDS].reserve_cache(&mut slot.enc, n);
            self.combine.reserve_cache(&mut slot.combine, n);
        }
        let (h, widest) = (self.hidden_dim, bounds.widest_group());
        for mlp in self.encoders.iter().chain([&self.combine]) {
            mlp.reserve_backward(backward, widest);
        }
        let sums = h * widest;
        trace.sums.reserve(sums.saturating_sub(trace.sums.len()));
        trace.d_out.reserve(h, widest);
        trace.d_enc.reserve(h, widest);
    }
}

/// Result of one batched gradient-accumulation pass.
pub struct BatchBackprop {
    /// Summed squared error on `ln(runtime)` over the mini-batch.
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
        self.predict_log_batch_with(graphs, &CatalogStates::default())
    }

    /// [`ZeroShotCostModel::predict_log_batch`] copying the state of every
    /// node `catalog` holds — bit-identical.
    fn predict_log_batch_with(&self, graphs: &[&PlanGraph], catalog: &CatalogStates) -> Vec<f64> {
        if graphs.is_empty() {
            return Vec::new();
        }
        let schedule = BatchSchedule::build(graphs);
        let mut out = Vec::new();
        let mut scratch = EncodeScratch::default();
        self.predict_log_scheduled_into(graphs, &schedule, catalog, &mut scratch, &mut out);
        out
    }

    /// [`ZeroShotCostModel::predict_log_batch`] with a prebuilt schedule,
    /// copying the state of every node `catalog` holds, through
    /// reusable scratch buffers: predictions are written into `out`
    /// (cleared first).  With a warm [`EncodeScratch`], a
    /// rebuilt [`BatchSchedule`] and a pre-grown `out`, the whole batched
    /// inference pass performs zero heap allocations.  Bit-identical to
    /// the allocating variant.
    pub fn predict_log_scheduled_into(
        &self,
        graphs: &[&PlanGraph],
        schedule: &BatchSchedule,
        catalog: &CatalogStates,
        scratch: &mut EncodeScratch,
        out: &mut Vec<f64>,
    ) {
        self.encoder
            .encode_batch_into(graphs, schedule, catalog, scratch);
        scratch
            .states
            .gather_into(schedule.roots(), &mut scratch.root_states);
        let pred = self.output.forward_batch_into(
            active_kernel(),
            &scratch.root_states,
            &mut scratch.out_fwd,
        );
        out.clear();
        out.extend_from_slice(pred.feature_row(0));
    }

    /// Batched runtime prediction (seconds), bit-identical per graph to
    /// [`ZeroShotCostModel::predict`].
    pub fn predict_batch(&self, graphs: &[&PlanGraph]) -> Vec<f64> {
        self.predict_batch_with(graphs, &CatalogStates::default())
    }

    /// [`ZeroShotCostModel::predict_batch`] copying the state of every
    /// node `catalog` holds — bit-identical (the served batched
    /// forward).
    pub fn predict_batch_with(&self, graphs: &[&PlanGraph], catalog: &CatalogStates) -> Vec<f64> {
        self.predict_log_batch_with(graphs, catalog)
            .into_iter()
            .map(f64::exp)
            .collect()
    }

    /// [`ZeroShotCostModel::predict_batch`] through `scratch`'s schedule
    /// and inference buffers, appending to `out` — bit-identical.
    pub(crate) fn predict_batch_into(
        &self,
        graphs: &[&PlanGraph],
        scratch: &mut TrainScratch,
        out: &mut Vec<f64>,
    ) {
        if graphs.is_empty() {
            return;
        }
        let TrainScratch {
            schedule,
            encode,
            log_predictions,
            ..
        } = scratch;
        schedule.rebuild(graphs);
        let catalog = CatalogStates::default();
        self.predict_log_scheduled_into(graphs, schedule, &catalog, encode, log_predictions);
        out.extend(log_predictions.iter().map(|p| p.exp()));
    }

    /// Batched training step contribution: forward the whole mini-batch,
    /// compute the squared error on `ln(runtime)` per graph, backpropagate
    /// and **accumulate** gradients (no optimizer step).  Returns the
    /// squared error summed over the graphs.
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
        let mut predictions = Vec::with_capacity(graphs.len());
        let loss = self.accumulate_gradients_into(
            graphs,
            |e| targets[e],
            &mut TrainScratch::default(),
            &mut predictions,
        );
        BatchBackprop { loss, predictions }
    }

    /// [`ZeroShotCostModel::accumulate_gradients_batch`] through `scratch`,
    /// with graph `e`'s target runtime read as `target(e)` and the
    /// training-forward predictions appended to `predictions`.  With a
    /// scratch sized by [`ZeroShotCostModel::reserve_training`] it
    /// performs no heap allocation.
    pub(crate) fn accumulate_gradients_into(
        &mut self,
        graphs: &[&PlanGraph],
        target: impl Fn(usize) -> f64,
        scratch: &mut TrainScratch,
        predictions: &mut Vec<f64>,
    ) -> f64 {
        if graphs.is_empty() {
            return 0.0;
        }
        let kind = active_kernel();
        let TrainScratch {
            schedule,
            trace,
            states,
            d_states,
            output,
            d_pred,
            backward,
            ..
        } = scratch;
        schedule.rebuild(graphs);

        // ---- Forward with caches -------------------------------------
        self.encoder
            .encode_batch_cached(graphs, schedule, trace, states);
        states.gather_into(schedule.roots(), output.input_mut());
        let out = self.output.forward_batch_cached_into(kind, output);

        // ---- Loss ----------------------------------------------------
        let mut loss = 0.0;
        d_pred.resize(1, graphs.len());
        for (e, &log_pred) in out.feature_row(0).iter().enumerate() {
            let target = target(e).max(1e-9).ln();
            predictions.push(log_pred.exp());
            let error = log_pred - target;
            loss += error * error;
            d_pred.set(0, e, 2.0 * error);
        }

        // ---- Backward ------------------------------------------------
        let d_root = self
            .output
            .backward_batch_into(kind, output, d_pred, backward);
        d_states.resize(self.config.hidden_dim, schedule.num_nodes());
        d_states.scatter_add(schedule.roots(), d_root);
        self.encoder
            .backward_batch(schedule, trace, d_states, backward);
        loss
    }

    /// Size `scratch` for training steps over micro-batches of at most
    /// `microbatch` of `graphs`, so that no step allocates.
    pub(crate) fn reserve_training(
        &self,
        scratch: &mut TrainScratch,
        graphs: &[PlanGraph],
        microbatch: usize,
    ) {
        let bounds = ShardBounds::of(graphs, microbatch);
        let h = self.config.hidden_dim;
        scratch.schedule.reserve(&bounds);
        self.encoder
            .reserve_training(&bounds, &mut scratch.trace, &mut scratch.backward);
        scratch.states.reserve(h, bounds.nodes);
        scratch.d_states.reserve(h, bounds.nodes);
        self.output
            .reserve_cache(&mut scratch.output, bounds.graphs);
        self.output
            .reserve_backward(&mut scratch.backward, bounds.graphs);
        scratch.d_pred.reserve(1, bounds.graphs);
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
    use zsdb_nn::ForwardScratch;
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
        // Groups run in (level, kind) order, members ascend, and children
        // keep the graph's own order.
        let mut seen = vec![false; schedule.num_nodes()];
        let offsets = schedule.offsets();
        for (group, next) in schedule.groups.iter().zip(schedule.groups.iter().skip(1)) {
            assert!(group.bucket < next.bucket && group.end == next.start);
        }
        for group in &schedule.groups {
            let members = schedule.members(group);
            assert!(members.windows(2).all(|w| w[0] < w[1]), "members ascend");
            for (e, &(gi, ni)) in members.iter().enumerate() {
                let flat = offsets[gi] + ni;
                assert!(!seen[flat], "node scheduled twice");
                let children = schedule.children(group.start + e);
                for &c in children {
                    assert!(seen[c], "child {c} scheduled after parent {flat}");
                }
                let own: Vec<usize> = graphs[gi].nodes[ni]
                    .children
                    .iter()
                    .map(|c| offsets[gi] + c)
                    .collect();
                assert_eq!(children, own.as_slice());
                assert_eq!(graphs[gi].nodes[ni].kind.index(), group.kind);
                assert_eq!(group.bucket % KINDS, group.kind);
            }
            for &member in members {
                seen[schedule.flat(member)] = true;
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
            let catalog = CatalogStates::default();
            model.predict_log_scheduled_into(&refs, &schedule, &catalog, &mut scratch, &mut out);
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
        let mut scratch = EncodeScratch::default();
        let catalog = CatalogStates::default();
        model
            .encoder()
            .encode_batch_into(&refs, &schedule, &catalog, &mut scratch);
        let states = scratch.states();
        // Root rows pushed through the output MLP must reproduce the
        // model's own predictions bit for bit.
        for (gi, g) in refs.iter().enumerate() {
            let flat = schedule.offsets()[gi] + g.root;
            let mut scratch = ForwardScratch::default();
            let out = model
                .output
                .forward_into(active_kernel(), states.row(flat), &mut scratch);
            assert_eq!(out[0].to_bits(), model.predict_log(g).to_bits());
        }
    }

    /// The per-example reference of the batched backward: one node at a
    /// time in topological order going forward and in reverse going back,
    /// every MLP call over a one-example batch.  Accumulates `model`'s
    /// gradients of `(prediction − ln target)²` and returns that loss.
    fn accumulate_per_example(
        model: &mut ZeroShotCostModel,
        graph: &PlanGraph,
        target: f64,
    ) -> f64 {
        let kind = active_kernel();
        let h = model.config.hidden_dim;
        let column = |x: &[f64]| Batch::from_examples(x.len(), std::iter::once(x));
        let cached = |mlp: &zsdb_nn::Mlp, x: &[f64]| {
            let mut cache = MlpBatchCache::default();
            *cache.input_mut() = column(x);
            let out = mlp.forward_batch_cached_into(kind, &mut cache).example(0);
            (out, cache)
        };

        // Forward: every node's encoder and combine caches and its state.
        let (mut states, mut enc_caches, mut combine_caches) = (vec![], vec![], vec![]);
        for node in &graph.nodes {
            let (mut combine_in, enc) =
                cached(&model.encoder.encoders[node.kind.index()], &node.features);
            let mut sum = vec![0.0; h];
            // Children precede parents, so their states exist.
            for &c in &node.children {
                for (s, v) in sum.iter_mut().zip(&states[c]) {
                    *s += v;
                }
            }
            combine_in.extend_from_slice(&sum);
            let (state, combine) = cached(&model.encoder.combine, &combine_in);
            states.push(state);
            enc_caches.push(enc);
            combine_caches.push(combine);
        }
        let (out, out_cache) = cached(&model.output, &states[graph.root]);
        let error = out[0] - target.max(1e-9).ln();

        // Backward: a node's state gradient is the sum over its parents
        // (sum pooling hands every child the parent's child-sum gradient).
        let mut scratch = BatchBackwardScratch::default();
        let mut d_states = vec![vec![0.0; h]; graph.len()];
        d_states[graph.root] = model
            .output
            .backward_batch_into(kind, &out_cache, &column(&[2.0 * error]), &mut scratch)
            .example(0);
        for (idx, node) in graph.nodes.iter().enumerate().rev() {
            let d_combine_in = model
                .encoder
                .combine
                .backward_batch_into(
                    kind,
                    &combine_caches[idx],
                    &column(&d_states[idx]),
                    &mut scratch,
                )
                .example(0);
            let (d_enc, d_children_sum) = d_combine_in.split_at(h);
            model.encoder.encoders[node.kind.index()].backward_batch_params_into(
                kind,
                &enc_caches[idx],
                &column(d_enc),
                &mut scratch,
            );
            for &c in &node.children {
                for (acc, g) in d_states[c].iter_mut().zip(d_children_sum) {
                    *acc += g;
                }
            }
        }
        error * error
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
            ref_loss += accumulate_per_example(&mut per_example, g, *t);
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
    fn shard_gradients_reduce_in_order() {
        let graphs = graphs();
        let refs: Vec<&PlanGraph> = graphs.iter().take(4).collect();
        let targets: Vec<f64> = refs.iter().map(|g| g.runtime_secs.unwrap()).collect();

        // Gradients computed in two shards and added into a zeroed master
        // in shard order are, per parameter, `(0 + a) + b`.
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
        master.add_gradients_from(&shard_a);
        master.add_gradients_from(&shard_b);
        let mut reduced = Vec::new();
        master.export_gradients(&mut reduced);

        let expected: Vec<f64> = flat_a
            .iter()
            .zip(&flat_b)
            .map(|(a, b)| (0.0 + a) + b)
            .collect();
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        assert_eq!(bits(&reduced), bits(&expected));
    }

    /// One reserved `TrainScratch` reused across differently composed
    /// mini-batches trains and predicts the bits of fresh allocating calls.
    #[test]
    fn reused_train_scratch_is_bit_identical_to_fresh_calls() {
        let graphs = graphs();
        let mut scratch = TrainScratch::default();
        let template = ZeroShotCostModel::new(ModelConfig::tiny());
        template.reserve_training(&mut scratch, &graphs, 7);
        let bits = |m: &ZeroShotCostModel| -> Vec<u64> {
            let mut flat = Vec::new();
            m.export_gradients(&mut flat);
            flat.iter().map(|x| x.to_bits()).collect()
        };
        for (start, len) in [(0, 7), (3, 2), (10, 7), (5, 1), (0, graphs.len())] {
            let refs: Vec<&PlanGraph> = graphs[start..].iter().take(len).collect();
            let targets: Vec<f64> = refs.iter().map(|g| g.runtime_secs.unwrap()).collect();
            let mut fresh = template.clone();
            let expected = fresh.accumulate_gradients_batch(&refs, &targets);
            let mut reused = template.clone();
            let mut predictions = Vec::new();
            let loss = reused.accumulate_gradients_into(
                &refs,
                |e| targets[e],
                &mut scratch,
                &mut predictions,
            );
            let values = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
            assert_eq!(loss.to_bits(), expected.loss.to_bits());
            assert_eq!(values(&predictions), values(&expected.predictions));
            assert_eq!(bits(&reused), bits(&fresh), "{start}+{len}");
            let mut predicted = Vec::new();
            template.predict_batch_into(&refs, &mut scratch, &mut predicted);
            assert_eq!(values(&predicted), values(&template.predict_batch(&refs)));
        }
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
