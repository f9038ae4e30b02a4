//! One serving engine, any model: a thread-per-core **sharded** worker
//! pool with fingerprint-routed queues and work stealing, generic over
//! what it serves.
//!
//! [`Server<M>`] owns everything that is not the model — the shards
//! (queue, cache slice, depth gauge), routing, stealing, the hot-swap
//! lock, tickets, tracing, metrics, provenance and shutdown.  A
//! [`Servable`] model supplies only what differs between models: its
//! [`FeaturizerConfig`], the per-request and batched forward passes (with
//! the per-worker scratch the former reuses), and how a forward output
//! plus its [`Placement`] becomes the public answer type.
//! [`PredictionServer`] (the zero-shot cost model) and
//! [`MultiTaskPredictionServer`](crate::MultiTaskPredictionServer) are the
//! two instantiations; the engine is monomorphised per model and never
//! branches on which one it serves.
//!
//! Design notes:
//!
//! * **Thread-per-core shards** — the server spawns
//!   [`ServerConfig::workers`] shards, each owning its *own* bounded
//!   `VecDeque` job queue, its own [`FeatureCache`] slice, and its own
//!   scratch (the model's [`Servable::Scratch`] plus a
//!   [`GraphArena`]-backed featurization buffer).  A request is routed to
//!   shard `fingerprint % N` at submission, so every repetition of a plan
//!   shape lands on the shard that cached its features — there is no
//!   single contended queue mutex and no shared LRU on the hot path.
//! * **Work stealing on overload** — a worker whose queue is empty makes
//!   one pass over the other shards' queues (oldest job first) before
//!   parking briefly, so a skewed fingerprint distribution cannot idle
//!   the rest of the pool.  Stolen jobs still consult the *owner* shard's
//!   feature cache (keyed by fingerprint), preserving the one-home-per-
//!   shape cache invariant; only the scratch buffers are the stealer's.
//! * **Backpressure, not unbounded queueing** — every shard queue is
//!   bounded at `queue_capacity / N` (rounded up).  [`Server::submit`]
//!   blocks the producer while the target shard is full;
//!   [`Server::try_submit`] sheds load immediately with
//!   [`ServeError::Overloaded`].
//! * **Shared-read model** — the served model is behind an `Arc` and only
//!   ever read; each worker owns private scratch, so steady-state
//!   inference takes no shard-crossing locks.  The engine's own warm path
//!   (queue hop, cache hit or arena-warm featurization, metrics) performs
//!   no heap allocation; whether the *forward* allocates is a property of
//!   the model's [`Servable::Scratch`] — zero for
//!   [`TrainedModel`]'s [`InferenceScratch`], not for a model whose
//!   scratch is `()`.
//! * **Catalog nodes once per version** — the state of a Table, Column,
//!   Predicate or Aggregation node depends only on the catalog and the
//!   weights, so [`ServedModel`] carries a [`CatalogStates`] built from
//!   the model's [`PlanEncoder`] before the version is published (at
//!   start and in [`Server::swap_model`]); both forwards copy those states
//!   instead of computing them, with the same bits, and compute a plan's
//!   operators alone.
//! * **Deterministic results** — workers featurize with the model's own
//!   [`FeaturizerConfig`] and run the same floating-point operations as
//!   the single-threaded path, so a served answer is bit-identical to
//!   `model.predict(featurize_plan(...))` — independent of the shard
//!   count, the routing, and whether the job was stolen.
//! * **Batched submission** — [`Server::submit_batch`] enqueues a batch
//!   as one queue entry per [`ServerConfig::max_batch_size`] chunk
//!   (routed by its first plan's fingerprint); a worker featurizes each
//!   chunk in one cache-assisted sweep and answers it with a single
//!   batched forward pass ([`zsdb_core::batch`]), amortising per-request
//!   overhead while staying bit-identical to per-request submission —
//!   and since every chunk occupies a bounded-queue slot,
//!   `queue_capacity` keeps bounding in-flight work for batches too.

use crate::cache::{CacheStats, FeatureCache};
use crate::error::ServeError;
use crate::metrics::{
    MetricsSnapshot, ObservabilityConfig, ServeMetrics, STAGE_CACHE_LOOKUP, STAGE_FEATURIZE,
    STAGE_FORWARD, STAGE_QUEUE_WAIT,
};
use crate::provenance::{ProvenanceSeed, MODEL_NAME};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use zsdb_catalog::SchemaCatalog;
use zsdb_core::features::{featurize_plan_into, PlanGraph};
use zsdb_core::fingerprint::plan_fingerprint;
use zsdb_core::model::InferenceScratch;
use zsdb_core::train::TrainedModel;
use zsdb_core::{CatalogStates, FeaturizerConfig, GraphArena, PlanEncoder};
use zsdb_engine::PlanNode;
use zsdb_obs::{ActiveTrace, FlightClass, FlightRecorder, Gauge, Trace, Tracer};
use zsdb_protocol::{ProvenanceRecord, WireSloStatus};

/// Finished traces (and standalone events) the server's [`Tracer`] keeps
/// per recording thread.
const TRACE_RING: usize = 256;

/// How long an idle worker parks on its own queue's condvar between
/// steal passes.  Small enough that a job stuck in a busy neighbour's
/// queue is stolen within a fraction of a millisecond; large enough that
/// an idle pool burns negligible CPU.
const STEAL_PARK: Duration = Duration::from_micros(500);

/// Tunables of a [`Server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Number of worker threads — equivalently, the number of shards:
    /// every worker owns one shard (queue + cache slice + scratch).  Set
    /// this to the core count for a thread-per-core deployment.
    pub workers: usize,
    /// Total capacity of the bounded request queues (backpressure
    /// threshold), split evenly across the shards (rounded up, so each
    /// shard holds at least one job).
    pub queue_capacity: usize,
    /// Total capacity of the feature cache (entries; 0 disables
    /// caching), split evenly across the per-shard cache slices
    /// (rounded up).
    pub cache_capacity: usize,
    /// Largest batch answered as one unit: `submit_batch` splits bigger
    /// submissions into chunks of at most this many plans, each occupying
    /// one bounded-queue slot — so `queue_capacity` bounds in-flight work
    /// for batches too (within a factor of `max_batch_size`), instead of
    /// a single huge batch bypassing backpressure.
    pub max_batch_size: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 256,
            cache_capacity: 1024,
            max_batch_size: 256,
        }
    }
}

/// Where and how the engine answered one request — everything about an
/// answer that does not depend on the model.  [`Servable::answer`] folds
/// it, together with the forward output, into the public answer type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
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

/// What a model supplies to be served by the one engine, [`Server`].
///
/// The engine is monomorphised over the implementation: it owns queues,
/// caches, routing, stealing, hot-swap, metrics and tracing, and calls
/// into the model only through these items.
pub trait Servable: Send + Sync + Sized + 'static {
    /// Model family name stamped on every [`ProvenanceRecord`] this
    /// model's server assembles (the registry versions models; this names
    /// what the versions are *of*).
    const NAME: &'static str;
    /// Names of the task heads a forward output carries, in
    /// [`Servable::head_bits`] order.
    const TASK_HEADS: &'static [&'static str];
    /// Per-worker buffers the per-request forward reuses across requests
    /// (`()` for a model that allocates in its forward).
    type Scratch: Default;
    /// What one forward pass yields for one plan.
    type Output;
    /// The public answer type: a forward output plus its [`Placement`].
    type Prediction: Send + 'static;

    /// The featurization requests must be given to match training.
    fn featurizer(&self) -> FeaturizerConfig;
    /// The shared plan encoder: the engine builds each version's
    /// [`CatalogStates`] from it.
    fn encoder(&self) -> &PlanEncoder;
    /// Forward one featurized plan through the worker's scratch, copying
    /// the state of every node `catalog` holds.  Bit-identical with any
    /// table, the empty one included.
    fn forward(
        &self,
        graph: &PlanGraph,
        catalog: &CatalogStates,
        scratch: &mut Self::Scratch,
    ) -> Self::Output;
    /// Forward a batch in one pass, bit-identical per graph to
    /// [`Servable::forward`], outputs in input order.
    fn forward_batch(&self, graphs: &[&PlanGraph], catalog: &CatalogStates) -> Vec<Self::Output>;
    /// `f64::to_bits` of an output, one list per head in
    /// [`Servable::TASK_HEADS`] order: what the registry's integrity
    /// probes record and re-verify.
    fn head_bits(output: &Self::Output) -> Vec<Vec<u64>>;
    /// Assemble the public answer.
    fn answer(output: Self::Output, placement: Placement) -> Self::Prediction;
    /// The provenance seed of an answer: its placement, [`Servable::NAME`]
    /// and the predicted runtime.
    fn provenance_seed(prediction: &Self::Prediction) -> ProvenanceSeed;
}

/// One answered prediction request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Predicted runtime in seconds.
    pub runtime_secs: f64,
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

impl Prediction {
    /// The provenance seed of this prediction — everything a finished
    /// trace needs to become a full
    /// [`ProvenanceRecord`].
    pub fn provenance_seed(&self) -> ProvenanceSeed {
        ProvenanceSeed {
            fingerprint: self.fingerprint,
            model_name: TrainedModel::NAME,
            model_version: self.model_version,
            cache_hit: self.cache_hit,
            home_shard: self.home_shard,
            executed_shard: self.executed_shard,
            stolen: self.stolen,
            predicted_secs: self.runtime_secs,
            class: self.flight_class,
        }
    }
}

/// The zero-shot cost model: the forward runs allocation-free through the
/// worker's [`InferenceScratch`], so this instantiation's warm path never
/// touches the allocator.
impl Servable for TrainedModel {
    const NAME: &'static str = MODEL_NAME;
    const TASK_HEADS: &'static [&'static str] = &["cost"];
    type Scratch = InferenceScratch;
    type Output = f64;
    type Prediction = Prediction;

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
        scratch: &mut InferenceScratch,
    ) -> f64 {
        self.model.predict_log_with(graph, catalog, scratch).exp()
    }

    fn forward_batch(&self, graphs: &[&PlanGraph], catalog: &CatalogStates) -> Vec<f64> {
        self.model.predict_batch_with(graphs, catalog)
    }

    fn head_bits(runtime_secs: &f64) -> Vec<Vec<u64>> {
        vec![vec![runtime_secs.to_bits()]]
    }

    fn answer(runtime_secs: f64, placement: Placement) -> Prediction {
        Prediction {
            runtime_secs,
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

    fn provenance_seed(prediction: &Prediction) -> ProvenanceSeed {
        prediction.provenance_seed()
    }
}

/// A versioned, immutable served model — the unit of an atomic hot-swap.
///
/// Workers pin the current `Arc<ServedModel<M>>` per dequeued job, so a
/// concurrent [`Server::swap_model`] never changes the weights under an
/// in-flight request or batch: work that already started finishes on the
/// old version, work dequeued after the swap runs on the new one.
#[derive(Debug)]
pub struct ServedModel<M> {
    /// Registry version of this model (1 for a model served directly
    /// without a registry).
    pub version: u32,
    /// The model itself.
    pub model: M,
    /// The hidden states of the catalog's Table, Column, Predicate and
    /// Aggregation nodes under this version's weights, built before the
    /// version is published: every request pinned to this version copies
    /// those nodes' states from here and from no other version's table.
    pub catalog_states: CatalogStates,
}

impl<M: Servable> ServedModel<M> {
    /// Version `version` of `model`, ready to serve plans of `catalog`.
    fn new(model: M, version: u32, catalog: &SchemaCatalog) -> Self {
        let catalog_states = model.encoder().catalog_states(catalog, model.featurizer());
        ServedModel {
            version,
            model,
            catalog_states,
        }
    }
}

/// Claim ticket for an in-flight request; redeem with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket<P> {
    rx: mpsc::Receiver<(P, Option<ActiveTrace>)>,
}

impl<P> Ticket<P> {
    /// Block until the prediction is ready.  Fails with
    /// [`ServeError::Closed`] if the server shut down before answering.
    pub fn wait(self) -> Result<P, ServeError> {
        self.wait_traced().map(|(prediction, _)| prediction)
    }

    /// Like [`Ticket::wait`], but also hands back the request's in-flight
    /// trace (when the request was submitted with one) so the caller can
    /// mark its own final stages and finish it.
    pub fn wait_traced(self) -> Result<(P, Option<ActiveTrace>), ServeError> {
        self.rx.recv().map_err(|_| ServeError::Closed)
    }
}

/// Claim ticket for an in-flight batch request; redeem with
/// [`BatchTicket::wait`].
///
/// A submission larger than
/// [`max_batch_size`](ServerConfig::max_batch_size) is answered in
/// several chunks (possibly by different workers); the ticket stitches
/// them back together in submission order.
#[derive(Debug)]
pub struct BatchTicket<P> {
    parts: Vec<mpsc::Receiver<(Vec<P>, Option<ActiveTrace>)>>,
}

impl<P> BatchTicket<P> {
    /// Block until all predictions of the batch are ready and return them
    /// in submission order.  Fails with [`ServeError::Closed`] if the
    /// server shut down before answering.
    pub fn wait(self) -> Result<Vec<P>, ServeError> {
        self.wait_traced().map(|(predictions, _)| predictions)
    }

    /// Like [`BatchTicket::wait`], but also hands back the batch's
    /// in-flight trace.  A traced batch submission attaches its trace to
    /// the first chunk; the returned trace is the first one any chunk
    /// carried.
    pub fn wait_traced(self) -> Result<(Vec<P>, Option<ActiveTrace>), ServeError> {
        let mut predictions = Vec::new();
        let mut trace = None;
        for part in self.parts {
            let (chunk, chunk_trace) = part.recv().map_err(|_| ServeError::Closed)?;
            predictions.extend(chunk);
            trace = trace.or(chunk_trace);
        }
        Ok((predictions, trace))
    }
}

/// A request that [`Server::try_submit`] could not enqueue: the plan
/// comes back (boxed, to keep the `Err` variant small) together with the
/// rejection reason so the caller can retry or shed it.
#[derive(Debug)]
pub struct RejectedRequest {
    /// The plan that was not enqueued.
    pub plan: Box<PlanNode>,
    /// Why it was rejected ([`ServeError::Overloaded`] or
    /// [`ServeError::Closed`]).
    pub reason: ServeError,
}

impl std::fmt::Display for RejectedRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "request rejected: {}", self.reason)
    }
}

impl std::error::Error for RejectedRequest {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.reason)
    }
}

/// A batch that [`Server::try_submit_batch`] could not fully enqueue.
///
/// Chunked admission cannot be undone once a chunk is in the queue, so a
/// partial failure is reported honestly: [`RejectedBatch::plans`] holds
/// the unsent remainder (in submission order, for retry) and
/// [`RejectedBatch::answered`] the ticket for chunks that *were*
/// admitted before the queue filled up — `None` when nothing was.
pub struct RejectedBatch<P> {
    /// The plans that were not enqueued, in submission order.
    pub plans: Vec<PlanNode>,
    /// Why admission stopped ([`ServeError::Overloaded`] or
    /// [`ServeError::Closed`]).
    pub reason: ServeError,
    /// Ticket for the prefix of the batch that was admitted before the
    /// rejection, if any.
    pub answered: Option<BatchTicket<P>>,
}

impl<P> std::fmt::Debug for RejectedBatch<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RejectedBatch")
            .field("plans", &self.plans.len())
            .field("reason", &self.reason)
            .field("answered", &self.answered.is_some())
            .finish()
    }
}

impl<P> std::fmt::Display for RejectedBatch<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "batch rejected: {} ({} plans unsent)",
            self.reason,
            self.plans.len()
        )
    }
}

/// A unit of queued work: one plan (with its routing fingerprint,
/// computed once at submission), or a whole batch of plans that shares
/// one featurization/inference pass.  `P` is the answer type sent back.
enum Job<P> {
    Single {
        plan: PlanNode,
        fingerprint: u64,
        enqueued: Instant,
        reply: mpsc::Sender<(P, Option<ActiveTrace>)>,
        trace: Option<ActiveTrace>,
    },
    Batch {
        plans: Vec<PlanNode>,
        enqueued: Instant,
        reply: mpsc::Sender<(Vec<P>, Option<ActiveTrace>)>,
        trace: Option<ActiveTrace>,
    },
}

/// Mutable half of a shard's queue, behind its mutex.
struct ShardState<P> {
    jobs: VecDeque<Job<P>>,
    closed: bool,
}

/// What a worker got when it asked its own queue for work.
enum Dequeued<P> {
    /// A job to run.
    Job(Box<Job<P>>),
    /// Queue empty and the server is shutting down: exit.
    Closed,
    /// Queue empty, park timed out: go try a steal pass.
    Idle,
}

/// One server shard: a bounded job queue (mutex + condvars), the shard's
/// slice of the feature cache, and its queue-depth gauge.  Shard `i` is
/// owned by worker `i`; other workers touch its queue only to steal and
/// its cache only for fingerprints that route here.
struct Shard<P> {
    state: Mutex<ShardState<P>>,
    /// Signalled on push; the owning worker parks here when idle.
    not_empty: Condvar,
    /// Signalled on pop; blocking producers park here when the shard is
    /// full.
    not_full: Condvar,
    capacity: usize,
    /// The `serve.shard.N.queue_depth` gauge, moved under the queue lock
    /// so it never reads below zero.
    depth: Gauge,
    /// This shard's slice of the feature cache: every fingerprint that
    /// routes here is cached here and nowhere else.
    cache: FeatureCache,
}

impl<P> Shard<P> {
    fn new(capacity: usize, cache_capacity: usize, depth: Gauge) -> Self {
        Shard {
            state: Mutex::new(ShardState {
                jobs: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            depth,
            cache: FeatureCache::new(cache_capacity),
        }
    }

    /// Enqueue; a full shard blocks the producer when `wait` is set
    /// (backpressure) and rejects with [`ServeError::Overloaded`]
    /// otherwise.  [`ServeError::Closed`] wins over `Overloaded`: a full
    /// queue on a closed server will never have room again.  On failure
    /// the job comes back (boxed — the error path is cold and `Job` is
    /// large) with the reason.
    fn push(&self, job: Job<P>, wait: bool) -> Result<(), (Box<Job<P>>, ServeError)> {
        let mut state = self.state.lock().expect("shard queue poisoned");
        while wait && !state.closed && state.jobs.len() >= self.capacity {
            state = self
                .not_full
                .wait(state)
                .expect("shard queue poisoned while waiting");
        }
        if state.closed {
            return Err((Box::new(job), ServeError::Closed));
        }
        if state.jobs.len() >= self.capacity {
            return Err((Box::new(job), ServeError::Overloaded));
        }
        state.jobs.push_back(job);
        self.depth.inc();
        self.not_empty.notify_one();
        Ok(())
    }

    /// Non-blocking dequeue of the oldest job — used by the owning
    /// worker's fast path and by stealers.
    fn try_pop(&self) -> Option<Job<P>> {
        let mut state = self.state.lock().expect("shard queue poisoned");
        let job = state.jobs.pop_front()?;
        self.depth.dec();
        self.not_full.notify_one();
        Some(job)
    }

    /// Dequeue for the owning worker: pop a job, report shutdown once
    /// the queue is drained and closed, or park for at most `park`
    /// before the caller's next steal pass.
    fn pop_or_park(&self, park: Duration) -> Dequeued<P> {
        let mut state = self.state.lock().expect("shard queue poisoned");
        if let Some(job) = state.jobs.pop_front() {
            self.depth.dec();
            self.not_full.notify_one();
            return Dequeued::Job(Box::new(job));
        }
        if state.closed {
            return Dequeued::Closed;
        }
        let (mut state, _timeout) = self
            .not_empty
            .wait_timeout(state, park)
            .expect("shard queue poisoned while parked");
        if let Some(job) = state.jobs.pop_front() {
            self.depth.dec();
            self.not_full.notify_one();
            return Dequeued::Job(Box::new(job));
        }
        if state.closed {
            return Dequeued::Closed;
        }
        Dequeued::Idle
    }

    /// Close the shard: no further admission; the owning worker exits
    /// once the queue is drained.  Wakes parked workers and blocked
    /// producers.
    fn close(&self) {
        self.state.lock().expect("shard queue poisoned").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

struct Shared<M: Servable> {
    /// The currently served model, swappable at runtime.  Workers take
    /// the read lock only long enough to clone the `Arc`; a swap takes
    /// the write lock only long enough to replace it — neither ever
    /// blocks on inference.
    model: RwLock<Arc<ServedModel<M>>>,
    catalog: SchemaCatalog,
    shards: Vec<Shard<M::Prediction>>,
    metrics: ServeMetrics,
    tracer: Tracer,
}

impl<M: Servable> Shared<M> {
    fn current(&self) -> Arc<ServedModel<M>> {
        Arc::clone(&self.model.read().expect("served model lock poisoned"))
    }

    /// Index of the shard a fingerprint routes to — the home of its
    /// queue slot and its cache entry.
    fn home_of(&self, fingerprint: u64) -> usize {
        (fingerprint % self.shards.len() as u64) as usize
    }

    fn shard_of(&self, fingerprint: u64) -> &Shard<M::Prediction> {
        &self.shards[self.home_of(fingerprint)]
    }
}

/// A running prediction service over one [`Servable`] model and one
/// database catalog — the engine behind [`PredictionServer`] and
/// [`MultiTaskPredictionServer`](crate::MultiTaskPredictionServer).
pub struct Server<M: Servable> {
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared<M>>,
    config: ServerConfig,
}

/// The engine serving the zero-shot cost model.
pub type PredictionServer = Server<TrainedModel>;
/// Claim ticket of a [`PredictionServer`] request.
pub type PredictionTicket = Ticket<Prediction>;
/// Claim ticket of a [`PredictionServer`] batch.
pub type BatchPredictionTicket = BatchTicket<Prediction>;

impl<M: Servable> Server<M> {
    /// Spawn the worker pool and start accepting requests.
    ///
    /// The catalog must describe the database the request plans were
    /// optimised for — it supplies the table/column statistics the
    /// transferable featurization reads.
    pub fn start(model: M, catalog: SchemaCatalog, config: ServerConfig) -> Self {
        Self::start_versioned(model, 1, catalog, config)
    }

    /// [`Server::start`] with an explicit initial model version (use the
    /// registry version the model was loaded from, so the answers'
    /// `model_version` matches the registry lifecycle).
    pub fn start_versioned(
        model: M,
        version: u32,
        catalog: SchemaCatalog,
        config: ServerConfig,
    ) -> Self {
        Self::start_observed(
            model,
            version,
            catalog,
            config,
            ObservabilityConfig::default(),
        )
    }

    /// [`Server::start_versioned`] with explicit observability tuning:
    /// the flight recorder's retention thresholds and the SLO objective
    /// the burn-rate windows grade against.
    pub fn start_observed(
        model: M,
        version: u32,
        catalog: SchemaCatalog,
        config: ServerConfig,
        observability: ObservabilityConfig,
    ) -> Self {
        assert!(config.workers > 0, "a server needs at least one worker");
        assert!(
            config.queue_capacity > 0,
            "a zero-capacity queue would reject every request"
        );
        let metrics = ServeMetrics::with_observability(observability);
        // The configured totals are split across the shards; div_ceil
        // keeps every shard usable (≥ 1 queue slot, and a non-empty
        // cache slice whenever caching is enabled at all).
        let shard_queue = config.queue_capacity.div_ceil(config.workers).max(1);
        let shard_cache = if config.cache_capacity == 0 {
            0
        } else {
            config.cache_capacity.div_ceil(config.workers)
        };
        let shards = (0..config.workers)
            .map(|i| Shard::new(shard_queue, shard_cache, metrics.shard_queue_gauge(i)))
            .collect();
        let shared = Arc::new(Shared {
            model: RwLock::new(Arc::new(ServedModel::new(model, version, &catalog))),
            catalog,
            shards,
            metrics,
            tracer: Tracer::new(TRACE_RING),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("zsdb-serve-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("failed to spawn serving worker")
            })
            .collect();
        Server {
            workers,
            shared,
            config,
        }
    }

    /// The one admission path for single requests: `wait` blocks on a
    /// full shard, `!wait` sheds (and counts the rejection).
    fn enqueue(
        &self,
        plan: PlanNode,
        trace: Option<ActiveTrace>,
        wait: bool,
    ) -> Result<Ticket<M::Prediction>, RejectedRequest> {
        // The fingerprint both routes the request (cache affinity) and
        // keys the cache — computed once here, carried in the job.
        let fingerprint = plan_fingerprint(&plan);
        let (reply, rx) = mpsc::channel();
        let job = Job::Single {
            plan,
            fingerprint,
            enqueued: Instant::now(),
            reply,
            trace,
        };
        match self.shared.shard_of(fingerprint).push(job, wait) {
            Ok(()) => Ok(Ticket { rx }),
            Err((job, reason)) => {
                if !wait {
                    self.shared.metrics.record_rejection();
                }
                let Job::Single { plan, .. } = *job else {
                    unreachable!("single submission cannot hold a batch")
                };
                Err(RejectedRequest {
                    plan: Box::new(plan),
                    reason,
                })
            }
        }
    }

    /// The one admission path for batches (see [`Server::enqueue`]).
    fn enqueue_batch(
        &self,
        plans: Vec<PlanNode>,
        mut trace: Option<ActiveTrace>,
        wait: bool,
    ) -> Result<BatchTicket<M::Prediction>, RejectedBatch<M::Prediction>> {
        // Split oversized submissions into max_batch_size chunks, each a
        // bounded-queue entry of its own: queue_capacity keeps bounding
        // in-flight work, and an over-large batch experiences the same
        // backpressure as a burst of single requests.
        let max = self.config.max_batch_size.max(1);
        let mut parts = Vec::with_capacity(plans.len().div_ceil(max));
        let mut remaining = plans;
        while !remaining.is_empty() {
            let rest = if remaining.len() > max {
                remaining.split_off(max)
            } else {
                Vec::new()
            };
            let chunk = std::mem::replace(&mut remaining, rest);
            // Route the chunk by its first plan's fingerprint: a batch of
            // repeats of one shape gets the same cache affinity as the
            // equivalent single submissions.
            let fingerprint = plan_fingerprint(&chunk[0]);
            let (reply, rx) = mpsc::channel();
            let job = Job::Batch {
                plans: chunk,
                enqueued: Instant::now(),
                reply,
                trace: trace.take(),
            };
            if let Err((job, reason)) = self.shared.shard_of(fingerprint).push(job, wait) {
                if !wait {
                    self.shared.metrics.record_rejection();
                }
                let Job::Batch {
                    plans: mut unsent, ..
                } = *job
                else {
                    unreachable!("batch submission cannot hold a single")
                };
                unsent.append(&mut remaining);
                return Err(RejectedBatch {
                    plans: unsent,
                    reason,
                    answered: (!parts.is_empty()).then_some(BatchTicket { parts }),
                });
            }
            parts.push(rx);
        }
        Ok(BatchTicket { parts })
    }

    /// Enqueue a prediction request, blocking while the queue is full
    /// (backpressure).
    pub fn submit(&self, plan: PlanNode) -> Result<Ticket<M::Prediction>, ServeError> {
        self.submit_traced(plan, None)
    }

    /// [`Server::submit`] carrying an in-flight trace: workers mark the
    /// queue-wait/cache/featurize/forward stages on it, and the trace
    /// comes back through [`Ticket::wait_traced`].
    pub fn submit_traced(
        &self,
        plan: PlanNode,
        trace: Option<ActiveTrace>,
    ) -> Result<Ticket<M::Prediction>, ServeError> {
        self.enqueue(plan, trace, true).map_err(|r| r.reason)
    }

    /// Enqueue a batch of plans, blocking while the queue is full
    /// (backpressure).
    ///
    /// The batch is split into chunks of at most
    /// [`ServerConfig::max_batch_size`] plans; each chunk occupies one
    /// bounded-queue slot and is answered by a single worker in one
    /// pass — one featurization sweep (cache-assisted) and one batched
    /// forward through the model's (level, kind) schedule — so
    /// per-request overhead is amortised across the batch while
    /// `queue_capacity` still bounds in-flight work.  Every prediction
    /// is bit-identical to submitting the same plan through
    /// [`Server::submit`]; results come back in submission order.
    pub fn submit_batch(
        &self,
        plans: Vec<PlanNode>,
    ) -> Result<BatchTicket<M::Prediction>, ServeError> {
        self.enqueue_batch(plans, None, true).map_err(|r| r.reason)
    }

    /// Enqueue a prediction request without blocking; fails with a
    /// [`RejectedRequest`] carrying [`ServeError::Overloaded`] when the
    /// queue is full, returning the plan to the caller for retry.  Every
    /// rejection is counted in
    /// [`MetricsSnapshot::rejected_requests`](crate::MetricsSnapshot).
    pub fn try_submit(&self, plan: PlanNode) -> Result<Ticket<M::Prediction>, RejectedRequest> {
        self.try_submit_traced(plan, None)
    }

    /// [`Server::try_submit`] carrying an in-flight trace (see
    /// [`submit_traced`](Server::submit_traced)).  A rejected request's
    /// trace is dropped unfinished.
    pub fn try_submit_traced(
        &self,
        plan: PlanNode,
        trace: Option<ActiveTrace>,
    ) -> Result<Ticket<M::Prediction>, RejectedRequest> {
        self.enqueue(plan, trace, false)
    }

    /// Enqueue a batch of plans without blocking — the load-shedding
    /// sibling of [`Server::submit_batch`].
    ///
    /// The batch is split into `max_batch_size` chunks exactly like
    /// `submit_batch`, but no chunk waits for room.  On the first
    /// full-queue (or closed-server) chunk the submission stops and the
    /// *unsent remainder* comes back in [`RejectedBatch::plans`]; chunks
    /// already enqueued keep running and are claimable through
    /// [`RejectedBatch::answered`], so no accepted work is lost and no
    /// rejected plan is silently dropped.  A batch no larger than
    /// `max_batch_size` is a single chunk, making the admission decision
    /// all-or-nothing.  Each rejection counts once in
    /// [`MetricsSnapshot::rejected_requests`](crate::MetricsSnapshot).
    pub fn try_submit_batch(
        &self,
        plans: Vec<PlanNode>,
    ) -> Result<BatchTicket<M::Prediction>, RejectedBatch<M::Prediction>> {
        self.try_submit_batch_traced(plans, None)
    }

    /// [`Server::try_submit_batch`] carrying an in-flight trace.  The
    /// trace rides on the first chunk (a batch within `max_batch_size` is
    /// exactly one chunk) and comes back through
    /// [`BatchTicket::wait_traced`]; if the first chunk is rejected the
    /// trace is dropped unfinished.
    pub fn try_submit_batch_traced(
        &self,
        plans: Vec<PlanNode>,
        trace: Option<ActiveTrace>,
    ) -> Result<BatchTicket<M::Prediction>, RejectedBatch<M::Prediction>> {
        self.enqueue_batch(plans, trace, false)
    }

    /// Submit and wait for the answer (convenience for sequential
    /// clients).
    pub fn predict_blocking(&self, plan: PlanNode) -> Result<M::Prediction, ServeError> {
        self.submit(plan)?.wait()
    }

    /// Atomically replace the served model with a new version — the
    /// zero-downtime half of the online adaptation loop.
    ///
    /// In-flight requests and batches finish on the weights they started
    /// with (workers pin the model `Arc` per job); requests dequeued
    /// after the swap are answered by the new version.  Cached features
    /// are keyed by the version that produced them, so a new artifact
    /// that featurizes differently can never be served a stale graph;
    /// the swap additionally clears the cache so the old version's
    /// entries don't linger as dead weight.  Submission is never paused
    /// and no queued request is lost.
    ///
    /// The new version's catalog states ([`CatalogStates`]: every Table,
    /// Column, Predicate and Aggregation node the catalog allows) are
    /// built before it is published, on the caller's thread, while the
    /// workers keep serving the old version.  For the benchmark's unseen
    /// IMDB-like catalog (581 entries at h = 48) that is ~0.9 ms on a
    /// 2-core AVX-512 box, and a whole call ~1.7 ms.
    pub fn swap_model(&self, model: M, version: u32) {
        let next = Arc::new(ServedModel::new(model, version, &self.shared.catalog));
        *self
            .shared
            .model
            .write()
            .expect("served model lock poisoned") = next;
        // Every shard's cache slice is cleared; the merged stats count
        // this as one logical invalidation (see `CacheStats::merge`).
        for shard in &self.shared.shards {
            shard.cache.invalidate();
        }
        self.shared.metrics.record_swap();
        self.shared.tracer.event(
            "serve.model_swap",
            f64::from(version),
            format!("hot-swapped to model version {version}"),
        );
    }

    /// The currently served model (and its version), pinned.  The
    /// adaptation loop uses this to fine-tune *from* the live weights;
    /// holding the `Arc` keeps those weights alive across a concurrent
    /// swap.
    pub fn model(&self) -> Arc<ServedModel<M>> {
        self.shared.current()
    }

    /// Version of the currently served model.
    pub fn model_version(&self) -> u32 {
        self.shared.current().version
    }

    /// The catalog requests are featurized against.
    pub fn catalog(&self) -> &SchemaCatalog {
        &self.shared.catalog
    }

    /// Current serving metrics (throughput, latency percentiles, cache
    /// effectiveness aggregated across the shards).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared
            .metrics
            .snapshot(self.cache_stats(), self.config.workers)
    }

    /// Feature-cache statistics, merged over every shard's cache slice:
    /// hits, misses, lengths and capacities are summed (so the derived
    /// hit-rate divides total hits by total lookups), invalidations
    /// count hot-swaps once regardless of the shard count.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shared.shards {
            total.merge(&shard.cache.stats());
        }
        total
    }

    /// The server's trace collector: begin traces to attach to
    /// [`submit_traced`](Server::submit_traced), look finished ones up by
    /// id, and record standalone events.
    pub fn tracer(&self) -> &Tracer {
        &self.shared.tracer
    }

    /// The slow-request flight recorder: bounded rings of materialized
    /// traces, retaining threshold-/tail-slow and failed requests past
    /// the churn of normal traffic.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        self.shared.metrics.flight()
    }

    /// Finish a traced request end to end: closes the trace, records its
    /// per-stage breakdown (with exemplars), feeds the flight recorder
    /// and assembles + stores the prediction's [`ProvenanceRecord`] —
    /// afterwards [`explain`](Self::explain) can answer for the trace's
    /// id.  Returns the finished trace.
    pub fn complete_traced(&self, prediction: &M::Prediction, trace: ActiveTrace) -> Trace {
        let done = self.shared.tracer.finish(trace);
        self.shared
            .metrics
            .record_completed_trace(&M::provenance_seed(prediction), &done);
        done
    }

    /// Full provenance of one served prediction by trace id — plan
    /// fingerprint, model name/version, cache hit, shard placement
    /// (home vs. stolen) and the per-stage latency breakdown.  `None`
    /// when no record with that id is retained (never traced, or aged
    /// out of both provenance rings).
    pub fn explain(&self, trace_id: u64) -> Option<ProvenanceRecord> {
        self.shared.metrics.provenance().find(trace_id)
    }

    /// The retained slow/failed requests' provenance, worst (longest
    /// total latency) first, up to `limit` records.
    pub fn slow_log(&self, limit: usize) -> Vec<ProvenanceRecord> {
        self.shared.metrics.provenance().slow_log(limit)
    }

    /// Current SLO position: the configured latency objective + target
    /// and the rolling windows' good/bad counts, error rates and burn
    /// rates.
    pub fn slo_status(&self) -> WireSloStatus {
        self.shared.metrics.slo_status()
    }

    /// The live metrics recorder behind [`metrics`](Self::metrics) —
    /// exposes the per-stage histogram recorder and the named-metric
    /// registry (per-shard queue gauges included).
    pub fn recorder(&self) -> &ServeMetrics {
        &self.shared.metrics
    }

    /// Prometheus text exposition of the serving metrics (including the
    /// per-shard `serve_shard_N_queue_depth` gauges).
    pub fn prometheus_text(&self) -> String {
        self.shared
            .metrics
            .prometheus_text(self.cache_stats(), self.config.workers)
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Drain the queue, stop all workers and return the final metrics.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.stop_workers();
        self.metrics()
    }

    fn stop_workers(&mut self) {
        // Closing every shard stops admission; each worker drains its
        // own queue (every shard has exactly one owning worker) and
        // exits, so no accepted job is dropped.
        for shard in &self.shared.shards {
            shard.close();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<M: Servable> Drop for Server<M> {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

/// Per-worker reusable buffers: the model's forward scratch, the
/// featurization arena with its target graph, and the batch sweep's
/// collection vectors.  All of them grow to the workload's high-water
/// mark during warm-up and are then reused allocation-free.
struct WorkerState<M: Servable> {
    scratch: M::Scratch,
    arena: GraphArena,
    /// Arena-backed featurization target, rebuilt in place per miss.
    graph: PlanGraph,
    fingerprints: Vec<u64>,
    cache_hits: Vec<bool>,
    graphs: Vec<Arc<PlanGraph>>,
}

impl<M: Servable> WorkerState<M> {
    fn new() -> Self {
        let mut arena = GraphArena::new();
        let graph = arena.take_graph();
        WorkerState {
            scratch: M::Scratch::default(),
            arena,
            graph,
            fingerprints: Vec::new(),
            cache_hits: Vec::new(),
            graphs: Vec::new(),
        }
    }
}

fn worker_loop<M: Servable>(shared: &Shared<M>, me: usize) {
    let mut state = WorkerState::new();
    let shard_count = shared.shards.len();
    loop {
        // Fast path: own queue (lock held only to dequeue, never during
        // inference).
        if let Some(job) = shared.shards[me].try_pop() {
            process_job(shared, &mut state, me, job);
            continue;
        }
        // Own queue empty: one steal pass over the other shards, oldest
        // job first, so a fingerprint-skewed burst cannot idle the pool.
        let stolen = (1..shard_count)
            .find_map(|offset| shared.shards[(me + offset) % shard_count].try_pop());
        if let Some(job) = stolen {
            process_job(shared, &mut state, me, job);
            continue;
        }
        // Nothing anywhere: park on the own queue until a push arrives,
        // the park times out (→ next steal pass) or the server closes.
        match shared.shards[me].pop_or_park(STEAL_PARK) {
            Dequeued::Job(job) => process_job(shared, &mut state, me, *job),
            Dequeued::Idle => {}
            Dequeued::Closed => return,
        }
    }
}

fn process_job<M: Servable>(
    shared: &Shared<M>,
    state: &mut WorkerState<M>,
    me: usize,
    job: Job<M::Prediction>,
) {
    // Where an answer of this job was placed: `me` ran it, the
    // fingerprint names its home.
    let place = |fingerprint, cache_hit, latency, model_version, flight_class| {
        let home_shard = shared.home_of(fingerprint) as u32;
        Placement {
            fingerprint,
            cache_hit,
            latency,
            model_version,
            home_shard,
            executed_shard: me as u32,
            stolen: home_shard != me as u32,
            flight_class,
        }
    };
    match job {
        Job::Single {
            plan,
            fingerprint,
            enqueued,
            reply,
            mut trace,
        } => {
            if let Some(t) = trace.as_mut() {
                t.mark(STAGE_QUEUE_WAIT);
            }
            // Pin the current model for the whole job: a concurrent
            // hot-swap never changes weights mid-request.
            let served = shared.current();
            // The fingerprint's *home* shard holds its cache entry —
            // also when this worker stole the job from another queue.
            let cache = &shared.shard_of(fingerprint).cache;
            let cached = cache.get(served.version, fingerprint);
            if let Some(t) = trace.as_mut() {
                t.mark(STAGE_CACHE_LOOKUP);
            }
            let cache_hit = cached.is_some();
            let catalog = &served.catalog_states;
            let output = match cached {
                Some(graph) => served.model.forward(&graph, catalog, &mut state.scratch),
                None => {
                    featurize_plan_into(
                        &shared.catalog,
                        &plan,
                        served.model.featurizer(),
                        &mut state.arena,
                        &mut state.graph,
                    );
                    // Publishing to the cache clones the graph out of the
                    // arena buffers (cold path only); with caching
                    // disabled the miss path stays allocation-free too.
                    if cache.capacity() > 0 {
                        cache.insert(served.version, fingerprint, Arc::new(state.graph.clone()));
                    }
                    if let Some(t) = trace.as_mut() {
                        t.mark(STAGE_FEATURIZE);
                    }
                    served
                        .model
                        .forward(&state.graph, catalog, &mut state.scratch)
                }
            };
            if let Some(t) = trace.as_mut() {
                t.mark(STAGE_FORWARD);
            }
            let latency = enqueued.elapsed();
            let class = shared.metrics.record(latency);
            let placement = place(fingerprint, cache_hit, latency, served.version, class);
            // A dropped ticket just means the client stopped waiting.
            let _ = reply.send((M::answer(output, placement), trace));
        }
        Job::Batch {
            plans,
            enqueued,
            reply,
            mut trace,
        } => {
            if let Some(t) = trace.as_mut() {
                t.mark(STAGE_QUEUE_WAIT);
            }
            // One featurization sweep (cache-assisted, each plan against
            // its home shard's cache slice), then a single batched
            // forward over the whole request batch — all on one pinned
            // model version.
            let served = shared.current();
            state.fingerprints.clear();
            state.cache_hits.clear();
            state.graphs.clear();
            for plan in &plans {
                let fingerprint = plan_fingerprint(plan);
                let cache = &shared.shard_of(fingerprint).cache;
                let (graph, cache_hit) = match cache.get(served.version, fingerprint) {
                    Some(graph) => (graph, true),
                    None => {
                        featurize_plan_into(
                            &shared.catalog,
                            plan,
                            served.model.featurizer(),
                            &mut state.arena,
                            &mut state.graph,
                        );
                        let graph = Arc::new(state.graph.clone());
                        if cache.capacity() > 0 {
                            cache.insert(served.version, fingerprint, Arc::clone(&graph));
                        }
                        (graph, false)
                    }
                };
                state.fingerprints.push(fingerprint);
                state.cache_hits.push(cache_hit);
                state.graphs.push(graph);
            }
            if let Some(t) = trace.as_mut() {
                // Lookups and featurization interleave across the
                // sweep, so the whole sweep is one featurize stage.
                t.mark(STAGE_FEATURIZE);
            }
            let refs: Vec<&PlanGraph> = state.graphs.iter().map(|g| g.as_ref()).collect();
            let outputs = served.model.forward_batch(&refs, &served.catalog_states);
            if let Some(t) = trace.as_mut() {
                t.mark(STAGE_FORWARD);
            }
            let latency = enqueued.elapsed();
            let class = shared.metrics.record_batch(plans.len(), latency);
            let predictions = outputs
                .into_iter()
                .zip(state.fingerprints.drain(..))
                .zip(state.cache_hits.drain(..))
                .map(|((output, fingerprint), cache_hit)| {
                    let placement = place(fingerprint, cache_hit, latency, served.version, class);
                    M::answer(output, placement)
                })
                .collect();
            state.graphs.clear();
            let _ = reply.send((predictions, trace));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zsdb_catalog::presets;
    use zsdb_core::features::featurize_plan;
    use zsdb_core::features::FeaturizerConfig;
    use zsdb_core::model::ModelConfig;
    use zsdb_core::train::{Trainer, TrainingConfig};
    use zsdb_engine::QueryRunner;
    use zsdb_query::WorkloadGenerator;
    use zsdb_storage::Database;

    fn tiny_server_fixture() -> (TrainedModel, SchemaCatalog, Vec<PlanNode>) {
        let db = Database::generate(presets::imdb_like(0.02), 3);
        let runner = QueryRunner::with_defaults(&db);
        let queries = WorkloadGenerator::with_defaults().generate(db.catalog(), 15, 1);
        let graphs: Vec<_> = runner
            .run_workload(&queries, 0)
            .iter()
            .map(|e| {
                zsdb_core::features::featurize_execution(db.catalog(), e, FeaturizerConfig::exact())
            })
            .collect();
        let trainer = Trainer::new(
            ModelConfig::tiny(),
            TrainingConfig {
                epochs: 2,
                validation_fraction: 0.0,
                ..TrainingConfig::tiny()
            },
            FeaturizerConfig::exact(),
        );
        let model = trainer.train(&graphs);
        let plans = runner.plan_workload(&queries);
        (model, db.catalog().clone(), plans)
    }

    #[test]
    fn served_predictions_match_the_single_threaded_path() {
        let (model, catalog, plans) = tiny_server_fixture();
        let server = PredictionServer::start(
            model.clone(),
            catalog.clone(),
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        );
        for plan in &plans {
            let served = server.predict_blocking(plan.clone()).unwrap();
            let reference = model.predict(&featurize_plan(&catalog, plan, model.featurizer));
            assert_eq!(served.runtime_secs.to_bits(), reference.to_bits());
            assert_eq!(served.fingerprint, plan_fingerprint(plan));
        }
    }

    #[test]
    fn traced_requests_are_explainable_end_to_end() {
        let (model, catalog, plans) = tiny_server_fixture();
        let server = PredictionServer::start_observed(
            model,
            7,
            catalog,
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
            ObservabilityConfig {
                // 1ns threshold: every request classifies as slow, so
                // the slow log and provenance retention are exercised.
                flight: zsdb_obs::FlightRecorderConfig {
                    slow_threshold_ns: 1,
                    ..zsdb_obs::FlightRecorderConfig::default()
                },
                slo: zsdb_obs::SloConfig::default(),
            },
        );
        let trace = server.tracer().begin().expect("tracer enabled");
        let trace_id = trace.id();
        let ticket = server.submit_traced(plans[0].clone(), Some(trace)).unwrap();
        let (prediction, returned) = ticket.wait_traced().unwrap();
        assert_eq!(prediction.flight_class, FlightClass::SlowThreshold);
        assert_eq!(
            prediction.home_shard,
            (prediction.fingerprint % 2) as u32,
            "home shard is the fingerprint route"
        );
        let done = server.complete_traced(&prediction, returned.expect("trace returned"));
        assert_eq!(done.id, trace_id);

        let record = server.explain(trace_id).expect("provenance retained");
        assert_eq!(record.model_version, 7);
        assert_eq!(record.model_name, crate::provenance::MODEL_NAME);
        assert_eq!(record.fingerprint, prediction.fingerprint);
        assert_eq!(record.stolen, prediction.stolen);
        assert_eq!(
            record.predicted_secs.to_bits(),
            prediction.runtime_secs.to_bits()
        );
        assert_eq!(
            record.stages.iter().map(|s| s.duration_ns).sum::<u64>(),
            record.total_ns,
            "stages tile the trace"
        );

        let slow = server.slow_log(16);
        assert!(slow.iter().any(|r| r.trace_id == trace_id));
        let slo = server.slo_status();
        assert!(!slo.windows.is_empty());
        assert_eq!(slo.windows[0].good + slo.windows[0].bad, 1);
    }

    #[test]
    fn repeated_plans_hit_the_cache() {
        let (model, catalog, plans) = tiny_server_fixture();
        let server = PredictionServer::start(model, catalog, ServerConfig::default());
        let first = server.predict_blocking(plans[0].clone()).unwrap();
        assert!(!first.cache_hit);
        let second = server.predict_blocking(plans[0].clone()).unwrap();
        assert!(second.cache_hit);
        assert_eq!(first.runtime_secs.to_bits(), second.runtime_secs.to_bits());
        assert!(server.cache_stats().hit_rate() > 0.0);
    }

    #[test]
    fn submit_batch_matches_single_submission_bit_for_bit() {
        let (model, catalog, plans) = tiny_server_fixture();
        let server = PredictionServer::start(
            model,
            catalog,
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        );
        // Reference: every plan served individually.
        let singles: Vec<Prediction> = plans
            .iter()
            .map(|p| server.predict_blocking(p.clone()).unwrap())
            .collect();
        // Same plans as one batch.
        let batch = server
            .submit_batch(plans.clone())
            .expect("submit batch")
            .wait()
            .expect("batch answered");
        assert_eq!(batch.len(), plans.len());
        for (single, batched) in singles.iter().zip(&batch) {
            assert_eq!(
                single.runtime_secs.to_bits(),
                batched.runtime_secs.to_bits()
            );
            assert_eq!(single.fingerprint, batched.fingerprint);
            // The singles warmed the cache, so the batch hits it.
            assert!(batched.cache_hit);
        }
        // Histogram: |plans| singles in bucket "1", one batch in its
        // own bucket.
        let metrics = server.metrics();
        assert_eq!(metrics.batch_size_histogram[0], plans.len() as u64);
        assert_eq!(
            metrics.batch_size_histogram.iter().sum::<u64>(),
            plans.len() as u64 + 1
        );
        assert_eq!(metrics.total_requests, 2 * plans.len() as u64);

        // Empty batches answer immediately with no work recorded.
        let empty = server.submit_batch(Vec::new()).unwrap().wait().unwrap();
        assert!(empty.is_empty());
        assert_eq!(server.metrics().total_requests, 2 * plans.len() as u64);
    }

    #[test]
    fn oversized_batches_are_split_but_answered_in_order() {
        let (model, catalog, plans) = tiny_server_fixture();
        let server = PredictionServer::start(
            model,
            catalog,
            ServerConfig {
                workers: 2,
                max_batch_size: 4,
                ..ServerConfig::default()
            },
        );
        let expected: Vec<u64> = plans
            .iter()
            .map(|p| server.predict_blocking(p.clone()).unwrap().runtime_secs)
            .map(f64::to_bits)
            .collect();
        // |plans| = 15 with max_batch_size 4 → chunks of 4, 4, 4, 3.
        let batch = server.submit_batch(plans.clone()).unwrap().wait().unwrap();
        assert_eq!(batch.len(), plans.len());
        for (p, e) in batch.iter().zip(&expected) {
            assert_eq!(
                p.runtime_secs.to_bits(),
                *e,
                "order preserved across chunks"
            );
        }
        let hist = server.metrics().batch_size_histogram;
        assert_eq!(hist[2], 3, "three full chunks of 4 in the 4-7 bucket");
        assert_eq!(hist[1], 1, "one tail chunk of 3 in the 2-3 bucket");
    }

    #[test]
    fn hot_swap_switches_versions_and_invalidates_the_cache() {
        let (model, catalog, plans) = tiny_server_fixture();
        // A second, distinguishable model: fine-tune the first.
        let graphs: Vec<_> = plans
            .iter()
            .map(|p| {
                let mut g = featurize_plan(&catalog, p, model.featurizer);
                g.runtime_secs = Some(1.0);
                g
            })
            .collect();
        let tuned = zsdb_core::Trainer::finetune_from(
            &model,
            &graphs,
            zsdb_core::FinetuneConfig {
                epochs: 3,
                learning_rate: 1e-3,
                ..zsdb_core::FinetuneConfig::default()
            },
        );
        assert_ne!(
            model.predict(&graphs[0]).to_bits(),
            tuned.predict(&graphs[0]).to_bits(),
            "the two versions must answer differently"
        );

        let server =
            PredictionServer::start(model.clone(), catalog.clone(), ServerConfig::default());
        assert_eq!(server.model_version(), 1);
        let before = server.predict_blocking(plans[0].clone()).unwrap();
        assert_eq!(before.model_version, 1);
        let reference = model.predict(&featurize_plan(&catalog, &plans[0], model.featurizer));
        assert_eq!(before.runtime_secs.to_bits(), reference.to_bits());

        // Warm the cache, then swap.
        let warmed = server.predict_blocking(plans[0].clone()).unwrap();
        assert!(warmed.cache_hit);
        server.swap_model(tuned.clone(), 2);
        assert_eq!(server.model_version(), 2);

        let after = server.predict_blocking(plans[0].clone()).unwrap();
        assert_eq!(after.model_version, 2);
        assert!(!after.cache_hit, "swap invalidated the feature cache");
        let tuned_reference = tuned.predict(&featurize_plan(&catalog, &plans[0], tuned.featurizer));
        assert_eq!(after.runtime_secs.to_bits(), tuned_reference.to_bits());

        let metrics = server.metrics();
        assert_eq!(metrics.model_swaps, 1);
        assert_eq!(metrics.cache_invalidations, 1);
    }

    #[test]
    fn try_submit_sheds_load_when_the_queue_is_full() {
        let (model, catalog, plans) = tiny_server_fixture();
        // One worker and a one-slot queue: a burst must eventually see
        // `Overloaded` (the first job may still be in flight).
        let server = PredictionServer::start(
            model,
            catalog,
            ServerConfig {
                workers: 1,
                queue_capacity: 1,
                cache_capacity: 0,
                ..ServerConfig::default()
            },
        );
        let mut overloaded = 0;
        let mut tickets = Vec::new();
        for _ in 0..200 {
            match server.try_submit(plans[1].clone()) {
                Ok(t) => tickets.push(t),
                Err(RejectedRequest {
                    plan,
                    reason: ServeError::Overloaded,
                }) => {
                    overloaded += 1;
                    // The plan comes back intact for a later retry.
                    assert_eq!(&*plan, &plans[1]);
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        for t in tickets {
            t.wait().unwrap();
        }
        assert!(overloaded > 0, "a 200-request burst should overflow");
        // Every shed request is visible in the metrics.
        assert_eq!(server.metrics().rejected_requests, overloaded);
    }

    #[test]
    fn try_submit_batch_is_atomic_up_to_max_batch_size() {
        let (model, catalog, plans) = tiny_server_fixture();
        let server = PredictionServer::start(
            model,
            catalog,
            ServerConfig {
                workers: 1,
                queue_capacity: 1,
                cache_capacity: 0,
                max_batch_size: 64,
            },
        );
        // A batch within max_batch_size is one queue slot: it is either
        // admitted whole or rejected whole with every plan returned.
        let mut admitted = Vec::new();
        let mut rejected_whole = 0usize;
        for _ in 0..100 {
            match server.try_submit_batch(plans.clone()) {
                Ok(t) => admitted.push(t),
                Err(rej) => {
                    assert!(matches!(rej.reason, ServeError::Overloaded));
                    assert_eq!(rej.plans, plans, "whole batch returned for retry");
                    assert!(rej.answered.is_none(), "nothing partially admitted");
                    rejected_whole += 1;
                }
            }
        }
        let admitted_count = admitted.len();
        for t in admitted {
            assert_eq!(t.wait().unwrap().len(), plans.len());
        }
        assert!(rejected_whole > 0, "a 100-batch burst should overflow");
        let metrics = server.metrics();
        assert_eq!(metrics.rejected_requests, rejected_whole as u64);
        assert_eq!(
            metrics.total_requests,
            (admitted_count * plans.len()) as u64
        );

        // Empty batches are admitted without consuming a queue slot.
        let empty = server.try_submit_batch(Vec::new()).unwrap().wait().unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn try_submit_batch_reports_partial_admission_honestly() {
        let (model, catalog, plans) = tiny_server_fixture();
        // Tiny chunks over a tiny queue: an oversized batch will get some
        // chunks in before the queue fills.
        let server = PredictionServer::start(
            model,
            catalog,
            ServerConfig {
                workers: 1,
                queue_capacity: 2,
                cache_capacity: 0,
                max_batch_size: 2,
            },
        );
        // Keep submitting the 15-plan batch (8 chunks) until one lands on
        // a full queue mid-way.
        let mut saw_partial = false;
        for _ in 0..200 {
            match server.try_submit_batch(plans.clone()) {
                Ok(t) => {
                    t.wait().unwrap();
                }
                Err(rej) => {
                    assert!(matches!(rej.reason, ServeError::Overloaded));
                    if let Some(answered) = rej.answered {
                        // Admitted prefix + unsent remainder = the batch,
                        // in order.
                        let prefix = answered.wait().unwrap();
                        assert_eq!(prefix.len() + rej.plans.len(), plans.len());
                        let sent = plans.len() - rej.plans.len();
                        assert_eq!(rej.plans, plans[sent..].to_vec());
                        saw_partial = true;
                    } else {
                        assert_eq!(rej.plans, plans);
                    }
                    if saw_partial {
                        break;
                    }
                }
            }
        }
        assert!(saw_partial, "an 8-chunk batch over a 2-slot queue splits");
    }

    #[test]
    fn closed_server_rejections_are_counted() {
        let (model, catalog, plans) = tiny_server_fixture();
        let mut server = PredictionServer::start(model, catalog, ServerConfig::default());
        server.stop_workers();
        let rejected = server.try_submit(plans[0].clone()).unwrap_err();
        assert!(matches!(rejected.reason, ServeError::Closed));
        let rejected_batch = server.try_submit_batch(plans.clone()).unwrap_err();
        assert!(matches!(rejected_batch.reason, ServeError::Closed));
        assert_eq!(rejected_batch.plans, plans);
        assert_eq!(server.metrics().rejected_requests, 2);
        // The blocking side reports the closure but sheds nothing: only
        // `try_` submissions count as rejections.
        assert!(matches!(
            server.submit(plans[0].clone()),
            Err(ServeError::Closed)
        ));
        assert!(matches!(
            server.submit_batch(plans.clone()),
            Err(ServeError::Closed)
        ));
        assert_eq!(server.metrics().rejected_requests, 2);
    }

    #[test]
    fn dropped_tickets_do_not_wedge_workers_or_leak_queue_slots() {
        let (model, catalog, plans) = tiny_server_fixture();
        let server = PredictionServer::start(
            model,
            catalog,
            ServerConfig {
                workers: 2,
                queue_capacity: 4,
                ..ServerConfig::default()
            },
        );
        // Clients that give up: submit and immediately drop the ticket —
        // single and batch — more times than the queue holds.
        for plan in plans.iter().cycle().take(12) {
            drop(server.submit(plan.clone()).unwrap());
        }
        drop(server.submit_batch(plans.clone()).unwrap());
        // Workers must still drain the queues and answer new requests.
        let answered = server.predict_blocking(plans[0].clone()).unwrap();
        assert!(answered.runtime_secs.is_finite());
        // Every abandoned request is still fully processed (no wedged
        // worker, no leaked slot): 12 singles + one 15-plan batch + 1.
        // Shards drain independently of the blocking request above, so
        // poll until the abandoned jobs flush through.
        let expected = 12 + plans.len() as u64 + 1;
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut metrics = server.metrics();
        while metrics.total_requests != expected && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
            metrics = server.metrics();
        }
        assert_eq!(metrics.total_requests, expected);
        assert_eq!(metrics.rejected_requests, 0);
    }

    #[test]
    fn shutdown_reports_final_metrics_and_closes_submission() {
        let (model, catalog, plans) = tiny_server_fixture();
        let server = PredictionServer::start(model, catalog, ServerConfig::default());
        for plan in plans.iter().take(6) {
            server.predict_blocking(plan.clone()).unwrap();
        }
        let final_metrics = server.shutdown();
        assert_eq!(final_metrics.total_requests, 6);
        assert!(final_metrics.throughput_qps > 0.0);
        assert!(final_metrics.latency_p50_ms > 0.0);
    }

    #[test]
    fn sharded_server_matches_one_shard_server_bit_for_bit() {
        let (model, catalog, plans) = tiny_server_fixture();
        let one = PredictionServer::start(
            model.clone(),
            catalog.clone(),
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        );
        let many = PredictionServer::start(
            model,
            catalog,
            ServerConfig {
                workers: 4,
                ..ServerConfig::default()
            },
        );
        for plan in &plans {
            let a = one.predict_blocking(plan.clone()).unwrap();
            let b = many.predict_blocking(plan.clone()).unwrap();
            assert_eq!(
                a.runtime_secs.to_bits(),
                b.runtime_secs.to_bits(),
                "shard count must not change a single bit"
            );
            assert_eq!(a.fingerprint, b.fingerprint);
        }
        // Batched submission too: chunk routing differs between the two
        // servers, the answers must not.
        let a = one.submit_batch(plans.clone()).unwrap().wait().unwrap();
        let b = many.submit_batch(plans.clone()).unwrap().wait().unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.runtime_secs.to_bits(), y.runtime_secs.to_bits());
        }
    }

    #[test]
    fn metrics_expose_one_queue_depth_gauge_per_shard() {
        let (model, catalog, plans) = tiny_server_fixture();
        let server = PredictionServer::start(
            model,
            catalog,
            ServerConfig {
                workers: 3,
                ..ServerConfig::default()
            },
        );
        // Singles and a batch, all answered: every push has met its pop.
        let tickets: Vec<_> = (0..16)
            .map(|_| server.submit(plans[0].clone()).unwrap())
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        server.submit_batch(plans.clone()).unwrap().wait().unwrap();
        let snap = server.metrics();
        assert_eq!(snap.shard_queue_depths.len(), 3);
        assert!(
            snap.shard_queue_depths.iter().all(|&d| d == 0),
            "idle server has empty shard queues: {:?}",
            snap.shard_queue_depths
        );
        assert_eq!(snap.queue_depth, 0, "all dequeued");
        let text = server.prometheus_text();
        for shard in 0..3 {
            assert!(text.contains(&format!("serve_shard_{shard}_queue_depth")));
        }
    }

    #[test]
    fn a_hot_fingerprint_is_drained_by_the_whole_pool() {
        let (model, catalog, plans) = tiny_server_fixture();
        // Every request is the same plan, so every job routes to one
        // shard whose queue holds just one job (queue_capacity 4 over 4
        // shards); the blocking submits only keep up because idle
        // workers steal from the hot shard.
        let server = Arc::new(PredictionServer::start(
            model,
            catalog,
            ServerConfig {
                workers: 4,
                queue_capacity: 4,
                cache_capacity: 0,
                ..ServerConfig::default()
            },
        ));
        let mut tickets = Vec::new();
        for _ in 0..200 {
            tickets.push(server.submit(plans[0].clone()).unwrap());
        }
        let first = tickets.remove(0).wait().unwrap();
        for t in tickets {
            let p = t.wait().unwrap();
            assert_eq!(p.runtime_secs.to_bits(), first.runtime_secs.to_bits());
        }
        assert_eq!(server.metrics().total_requests, 200);
    }

    #[test]
    fn cache_stats_aggregate_across_shards() {
        let (model, catalog, plans) = tiny_server_fixture();
        let server = PredictionServer::start(
            model,
            catalog,
            ServerConfig {
                workers: 4,
                ..ServerConfig::default()
            },
        );
        // Two rounds over every plan: round one misses, round two hits,
        // spread over the per-shard cache slices.
        for _ in 0..2 {
            for plan in &plans {
                server.predict_blocking(plan.clone()).unwrap();
            }
        }
        let stats = server.cache_stats();
        assert_eq!(stats.hits, plans.len() as u64);
        assert_eq!(stats.misses, plans.len() as u64);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(stats.len, plans.len(), "every shape cached exactly once");
        assert_eq!(
            stats.capacity,
            ServerConfig::default().cache_capacity,
            "shard slices sum back to the configured capacity"
        );
        let snap = server.metrics();
        assert_eq!(snap.cache_hits, plans.len() as u64);
        assert!((snap.cache_hit_rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn concurrent_clients_get_consistent_answers() {
        let (model, catalog, plans) = tiny_server_fixture();
        let expected: Vec<u64> = plans
            .iter()
            .map(|p| {
                model
                    .predict(&featurize_plan(&catalog, p, model.featurizer))
                    .to_bits()
            })
            .collect();
        let server = Arc::new(PredictionServer::start(
            model,
            catalog,
            ServerConfig {
                workers: 4,
                queue_capacity: 16,
                cache_capacity: 128,
                ..ServerConfig::default()
            },
        ));
        let mut clients = Vec::new();
        for c in 0..4 {
            let server = Arc::clone(&server);
            let plans = plans.clone();
            let expected = expected.clone();
            clients.push(std::thread::spawn(move || {
                for round in 0..5 {
                    let idx = (c + round) % plans.len();
                    let served = server.predict_blocking(plans[idx].clone()).unwrap();
                    assert_eq!(served.runtime_secs.to_bits(), expected[idx]);
                }
            }));
        }
        for c in clients {
            c.join().unwrap();
        }
        assert_eq!(server.metrics().total_requests, 20);
    }
}
