//! # zsdb-serve — model serving for the zero-shot cost model
//!
//! The paper's promise is a model that works on unseen databases *out of
//! the box*; this crate supplies the "box": everything needed to take a
//! trained [`TrainedModel`](zsdb_core::train::TrainedModel) from a training
//! run to a deployable prediction service.
//!
//! * [`registry`] — a persistent, versioned model registry.  Artifacts are
//!   plain serde_json files carrying the full model plus provenance
//!   (architecture, featurizer mode) and *integrity probes*: recorded
//!   prediction bit-patterns that every load re-verifies, so a corrupted
//!   or drifted artifact is rejected before it serves a single request.
//! * [`server`] — the one concurrent inference engine, [`Server<M>`],
//!   generic over the [`Servable`] model it serves and sharded
//!   thread-per-core: each worker owns a **bounded** run queue
//!   (backpressure instead of unbounded growth), a feature-cache slice
//!   and the model's forward scratch; requests are routed to shards by
//!   plan fingerprint, idle workers steal from loaded ones, and every
//!   request is answered bit-identically to the single-threaded path
//!   regardless of shard count or stealing.  [`PredictionServer`] is its
//!   instantiation for the zero-shot cost model, whose preallocated
//!   [`InferenceScratch`](zsdb_core::InferenceScratch) makes that
//!   instantiation's warm path allocation-free — a property of the
//!   model's scratch, not of the engine.
//! * [`multitask`] — the same engine instantiated for multi-task models
//!   (`zsdb_multitask`), [`MultiTaskPredictionServer`]: one submitted
//!   plan answers **every** task head (cost, root cardinality,
//!   per-operator cardinalities) from a single shared-encoder pass.  The
//!   module is the answer type and the model's [`Servable`] impl, nothing
//!   else; the registry stores multi-task artifacts through the same
//!   generic calls as cost-model ones, with per-head integrity probes.
//! * [`cache`] — an LRU feature cache keyed by the structural plan
//!   fingerprint ([`zsdb_core::fingerprint`]), so repeated query shapes
//!   skip featurization entirely.
//! * [`metrics`] — throughput and p50/p95/p99 latency, as a serializable
//!   [`MetricsSnapshot`].  Recording is wait-free across worker threads
//!   (per-thread striped shards from [`zsdb_obs`], merged only at
//!   snapshot time), every request decomposes into named
//!   pipeline stages (`admission → queue_wait → cache_lookup/featurize →
//!   forward → respond`), and the whole registry renders as
//!   Prometheus-style text exposition alongside the JSON snapshot.  On
//!   top ride the diagnosis surfaces: a flight recorder classifying
//!   slow and failed requests for retention, SLO burn-rate tracking
//!   against a latency objective, and histogram exemplars linking
//!   buckets to trace ids.
//! * [`provenance`] — a [`ProvenanceRecord`](zsdb_protocol::ProvenanceRecord)
//!   per traced prediction: plan fingerprint, serving model name +
//!   version, cache hit/miss, home vs executing shard (work stealing is
//!   visible), per-stage breakdown and the predicted value — queryable
//!   in-process (`explain`/`slow_log`/`slo_status` on every [`Server`])
//!   and over the wire via the `Explain`/`SlowLog`/`SloStatus` ops.  The
//!   [`ProvenanceLog`] is the one store of finished traced requests,
//!   keeping the slow and failed ones past the churn of normal traffic.
//!   Storage is cold-path only; it adds no allocation to a warm
//!   cache-hit request.
//! * [`net`] — a TCP front-end over the worker pool: the framed
//!   [`zsdb_protocol`] wire protocol, a tenant handshake, per-tenant
//!   admission quotas on top of the bounded queue's load shedding,
//!   pipelined request coalescing into batched submissions, and
//!   per-tenant request/rejection/latency metrics.
//! * [`adapt`] — the online adaptation loop: observed executions (the
//!   engine's [`ObservationLog`](zsdb_engine::ObservationLog)) feed a
//!   rolling-median [`DriftDetector`]; on drift a background thread
//!   fine-tunes from the live weights, registers + promotes the result
//!   as a new registry version and **hot-swaps** it into the running
//!   server with zero downtime.  `promote`/`rollback` are first-class
//!   registry operations.
//!
//! ```no_run
//! use zsdb_serve::{ModelRegistry, PredictionServer, ServerConfig};
//! # fn demo(model: zsdb_core::train::TrainedModel,
//! #         catalog: zsdb_catalog::SchemaCatalog,
//! #         probe: Vec<zsdb_core::PlanGraph>,
//! #         plan: zsdb_engine::PlanNode) -> Result<(), zsdb_serve::ServeError> {
//! let registry = ModelRegistry::open("models")?;
//! let version = registry.register("cost", &model, &probe)?;
//! let served = registry.load("cost", version)?; // integrity-checked
//! let server = PredictionServer::start(served, catalog, ServerConfig::default());
//! let prediction = server.predict_blocking(plan)?;
//! println!("predicted {:.3}s ({})", prediction.runtime_secs, server.metrics());
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapt;
pub mod cache;
pub mod error;
pub mod metrics;
pub mod multitask;
pub mod net;
pub mod provenance;
pub mod registry;
pub mod server;

pub use adapt::{
    rollback_and_swap, AdaptationConfig, AdaptationLoop, AdaptationStatus, DriftDetector,
};
pub use cache::{CacheStats, FeatureCache};
pub use error::ServeError;
pub use metrics::{
    MetricsSnapshot, ObservabilityConfig, ServeMetrics, StageRecorder, BATCH_SIZE_BUCKET_LABELS,
    STAGE_ADMISSION, STAGE_CACHE_LOOKUP, STAGE_FEATURIZE, STAGE_FORWARD, STAGE_QUEUE_WAIT,
    STAGE_RESPOND,
};
pub use multitask::{
    MultiTaskBatchTicket, MultiTaskPredictionServer, MultiTaskPredictionTicket,
    ServedMultiTaskModel, ServedMultiTaskPrediction,
};
pub use net::{NetServer, NetServerConfig, TenantPolicy};
pub use provenance::{ProvenanceLog, ProvenanceSeed, MODEL_NAME};
pub use registry::{ArtifactManifest, IntegrityProbe, ModelRegistry, ARTIFACT_FORMAT_VERSION};
pub use server::{
    BatchPredictionTicket, BatchTicket, Placement, Prediction, PredictionServer, PredictionTicket,
    RejectedBatch, RejectedRequest, Servable, ServedModel, Server, ServerConfig, Ticket,
};
