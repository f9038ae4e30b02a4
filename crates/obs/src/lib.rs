//! # zsdb-obs — observability primitives for the serving stack
//!
//! The serving layers (worker pool, TCP gateway, adaptation loop) need
//! production-grade visibility — per-stage latency, queue depth, drift
//! events — without paying for it on the hot path.  This crate supplies
//! the primitives; the serving crates wire them in.
//!
//! * [`metrics`] — counters, gauges and log₂-bucketed histograms whose
//!   storage is **striped per recording thread** (the internal `stripe` module): recording
//!   is a few `Relaxed` atomics on the thread's own shard, with no lock
//!   shared between worker threads; shards merge only at snapshot time.
//!   [`Registry`] names them (with optional `# HELP` descriptions) and
//!   snapshots everything at once; histogram buckets carry exemplar
//!   trace ids linking a latency bucket to a recent request.
//! * [`window`] — [`LatencyWindow`], a striped bounded window of recent
//!   samples (for percentiles) that also tracks lifetime min/max and
//!   reports occupancy, so a cold ring is distinguishable from a
//!   saturated one.
//! * [`trace`] — a checkpoint [`Tracer`]: a request carries an
//!   [`ActiveTrace`] through the pipeline, each layer `mark`s its stage,
//!   and the stage durations tile the end-to-end interval exactly.
//!   Trace ids are `u64`s sized to ride in a frame-header extension.
//!   [`Tracer::finish`] returns the finished [`Trace`] and stores nothing;
//!   the tracer keeps only standalone [`TraceEvent`]s.
//! * [`flight`] — a [`FlightRecorder`]: the wait-free, allocation-free
//!   classifier that flags slow (threshold- or percentile-triggered) and
//!   failed requests, so the serving layer can retain them for post-hoc
//!   diagnosis while normal ones age out.  It stores no requests.
//! * [`slo`] — an [`SloTracker`]: rolling multi-window good/bad counters
//!   with burn-rate computation against a configured latency objective.
//! * [`expo`] — Prometheus text-format exposition of a registry
//!   snapshot (HELP + TYPE headers, shared name sanitizer), alongside
//!   whatever JSON export the caller already has.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expo;
pub mod flight;
pub mod metrics;
pub mod slo;
mod stripe;
pub mod trace;
pub mod window;

pub use expo::{render_prometheus, sanitize_metric_name};
pub use flight::{FlightClass, FlightRecorder, FlightRecorderConfig};
pub use metrics::{
    bucket_upper_bound, log2_bucket, Counter, Gauge, Histogram, HistogramSnapshot, Registry,
    RegistrySnapshot, HISTOGRAM_BUCKETS,
};
pub use slo::{SloConfig, SloSnapshot, SloTracker, SloWindowSnapshot};
pub use trace::{ActiveTrace, Trace, TraceEvent, TraceStage, Tracer};
pub use window::{LatencyWindow, WindowSnapshot};
