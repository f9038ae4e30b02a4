//! Typed protocol messages and their JSON payload types.

use serde::{Deserialize, Serialize};
use zsdb_engine::PlanNode;

/// Handshake request — the first frame a client must send on a fresh
/// connection.  The gateway authenticates and meters the `tenant`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HelloRequest {
    /// Protocol version the client speaks.
    pub protocol_version: u8,
    /// Tenant identifier the connection's requests are accounted to.
    pub tenant: String,
}

/// Handshake acknowledgement — the server accepted the connection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HelloAck {
    /// Protocol version the server speaks.
    pub protocol_version: u8,
    /// Version of the model currently served (changes across hot-swaps).
    pub model_version: u32,
    /// The tenant's admission-control quota: maximum in-flight requests
    /// before the gateway rejects with [`ErrorCode::QuotaExceeded`].
    pub tenant_quota: u64,
}

/// One served prediction as it crosses the wire — the network mirror of
/// `zsdb_serve::Prediction` (latency travels as integer microseconds;
/// `runtime_secs` round-trips bit-exactly through the JSON encoding).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WirePrediction {
    /// Predicted runtime in seconds.
    pub runtime_secs: f64,
    /// Structural fingerprint of the request plan.
    pub fingerprint: u64,
    /// Whether featurization was skipped thanks to the feature cache.
    pub cache_hit: bool,
    /// Server-side enqueue-to-response latency in microseconds.
    pub server_latency_micros: u64,
    /// Version of the model that answered.
    pub model_version: u32,
}

/// Machine-readable failure category of an [`ErrorResponse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The connection has not completed the `Hello` handshake.
    Unauthenticated,
    /// The request frame could not be interpreted.
    BadRequest,
    /// The tenant exceeded its in-flight admission quota; retry after
    /// outstanding requests complete.
    QuotaExceeded,
    /// The server's bounded request queue is full (load shedding); retry
    /// with backoff.
    Overloaded,
    /// The server is shutting down and no longer answers requests.
    Closed,
    /// Unexpected server-side failure.
    Internal,
}

impl ErrorCode {
    /// Whether a client may retry the identical request and expect it to
    /// eventually succeed (backpressure conditions, not hard failures).
    pub fn is_retryable(self) -> bool {
        matches!(self, ErrorCode::QuotaExceeded | ErrorCode::Overloaded)
    }
}

/// Structured error frame: answers any request that could not be served.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// Failure category.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

/// Liveness probe response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthResponse {
    /// Whether the server is accepting and answering requests.
    pub healthy: bool,
    /// Version of the model currently served.
    pub model_version: u32,
}

/// Per-tenant gateway accounting, reported by the `Metrics` op.
///
/// `admitted = completed + in_flight` at all times; rejections are *not*
/// admitted.  Latency percentiles are over the tenant's recent completed
/// requests and are `0.0` until the tenant completes one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantMetrics {
    /// Tenant identifier from the handshake.
    pub tenant: String,
    /// Requests admitted past admission control (includes in-flight).
    pub admitted: u64,
    /// Requests fully answered.
    pub completed: u64,
    /// Requests rejected by the per-tenant admission quota.
    pub rejected_quota: u64,
    /// Admitted requests shed by the server's bounded queue
    /// (`Overloaded`).
    pub rejected_shed: u64,
    /// Requests currently admitted but not yet answered.
    pub in_flight: u64,
    /// The tenant's admission quota (maximum `in_flight`).
    pub quota: u64,
    /// Median response latency (gateway-observed) in milliseconds.
    pub latency_p50_ms: f64,
    /// 95th-percentile response latency in milliseconds.
    pub latency_p95_ms: f64,
    /// 99th-percentile response latency in milliseconds.
    pub latency_p99_ms: f64,
    /// Fastest response the tenant ever saw, in milliseconds (lifetime
    /// minimum; `0.0` until the tenant completes a request).
    pub latency_min_ms: f64,
    /// Slowest response the tenant ever saw, in milliseconds (lifetime
    /// maximum).
    pub latency_max_ms: f64,
}

/// Gateway-wide metrics: the network front-end's view of the serving
/// stack, including every tenant's accounting.  All floats are finite
/// (empty percentiles are reported as `0.0`) so the payload always
/// round-trips through JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GatewayMetrics {
    /// Connections accepted over the gateway's lifetime.
    pub connections_total: u64,
    /// Currently open connections.
    pub connections_active: u64,
    /// Requests fully served by the prediction server behind the gateway.
    pub server_total_requests: u64,
    /// Requests rejected by the prediction server's load shedding.
    pub server_rejected_requests: u64,
    /// Prediction-server throughput (completed requests per second of
    /// serving time, measured from the first request).
    pub server_throughput_qps: f64,
    /// Server-side median latency in milliseconds.
    pub server_latency_p50_ms: f64,
    /// Server-side 95th-percentile latency in milliseconds.
    pub server_latency_p95_ms: f64,
    /// Server-side 99th-percentile latency in milliseconds.
    pub server_latency_p99_ms: f64,
    /// Version of the model currently served.
    pub model_version: u32,
    /// Per-tenant accounting, sorted by tenant id.
    pub tenants: Vec<TenantMetrics>,
    /// Seconds the prediction server has been up (since construction).
    pub uptime_seconds: f64,
    /// Requests currently sitting in the server's bounded queue.
    pub queue_depth: u64,
    /// Fastest server-side latency ever observed, in milliseconds
    /// (lifetime minimum; `0.0` until a request completes).
    pub server_latency_min_ms: f64,
    /// Slowest server-side latency ever observed, in milliseconds.
    pub server_latency_max_ms: f64,
    /// Samples currently held by the server's latency window.
    pub window_occupancy: u64,
    /// Total latency-window capacity across recording threads.
    pub window_capacity: u64,
}

/// One pipeline stage of a [`ProvenanceRecord`]: the name the serving
/// layer marked and how long the request spent there.  The stage
/// durations tile the record's `total_ns` exactly (checkpoint tracing —
/// no gaps, no overlap).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProvenanceStage {
    /// Stage name (e.g. `queue_wait`, `forward`, `respond`).
    pub name: String,
    /// Stage duration in nanoseconds.
    pub duration_ns: u64,
}

/// Full provenance of one served prediction, answering "where did this
/// number come from?": which plan, which model, which shard, whether the
/// feature cache hit, and where the time went.  Returned by
/// [`Message::ExplainOk`] and listed by [`Message::SlowLogOk`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProvenanceRecord {
    /// Request-scoped trace id the record is keyed by.
    pub trace_id: u64,
    /// Structural fingerprint of the predicted plan.
    pub fingerprint: u64,
    /// Name of the serving model family.
    pub model_name: String,
    /// Version of the model that produced the prediction.
    pub model_version: u32,
    /// Whether featurization was skipped thanks to the feature cache.
    pub cache_hit: bool,
    /// Shard the plan's fingerprint hashes to.
    pub home_shard: u32,
    /// Shard whose worker actually executed the request.
    pub executed_shard: u32,
    /// Whether the request was work-stolen (`executed_shard` differs
    /// from `home_shard`).
    pub stolen: bool,
    /// The predicted runtime in seconds (bit-exact over the wire).
    pub predicted_secs: f64,
    /// End-to-end server-side latency in nanoseconds.
    pub total_ns: u64,
    /// How the flight recorder classified the request (every class but
    /// `normal` is retained in the slow log): `normal`,
    /// `slow_threshold`, `slow_tail`, or `failed`.
    pub flight_class: String,
    /// Per-stage latency breakdown; durations sum to `total_ns`.
    pub stages: Vec<ProvenanceStage>,
}

/// One rolling window of [`WireSloStatus`]: good/bad counts and the
/// burn rate over that window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireSloWindow {
    /// Window length in seconds.
    pub window_secs: u64,
    /// Requests that met the objective inside the window.
    pub good: u64,
    /// Requests that missed the objective inside the window.
    pub bad: u64,
    /// `bad / (good + bad)` over the window (`0.0` when empty).
    pub error_rate: f64,
    /// `error_rate / (1 - target)` — how many times faster than allowed
    /// the error budget is burning; `1.0` means exactly on budget.
    pub burn_rate: f64,
}

/// Server SLO position, reported by the [`Message::SloStatus`] op: the
/// configured objective plus burn rates over every rolling window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireSloStatus {
    /// Latency objective in nanoseconds a request must meet to count as
    /// good.
    pub latency_objective_ns: u64,
    /// Availability target in `(0, 1)`, e.g. `0.999`.
    pub target: f64,
    /// One entry per configured rolling window, shortest first.
    pub windows: Vec<WireSloWindow>,
}

/// Payload of [`Message::Explain`] — look up the provenance of one
/// served prediction by its trace id.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExplainRequest {
    /// Trace id the client attached to (or received with) the request.
    pub trace_id: u64,
}

/// Payload of [`Message::SlowLog`] — fetch the slowest retained
/// requests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlowLogRequest {
    /// Maximum number of records to return, worst first.
    pub limit: u64,
}

/// A typed protocol message — the body of a [`Frame`](crate::Frame).
///
/// Requests (`Hello`, `Predict`, `PredictBatch`, `Metrics`, `Health`,
/// `Explain`, `SlowLog`, `SloStatus`) flow client → server; everything
/// else flows server → client, echoing the request's id.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Handshake request (must be the first frame on a connection).
    Hello(HelloRequest),
    /// Handshake acknowledgement.
    HelloAck(HelloAck),
    /// Predict the runtime of one plan.
    Predict(Box<PlanNode>),
    /// Predict the runtimes of a batch of plans in one forward pass.
    PredictBatch(Vec<PlanNode>),
    /// Answer to [`Message::Predict`].
    PredictOk(WirePrediction),
    /// Answer to [`Message::PredictBatch`], in submission order.
    PredictBatchOk(Vec<WirePrediction>),
    /// Request the gateway + per-tenant metrics snapshot.
    Metrics,
    /// Answer to [`Message::Metrics`].
    MetricsOk(Box<GatewayMetrics>),
    /// Request the metrics in Prometheus text-exposition form.
    MetricsText,
    /// Answer to [`Message::MetricsText`]; the payload is the raw UTF-8
    /// exposition text (not JSON).
    MetricsTextOk(String),
    /// Liveness probe.
    Health,
    /// Answer to [`Message::Health`].
    HealthOk(HealthResponse),
    /// Request the provenance of one served prediction by trace id.
    Explain(ExplainRequest),
    /// Answer to [`Message::Explain`] when the trace is retained.
    ExplainOk(Box<ProvenanceRecord>),
    /// Request the slowest retained requests, worst first.
    SlowLog(SlowLogRequest),
    /// Answer to [`Message::SlowLog`].
    SlowLogOk(Vec<ProvenanceRecord>),
    /// Request the server's SLO burn-rate status.
    SloStatus,
    /// Answer to [`Message::SloStatus`].
    SloStatusOk(WireSloStatus),
    /// Structured failure answering any request.
    Error(ErrorResponse),
}

impl Message {
    /// The wire opcode of this message (byte 5 of the frame header).
    pub fn opcode(&self) -> u8 {
        match self {
            Message::Hello(_) => 0x01,
            Message::HelloAck(_) => 0x02,
            Message::Predict(_) => 0x10,
            Message::PredictBatch(_) => 0x11,
            Message::PredictOk(_) => 0x12,
            Message::PredictBatchOk(_) => 0x13,
            Message::Metrics => 0x20,
            Message::MetricsOk(_) => 0x21,
            Message::MetricsText => 0x22,
            Message::MetricsTextOk(_) => 0x23,
            Message::Health => 0x30,
            Message::HealthOk(_) => 0x31,
            Message::Explain(_) => 0x40,
            Message::ExplainOk(_) => 0x41,
            Message::SlowLog(_) => 0x42,
            Message::SlowLogOk(_) => 0x43,
            Message::SloStatus => 0x44,
            Message::SloStatusOk(_) => 0x45,
            Message::Error(_) => 0x3F,
        }
    }

    /// Human-readable operation name (for logs and error messages).
    pub fn op_name(&self) -> &'static str {
        match self {
            Message::Hello(_) => "Hello",
            Message::HelloAck(_) => "HelloAck",
            Message::Predict(_) => "Predict",
            Message::PredictBatch(_) => "PredictBatch",
            Message::PredictOk(_) => "PredictOk",
            Message::PredictBatchOk(_) => "PredictBatchOk",
            Message::Metrics => "Metrics",
            Message::MetricsOk(_) => "MetricsOk",
            Message::MetricsText => "MetricsText",
            Message::MetricsTextOk(_) => "MetricsTextOk",
            Message::Health => "Health",
            Message::HealthOk(_) => "HealthOk",
            Message::Explain(_) => "Explain",
            Message::ExplainOk(_) => "ExplainOk",
            Message::SlowLog(_) => "SlowLog",
            Message::SlowLogOk(_) => "SlowLogOk",
            Message::SloStatus => "SloStatus",
            Message::SloStatusOk(_) => "SloStatusOk",
            Message::Error(_) => "Error",
        }
    }

    /// Whether this message is a request (client → server).
    pub fn is_request(&self) -> bool {
        matches!(
            self,
            Message::Hello(_)
                | Message::Predict(_)
                | Message::PredictBatch(_)
                | Message::Metrics
                | Message::MetricsText
                | Message::Health
                | Message::Explain(_)
                | Message::SlowLog(_)
                | Message::SloStatus
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcodes_are_unique() {
        let msgs = [
            Message::Hello(HelloRequest {
                protocol_version: 1,
                tenant: "t".into(),
            }),
            Message::HelloAck(HelloAck {
                protocol_version: 1,
                model_version: 1,
                tenant_quota: 1,
            }),
            Message::Predict(Box::new(test_plan())),
            Message::PredictBatch(vec![]),
            Message::PredictOk(WirePrediction {
                runtime_secs: 1.0,
                fingerprint: 0,
                cache_hit: false,
                server_latency_micros: 0,
                model_version: 1,
            }),
            Message::PredictBatchOk(vec![]),
            Message::Metrics,
            Message::MetricsOk(Box::new(empty_gateway_metrics())),
            Message::MetricsText,
            Message::MetricsTextOk(String::new()),
            Message::Health,
            Message::HealthOk(HealthResponse {
                healthy: true,
                model_version: 1,
            }),
            Message::Explain(ExplainRequest { trace_id: 1 }),
            Message::ExplainOk(Box::new(test_provenance())),
            Message::SlowLog(SlowLogRequest { limit: 10 }),
            Message::SlowLogOk(vec![]),
            Message::SloStatus,
            Message::SloStatusOk(WireSloStatus {
                latency_objective_ns: 0,
                target: 0.999,
                windows: vec![],
            }),
            Message::Error(ErrorResponse {
                code: ErrorCode::Internal,
                message: String::new(),
            }),
        ];
        let mut seen = std::collections::HashSet::new();
        for m in &msgs {
            assert!(
                seen.insert(m.opcode()),
                "duplicate opcode for {}",
                m.op_name()
            );
        }
    }

    #[test]
    fn retryability_covers_backpressure_only() {
        assert!(ErrorCode::Overloaded.is_retryable());
        assert!(ErrorCode::QuotaExceeded.is_retryable());
        assert!(!ErrorCode::BadRequest.is_retryable());
        assert!(!ErrorCode::Closed.is_retryable());
        assert!(!ErrorCode::Unauthenticated.is_retryable());
        assert!(!ErrorCode::Internal.is_retryable());
    }

    fn test_plan() -> PlanNode {
        PlanNode::leaf(
            zsdb_engine::PhysOperator::SeqScan {
                table: zsdb_catalog::TableId(0),
                predicates: vec![],
            },
            1.0,
            1.0,
            8.0,
        )
    }

    fn test_provenance() -> ProvenanceRecord {
        ProvenanceRecord {
            trace_id: 42,
            fingerprint: 0xFEED,
            model_name: "zero-shot-cost".into(),
            model_version: 3,
            cache_hit: true,
            home_shard: 1,
            executed_shard: 2,
            stolen: true,
            predicted_secs: 0.1 + 0.2, // not exactly representable
            total_ns: 1_500,
            flight_class: "slow_threshold".into(),
            stages: vec![
                ProvenanceStage {
                    name: "queue_wait".into(),
                    duration_ns: 500,
                },
                ProvenanceStage {
                    name: "forward".into(),
                    duration_ns: 1_000,
                },
            ],
        }
    }

    #[test]
    fn provenance_and_slo_payloads_round_trip_bit_exactly() {
        let record = test_provenance();
        let json = serde_json::to_string(&record).unwrap();
        let back: ProvenanceRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, record);
        assert_eq!(
            back.predicted_secs.to_bits(),
            record.predicted_secs.to_bits(),
            "predicted value crosses the wire bit-exactly"
        );
        assert_eq!(
            back.stages.iter().map(|s| s.duration_ns).sum::<u64>(),
            back.total_ns,
            "stage durations tile the end-to-end latency"
        );

        let status = WireSloStatus {
            latency_objective_ns: 50_000_000,
            target: 0.999,
            windows: vec![WireSloWindow {
                window_secs: 60,
                good: 990,
                bad: 10,
                error_rate: 0.01,
                burn_rate: 10.0,
            }],
        };
        let json = serde_json::to_string(&status).unwrap();
        let back: WireSloStatus = serde_json::from_str(&json).unwrap();
        assert_eq!(back, status);
    }

    fn empty_gateway_metrics() -> GatewayMetrics {
        GatewayMetrics {
            connections_total: 0,
            connections_active: 0,
            server_total_requests: 0,
            server_rejected_requests: 0,
            server_throughput_qps: 0.0,
            server_latency_p50_ms: 0.0,
            server_latency_p95_ms: 0.0,
            server_latency_p99_ms: 0.0,
            model_version: 0,
            tenants: Vec::new(),
            uptime_seconds: 0.0,
            queue_depth: 0,
            server_latency_min_ms: 0.0,
            server_latency_max_ms: 0.0,
            window_occupancy: 0,
            window_capacity: 0,
        }
    }

    #[test]
    fn metrics_payloads_round_trip_with_the_new_fields() {
        let mut metrics = empty_gateway_metrics();
        metrics.uptime_seconds = 12.5;
        metrics.queue_depth = 3;
        metrics.server_latency_min_ms = 0.25;
        metrics.server_latency_max_ms = 9.75;
        metrics.window_occupancy = 17;
        metrics.window_capacity = 64;
        let json = serde_json::to_string(&metrics).unwrap();
        let back: GatewayMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back, metrics);
    }
}
