//! # zsdb-protocol — framed wire protocol of the prediction service
//!
//! The serving stack's network layer speaks a length-prefixed framed
//! binary protocol over any ordered byte stream (TCP in practice).  This
//! crate is the *pure* half of that layer: frame layout, typed messages,
//! and encode/decode functions that never touch a socket — everything is
//! unit-testable (and property-testable) on byte slices.
//!
//! ## Frame layout
//!
//! Every frame is a fixed 20-byte header, optional header extensions,
//! then the payload:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"ZSDB"
//! 4       1     protocol version (always 2)
//! 5       1     opcode (see Message::opcode)
//! 6       2     flags (little endian)
//! 8       8     request id (little endian)
//! 16      4     payload length n (little endian)
//! 20      8     trace id (little endian) — only when flag 0x0001 is set
//! 20|28   n     payload — UTF-8 JSON of the op's payload type
//! ```
//!
//! Flag bit `0x0001` ([`FLAG_TRACE_ID`]) is the only flag: an 8-byte
//! request-scoped trace id follows the fixed header, letting a client
//! correlate its request with the server-side per-stage trace.  Decoders
//! reject any other version ([`PROTOCOL_VERSION`] is the only one) and
//! any other flag bit.
//!
//! Request ids are chosen by the client and echoed verbatim by the
//! server, so many in-flight requests can share one connection
//! (pipelining) and responses may be matched out of order.  Payloads are
//! JSON: the vendored serializer emits shortest-round-trip floats, so an
//! `f64` crosses the wire bit-exactly — the served prediction a client
//! decodes is bit-identical to the in-process one.
//!
//! ## Ops
//!
//! * [`Message::Hello`] / [`Message::HelloAck`] — connection handshake;
//!   carries the tenant id the gateway authenticates and meters.
//! * [`Message::Predict`] / [`Message::PredictOk`] — one plan, one
//!   prediction.
//! * [`Message::PredictBatch`] / [`Message::PredictBatchOk`] — many plans
//!   answered by one batched forward pass.
//! * [`Message::Metrics`] / [`Message::MetricsOk`] — gateway + per-tenant
//!   serving metrics (JSON).
//! * [`Message::MetricsText`] / [`Message::MetricsTextOk`] — the same
//!   metrics in Prometheus text-exposition form (raw UTF-8 payload).
//! * [`Message::Health`] / [`Message::HealthOk`] — liveness probe.
//! * [`Message::Explain`] / [`Message::ExplainOk`] — full provenance of
//!   one served prediction by trace id: plan fingerprint, model
//!   name/version, cache hit, shard placement, per-stage breakdown
//!   (`Error(BadRequest)` when no record with that id is retained).
//! * [`Message::SlowLog`] / [`Message::SlowLogOk`] — the slowest
//!   retained requests from the flight recorder, worst first.
//! * [`Message::SloStatus`] / [`Message::SloStatusOk`] — SLO burn-rate
//!   position over the server's rolling windows.
//! * [`Message::Error`] — structured failure (code + human message) for
//!   any request; carries the rejected request's id.
//!
//! Use [`encode_frame`]/[`decode_frame`] on buffers and
//! [`read_frame`]/[`write_frame`] on `io` streams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod frame;
pub mod message;

pub use error::ProtocolError;
pub use frame::{
    decode_frame, encode_frame, read_frame, read_frame_limited, write_frame, Frame, FLAG_TRACE_ID,
    HEADER_LEN, MAGIC, MAX_HANDSHAKE_PAYLOAD_LEN, MAX_PAYLOAD_LEN, PROTOCOL_VERSION,
    TRACE_ID_EXT_LEN,
};
pub use message::{
    ErrorCode, ErrorResponse, ExplainRequest, GatewayMetrics, HealthResponse, HelloAck,
    HelloRequest, Message, ProvenanceRecord, ProvenanceStage, SlowLogRequest, TenantMetrics,
    WirePrediction, WireSloStatus, WireSloWindow,
};
