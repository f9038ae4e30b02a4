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
//! 4       1     protocol version (always 3)
//! 5       1     opcode (see Message::opcode)
//! 6       2     flags (little endian)
//! 8       8     request id (little endian)
//! 16      4     payload length n (little endian)
//! 20      8     trace id (little endian) — only when flag 0x0001 is set
//! 20|28   n     payload — the binary plan layout for Predict/PredictBatch,
//!               raw UTF-8 for MetricsTextOk, UTF-8 JSON for every other op
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
//! (pipelining) and responses may be matched out of order.  A payload
//! that does not parse behind a valid header fails with
//! [`ProtocolError::MalformedPayload`], and [`decode_header`] still says
//! where that frame ends, so a reader can answer it alone and read on.
//!
//! ## Plan layout (`Predict`, `PredictBatch`)
//!
//! A plan crosses as a fixed binary layout, not JSON: every integer is
//! little-endian and every `f64` is its raw bits (`to_bits`), so NaN
//! payloads, ±inf, −0.0 and subnormals cross exactly.  A node is written
//! in pre-order:
//!
//! ```text
//! field                 encoding
//! operator tag          u8: 0 SeqScan, 1 IndexScan, 2 HashJoin,
//!                           3 NestedLoopJoin, 4 Aggregate
//! operator fields       SeqScan:        table, predicates
//!                       IndexScan:      table, index column, lo, hi, residual
//!                       HashJoin:       build key, probe key (ColumnRefs)
//!                       NestedLoopJoin: outer key, inner key (ColumnRefs)
//!                       Aggregate:      u32 count, then per aggregate an
//!                                       AggFunc u8 (Count 0, Sum 1, Avg 2,
//!                                       Min 3, Max 4), Option<ColumnRef>
//! est_cardinality       f64 bits
//! est_cost              f64 bits
//! output_width          f64 bits
//! child count           u32
//! children              nodes, in order
//!
//! TableId               u32
//! ColumnRef             table u32, column u32
//! Option<T>             u8 0 (None) or 1 (Some), then T
//! predicates            u32 count, then per predicate: ColumnRef, a CmpOp u8
//!                       (Eq 0, Neq 1, Lt 2, Leq 3, Gt 4, Geq 5), a Value tag
//!                       u8 and its payload: 0 Null (none), 1 Int (i64),
//!                       2 Float (f64 bits), 3 Cat (u32), 4 Bool (u8 0 or 1)
//! PredictBatch payload  u32 plan count, then the plans
//! ```
//!
//! The decoder is strict: an unknown tag, a bool or option tag other
//! than 0 or 1, and bytes after the plan (or batch) are all
//! `MalformedPayload`.  It is bounded: every count is checked against
//! the bytes left before anything is allocated for it, and a plan deeper
//! than [`MAX_PLAN_DEPTH`] levels fails to decode.  Every
//! other payload is JSON through the vendored serializer, which emits
//! shortest-round-trip floats, so a served prediction a client decodes
//! is bit-identical to the in-process one.

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
//!   requests the flight recorder flagged for retention, worst first.
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
mod plan_codec;

pub use error::ProtocolError;
pub use frame::{
    decode_frame, decode_header, encode_frame, read_frame, read_frame_limited, write_frame, Frame,
    FrameHeader, FLAG_TRACE_ID, HEADER_LEN, MAGIC, MAX_HANDSHAKE_PAYLOAD_LEN, MAX_PAYLOAD_LEN,
    PROTOCOL_VERSION, TRACE_ID_EXT_LEN,
};
pub use message::{
    ErrorCode, ErrorResponse, ExplainRequest, GatewayMetrics, HealthResponse, HelloAck,
    HelloRequest, Message, ProvenanceRecord, ProvenanceStage, SlowLogRequest, TenantMetrics,
    WirePrediction, WireSloStatus, WireSloWindow,
};
pub use plan_codec::MAX_PLAN_DEPTH;
