//! Fuzz-ish property suite: `decode(encode(x)) == x` for arbitrary
//! frames, including frames carrying randomly generated plan trees, and
//! streaming decode over arbitrarily chunked concatenations; plus a
//! decoder abuse suite (truncation, every single-bit flip of one frame
//! per op, every op's header over every other op's payload) in which no
//! input panics either decoder.

use proptest::prelude::*;
use zsdb_catalog::{ColumnId, ColumnRef, TableId, Value};
use zsdb_engine::{PhysOperator, PlanNode};
use zsdb_protocol::{
    decode_frame, encode_frame, read_frame, ErrorCode, ErrorResponse, ExplainRequest, Frame,
    GatewayMetrics, HealthResponse, HelloAck, HelloRequest, Message, ProtocolError,
    ProvenanceRecord, ProvenanceStage, SlowLogRequest, TenantMetrics, WirePrediction,
    WireSloStatus, WireSloWindow, HEADER_LEN, PROTOCOL_VERSION,
};
use zsdb_query::{Aggregate, CmpOp, Predicate};

/// Number of ops (opcodes) the protocol defines.
const OPS: u64 = 19;

/// Deterministic SplitMix64 — a self-contained value generator so one
/// sampled `u64` seed expands into an arbitrarily complex frame.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// A finite, non-NaN f64 spanning many magnitudes (including exact
    /// bit-patterns that stress shortest-round-trip formatting).
    fn finite_f64(&mut self) -> f64 {
        loop {
            let v = f64::from_bits(self.next());
            if v.is_finite() {
                return v;
            }
        }
    }

    fn column(&mut self) -> ColumnRef {
        ColumnRef::new(
            TableId(self.below(8) as u32),
            ColumnId(self.below(16) as u32),
        )
    }

    fn predicate(&mut self) -> Predicate {
        let op = CmpOp::ALL[self.below(CmpOp::ALL.len() as u64) as usize];
        let value = match self.below(5) {
            0 => Value::Null,
            1 => Value::Int(self.next() as i64),
            2 => Value::Float(self.finite_f64()),
            3 => Value::Cat(self.next() as u32),
            _ => Value::Bool(self.next().is_multiple_of(2)),
        };
        Predicate::new(self.column(), op, value)
    }

    /// A random plan tree of bounded depth with every operator kind
    /// reachable.
    fn plan(&mut self, depth: u64) -> PlanNode {
        let leaf_only = depth == 0;
        let choice = if leaf_only {
            self.below(2)
        } else {
            self.below(5)
        };
        let (op, children) = match choice {
            0 => (
                PhysOperator::SeqScan {
                    table: TableId(self.below(8) as u32),
                    predicates: (0..self.below(3)).map(|_| self.predicate()).collect(),
                },
                vec![],
            ),
            1 => (
                PhysOperator::IndexScan {
                    table: TableId(self.below(8) as u32),
                    index_column: self.column(),
                    lo: (self.next().is_multiple_of(2)).then(|| self.finite_f64()),
                    hi: (self.next().is_multiple_of(2)).then(|| self.finite_f64()),
                    residual: (0..self.below(2)).map(|_| self.predicate()).collect(),
                },
                vec![],
            ),
            2 => (
                PhysOperator::HashJoin {
                    build_key: self.column(),
                    probe_key: self.column(),
                },
                vec![self.plan(depth - 1), self.plan(depth - 1)],
            ),
            3 => (
                PhysOperator::NestedLoopJoin {
                    outer_key: self.column(),
                    inner_key: self.column(),
                },
                vec![self.plan(depth - 1), self.plan(depth - 1)],
            ),
            _ => (
                PhysOperator::Aggregate {
                    aggregates: vec![Aggregate::count_star()],
                },
                vec![self.plan(depth - 1)],
            ),
        };
        PlanNode {
            op,
            children,
            est_cardinality: self.finite_f64().abs(),
            est_cost: self.finite_f64().abs(),
            output_width: self.below(512) as f64,
        }
    }

    fn prediction(&mut self) -> WirePrediction {
        WirePrediction {
            runtime_secs: self.finite_f64(),
            fingerprint: self.next(),
            cache_hit: self.next().is_multiple_of(2),
            server_latency_micros: self.next(),
            model_version: self.next() as u32,
        }
    }

    fn tenant_name(&mut self) -> String {
        // Exercise escaping: quotes, backslashes, non-ASCII, control chars.
        let alphabet = ['a', 'Z', '9', '-', '_', '"', '\\', 'é', '☃', '\n'];
        (0..self.below(12))
            .map(|_| alphabet[self.below(alphabet.len() as u64) as usize])
            .collect()
    }

    fn provenance(&mut self) -> ProvenanceRecord {
        ProvenanceRecord {
            trace_id: self.next(),
            fingerprint: self.next(),
            model_name: self.tenant_name(),
            model_version: self.next() as u32,
            cache_hit: self.next().is_multiple_of(2),
            home_shard: self.below(8) as u32,
            executed_shard: self.below(8) as u32,
            stolen: self.next().is_multiple_of(2),
            predicted_secs: self.finite_f64(),
            total_ns: self.next(),
            flight_class: self.tenant_name(),
            stages: vec![ProvenanceStage {
                name: self.tenant_name(),
                duration_ns: self.next(),
            }],
        }
    }

    /// A message of a random op.
    fn message(&mut self) -> Message {
        let op = self.below(OPS);
        self.message_of(op)
    }

    /// A random message of op number `op` in `0..OPS`, one per opcode.
    fn message_of(&mut self, op: u64) -> Message {
        match op {
            0 => Message::Hello(HelloRequest {
                protocol_version: PROTOCOL_VERSION,
                tenant: self.tenant_name(),
            }),
            1 => Message::HelloAck(HelloAck {
                protocol_version: PROTOCOL_VERSION,
                model_version: self.next() as u32,
                tenant_quota: self.next(),
            }),
            2 => Message::Predict(Box::new(self.plan(3))),
            3 => Message::PredictBatch((0..self.below(4)).map(|_| self.plan(2)).collect()),
            4 => Message::PredictOk(self.prediction()),
            5 => Message::PredictBatchOk((0..self.below(5)).map(|_| self.prediction()).collect()),
            6 => Message::Metrics,
            7 => Message::MetricsOk(Box::new(GatewayMetrics {
                connections_total: self.next(),
                connections_active: self.next(),
                server_total_requests: self.next(),
                server_rejected_requests: self.next(),
                server_throughput_qps: self.finite_f64().abs(),
                server_latency_p50_ms: self.finite_f64().abs(),
                server_latency_p95_ms: self.finite_f64().abs(),
                server_latency_p99_ms: self.finite_f64().abs(),
                model_version: self.next() as u32,
                tenants: (0..self.below(3))
                    .map(|_| TenantMetrics {
                        tenant: self.tenant_name(),
                        admitted: self.next(),
                        completed: self.next(),
                        rejected_quota: self.next(),
                        rejected_shed: self.next(),
                        in_flight: self.next(),
                        quota: self.next(),
                        latency_p50_ms: self.finite_f64().abs(),
                        latency_p95_ms: self.finite_f64().abs(),
                        latency_p99_ms: self.finite_f64().abs(),
                        latency_min_ms: self.finite_f64().abs(),
                        latency_max_ms: self.finite_f64().abs(),
                    })
                    .collect(),
                uptime_seconds: self.finite_f64().abs(),
                queue_depth: self.next(),
                server_latency_min_ms: self.finite_f64().abs(),
                server_latency_max_ms: self.finite_f64().abs(),
                window_occupancy: self.next(),
                window_capacity: self.next(),
            })),
            11 => Message::MetricsText,
            12 => Message::MetricsTextOk(
                (0..self.below(64))
                    .map(|_| ['#', ' ', 'a', '_', '0', '\n', '"', 'é'][self.below(8) as usize])
                    .collect(),
            ),
            8 => Message::Health,
            9 => Message::HealthOk(HealthResponse {
                healthy: self.next().is_multiple_of(2),
                model_version: self.next() as u32,
            }),
            10 => Message::Explain(ExplainRequest {
                trace_id: self.next(),
            }),
            13 => Message::ExplainOk(Box::new(self.provenance())),
            14 => Message::SlowLog(SlowLogRequest { limit: self.next() }),
            15 => Message::SlowLogOk((0..self.below(3)).map(|_| self.provenance()).collect()),
            16 => Message::SloStatus,
            17 => Message::SloStatusOk(WireSloStatus {
                latency_objective_ns: self.next(),
                target: self.finite_f64(),
                windows: (0..self.below(3))
                    .map(|_| WireSloWindow {
                        window_secs: self.next(),
                        good: self.next(),
                        bad: self.next(),
                        error_rate: self.finite_f64(),
                        burn_rate: self.finite_f64(),
                    })
                    .collect(),
            }),
            _ => Message::Error(ErrorResponse {
                code: [
                    ErrorCode::Unauthenticated,
                    ErrorCode::BadRequest,
                    ErrorCode::QuotaExceeded,
                    ErrorCode::Overloaded,
                    ErrorCode::Closed,
                    ErrorCode::Internal,
                ][self.below(6) as usize],
                message: self.tenant_name(),
            }),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decode_encode_is_identity(
        seed in 0u64..u64::MAX,
        request_id in 0u64..u64::MAX,
        trace_id in 0u64..u64::MAX,
    ) {
        // trace_id 0 exercises the header without extension, everything
        // else the trace-id extension.
        let trace_id = if seed.is_multiple_of(2) { 0 } else { trace_id };
        let frame = Frame::traced(request_id, trace_id, Gen(seed).message());
        let bytes = encode_frame(&frame).expect("encode");
        let decoded = decode_frame(&bytes).expect("decode");
        let (back, consumed) = decoded.expect("complete frame");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(back, frame);
    }

    #[test]
    fn streaming_decode_survives_arbitrary_chunking(
        seed in 0u64..u64::MAX,
        chunk in 1usize..97,
    ) {
        // Several frames concatenated, fed to the decoder `chunk` bytes at
        // a time: each frame must come out exactly once, in order, and no
        // prefix may decode early.
        let mut gen = Gen(seed);
        let frames: Vec<Frame> = (0..4).map(|i| Frame::new(i, gen.message())).collect();
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&encode_frame(f).expect("encode"));
        }
        let mut buf: Vec<u8> = Vec::new();
        let mut decoded = Vec::new();
        for piece in wire.chunks(chunk) {
            buf.extend_from_slice(piece);
            while let Some((frame, used)) = decode_frame(&buf).expect("decode") {
                buf.drain(..used);
                decoded.push(frame);
            }
        }
        prop_assert!(buf.is_empty(), "no residual bytes");
        prop_assert_eq!(decoded, frames);
    }

    #[test]
    fn truncation_never_panics_or_misdecodes(seed in 0u64..u64::MAX, cut_frac in 0.0f64..1.0) {
        let frame = Frame::new(7, Gen(seed).message());
        let bytes = encode_frame(&frame).expect("encode");
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        // A strict prefix either reports "incomplete" or never a frame.
        if cut < bytes.len() {
            if let Some((decoded, used)) = decode_frame(&bytes[..cut]).expect("prefix decode") {
                // Only possible if an empty-payload frame fits the prefix
                // exactly — and then it must be OUR frame's header, which
                // means the frame was empty-payload and cut == len.
                prop_assert_eq!(used, cut);
                prop_assert_eq!(decoded, frame);
            }
        }
    }
}

/// Both decoders on hostile bytes: `decode_frame` yields a frame inside
/// the buffer, asks for more bytes, or fails with a structured error, and
/// the streaming `read_frame` agrees — the same frame, `Truncated` where
/// more bytes were wanted, the same error otherwise.  Neither panics.
fn assert_decodes_or_fails_cleanly(bytes: &[u8]) {
    let streamed = read_frame(&mut &bytes[..]);
    match (decode_frame(bytes), streamed) {
        (Ok(Some((frame, used))), Ok(Some(read))) => {
            assert!(used <= bytes.len());
            assert_eq!(frame, read);
        }
        (Ok(None), Err(ProtocolError::Truncated)) => {}
        (Err(decoded), Err(read)) => assert_eq!(
            std::mem::discriminant(&decoded),
            std::mem::discriminant(&read),
            "decode_frame said {decoded}, read_frame said {read}"
        ),
        (decoded, read) => panic!("decoders disagree: {decoded:?} vs {read:?}"),
    }
}

#[test]
fn every_single_bit_flip_decodes_or_fails_cleanly() {
    let mut gen = Gen(7);
    let mut opcodes = std::collections::BTreeSet::new();
    for op in 0..OPS {
        let message = gen.message_of(op);
        opcodes.insert(message.opcode());
        for trace_id in [0, 0xDEAD_BEEF_CAFE_F00D] {
            let frame = Frame::traced(op + 1, trace_id, message.clone());
            let bytes = encode_frame(&frame).expect("encode");
            assert_decodes_or_fails_cleanly(&bytes);
            for bit in 0..bytes.len() * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_decodes_or_fails_cleanly(&flipped);
            }
        }
    }
    assert_eq!(opcodes.len(), OPS as usize, "one frame per op");
}

#[test]
fn every_op_header_over_every_other_ops_payload_fails_as_that_op() {
    let mut gen = Gen(11);
    let messages: Vec<Message> = (0..OPS).map(|op| gen.message_of(op)).collect();
    let frames: Vec<Vec<u8>> = messages
        .iter()
        .map(|m| encode_frame(&Frame::new(3, m.clone())).expect("encode"))
        .collect();
    for (header, frame) in messages.iter().zip(&frames) {
        for other in &frames {
            let payload = &other[HEADER_LEN..];
            let mut bytes = frame[..HEADER_LEN].to_vec();
            bytes[16..20].copy_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(payload);
            assert_decodes_or_fails_cleanly(&bytes);
            let bodiless = frame.len() == HEADER_LEN;
            match decode_frame(&bytes) {
                Ok(Some((decoded, used))) => {
                    assert_eq!(used, bytes.len());
                    assert_eq!(decoded.message.opcode(), header.opcode());
                    assert!(
                        !bodiless || payload.is_empty(),
                        "{} took a payload",
                        header.op_name()
                    );
                }
                Err(ProtocolError::MalformedPayload { op, .. }) => {
                    assert_eq!(op, header.op_name())
                }
                other => panic!("{} header: {other:?}", header.op_name()),
            }
        }
    }
}
