//! Fuzz-ish property suite: `decode(encode(x)) == x` for arbitrary
//! frames, including frames carrying randomly generated plan trees, and
//! streaming decode over arbitrarily chunked concatenations; plus a
//! decoder abuse suite (truncation, every single-bit flip of one frame
//! per op, every op's header over every other op's payload) in which no
//! input panics either decoder; plus the binary plan payload's own
//! contract: every `f64` bit pattern crosses exactly, plans deeper than
//! `MAX_PLAN_DEPTH` are refused, and a huge declared count in a short
//! payload fails without allocating for it.

use proptest::prelude::*;
use zsdb_catalog::{ColumnId, ColumnRef, TableId, Value};
use zsdb_engine::{PhysOperator, PlanNode};
use zsdb_protocol::{
    decode_frame, encode_frame, read_frame, ErrorCode, ErrorResponse, ExplainRequest, Frame,
    GatewayMetrics, HealthResponse, HelloAck, HelloRequest, Message, ProtocolError,
    ProvenanceRecord, ProvenanceStage, SlowLogRequest, TenantMetrics, WirePrediction,
    WireSloStatus, WireSloWindow, HEADER_LEN, MAX_PLAN_DEPTH, PROTOCOL_VERSION,
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

/// Largest single allocation the calling thread has asked for — per
/// thread, because libtest runs this file's tests in parallel and the
/// bit-flip suite legitimately buffers payloads of up to `MAX_PAYLOAD_LEN`.
mod largest_allocation {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    struct Tracking;

    thread_local! {
        // Const-initialised and without a destructor, so touching it from
        // inside the allocator never allocates.
        static LARGEST: Cell<usize> = const { Cell::new(0) };
    }

    fn note(size: usize) {
        // `try_with`: a thread tearing down may allocate after its
        // thread-locals are gone.
        let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
    }

    unsafe impl GlobalAlloc for Tracking {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size);
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static GLOBAL: Tracking = Tracking;

    /// Run `f` and return the largest allocation it made on this thread.
    pub fn during(f: impl FnOnce()) -> usize {
        LARGEST.with(|largest| largest.set(0));
        f();
        LARGEST.with(Cell::get)
    }
}

/// Any `f64` at all, weighted towards the bit patterns text formats lose:
/// NaNs with payloads and either sign, ±inf, −0.0 and subnormals.
fn any_f64(gen: &mut Gen) -> f64 {
    let bits = gen.next();
    f64::from_bits(match gen.below(6) {
        0 => 0x7FF0_0000_0000_0000 | (bits & 0x800F_FFFF_FFFF_FFFF) | 1, // NaN
        1 => (bits & 0x8000_0000_0000_0000) | 0x7FF0_0000_0000_0000,     // ±inf
        2 => 0x8000_0000_0000_0000,                                      // −0.0
        3 => bits & 0x800F_FFFF_FFFF_FFFF,                               // ±subnormal or ±0
        _ => bits,
    })
}

/// Overwrite every float of `plan` with [`any_f64`].
fn wild_floats(plan: &mut PlanNode, gen: &mut Gen) {
    let wild_predicates = |predicates: &mut Vec<Predicate>, gen: &mut Gen| {
        for p in predicates {
            if let Value::Float(v) = &mut p.value {
                *v = any_f64(gen);
            }
        }
    };
    match &mut plan.op {
        PhysOperator::SeqScan { predicates, .. } => wild_predicates(predicates, gen),
        PhysOperator::IndexScan {
            lo, hi, residual, ..
        } => {
            for bound in [lo, hi] {
                if bound.is_some() {
                    *bound = Some(any_f64(gen));
                }
            }
            wild_predicates(residual, gen);
        }
        _ => {}
    }
    plan.est_cardinality = any_f64(gen);
    plan.est_cost = any_f64(gen);
    plan.output_width = any_f64(gen);
    for child in &mut plan.children {
        wild_floats(child, gen);
    }
}

/// Every field of `plan` in pre-order, floats as their bits: equal
/// vectors mean equal plans bit for bit, where `PartialEq` fails on NaN.
fn plan_bits(plan: &PlanNode, out: &mut Vec<u64>) {
    let column = |c: &ColumnRef, out: &mut Vec<u64>| {
        out.extend([c.table.0 as u64, c.column.0 as u64]);
    };
    let predicates = |ps: &[Predicate], out: &mut Vec<u64>| {
        out.push(ps.len() as u64);
        for p in ps {
            column(&p.column, out);
            out.push(p.op.index() as u64);
            out.extend(match p.value {
                Value::Null => [0, 0],
                Value::Int(v) => [1, v as u64],
                Value::Float(v) => [2, v.to_bits()],
                Value::Cat(v) => [3, v as u64],
                Value::Bool(v) => [4, v as u64],
            });
        }
    };
    out.push(plan.op.kind().index() as u64);
    match &plan.op {
        PhysOperator::SeqScan {
            table,
            predicates: ps,
        } => {
            out.push(table.0 as u64);
            predicates(ps, out);
        }
        PhysOperator::IndexScan {
            table,
            index_column,
            lo,
            hi,
            residual,
        } => {
            out.push(table.0 as u64);
            column(index_column, out);
            for bound in [lo, hi] {
                out.extend(bound.map_or([0, 0], |v| [1, v.to_bits()]));
            }
            predicates(residual, out);
        }
        PhysOperator::HashJoin {
            build_key: a,
            probe_key: b,
        }
        | PhysOperator::NestedLoopJoin {
            outer_key: a,
            inner_key: b,
        } => {
            column(a, out);
            column(b, out);
        }
        PhysOperator::Aggregate { aggregates } => {
            out.push(aggregates.len() as u64);
            for a in aggregates {
                out.push(a.func.index() as u64);
                match &a.column {
                    None => out.push(0),
                    Some(c) => {
                        out.push(1);
                        column(c, out);
                    }
                }
            }
        }
    }
    out.extend([
        plan.est_cardinality.to_bits(),
        plan.est_cost.to_bits(),
        plan.output_width.to_bits(),
        plan.children.len() as u64,
    ]);
    for child in &plan.children {
        plan_bits(child, out);
    }
}

fn bits_of(plans: &[PlanNode]) -> Vec<u64> {
    let mut out = Vec::new();
    for plan in plans {
        plan_bits(plan, &mut out);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_float_bit_pattern_crosses_exactly(seed in 0u64..u64::MAX, batch in 0u64..4) {
        let mut gen = Gen(seed);
        let mut plans: Vec<PlanNode> = (0..batch.max(1)).map(|_| gen.plan(3)).collect();
        for plan in &mut plans {
            wild_floats(plan, &mut gen);
        }
        let message = if batch == 0 {
            Message::Predict(Box::new(plans[0].clone()))
        } else {
            Message::PredictBatch(plans.clone())
        };
        let bytes = encode_frame(&Frame::new(1, message)).expect("encode");
        let (back, used) = decode_frame(&bytes).expect("decode").expect("whole frame");
        prop_assert_eq!(used, bytes.len());
        let decoded = match back.message {
            Message::Predict(plan) => vec![*plan],
            Message::PredictBatch(plans) => plans,
            other => panic!("decoded a {}", other.op_name()),
        };
        prop_assert_eq!(bits_of(&decoded), bits_of(&plans));
    }
}

/// JSON wrote a NaN bound as `null` and read it back as `None`: a
/// different plan.  The binary payload keeps it `Some(NaN)`, bits and all.
#[test]
fn a_nan_index_bound_stays_some() {
    let nan = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
    let plan = PlanNode::leaf(
        PhysOperator::IndexScan {
            table: TableId(1),
            index_column: ColumnRef::new(TableId(1), ColumnId(0)),
            lo: Some(nan),
            hi: Some(-0.0),
            residual: vec![],
        },
        f64::NAN,
        f64::INFINITY,
        8.0,
    );
    let bytes = encode_frame(&Frame::new(1, Message::Predict(Box::new(plan.clone())))).unwrap();
    let (back, _) = decode_frame(&bytes).unwrap().unwrap();
    let Message::Predict(back) = back.message else {
        panic!("not a Predict")
    };
    assert_eq!(bits_of(std::slice::from_ref(&*back)), bits_of(&[plan]));
    let PhysOperator::IndexScan { lo, hi, .. } = back.op else {
        panic!("not an IndexScan")
    };
    assert_eq!(lo.map(f64::to_bits), Some(nan.to_bits()));
    assert_eq!(hi.map(f64::to_bits), Some((-0.0f64).to_bits()));
}

/// `message`'s header (length patched) over `payload`.
fn frame_over(message: Message, payload: &[u8]) -> Vec<u8> {
    let mut bytes = encode_frame(&Frame::new(5, message)).expect("encode")[..HEADER_LEN].to_vec();
    bytes[16..20].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// The encoding of an `Aggregate` node of no aggregates, as laid out in
/// the crate docs, declaring `children` children.
fn aggregate_node(children: u32) -> Vec<u8> {
    let mut node = vec![4];
    node.extend_from_slice(&0u32.to_le_bytes());
    for v in [1.0f64, 2.0, 8.0] {
        node.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    node.extend_from_slice(&children.to_le_bytes());
    node
}

/// A chain of `levels` aggregate nodes, each the only child of the one
/// before.
fn chain_payload(levels: usize) -> Vec<u8> {
    (0..levels)
        .flat_map(|level| aggregate_node(u32::from(level + 1 < levels)))
        .collect()
}

fn assert_malformed(bytes: &[u8], op: &str) {
    assert_decodes_or_fails_cleanly(bytes);
    match decode_frame(bytes) {
        Err(ProtocolError::MalformedPayload { op: got, .. }) => assert_eq!(got, op),
        other => panic!("expected a malformed {op}, got {other:?}"),
    }
    assert!(matches!(
        read_frame(&mut &bytes[..]),
        Err(ProtocolError::MalformedPayload { .. })
    ));
}

#[test]
fn plans_deeper_than_the_bound_are_refused_without_recursing() {
    let predict = || Message::Predict(Box::new(Gen(1).plan(0)));
    let deepest = frame_over(predict(), &chain_payload(MAX_PLAN_DEPTH));
    let (frame, _) = decode_frame(&deepest).unwrap().expect("whole frame");
    let Message::Predict(plan) = &frame.message else {
        panic!("not a Predict")
    };
    assert_eq!(plan.depth(), MAX_PLAN_DEPTH);
    assert_eq!(read_frame(&mut &deepest[..]).unwrap(), Some(frame.clone()));
    // The hand-built bytes are what the encoder writes for that plan.
    assert_eq!(encode_frame(&frame).unwrap(), deepest);

    // One level deeper, and ten thousand levels (a payload an unbounded
    // recursive decoder would follow all the way down), fail as payloads,
    // alone and inside a batch.
    for levels in [MAX_PLAN_DEPTH + 1, 10_000] {
        let chain = chain_payload(levels);
        assert_malformed(&frame_over(predict(), &chain), "Predict");
        let mut batch = 1u32.to_le_bytes().to_vec();
        batch.extend_from_slice(&chain);
        assert_malformed(
            &frame_over(Message::PredictBatch(vec![]), &batch),
            "PredictBatch",
        );
    }
}

#[test]
fn huge_counts_in_short_payloads_fail_without_allocating_for_them() {
    let huge = u32::MAX.to_le_bytes();
    // An aggregate node declaring u32::MAX children, then a few bytes.
    let mut children = aggregate_node(u32::MAX);
    children.extend_from_slice(&[0; 64]);
    // A SeqScan of table 0 declaring u32::MAX predicates.
    let mut predicates = vec![0, 0, 0, 0, 0];
    predicates.extend_from_slice(&huge);
    predicates.extend_from_slice(&[0; 64]);
    // An Aggregate declaring u32::MAX aggregates.
    let mut aggregates = vec![4];
    aggregates.extend_from_slice(&huge);
    aggregates.extend_from_slice(&[0; 64]);
    // A batch declaring u32::MAX plans, holding one.
    let mut batch = huge.to_vec();
    batch.extend_from_slice(&aggregate_node(0));
    let predict = || Message::Predict(Box::new(Gen(1).plan(0)));
    for (bytes, op) in [
        (frame_over(predict(), &children), "Predict"),
        (frame_over(predict(), &predicates), "Predict"),
        (frame_over(predict(), &aggregates), "Predict"),
        (
            frame_over(Message::PredictBatch(vec![]), &batch),
            "PredictBatch",
        ),
    ] {
        let largest = largest_allocation::during(|| assert_malformed(&bytes, op));
        assert!(
            largest < 64 * 1024,
            "a {}-byte {op} frame allocated {largest} bytes at once",
            bytes.len()
        );
    }
}
