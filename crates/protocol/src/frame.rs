//! Frame codec: pure functions between [`Frame`]s and bytes, plus thin
//! `io::Read`/`io::Write` adapters.

use crate::error::ProtocolError;
use crate::message::{
    ErrorResponse, ExplainRequest, GatewayMetrics, HealthResponse, HelloAck, HelloRequest, Message,
    ProvenanceRecord, SlowLogRequest, WirePrediction, WireSloStatus,
};
use crate::plan_codec;
use std::io::{Read, Write};

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"ZSDB";

/// The one protocol version this build speaks: every frame carries it,
/// and a frame or `Hello` of any other version is refused.  Version 3
/// carries `Predict`/`PredictBatch` plans in the binary plan layout;
/// version 2 carried them as JSON.
pub const PROTOCOL_VERSION: u8 = 3;

/// Flag bit: an 8-byte little-endian trace id immediately follows the
/// fixed header, before the payload.
pub const FLAG_TRACE_ID: u16 = 0x0001;

/// Size of the trace-id header extension selected by [`FLAG_TRACE_ID`].
pub const TRACE_ID_EXT_LEN: usize = 8;

/// Fixed size of the frame header in bytes (extensions excluded).
pub const HEADER_LEN: usize = 20;

/// Upper bound on a frame's payload.  Anything larger is treated as
/// corruption or hostility and fails decoding with
/// [`ProtocolError::PayloadTooLarge`].
pub const MAX_PAYLOAD_LEN: u32 = 32 * 1024 * 1024;

/// Upper bound on the payload of a connection's first frame, enforced by
/// the gateway through [`read_frame_limited`].  A `Hello` is a tenant id
/// and a version number; until it has been accepted the peer is anonymous
/// and gets to make the server buffer and parse no more than this.
pub const MAX_HANDSHAKE_PAYLOAD_LEN: u32 = 4 * 1024;

/// One protocol frame: a request id plus a typed message, optionally
/// tagged with a request-scoped trace id.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Client-chosen id echoed by the server's response, so many
    /// in-flight requests can share one connection.
    pub request_id: u64,
    /// Request-scoped trace id propagated end to end; 0 means untraced.
    /// Non-zero ids ride in a header extension ([`FLAG_TRACE_ID`]).
    pub trace_id: u64,
    /// The typed message body.
    pub message: Message,
}

impl Frame {
    /// Build an untraced frame (no header extension).
    pub fn new(request_id: u64, message: Message) -> Self {
        Frame {
            request_id,
            trace_id: 0,
            message,
        }
    }

    /// Build a frame carrying a trace id (in the [`FLAG_TRACE_ID`]
    /// extension when `trace_id` is non-zero).
    pub fn traced(request_id: u64, trace_id: u64, message: Message) -> Self {
        Frame {
            request_id,
            trace_id,
            message,
        }
    }
}

/// Append `message`'s payload to `out`: the binary plan codec for
/// `Predict`/`PredictBatch`, raw text for `MetricsTextOk`, JSON otherwise.
fn encode_payload(message: &Message, out: &mut Vec<u8>) -> Result<(), ProtocolError> {
    let json = match message {
        Message::Predict(plan) => {
            plan_codec::encode_plan(plan, out);
            return Ok(());
        }
        Message::PredictBatch(plans) => {
            plan_codec::encode_plans(plans, out);
            return Ok(());
        }
        Message::Metrics | Message::MetricsText | Message::Health | Message::SloStatus => {
            return Ok(())
        }
        // Raw Prometheus exposition text, not JSON.
        Message::MetricsTextOk(text) => {
            out.extend_from_slice(text.as_bytes());
            return Ok(());
        }
        Message::Hello(m) => serde_json::to_string(m),
        Message::HelloAck(m) => serde_json::to_string(m),
        Message::PredictOk(m) => serde_json::to_string(m),
        Message::PredictBatchOk(m) => serde_json::to_string(m),
        Message::MetricsOk(m) => serde_json::to_string(m.as_ref()),
        Message::HealthOk(m) => serde_json::to_string(m),
        Message::Explain(m) => serde_json::to_string(m),
        Message::ExplainOk(m) => serde_json::to_string(m.as_ref()),
        Message::SlowLog(m) => serde_json::to_string(m),
        Message::SlowLogOk(m) => serde_json::to_string(m),
        Message::SloStatusOk(m) => serde_json::to_string(m),
        Message::Error(m) => serde_json::to_string(m),
    };
    let json = json.map_err(|e| ProtocolError::MalformedPayload {
        op: message.op_name(),
        detail: e.to_string(),
    })?;
    out.extend_from_slice(json.as_bytes());
    Ok(())
}

fn decode_payload(opcode: u8, payload: &[u8]) -> Result<Message, ProtocolError> {
    fn parse<T: serde::Deserialize>(op: &'static str, payload: &[u8]) -> Result<T, ProtocolError> {
        let text = std::str::from_utf8(payload).map_err(|e| ProtocolError::MalformedPayload {
            op,
            detail: format!("payload is not UTF-8: {e}"),
        })?;
        serde_json::from_str(text).map_err(|e| ProtocolError::MalformedPayload {
            op,
            detail: e.to_string(),
        })
    }
    // The plan codec reports a bare detail; this names the op.
    fn binary(op: &'static str) -> impl Fn(String) -> ProtocolError {
        move |detail| ProtocolError::MalformedPayload { op, detail }
    }
    // A request without a body carries an empty payload; bytes there mean
    // the frame is not what its opcode says (e.g. a flipped opcode bit).
    fn bodiless(
        op: &'static str,
        payload: &[u8],
        message: Message,
    ) -> Result<Message, ProtocolError> {
        if payload.is_empty() {
            Ok(message)
        } else {
            Err(ProtocolError::MalformedPayload {
                op,
                detail: format!("expected an empty payload, found {} bytes", payload.len()),
            })
        }
    }
    Ok(match opcode {
        0x01 => Message::Hello(parse::<HelloRequest>("Hello", payload)?),
        0x02 => Message::HelloAck(parse::<HelloAck>("HelloAck", payload)?),
        0x10 => Message::Predict(Box::new(
            plan_codec::decode_plan(payload).map_err(binary("Predict"))?,
        )),
        0x11 => Message::PredictBatch(
            plan_codec::decode_plans(payload).map_err(binary("PredictBatch"))?,
        ),
        0x12 => Message::PredictOk(parse::<WirePrediction>("PredictOk", payload)?),
        0x13 => Message::PredictBatchOk(parse::<Vec<WirePrediction>>("PredictBatchOk", payload)?),
        0x20 => bodiless("Metrics", payload, Message::Metrics)?,
        0x21 => Message::MetricsOk(Box::new(parse::<GatewayMetrics>("MetricsOk", payload)?)),
        0x22 => bodiless("MetricsText", payload, Message::MetricsText)?,
        0x23 => Message::MetricsTextOk(
            std::str::from_utf8(payload)
                .map_err(|e| ProtocolError::MalformedPayload {
                    op: "MetricsTextOk",
                    detail: format!("payload is not UTF-8: {e}"),
                })?
                .to_string(),
        ),
        0x30 => bodiless("Health", payload, Message::Health)?,
        0x31 => Message::HealthOk(parse::<HealthResponse>("HealthOk", payload)?),
        0x40 => Message::Explain(parse::<ExplainRequest>("Explain", payload)?),
        0x41 => Message::ExplainOk(Box::new(parse::<ProvenanceRecord>("ExplainOk", payload)?)),
        0x42 => Message::SlowLog(parse::<SlowLogRequest>("SlowLog", payload)?),
        0x43 => Message::SlowLogOk(parse::<Vec<ProvenanceRecord>>("SlowLogOk", payload)?),
        0x44 => bodiless("SloStatus", payload, Message::SloStatus)?,
        0x45 => Message::SloStatusOk(parse::<WireSloStatus>("SloStatusOk", payload)?),
        0x3F => Message::Error(parse::<ErrorResponse>("Error", payload)?),
        other => return Err(ProtocolError::UnknownOpcode(other)),
    })
}

/// Encode one frame into bytes (header, extension, payload).
///
/// Fails only when the payload would exceed [`MAX_PAYLOAD_LEN`] — e.g. an
/// absurdly large `PredictBatch`.
pub fn encode_frame(frame: &Frame) -> Result<Vec<u8>, ProtocolError> {
    let flags = if frame.trace_id == 0 {
        0
    } else {
        FLAG_TRACE_ID
    };
    let ext_len = header_ext_len(flags);
    let payload_at = HEADER_LEN + ext_len;
    // Room for a typical plan; the length field is filled in last.
    let mut out = Vec::with_capacity(payload_at + 512);
    out.extend_from_slice(&MAGIC);
    out.push(PROTOCOL_VERSION);
    out.push(frame.message.opcode());
    out.extend_from_slice(&flags.to_le_bytes());
    out.extend_from_slice(&frame.request_id.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    if ext_len != 0 {
        out.extend_from_slice(&frame.trace_id.to_le_bytes());
    }
    encode_payload(&frame.message, &mut out)?;
    let payload_len = out.len() - payload_at;
    if payload_len as u64 > MAX_PAYLOAD_LEN as u64 {
        return Err(ProtocolError::PayloadTooLarge {
            declared: u32::try_from(payload_len).unwrap_or(u32::MAX),
            limit: MAX_PAYLOAD_LEN,
        });
    }
    out[16..20].copy_from_slice(&(payload_len as u32).to_le_bytes());
    Ok(out)
}

/// Bytes of header extension selected by a frame's flags.
fn header_ext_len(flags: u16) -> usize {
    if flags & FLAG_TRACE_ID != 0 {
        TRACE_ID_EXT_LEN
    } else {
        0
    }
}

/// The fixed header of a frame, checked: enough to find the frame's end
/// and to answer it before (or without) parsing its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// The opcode byte (not yet checked against the known ops).
    pub opcode: u8,
    /// Flags; only [`FLAG_TRACE_ID`] may be set.
    pub flags: u16,
    /// Client-chosen request id.
    pub request_id: u64,
    /// Declared payload length, at most [`MAX_PAYLOAD_LEN`].
    pub payload_len: u32,
}

impl FrameHeader {
    /// Bytes of the whole frame: header, extension and payload.
    pub fn frame_len(&self) -> usize {
        HEADER_LEN + header_ext_len(self.flags) + self.payload_len as usize
    }
}

/// Check the fixed header at the start of `buf`.
///
/// Returns `Ok(None)` while fewer than [`HEADER_LEN`] bytes are buffered
/// (failing early, though, on a prefix that cannot become the magic), and
/// an error for a bad magic, another version, an unknown flag or an
/// oversize payload — bytes that can never become a frame.
pub fn decode_header(buf: &[u8]) -> Result<Option<FrameHeader>, ProtocolError> {
    if buf.len() < HEADER_LEN {
        // Reject garbage as early as its first bytes arrive.
        if !MAGIC.starts_with(&buf[..buf.len().min(4)]) {
            let mut found = [0u8; 4];
            found[..buf.len().min(4)].copy_from_slice(&buf[..buf.len().min(4)]);
            return Err(ProtocolError::BadMagic(found));
        }
        return Ok(None);
    }
    if buf[..4] != MAGIC {
        return Err(ProtocolError::BadMagic([buf[0], buf[1], buf[2], buf[3]]));
    }
    if buf[4] != PROTOCOL_VERSION {
        return Err(ProtocolError::UnsupportedVersion(buf[4]));
    }
    let flags = u16::from_le_bytes([buf[6], buf[7]]);
    if flags & !FLAG_TRACE_ID != 0 {
        return Err(ProtocolError::NonZeroFlags(flags));
    }
    let payload_len = u32::from_le_bytes(buf[16..20].try_into().expect("4-byte slice"));
    if payload_len > MAX_PAYLOAD_LEN {
        return Err(ProtocolError::PayloadTooLarge {
            declared: payload_len,
            limit: MAX_PAYLOAD_LEN,
        });
    }
    Ok(Some(FrameHeader {
        opcode: buf[5],
        flags,
        request_id: u64::from_le_bytes(buf[8..16].try_into().expect("8-byte slice")),
        payload_len,
    }))
}

/// Decode the first frame of `buf`.
///
/// Returns `Ok(Some((frame, consumed)))` when a complete frame starts the
/// buffer (`consumed` bytes of it), `Ok(None)` when the buffer holds only
/// a prefix of a frame (read more bytes and retry), and an error when the
/// bytes can never become a valid frame.  A
/// [`ProtocolError::MalformedPayload`] comes only from a whole frame behind
/// a valid header: [`decode_header`] then says which bytes to skip.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>, ProtocolError> {
    let Some(header) = decode_header(buf)? else {
        return Ok(None);
    };
    let total = header.frame_len();
    if buf.len() < total {
        return Ok(None);
    }
    let payload_at = total - header.payload_len as usize;
    let trace_id = if header.flags & FLAG_TRACE_ID != 0 {
        u64::from_le_bytes(
            buf[HEADER_LEN..payload_at]
                .try_into()
                .expect("8-byte slice"),
        )
    } else {
        0
    };
    let message = decode_payload(header.opcode, &buf[payload_at..total])?;
    Ok(Some((
        Frame::traced(header.request_id, trace_id, message),
        total,
    )))
}

/// Read one frame from a blocking stream.
///
/// Returns `Ok(None)` on a clean end-of-stream at a frame boundary and
/// [`ProtocolError::Truncated`] when the stream ends mid-frame.
pub fn read_frame<R: Read>(reader: &mut R) -> Result<Option<Frame>, ProtocolError> {
    read_frame_limited(reader, MAX_PAYLOAD_LEN)
}

/// [`read_frame`] with a tighter payload bound: a header declaring more
/// than `payload_limit` bytes fails with
/// [`ProtocolError::PayloadTooLarge`] before any of the payload is
/// buffered or parsed.
pub fn read_frame_limited<R: Read>(
    reader: &mut R,
    payload_limit: u32,
) -> Result<Option<Frame>, ProtocolError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < HEADER_LEN {
        let n = reader.read(&mut header[filled..])?;
        if n == 0 {
            return if filled == 0 {
                Ok(None)
            } else {
                Err(ProtocolError::Truncated)
            };
        }
        filled += n;
    }
    // Validate the header alone first, then read exactly the rest.
    let checked = decode_header(&header)?.expect("a whole header");
    if checked.payload_len > payload_limit {
        return Err(ProtocolError::PayloadTooLarge {
            declared: checked.payload_len,
            limit: payload_limit,
        });
    }
    let mut buf = vec![0; checked.frame_len()];
    buf[..HEADER_LEN].copy_from_slice(&header);
    reader
        .read_exact(&mut buf[HEADER_LEN..])
        .map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => ProtocolError::Truncated,
            _ => ProtocolError::Io(e),
        })?;
    match decode_frame(&buf)? {
        Some((frame, _)) => Ok(Some(frame)),
        None => unreachable!("header + full payload must decode"),
    }
}

/// Encode and write one frame to a blocking stream (no flush — callers
/// batching several frames flush once at the end).
pub fn write_frame<W: Write>(writer: &mut W, frame: &Frame) -> Result<(), ProtocolError> {
    let bytes = encode_frame(frame)?;
    writer.write_all(&bytes)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::ErrorCode;

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Hello(HelloRequest {
                protocol_version: PROTOCOL_VERSION,
                tenant: "analytics".into(),
            }),
            Message::HelloAck(HelloAck {
                protocol_version: PROTOCOL_VERSION,
                model_version: 7,
                tenant_quota: 256,
            }),
            Message::Metrics,
            Message::Health,
            Message::HealthOk(HealthResponse {
                healthy: true,
                model_version: 7,
            }),
            Message::PredictOk(WirePrediction {
                runtime_secs: 0.1 + 0.2, // not exactly representable
                fingerprint: u64::MAX,
                cache_hit: true,
                server_latency_micros: 12345,
                model_version: 7,
            }),
            Message::PredictBatchOk(vec![
                WirePrediction {
                    runtime_secs: f64::MIN_POSITIVE,
                    fingerprint: 0,
                    cache_hit: false,
                    server_latency_micros: 0,
                    model_version: 1,
                },
                WirePrediction {
                    runtime_secs: 1e300,
                    fingerprint: 42,
                    cache_hit: true,
                    server_latency_micros: 9,
                    model_version: 2,
                },
            ]),
            Message::Explain(ExplainRequest { trace_id: 0xBEEF }),
            Message::ExplainOk(Box::new(ProvenanceRecord {
                trace_id: 0xBEEF,
                fingerprint: 77,
                model_name: "zero-shot-cost".into(),
                model_version: 7,
                cache_hit: false,
                home_shard: 0,
                executed_shard: 3,
                stolen: true,
                predicted_secs: 0.1 + 0.2,
                total_ns: 2_000,
                flight_class: "slow_tail".into(),
                stages: vec![crate::message::ProvenanceStage {
                    name: "forward".into(),
                    duration_ns: 2_000,
                }],
            })),
            Message::SlowLog(SlowLogRequest { limit: 16 }),
            Message::SlowLogOk(vec![]),
            Message::SloStatus,
            Message::SloStatusOk(WireSloStatus {
                latency_objective_ns: 50_000_000,
                target: 0.999,
                windows: vec![crate::message::WireSloWindow {
                    window_secs: 3600,
                    good: 100,
                    bad: 1,
                    error_rate: 1.0 / 101.0,
                    burn_rate: 9.9,
                }],
            }),
            Message::Error(ErrorResponse {
                code: ErrorCode::Overloaded,
                message: "queue full — retry with backoff".into(),
            }),
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for (i, message) in sample_messages().into_iter().enumerate() {
            let frame = Frame::new(i as u64 * 1_000_003, message);
            let bytes = encode_frame(&frame).unwrap();
            let (back, consumed) = decode_frame(&bytes).unwrap().expect("complete frame");
            assert_eq!(consumed, bytes.len());
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn f64_predictions_round_trip_bit_exactly() {
        for bits in [
            0x3FB999999999999Au64, // 0.1
            0x0010000000000000,    // smallest normal
            0x000FFFFFFFFFFFFF,    // largest subnormal
            0x7FEFFFFFFFFFFFFF,    // f64::MAX
            0x3FF0000000000001,    // 1.0 + ulp
        ] {
            let value = f64::from_bits(bits);
            let frame = Frame::new(
                1,
                Message::PredictOk(WirePrediction {
                    runtime_secs: value,
                    fingerprint: bits,
                    cache_hit: false,
                    server_latency_micros: 1,
                    model_version: 1,
                }),
            );
            let bytes = encode_frame(&frame).unwrap();
            let (back, _) = decode_frame(&bytes).unwrap().unwrap();
            match back.message {
                Message::PredictOk(p) => assert_eq!(p.runtime_secs.to_bits(), bits),
                other => panic!("unexpected message {}", other.op_name()),
            }
        }
    }

    #[test]
    fn partial_buffers_ask_for_more_bytes() {
        let frame = Frame::new(
            9,
            Message::Hello(HelloRequest {
                protocol_version: PROTOCOL_VERSION,
                tenant: "t".into(),
            }),
        );
        let bytes = encode_frame(&frame).unwrap();
        for cut in 0..bytes.len() {
            let r = decode_frame(&bytes[..cut]).unwrap();
            assert!(r.is_none(), "prefix of {cut} bytes must be incomplete");
        }
        assert!(decode_frame(&bytes).unwrap().is_some());
    }

    #[test]
    fn concatenated_frames_decode_in_sequence() {
        let frames: Vec<Frame> = sample_messages()
            .into_iter()
            .enumerate()
            .map(|(i, m)| Frame::new(i as u64, m))
            .collect();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode_frame(f).unwrap());
        }
        let mut offset = 0;
        for expected in &frames {
            let (frame, used) = decode_frame(&stream[offset..]).unwrap().unwrap();
            assert_eq!(&frame, expected);
            offset += used;
        }
        assert_eq!(offset, stream.len());
    }

    #[test]
    fn garbage_is_rejected_early() {
        assert!(matches!(
            decode_frame(b"GET / HTTP/1.1\r\n"),
            Err(ProtocolError::BadMagic(_))
        ));
        // Even a two-byte prefix that can't extend to the magic fails.
        assert!(matches!(
            decode_frame(b"GE"),
            Err(ProtocolError::BadMagic(_))
        ));
        // A two-byte prefix of the magic is just incomplete.
        assert!(decode_frame(b"ZS").unwrap().is_none());
    }

    #[test]
    fn wrong_version_flags_opcode_and_oversize_are_rejected() {
        let frame = Frame::new(1, Message::Health);
        let bytes = encode_frame(&frame).unwrap();

        for version in [1, 99] {
            let mut wrong_version = bytes.clone();
            wrong_version[4] = version;
            assert!(matches!(
                decode_frame(&wrong_version),
                Err(ProtocolError::UnsupportedVersion(v)) if v == version
            ));
        }

        // Bit 0 is the trace flag; bit 1 is undefined.
        let mut wrong_flags = bytes.clone();
        wrong_flags[6] = 0x02;
        assert!(matches!(
            decode_frame(&wrong_flags),
            Err(ProtocolError::NonZeroFlags(0x02))
        ));

        let mut wrong_opcode = bytes.clone();
        wrong_opcode[5] = 0x7E;
        assert!(matches!(
            decode_frame(&wrong_opcode),
            Err(ProtocolError::UnknownOpcode(0x7E))
        ));

        let mut oversize = bytes;
        oversize[16..20].copy_from_slice(&(MAX_PAYLOAD_LEN + 1).to_le_bytes());
        assert!(matches!(
            decode_frame(&oversize),
            Err(ProtocolError::PayloadTooLarge { .. })
        ));
    }

    #[test]
    fn limited_read_refuses_from_the_header_alone() {
        let hello = Frame::new(
            3,
            Message::Hello(HelloRequest {
                protocol_version: PROTOCOL_VERSION,
                tenant: "t".repeat(64),
            }),
        );
        let bytes = encode_frame(&hello).unwrap();
        let payload_len = (bytes.len() - HEADER_LEN) as u32;
        // At the limit the frame reads; one byte under it, the header is
        // enough to refuse — the reader holds no payload byte at all.
        let mut at_limit = bytes.as_slice();
        assert_eq!(
            read_frame_limited(&mut at_limit, payload_len).unwrap(),
            Some(hello)
        );
        let mut header_only = &bytes[..HEADER_LEN];
        match read_frame_limited(&mut header_only, payload_len - 1) {
            Err(ProtocolError::PayloadTooLarge { declared, limit }) => {
                assert_eq!((declared, limit), (payload_len, payload_len - 1));
            }
            other => panic!("expected PayloadTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn untraced_frames_carry_the_version_and_no_extension() {
        let bytes = encode_frame(&Frame::new(5, Message::Health)).unwrap();
        assert_eq!(bytes[4], PROTOCOL_VERSION);
        assert_eq!(u16::from_le_bytes([bytes[6], bytes[7]]), 0);
        assert_eq!(bytes.len(), HEADER_LEN);
    }

    #[test]
    fn traced_frames_round_trip_via_the_v2_extension() {
        let frame = Frame::traced(
            42,
            0xDEAD_BEEF_CAFE_F00D,
            Message::Hello(HelloRequest {
                protocol_version: PROTOCOL_VERSION,
                tenant: "t".into(),
            }),
        );
        let bytes = encode_frame(&frame).unwrap();
        assert_eq!(bytes[4], PROTOCOL_VERSION);
        assert_eq!(u16::from_le_bytes([bytes[6], bytes[7]]), FLAG_TRACE_ID);
        let (back, consumed) = decode_frame(&bytes).unwrap().expect("complete frame");
        assert_eq!(consumed, bytes.len());
        assert_eq!(back, frame);
        assert_eq!(back.trace_id, 0xDEAD_BEEF_CAFE_F00D);

        // Every prefix is incomplete, including cuts inside the trace-id
        // extension.
        for cut in 0..bytes.len() {
            assert!(decode_frame(&bytes[..cut]).unwrap().is_none());
        }
    }

    #[test]
    fn traced_empty_payload_frames_survive_the_streaming_reader() {
        // MetricsText has an empty payload; with a trace id the frame is
        // header + extension only, which exercises read_frame's
        // extension-aware second read.
        let frame = Frame::traced(7, 99, Message::MetricsText);
        let mut stream = Vec::new();
        write_frame(&mut stream, &frame).unwrap();
        let mut cursor = std::io::Cursor::new(stream);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), frame);
    }

    #[test]
    fn unknown_flag_bits_on_a_v2_frame_are_rejected() {
        let mut bytes = encode_frame(&Frame::traced(1, 9, Message::Health)).unwrap();
        assert_eq!(bytes[4], PROTOCOL_VERSION);
        bytes[6] |= 0x02; // undefined bit alongside the trace flag
        assert!(matches!(
            decode_frame(&bytes),
            Err(ProtocolError::NonZeroFlags(_))
        ));
    }

    #[test]
    fn metrics_text_payload_is_raw_utf8_not_json() {
        let text = "# TYPE serve_requests_total counter\nserve_requests_total 3\n";
        let frame = Frame::new(3, Message::MetricsTextOk(text.to_string()));
        let bytes = encode_frame(&frame).unwrap();
        assert_eq!(&bytes[HEADER_LEN..], text.as_bytes());
        let (back, _) = decode_frame(&bytes).unwrap().unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn malformed_payload_names_the_op() {
        let frame = Frame::new(
            1,
            Message::HealthOk(HealthResponse {
                healthy: true,
                model_version: 1,
            }),
        );
        let mut bytes = encode_frame(&frame).unwrap();
        // Corrupt the JSON payload.
        let last = bytes.len() - 1;
        bytes[last] = b'!';
        match decode_frame(&bytes) {
            Err(ProtocolError::MalformedPayload { op, .. }) => assert_eq!(op, "HealthOk"),
            other => panic!("expected MalformedPayload, got {other:?}"),
        }
    }

    #[test]
    fn a_malformed_payloads_header_still_frames_it() {
        let mut bytes = encode_frame(&Frame::traced(77, 5, Message::PredictBatch(vec![]))).unwrap();
        bytes.push(0); // a trailing byte after the batch
        bytes[16..20].copy_from_slice(&5u32.to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(ProtocolError::MalformedPayload {
                op: "PredictBatch",
                ..
            })
        ));
        let header = decode_header(&bytes).unwrap().expect("a whole header");
        assert_eq!((header.opcode, header.request_id), (0x11, 77));
        assert_eq!(header.frame_len(), bytes.len());
        // Fewer bytes than a header are incomplete, not an error.
        assert_eq!(decode_header(&bytes[..HEADER_LEN - 1]).unwrap(), None);
    }

    #[test]
    fn io_round_trip_and_clean_eof() {
        let frames: Vec<Frame> = sample_messages()
            .into_iter()
            .enumerate()
            .map(|(i, m)| Frame::new(i as u64, m))
            .collect();
        let mut stream = Vec::new();
        for f in &frames {
            write_frame(&mut stream, f).unwrap();
        }
        let mut cursor = std::io::Cursor::new(stream.clone());
        for expected in &frames {
            assert_eq!(&read_frame(&mut cursor).unwrap().unwrap(), expected);
        }
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");

        // A stream cut mid-frame reports Truncated, not clean EOF.
        let cut = stream.len() - 3;
        let mut cursor = std::io::Cursor::new(&stream[..cut]);
        let mut result = Ok(Some(Frame::new(0, Message::Health)));
        for _ in 0..frames.len() {
            result = read_frame(&mut cursor);
            if result.is_err() {
                break;
            }
        }
        assert!(matches!(result, Err(ProtocolError::Truncated)));
    }
}
