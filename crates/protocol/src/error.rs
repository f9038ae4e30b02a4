//! Decode/encode failures of the framed protocol.

use std::fmt;

/// Everything that can go wrong while encoding or decoding a frame.
#[derive(Debug)]
pub enum ProtocolError {
    /// The first four bytes are not the `ZSDB` magic — the peer is not
    /// speaking this protocol.
    BadMagic([u8; 4]),
    /// The frame's protocol version is not supported by this build.
    UnsupportedVersion(u8),
    /// The reserved flags field carried a non-zero value.
    NonZeroFlags(u16),
    /// The opcode byte does not name a known operation.
    UnknownOpcode(u8),
    /// The declared payload length exceeds
    /// [`MAX_PAYLOAD_LEN`](crate::MAX_PAYLOAD_LEN) — either corruption or
    /// a hostile peer; the connection should be dropped.
    PayloadTooLarge {
        /// Declared payload length.
        declared: u32,
        /// The enforced limit.
        limit: u32,
    },
    /// The payload bytes do not parse as the opcode's payload (the
    /// binary plan layout for `Predict`/`PredictBatch`, UTF-8 JSON for
    /// the other ops).  The header before it was valid, so
    /// [`decode_header`](crate::decode_header) still frames it.
    MalformedPayload {
        /// Human-readable opcode name.
        op: &'static str,
        /// What the payload parser reported.
        detail: String,
    },
    /// The stream ended in the middle of a frame (header or payload).
    Truncated,
    /// I/O failure of the underlying stream.
    Io(std::io::Error),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::BadMagic(m) => {
                write!(f, "bad frame magic {m:?} (expected \"ZSDB\")")
            }
            ProtocolError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (this build speaks {})",
                    crate::PROTOCOL_VERSION
                )
            }
            ProtocolError::NonZeroFlags(flags) => {
                write!(f, "reserved flags field is non-zero ({flags:#06x})")
            }
            ProtocolError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            ProtocolError::PayloadTooLarge { declared, limit } => {
                write!(
                    f,
                    "payload of {declared} bytes exceeds the {limit}-byte limit"
                )
            }
            ProtocolError::MalformedPayload { op, detail } => {
                write!(f, "malformed {op} payload: {detail}")
            }
            ProtocolError::Truncated => write!(f, "stream ended mid-frame"),
            ProtocolError::Io(e) => write!(f, "protocol I/O error: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(ProtocolError::BadMagic(*b"HTTP")
            .to_string()
            .contains("ZSDB"));
        assert!(ProtocolError::UnsupportedVersion(9)
            .to_string()
            .contains('9'));
        assert!(ProtocolError::UnknownOpcode(0xAB)
            .to_string()
            .contains("0xab"));
        assert!(ProtocolError::PayloadTooLarge {
            declared: 10,
            limit: 5
        }
        .to_string()
        .contains("limit"));
        assert!(ProtocolError::Truncated.to_string().contains("mid-frame"));
        let io: ProtocolError = std::io::Error::other("boom").into();
        assert!(io.to_string().contains("boom"));
    }
}
