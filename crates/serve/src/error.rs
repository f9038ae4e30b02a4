//! Error type shared by the registry and the prediction server.

use std::fmt;
use zsdb_engine::PlanError;

/// Everything that can go wrong while registering, loading or serving a
/// model.
#[derive(Debug)]
pub enum ServeError {
    /// Filesystem error while reading or writing registry artifacts.
    Io(std::io::Error),
    /// Artifact (de)serialization failure.
    Json(serde_json::Error),
    /// The requested model name / version does not exist in the registry.
    NotFound {
        /// Model name looked up.
        name: String,
        /// Specific version, or `None` for "latest of zero versions".
        version: Option<u32>,
    },
    /// A loaded model failed its prediction round-trip integrity check:
    /// its predictions on the stored probe graphs no longer match the
    /// bit-patterns recorded at registration time.
    IntegrityViolation {
        /// Model name.
        name: String,
        /// Artifact version.
        version: u32,
        /// Human-readable description of the first mismatch.
        details: String,
    },
    /// The artifact was written by an incompatible registry format.
    FormatVersionMismatch {
        /// Format version found in the manifest.
        found: u32,
        /// Format version this build supports.
        supported: u32,
    },
    /// A rollback was requested but the promotion history holds no
    /// earlier version to fall back to.
    RollbackUnavailable {
        /// Model name whose history is too short.
        name: String,
    },
    /// The request queue is full (backpressure): the caller should retry
    /// later or shed load.
    Overloaded,
    /// A submitted plan names a table or column outside the served
    /// catalog, or carries a non-finite estimate; it was refused before
    /// it reached the queue.
    InvalidPlan(PlanError),
    /// The server has shut down and can no longer accept or answer
    /// requests.
    Closed,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "registry I/O error: {e}"),
            ServeError::Json(e) => write!(f, "artifact serialization error: {e}"),
            ServeError::NotFound { name, version } => match version {
                Some(v) => write!(f, "model '{name}' version {v} not found"),
                None => write!(f, "model '{name}' has no registered versions"),
            },
            ServeError::IntegrityViolation {
                name,
                version,
                details,
            } => write!(
                f,
                "integrity check failed for model '{name}' v{version}: {details}"
            ),
            ServeError::FormatVersionMismatch { found, supported } => write!(
                f,
                "artifact format version {found} is not supported (this build reads {supported})"
            ),
            ServeError::RollbackUnavailable { name } => write!(
                f,
                "model '{name}' has no earlier promoted version to roll back to"
            ),
            ServeError::Overloaded => write!(f, "request queue is full"),
            ServeError::InvalidPlan(e) => write!(f, "invalid plan: {e}"),
            ServeError::Closed => write!(f, "prediction server is shut down"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Json(e) => Some(e),
            ServeError::InvalidPlan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<serde_json::Error> for ServeError {
    fn from(e: serde_json::Error) -> Self {
        ServeError::Json(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ServeError::NotFound {
            name: "cost".into(),
            version: Some(3),
        };
        assert!(e.to_string().contains("cost"));
        assert!(e.to_string().contains('3'));
        assert!(ServeError::Overloaded.to_string().contains("full"));
        assert!(ServeError::Closed.to_string().contains("shut down"));
        let io: ServeError = std::io::Error::other("boom").into();
        assert!(io.to_string().contains("boom"));
    }
}
