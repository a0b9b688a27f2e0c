//! Engine error types.

use std::error::Error;
use std::fmt;

use cq_overlay::OverlayError;
use cq_relational::RelationalError;

use crate::config::Algorithm;

/// Errors produced by the continuous-query engine.
#[derive(Clone, Debug)]
pub enum EngineError {
    /// Error from the overlay substrate.
    Overlay(OverlayError),
    /// Error from the relational layer (parsing, typing, evaluation).
    Relational(RelationalError),
    /// The query class is not supported by the configured algorithm
    /// (e.g. a type-T2 query under SAI/DAI-Q/DAI-T, Section 4.5).
    UnsupportedByAlgorithm {
        /// The configured algorithm.
        algorithm: Algorithm,
        /// Human-readable detail.
        detail: String,
    },
    /// A protocol invariant was violated: a handler received a message its
    /// algorithm never produces (e.g. a plain `Join` under DAI-V), or a
    /// message payload was malformed for the handler that got it. Indicates
    /// a mis-wired algorithm implementation or a corrupted message, and
    /// fails the run with context instead of aborting the process.
    Protocol {
        /// Human-readable description of the violated invariant.
        detail: String,
    },
    /// The referenced node is not part of the network.
    UnknownNode,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Overlay(e) => write!(f, "overlay error: {e}"),
            EngineError::Relational(e) => write!(f, "relational error: {e}"),
            EngineError::UnsupportedByAlgorithm { algorithm, detail } => {
                write!(f, "query not supported by {algorithm}: {detail}")
            }
            EngineError::Protocol { detail } => {
                write!(f, "protocol violation: {detail}")
            }
            EngineError::UnknownNode => write!(f, "node is not part of the network"),
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::Overlay(e) => Some(e),
            EngineError::Relational(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OverlayError> for EngineError {
    fn from(e: OverlayError) -> Self {
        EngineError::Overlay(e)
    }
}

impl From<RelationalError> for EngineError {
    fn from(e: RelationalError) -> Self {
        EngineError::Relational(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, EngineError>;
