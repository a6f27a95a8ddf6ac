//! Error type of the serving layer.

use spgemm_dist::DistError;
use spgemm_sparse::SparseError;

/// Why a submission was rejected or a job failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The submission queue is full. Open-loop clients should shed the
    /// request (and count it); closed-loop clients may retry after
    /// draining some in-flight work. `try_submit` never blocks — this
    /// variant *is* the backpressure signal.
    Overloaded {
        /// The queue capacity that was hit.
        capacity: usize,
    },
    /// The request named a matrix the store does not hold.
    UnknownMatrix {
        /// The missing name.
        name: String,
    },
    /// The engine is shutting down and no longer accepts submissions.
    /// Jobs accepted *before* shutdown still drain to completion.
    ShuttingDown,
    /// The job was cancelled while still queued.
    Cancelled,
    /// The multiply itself failed (shape mismatch, sortedness
    /// contract, ...).
    Sparse(SparseError),
    /// A worker panicked while executing the job. The panic is
    /// contained: the worker survives and the job reports this error.
    Internal {
        /// Panic payload rendered to text.
        detail: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { capacity } => {
                write!(f, "submission queue full (capacity {capacity})")
            }
            ServeError::UnknownMatrix { name } => {
                write!(f, "no matrix named {name:?} in the store")
            }
            ServeError::ShuttingDown => write!(f, "engine is shutting down"),
            ServeError::Cancelled => write!(f, "job cancelled while queued"),
            ServeError::Sparse(e) => write!(f, "multiply failed: {e}"),
            ServeError::Internal { detail } => write!(f, "worker panicked: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Sparse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SparseError> for ServeError {
    fn from(e: SparseError) -> Self {
        ServeError::Sparse(e)
    }
}

/// A shard-fleet failure: the product's own error passes through, an
/// infrastructure failure (a shard that panicked) is internal.
impl From<DistError> for ServeError {
    fn from(e: DistError) -> Self {
        match e {
            DistError::Sparse(e) => ServeError::Sparse(e),
            other => ServeError::Internal {
                detail: other.to_string(),
            },
        }
    }
}
