//! Error type of the sharded runtime.

use spgemm_sparse::SparseError;
use std::fmt;

/// Errors surfaced by [`crate::ShardRuntime`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistError {
    /// A sparse-layer failure (shape mismatch, kernel contract
    /// violation, ...) from partitioning or a shard's local product.
    Sparse(SparseError),
    /// A shard could not complete its part of the product (contained
    /// panic, window mismatch). Failures are contained per product: the
    /// shard drops its plan and the fleet serves the next multiply.
    ShardFailed {
        /// Which shard failed, as a flat index into the grid.
        shard: usize,
        /// The panic message.
        detail: String,
    },
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Sparse(e) => write!(f, "sparse error in sharded product: {e}"),
            DistError::ShardFailed { shard, detail } => {
                write!(f, "shard {shard} failed: {detail}")
            }
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistError::Sparse(e) => Some(e),
            DistError::ShardFailed { .. } => None,
        }
    }
}

impl From<SparseError> for DistError {
    fn from(e: SparseError) -> Self {
        DistError::Sparse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = DistError::from(SparseError::Unsorted { op: "test" });
        assert!(e.to_string().contains("sorted"));
        assert!(std::error::Error::source(&e).is_some());
        let e = DistError::ShardFailed {
            shard: 3,
            detail: "boom".into(),
        };
        assert!(e.to_string().contains("shard 3"));
    }
}
