//! Error types for graph construction and I/O.

use std::fmt;

/// Errors produced while building, partitioning or parsing graphs.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// An edge referenced a vertex id `>= n`.
    VertexOutOfRange {
        /// The offending vertex id.
        id: u64,
        /// The number of vertices in the graph.
        n: usize,
    },
    /// The requested vertex count exceeds the id space (`u32::MAX - 1`).
    TooManyVertices(usize),
    /// A weighted operation was requested on an unweighted graph.
    Unweighted,
    /// Weight array length differs from edge count.
    WeightMismatch {
        /// Number of edges supplied.
        edges: usize,
        /// Number of weights supplied.
        weights: usize,
    },
    /// A partitioning outside 1 to `u16::MAX` workers was requested
    /// (owners are `u16`); carries the requested count.
    WorkerCount(usize),
    /// A partitioning needs more necessary mirrors than the mirror table's
    /// `u32` offsets can address.
    TooManyMirrors,
    /// Malformed input while parsing an edge-list.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description.
        msg: String,
    },
    /// Underlying I/O failure (message-only so the error stays `Clone`).
    Io(String),
    /// A block file (`.fgb`) failed validation: wrong magic, version,
    /// endianness, or a truncated/inconsistent section layout.
    BlockFormat(String),
    /// A membership change (rebalance/rejoin) on a [`crate::PartitionMap`]
    /// was rejected — e.g. an unknown host, a host already in the requested
    /// state, or a change that would leave no live hosts.
    Membership(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { id, n } => {
                write!(f, "vertex id {id} out of range for graph with {n} vertices")
            }
            GraphError::TooManyVertices(n) => {
                write!(f, "{n} vertices exceeds the u32 id space")
            }
            GraphError::Unweighted => write!(f, "operation requires an edge-weighted graph"),
            GraphError::WeightMismatch { edges, weights } => {
                write!(f, "{weights} weights supplied for {edges} edges")
            }
            GraphError::WorkerCount(m) => write!(
                f,
                "a partition needs 1 to {} workers (owners are u16), not {m}",
                u16::MAX
            ),
            GraphError::TooManyMirrors => {
                write!(f, "the partition's mirror table exceeds its u32 offsets")
            }
            GraphError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            GraphError::Io(msg) => write!(f, "i/o error: {msg}"),
            GraphError::BlockFormat(msg) => write!(f, "block file rejected: {msg}"),
            GraphError::Membership(msg) => write!(f, "membership change rejected: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GraphError::VertexOutOfRange { id: 9, n: 5 };
        assert!(e.to_string().contains("9"));
        assert!(e.to_string().contains("5"));
        let w = GraphError::WorkerCount(70_000).to_string();
        assert!(w.contains("65535") && w.contains("70000"), "{w}");
        assert!(GraphError::Unweighted.to_string().contains("weight"));
        let m = GraphError::Membership("host 3 is already dead".into());
        assert!(m.to_string().contains("membership"));
        assert!(m.to_string().contains("host 3"));
        let b = GraphError::BlockFormat("bad magic".into());
        assert!(b.to_string().contains("block file"));
        assert!(b.to_string().contains("bad magic"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: GraphError = io.into();
        assert!(matches!(e, GraphError::Io(_)));
        assert!(e.to_string().contains("gone"));
    }
}
