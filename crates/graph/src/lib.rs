#![warn(missing_docs)]

//! # flash-graph — graph substrate for the FLASH framework
//!
//! This crate provides everything the FLASH programming model (see the
//! `flash-core` crate) needs to know about graphs, independent of any
//! distributed runtime:
//!
//! * [`Graph`] — a compact CSR property graph holding both out- and
//!   in-adjacency, with optional edge weights.
//! * [`GraphBuilder`] — incremental construction from edge lists, with
//!   de-duplication, self-loop removal and symmetrization.
//! * [`partition`] — edge-cut partitioning schemes assigning each vertex to
//!   exactly one *master* worker (the master/mirror scheme of the paper,
//!   §II "Graph partitions" and §IV-A "Data layout").
//! * [`generators`] — deterministic synthetic graph generators (R-MAT,
//!   Erdős–Rényi, grids, road networks, web graphs, …) used as stand-ins
//!   for the paper's real-world datasets.
//! * [`datasets`] — a registry mapping the paper's Table III datasets to
//!   scaled synthetic counterparts.
//! * [`blocks`] — the out-of-core `.fgb` block format: an mmap-or-buffered
//!   reader serving CSR adjacency zero-copy, plus the M-Flash-style
//!   source×destination block grid the streaming EDGEMAP path charges.
//! * [`bitset`], [`dsu`], [`stats`], [`io`], [`hash`] — supporting utilities
//!   (the paper's `dsu_find`/`dsu_union` built-ins live in [`dsu`]; the one
//!   FNV-1a behind every checksum lives in [`hash`]).
//!
//! ```
//! use flash_graph::prelude::*;
//!
//! // A 5-vertex undirected path: 0 - 1 - 2 - 3 - 4
//! let g = GraphBuilder::new(5)
//!     .edges([(0, 1), (1, 2), (2, 3), (3, 4)])
//!     .symmetric(true)
//!     .build()
//!     .unwrap();
//! assert_eq!(g.num_vertices(), 5);
//! assert_eq!(g.num_edges(), 8); // 4 undirected edges = 8 arcs
//! assert_eq!(g.out_neighbors(1), &[0, 2]);
//! ```

pub mod bitset;
pub mod blocks;
pub mod builder;
pub mod csr;
pub mod datasets;
pub mod dsu;
pub mod error;
pub mod generators;
pub mod graph;
pub mod hash;
pub mod io;
pub mod overlay;
pub mod partition;
pub mod rng;
pub mod stats;
#[doc(hidden)]
pub mod testutil;

pub use bitset::BitSet;
pub use blocks::{
    open_blocks, write_blocks, BlockGrid, BlockHandle, BlockTouch, StreamScope, StreamSnapshot,
    MAX_GRID_DIM,
};
pub use builder::GraphBuilder;
pub use csr::Csr;
pub use datasets::{Dataset, Domain};
pub use dsu::DisjointSets;
pub use error::GraphError;
pub use graph::Graph;
pub use overlay::{AppliedBatch, DeltaOverlay, EdgeUpdate};
pub use partition::{HashPartitioner, PartitionMap, PartitionMove, Partitioner, RebalanceReport};
pub use rng::Prng;

/// The vertex identifier type used throughout FLASH.
///
/// The paper treats vertex ids as natural numbers (`v.id ∈ ℕ`); we use `u32`
/// (per the Rust Performance Book's "smaller integers" guidance) which caps
/// graphs at ~4.29 billion vertices — ample for the simulated scale.
pub type VertexId = u32;

/// Edge weight type for weighted graphs (`G = (V, E, w)` in the paper).
pub type Weight = f32;

/// An invalid/unset vertex id marker (`u32::MAX`); never a valid id because
/// builders reject graphs with `n >= u32::MAX`.
pub const NIL: VertexId = u32::MAX;

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::builder::GraphBuilder;
    pub use crate::datasets::{self, Dataset};
    pub use crate::generators;
    pub use crate::graph::Graph;
    pub use crate::partition::{
        HashPartitioner, PartitionMap, PartitionMove, Partitioner, RebalanceReport,
    };
    pub use crate::{VertexId, Weight, NIL};
}
