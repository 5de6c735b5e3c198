#![warn(missing_docs)]

//! # flash-baselines — the competing engines of the paper's evaluation
//!
//! The paper compares FLASH against four systems; this crate rebuilds the
//! three *programming models* those systems embody, over the same graph
//! substrate, so the evaluation's relative comparisons can be reproduced:
//!
//! * [`pregel`] — a Pregel+/Giraph-style **message-passing** engine:
//!   vertex programs with typed messages, sender-side combiners,
//!   aggregators and vote-to-halt, executed in BSP supersteps over
//!   partitioned workers.
//! * [`gas`] — a PowerGraph-style **Gather-Apply-Scatter** engine:
//!   neighborhood-only data exchange through a commutative+associative
//!   gather, a vertex-local apply, and a scatter that activates neighbors.
//! * [`ligra`] — a Ligra-style **shared-memory** frontier engine:
//!   `vertexSubset` + push/pull `edgeMap` in a single address space
//!   (one "node" — the paper runs Ligra on a single machine).
//!
//! The Pregel-like and GAS-like engines place vertices with FLASH's own
//! default owner map ([`flash_graph::PartitionMap::for_graph`]), so the
//! comparisons are not confounded by placement.
//!
//! Each engine ships its own algorithm implementations (`*::algos`); where
//! a model cannot express an algorithm the paper marks ∅, the function is
//! *absent here too* — that asymmetry **is** the expressiveness result of
//! Table I.

pub mod gas;
pub mod ligra;
pub mod pregel;

/// Execution record shared by all baseline engines.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// BSP supersteps (or rounds) executed.
    pub supersteps: usize,
    /// Messages exchanged across workers (Pregel/GAS only).
    pub messages: u64,
    /// Bytes exchanged across workers (Pregel/GAS only).
    pub bytes: u64,
    /// Simulated parallel runtime: per-superstep maximum worker compute
    /// time plus delivery/barrier time. Meaningful when workers execute
    /// sequentially (each timed in isolation); the scaling and comparison
    /// harnesses use this because real parallel wall time is unobservable
    /// on a single-core host. Zero for the shared-memory Ligra engine.
    pub makespan: std::time::Duration,
}

/// A baseline algorithm's result envelope.
#[derive(Debug)]
pub struct BaselineOutput<T> {
    /// The algorithm's answer.
    pub result: T,
    /// Engine-level execution record.
    pub stats: EngineStats,
}

/// Error raised by baseline engines.
#[derive(Debug, Clone, PartialEq)]
pub enum BaselineError {
    /// The algorithm exceeded its superstep budget.
    NotConverged {
        /// The exhausted budget.
        supersteps: usize,
    },
    /// The graph could not be partitioned over the configured workers.
    Partition(flash_graph::GraphError),
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::NotConverged { supersteps } => {
                write!(f, "did not converge within {supersteps} supersteps")
            }
            BaselineError::Partition(e) => write!(f, "cannot partition the graph: {e}"),
        }
    }
}

impl std::error::Error for BaselineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        assert!(BaselineError::NotConverged { supersteps: 3 }
            .to_string()
            .contains('3'));
    }
}
