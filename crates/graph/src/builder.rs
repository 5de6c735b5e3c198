//! Incremental graph construction.

use crate::csr::Csr;
use crate::error::GraphError;
use crate::graph::Graph;
use crate::{VertexId, Weight};

/// Builds a [`Graph`] from an edge list with configurable cleanup passes.
///
/// ```
/// use flash_graph::GraphBuilder;
///
/// let g = GraphBuilder::new(4)
///     .edges([(0, 1), (1, 2), (2, 3), (0, 1)]) // duplicate kept by default
///     .dedup(true)                              // ... unless dedup is on
///     .symmetric(true)
///     .build()
///     .unwrap();
/// assert_eq!(g.num_edges(), 6);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(VertexId, VertexId)>,
    weights: Vec<Weight>,
    weighted: bool,
    symmetric: bool,
    dedup: bool,
    drop_self_loops: bool,
}

impl GraphBuilder {
    /// Starts a builder for a graph with `n` vertices (ids `0..n`).
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
            weights: Vec::new(),
            weighted: false,
            symmetric: false,
            dedup: false,
            drop_self_loops: false,
        }
    }

    /// Appends one unweighted edge.
    pub fn edge(mut self, s: VertexId, d: VertexId) -> Self {
        self.edges.push((s, d));
        if self.weighted {
            self.weights.push(1.0);
        }
        self
    }

    /// Appends one weighted edge, switching the builder to weighted mode.
    pub fn weighted_edge(mut self, s: VertexId, d: VertexId, w: Weight) -> Self {
        if !self.weighted {
            // Backfill unit weights for edges added before weights appeared.
            self.weights = vec![1.0; self.edges.len()];
            self.weighted = true;
        }
        self.edges.push((s, d));
        self.weights.push(w);
        self
    }

    /// Appends many unweighted edges.
    pub fn edges<I: IntoIterator<Item = (VertexId, VertexId)>>(mut self, it: I) -> Self {
        for (s, d) in it {
            self.edges.push((s, d));
            if self.weighted {
                self.weights.push(1.0);
            }
        }
        self
    }

    /// Appends many weighted edges.
    pub fn weighted_edges<I: IntoIterator<Item = (VertexId, VertexId, Weight)>>(
        mut self,
        it: I,
    ) -> Self {
        for (s, d, w) in it {
            self = self.weighted_edge(s, d, w);
        }
        self
    }

    /// When `true`, the reverse of every edge is added so the graph is
    /// undirected-equivalent (self-reverses are not duplicated).
    pub fn symmetric(mut self, on: bool) -> Self {
        self.symmetric = on;
        self
    }

    /// When `true`, parallel edges are collapsed (keeping the smallest
    /// weight, which is what MSF-style algorithms want).
    pub fn dedup(mut self, on: bool) -> Self {
        self.dedup = on;
        self
    }

    /// When `true`, self-loops are removed.
    pub fn drop_self_loops(mut self, on: bool) -> Self {
        self.drop_self_loops = on;
        self
    }

    /// Validates and assembles the [`Graph`].
    pub fn build(self) -> Result<Graph, GraphError> {
        let GraphBuilder {
            n,
            mut edges,
            mut weights,
            weighted,
            symmetric,
            dedup,
            drop_self_loops,
        } = self;

        if n >= u32::MAX as usize {
            return Err(GraphError::TooManyVertices(n));
        }
        for &(s, d) in &edges {
            if s as usize >= n {
                return Err(GraphError::VertexOutOfRange { id: s as u64, n });
            }
            if d as usize >= n {
                return Err(GraphError::VertexOutOfRange { id: d as u64, n });
            }
        }
        if weighted && weights.len() != edges.len() {
            return Err(GraphError::WeightMismatch {
                edges: edges.len(),
                weights: weights.len(),
            });
        }

        if drop_self_loops {
            if weighted {
                let mut kept_w = Vec::with_capacity(weights.len());
                let mut kept_e = Vec::with_capacity(edges.len());
                for (i, &(s, d)) in edges.iter().enumerate() {
                    if s != d {
                        kept_e.push((s, d));
                        kept_w.push(weights[i]);
                    }
                }
                edges = kept_e;
                weights = kept_w;
            } else {
                edges.retain(|&(s, d)| s != d);
            }
        }

        if symmetric {
            let m = edges.len();
            for i in 0..m {
                let (s, d) = edges[i];
                if s != d {
                    edges.push((d, s));
                    if weighted {
                        weights.push(weights[i]);
                    }
                }
            }
        }

        if dedup {
            let mut order: Vec<usize> = (0..edges.len()).collect();
            if weighted {
                order.sort_unstable_by(|&a, &b| {
                    edges[a]
                        .cmp(&edges[b])
                        .then(weights[a].total_cmp(&weights[b]))
                });
            } else {
                order.sort_unstable_by_key(|&i| edges[i]);
            }
            let mut new_edges = Vec::with_capacity(edges.len());
            let mut new_weights = Vec::with_capacity(weights.len());
            let mut last: Option<(VertexId, VertexId)> = None;
            for i in order {
                if last == Some(edges[i]) {
                    continue;
                }
                last = Some(edges[i]);
                new_edges.push(edges[i]);
                if weighted {
                    new_weights.push(weights[i]);
                }
            }
            edges = new_edges;
            weights = new_weights;
        }

        let w_ref = weighted.then_some(weights.as_slice());
        let out = Csr::from_edges(n, &edges, w_ref);
        // Reversing (s, d) to (d, s) does not reorder the edge list, so the
        // same weight slice parallels the reversed edges exactly.
        let rev: Vec<(VertexId, VertexId)> = edges.iter().map(|&(s, d)| (d, s)).collect();
        let inn = Csr::from_edges(n, &rev, w_ref);
        Ok(Graph::from_parts(n, out, inn, symmetric))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_out_of_range() {
        let err = GraphBuilder::new(2).edge(0, 5).build().unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfRange { id: 5, n: 2 }));
    }

    #[test]
    fn symmetrize_skips_self_loops() {
        let g = GraphBuilder::new(2)
            .edges([(0, 0), (0, 1)])
            .symmetric(true)
            .build()
            .unwrap();
        // (0,0) once, (0,1) + (1,0)
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn drop_self_loops_works() {
        let g = GraphBuilder::new(3)
            .edges([(0, 0), (1, 1), (0, 1)])
            .drop_self_loops(true)
            .build()
            .unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn dedup_keeps_min_weight() {
        let g = GraphBuilder::new(2)
            .weighted_edge(0, 1, 5.0)
            .weighted_edge(0, 1, 2.0)
            .dedup(true)
            .build()
            .unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.out_weights(0).unwrap(), &[2.0]);
    }

    #[test]
    fn mixed_weighted_backfills_units() {
        let g = GraphBuilder::new(3)
            .edge(0, 1)
            .weighted_edge(1, 2, 3.0)
            .build()
            .unwrap();
        assert!(g.is_weighted());
        assert_eq!(g.out_weights(0).unwrap(), &[1.0]);
        assert_eq!(g.out_weights(1).unwrap(), &[3.0]);
    }

    #[test]
    fn in_weights_align_with_in_neighbors() {
        let g = GraphBuilder::new(3)
            .weighted_edges([(0, 2, 7.0), (1, 2, 8.0)])
            .build()
            .unwrap();
        assert_eq!(g.in_neighbors(2), &[0, 1]);
        assert_eq!(g.in_weights(2).unwrap(), &[7.0, 8.0]);
    }

    #[test]
    fn empty_graph_builds() {
        let g = GraphBuilder::new(0).build().unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}
