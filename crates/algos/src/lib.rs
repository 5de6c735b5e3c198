#![warn(missing_docs)]

//! # flash-algos — the FLASH algorithm catalogue
//!
//! The paper's Table I/IV applications, implemented on the FLASH
//! programming model ([`flash_core`]) and validated against the
//! independent sequential classics in [`mod@reference`]:
//!
//! | Module        | Application                               | Paper |
//! |---------------|-------------------------------------------|-------|
//! | [`bfs`]       | breadth-first search                      | Alg. 2 |
//! | [`cc`]        | connected components (label propagation)  | Alg. 9 |
//! | [`cc_opt`]    | connected components (star contraction)   | Alg. 10 |
//! | [`bc`]        | betweenness centrality (Brandes)          | Alg. 3 |
//! | [`mis`]       | maximal independent set (Luby)            | Alg. 13 |
//! | [`mm`]        | maximal matching                          | Alg. 11 |
//! | [`mm_opt`]    | maximal matching, frontier-pruned         | Alg. 12 |
//! | [`kcore`]     | k-core decomposition (peeling)            | Alg. 16 |
//! | [`kcore_opt`] | k-core decomposition (local convergence)  | Alg. 17 |
//! | [`tc`]        | triangle counting                         | Alg. 14 |
//! | [`gc`]        | greedy graph coloring                     | Alg. 15 |
//! | [`scc`]       | strongly connected components (coloring)  | Alg. 18 |
//! | [`bcc`]       | biconnected components (BFS tree + DSU)   | Alg. 19 |
//! | [`lpa`]       | label propagation (community detection)   | Alg. 20 |
//! | [`msf`]       | minimum spanning forest (dist. Kruskal)   | Alg. 21 |
//! | [`rc`]        | rectangle counting (two-hop joins)        | Alg. 22 |
//! | [`clique`]    | k-clique counting                         | Alg. 23 |
//! | [`sssp`]      | single-source shortest paths              | (ISVP example) |
//! | [`pagerank`]  | PageRank                                  | (ISVP example) |
//! | [`cluster_coeff`] | local clustering coefficients         | (named in §I) |
//! | [`bridges`]   | bridge detection                          | (named in §I) |
//! | [`bipartite`] | bipartiteness / 2-coloring                | (extension) |
//! | [`incremental`] | maintained CC/PageRank for serving        | (serving, §16) |
//!
//! Every module exposes a `run(graph, config, …) -> AlgoOutput<_>` entry
//! point and a `plan()` describing its Table II property-access footprint.

pub mod bc;
pub mod bcc;
pub mod bfs;
pub mod bipartite;
pub mod bridges;
pub mod cc;
pub mod cc_opt;
pub mod clique;
pub mod cluster_coeff;
pub mod common;
pub mod gc;
pub mod incremental;
pub mod kcore;
pub mod kcore_opt;
pub mod lpa;
pub mod mis;
pub mod mm;
pub mod mm_opt;
pub mod msf;
pub mod pagerank;
pub mod rc;
pub mod reference;
pub mod scc;
pub mod sssp;
pub mod tc;

pub use common::AlgoOutput;
