//! Edge-cut graph partitioning with master/mirror bookkeeping.
//!
//! Per the paper (§II "Graph partitions", §IV-A "Data layout"), an
//! `m`-worker cluster partitions `G = (V, E)` so that every vertex is owned
//! by exactly one worker (its *master*); other workers that touch the vertex
//! through local edges hold *mirrors*. [`PartitionMap`] captures the
//! ownership function plus the mirror placement needed for the
//! "communicate with only necessary mirrors" optimization (§IV-C).
//! [`PartitionMap::for_graph`] is the default map: contiguous arc-balanced
//! id ranges when the ids carry locality, hashing otherwise.
//!
//! # Elastic membership
//!
//! The paper's MPI deployment aborts when a worker is lost for good. The
//! simulated cluster instead supports *elastic membership*: the `m` logical
//! partitions built here are fixed for the life of a run, but each is
//! **hosted** by a physical host (initially host `w` hosts partition `w`).
//! When a host is declared dead, [`PartitionMap::rebalance`] re-homes its
//! partitions onto the least-loaded survivors and bumps a monotonically
//! increasing membership *epoch*; [`PartitionMap::rejoin`] lets a host come
//! back and reclaim its home partition. Keeping the logical partitions (and
//! therefore ownership, combiner groupings and reduce orderings) fixed is
//! what makes post-failure results bit-identical to a clean run — only the
//! host routing, and with it the charged network traffic, changes.

use crate::error::GraphError;
use crate::graph::Graph;
use crate::VertexId;

/// A vertex-ownership scheme: maps each vertex to its master worker.
pub trait Partitioner {
    /// The worker that owns vertex `v` in an `m`-worker cluster.
    fn owner(&self, v: VertexId, n: usize, m: usize) -> usize;

    /// Human-readable scheme name (used in reports).
    fn name(&self) -> &'static str;
}

/// Hash partitioning: `owner(v) = mix(v) % m`.
///
/// A multiplicative mix spreads consecutive ids over every worker, so it
/// balances any id order but keeps none of its locality.
/// [`PartitionMap::for_graph`] falls back to it whenever contiguous id
/// ranges would not cut markedly fewer arcs.
#[derive(Clone, Copy, Debug, Default)]
pub struct HashPartitioner;

impl Partitioner for HashPartitioner {
    #[inline]
    fn owner(&self, v: VertexId, _n: usize, m: usize) -> usize {
        // Fibonacci hashing — cheap and well-spread for sequential ids.
        let mixed = (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        (mixed % m as u64) as usize
    }

    fn name(&self) -> &'static str {
        "hash"
    }
}

/// Gemini's α (Zhu et al., OSDI 2016): a range is balanced on
/// `VERTEX_WEIGHT · |V_w| + in-arcs`, so a vertex weighs as much as eight
/// of the arcs the dense pull reads.
const VERTEX_WEIGHT: usize = 8;

/// At most this many rows, at a fixed stride, estimate the arcs the range
/// map would cut.
const SAMPLE_ROWS: usize = 4096;

/// The materialized result of partitioning a graph for `m` workers.
///
/// Holds, per worker: the list of owned (master) vertices, and per vertex:
/// the owner and the set of workers holding a *necessary* mirror (workers
/// with at least one edge incident to the vertex, §IV-C).
#[derive(Clone, Debug)]
pub struct PartitionMap {
    m: usize,
    owner: Vec<u16>,
    masters: Vec<Vec<VertexId>>,
    /// The mirror table in CSR form: `mirror_ids[mirror_off[v]..mirror_off[v + 1]]`
    /// = ascending worker ids (excluding the owner) that hold a necessary
    /// mirror of `v`. Two flat arrays, so building and dropping the map
    /// costs no per-vertex allocation.
    mirror_off: Vec<u32>,
    mirror_ids: Vec<u16>,
    scheme: &'static str,
    /// Membership epoch: bumped by every [`rebalance`](Self::rebalance) or
    /// [`rejoin`](Self::rejoin). Epoch 0 is the initial identity hosting.
    epoch: u64,
    /// `host[w]` = physical host currently hosting logical partition `w`.
    host: Vec<u16>,
    /// `dead[h]` = physical host `h` has been declared permanently lost.
    dead: Vec<bool>,
}

/// One logical partition re-homed by a membership change.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionMove {
    /// The logical partition (worker id) that moved.
    pub worker: usize,
    /// The host it was evacuated from.
    pub from: usize,
    /// The host it now lives on.
    pub to: usize,
}

/// The outcome of one membership epoch change ([`PartitionMap::rebalance`]
/// or [`PartitionMap::rejoin`]): the new epoch and the partitions moved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RebalanceReport {
    /// The epoch the map is now at.
    pub epoch: u64,
    /// Every partition re-homed by this change, ascending by worker id.
    pub moved: Vec<PartitionMove>,
}

/// A cluster has between 1 and `u16::MAX` workers: owners are `u16`.
fn check_workers(m: usize) -> Result<(), GraphError> {
    if m == 0 || m > u16::MAX as usize {
        return Err(GraphError::WorkerCount(m));
    }
    Ok(())
}

impl PartitionMap {
    /// The default owner map for `graph` on `m` workers, a pure function
    /// of the two. It is `m` contiguous id ranges, each balancing
    /// `8 · |V_w| + in-arcs` (Gemini's α = 8), when a sample of the rows
    /// shows they cut at most half the arcs hashing is expected to cut,
    /// `(m − 1)/m` of them, and exactly the [`HashPartitioner`] map
    /// otherwise. Ids with locality (a row-major road grid) take ranges;
    /// ids without it (R-MAT, a relabelled graph) keep hashing's balance.
    pub fn for_graph(graph: &Graph, m: usize) -> Result<PartitionMap, GraphError> {
        check_workers(m)?;
        if m > 1 {
            let bounds = Self::range_bounds(graph, m);
            if Self::ranges_cut_less(graph, &bounds) {
                let mut owner = vec![0u16; graph.num_vertices()];
                for (w, range) in bounds.windows(2).enumerate() {
                    owner[range[0] as usize..range[1] as usize].fill(w as u16);
                }
                return Self::from_owner(graph, m, owner, "range");
            }
        }
        Self::build(graph, m, &HashPartitioner)
    }

    /// Partitions `graph` across `m` workers using `scheme`.
    pub fn build(
        graph: &Graph,
        m: usize,
        scheme: &dyn Partitioner,
    ) -> Result<PartitionMap, GraphError> {
        check_workers(m)?;
        let n = graph.num_vertices();
        let owner = (0..n as VertexId)
            .map(|v| {
                let w = scheme.owner(v, n, m);
                debug_assert!(w < m, "partitioner returned worker {w} >= {m}");
                w as u16
            })
            .collect();
        Self::from_owner(graph, m, owner, scheme.name())
    }

    /// `m + 1` ascending ids: worker `w` owns `bounds[w]..bounds[w + 1]`.
    /// Each inner bound is the id whose prefix weight
    /// `VERTEX_WEIGHT · v + in_offsets[v]` lies nearest `k/m` of the total,
    /// found by binary search on the in-CSR offsets — O(m log n), touching
    /// no row — so each range is within one vertex's weight of the mean.
    fn range_bounds(graph: &Graph, m: usize) -> Vec<VertexId> {
        let n = graph.num_vertices();
        let offsets = graph.in_csr().offsets();
        let prefix = |v: usize| VERTEX_WEIGHT * v + offsets[v];
        let total = prefix(n);
        let mut bounds = Vec::with_capacity(m + 1);
        bounds.push(0);
        for k in 1..m {
            // Scaled by m to stay in integers: the first v with
            // m · prefix(v) ≥ k · total, or its predecessor if nearer.
            let target = k * total;
            let (mut lo, mut hi) = (0, n);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if m * prefix(mid) < target {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            if lo > 0 && target - m * prefix(lo - 1) < m * prefix(lo) - target {
                lo -= 1;
            }
            bounds.push(lo as VertexId);
        }
        bounds.push(n as VertexId);
        bounds
    }

    /// `true` if the sampled arcs that `bounds` cut are at most half of
    /// the `(m − 1)/m` share hashing is expected to cut. The sample is the
    /// out-rows at stride `ceil(n / SAMPLE_ROWS)`: the rows the mirror
    /// pass walks anyway, so a block-backed graph maps no extra page.
    fn ranges_cut_less(graph: &Graph, bounds: &[VertexId]) -> bool {
        let m = bounds.len() - 1;
        let n = graph.num_vertices();
        let (mut sampled, mut cut) = (0usize, 0usize);
        for s in (0..n as VertexId).step_by(n.div_ceil(SAMPLE_ROWS).max(1)) {
            let w = bounds.partition_point(|&b| b <= s) - 1;
            let range = bounds[w]..bounds[w + 1];
            let targets = graph.out_neighbors(s);
            sampled += targets.len();
            cut += targets.iter().filter(|&d| !range.contains(d)).count();
        }
        sampled > 0 && 2 * m * cut <= (m - 1) * sampled
    }

    /// The map with owner array `owner`: the master lists and the mirror
    /// table follow from it.
    fn from_owner(
        graph: &Graph,
        m: usize,
        owner: Vec<u16>,
        scheme: &'static str,
    ) -> Result<PartitionMap, GraphError> {
        let n = owner.len();
        let mut masters: Vec<Vec<VertexId>> = vec![Vec::new(); m];
        for (v, &w) in owner.iter().enumerate() {
            masters[w as usize].push(v as VertexId);
        }

        // A worker holds a necessary mirror of v if it has an edge touching v
        // but does not own v: across a cut edge s -> d the source's worker
        // touches d (push destination) and the target's worker touches s
        // (pull source).
        let (mirror_off, mirror_ids) = if m == 1 {
            Some((vec![0; n + 1], Vec::new()))
        } else if m <= 64 {
            Self::mirrors_by_mask(graph, &owner)
        } else {
            Self::mirrors_by_sort(graph, &owner)
        }
        .ok_or(GraphError::TooManyMirrors)?;

        Ok(PartitionMap {
            m,
            owner,
            masters,
            mirror_off,
            mirror_ids,
            scheme,
            epoch: 0,
            host: (0..m as u16).collect(),
            dead: vec![false; m],
        })
    }

    /// The mirror table for `m <= 64`: one worker bit mask per vertex.
    /// Uncut edges need no test — they only ever set the owner's own bit,
    /// which is cleared when the masks are flattened. `None` if the table
    /// outgrows its `u32` offsets.
    fn mirrors_by_mask(graph: &Graph, owner: &[u16]) -> Option<(Vec<u32>, Vec<u16>)> {
        let n = owner.len();
        let mut touched = vec![0u64; n];
        for s in 0..n {
            let source_bit = 1u64 << owner[s];
            let mut target_workers = 0u64;
            for &d in graph.out_neighbors(s as VertexId) {
                touched[d as usize] |= source_bit;
                target_workers |= 1u64 << owner[d as usize];
            }
            touched[s] |= target_workers;
        }
        let mut off = Vec::with_capacity(n + 1);
        let mut total = 0u32;
        off.push(total);
        for (mask, &w) in touched.iter_mut().zip(owner) {
            *mask &= !(1u64 << w);
            total = total.checked_add(mask.count_ones())?;
            off.push(total);
        }
        let mut ids = Vec::with_capacity(total as usize);
        for mut mask in touched {
            while mask != 0 {
                ids.push(mask.trailing_zeros() as u16);
                mask &= mask - 1;
            }
        }
        Some((off, ids))
    }

    /// The mirror table for `m > 64`, where a machine word no longer holds
    /// a worker set: the `(vertex, worker)` pairs of every cut edge, sorted
    /// and deduplicated, already are the table's rows in order.
    fn mirrors_by_sort(graph: &Graph, owner: &[u16]) -> Option<(Vec<u32>, Vec<u16>)> {
        let mut pairs: Vec<(VertexId, u16)> = Vec::new();
        for (s, d, _) in graph.edges() {
            let (ws, wd) = (owner[s as usize], owner[d as usize]);
            if ws != wd {
                pairs.push((d, ws));
                pairs.push((s, wd));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        u32::try_from(pairs.len()).ok()?;
        let mut off = vec![0u32; owner.len() + 1];
        for &(v, _) in &pairs {
            off[v as usize + 1] += 1;
        }
        for v in 0..owner.len() {
            off[v + 1] += off[v];
        }
        Some((off, pairs.into_iter().map(|(_, w)| w).collect()))
    }

    /// Number of workers `m`.
    #[inline]
    pub fn num_workers(&self) -> usize {
        self.m
    }

    /// Number of vertices in the partitioned graph.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.owner.len()
    }

    /// The master worker of `v`.
    #[inline]
    pub fn owner(&self, v: VertexId) -> usize {
        self.owner[v as usize] as usize
    }

    /// `true` if worker `w` is the master of `v`.
    #[inline]
    pub fn is_master(&self, w: usize, v: VertexId) -> bool {
        self.owner[v as usize] as usize == w
    }

    /// The vertices mastered by worker `w`, ascending.
    #[inline]
    pub fn masters(&self, w: usize) -> &[VertexId] {
        &self.masters[w]
    }

    /// Workers (excluding the owner) holding a necessary mirror of `v` —
    /// the recipients under the "necessary mirrors only" sync policy.
    #[inline]
    pub fn necessary_mirrors(&self, v: VertexId) -> &[u16] {
        let v = v as usize;
        &self.mirror_ids[self.mirror_off[v] as usize..self.mirror_off[v + 1] as usize]
    }

    /// Total number of necessary mirror replicas across all vertices
    /// (the replication factor numerator).
    pub fn total_mirrors(&self) -> usize {
        self.mirror_ids.len()
    }

    /// Average replicas per vertex, counting the master (>= 1.0).
    pub fn replication_factor(&self) -> f64 {
        if self.owner.is_empty() {
            return 1.0;
        }
        1.0 + self.total_mirrors() as f64 / self.owner.len() as f64
    }

    /// The partitioning scheme name: `"hash"` or `"range"` for a
    /// [`for_graph`](Self::for_graph) map.
    pub fn scheme(&self) -> &'static str {
        self.scheme
    }

    // ---- elastic membership ------------------------------------------------

    /// Current membership epoch (0 until the first rebalance/rejoin).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The physical host currently hosting logical partition `w`.
    #[inline]
    pub fn host_of_worker(&self, w: usize) -> usize {
        self.host[w] as usize
    }

    /// The physical host currently hosting the master of vertex `v`.
    #[inline]
    pub fn host_of(&self, v: VertexId) -> usize {
        self.host[self.owner[v as usize] as usize] as usize
    }

    /// `true` unless host `h` has been declared permanently lost.
    #[inline]
    pub fn is_host_live(&self, h: usize) -> bool {
        !self.dead[h]
    }

    /// Number of hosts not declared dead.
    pub fn num_live_hosts(&self) -> usize {
        self.dead.iter().filter(|&&d| !d).count()
    }

    /// Host ids not declared dead, ascending.
    pub fn live_hosts(&self) -> Vec<usize> {
        (0..self.m).filter(|&h| !self.dead[h]).collect()
    }

    /// Distinct physical hosts (excluding the owner's host) that must
    /// receive a sync of `v` under the "necessary mirrors" policy, collected
    /// into `buf`. Returns the count. With the identity hosting of epoch 0
    /// this equals `necessary_mirrors(v).len()`; after a rebalance,
    /// co-hosted mirrors collapse into one message.
    pub fn necessary_mirror_hosts(&self, v: VertexId, buf: &mut Vec<u16>) -> usize {
        buf.clear();
        let owner_host = self.host[self.owner[v as usize] as usize];
        for &w in self.necessary_mirrors(v) {
            let h = self.host[w as usize];
            if h != owner_host && !buf.contains(&h) {
                buf.push(h);
            }
        }
        buf.len()
    }

    /// Declares the hosts in `dead` permanently lost and re-homes every
    /// logical partition they hosted onto the live host with the fewest
    /// owned vertices (ties broken by the lower host id) — a deterministic
    /// greedy balance. Bumps the membership epoch and reports the moves.
    ///
    /// Fails without modifying the map if a host id is out of range, a host
    /// is already dead, the dead-set has duplicates, or the change would
    /// leave no live hosts.
    pub fn rebalance(&mut self, dead: &[usize]) -> Result<RebalanceReport, GraphError> {
        for (i, &h) in dead.iter().enumerate() {
            if h >= self.m {
                return Err(GraphError::Membership(format!(
                    "host {h} is out of range for {} hosts",
                    self.m
                )));
            }
            if self.dead[h] {
                return Err(GraphError::Membership(format!("host {h} is already dead")));
            }
            if dead[..i].contains(&h) {
                return Err(GraphError::Membership(format!(
                    "host {h} appears twice in the dead-set"
                )));
            }
        }
        if self.num_live_hosts() <= dead.len() {
            return Err(GraphError::Membership(
                "a membership change must leave at least one live host".into(),
            ));
        }
        for &h in dead {
            self.dead[h] = true;
        }
        // Load = owned vertices per live host under the current hosting.
        let mut load = vec![0usize; self.m];
        for w in 0..self.m {
            load[self.host[w] as usize] += self.masters[w].len();
        }
        let mut moved = Vec::new();
        for w in 0..self.m {
            let from = self.host[w] as usize;
            if !self.dead[from] {
                continue;
            }
            let to = (0..self.m)
                .filter(|&h| !self.dead[h])
                .min_by_key(|&h| (load[h], h))
                .expect("at least one live host");
            debug_assert!(to <= u16::MAX as usize, "host id {to} overflows u16");
            self.host[w] = to as u16;
            load[to] += self.masters[w].len();
            moved.push(PartitionMove {
                worker: w,
                from,
                to,
            });
        }
        self.epoch += 1;
        Ok(RebalanceReport {
            epoch: self.epoch,
            moved,
        })
    }

    /// Brings a previously dead host back and re-homes its *home* partition
    /// (logical partition `host`) onto it. Partitions the host had adopted
    /// from earlier deaths stay where the intervening rebalances put them.
    /// Bumps the membership epoch and reports the move.
    pub fn rejoin(&mut self, host: usize) -> Result<RebalanceReport, GraphError> {
        if host >= self.m {
            return Err(GraphError::Membership(format!(
                "host {host} is out of range for {} hosts",
                self.m
            )));
        }
        if !self.dead[host] {
            return Err(GraphError::Membership(format!(
                "host {host} is live and cannot rejoin"
            )));
        }
        self.dead[host] = false;
        let from = self.host[host] as usize;
        debug_assert!(host <= u16::MAX as usize, "host id {host} overflows u16");
        self.host[host] = host as u16;
        self.epoch += 1;
        Ok(RebalanceReport {
            epoch: self.epoch,
            moved: vec![PartitionMove {
                worker: host,
                from,
                to: host,
            }],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn path(n: usize) -> Graph {
        GraphBuilder::new(n)
            .edges((0..n as u32 - 1).map(|i| (i, i + 1)))
            .symmetric(true)
            .build()
            .unwrap()
    }

    #[test]
    fn rejects_zero_workers() {
        let g = path(4);
        assert!(matches!(
            PartitionMap::build(&g, 0, &HashPartitioner),
            Err(GraphError::WorkerCount(0))
        ));
    }

    #[test]
    fn masters_partition_v_exactly() {
        let g = path(100);
        for m in [1usize, 2, 3, 7] {
            let p = PartitionMap::build(&g, m, &HashPartitioner).unwrap();
            let mut seen = [false; 100];
            for w in 0..m {
                for &v in p.masters(w) {
                    assert_eq!(p.owner(v), w);
                    assert!(!seen[v as usize], "vertex owned twice");
                    seen[v as usize] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "vertex unowned");
        }
    }

    #[test]
    fn default_map_cuts_a_path_into_contiguous_ranges() {
        let g = path(10);
        let p = PartitionMap::for_graph(&g, 3).unwrap();
        assert_eq!(p.scheme(), "range");
        assert_eq!(p.masters(0), &[0, 1, 2]);
        assert_eq!(p.masters(1), &[3, 4, 5, 6]);
        assert_eq!(p.masters(2), &[7, 8, 9]);
    }

    #[test]
    fn single_worker_has_no_mirrors() {
        let g = path(10);
        let p = PartitionMap::build(&g, 1, &HashPartitioner).unwrap();
        assert_eq!(p.total_mirrors(), 0);
        assert_eq!(p.replication_factor(), 1.0);
    }

    #[test]
    fn necessary_mirrors_cover_cut_edges() {
        let g = path(10);
        let p = PartitionMap::for_graph(&g, 2).unwrap();
        // Cut edges: (4,5) and (5,4). Worker 1 must mirror 4, worker 0 must mirror 5.
        assert_eq!(p.necessary_mirrors(4), &[1]);
        assert_eq!(p.necessary_mirrors(5), &[0]);
        // Interior vertices have no mirrors.
        assert!(p.necessary_mirrors(0).is_empty());
        assert!(p.necessary_mirrors(9).is_empty());
    }

    #[test]
    fn mirror_never_includes_owner() {
        let g = path(64);
        let p = PartitionMap::build(&g, 5, &HashPartitioner).unwrap();
        for v in 0..64u32 {
            for &w in p.necessary_mirrors(v) {
                assert_ne!(w as usize, p.owner(v));
            }
        }
    }

    #[test]
    fn replication_grows_with_workers() {
        let g = path(200);
        let p2 = PartitionMap::build(&g, 2, &HashPartitioner).unwrap();
        let p8 = PartitionMap::build(&g, 8, &HashPartitioner).unwrap();
        assert!(p8.replication_factor() >= p2.replication_factor());
    }

    #[test]
    fn rebalance_rehomes_dead_hosts_partitions_deterministically() {
        let g = path(100);
        let mut p = PartitionMap::build(&g, 4, &HashPartitioner).unwrap();
        assert_eq!(p.epoch(), 0);
        for w in 0..4 {
            assert_eq!(p.host_of_worker(w), w);
        }
        let report = p.rebalance(&[1]).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(p.epoch(), 1);
        assert_eq!(report.moved.len(), 1);
        assert_eq!(report.moved[0].worker, 1);
        assert_eq!(report.moved[0].from, 1);
        let adopter = report.moved[0].to;
        assert!(adopter != 1 && adopter < 4);
        assert_eq!(p.host_of_worker(1), adopter);
        assert!(!p.is_host_live(1));
        assert_eq!(p.num_live_hosts(), 3);
        assert_eq!(p.live_hosts(), vec![0, 2, 3]);
        // Ownership is untouched — only the hosting changed.
        for v in 0..100u32 {
            assert!(p.owner(v) < 4);
            assert!(p.is_host_live(p.host_of(v)));
        }
        // Deterministic: an identical map rebalanced the same way agrees.
        let mut q = PartitionMap::build(&g, 4, &HashPartitioner).unwrap();
        let r2 = q.rebalance(&[1]).unwrap();
        assert_eq!(report, r2);
    }

    #[test]
    fn rejoin_restores_the_home_partition() {
        let g = path(100);
        let mut p = PartitionMap::build(&g, 4, &HashPartitioner).unwrap();
        let dead = p.rebalance(&[2]).unwrap();
        let back = p.rejoin(2).unwrap();
        assert_eq!(back.epoch, 2);
        assert_eq!(
            back.moved,
            vec![PartitionMove {
                worker: 2,
                from: dead.moved[0].to,
                to: 2
            }]
        );
        assert!(p.is_host_live(2));
        assert_eq!(p.num_live_hosts(), 4);
        assert_eq!(p.host_of_worker(2), 2);
    }

    #[test]
    fn membership_changes_validate_their_inputs() {
        let g = path(20);
        let mut p = PartitionMap::build(&g, 3, &HashPartitioner).unwrap();
        assert!(matches!(p.rebalance(&[7]), Err(GraphError::Membership(_))));
        assert!(matches!(
            p.rebalance(&[1, 1]),
            Err(GraphError::Membership(_))
        ));
        assert!(matches!(
            p.rebalance(&[0, 1, 2]),
            Err(GraphError::Membership(_))
        ));
        assert!(matches!(p.rejoin(0), Err(GraphError::Membership(_))));
        assert!(matches!(p.rejoin(9), Err(GraphError::Membership(_))));
        // Failed changes leave the map untouched.
        assert_eq!(p.epoch(), 0);
        p.rebalance(&[1]).unwrap();
        assert!(matches!(p.rebalance(&[1]), Err(GraphError::Membership(_))));
        assert_eq!(p.epoch(), 1);
    }

    #[test]
    fn mirror_hosts_collapse_after_a_rebalance() {
        let g = path(64);
        let mut p = PartitionMap::build(&g, 4, &HashPartitioner).unwrap();
        let mut buf = Vec::new();
        // Identity hosting: host count equals worker count for every vertex.
        for v in 0..64u32 {
            let n = p.necessary_mirror_hosts(v, &mut buf);
            assert_eq!(n, p.necessary_mirrors(v).len());
        }
        p.rebalance(&[1]).unwrap();
        for v in 0..64u32 {
            let n = p.necessary_mirror_hosts(v, &mut buf);
            // Never more hosts than mirror workers, all live, owner excluded,
            // no duplicates.
            assert!(n <= p.necessary_mirrors(v).len());
            let owner_host = p.host_of(v) as u16;
            for (i, &h) in buf.iter().enumerate() {
                assert!(p.is_host_live(h as usize));
                assert_ne!(h, owner_host);
                assert!(!buf[..i].contains(&h));
            }
        }
    }

    #[test]
    fn successive_epochs_keep_loads_on_live_hosts() {
        let g = path(200);
        let mut p = PartitionMap::build(&g, 6, &HashPartitioner).unwrap();
        p.rebalance(&[0, 3]).unwrap();
        p.rebalance(&[5]).unwrap();
        assert_eq!(p.epoch(), 2);
        assert_eq!(p.num_live_hosts(), 3);
        for w in 0..6 {
            assert!(p.is_host_live(p.host_of_worker(w)));
        }
    }

    /// The mirror table recomputed the slow, obvious way: one ordered set
    /// per vertex, filled straight from the edge list.
    fn brute_force_mirrors(g: &Graph, p: &PartitionMap) -> Vec<Vec<u16>> {
        let mut sets = vec![std::collections::BTreeSet::new(); g.num_vertices()];
        for (s, d, _) in g.edges() {
            let (ws, wd) = (p.owner(s) as u16, p.owner(d) as u16);
            if ws != wd {
                sets[d as usize].insert(ws);
                sets[s as usize].insert(wd);
            }
        }
        sets.into_iter()
            .map(|set| set.into_iter().collect())
            .collect()
    }

    #[test]
    fn flat_mirror_table_equals_brute_force() {
        let empty = GraphBuilder::new(0).build().unwrap();
        let edgeless = GraphBuilder::new(5).build().unwrap();
        // Asymmetric: 0 fans out, 6 only receives, 7 is isolated.
        let directed = GraphBuilder::new(8)
            .edges([
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 4),
                (2, 4),
                (4, 5),
                (5, 0),
                (3, 6),
            ])
            .build()
            .unwrap();
        let rmat = crate::generators::rmat(10, 8, Default::default(), 3);
        for g in [&empty, &edgeless, &directed, &rmat] {
            // 64 is the widest cluster a mask covers; 65 takes the sorted
            // pair path.
            for (m, default) in [1usize, 2, 3, 64, 65]
                .into_iter()
                .flat_map(|m| [(m, false), (m, true)])
            {
                let p = if default {
                    PartitionMap::for_graph(g, m).unwrap()
                } else {
                    PartitionMap::build(g, m, &HashPartitioner).unwrap()
                };
                let expected = brute_force_mirrors(g, &p);
                let mut buf = Vec::new();
                for v in 0..g.num_vertices() as VertexId {
                    let want = &expected[v as usize];
                    assert_eq!(p.necessary_mirrors(v), want.as_slice(), "m={m} v={v}");
                    assert_eq!(p.necessary_mirror_hosts(v, &mut buf), want.len());
                }
                let total: usize = expected.iter().map(Vec::len).sum();
                assert_eq!(p.total_mirrors(), total, "m={m}");
            }
        }
    }

    /// Pinned to the bit: a table that gained or lost a single mirror on
    /// any of these fixtures would move its replication factor.
    #[test]
    fn replication_factor_is_pinned_on_the_fixtures() {
        let cases: [(Graph, usize, u64); 4] = [
            (path(10), 2, 0x3ffe_6666_6666_6666),
            (path(200), 8, 0x4007_eb85_1eb8_51ec),
            (path(300), 80, 0x4007_f258_bf25_8bf2),
            (
                crate::generators::rmat(10, 8, Default::default(), 3),
                4,
                0x4005_2400_0000_0000,
            ),
        ];
        for (g, m, bits) in cases {
            let p = PartitionMap::build(&g, m, &HashPartitioner).unwrap();
            assert_eq!(
                p.replication_factor().to_bits(),
                bits,
                "n={} m={m}: {:#018x}",
                g.num_vertices(),
                p.replication_factor().to_bits()
            );
        }
    }

    #[test]
    fn wide_cluster_over_64_workers() {
        let g = path(300);
        let p = PartitionMap::build(&g, 80, &HashPartitioner).unwrap();
        let mut total = 0;
        for w in 0..80 {
            total += p.masters(w).len();
        }
        assert_eq!(total, 300);
        for v in 0..300u32 {
            for &w in p.necessary_mirrors(v) {
                assert_ne!(w as usize, p.owner(v));
                assert!((w as usize) < 80);
            }
        }
    }

    /// A copy of `g` with vertex `v` renamed `perm[v]`, for a shuffled `perm`.
    fn relabelled(g: &Graph, seed: u64) -> Graph {
        let n = g.num_vertices();
        let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
        let mut rng = crate::Prng::seed_from_u64(seed);
        for i in (1..n).rev() {
            perm.swap(i, rng.gen_range(0..i + 1));
        }
        GraphBuilder::new(n)
            .edges(
                g.edges()
                    .map(|(s, d, _)| (perm[s as usize], perm[d as usize])),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn local_ids_choose_ranges() {
        let cases = [
            ("road_network", crate::generators::road_network(1000, 16, 3)),
            ("grid2d", crate::generators::grid2d(1000, 8)),
            ("path", path(1000)),
        ];
        for (name, g) in &cases {
            for m in [2usize, 4] {
                let p = PartitionMap::for_graph(g, m).unwrap();
                assert_eq!(p.scheme(), "range", "{name} m={m}");
                assert!(
                    p.replication_factor() <= 1.01,
                    "{name} m={m}: replication {}",
                    p.replication_factor()
                );
                let hashed = PartitionMap::build(g, m, &HashPartitioner).unwrap();
                assert!(hashed.replication_factor() > 1.5, "{name} m={m}");
            }
        }
    }

    #[test]
    fn ids_without_locality_keep_the_hash_map() {
        let rmat = crate::generators::rmat(12, 8, Default::default(), 5);
        let shuffled = relabelled(&rmat, 9);
        for (name, g) in [("rmat", &rmat), ("relabelled rmat", &shuffled)] {
            for m in [2usize, 3, 4, 8] {
                let p = PartitionMap::for_graph(g, m).unwrap();
                let hashed = PartitionMap::build(g, m, &HashPartitioner).unwrap();
                assert_eq!(p.scheme(), "hash", "{name} m={m}");
                assert_eq!(p.owner, hashed.owner, "{name} m={m}");
                assert_eq!(p.mirror_ids, hashed.mirror_ids, "{name} m={m}");
            }
        }
    }

    #[test]
    fn default_map_edge_cases() {
        assert!(matches!(
            PartitionMap::for_graph(&path(4), 0),
            Err(GraphError::WorkerCount(0))
        ));
        // One worker owns everything, whatever the ids.
        let p = PartitionMap::for_graph(&path(10), 1).unwrap();
        assert_eq!(p.masters(0).len(), 10);
        assert_eq!(p.total_mirrors(), 0);
        // Fewer vertices than workers: some ranges are empty.
        let small = path(3);
        let p = PartitionMap::for_graph(&small, 5).unwrap();
        let owned: usize = (0..5).map(|w| p.masters(w).len()).sum();
        assert_eq!(owned, 3);
        assert_eq!(
            brute_force_mirrors(&small, &p),
            (0..3)
                .map(|v| p.necessary_mirrors(v).to_vec())
                .collect::<Vec<_>>()
        );
        // No arcs to sample: nothing says ranges cut less, so hash.
        let edgeless = GraphBuilder::new(10).build().unwrap();
        let p = PartitionMap::for_graph(&edgeless, 3).unwrap();
        assert_eq!(p.scheme(), "hash");
        assert_eq!(
            p.owner,
            PartitionMap::build(&edgeless, 3, &HashPartitioner)
                .unwrap()
                .owner
        );
        // Over 64 workers the mirror table is built by sorting.
        let long = path(3000);
        let p = PartitionMap::for_graph(&long, 80).unwrap();
        assert_eq!(p.scheme(), "range");
        let expected = brute_force_mirrors(&long, &p);
        for v in 0..3000u32 {
            assert_eq!(p.necessary_mirrors(v), expected[v as usize].as_slice());
        }
        assert_eq!(p.total_mirrors(), 2 * 79);
    }

    #[test]
    fn ranges_balance_vertices_and_in_arcs() {
        let graphs = [
            crate::generators::road_network(100, 100, 1),
            crate::generators::rmat(12, 8, Default::default(), 2),
            crate::generators::web_graph(5000, 8, 12, 3),
            path(7),
        ];
        for g in &graphs {
            let weight = |v: VertexId| (VERTEX_WEIGHT + g.in_degree(v)) as u64;
            let total: u64 = g.vertices().map(weight).sum();
            let heaviest = g.vertices().map(weight).max().unwrap();
            for m in [2usize, 3, 4, 7, 80] {
                let bounds = PartitionMap::range_bounds(g, m);
                assert_eq!(bounds.len(), m + 1);
                assert_eq!(bounds[m] as usize, g.num_vertices());
                for range in bounds.windows(2) {
                    let w: u64 = (range[0]..range[1]).map(weight).sum();
                    // |w − total/m| ≤ the heaviest vertex, in integers.
                    let m = m as u64;
                    assert!(
                        (m * w).abs_diff(total) <= m * heaviest,
                        "n={} m={m}: range {range:?} weighs {w}, mean {}",
                        g.num_vertices(),
                        total / m
                    );
                }
            }
        }
    }
}
