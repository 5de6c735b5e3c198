//! Disjoint-set union (union–find).
//!
//! The paper ships `dsu`, `dsu_find` and `dsu_union` as FLASH built-ins used
//! by the BCC (Algorithm 19) and MSF (Algorithm 21) applications; this module
//! is that built-in: path-halving find + union by size.

use crate::VertexId;

/// A disjoint-set forest over vertex ids `0..n`.
#[derive(Clone, Debug)]
pub struct DisjointSets {
    parent: Vec<VertexId>,
    size: Vec<u32>,
    sets: usize,
}

impl DisjointSets {
    /// Creates `n` singleton sets (the paper's `dsu(V)`).
    pub fn new(n: usize) -> Self {
        DisjointSets {
            parent: (0..n as VertexId).collect(),
            size: vec![1; n],
            sets: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` when there are no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets remaining.
    pub fn num_sets(&self) -> usize {
        self.sets
    }

    /// Representative of the set containing `v` (the paper's `dsu_find`),
    /// with path halving.
    pub fn find(&mut self, mut v: VertexId) -> VertexId {
        while self.parent[v as usize] != v {
            let gp = self.parent[self.parent[v as usize] as usize];
            self.parent[v as usize] = gp;
            v = gp;
        }
        v
    }

    /// Merges the sets of `a` and `b` (the paper's `dsu_union`); returns
    /// `true` if they were previously disjoint.
    pub fn union(&mut self, a: VertexId, b: VertexId) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        self.sets -= 1;
        true
    }

    /// `true` if `a` and `b` are in the same set.
    pub fn same(&mut self, a: VertexId, b: VertexId) -> bool {
        self.find(a) == self.find(b)
    }

    /// Size of the set containing `v`.
    pub fn set_size(&mut self, v: VertexId) -> usize {
        let r = self.find(v);
        self.size[r as usize] as usize
    }

    /// Canonical labels: `labels[v]` = representative of `v`'s set.
    pub fn labels(&mut self) -> Vec<VertexId> {
        (0..self.parent.len() as VertexId)
            .map(|v| self.find(v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_initially() {
        let mut d = DisjointSets::new(5);
        assert_eq!(d.num_sets(), 5);
        for v in 0..5 {
            assert_eq!(d.find(v), v);
            assert_eq!(d.set_size(v), 1);
        }
    }

    #[test]
    fn union_merges() {
        let mut d = DisjointSets::new(6);
        assert!(d.union(0, 1));
        assert!(d.union(2, 3));
        assert!(!d.union(1, 0));
        assert!(d.union(0, 2));
        assert_eq!(d.num_sets(), 3);
        assert!(d.same(1, 3));
        assert!(!d.same(1, 4));
        assert_eq!(d.set_size(3), 4);
    }

    #[test]
    fn labels_are_consistent() {
        let mut d = DisjointSets::new(4);
        d.union(0, 3);
        let labels = d.labels();
        assert_eq!(labels[0], labels[3]);
        assert_ne!(labels[0], labels[1]);
    }

    #[test]
    fn long_chain_compresses() {
        let mut d = DisjointSets::new(1000);
        for v in 0..999 {
            d.union(v, v + 1);
        }
        assert_eq!(d.num_sets(), 1);
        assert_eq!(d.set_size(0), 1000);
        assert_eq!(d.find(999), d.find(0));
    }
}
