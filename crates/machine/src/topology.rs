//! Rank-to-node topology.
//!
//! The noise model needs to know which ranks share a node (they contend for
//! memory bandwidth and the injection port) and which node of the *allocation*
//! a rank landed on (the paper runs every experiment on two distinct node
//! allocations precisely because allocations differ). This module provides that
//! mapping for a block rank placement, the scheme used by the paper's runs.

/// Maps simulated ranks onto nodes of a specific allocation.
#[derive(Debug, Clone)]
pub struct Topology {
    ranks: usize,
    ranks_per_node: usize,
    /// Identifier of the node allocation (a different allocation re-draws all
    /// node-level noise factors, modeling a new `sbatch` placement).
    allocation: u64,
}

impl Topology {
    /// Block placement of `ranks` ranks, `ranks_per_node` to a node, within
    /// allocation `allocation`.
    pub fn new(ranks: usize, ranks_per_node: usize, allocation: u64) -> Self {
        assert!(ranks > 0, "topology requires at least one rank");
        assert!(ranks_per_node > 0, "ranks_per_node must be positive");
        Topology { ranks, ranks_per_node, allocation }
    }

    /// Total number of ranks.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Number of ranks placed on each node.
    pub fn ranks_per_node(&self) -> usize {
        self.ranks_per_node
    }

    /// Number of nodes this job spans (ceiling division).
    pub fn nodes(&self) -> usize {
        self.ranks.div_ceil(self.ranks_per_node)
    }

    /// The node hosting `rank`.
    #[inline]
    pub fn node_of(&self, rank: usize) -> usize {
        debug_assert!(rank < self.ranks);
        rank / self.ranks_per_node
    }

    /// The allocation identifier.
    pub fn allocation(&self) -> u64 {
        self.allocation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_placement() {
        let t = Topology::new(16, 4, 0);
        assert_eq!(t.nodes(), 4);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(3), 0);
        assert_eq!(t.node_of(4), 1);
        assert_eq!(t.node_of(15), 3);
    }

    #[test]
    fn partial_last_node() {
        let t = Topology::new(10, 4, 1);
        assert_eq!(t.nodes(), 3);
        assert_eq!(t.node_of(8), 2);
        assert_eq!(t.node_of(9), 2);
    }
}
