//! Aggregate-channel infrastructure (§III-B, Fig. 2 `MPI_Init`/`MPI_Comm_split`).
//!
//! A *channel* is a communicator's `(stride, size)` shape relative to the
//! world grid. An *aggregate* is a combination of channels with pairwise
//! disjoint stride sets; when the sizes of an aggregate's dimensions multiply
//! to the world size, the aggregate is **maximal** — statistics propagated
//! along its constituent channels have reached every rank, which is the
//! condition under which eager propagation may switch a kernel off globally.
//!
//! The registry also implements the per-kernel coverage bookkeeping: each time
//! a kernel's statistics are aggregated across a communicator whose dimensions
//! are disjoint from those already covered, the kernel's covered-rank product
//! grows by the communicator size (replacement semantics keep the sample sets
//! disjoint, preventing the sampling bias the paper warns about for
//! overlapping partitions).

use critter_sim::ChannelMeta;

use crate::fnv::FnvMap;

/// One aggregate: a set of combined channels.
#[derive(Debug, Clone)]
pub struct Aggregate {
    /// XOR of the constituent channels' shape hashes (Fig. 2's aggregate id).
    pub hash: u64,
    /// Union of the constituent dimensions (stride, size).
    pub dims: Vec<(usize, usize)>,
    /// Product of dimension sizes: ranks covered.
    pub coverage: usize,
    /// Whether a strict super-aggregate exists.
    pub is_maximal: bool,
}

impl Aggregate {
    fn from_meta(meta: &ChannelMeta) -> Self {
        Aggregate {
            hash: meta.shape_hash(),
            dims: meta.dims.clone(),
            coverage: meta.size,
            is_maximal: true,
        }
    }

    /// Whether `self` and `other` may combine (disjoint stride sets).
    pub fn disjoint(&self, other: &Aggregate) -> bool {
        !self.dims.iter().any(|(s, _)| other.dims.iter().any(|(t, _)| s == t))
    }

    fn combined(&self, other: &Aggregate) -> Aggregate {
        let mut dims = self.dims.clone();
        dims.extend_from_slice(&other.dims);
        dims.sort_unstable();
        Aggregate {
            hash: self.hash ^ other.hash,
            dims,
            coverage: self.coverage * other.coverage,
            is_maximal: true,
        }
    }
}

/// Per-rank registry of channels and their aggregates.
#[derive(Debug, Clone)]
pub struct ChannelRegistry {
    world_size: usize,
    aggregates: FnvMap<u64, Aggregate>,
}

impl ChannelRegistry {
    /// Create the registry with the world channel pre-registered (the paper's
    /// `MPI_Init` interception).
    pub fn new(world_size: usize) -> Self {
        let mut r = ChannelRegistry { world_size, aggregates: FnvMap::default() };
        r.register(&ChannelMeta::from_sorted_ranks(&(0..world_size).collect::<Vec<_>>()));
        r
    }

    /// Number of world ranks.
    pub fn world_size(&self) -> usize {
        self.world_size
    }

    /// Register a new communicator's channel (the `MPI_Comm_split`
    /// interception): insert it and recursively build combined aggregates
    /// with every existing disjoint aggregate.
    pub fn register(&mut self, meta: &ChannelMeta) {
        if meta.irregular || meta.size == 0 {
            return;
        }
        let chan = Aggregate::from_meta(meta);
        if self.aggregates.contains_key(&chan.hash) {
            return;
        }
        // Combine with existing aggregates where the stride sets are disjoint
        // and the result still fits in the machine.
        let mut new_aggs: Vec<Aggregate> = vec![chan.clone()];
        for agg in self.aggregates.values() {
            if agg.disjoint(&chan) && agg.coverage * chan.coverage <= self.world_size {
                let combined = agg.combined(&chan);
                if !self.aggregates.contains_key(&combined.hash) {
                    new_aggs.push(combined);
                }
            }
        }
        for mut a in new_aggs {
            a.is_maximal = true;
            self.aggregates.insert(a.hash, a);
        }
        self.recompute_maximality();
    }

    fn recompute_maximality(&mut self) {
        let hashes: Vec<u64> = self.aggregates.keys().copied().collect();
        for h in hashes {
            let covered_by_super = {
                let me = &self.aggregates[&h];
                self.aggregates.values().any(|other| {
                    other.hash != me.hash
                        && other.coverage > me.coverage
                        && me.dims.iter().all(|d| other.dims.contains(d))
                })
            };
            self.aggregates.get_mut(&h).unwrap().is_maximal = !covered_by_super;
        }
    }

    /// All registered aggregates.
    pub fn aggregates(&self) -> impl Iterator<Item = &Aggregate> {
        self.aggregates.values()
    }

    /// Per-kernel coverage step: given a kernel's already-covered strides and
    /// coverage product, decide whether aggregating across a communicator of
    /// shape `meta` extends coverage. Returns the new `(strides, coverage)` if
    /// it does, `None` if the channel overlaps what is already covered.
    pub fn extend_coverage(
        &self,
        covered_strides: &[u64],
        coverage: u64,
        meta: &ChannelMeta,
    ) -> Option<(Vec<u64>, u64)> {
        if meta.irregular {
            return None;
        }
        if meta.dims.iter().any(|&(s, _)| covered_strides.contains(&(s as u64))) {
            return None;
        }
        let mut strides = covered_strides.to_vec();
        strides.extend(meta.dims.iter().map(|&(s, _)| s as u64));
        let cov = (coverage * meta.size as u64).min(self.world_size as u64);
        Some((strides, cov))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(ranks: &[usize]) -> ChannelMeta {
        ChannelMeta::from_sorted_ranks(ranks)
    }

    #[test]
    fn world_is_registered_at_init() {
        let r = ChannelRegistry::new(8);
        assert_eq!(r.aggregates().count(), 1);
        assert!(r.aggregates().all(|a| a.coverage == 8), "the world covers the machine");
    }

    #[test]
    fn row_and_column_combine_to_grid() {
        let mut r = ChannelRegistry::new(16);
        let row = meta(&[0, 1, 2, 3]); // stride 1, size 4
        let col = meta(&[0, 4, 8, 12]); // stride 4, size 4
        r.register(&row);
        r.register(&col);
        // world + row + col + (row×col) — and row×col covers the machine.
        let full: Vec<&Aggregate> = r.aggregates().filter(|a| a.coverage == 16).collect();
        assert!(full.len() >= 2, "combined aggregate should cover all 16 ranks");
        let combined =
            r.aggregates().find(|a| a.dims == vec![(1, 4), (4, 4)]).expect("row x col aggregate");
        assert_eq!(combined.hash, row.shape_hash() ^ col.shape_hash());
    }

    #[test]
    fn overlapping_channels_do_not_combine() {
        let mut r = ChannelRegistry::new(16);
        r.register(&meta(&[0, 1, 2, 3]));
        r.register(&meta(&[0, 1])); // stride 1 again — overlaps
        assert!(!r.aggregates().any(|a| a.dims == vec![(1, 2), (1, 4)]));
    }

    #[test]
    fn sub_aggregates_lose_maximality() {
        let mut r = ChannelRegistry::new(16);
        let row = meta(&[0, 1, 2, 3]);
        let col = meta(&[0, 4, 8, 12]);
        r.register(&row);
        r.register(&col);
        let row_agg = r.aggregates().find(|a| a.dims == vec![(1, 4)]).unwrap();
        assert!(!row_agg.is_maximal, "row is contained in row×col");
    }

    #[test]
    fn irregular_channels_are_ignored() {
        let mut r = ChannelRegistry::new(8);
        let before = r.aggregates().count();
        r.register(&meta(&[0, 1, 3, 6]));
        assert_eq!(r.aggregates().count(), before);
    }

    #[test]
    fn kernel_coverage_extends_across_disjoint_dims() {
        let r = ChannelRegistry::new(16);
        let row = meta(&[0, 1, 2, 3]);
        let col = meta(&[0, 4, 8, 12]);
        let (s1, c1) = r.extend_coverage(&[], 1, &row).unwrap();
        assert_eq!(c1, 4);
        let (s2, c2) = r.extend_coverage(&s1, c1, &col).unwrap();
        assert_eq!(c2, 16);
        assert!(s2.contains(&1) && s2.contains(&4));
        // Re-covering the same stride is rejected.
        assert!(r.extend_coverage(&s2, c2, &row).is_none());
    }

    #[test]
    fn coverage_saturates_at_world() {
        let r = ChannelRegistry::new(8);
        let world = meta(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let (_, c) = r.extend_coverage(&[], 4, &world).unwrap();
        assert_eq!(c, 8, "coverage clamps to world size");
    }

    #[test]
    fn three_d_grid_aggregation() {
        // 2x2x2 grid: three fiber channels with strides 1, 2, 4.
        let mut r = ChannelRegistry::new(8);
        r.register(&meta(&[0, 1]));
        r.register(&meta(&[0, 2]));
        r.register(&meta(&[0, 4]));
        let full =
            r.aggregates().find(|a| a.dims == vec![(1, 2), (2, 2), (4, 2)]).expect("3D aggregate");
        assert_eq!(full.coverage, 8);
        assert!(full.is_maximal);
    }
}
