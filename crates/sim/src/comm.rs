//! Communicators and channel metadata.
//!
//! A [`Communicator`] is a rank's handle on a group, mirroring `MPI_Comm`.
//! Alongside the member list it carries a [`ChannelMeta`]: the paper's
//! *channel* description — the group expressed as an offset plus a product of
//! `(stride, size)` dimensions relative to the world communicator (§III-B).
//! Critter's aggregate-channel infrastructure reasons entirely in terms of
//! these `(stride, size)` signatures, which is how statistics propagate along
//! the fibers and slices of a cartesian processor grid.

use std::sync::Arc;

use critter_machine::rng::stream_id;

use crate::error::SimError;

/// Structural description of a process group relative to `MPI_COMM_WORLD`:
/// `offset + Σ iⱼ·strideⱼ` for `iⱼ < sizeⱼ`. Groups that are not expressible
/// as such a product keep the member hash only (`dims` empty, `irregular`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ChannelMeta {
    /// Smallest world rank in the group.
    pub offset: usize,
    /// Cartesian factorization, innermost (smallest stride) first.
    pub dims: Vec<(usize, usize)>,
    /// True when the group could not be factored into strided dimensions.
    pub irregular: bool,
    /// Total number of members.
    pub size: usize,
}

impl ChannelMeta {
    /// Factor a sorted, duplicate-free world-rank list into strided dims.
    pub fn from_sorted_ranks(ranks: &[usize]) -> Self {
        if ranks.is_empty() {
            std::panic::panic_any(SimError::EmptyCommunicator);
        }
        debug_assert!(ranks.windows(2).all(|w| w[0] < w[1]), "ranks must be sorted unique");
        let offset = ranks[0];
        match Self::decompose(ranks) {
            Some(dims) => ChannelMeta { offset, dims, irregular: false, size: ranks.len() },
            None => ChannelMeta { offset, dims: Vec::new(), irregular: true, size: ranks.len() },
        }
    }

    /// Greedy factorization: peel the innermost arithmetic run, recurse on the
    /// run starts. Returns `None` when the list has no product structure.
    fn decompose(ranks: &[usize]) -> Option<Vec<(usize, usize)>> {
        if ranks.len() == 1 {
            return Some(Vec::new());
        }
        let s = ranks[1] - ranks[0];
        if s == 0 {
            return None;
        }
        // Longest arithmetic prefix with stride s.
        let mut k = 1;
        while k < ranks.len() && ranks[k] == ranks[0] + k * s {
            k += 1;
        }
        if !ranks.len().is_multiple_of(k) {
            return None;
        }
        let blocks = ranks.len() / k;
        let mut starts = Vec::with_capacity(blocks);
        for b in 0..blocks {
            let base = ranks[b * k];
            for i in 0..k {
                if ranks[b * k + i] != base + i * s {
                    return None;
                }
            }
            starts.push(base);
        }
        let outer = Self::decompose(&starts)?;
        let mut dims = Vec::with_capacity(outer.len() + 1);
        dims.push((s, k));
        dims.extend(outer);
        Some(dims)
    }

    /// The innermost stride (1 for contiguous groups); 0 for singletons and
    /// irregular groups.
    pub fn stride(&self) -> usize {
        self.dims.first().map(|&(s, _)| s).unwrap_or(0)
    }

    /// Stable hash of the channel *shape* `(stride, size)` per dimension —
    /// the quantity the paper hashes when building aggregate channels
    /// ("Hash id generated purely from (stride, size)", Fig. 2).
    pub fn shape_hash(&self) -> u64 {
        let mut parts = Vec::with_capacity(2 * self.dims.len() + 1);
        for &(s, n) in &self.dims {
            parts.push(s as u64);
            parts.push(n as u64);
        }
        if self.irregular {
            parts.push(0x1_0000_0000 | self.size as u64);
        }
        stream_id(&parts)
    }

    /// Compact human-readable label, e.g. `ch[p=4,s=1,o=0]` for a regular
    /// channel of 4 members at stride 1 from offset 0, or `ch[p=5,irr]` for
    /// a group with no product structure. Used to key per-channel
    /// propagation counters in the observability metrics registry, so the
    /// label is a pure function of the channel shape.
    pub fn label(&self) -> String {
        if self.irregular {
            format!("ch[p={},irr]", self.size)
        } else {
            format!("ch[p={},s={},o={}]", self.size, self.stride(), self.offset)
        }
    }
}

/// A rank's handle on a communicator.
///
/// Holds the member list (world ranks in communicator-rank order), this rank's
/// position, and the deterministic communicator id. Collective sequence
/// numbers are NOT stored here: they live in the rank's [`crate::RankCtx`],
/// keyed by communicator id, so cloned or re-derived handles of the same
/// communicator share one sequence stream instead of replaying it.
#[derive(Debug, Clone)]
pub struct Communicator {
    id: u64,
    members: Arc<Vec<usize>>,
    my_index: usize,
    meta: Arc<ChannelMeta>,
}

/// Fixed id of the world communicator.
pub const WORLD_ID: u64 = 0x57_4f_52_4c_44; // "WORLD"

impl Communicator {
    /// Construct a communicator handle (used by the runtime; programs obtain
    /// communicators from [`crate::RankCtx::world`] and `split`).
    pub(crate) fn new(id: u64, members: Arc<Vec<usize>>, my_index: usize) -> Self {
        let mut sorted: Vec<usize> = members.as_ref().clone();
        sorted.sort_unstable();
        let meta = Arc::new(ChannelMeta::from_sorted_ranks(&sorted));
        Communicator { id, members, my_index, meta }
    }

    /// The world communicator over `p` ranks, as seen from world rank `rank`.
    pub(crate) fn world(p: usize, rank: usize) -> Self {
        let members = Arc::new((0..p).collect::<Vec<_>>());
        Communicator::new(WORLD_ID, members, rank)
    }

    /// Deterministic communicator id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// This rank's index within the communicator.
    pub fn rank(&self) -> usize {
        self.my_index
    }

    /// World rank of communicator rank `i`.
    pub fn world_rank_of(&self, i: usize) -> usize {
        self.members[i]
    }

    /// Member list in communicator-rank order (world ranks).
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Channel metadata (offset / strides / sizes relative to world).
    pub fn meta(&self) -> &ChannelMeta {
        &self.meta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_describe_channel_shape() {
        let regular = ChannelMeta::from_sorted_ranks(&[2, 4, 6, 8]);
        assert_eq!(regular.label(), "ch[p=4,s=2,o=2]");
        let irregular = ChannelMeta::from_sorted_ranks(&[0, 1, 3]);
        assert!(irregular.irregular);
        assert_eq!(irregular.label(), "ch[p=3,irr]");
    }

    #[test]
    fn contiguous_group() {
        let m = ChannelMeta::from_sorted_ranks(&[4, 5, 6, 7]);
        assert_eq!(m.offset, 4);
        assert_eq!(m.dims, vec![(1, 4)]);
        assert!(!m.irregular);
        assert_eq!(m.stride(), 1);
    }

    #[test]
    fn strided_group() {
        // A column of a 4x4 row-major grid: stride 4.
        let m = ChannelMeta::from_sorted_ranks(&[2, 6, 10, 14]);
        assert_eq!(m.dims, vec![(4, 4)]);
        assert_eq!(m.offset, 2);
    }

    #[test]
    fn product_group() {
        // A 2x2 sub-grid {0,1,8,9}: strides 1 and 8.
        let m = ChannelMeta::from_sorted_ranks(&[0, 1, 8, 9]);
        assert_eq!(m.dims, vec![(1, 2), (8, 2)]);
    }

    #[test]
    fn grid_layer_of_3d() {
        // z-layer of a 4x4x4 grid: ranks 16..32 → (1,16) or (1,4),(4,4).
        let ranks: Vec<usize> = (16..32).collect();
        let m = ChannelMeta::from_sorted_ranks(&ranks);
        assert!(!m.irregular);
        assert_eq!(m.offset, 16);
        assert_eq!(m.dims.iter().map(|&(_, n)| n).product::<usize>(), 16);
    }

    #[test]
    fn irregular_group() {
        let m = ChannelMeta::from_sorted_ranks(&[0, 1, 3, 7]);
        assert!(m.irregular);
        assert_eq!(m.size, 4);
        assert_eq!(m.stride(), 0);
    }

    #[test]
    fn singleton_group() {
        let m = ChannelMeta::from_sorted_ranks(&[5]);
        assert!(!m.irregular);
        assert!(m.dims.is_empty());
        assert_eq!(m.size, 1);
    }

    #[test]
    fn shape_hash_ignores_offset() {
        let a = ChannelMeta::from_sorted_ranks(&[0, 4, 8, 12]);
        let b = ChannelMeta::from_sorted_ranks(&[1, 5, 9, 13]);
        assert_eq!(a.shape_hash(), b.shape_hash());
        let c = ChannelMeta::from_sorted_ranks(&[0, 1, 2, 3]);
        assert_ne!(a.shape_hash(), c.shape_hash());
    }

    #[test]
    fn world_communicator_handle() {
        let c = Communicator::world(8, 3);
        assert_eq!(c.size(), 8);
        assert_eq!(c.rank(), 3);
        assert_eq!(c.world_rank_of(5), 5);
        assert_eq!(c.meta().dims, vec![(1, 8)]);
    }

    #[test]
    fn empty_group_raises_typed_error() {
        let payload = std::panic::catch_unwind(|| ChannelMeta::from_sorted_ranks(&[]))
            .expect_err("empty group must panic");
        assert_eq!(
            crate::error::sim_error_of(payload.as_ref()),
            Some(&SimError::EmptyCommunicator)
        );
    }
}
