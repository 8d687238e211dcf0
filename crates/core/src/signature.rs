//! Kernel signatures: the identity under which performance samples pool.
//!
//! §V-D: computational kernels are parameterized on the routine and its
//! matrix dimensions; communication kernels on the routine, message size, and
//! the sub-communicator's *size and stride relative to the world communicator*
//! (so a broadcast along any fiber of a processor grid shares one signature,
//! regardless of which fiber). Point-to-point communication is treated as a
//! size-2 sub-communicator.

use critter_machine::{CommOp, KernelClass};
use critter_sim::ChannelMeta;

use crate::fnv::fnv_hash;

/// Computational routines Critter intercepts (§V-D kernel inventory).
///
/// The discriminant is the routine's key code: the derived `Hash` that
/// [`KernelSig::key`] feeds to the key hash writes it, so it orders every
/// persisted profile and checkpoint. A code never changes, and a retired
/// one (11, once LU's `getrf`) is never reused: a new routine takes a
/// fresh code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(isize)]
pub enum ComputeOp {
    /// General matrix-matrix multiply.
    Gemm = 0,
    /// Symmetric rank-k update.
    Syrk = 1,
    /// Triangular solve.
    Trsm = 2,
    /// Triangular matrix multiply.
    Trmm = 3,
    /// Cholesky factorization.
    Potrf = 4,
    /// Triangular inversion.
    Trtri = 5,
    /// Householder QR panel factorization.
    Geqrf = 6,
    /// Application of Householder reflectors.
    Ormqr = 7,
    /// Block-reflector formation.
    Larft = 8,
    /// Triangular-pentagonal QR.
    Tpqrt = 9,
    /// Application of triangular-pentagonal reflectors.
    Tpmqrt = 10,
    /// User-defined kernel intercepted via preprocessor-directive-style
    /// annotation (e.g. Capital's block-to-cyclic redistribution).
    Custom(u32) = 12,
}

impl ComputeOp {
    /// Short routine name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ComputeOp::Gemm => "gemm",
            ComputeOp::Syrk => "syrk",
            ComputeOp::Trsm => "trsm",
            ComputeOp::Trmm => "trmm",
            ComputeOp::Potrf => "potrf",
            ComputeOp::Trtri => "trtri",
            ComputeOp::Geqrf => "geqrf",
            ComputeOp::Ormqr => "ormqr",
            ComputeOp::Larft => "larft",
            ComputeOp::Tpqrt => "tpqrt",
            ComputeOp::Tpmqrt => "tpmqrt",
            ComputeOp::Custom(_) => "custom",
        }
    }

    /// Canonical, invertible serialization name: like [`name`](Self::name)
    /// but `Custom` kernels keep their annotation id (`custom:7`). The
    /// inverse is [`from_name`](Self::from_name).
    pub fn canonical_name(self) -> String {
        match self {
            ComputeOp::Custom(id) => format!("custom:{id}"),
            other => other.name().to_string(),
        }
    }

    /// Parse a [`canonical_name`](Self::canonical_name) back to the routine.
    pub fn from_name(s: &str) -> Option<ComputeOp> {
        Some(match s {
            "gemm" => ComputeOp::Gemm,
            "syrk" => ComputeOp::Syrk,
            "trsm" => ComputeOp::Trsm,
            "trmm" => ComputeOp::Trmm,
            "potrf" => ComputeOp::Potrf,
            "trtri" => ComputeOp::Trtri,
            "geqrf" => ComputeOp::Geqrf,
            "ormqr" => ComputeOp::Ormqr,
            "larft" => ComputeOp::Larft,
            "tpqrt" => ComputeOp::Tpqrt,
            "tpmqrt" => ComputeOp::Tpmqrt,
            _ => {
                let id = s.strip_prefix("custom:")?.parse().ok()?;
                ComputeOp::Custom(id)
            }
        })
    }

    /// Efficiency class of the routine for the machine's compute-cost model.
    pub fn class(self) -> KernelClass {
        match self {
            ComputeOp::Gemm => KernelClass::Gemm,
            ComputeOp::Syrk => KernelClass::Syrk,
            ComputeOp::Trsm | ComputeOp::Trmm => KernelClass::Triangular,
            ComputeOp::Potrf | ComputeOp::Trtri | ComputeOp::Geqrf | ComputeOp::Tpqrt => {
                KernelClass::Factorize
            }
            ComputeOp::Ormqr | ComputeOp::Larft | ComputeOp::Tpmqrt => KernelClass::ApplyQ,
            ComputeOp::Custom(_) => KernelClass::Blas2,
        }
    }
}

/// How communication-kernel message sizes enter the signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeGranularity {
    /// Exact word count (the paper's default).
    Exact,
    /// Power-of-two bucket — the granularity ablation: coarser signatures pool
    /// more samples but mix distinct behaviors.
    Log2,
}

impl SizeGranularity {
    /// Apply the granularity to a word count.
    pub fn bucket(self, words: usize) -> u64 {
        match self {
            SizeGranularity::Exact => words as u64,
            SizeGranularity::Log2 => {
                if words == 0 {
                    0
                } else {
                    64 - (words as u64).leading_zeros() as u64
                }
            }
        }
    }
}

/// A kernel signature — the pooling identity for performance samples.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KernelSig {
    /// A computational kernel: routine plus (up to three) dimensions.
    Compute {
        /// The routine.
        op: ComputeOp,
        /// Routine dimensions, e.g. `(m, n, k)` for gemm; unused entries zero.
        dims: (u64, u64, u64),
    },
    /// A communication kernel: routine, message size, communicator shape.
    Comm {
        /// The MPI routine.
        op: CommOp,
        /// Message size (per the routine's convention), possibly bucketed.
        words: u64,
        /// Sub-communicator size (2 for point-to-point).
        comm_size: u64,
        /// Innermost stride of the sub-communicator relative to world
        /// (0 for irregular groups and point-to-point).
        stride: u64,
    },
}

impl KernelSig {
    /// Signature of a compute kernel.
    pub fn compute(op: ComputeOp, m: usize, n: usize, k: usize) -> Self {
        KernelSig::Compute { op, dims: (m as u64, n as u64, k as u64) }
    }

    /// Signature of a collective on a communicator described by `meta`.
    pub fn collective(op: CommOp, words: usize, meta: &ChannelMeta, gran: SizeGranularity) -> Self {
        KernelSig::Comm {
            op,
            words: gran.bucket(words),
            comm_size: meta.size as u64,
            stride: meta.stride() as u64,
        }
    }

    /// Signature of a point-to-point message (a size-2 "sub-communicator";
    /// the stride field records the rank distance, bucketing messages by
    /// neighbor topology the way grid-fiber strides do for collectives).
    pub fn p2p(words: usize, rank_distance: usize, gran: SizeGranularity) -> Self {
        KernelSig::Comm {
            op: CommOp::PointToPoint,
            words: gran.bucket(words),
            comm_size: 2,
            stride: rank_distance as u64,
        }
    }

    /// Stable 52-bit key (fits losslessly in an `f64` mantissa, so keys can
    /// travel inside internal path-propagation payloads). It hashes the
    /// routine's key code, the explicit discriminant of [`ComputeOp`] or
    /// [`CommOp`], never its position in the enum.
    pub fn key(&self) -> u64 {
        fnv_hash(self) & ((1 << 52) - 1)
    }

    /// Human-readable label for reports.
    pub fn label(&self) -> String {
        match self {
            KernelSig::Compute { op, dims } => {
                format!("{}[{}x{}x{}]", op.name(), dims.0, dims.1, dims.2)
            }
            KernelSig::Comm { op, words, comm_size, stride } => {
                format!("{}[w={words},p={comm_size},s={stride}]", op.name())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_routine_same_dims_pool() {
        let a = KernelSig::compute(ComputeOp::Gemm, 64, 64, 32);
        let b = KernelSig::compute(ComputeOp::Gemm, 64, 64, 32);
        assert_eq!(a, b);
        assert_eq!(a.key(), b.key());
    }

    #[test]
    fn dims_distinguish() {
        let a = KernelSig::compute(ComputeOp::Gemm, 64, 64, 32);
        let b = KernelSig::compute(ComputeOp::Gemm, 64, 64, 64);
        assert_ne!(a.key(), b.key());
    }

    #[test]
    fn comm_sig_ignores_fiber_position() {
        // Two different columns of a 4x4 grid: same (stride, size) → same sig.
        let col_a = ChannelMeta::from_sorted_ranks(&[0, 4, 8, 12]);
        let col_b = ChannelMeta::from_sorted_ranks(&[2, 6, 10, 14]);
        let sa = KernelSig::collective(CommOp::Bcast, 100, &col_a, SizeGranularity::Exact);
        let sb = KernelSig::collective(CommOp::Bcast, 100, &col_b, SizeGranularity::Exact);
        assert_eq!(sa, sb);
        // A row has a different stride → different signature.
        let row = ChannelMeta::from_sorted_ranks(&[0, 1, 2, 3]);
        let sr = KernelSig::collective(CommOp::Bcast, 100, &row, SizeGranularity::Exact);
        assert_ne!(sa, sr);
    }

    #[test]
    fn p2p_is_size_two() {
        let s = KernelSig::p2p(10, 3, SizeGranularity::Exact);
        match s {
            KernelSig::Comm { comm_size, .. } => assert_eq!(comm_size, 2),
            _ => panic!(),
        }
    }

    #[test]
    fn log2_bucketing_pools_nearby_sizes() {
        let g = SizeGranularity::Log2;
        assert_eq!(g.bucket(1000), g.bucket(700));
        assert_ne!(g.bucket(1000), g.bucket(3000));
        assert_eq!(g.bucket(0), 0);
        assert_eq!(SizeGranularity::Exact.bucket(77), 77);
    }

    #[test]
    fn key_fits_f64() {
        let s = KernelSig::compute(ComputeOp::Tpqrt, 1 << 20, 1 << 10, 0);
        let k = s.key();
        assert_eq!(k as f64 as u64, k, "key must round-trip through f64");
    }

    #[test]
    fn names_invert() {
        let ops = [
            ComputeOp::Gemm,
            ComputeOp::Syrk,
            ComputeOp::Trsm,
            ComputeOp::Trmm,
            ComputeOp::Potrf,
            ComputeOp::Trtri,
            ComputeOp::Geqrf,
            ComputeOp::Ormqr,
            ComputeOp::Larft,
            ComputeOp::Tpqrt,
            ComputeOp::Tpmqrt,
            ComputeOp::Custom(0),
            ComputeOp::Custom(917),
        ];
        for op in ops {
            assert_eq!(ComputeOp::from_name(&op.canonical_name()), Some(op));
        }
        assert_eq!(ComputeOp::from_name("nosuch"), None);
        assert_eq!(ComputeOp::from_name("custom:x"), None);
    }

    #[test]
    fn keys_are_pinned() {
        // Keys order persisted profiles and checkpoints, and they hash each
        // routine's key code: these values, computed before any variant
        // change, must never move.
        let compute = [
            (ComputeOp::Gemm, 0xb78b0a8136e35),
            (ComputeOp::Syrk, 0x2c5ca051d2db4),
            (ComputeOp::Trsm, 0x17c5ca2f51fb7),
            (ComputeOp::Trmm, 0x8c975fffedf36),
            (ComputeOp::Potrf, 0x8ad161c3a6c31),
            (ComputeOp::Trtri, 0xffa2f79442bb0),
            (ComputeOp::Geqrf, 0xeb0c2171c1db3),
            (ComputeOp::Ormqr, 0x5fddb7425dd32),
            (ComputeOp::Larft, 0x10fe5bfc5723d),
            (ComputeOp::Tpqrt, 0x85cff1ccf31bc),
            (ComputeOp::Tpmqrt, 0x71391baa723bf),
            (ComputeOp::Custom(1), 0x2ba65ca740818),
        ];
        for (op, key) in compute {
            assert_eq!(KernelSig::compute(op, 64, 32, 16).key(), key, "{op:?}");
        }
        assert_eq!(KernelSig::p2p(100, 1, SizeGranularity::Exact).key(), 0x80a6466d2dee3);
        let col = ChannelMeta::from_sorted_ranks(&[0, 4, 8, 12]);
        let bcast = KernelSig::collective(CommOp::Bcast, 100, &col, SizeGranularity::Exact);
        assert_eq!(bcast.key(), 0xcb6be9ecc4501);
        let collectives = [
            (CommOp::Allreduce, 0x2ba6a99adf683),
            (CommOp::Allgather, 0xe5b1274987cc4),
            (CommOp::Gather, 0xcbf09bd142505),
            (CommOp::Scatter, 0xb2301058fcd46),
        ];
        for (op, key) in collectives {
            let sig = KernelSig::collective(op, 100, &col, SizeGranularity::Exact);
            assert_eq!(sig.key(), key, "{op:?}");
        }
        // Retired routines no longer parse: a persisted name of one is an
        // unknown routine, never a different kernel.
        assert_eq!(ComputeOp::from_name("getrf"), None);
        for name in ["reduce", "reduce_scatter", "alltoall", "barrier"] {
            assert_eq!(CommOp::from_name(name), None, "{name}");
        }
    }

    #[test]
    fn class_mapping() {
        assert_eq!(ComputeOp::Gemm.class(), KernelClass::Gemm);
        assert_eq!(ComputeOp::Potrf.class(), KernelClass::Factorize);
        assert_eq!(ComputeOp::Custom(3).class(), KernelClass::Blas2);
    }
}
