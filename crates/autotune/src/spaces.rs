//! The paper's §V-C configuration spaces, with the exact index formulas
//! (`v % 5`, `⌈(v+1)/5⌉`, `⌊v/21⌋`, …) preserved and the base sizes scaled to
//! the simulator (see DESIGN.md's substitution table).

use std::sync::Arc;

use critter_algs::candmc_qr::CandmcQr;
use critter_algs::capital::CapitalCholesky;
use critter_algs::slate_chol::SlateCholesky;
use critter_algs::slate_qr::SlateQr;
use critter_algs::summa25d::Summa25D;
use critter_algs::Workload;

/// The four tuning case studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TuningSpace {
    /// Capital recursive 3D Cholesky: 15 configurations
    /// (block size × base-case strategy).
    CapitalCholesky,
    /// SLATE tile Cholesky: 20 configurations (tile size × lookahead).
    SlateCholesky,
    /// CANDMC pipelined 2D QR: 15 configurations (block size × grid shape).
    CandmcQr,
    /// SLATE tile QR: 63 configurations (inner width × panel width × grid).
    SlateQr,
    /// 2.5D SUMMA (§VIII extensibility demo): 12 configurations
    /// (replication depth × inner blocking).
    Summa25D,
}

impl TuningSpace {
    /// The paper's four spaces, in its order, plus the 2.5D extension.
    pub const ALL: [TuningSpace; 5] = [
        TuningSpace::CapitalCholesky,
        TuningSpace::SlateCholesky,
        TuningSpace::CandmcQr,
        TuningSpace::SlateQr,
        TuningSpace::Summa25D,
    ];

    /// The paper's four case studies only (the figure harness sweeps these).
    pub const PAPER: [TuningSpace; 4] = [
        TuningSpace::CapitalCholesky,
        TuningSpace::SlateCholesky,
        TuningSpace::CandmcQr,
        TuningSpace::SlateQr,
    ];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            TuningSpace::CapitalCholesky => "capital-cholesky",
            TuningSpace::SlateCholesky => "slate-cholesky",
            TuningSpace::CandmcQr => "candmc-qr",
            TuningSpace::SlateQr => "slate-qr",
            TuningSpace::Summa25D => "summa25d",
        }
    }

    /// Whether the paper resets kernel statistics between configurations of
    /// this space (§VI-A: yes for SLATE and CANDMC, no for Capital).
    pub fn resets_between_configs(self) -> bool {
        !matches!(self, TuningSpace::CapitalCholesky)
    }

    /// The scaled benchmark space (used by the figure-regeneration harness).
    pub fn bench(self) -> Vec<Arc<dyn Workload>> {
        match self {
            // Paper: n = 16384, 512 cores, b = 128·2^{v%5}, strategy ⌈(v+1)/5⌉.
            // Scaled: n = 512, p = 64 (4×4×4), b = 16·2^{v%5}.
            TuningSpace::CapitalCholesky => (0..15)
                .map(|v| {
                    Arc::new(CapitalCholesky {
                        n: 512,
                        block: 16 << (v % 5),
                        strategy: (v / 5 + 1) as u8,
                        ranks: 64,
                    }) as Arc<dyn Workload>
                })
                .collect(),
            // Paper: n = 65536, 1024 cores, depth v%2, tile 256+64·⌊v/2⌋.
            // Scaled: n = 384, p = 16 (4×4), tile 16+8·⌊v/2⌋.
            TuningSpace::SlateCholesky => (0..20)
                .map(|v| {
                    Arc::new(SlateCholesky {
                        n: 384,
                        tile: 16 + 8 * (v / 2),
                        lookahead: v % 2,
                        pr: 4,
                        pc: 4,
                    }) as Arc<dyn Workload>
                })
                .collect(),
            // Paper: 131072×8192, 4096 cores, b = 8·2^{v%5},
            // grid 64·2^{⌊v/5⌋} × 64/2^{⌊v/5⌋}.
            // Scaled: 512×128, p = 16, b = 2·2^{v%5} (clamped to divisibility),
            // grid 4·2^{⌊v/5⌋} × 4/2^{⌊v/5⌋}.
            TuningSpace::CandmcQr => (0..15)
                .map(|v| {
                    let pr = 4 << (v / 5);
                    let pc = 16 / pr;
                    let (m, n) = (512, 128);
                    let mut b = 2 << (v % 5);
                    while b > 1 && (m % (b * pr) != 0 || n % (b * pc) != 0) {
                        b /= 2;
                    }
                    Arc::new(CandmcQr { m, n, block: b, pr, pc }) as Arc<dyn Workload>
                })
                .collect(),
            // Paper: 65536×4096, 256 cores, w = 8·2^{v%3},
            // panel 256+64·(⌊v/3⌋%7), grid 64/2^{⌊v/21⌋} × 4·2^{⌊v/21⌋}.
            // Scaled: 512×64, p = 16, w = 2·2^{v%3}, panel 8+4·(⌊v/3⌋%7),
            // grid 4/2^{⌊v/21⌋} × 4·2^{⌊v/21⌋}.
            TuningSpace::SlateQr => (0..63)
                .map(|v| {
                    let nb = 8 + 4 * ((v / 3) % 7);
                    let w = (2 << (v % 3)).min(nb);
                    let pr = (4 / (1 << (v / 21))).max(1);
                    let pc = 16 / pr;
                    Arc::new(SlateQr { m: 512, n: 64, nb, inner: w, pr, pc }) as Arc<dyn Workload>
                })
                .collect(),
            // §VIII extension: p = 64 = r²·c for c ∈ {1, 4, 16},
            // inner blocking 8·2^{v%4}.
            TuningSpace::Summa25D => (0..12)
                .map(|v| {
                    Arc::new(Summa25D {
                        n: 256,
                        c: 1 << (2 * (v / 4)),
                        ranks: 64,
                        inner: 8 << (v % 4),
                    }) as Arc<dyn Workload>
                })
                .collect(),
        }
    }

    /// A tiny smoke-test space (a few configurations, ≤ 8 ranks) for unit and
    /// integration tests.
    pub fn smoke(self) -> Vec<Arc<dyn Workload>> {
        match self {
            TuningSpace::CapitalCholesky => (0..4)
                .map(|v| {
                    Arc::new(CapitalCholesky {
                        n: 32,
                        block: 4 << (v % 2),
                        strategy: (v / 2 + 1) as u8,
                        ranks: 8,
                    }) as Arc<dyn Workload>
                })
                .collect(),
            TuningSpace::SlateCholesky => (0..4)
                .map(|v| {
                    Arc::new(SlateCholesky {
                        n: 64,
                        tile: 16 + 8 * (v / 2),
                        lookahead: v % 2,
                        pr: 2,
                        pc: 2,
                    }) as Arc<dyn Workload>
                })
                .collect(),
            TuningSpace::CandmcQr => (0..4)
                .map(|v| {
                    Arc::new(CandmcQr {
                        m: 64,
                        n: 16,
                        block: 4 << (v % 2),
                        pr: if v / 2 == 0 { 2 } else { 4 },
                        pc: if v / 2 == 0 { 2 } else { 1 },
                    }) as Arc<dyn Workload>
                })
                .collect(),
            TuningSpace::SlateQr => (0..4)
                .map(|v| {
                    Arc::new(SlateQr { m: 64, n: 16, nb: 8, inner: 2 << (v % 2), pr: 2, pc: 2 })
                        as Arc<dyn Workload>
                })
                .collect(),
            TuningSpace::Summa25D => (0..4)
                .map(|v| {
                    Arc::new(Summa25D {
                        n: 32,
                        c: if v / 2 == 0 { 1 } else { 4 },
                        ranks: 16,
                        inner: 4 << (v % 2),
                    }) as Arc<dyn Workload>
                })
                .collect(),
        }
    }
}

/// Parses a [`TuningSpace::name`]; the error lists the known names.
impl std::str::FromStr for TuningSpace {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Self::ALL.iter().copied().find(|space| space.name() == s).ok_or_else(|| {
            let known: Vec<&str> = Self::ALL.iter().map(|space| space.name()).collect();
            format!("unknown space `{s}` (one of: {})", known.join(", "))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_space_sizes_match_paper() {
        assert_eq!(TuningSpace::CapitalCholesky.bench().len(), 15);
        assert_eq!(TuningSpace::SlateCholesky.bench().len(), 20);
        assert_eq!(TuningSpace::CandmcQr.bench().len(), 15);
        assert_eq!(TuningSpace::SlateQr.bench().len(), 63);
        assert_eq!(TuningSpace::Summa25D.bench().len(), 12);
        assert_eq!(TuningSpace::PAPER.len(), 4);
    }

    #[test]
    fn names_parse_back_and_unknown_ones_list_the_table() {
        for space in TuningSpace::ALL {
            assert_eq!(space.name().parse(), Ok(space));
        }
        assert_eq!(
            "lu".parse::<TuningSpace>().unwrap_err(),
            "unknown space `lu` (one of: capital-cholesky, slate-cholesky, candmc-qr, slate-qr, \
             summa25d)"
        );
    }

    #[test]
    fn bench_spaces_have_uniform_rank_counts() {
        for space in TuningSpace::ALL {
            let ws = space.bench();
            let r = ws[0].ranks();
            assert!(ws.iter().all(|w| w.ranks() == r), "{} mixes rank counts", space.name());
        }
    }

    #[test]
    fn names_are_distinct_within_each_space() {
        for space in TuningSpace::ALL {
            let ws = space.bench();
            let mut names: Vec<String> = ws.iter().map(|w| w.name()).collect();
            let n = names.len();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), n, "{} has duplicate configs", space.name());
        }
    }

    #[test]
    fn capital_strategies_cover_1_to_3() {
        let ws = TuningSpace::CapitalCholesky.bench();
        for (v, w) in ws.iter().enumerate() {
            let expect = v / 5 + 1;
            assert!(w.name().contains(&format!("strat={expect}")));
        }
    }

    #[test]
    fn reset_protocol_matches_paper() {
        assert!(!TuningSpace::CapitalCholesky.resets_between_configs());
        assert!(TuningSpace::SlateCholesky.resets_between_configs());
        assert!(TuningSpace::CandmcQr.resets_between_configs());
        assert!(TuningSpace::SlateQr.resets_between_configs());
        assert!(TuningSpace::Summa25D.resets_between_configs());
    }

    #[test]
    fn smoke_spaces_are_small() {
        for space in TuningSpace::ALL {
            let ws = space.smoke();
            assert!(ws.len() <= 4);
            assert!(ws.iter().all(|w| w.ranks() <= 16));
        }
    }
}
