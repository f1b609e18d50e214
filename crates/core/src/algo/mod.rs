//! The algorithm suite: the paper's contributions plus every baseline.

pub mod apskyline;
pub mod bnl;
pub mod bskytree;
pub mod hybrid;
pub mod less;
pub mod pbskytree;
pub mod psfs;
pub mod pskyline;
pub mod qflow;
pub mod salsa;
pub mod sfs;
mod skystruct;
pub mod sskyline;

use crate::{SkylineConfig, SkylineResult};
use skyline_data::Dataset;
use skyline_parallel::ThreadPool;

/// Every skyline algorithm in the suite.
///
/// The paper's evaluation (Figures 5–13, Tables II–III) compares
/// `BSkyTree`, `PBSkyTree`, `PSkyline`, `QFlow`, and `Hybrid`; the others
/// are classic baselines included for completeness (BNL, SFS, SaLSa) and
/// building blocks exposed directly (SSkyline is PSkyline's local kernel,
/// PSFS is the "weaker Q-Flow" of \[13\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Block-nested-loops (Börzsönyi et al.).
    Bnl,
    /// Sort-filter-skyline (Chomicki et al.).
    Sfs,
    /// Sort-and-limit skyline (Bartolini et al.), with early termination.
    Salsa,
    /// Linear elimination-sort skyline (Godfrey et al.): an elimination
    /// filter during the sort, then SFS.
    Less,
    /// In-place sequential skyline of Im et al. — PSkyline's local kernel.
    SSkyline,
    /// Divide-and-conquer multicore skyline of Im et al.
    PSkyline,
    /// PSkyline with angle-based partitioning (Liknes et al.).
    APSkyline,
    /// Parallel SFS, the naive baseline of Im et al.
    Psfs,
    /// This paper's Algorithm 1: the simplified global-skyline flow.
    QFlow,
    /// This paper's full contribution: Q-Flow + point-based partitioning
    /// + the `M(S)` structure (Algorithms 2–4).
    Hybrid,
    /// Lee & Hwang's sequential state of the art (BSkyTree-P variant).
    BSkyTree,
    /// The paper's parallelization of BSkyTree (Appendix A).
    PBSkyTree,
}

impl Algorithm {
    /// All algorithms, sequential baselines first.
    pub const ALL: [Algorithm; 12] = [
        Algorithm::Bnl,
        Algorithm::Sfs,
        Algorithm::Salsa,
        Algorithm::Less,
        Algorithm::SSkyline,
        Algorithm::BSkyTree,
        Algorithm::PSkyline,
        Algorithm::APSkyline,
        Algorithm::Psfs,
        Algorithm::PBSkyTree,
        Algorithm::QFlow,
        Algorithm::Hybrid,
    ];

    /// The five algorithms of the paper's main evaluation, in its legend
    /// order.
    pub const PAPER_FIVE: [Algorithm; 5] = [
        Algorithm::BSkyTree,
        Algorithm::Hybrid,
        Algorithm::PBSkyTree,
        Algorithm::QFlow,
        Algorithm::PSkyline,
    ];

    /// Display name, matching the paper's spelling.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Bnl => "BNL",
            Algorithm::Sfs => "SFS",
            Algorithm::Salsa => "SaLSa",
            Algorithm::Less => "LESS",
            Algorithm::SSkyline => "SSkyline",
            Algorithm::PSkyline => "PSkyline",
            Algorithm::APSkyline => "APSkyline",
            Algorithm::Psfs => "PSFS",
            Algorithm::QFlow => "Q-Flow",
            Algorithm::Hybrid => "Hybrid",
            Algorithm::BSkyTree => "BSkyTree",
            Algorithm::PBSkyTree => "PBSkyTree",
        }
    }

    /// Parses a (case- and punctuation-insensitive) algorithm name.
    pub fn parse(s: &str) -> Option<Self> {
        let norm: String = s
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase();
        Self::ALL
            .into_iter()
            .find(|a| a.name().to_ascii_lowercase().replace('-', "") == norm)
    }

    /// Whether the algorithm uses the thread pool.
    pub fn is_parallel(&self) -> bool {
        matches!(
            self,
            Algorithm::PSkyline
                | Algorithm::APSkyline
                | Algorithm::Psfs
                | Algorithm::QFlow
                | Algorithm::Hybrid
                | Algorithm::PBSkyTree
        )
    }

    /// Computes the skyline of `data` with this algorithm.
    pub fn run(&self, data: &Dataset, pool: &ThreadPool, cfg: &SkylineConfig) -> SkylineResult {
        match self {
            Algorithm::Bnl => bnl::run(data, pool, cfg),
            Algorithm::Sfs => sfs::run(data, pool, cfg),
            Algorithm::Salsa => salsa::run(data, pool, cfg),
            Algorithm::Less => less::run(data, pool, cfg),
            Algorithm::SSkyline => sskyline::run(data, pool, cfg),
            Algorithm::PSkyline => pskyline::run(data, pool, cfg),
            Algorithm::APSkyline => apskyline::run(data, pool, cfg),
            Algorithm::Psfs => psfs::run(data, pool, cfg),
            Algorithm::QFlow => qflow::run(data, pool, cfg),
            Algorithm::Hybrid => hybrid::run(data, pool, cfg),
            Algorithm::BSkyTree => bskytree::run(data, pool, cfg),
            Algorithm::PBSkyTree => pbskytree::run(data, pool, cfg),
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_parse_back() {
        for a in Algorithm::ALL {
            assert_eq!(Algorithm::parse(a.name()), Some(a), "{a}");
        }
        assert_eq!(Algorithm::parse("qflow"), Some(Algorithm::QFlow));
        assert_eq!(Algorithm::parse("q-flow"), Some(Algorithm::QFlow));
        assert_eq!(Algorithm::parse("HYBRID"), Some(Algorithm::Hybrid));
        assert_eq!(Algorithm::parse("unknown"), None);
    }

    /// One phase clock: the span sink and `RunStats` are fed by the same
    /// laps, so for every algorithm the sink's DTs sum to the run's
    /// count (which is what the external handle gained), and the sink
    /// names exactly the phases with time in `RunStats`.
    #[test]
    fn sink_agrees_with_run_stats_for_every_algorithm() {
        use crate::telemetry::{AlgoPhase, Recorder, SpanSink};
        use skyline_data::{generate, Distribution};
        use skyline_parallel::LaneCounters;
        use std::sync::Arc;

        let data = generate(
            Distribution::Anticorrelated,
            3_000,
            4,
            5,
            &ThreadPool::new(2),
        );
        for t in [1, 2] {
            let pool = ThreadPool::new(t);
            for algo in Algorithm::ALL {
                let sink = Arc::new(Recorder::default());
                let handle = Arc::new(LaneCounters::new(2));
                let cfg = SkylineConfig {
                    alpha_qflow: 256,
                    alpha_hybrid: 128,
                    dt_counters: Some(Arc::clone(&handle)),
                    span_sink: Some(sink.clone() as Arc<dyn SpanSink>),
                    ..SkylineConfig::default()
                };
                let stats = algo.run(&data, &pool, &cfg).stats;
                let events = sink.events.lock().unwrap();
                let sink_dts: u64 = events.iter().map(|&(_, dts)| dts).sum();
                assert_eq!(sink_dts, stats.dominance_tests, "{algo} T={t}");
                assert_eq!(handle.total(), stats.dominance_tests, "{algo} T={t}");
                assert!(stats.dominance_tests > 0, "{algo} T={t}");
                for phase in AlgoPhase::ALL {
                    let timed = !stats.phase(phase).is_zero();
                    let reported = events.iter().any(|&(p, _)| p == phase);
                    assert_eq!(timed, reported, "{algo} T={t} {phase:?}");
                }
            }
        }
    }

    /// FNV-1a over the sorted skyline indices: one number that changes
    /// when any member does.
    fn answer_hash(indices: &[u32]) -> u64 {
        let mut sorted = indices.to_vec();
        sorted.sort_unstable();
        sorted
            .iter()
            .flat_map(|i| i.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// The work every algorithm does, pinned to the unit: for each
    /// algorithm and distribution at 2 000 × 4, the skyline size, the
    /// hash of its members, and the dominance tests at T = 1 and T = 2.
    /// PSkyline and APSkyline partition by T and PBSkyTree batches
    /// `batch_factor × T` points, so their counts differ between the
    /// two; every other count is the same at both. A change to any
    /// count is a change to the work and is stated with it. The counts
    /// hold at every dispatch level (`SKYLINE_FORCE_SCALAR=1`
    /// included).
    #[test]
    fn work_is_pinned() {
        use skyline_data::{generate, Distribution};
        use Distribution::{Anticorrelated as A, Correlated as C, Independent as I};

        #[rustfmt::skip]
        const TABLE: [(Algorithm, Distribution, usize, u64, u64, u64); 36] = [
            (Algorithm::Bnl, I, 81,  4945883330662033751, 24_597, 24_597),
            (Algorithm::Bnl, C, 51, 11757837537181168758, 19_852, 19_852),
            (Algorithm::Bnl, A, 674,  8808726691111015224, 491_043, 491_043),
            (Algorithm::Sfs, I, 81,  4945883330662033751, 20_326, 20_326),
            (Algorithm::Sfs, C, 51, 11757837537181168758, 17_276, 17_276),
            (Algorithm::Sfs, A, 674,  8808726691111015224, 294_689, 294_689),
            (Algorithm::Salsa, I, 81,  4945883330662033751, 9_424, 9_424),
            (Algorithm::Salsa, C, 51, 11757837537181168758, 6_370, 6_370),
            (Algorithm::Salsa, A, 674,  8808726691111015224, 516_334, 516_334),
            (Algorithm::Less, I, 81,  4945883330662033751, 29_560, 29_560),
            (Algorithm::Less, C, 51, 11757837537181168758, 22_667, 22_667),
            (Algorithm::Less, A, 674,  8808726691111015224, 360_610, 360_610),
            (Algorithm::SSkyline, I, 81,  4945883330662033751, 8_903, 8_903),
            (Algorithm::SSkyline, C, 51, 11757837537181168758, 5_971, 5_971),
            (Algorithm::SSkyline, A, 674,  8808726691111015224, 374_925, 374_925),
            (Algorithm::BSkyTree, I, 81,  4945883330662033751, 4_257, 4_257),
            (Algorithm::BSkyTree, C, 51, 11757837537181168758, 2_930, 2_930),
            (Algorithm::BSkyTree, A, 674,  8808726691111015224, 34_589, 34_589),
            (Algorithm::PSkyline, I, 81,  4945883330662033751, 8_903, 14_223),
            (Algorithm::PSkyline, C, 51, 11757837537181168758, 5_971, 9_048),
            (Algorithm::PSkyline, A, 674,  8808726691111015224, 374_925, 568_793),
            (Algorithm::APSkyline, I, 81,  4945883330662033751, 12_510, 11_914),
            (Algorithm::APSkyline, C, 51, 11757837537181168758, 8_123, 8_131),
            (Algorithm::APSkyline, A, 674,  8808726691111015224, 475_174, 461_988),
            (Algorithm::Psfs, I, 81,  4945883330662033751, 20_330, 20_330),
            (Algorithm::Psfs, C, 51, 11757837537181168758, 17_276, 17_276),
            (Algorithm::Psfs, A, 674,  8808726691111015224, 294_694, 294_694),
            (Algorithm::PBSkyTree, I, 81,  4945883330662033751, 6_102, 6_447),
            (Algorithm::PBSkyTree, C, 51, 11757837537181168758, 4_206, 4_639),
            (Algorithm::PBSkyTree, A, 674,  8808726691111015224, 49_985, 56_141),
            (Algorithm::QFlow, I, 81,  4945883330662033751, 24_674, 24_674),
            (Algorithm::QFlow, C, 51, 11757837537181168758, 20_467, 20_467),
            (Algorithm::QFlow, A, 674,  8808726691111015224, 295_810, 295_810),
            (Algorithm::Hybrid, I, 81,  4945883330662033751, 27_273, 27_273),
            (Algorithm::Hybrid, C, 51, 11757837537181168758, 22_024, 22_024),
            (Algorithm::Hybrid, A, 674,  8808726691111015224, 198_860, 198_860),
        ];
        let cfg = SkylineConfig {
            alpha_qflow: 256,
            alpha_hybrid: 64,
            ..SkylineConfig::default()
        };
        let gen_pool = ThreadPool::new(2);
        let data = [I, C, A].map(|dist| (dist, generate(dist, 2_000, 4, 9, &gen_pool)));
        let pools = [ThreadPool::new(1), ThreadPool::new(2)];
        let mut got = Vec::new();
        for algo in Algorithm::ALL {
            for (dist, data) in &data {
                let runs = pools.each_ref().map(|pool| algo.run(data, pool, &cfg));
                let hash = answer_hash(&runs[0].indices);
                assert_eq!(hash, answer_hash(&runs[1].indices), "{algo} {dist:?}");
                got.push((
                    algo,
                    *dist,
                    runs[0].indices.len(),
                    hash,
                    runs[0].stats.dominance_tests,
                    runs[1].stats.dominance_tests,
                ));
            }
        }
        let rows: Vec<String> = got.iter().map(|r| format!("{r:?}")).collect();
        assert_eq!(got, TABLE, "actual table:\n{}", rows.join("\n"));
    }

    #[test]
    fn paper_five_are_distinct() {
        let mut names: Vec<_> = Algorithm::PAPER_FIVE.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
    }
}
