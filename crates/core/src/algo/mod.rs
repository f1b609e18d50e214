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

    #[test]
    fn paper_five_are_distinct() {
        let mut names: Vec<_> = Algorithm::PAPER_FIVE.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
    }
}
