//! Instrumented results: per-phase timings and dominance-test counts.
//!
//! The paper's granular analysis (Figures 7 and 8) decomposes running time
//! into initialization, pre-filtering, pivot selection, the two parallel
//! phases, compression, and "other". Every algorithm in this crate fills a
//! [`RunStats`] with exactly those categories so the harness can reprint
//! the paper's stacked-bar data as tables. The phase slots are filled by
//! the laps of the run's one phase clock — the same laps that report to
//! a span sink (see [`crate::telemetry`]) — and "other" is whatever the
//! run spent after its last lap.

use std::time::{Duration, Instant};

use crate::telemetry::AlgoPhase;

/// Timing and counting breakdown of a single skyline computation.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Sort-key computation, sorting, and working-set gathering ("Init.").
    pub init: Duration,
    /// β-queue pre-filtering (Hybrid only; "Pre-filter").
    pub prefilter: Duration,
    /// Pivot selection and partitioning (Hybrid, (P)BSkyTree; "Pivot").
    pub pivot: Duration,
    /// Parallel Phase I: comparisons against the known skyline (for
    /// PSkyline: the local-skyline map phase).
    pub phase1: Duration,
    /// Parallel Phase II: comparisons against block peers (for PSkyline:
    /// the merge phase).
    pub phase2: Duration,
    /// Sequential α-block compression ("Compress").
    pub compress: Duration,
    /// Wall-clock total of the whole computation.
    pub total: Duration,
    /// Number of dominance tests executed (mask computations against a
    /// pivot count as one DT, matching the paper's accounting where a DT
    /// is "one check of whether p ≺ q").
    pub dominance_tests: u64,
    /// Size of the returned skyline.
    pub skyline_size: usize,
}

impl RunStats {
    /// The wall time attributed to `phase`.
    pub fn phase(&self, phase: AlgoPhase) -> Duration {
        match phase {
            AlgoPhase::Init => self.init,
            AlgoPhase::Prefilter => self.prefilter,
            AlgoPhase::Pivot => self.pivot,
            AlgoPhase::PhaseOne => self.phase1,
            AlgoPhase::PhaseTwo => self.phase2,
            AlgoPhase::Compress => self.compress,
        }
    }

    pub(crate) fn phase_mut(&mut self, phase: AlgoPhase) -> &mut Duration {
        match phase {
            AlgoPhase::Init => &mut self.init,
            AlgoPhase::Prefilter => &mut self.prefilter,
            AlgoPhase::Pivot => &mut self.pivot,
            AlgoPhase::PhaseOne => &mut self.phase1,
            AlgoPhase::PhaseTwo => &mut self.phase2,
            AlgoPhase::Compress => &mut self.compress,
        }
    }

    /// Adds `other`'s work to this run's: every phase, the total and
    /// the dominance tests (the skyline size is left alone — a sum of
    /// partial skylines is not a skyline size).
    pub fn accumulate(&mut self, other: &RunStats) {
        for phase in AlgoPhase::ALL {
            *self.phase_mut(phase) += other.phase(phase);
        }
        self.total += other.total;
        self.dominance_tests += other.dominance_tests;
    }

    /// Everything not attributed to a named phase.
    pub fn other(&self) -> Duration {
        let named: Duration = AlgoPhase::ALL.iter().map(|&p| self.phase(p)).sum();
        self.total.saturating_sub(named)
    }

    /// Fraction of total time spent in the parallel phases (the paper
    /// reports "Phase I and Phase II … combine for up to 95 % of
    /// computation" on hard workloads).
    pub fn parallel_fraction(&self) -> f64 {
        if self.total.is_zero() {
            return 0.0;
        }
        (self.phase1 + self.phase2).as_secs_f64() / self.total.as_secs_f64()
    }
}

/// The outcome of one skyline computation.
#[derive(Debug, Clone)]
pub struct SkylineResult {
    /// Indices into the *original* dataset of the skyline points, sorted
    /// ascending. Coincident duplicates are all reported (the skyline
    /// definition keeps them: neither dominates the other).
    pub indices: Vec<u32>,
    /// Instrumentation for this run.
    pub stats: RunStats,
}

impl SkylineResult {
    pub(crate) fn finish(mut indices: Vec<u32>, mut stats: RunStats, started: Instant) -> Self {
        indices.sort_unstable();
        stats.total = started.elapsed();
        stats.skyline_size = indices.len();
        SkylineResult { indices, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn other_is_total_minus_named() {
        let stats = RunStats {
            init: Duration::from_millis(10),
            phase1: Duration::from_millis(20),
            total: Duration::from_millis(50),
            ..Default::default()
        };
        assert_eq!(stats.other(), Duration::from_millis(20));
    }

    #[test]
    fn other_saturates() {
        let stats = RunStats {
            init: Duration::from_millis(10),
            total: Duration::from_millis(5),
            ..Default::default()
        };
        assert_eq!(stats.other(), Duration::ZERO);
    }

    #[test]
    fn parallel_fraction_bounds() {
        let stats = RunStats {
            phase1: Duration::from_millis(40),
            phase2: Duration::from_millis(10),
            total: Duration::from_millis(100),
            ..Default::default()
        };
        assert!((stats.parallel_fraction() - 0.5).abs() < 1e-9);
        assert_eq!(RunStats::default().parallel_fraction(), 0.0);
    }

    #[test]
    fn finish_sorts_indices_and_sets_size() {
        let r = SkylineResult::finish(vec![5, 1, 3], RunStats::default(), Instant::now());
        assert_eq!(r.indices, vec![1, 3, 5]);
        assert_eq!(r.stats.skyline_size, 3);
    }

    #[test]
    fn accumulate_sums_every_phase_total_and_dts() {
        let part = RunStats {
            prefilter: Duration::from_millis(1),
            pivot: Duration::from_millis(2),
            compress: Duration::from_millis(3),
            total: Duration::from_millis(10),
            dominance_tests: 7,
            skyline_size: 4,
            ..Default::default()
        };
        let mut sum = RunStats::default();
        sum.accumulate(&part);
        sum.accumulate(&part);
        for phase in AlgoPhase::ALL {
            assert_eq!(sum.phase(phase), part.phase(phase) * 2, "{phase:?}");
        }
        assert_eq!(sum.total, Duration::from_millis(20));
        assert_eq!(sum.dominance_tests, 14);
        assert_eq!(sum.skyline_size, 0);
        assert_eq!(sum.other(), Duration::from_millis(8));
    }
}
