//! Phase-boundary hooks for external observers, and the one per-run
//! instrument that drives them.
//!
//! The paper's analysis (Figures 7–8) is all about *where* time and
//! dominance tests go — Phase I versus Phase II, pre-filtering versus
//! compression. Every algorithm laps one `PhaseProbe` at each phase
//! boundary it crosses; each lap charges the wall time since the
//! previous lap to that phase's [`RunStats`] slot **and** reports the
//! phase, with the dominance tests spent since the previous lap, to the
//! span sink. The per-phase stats and an external trace therefore come
//! from the same laps and agree by construction. Two optional seams,
//! both threaded through [`SkylineConfig`], let a query engine observe
//! a run:
//!
//! * **an external DT counter handle** ([`SkylineConfig::dt_counters`]):
//!   when present, algorithms accumulate dominance tests into the
//!   caller's [`LaneCounters`] instead of a run-local set, so the caller
//!   can attribute DTs to exactly one query even when several run
//!   concurrently;
//! * **a span sink** ([`SkylineConfig::span_sink`]): receives every lap.
//!   The *sink* supplies its own timestamps (on whatever clock it
//!   likes), which is what makes externally driven manual-clock tests
//!   exact.
//!
//! Both default to `None`; without a sink a lap costs one `Instant`
//! read.

use skyline_parallel::LaneCounters;
use std::sync::Arc;
use std::time::Instant;

use crate::{RunStats, SkylineConfig, SkylineResult};

/// A named execution phase of a skyline algorithm, mirroring the
/// categories of [`RunStats`] (the paper's "Init.",
/// "Pre-filter", "Pivot", "Phase I", "Phase II", "Compress").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgoPhase {
    /// Sort-key computation, sorting, and working-set gathering.
    Init,
    /// β-queue pre-filtering (Hybrid).
    Prefilter,
    /// Pivot selection and partitioning (Hybrid, (P)BSkyTree).
    Pivot,
    /// Comparisons against the known skyline (or the sequential scan of
    /// a one-phase algorithm).
    PhaseOne,
    /// Comparisons against not-yet-confirmed block peers.
    PhaseTwo,
    /// α-block compression and result merging.
    Compress,
}

impl AlgoPhase {
    /// Every phase, in canonical pipeline order.
    pub const ALL: [AlgoPhase; 6] = [
        AlgoPhase::Init,
        AlgoPhase::Prefilter,
        AlgoPhase::Pivot,
        AlgoPhase::PhaseOne,
        AlgoPhase::PhaseTwo,
        AlgoPhase::Compress,
    ];

    /// Stable lower-case name, as used in trace renderings.
    pub fn name(&self) -> &'static str {
        match self {
            AlgoPhase::Init => "init",
            AlgoPhase::Prefilter => "prefilter",
            AlgoPhase::Pivot => "pivot",
            AlgoPhase::PhaseOne => "phase1",
            AlgoPhase::PhaseTwo => "phase2",
            AlgoPhase::Compress => "compress",
        }
    }
}

/// Receiver for phase-boundary events.
///
/// An algorithm calls [`phase_end`](Self::phase_end) every time it
/// finishes (a block's worth of) work attributable to one phase, in
/// execution order. `dominance_tests` is the number of DTs spent since
/// the previous event (not a running total). Implementations timestamp
/// the events themselves; repeated events for the same phase (α-block
/// algorithms cross each boundary once per block) are expected to be
/// aggregated by the sink.
pub trait SpanSink: Send + Sync + std::fmt::Debug {
    /// Reports that work for `phase` just finished, having spent
    /// `dominance_tests` DTs since the previous reported boundary.
    fn phase_end(&self, phase: AlgoPhase, dominance_tests: u64);
}

/// The one per-run instrument of every algorithm: it owns the run's
/// start and last-lap [`Instant`], the [`RunStats`] being filled, the
/// run's DT counter set ([`SkylineConfig::lane_counters`]) with its
/// total at run start, and the configured sink.
///
/// Parallel phases add their DTs to the counter set per lane;
/// sequential ones add their local tally to lane 0 before they lap.
#[derive(Debug)]
pub(crate) struct PhaseProbe<'a> {
    sink: Option<&'a dyn SpanSink>,
    counters: Arc<LaneCounters>,
    dt_base: u64,
    dt_mark: u64,
    started: Instant,
    last: Instant,
    stats: RunStats,
}

impl<'a> PhaseProbe<'a> {
    /// Starts the clock of one run whose parallel phases use `lanes`
    /// lanes.
    pub(crate) fn start(cfg: &'a SkylineConfig, lanes: usize) -> Self {
        let started = Instant::now();
        let counters = cfg.lane_counters(lanes);
        let dt_base = counters.total();
        Self {
            sink: cfg.span_sink.as_deref(),
            counters,
            dt_base,
            dt_mark: dt_base,
            started,
            last: started,
            stats: RunStats::default(),
        }
    }

    /// The run's DT counter set.
    pub(crate) fn counters(&self) -> &Arc<LaneCounters> {
        &self.counters
    }

    /// Marks the end of (one block's) `phase` work: charges the time
    /// since the previous lap to the phase's [`RunStats`] slot and
    /// reports the DTs spent since then to the sink, if any.
    #[inline]
    pub(crate) fn lap(&mut self, phase: AlgoPhase) {
        let now = Instant::now();
        *self.stats.phase_mut(phase) += now - self.last;
        self.last = now;
        if let Some(sink) = self.sink {
            let total = self.counters.total();
            sink.phase_end(phase, total.saturating_sub(self.dt_mark));
            self.dt_mark = total;
        }
    }

    /// Seals the run: its dominance tests are everything the counter
    /// set gained since [`start`](Self::start), all of which the laps
    /// have already reported.
    pub(crate) fn finish(mut self, indices: Vec<u32>) -> SkylineResult {
        let total = self.counters.total();
        debug_assert!(
            self.sink.is_none() || total == self.dt_mark,
            "dominance tests after the last lap never reach the sink"
        );
        self.stats.dominance_tests = total - self.dt_base;
        SkylineResult::finish(indices, self.stats, self.started)
    }
}

impl SkylineConfig {
    /// The DT counter set for one run: the externally supplied handle
    /// when one is present (and wide enough for `lanes`), otherwise a
    /// fresh run-local set. A shared handle may carry counts from an
    /// earlier run of the same query, which is why `PhaseProbe`
    /// reports the *difference* from its total at run start.
    pub fn lane_counters(&self, lanes: usize) -> Arc<LaneCounters> {
        match &self.dt_counters {
            Some(handle) if handle.lanes() >= lanes.max(1) => Arc::clone(handle),
            _ => Arc::new(LaneCounters::new(lanes)),
        }
    }
}

/// A sink that records every event, for tests.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct Recorder {
    pub(crate) events: std::sync::Mutex<Vec<(AlgoPhase, u64)>>,
}

#[cfg(test)]
impl SpanSink for Recorder {
    fn phase_end(&self, phase: AlgoPhase, dominance_tests: u64) {
        self.events.lock().unwrap().push((phase, dominance_tests));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_reports_dt_deltas_not_totals() {
        let sink = Arc::new(Recorder::default());
        let cfg = SkylineConfig {
            span_sink: Some(sink.clone() as Arc<dyn SpanSink>),
            ..Default::default()
        };
        let mut probe = PhaseProbe::start(&cfg, 2);
        let counters = Arc::clone(probe.counters());
        counters.add(0, 10);
        probe.lap(AlgoPhase::PhaseOne);
        counters.add(1, 5);
        probe.lap(AlgoPhase::PhaseTwo);
        probe.lap(AlgoPhase::Compress);
        assert_eq!(
            *sink.events.lock().unwrap(),
            vec![
                (AlgoPhase::PhaseOne, 10),
                (AlgoPhase::PhaseTwo, 5),
                (AlgoPhase::Compress, 0)
            ]
        );
        assert_eq!(probe.finish(Vec::new()).stats.dominance_tests, 15);
    }

    #[test]
    fn probe_accounts_for_preexisting_counts() {
        let sink = Arc::new(Recorder::default());
        let counters = Arc::new(LaneCounters::new(1));
        counters.add(0, 100); // an earlier run of the same query
        let cfg = SkylineConfig {
            dt_counters: Some(Arc::clone(&counters)),
            span_sink: Some(sink.clone() as Arc<dyn SpanSink>),
            ..Default::default()
        };
        let mut probe = PhaseProbe::start(&cfg, 1);
        counters.add(0, 7);
        probe.lap(AlgoPhase::PhaseOne);
        assert_eq!(*sink.events.lock().unwrap(), vec![(AlgoPhase::PhaseOne, 7)]);
        assert_eq!(probe.finish(Vec::new()).stats.dominance_tests, 7);
    }

    #[test]
    fn config_helpers_respect_absent_hooks() {
        let cfg = SkylineConfig::default();
        // No handle: fresh counters of the requested width.
        let c = cfg.lane_counters(4);
        assert_eq!(c.lanes(), 4);

        // A wide-enough handle is reused; a too-narrow one is not.
        let handle = Arc::new(LaneCounters::new(2));
        let cfg = SkylineConfig {
            dt_counters: Some(Arc::clone(&handle)),
            ..Default::default()
        };
        assert!(Arc::ptr_eq(&cfg.lane_counters(2), &handle));
        assert!(!Arc::ptr_eq(&cfg.lane_counters(8), &handle));
    }
}
