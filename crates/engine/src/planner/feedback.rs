//! Online re-fitting of the planner's thresholds from observed
//! runtimes — the feedback loop closing the gap between the paper's
//! machine-specific constants and whatever hardware and workload this
//! engine actually runs on.
//!
//! ## How it works
//!
//! Every completed query yields an [`Observation`]: the strategy that
//! ran, the live cardinality, the effective dimensionality, the
//! preference mask, the planner's sampled skyline fraction, the α the
//! algorithm ran with, and the measured runtime. [`FeedbackLoop::record`]
//! folds each observation into a **bucketed running aggregate** —
//! recording is one short mutex-protected hash-map update, cheap enough
//! for every query to pay.
//!
//! ### Bucketing
//!
//! Observations land in buckets keyed by
//! `(plan kind, ⌊log₂ n⌋, d, |pref mask|, ⌊8·frac⌋, log₂ α)`:
//!
//! * cardinality is bucketed by its floor log₂ — the planner's
//!   thresholds are crossover points on an exponential axis, so octave
//!   resolution is exactly what re-fitting them needs;
//! * the sampled skyline fraction is bucketed into eighths, matching
//!   the granularity at which `dense_frac` is worth moving;
//! * the preference mask contributes its popcount (how many dimensions
//!   are maximised), which is what affects cost, rather than the raw
//!   mask, which would explode the key space;
//! * α contributes its log₂ so block-size candidates can be compared.
//!
//! Each bucket keeps `(count, Σ runtime, Σ rows)` — enough for mean
//! runtime and per-row throughput, nothing that grows with the stream.
//!
//! ### Refit cadence
//!
//! [`FeedbackLoop::maybe_refit`] is called after each recorded
//! observation. It consults the [`Clock`]: if less than
//! [`FeedbackConfig::refit_interval`] has passed since the last refit,
//! it returns immediately (one atomic load). When a refit is due, a
//! single caller is elected by compare-and-swap (concurrent queries
//! never stampede the fitter), the aggregates are fitted into a fresh
//! [`PlannerConfig`], and — only if something actually moved — the new
//! config is [installed](crate::Planner::install) atomically. In-flight
//! plans keep the snapshot they took; there is no locking on the plan
//! path.
//!
//! ### Hysteresis
//!
//! Every comparison the fitter makes uses a multiplicative band
//! ([`FeedbackConfig::hysteresis`]): strategy A only "wins" a bucket
//! against strategy B when `mean(A) · (1 + band) < mean(B)`. Two
//! strategies within the band produce no winner, no threshold movement,
//! and therefore no plan-choice oscillation — the planner keeps doing
//! whatever it already does until the evidence is decisive. Buckets
//! with fewer than [`FeedbackConfig::min_observations`] samples are
//! ignored entirely.
//!
//! ### Exploration
//!
//! The α fitter can only compare block sizes that plans actually ran
//! with — and plans run with the incumbent α, so without intervention
//! the evidence never widens. Every
//! [`FeedbackConfig::explore_every`]-th refit therefore *perturbs* the
//! incumbent block size by one log₂ step (direction alternating on a
//! deterministic exploration counter — no wall clock, no randomness),
//! installs the perturbed value for exactly one refit interval, and
//! rolls it back at the next refit. Observations gathered under the
//! perturbed α land in their own bucket, so later fits see at least two
//! block sizes and can move the override on evidence (under the usual
//! hysteresis band). Set `explore_every` to 0 to disable.
//!
//! ### The Clock seam
//!
//! All of the above is driven through the [`Clock`] trait rather than
//! `Instant::now()`. Production engines use
//! [`MonotonicClock`](crate::MonotonicClock); tests hand the engine a
//! [`ManualClock`](crate::ManualClock) and advance it explicitly, so
//! every refit decision — due or not due, elected or skipped, installed
//! or held back by hysteresis — is exact and reproducible, with no
//! sleeps and no timing flakes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use skyline_core::algo::Algorithm;

use crate::clock::Clock;
use crate::planner::{Planner, PlannerConfig, QueryPlan, Strategy};
use crate::telemetry::QueueWaitHistograms;

/// Knobs for the [`FeedbackLoop`], carried by
/// [`EngineConfig`](crate::EngineConfig).
#[derive(Debug, Clone, PartialEq)]
pub struct FeedbackConfig {
    /// Master switch. Off (the default) means the engine records
    /// nothing and the planner keeps its static thresholds.
    pub enabled: bool,
    /// Minimum time between refit passes.
    pub refit_interval: Duration,
    /// A bucket participates in fitting only once it has at least this
    /// many observations.
    pub min_observations: u64,
    /// Multiplicative hysteresis band: a strategy must be cheaper by
    /// this fraction to win a bucket. `0.15` means "at least 15 %
    /// faster or it's a tie".
    pub hysteresis: f32,
    /// Every this-many-th refit perturbs the incumbent α by ±1 log₂
    /// step for one refit interval, so the fitter sees block sizes
    /// other than the one plans keep running with (see the module docs,
    /// "Exploration"). `0` disables exploration.
    pub explore_every: u32,
}

impl Default for FeedbackConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            refit_interval: Duration::from_secs(2),
            min_observations: 16,
            hysteresis: 0.15,
            explore_every: 8,
        }
    }
}

impl FeedbackConfig {
    /// An enabled config with the default cadence and band.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }
}

/// The kind of plan an observation describes — [`Strategy`] with the
/// algorithm flattened in and version details dropped, so it can key a
/// bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanKind {
    /// Served from the result cache.
    Cached,
    /// Definitional answer, nothing computed.
    Trivial,
    /// One pass over the live rows for the extreme of one dimension.
    MinScan,
    /// Delta maintenance over a prior cached result.
    Delta,
    /// Per-shard fan-out over an attached sharded store, merged with
    /// witness pruning.
    Sharded,
    /// A full algorithm run.
    Algo(Algorithm),
}

impl From<&Strategy> for PlanKind {
    fn from(s: &Strategy) -> Self {
        match s {
            Strategy::Cached => PlanKind::Cached,
            Strategy::Trivial => PlanKind::Trivial,
            Strategy::MinScan { .. } => PlanKind::MinScan,
            Strategy::Delta { .. } => PlanKind::Delta,
            Strategy::Sharded { .. } => PlanKind::Sharded,
            Strategy::Algorithm(a) => PlanKind::Algo(*a),
        }
    }
}

impl PlanKind {
    /// Short label for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PlanKind::Cached => "cache",
            PlanKind::Trivial => "trivial",
            PlanKind::MinScan => "min-scan",
            PlanKind::Delta => "delta",
            PlanKind::Sharded => "sharded",
            PlanKind::Algo(a) => a.name(),
        }
    }
}

/// One completed query, as the feedback loop sees it.
#[derive(Debug, Clone)]
pub struct Observation {
    /// What ran.
    pub kind: PlanKind,
    /// Live rows at execution time.
    pub n: usize,
    /// Effective (discriminating) dimensionality.
    pub d: usize,
    /// Bitmask of maximised dimensions.
    pub max_mask: u32,
    /// The planner's sampled skyline fraction, when it sampled.
    pub sample_skyline_frac: Option<f32>,
    /// The block size the algorithm ran with (parallel plans only).
    pub alpha: Option<usize>,
    /// Measured **compute** runtime: plan execution only, queueing
    /// excluded. This is the value every threshold fit reads.
    pub runtime: Duration,
    /// Time the query spent in the admission queue before running
    /// (zero for directly executed or cache-short-circuited queries).
    /// Informational: wait telemetry lives in the engine's
    /// `session.queue_wait` histograms (the single source
    /// [`FeedbackStats::queue_wait`] is derived from), and is **never**
    /// folded into the fitted runtimes — a loaded queue must not
    /// masquerade as a slow algorithm.
    pub queue_wait: Duration,
}

impl Observation {
    /// Builds the observation for an executed plan: kind, density, and
    /// α are read off the plan; `n` and the mask come from the query's
    /// prepared context.
    pub fn from_plan(plan: &QueryPlan, n: usize, max_mask: u32, runtime: Duration) -> Self {
        let kind = PlanKind::from(&plan.strategy);
        let alpha = match kind {
            PlanKind::Algo(Algorithm::QFlow) => Some(plan.config.alpha_qflow),
            PlanKind::Algo(Algorithm::Hybrid) => Some(plan.config.alpha_hybrid),
            _ => None,
        };
        Self {
            kind,
            n,
            d: plan.effective_dims.len(),
            max_mask,
            sample_skyline_frac: plan.sample_skyline_frac,
            alpha,
            runtime,
            queue_wait: Duration::ZERO,
        }
    }

    /// Stamps the time the query waited in the admission queue before
    /// its plan ran.
    pub fn queued(mut self, queue_wait: Duration) -> Self {
        self.queue_wait = queue_wait;
        self
    }
}

/// Sentinel for "feature absent" in a bucket key slot.
const NONE_BUCKET: u8 = u8::MAX;

/// Number of skyline-fraction buckets (eighths of `[0, 1]`).
const FRAC_BUCKETS: u8 = 8;

/// Hard cap on distinct buckets; past it, observations for brand-new
/// shapes are still counted globally but open no new bucket. Far above
/// anything a real workload produces — a safety valve, not a budget.
const MAX_BUCKETS: usize = 4096;

/// Bounds the fitter never crosses, whatever the observations say.
const TINY_N_BOUNDS: (usize, usize) = (64, 1 << 15);
const SMALL_N_BOUNDS: (usize, usize) = (256, 1 << 17);
const DENSE_FRAC_BOUNDS: (f32, f32) = (0.01, 0.95);
const DELTA_CAP_BOUNDS: (usize, usize) = (16, 4096);
/// log₂ bounds exploration keeps a perturbed α within (64 .. 1 Mi).
const ALPHA_LOG2_BOUNDS: (u8, u8) = (6, 20);

fn n_bucket(n: usize) -> u8 {
    (usize::BITS - 1).saturating_sub(n.leading_zeros()).min(62) as u8
}

fn frac_bucket(frac: Option<f32>) -> u8 {
    match frac {
        Some(f) => ((f.clamp(0.0, 1.0) * FRAC_BUCKETS as f32) as u8).min(FRAC_BUCKETS - 1),
        None => NONE_BUCKET,
    }
}

fn alpha_bucket(alpha: Option<usize>) -> u8 {
    match alpha {
        Some(a) => n_bucket(a.max(1)),
        None => NONE_BUCKET,
    }
}

/// Identity of one aggregate bucket. See the module docs for the
/// semantics of each slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BucketKey {
    kind: PlanKind,
    n_log2: u8,
    d: u8,
    max_prefs: u8,
    frac: u8,
    alpha_log2: u8,
}

impl BucketKey {
    fn of(obs: &Observation) -> Self {
        Self {
            kind: obs.kind,
            n_log2: n_bucket(obs.n.max(1)),
            d: obs.d.min(NONE_BUCKET as usize) as u8,
            max_prefs: obs.max_mask.count_ones() as u8,
            frac: frac_bucket(obs.sample_skyline_frac),
            alpha_log2: alpha_bucket(obs.alpha),
        }
    }
}

/// Constant-size running aggregate of one bucket.
#[derive(Debug, Clone, Copy, Default)]
struct Aggregate {
    count: u64,
    total_ns: u64,
    total_rows: u64,
}

impl Aggregate {
    fn fold(&mut self, obs: &Observation) {
        self.count += 1;
        self.total_ns = self
            .total_ns
            .saturating_add(obs.runtime.as_nanos().min(u64::MAX as u128) as u64);
        self.total_rows = self.total_rows.saturating_add(obs.n as u64);
    }

    fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64
    }

    fn ns_per_row(&self) -> f64 {
        self.total_ns as f64 / self.total_rows.max(1) as f64
    }
}

/// Counters describing the loop's activity, for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeedbackStats {
    /// Observations recorded.
    pub observations: u64,
    /// Completed queries that waited a nonzero time in the admission
    /// queue, read off the shared `session.queue_wait` histograms
    /// ([`QueueWaitHistograms`]) — the loop keeps no wait tally of its
    /// own.
    pub queued_observations: u64,
    /// Total admission-queue wait across those completions, from the
    /// same histograms. Telemetry only: queue wait never enters the
    /// bucket aggregates, so fits see pure compute time.
    pub queue_wait: Duration,
    /// Fit passes run (time-gated or forced).
    pub refits: u64,
    /// Fit passes that actually changed the live config.
    pub installs: u64,
    /// α explorations performed (each lasts one refit interval).
    pub explorations: u64,
    /// Distinct aggregate buckets currently held.
    pub buckets: usize,
}

/// The recorder + refitter. One per engine; shared behind an `Arc` so
/// tests and tooling can inject observations and force refits.
#[derive(Debug)]
pub struct FeedbackLoop {
    cfg: FeedbackConfig,
    clock: Arc<dyn Clock>,
    buckets: Mutex<HashMap<BucketKey, Aggregate>>,
    /// Clock reading (ns) of the last refit election.
    last_refit_ns: AtomicU64,
    observations: AtomicU64,
    /// The engine-shared per-class queue-wait histograms; the single
    /// source of the wait aggregates [`stats`](Self::stats) reports.
    waits: Arc<QueueWaitHistograms>,
    refits: AtomicU64,
    installs: AtomicU64,
    explorations: AtomicU64,
    /// Saved pre-exploration α overrides `[qflow, hybrid]`: `Some(v)`
    /// means an exploration is standing and `v` must be restored at the
    /// next refit.
    explore_restore: Mutex<[Option<Option<usize>>; 2]>,
}

impl FeedbackLoop {
    /// A loop reading time from `clock`, with its own (private)
    /// queue-wait histograms. An engine shares its histograms instead
    /// via [`with_waits`](Self::with_waits).
    pub fn new(cfg: FeedbackConfig, clock: Arc<dyn Clock>) -> Self {
        Self::with_waits(cfg, clock, Arc::new(QueueWaitHistograms::new()))
    }

    /// A loop whose wait aggregates read from the caller's shared
    /// `session.queue_wait` histograms.
    pub fn with_waits(
        cfg: FeedbackConfig,
        clock: Arc<dyn Clock>,
        waits: Arc<QueueWaitHistograms>,
    ) -> Self {
        Self {
            cfg,
            clock,
            buckets: Mutex::new(HashMap::new()),
            last_refit_ns: AtomicU64::new(0),
            observations: AtomicU64::new(0),
            waits,
            refits: AtomicU64::new(0),
            installs: AtomicU64::new(0),
            explorations: AtomicU64::new(0),
            explore_restore: Mutex::new([None, None]),
        }
    }

    /// The queue-wait histograms this loop derives its wait stats from.
    pub fn waits(&self) -> &Arc<QueueWaitHistograms> {
        &self.waits
    }

    /// The loop's configuration.
    pub fn config(&self) -> &FeedbackConfig {
        &self.cfg
    }

    /// The loop's time source.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Folds one observation into its bucket. One short lock; constant
    /// work.
    pub fn record(&self, obs: Observation) {
        self.observations.fetch_add(1, Ordering::Relaxed);
        // Queue wait stays out of the aggregates entirely: the fit must
        // compare algorithms on compute time, not on how congested the
        // admission queue happened to be. Wait telemetry lives in the
        // shared `session.queue_wait` histograms, written at ticket
        // completion.
        let key = BucketKey::of(&obs);
        let mut buckets = self.buckets.lock().unwrap_or_else(|e| e.into_inner());
        if buckets.len() >= MAX_BUCKETS && !buckets.contains_key(&key) {
            return;
        }
        buckets.entry(key).or_default().fold(&obs);
    }

    /// True when the refit interval has elapsed since the last refit.
    pub fn due(&self) -> bool {
        let now = self.clock.now().as_nanos().min(u64::MAX as u128) as u64;
        let last = self.last_refit_ns.load(Ordering::Acquire);
        now.saturating_sub(last) >= self.cfg.refit_interval.as_nanos() as u64
    }

    /// Runs a refit if one is due, electing a single caller under
    /// concurrency. Returns whether the live config changed.
    pub fn maybe_refit(&self, planner: &Planner) -> bool {
        // One load serves both the due-ness check and the CAS expected
        // operand: a caller that raced past a winner's fresh timestamp
        // fails the CAS (its `last` is stale) instead of re-winning
        // against the new value and running a second fit in the same
        // interval.
        let now = self.clock.now().as_nanos().min(u64::MAX as u128) as u64;
        let last = self.last_refit_ns.load(Ordering::Acquire);
        if now.saturating_sub(last) < self.cfg.refit_interval.as_nanos() as u64 {
            return false;
        }
        // Elect exactly one refitter; losers simply continue serving.
        if self
            .last_refit_ns
            .compare_exchange(last, now.max(last + 1), Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        self.run_fit(planner)
    }

    /// Runs a refit immediately, ignoring the cadence (tests, tooling,
    /// end-of-phase reporting). Returns whether the live config
    /// changed.
    pub fn refit_now(&self, planner: &Planner) -> bool {
        let now = self.clock.now().as_nanos().min(u64::MAX as u128) as u64;
        self.last_refit_ns.store(now, Ordering::Release);
        self.run_fit(planner)
    }

    fn run_fit(&self, planner: &Planner) -> bool {
        let refit_no = self.refits.fetch_add(1, Ordering::Relaxed);
        let current = planner.config();
        // Roll back a standing exploration first, so a perturbed α
        // lives exactly one refit interval and never becomes the
        // incumbent by inertia; the fit below re-adopts it only if the
        // gathered evidence is decisive.
        let mut base = (*current).clone();
        {
            let mut restore = self
                .explore_restore
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            if let Some(saved) = restore[0].take() {
                base.alpha_qflow = saved;
            }
            if let Some(saved) = restore[1].take() {
                base.alpha_hybrid = saved;
            }
        }
        let mut fitted = self.fit(&base);
        self.maybe_explore(&mut fitted, refit_no);
        let changed = planner.install(fitted);
        if changed {
            self.installs.fetch_add(1, Ordering::Relaxed);
        }
        changed
    }

    /// Every `explore_every`-th refit, perturbs the incumbent α of each
    /// parallel algorithm by one log₂ step (direction alternating on
    /// the exploration counter — fully deterministic) and remembers the
    /// value to restore at the next refit.
    fn maybe_explore(&self, fitted: &mut PlannerConfig, refit_no: u64) {
        let every = self.cfg.explore_every as u64;
        if every == 0 || (refit_no + 1) % every != 0 {
            return;
        }
        let buckets = self.buckets.lock().unwrap_or_else(|e| e.into_inner());
        let qflow = incumbent_alpha_bucket(&buckets, Algorithm::QFlow);
        let hybrid = incumbent_alpha_bucket(&buckets, Algorithm::Hybrid);
        drop(buckets);
        if qflow.is_none() && hybrid.is_none() {
            return; // nothing observed yet — nothing to explore around
        }
        let up = self.explorations.fetch_add(1, Ordering::Relaxed) % 2 == 0;
        let mut restore = self
            .explore_restore
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if let Some(b) = qflow {
            restore[0] = Some(fitted.alpha_qflow);
            fitted.alpha_qflow = Some(1usize << perturbed_bucket(b, up));
        }
        if let Some(b) = hybrid {
            restore[1] = Some(fitted.alpha_hybrid);
            fitted.alpha_hybrid = Some(1usize << perturbed_bucket(b, up));
        }
    }

    /// Activity counters. The wait pair is read off the shared
    /// queue-wait histograms, not a loop-local tally.
    pub fn stats(&self) -> FeedbackStats {
        let (queued_observations, queue_wait) = self.waits.queued_total();
        FeedbackStats {
            observations: self.observations.load(Ordering::Relaxed),
            queued_observations,
            queue_wait,
            refits: self.refits.load(Ordering::Relaxed),
            installs: self.installs.load(Ordering::Relaxed),
            explorations: self.explorations.load(Ordering::Relaxed),
            buckets: self.buckets.lock().unwrap_or_else(|e| e.into_inner()).len(),
        }
    }

    /// Drops every aggregate (tests and phase boundaries).
    pub fn clear(&self) {
        self.buckets
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }

    /// Fits a fresh config from the aggregates, starting from
    /// `current`. Pure: no state is modified, nothing is installed.
    pub fn fit(&self, current: &PlannerConfig) -> PlannerConfig {
        let buckets = self.buckets.lock().unwrap_or_else(|e| e.into_inner());
        let snapshot: Vec<(BucketKey, Aggregate)> = buckets
            .iter()
            .filter(|(_, a)| a.count >= self.cfg.min_observations)
            .map(|(k, a)| (*k, *a))
            .collect();
        drop(buckets);
        let band = self.cfg.hysteresis.max(0.0) as f64;
        let mut fitted = current.clone();

        // BNL / SFS crossover.
        let bnl = mean_by_n(&snapshot, PlanKind::Algo(Algorithm::Bnl));
        let sfs = mean_by_n(&snapshot, PlanKind::Algo(Algorithm::Sfs));
        if let Some(t) = fit_crossover(&bnl, &sfs, current.tiny_n, band) {
            fitted.tiny_n = t.clamp(TINY_N_BOUNDS.0, TINY_N_BOUNDS.1);
        }

        // SFS / parallel crossover: the parallel side is the cheaper of
        // Q-Flow and Hybrid per bucket.
        let qflow = mean_by_n(&snapshot, PlanKind::Algo(Algorithm::QFlow));
        let hybrid = mean_by_n(&snapshot, PlanKind::Algo(Algorithm::Hybrid));
        let parallel = merge_min(&qflow, &hybrid);
        if let Some(t) = fit_crossover(&sfs, &parallel, current.small_n, band) {
            fitted.small_n = t.clamp(SMALL_N_BOUNDS.0, SMALL_N_BOUNDS.1);
        }
        // The tiers must stay ordered whatever the independent fits
        // said.
        fitted.small_n = fitted.small_n.max(fitted.tiny_n);

        // Q-Flow / Hybrid density crossover.
        if let Some(f) = fit_dense_frac(&snapshot, current.dense_frac, band) {
            fitted.dense_frac = f.clamp(DENSE_FRAC_BOUNDS.0, DENSE_FRAC_BOUNDS.1);
        }

        // α refits: per algorithm, the observed block size with the
        // best per-row throughput, if it decisively beats the one plans
        // have been running with.
        if let Some(a) = fit_alpha(&snapshot, Algorithm::QFlow, band) {
            fitted.alpha_qflow = Some(a);
        }
        if let Some(a) = fit_alpha(&snapshot, Algorithm::Hybrid, band) {
            fitted.alpha_hybrid = Some(a);
        }

        // Delta cap: is patching still decisively cheaper than the
        // recomputation it displaces?
        if let Some(c) = fit_delta_cap(&snapshot, current.delta_cap, band) {
            fitted.delta_cap = c.clamp(DELTA_CAP_BOUNDS.0, DELTA_CAP_BOUNDS.1);
        }

        fitted
    }
}

/// Mean runtime of `kind` per cardinality bucket, aggregated over every
/// other key dimension (weighted by observation count).
fn mean_by_n(snapshot: &[(BucketKey, Aggregate)], kind: PlanKind) -> Vec<(u8, f64)> {
    let mut acc: HashMap<u8, Aggregate> = HashMap::new();
    for (key, agg) in snapshot {
        if key.kind == kind {
            let slot = acc.entry(key.n_log2).or_default();
            slot.count += agg.count;
            slot.total_ns = slot.total_ns.saturating_add(agg.total_ns);
        }
    }
    let mut out: Vec<(u8, f64)> = acc.into_iter().map(|(b, a)| (b, a.mean_ns())).collect();
    out.sort_by_key(|&(b, _)| b);
    out
}

/// Per-bucket elementwise minimum of two mean series.
fn merge_min(a: &[(u8, f64)], b: &[(u8, f64)]) -> Vec<(u8, f64)> {
    let mut acc: HashMap<u8, f64> = a.iter().copied().collect();
    for &(bucket, mean) in b {
        acc.entry(bucket)
            .and_modify(|m| *m = m.min(mean))
            .or_insert(mean);
    }
    let mut out: Vec<(u8, f64)> = acc.into_iter().collect();
    out.sort_by_key(|&(bucket, _)| bucket);
    out
}

/// `a` decisively cheaper than `b` under the hysteresis band.
fn wins(a: f64, b: f64, band: f64) -> bool {
    a * (1.0 + band) < b
}

/// Fits an `n ≤ threshold → small-side strategy` crossover from two
/// per-cardinality-bucket mean series. Returns `None` (keep the
/// current threshold) when the buckets the two strategies share carry
/// no decisive winner, or when the winners contradict each other
/// (small-side winning *above* a large-side win — noise, not signal).
fn fit_crossover(
    small: &[(u8, f64)],
    large: &[(u8, f64)],
    current: usize,
    band: f64,
) -> Option<usize> {
    let large_of: HashMap<u8, f64> = large.iter().copied().collect();
    let mut last_small_win: Option<u8> = None;
    let mut first_large_win: Option<u8> = None;
    for &(bucket, small_mean) in small {
        let Some(&large_mean) = large_of.get(&bucket) else {
            continue;
        };
        if wins(small_mean, large_mean, band) {
            last_small_win = Some(last_small_win.map_or(bucket, |b| b.max(bucket)));
        } else if wins(large_mean, small_mean, band) {
            first_large_win = Some(first_large_win.map_or(bucket, |b| b.min(bucket)));
        }
    }
    match (last_small_win, first_large_win) {
        (None, None) => None,
        // Small side wins everywhere observed: extend its reign to the
        // top of its highest winning bucket (never shrink below the
        // current threshold on one-sided evidence).
        (Some(s), None) => Some(current.max((1usize << (s + 1)) - 1)),
        // Large side wins everywhere observed: pull the threshold
        // below its lowest winning bucket.
        (None, Some(f)) => Some(current.min((1usize << f) - 1)),
        // Clean crossover: boundary at the bottom of the large side's
        // first winning bucket.
        (Some(s), Some(f)) if f > s => Some((1usize << f) - 1),
        // Contradictory winners: keep the current threshold.
        _ => None,
    }
}

/// Fits `dense_frac` from Q-Flow vs Hybrid means per skyline-fraction
/// bucket (low fractions should favour Q-Flow, high ones Hybrid).
fn fit_dense_frac(snapshot: &[(BucketKey, Aggregate)], current: f32, band: f64) -> Option<f32> {
    let mut acc: HashMap<(PlanKind, u8), Aggregate> = HashMap::new();
    for (key, agg) in snapshot {
        if key.frac == NONE_BUCKET {
            continue;
        }
        if matches!(
            key.kind,
            PlanKind::Algo(Algorithm::QFlow) | PlanKind::Algo(Algorithm::Hybrid)
        ) {
            let slot = acc.entry((key.kind, key.frac)).or_default();
            slot.count += agg.count;
            slot.total_ns = slot.total_ns.saturating_add(agg.total_ns);
            slot.total_rows = slot.total_rows.saturating_add(agg.total_rows);
        }
    }
    let mut last_qflow_win: Option<u8> = None;
    let mut first_hybrid_win: Option<u8> = None;
    for bucket in 0..FRAC_BUCKETS {
        let q = acc.get(&(PlanKind::Algo(Algorithm::QFlow), bucket));
        let h = acc.get(&(PlanKind::Algo(Algorithm::Hybrid), bucket));
        let (Some(q), Some(h)) = (q, h) else { continue };
        // Compare per-row cost: the two strategies need not have seen
        // identically sized datasets within a fraction bucket.
        let (qm, hm) = (q.ns_per_row(), h.ns_per_row());
        if wins(qm, hm, band) {
            last_qflow_win = Some(last_qflow_win.map_or(bucket, |b| b.max(bucket)));
        } else if wins(hm, qm, band) {
            first_hybrid_win = Some(first_hybrid_win.map_or(bucket, |b| b.min(bucket)));
        }
    }
    let width = 1.0 / FRAC_BUCKETS as f32;
    match (last_qflow_win, first_hybrid_win) {
        (None, None) => None,
        (Some(q), None) => Some(current.max((q as f32 + 1.0) * width)),
        (None, Some(h)) => Some(current.min(h as f32 * width - width / 4.0)),
        (Some(q), Some(h)) if h > q => Some(h as f32 * width - width / 4.0),
        _ => None,
    }
}

/// The block-size bucket `algo` plans have mostly been running with
/// (ties break to the smaller α for determinism). Unlike the fitter
/// this reads *all* buckets — exploration wants to know what runs, not
/// what is statistically settled.
fn incumbent_alpha_bucket(buckets: &HashMap<BucketKey, Aggregate>, algo: Algorithm) -> Option<u8> {
    let mut acc: HashMap<u8, u64> = HashMap::new();
    for (key, agg) in buckets {
        if key.kind == PlanKind::Algo(algo) && key.alpha_log2 != NONE_BUCKET {
            *acc.entry(key.alpha_log2).or_default() += agg.count;
        }
    }
    acc.into_iter()
        .max_by(|(a, x), (b, y)| x.cmp(y).then(b.cmp(a)))
        .map(|(b, _)| b)
}

/// One log₂ step away from `bucket`, clamped to [`ALPHA_LOG2_BOUNDS`].
fn perturbed_bucket(bucket: u8, up: bool) -> u8 {
    if up {
        (bucket + 1).clamp(ALPHA_LOG2_BOUNDS.0, ALPHA_LOG2_BOUNDS.1)
    } else {
        bucket
            .saturating_sub(1)
            .clamp(ALPHA_LOG2_BOUNDS.0, ALPHA_LOG2_BOUNDS.1)
    }
}

/// Fits an α override for `algo`: the observed block-size bucket with
/// the best per-row throughput, provided it decisively beats the
/// block size plans have mostly been running with.
fn fit_alpha(snapshot: &[(BucketKey, Aggregate)], algo: Algorithm, band: f64) -> Option<usize> {
    let mut acc: HashMap<u8, Aggregate> = HashMap::new();
    for (key, agg) in snapshot {
        if key.kind == PlanKind::Algo(algo) && key.alpha_log2 != NONE_BUCKET {
            let slot = acc.entry(key.alpha_log2).or_default();
            slot.count += agg.count;
            slot.total_ns = slot.total_ns.saturating_add(agg.total_ns);
            slot.total_rows = slot.total_rows.saturating_add(agg.total_rows);
        }
    }
    if acc.len() < 2 {
        return None;
    }
    // Incumbent: the block size most plans actually used. Break count
    // ties and throughput ties by the smaller α for determinism.
    let incumbent = *acc
        .iter()
        .max_by(|(a, x), (b, y)| x.count.cmp(&y.count).then(b.cmp(a)))
        .expect("len >= 2")
        .0;
    let best = *acc
        .iter()
        .min_by(|(a, x), (b, y)| {
            x.ns_per_row()
                .partial_cmp(&y.ns_per_row())
                .expect("finite means")
                .then(a.cmp(b))
        })
        .expect("len >= 2")
        .0;
    if best != incumbent && wins(acc[&best].ns_per_row(), acc[&incumbent].ns_per_row(), band) {
        Some(1usize << best)
    } else {
        None
    }
}

/// Fits the delta cap: compares the mean delta-plan runtime against the
/// mean recomputation runtime over the cardinality buckets where delta
/// plans were observed. Patching must stay decisively cheaper than the
/// recomputation it displaces, with headroom — the cap grows only when
/// patching is ≥ 4× cheaper and shrinks as soon as the margin is gone.
fn fit_delta_cap(snapshot: &[(BucketKey, Aggregate)], current: usize, band: f64) -> Option<usize> {
    let mut delta = Aggregate::default();
    let mut delta_buckets: Vec<u8> = Vec::new();
    for (key, agg) in snapshot {
        if key.kind == PlanKind::Delta {
            delta.count += agg.count;
            delta.total_ns = delta.total_ns.saturating_add(agg.total_ns);
            delta_buckets.push(key.n_log2);
        }
    }
    if delta.count == 0 {
        return None;
    }
    let mut recompute = Aggregate::default();
    for (key, agg) in snapshot {
        if matches!(key.kind, PlanKind::Algo(_)) && delta_buckets.contains(&key.n_log2) {
            recompute.count += agg.count;
            recompute.total_ns = recompute.total_ns.saturating_add(agg.total_ns);
        }
    }
    if recompute.count == 0 {
        return None;
    }
    let (dm, rm) = (delta.mean_ns(), recompute.mean_ns());
    if !wins(dm, rm, band) {
        // Patching no longer pays: halve the window.
        Some(current / 2)
    } else if wins(dm * 4.0, rm, band) {
        // Patching is far cheaper than recomputation: widen the window.
        Some(current * 2)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn obs(
        kind: PlanKind,
        n: usize,
        frac: Option<f32>,
        alpha: Option<usize>,
        us: u64,
    ) -> Observation {
        Observation {
            kind,
            n,
            d: 4,
            max_mask: 0,
            sample_skyline_frac: frac,
            alpha,
            runtime: Duration::from_micros(us),
            queue_wait: Duration::ZERO,
        }
    }

    fn quick_loop(min_obs: u64) -> (FeedbackLoop, Arc<ManualClock>) {
        let clock = ManualClock::shared();
        let fb = FeedbackLoop::new(
            FeedbackConfig {
                enabled: true,
                refit_interval: Duration::from_secs(1),
                min_observations: min_obs,
                hysteresis: 0.15,
                explore_every: 0, // fitter tests want pure fits
            },
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        (fb, clock)
    }

    fn feed(fb: &FeedbackLoop, o: Observation, times: u64) {
        for _ in 0..times {
            fb.record(o.clone());
        }
    }

    #[test]
    fn queue_wait_is_telemetry_only_and_never_pollutes_the_fit() {
        let (fb, _clock) = quick_loop(1);
        // Two observations of the same shape and compute runtime; one
        // waited 5 ms in the admission queue, the other didn't. The
        // wait reaches the stats through the shared histograms (the
        // engine records them at ticket completion), never through the
        // observation itself.
        let base = obs(PlanKind::Algo(Algorithm::Bnl), 4_000, Some(0.2), None, 120);
        fb.record(base.clone());
        fb.record(base.clone().queued(Duration::from_millis(5)));
        fb.waits()
            .record(crate::session::Priority::Normal, Duration::ZERO);
        fb.waits()
            .record(crate::session::Priority::Normal, Duration::from_millis(5));
        let stats = fb.stats();
        assert_eq!(stats.observations, 2);
        assert_eq!(stats.queued_observations, 1);
        assert_eq!(stats.queue_wait, Duration::from_millis(5));
        // Both landed in ONE bucket with identical runtime folds: the
        // aggregate mean is the compute time, wait excluded.
        let buckets = fb.buckets.lock().unwrap();
        assert_eq!(buckets.len(), 1);
        let agg = buckets.values().next().unwrap();
        assert_eq!(agg.count, 2);
        assert_eq!(agg.mean_ns(), Duration::from_micros(120).as_nanos() as f64);
    }

    #[test]
    fn buckets_quantize_as_documented() {
        assert_eq!(n_bucket(1), 0);
        assert_eq!(n_bucket(1023), 9);
        assert_eq!(n_bucket(1024), 10);
        assert_eq!(n_bucket(5000), 12);
        assert_eq!(frac_bucket(None), NONE_BUCKET);
        assert_eq!(frac_bucket(Some(0.0)), 0);
        assert_eq!(frac_bucket(Some(0.13)), 1);
        assert_eq!(frac_bucket(Some(1.0)), 7);
        assert_eq!(alpha_bucket(Some(8192)), 13);
        assert_eq!(alpha_bucket(None), NONE_BUCKET);
    }

    #[test]
    fn crossover_raises_threshold_when_small_side_wins_above_it() {
        // BNL decisively faster at n ≈ 5000 (bucket 12): the BNL
        // ceiling must rise to cover that bucket.
        let bnl = vec![(12u8, 100.0)];
        let sfs = vec![(12u8, 200.0)];
        let t = fit_crossover(&bnl, &sfs, 512, 0.15).unwrap();
        assert!(t >= 5000, "threshold {t} must cover bucket 12");
    }

    #[test]
    fn crossover_lowers_threshold_when_large_side_wins_below_it() {
        // SFS decisively faster already at n ≈ 300 (bucket 8).
        let bnl = vec![(8u8, 300.0)];
        let sfs = vec![(8u8, 100.0)];
        let t = fit_crossover(&bnl, &sfs, 512, 0.15).unwrap();
        assert!(t < 256, "threshold {t} must fall below bucket 8");
    }

    #[test]
    fn crossover_finds_the_boundary_between_winning_ranges() {
        let bnl = vec![(8u8, 100.0), (10, 100.0), (12, 500.0)];
        let sfs = vec![(8u8, 300.0), (10, 300.0), (12, 100.0)];
        let t = fit_crossover(&bnl, &sfs, 512, 0.15).unwrap();
        assert!(((1 << 11)..(1 << 13)).contains(&t), "boundary, got {t}");
    }

    #[test]
    fn crossover_holds_on_ties_and_contradictions() {
        // Within the band: no winner, no movement.
        let bnl = vec![(10u8, 100.0)];
        let sfs = vec![(10u8, 105.0)];
        assert_eq!(fit_crossover(&bnl, &sfs, 512, 0.15), None);
        // Contradiction (small side wins above a large-side win).
        let bnl = vec![(8u8, 500.0), (12, 100.0)];
        let sfs = vec![(8u8, 100.0), (12, 500.0)];
        assert_eq!(fit_crossover(&bnl, &sfs, 512, 0.15), None);
        // Disjoint buckets: nothing to compare.
        let bnl = vec![(8u8, 100.0)];
        let sfs = vec![(12u8, 100.0)];
        assert_eq!(fit_crossover(&bnl, &sfs, 512, 0.15), None);
    }

    #[test]
    fn fit_moves_dense_frac_toward_hybrid_wins() {
        let (fb, _clock) = quick_loop(4);
        // At frac ≈ 0.15 (bucket 1), Hybrid is decisively cheaper.
        feed(
            &fb,
            obs(
                PlanKind::Algo(Algorithm::QFlow),
                20_000,
                Some(0.15),
                Some(8192),
                900,
            ),
            8,
        );
        feed(
            &fb,
            obs(
                PlanKind::Algo(Algorithm::Hybrid),
                20_000,
                Some(0.15),
                Some(1024),
                300,
            ),
            8,
        );
        let fitted = fb.fit(&PlannerConfig::default());
        assert!(
            fitted.dense_frac < 0.125,
            "dense_frac {} must fall below bucket 1",
            fitted.dense_frac
        );
        // And the reverse moves it up.
        fb.clear();
        feed(
            &fb,
            obs(
                PlanKind::Algo(Algorithm::QFlow),
                20_000,
                Some(0.4),
                Some(8192),
                300,
            ),
            8,
        );
        feed(
            &fb,
            obs(
                PlanKind::Algo(Algorithm::Hybrid),
                20_000,
                Some(0.4),
                Some(1024),
                900,
            ),
            8,
        );
        let fitted = fb.fit(&PlannerConfig::default());
        assert!(
            fitted.dense_frac >= 0.5,
            "dense_frac {} must rise past bucket 3",
            fitted.dense_frac
        );
    }

    #[test]
    fn fit_respects_min_observations() {
        let (fb, _clock) = quick_loop(16);
        // Decisive but under-sampled: no movement.
        feed(
            &fb,
            obs(
                PlanKind::Algo(Algorithm::QFlow),
                20_000,
                Some(0.15),
                Some(8192),
                900,
            ),
            8,
        );
        feed(
            &fb,
            obs(
                PlanKind::Algo(Algorithm::Hybrid),
                20_000,
                Some(0.15),
                Some(1024),
                300,
            ),
            8,
        );
        assert_eq!(fb.fit(&PlannerConfig::default()), PlannerConfig::default());
    }

    #[test]
    fn hysteresis_band_blocks_marginal_movement() {
        let (fb, _clock) = quick_loop(4);
        // 5 % apart — inside the 15 % band.
        feed(
            &fb,
            obs(
                PlanKind::Algo(Algorithm::QFlow),
                20_000,
                Some(0.15),
                Some(8192),
                105,
            ),
            8,
        );
        feed(
            &fb,
            obs(
                PlanKind::Algo(Algorithm::Hybrid),
                20_000,
                Some(0.15),
                Some(1024),
                100,
            ),
            8,
        );
        assert_eq!(fb.fit(&PlannerConfig::default()), PlannerConfig::default());
    }

    #[test]
    fn fit_alpha_prefers_decisively_faster_block_size() {
        let (fb, _clock) = quick_loop(4);
        // Most runs at α = 8192 (the incumbent), but α = 2048 is 3×
        // faster per row.
        feed(
            &fb,
            obs(
                PlanKind::Algo(Algorithm::QFlow),
                100_000,
                Some(0.1),
                Some(8192),
                900,
            ),
            12,
        );
        feed(
            &fb,
            obs(
                PlanKind::Algo(Algorithm::QFlow),
                100_000,
                Some(0.1),
                Some(2048),
                300,
            ),
            8,
        );
        let fitted = fb.fit(&PlannerConfig::default());
        assert_eq!(fitted.alpha_qflow, Some(2048));
        assert_eq!(fitted.alpha_hybrid, None, "hybrid had no observations");
    }

    #[test]
    fn fit_alpha_keeps_incumbent_within_band() {
        let (fb, _clock) = quick_loop(4);
        feed(
            &fb,
            obs(
                PlanKind::Algo(Algorithm::QFlow),
                100_000,
                Some(0.1),
                Some(8192),
                310,
            ),
            12,
        );
        feed(
            &fb,
            obs(
                PlanKind::Algo(Algorithm::QFlow),
                100_000,
                Some(0.1),
                Some(2048),
                300,
            ),
            8,
        );
        assert_eq!(fb.fit(&PlannerConfig::default()).alpha_qflow, None);
    }

    #[test]
    fn fit_delta_cap_tracks_observed_margin() {
        let (fb, _clock) = quick_loop(4);
        // Delta plans barely cheaper than recomputation: shrink.
        feed(&fb, obs(PlanKind::Delta, 20_000, Some(0.1), None, 95), 8);
        feed(
            &fb,
            obs(
                PlanKind::Algo(Algorithm::QFlow),
                20_000,
                Some(0.1),
                Some(8192),
                100,
            ),
            8,
        );
        let fitted = fb.fit(&PlannerConfig::default());
        assert_eq!(fitted.delta_cap, PlannerConfig::default().delta_cap / 2);
        // Delta plans 10× cheaper: grow.
        fb.clear();
        feed(&fb, obs(PlanKind::Delta, 20_000, Some(0.1), None, 10), 8);
        feed(
            &fb,
            obs(
                PlanKind::Algo(Algorithm::QFlow),
                20_000,
                Some(0.1),
                Some(8192),
                100,
            ),
            8,
        );
        let fitted = fb.fit(&PlannerConfig::default());
        assert_eq!(fitted.delta_cap, PlannerConfig::default().delta_cap * 2);
    }

    #[test]
    fn refit_cadence_is_clock_driven() {
        let (fb, clock) = quick_loop(1);
        let planner = Planner::default();
        feed(
            &fb,
            obs(
                PlanKind::Algo(Algorithm::QFlow),
                20_000,
                Some(0.15),
                Some(8192),
                900,
            ),
            4,
        );
        feed(
            &fb,
            obs(
                PlanKind::Algo(Algorithm::Hybrid),
                20_000,
                Some(0.15),
                Some(1024),
                300,
            ),
            4,
        );
        // The clock has not moved: nothing is due.
        assert!(!fb.due());
        assert!(!fb.maybe_refit(&planner));
        assert_eq!(fb.stats().refits, 0);
        // Advance past the interval: exactly one refit runs and the
        // evidence above installs a new dense_frac.
        clock.advance(Duration::from_secs(1));
        assert!(fb.due());
        assert!(fb.maybe_refit(&planner));
        assert_eq!(fb.stats().refits, 1);
        assert_eq!(fb.stats().installs, 1);
        assert!(planner.config().dense_frac < 0.125);
        // Immediately after: not due again.
        assert!(!fb.maybe_refit(&planner));
        assert_eq!(fb.stats().refits, 1);
        // Another interval with unchanged evidence: a refit runs but
        // installs nothing (the fit is a fixed point now).
        clock.advance(Duration::from_secs(1));
        assert!(!fb.maybe_refit(&planner));
        assert_eq!(fb.stats().refits, 2);
        assert_eq!(fb.stats().installs, 1);
    }

    #[test]
    fn concurrent_recording_stays_consistent() {
        let (fb, _clock) = quick_loop(1);
        let fb = Arc::new(fb);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let fb = Arc::clone(&fb);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        fb.record(obs(
                            PlanKind::Algo(Algorithm::QFlow),
                            1_000 + (t * 500 + i) as usize,
                            Some(0.1),
                            Some(8192),
                            100,
                        ));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(fb.stats().observations, 2_000);
        assert!(fb.stats().buckets >= 1);
    }

    #[test]
    fn bucket_cap_stops_growth_not_counting() {
        let (fb, _clock) = quick_loop(1);
        for i in 0..(MAX_BUCKETS + 64) {
            // Distinct d values force distinct keys.
            fb.record(Observation {
                kind: PlanKind::Cached,
                n: 1 << (i % 20),
                d: i % 200,
                max_mask: if i % 2 == 0 { 0 } else { 0b11 },
                sample_skyline_frac: Some((i % 8) as f32 / 8.0),
                alpha: None,
                runtime: Duration::from_micros(1),
                queue_wait: Duration::ZERO,
            });
        }
        let stats = fb.stats();
        assert_eq!(stats.observations, (MAX_BUCKETS + 64) as u64);
        assert!(stats.buckets <= MAX_BUCKETS);
    }

    fn exploring_loop(every: u32) -> FeedbackLoop {
        FeedbackLoop::new(
            FeedbackConfig {
                enabled: true,
                refit_interval: Duration::from_secs(1),
                min_observations: 1,
                hysteresis: 0.15,
                explore_every: every,
            },
            ManualClock::shared() as Arc<dyn Clock>,
        )
    }

    #[test]
    fn exploration_perturbs_then_rolls_back_and_alternates() {
        let fb = exploring_loop(2);
        let planner = Planner::default();
        // All observed plans ran Q-Flow at α = 1024 (bucket 10): the
        // fitter alone can never move the override.
        feed(
            &fb,
            obs(
                PlanKind::Algo(Algorithm::QFlow),
                100_000,
                Some(0.1),
                Some(1024),
                500,
            ),
            8,
        );
        // Refit #0: (0+1) % 2 ≠ 0 — no exploration, no override.
        fb.refit_now(&planner);
        assert_eq!(planner.config().alpha_qflow, None);
        // Refit #1: explores up → 2048 installed for one interval.
        fb.refit_now(&planner);
        assert_eq!(planner.config().alpha_qflow, Some(2048));
        assert_eq!(fb.stats().explorations, 1);
        // Refit #2: rolls the exploration back.
        fb.refit_now(&planner);
        assert_eq!(planner.config().alpha_qflow, None);
        // Refit #3: explores again, the other direction → 512.
        fb.refit_now(&planner);
        assert_eq!(planner.config().alpha_qflow, Some(512));
        assert_eq!(fb.stats().explorations, 2);
        // Hybrid was never observed, so it is never perturbed.
        assert_eq!(planner.config().alpha_hybrid, None);
    }

    #[test]
    fn exploration_evidence_lets_the_fitter_adopt_a_better_alpha() {
        let fb = exploring_loop(2);
        let planner = Planner::default();
        feed(
            &fb,
            obs(
                PlanKind::Algo(Algorithm::QFlow),
                100_000,
                Some(0.1),
                Some(1024),
                500,
            ),
            8,
        );
        fb.refit_now(&planner); // #0
        fb.refit_now(&planner); // #1: explores → 2048
        assert_eq!(planner.config().alpha_qflow, Some(2048));
        // The explored block size turns out decisively faster.
        feed(
            &fb,
            obs(
                PlanKind::Algo(Algorithm::QFlow),
                100_000,
                Some(0.1),
                Some(2048),
                100,
            ),
            8,
        );
        // Refit #2: rollback happens first, but the fitter now has two
        // buckets and adopts 2048 on the evidence.
        fb.refit_now(&planner);
        assert_eq!(planner.config().alpha_qflow, Some(2048));
    }

    #[test]
    fn exploration_disabled_and_unobserved_cases_are_inert() {
        let fb = exploring_loop(0);
        let planner = Planner::default();
        feed(
            &fb,
            obs(
                PlanKind::Algo(Algorithm::QFlow),
                100_000,
                Some(0.1),
                Some(1024),
                500,
            ),
            8,
        );
        for _ in 0..6 {
            fb.refit_now(&planner);
        }
        assert_eq!(fb.stats().explorations, 0);
        assert_eq!(planner.config().alpha_qflow, None);
        // With exploration on but no α observations at all, every
        // exploration tick is a no-op too.
        let fb = exploring_loop(1);
        feed(
            &fb,
            obs(PlanKind::Algo(Algorithm::Sfs), 5_000, Some(0.1), None, 500),
            8,
        );
        for _ in 0..4 {
            fb.refit_now(&planner);
        }
        assert_eq!(fb.stats().explorations, 0);
    }

    #[test]
    fn perturbation_respects_bounds() {
        assert_eq!(perturbed_bucket(10, true), 11);
        assert_eq!(perturbed_bucket(10, false), 9);
        assert_eq!(
            perturbed_bucket(ALPHA_LOG2_BOUNDS.1, true),
            ALPHA_LOG2_BOUNDS.1
        );
        assert_eq!(
            perturbed_bucket(ALPHA_LOG2_BOUNDS.0, false),
            ALPHA_LOG2_BOUNDS.0
        );
        // Below-bounds incumbents are pulled back into range.
        assert_eq!(perturbed_bucket(2, true), ALPHA_LOG2_BOUNDS.0);
    }
}
