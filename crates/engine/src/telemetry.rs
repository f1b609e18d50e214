//! The engine's unified telemetry layer: a lock-free metrics registry,
//! per-query execution traces, and a slow-query log.
//!
//! Three consumers, one source of truth:
//!
//! * **Operators** read the [`MetricsRegistry`] — counters, gauges and
//!   log-bucketed latency [`Histogram`]s behind stable names
//!   (`engine.query.latency`, `session.queue_wait{class=…}`,
//!   `dominance.tests{algo=…}`, `catalog.stats.rescans`, `cache.*`) —
//!   via [`Engine::metrics`](crate::Engine::metrics), whose
//!   [`MetricsSnapshot::render`] emits a Prometheus-style text
//!   exposition.
//! * **Users** debugging one query read its [`QueryTrace`]: typed
//!   [`TraceSpan`]s (admission wait → plan → phase I → phase II → merge
//!   → cache insert) with per-span wall time on the engine
//!   [`Clock`] — exact under
//!   [`ManualClock`](crate::ManualClock) — and per-span dominance-test
//!   counts, plus the planner's chosen strategy and its reason.
//!   Retrieved from
//!   [`QueryTicket::trace`](crate::session::QueryTicket::trace) or
//!   [`Engine::explain_analyze`](crate::Engine::explain_analyze).
//! * **On-call** reads the [`SlowQueryLog`]: a bounded ring of full
//!   traces over a configurable latency threshold, drained via
//!   [`Engine::slow_queries`](crate::Engine::slow_queries).
//!
//! Hot-path writes never take a lock: counters and histograms shard
//! across cache-padded atomic slots (the [`LaneCounters`] recipe) and
//! merge on read. The registry's interior mutex guards only
//! registration and snapshotting.
//!
//! [`LaneCounters`]: skyline_parallel::LaneCounters

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use skyline_core::algo::Algorithm;
use skyline_core::telemetry::{AlgoPhase, SpanSink};
use skyline_parallel::CachePadded;

use crate::clock::Clock;
use crate::session::Priority;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Construction-time telemetry knobs, carried by
/// [`EngineConfig`](crate::EngineConfig). Telemetry itself is always
/// on — every engine has a metrics registry and every dispatched query
/// a trace — so the knobs only size the slow-query ring.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// Queries whose end-to-end latency (admission wait included) is at
    /// least this threshold have their full trace retained in the
    /// slow-query ring. `Duration::ZERO` retains every query.
    pub slow_query_threshold: Duration,
    /// Capacity of the slow-query ring; the oldest trace is evicted
    /// when a new one arrives at capacity.
    pub slow_log_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            slow_query_threshold: Duration::from_millis(100),
            slow_log_capacity: 64,
        }
    }
}

// ---------------------------------------------------------------------------
// Sharding
// ---------------------------------------------------------------------------

/// Number of cache-padded shards per hot instrument. A small power of
/// two: enough to keep concurrent sessions off each other's cache
/// lines, small enough that merging on read stays trivial.
const SHARDS: usize = 8;

/// This thread's stable shard slot, assigned round-robin at first use.
fn shard_slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    SLOT.with(|s| *s)
}

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// A monotonically increasing counter, sharded across cache-padded
/// atomic slots so concurrent writers never contend on one line.
#[derive(Debug)]
pub struct Counter {
    shards: Box<[CachePadded<AtomicU64>]>,
}

impl Counter {
    fn new() -> Self {
        Self {
            shards: (0..SHARDS)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        }
    }

    /// Adds `v`.
    #[inline]
    pub fn add(&self, v: u64) {
        self.shards[shard_slot() % SHARDS].fetch_add(v, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (slots merged on read).
    pub fn value(&self) -> u64 {
        self.shards.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }
}

/// A last-value-wins gauge holding an `f64`.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// One histogram shard: every field is written by (mostly) one thread
/// and merged on read.
#[derive(Debug)]
struct HistogramShard {
    count: AtomicU64,
    sum_ns: AtomicU64,
    zeros: AtomicU64,
    buckets: [AtomicU64; 64],
}

impl HistogramShard {
    fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            zeros: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A latency histogram with logarithmic buckets: bucket `i` counts
/// durations of `2^i ..= 2^(i+1)-1` nanoseconds (bucket 0 also counts
/// exact zeros, which are additionally tracked separately so readers
/// can distinguish "instant" from "sub-2ns"). Writes shard across
/// cache-padded slots like [`Counter`].
#[derive(Debug)]
pub struct Histogram {
    shards: Box<[CachePadded<HistogramShard>]>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS)
                .map(|_| CachePadded::new(HistogramShard::new()))
                .collect(),
        }
    }

    /// Bucket index for a duration of `ns` nanoseconds:
    /// `floor(log2(max(ns, 1)))`.
    #[inline]
    fn bucket_index(ns: u64) -> usize {
        if ns <= 1 {
            0
        } else {
            63 - ns.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound, in nanoseconds, of bucket `i`.
    #[inline]
    fn bucket_le(i: usize) -> u64 {
        if i >= 63 {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, d: Duration) {
        let ns = d.as_nanos().min(u64::MAX as u128) as u64;
        let shard = &self.shards[shard_slot() % SHARDS];
        shard.count.fetch_add(1, Ordering::Relaxed);
        shard.sum_ns.fetch_add(ns, Ordering::Relaxed);
        if ns == 0 {
            shard.zeros.fetch_add(1, Ordering::Relaxed);
        }
        shard.buckets[Self::bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Merged point-in-time snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut count = 0u64;
        let mut sum_ns = 0u64;
        let mut zeros = 0u64;
        let mut merged = [0u64; 64];
        for shard in self.shards.iter() {
            count += shard.count.load(Ordering::Relaxed);
            sum_ns += shard.sum_ns.load(Ordering::Relaxed);
            zeros += shard.zeros.load(Ordering::Relaxed);
            for (m, b) in merged.iter_mut().zip(shard.buckets.iter()) {
                *m += b.load(Ordering::Relaxed);
            }
        }
        let mut buckets = Vec::new();
        let mut cumulative = 0u64;
        for (i, &c) in merged.iter().enumerate() {
            if c > 0 {
                cumulative += c;
                buckets.push((Self::bucket_le(i), cumulative));
            }
        }
        HistogramSnapshot {
            count,
            zeros,
            sum: Duration::from_nanos(sum_ns),
            buckets,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A merged, read-only view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Observations of exactly zero duration.
    pub zeros: u64,
    /// Sum of all observations.
    pub sum: Duration,
    /// Occupied buckets as `(inclusive upper bound in ns, cumulative
    /// count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Upper-bound estimate of the `q`-quantile (0 ≤ `q` ≤ 1): the
    /// inclusive upper edge of the bucket holding the rank-`q`
    /// observation. Exact zeros rank as zero.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        if rank < self.zeros {
            return Duration::ZERO;
        }
        for &(le, cumulative) in &self.buckets {
            if cumulative > rank {
                return Duration::from_nanos(le);
            }
        }
        Duration::from_nanos(self.buckets.last().map_or(0, |&(le, _)| le))
    }

    /// Mean observation; zero when empty.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            self.sum / self.count as u32
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A metric's identity: name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricId {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricId {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        Self {
            name: name.to_string(),
            labels,
        }
    }
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// The engine's named-instrument registry.
///
/// Registration (get-or-create by name + labels) takes a short lock;
/// the returned handles are lock-free to write.
/// [`snapshot`](MetricsRegistry::snapshot) merges every instrument
/// into a [`MetricsSnapshot`].
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    instruments: Mutex<BTreeMap<MetricId, Instrument>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name` + `labels`, created on first
    /// use.
    ///
    /// # Panics
    /// If the name is already registered as a different instrument
    /// kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let id = MetricId::new(name, labels);
        let mut map = self.instruments.lock().unwrap();
        match map
            .entry(id)
            .or_insert_with(|| Instrument::Counter(Arc::new(Counter::new())))
        {
            Instrument::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name} is not a counter"),
        }
    }

    /// The gauge registered under `name` + `labels`, created on first
    /// use.
    ///
    /// # Panics
    /// If the name is already registered as a different instrument
    /// kind.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let id = MetricId::new(name, labels);
        let mut map = self.instruments.lock().unwrap();
        match map
            .entry(id)
            .or_insert_with(|| Instrument::Gauge(Arc::new(Gauge::new())))
        {
            Instrument::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name} is not a gauge"),
        }
    }

    /// The histogram registered under `name` + `labels`, created on
    /// first use.
    ///
    /// # Panics
    /// If the name is already registered as a different instrument
    /// kind.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let id = MetricId::new(name, labels);
        let mut map = self.instruments.lock().unwrap();
        match map
            .entry(id)
            .or_insert_with(|| Instrument::Histogram(Arc::new(Histogram::new())))
        {
            Instrument::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name} is not a histogram"),
        }
    }

    /// Registers a pre-built histogram handle under `name` + `labels`
    /// (used to expose histograms that must exist even when no registry
    /// does, like the queue-wait family the session layer records into).
    pub(crate) fn adopt_histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        handle: &Arc<Histogram>,
    ) {
        let id = MetricId::new(name, labels);
        self.instruments
            .lock()
            .unwrap()
            .insert(id, Instrument::Histogram(Arc::clone(handle)));
    }

    /// A merged snapshot of every registered instrument, sorted by
    /// name then labels.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.instruments.lock().unwrap();
        let samples = map
            .iter()
            .map(|(id, inst)| MetricSample {
                name: id.name.clone(),
                labels: id.labels.clone(),
                value: match inst {
                    Instrument::Counter(c) => MetricValue::Counter(c.value()),
                    Instrument::Gauge(g) => MetricValue::Gauge(g.value()),
                    Instrument::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        MetricsSnapshot { samples }
    }
}

/// One instrument's value inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter's merged total.
    Counter(u64),
    /// A gauge's last value.
    Gauge(f64),
    /// A histogram's merged snapshot.
    Histogram(HistogramSnapshot),
}

/// One named instrument inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Stable metric name, e.g. `engine.query.latency`.
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// The value at snapshot time.
    pub value: MetricValue,
}

/// A point-in-time view of the whole registry, plus any derived
/// samples the engine appends (the cache family).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Every sample, sorted by name then labels.
    pub samples: Vec<MetricSample>,
}

impl MetricsSnapshot {
    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricSample> {
        let id = MetricId::new(name, labels);
        self.samples
            .iter()
            .find(|s| s.name == id.name && s.labels == id.labels)
    }

    /// The counter registered under `name` + `labels`, if any.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.find(name, labels)?.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// The gauge registered under `name` + `labels`, if any.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.find(name, labels)?.value {
            MetricValue::Gauge(v) => Some(v),
            _ => None,
        }
    }

    /// The histogram registered under `name` + `labels`, if any.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        match &self.find(name, labels)?.value {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    pub(crate) fn push_counter(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        let id = MetricId::new(name, labels);
        self.samples.push(MetricSample {
            name: id.name,
            labels: id.labels,
            value: MetricValue::Counter(v),
        });
    }

    pub(crate) fn push_gauge(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        let id = MetricId::new(name, labels);
        self.samples.push(MetricSample {
            name: id.name,
            labels: id.labels,
            value: MetricValue::Gauge(v),
        });
    }

    /// Renders the snapshot as Prometheus-style text: one
    /// `name{label="value",…} value` line per counter or gauge, and
    /// the `_bucket`/`_sum`/`_count` triple per histogram (`le` upper
    /// bounds in nanoseconds, cumulative counts, `+Inf` last).
    pub fn render(&self) -> String {
        fn label_str(labels: &[(String, String)], extra: Option<(&str, String)>) -> String {
            let mut parts: Vec<String> =
                labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
            if let Some((k, v)) = extra {
                parts.push(format!("{k}=\"{v}\""));
            }
            if parts.is_empty() {
                String::new()
            } else {
                format!("{{{}}}", parts.join(","))
            }
        }
        let mut out = String::new();
        for s in &self.samples {
            match &s.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{}{} {v}", s.name, label_str(&s.labels, None));
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{}{} {v}", s.name, label_str(&s.labels, None));
                }
                MetricValue::Histogram(h) => {
                    for &(le, cumulative) in &h.buckets {
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {cumulative}",
                            s.name,
                            label_str(&s.labels, Some(("le", le.to_string())))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        s.name,
                        label_str(&s.labels, Some(("le", "+Inf".to_string()))),
                        h.count
                    );
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        s.name,
                        label_str(&s.labels, None),
                        h.sum.as_nanos()
                    );
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        s.name,
                        label_str(&s.labels, None),
                        h.count
                    );
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Traces
// ---------------------------------------------------------------------------

/// The typed stages a query can spend time in, in canonical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Waiting in the admission queue before dispatch.
    AdmissionWait,
    /// Catalog lookup and planner decision.
    Plan,
    /// Sort-key computation, sorting, working-set gathering.
    Init,
    /// β-queue pre-filtering (Hybrid).
    Prefilter,
    /// Pivot selection and partitioning (Hybrid).
    Pivot,
    /// Comparisons against the known skyline.
    PhaseOne,
    /// Comparisons against not-yet-confirmed block peers.
    PhaseTwo,
    /// Block compression and result merging.
    Merge,
    /// Sharded plans: routing live rows into per-shard working sets.
    ShardScatter,
    /// Sharded plans: one shard's local skyline computation (the trace
    /// carries one such span **per shard**, distinguished by
    /// [`TraceSpan::shard`]).
    ShardLocal,
    /// Sharded plans: the merge of the local results — witness probe,
    /// then SFS/Hybrid over the survivors (skyline) or the counting
    /// scan (skyband); one span carrying all of its dominance tests.
    ShardMerge,
    /// Non-algorithmic execution (trivial and min-scan plans).
    Execute,
    /// Serving a result straight from the cache.
    CacheHit,
    /// Deriving a result from a cached **ancestor** entry — a skyband
    /// at `k' ≥ k` filtered down by its stored dominator counts (or a
    /// top-k dominating list truncated) — with no dataset scan at all.
    CacheAncestor,
    /// Inserting the fresh result into the cache.
    CacheInsert,
}

impl SpanKind {
    /// Stable lower-case name used in rendered traces.
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::AdmissionWait => "admission_wait",
            SpanKind::Plan => "plan",
            SpanKind::Init => "init",
            SpanKind::Prefilter => "prefilter",
            SpanKind::Pivot => "pivot",
            SpanKind::PhaseOne => "phase1",
            SpanKind::PhaseTwo => "phase2",
            SpanKind::Merge => "merge",
            SpanKind::ShardScatter => "shard.scatter",
            SpanKind::ShardLocal => "shard.local",
            SpanKind::ShardMerge => "shard.merge",
            SpanKind::Execute => "execute",
            SpanKind::CacheHit => "cache_hit",
            SpanKind::CacheAncestor => "cache_ancestor",
            SpanKind::CacheInsert => "cache_insert",
        }
    }

    /// The span kind an algorithm phase maps to.
    pub fn from_phase(phase: AlgoPhase) -> SpanKind {
        match phase {
            AlgoPhase::Init => SpanKind::Init,
            AlgoPhase::Prefilter => SpanKind::Prefilter,
            AlgoPhase::Pivot => SpanKind::Pivot,
            AlgoPhase::PhaseOne => SpanKind::PhaseOne,
            AlgoPhase::PhaseTwo => SpanKind::PhaseTwo,
            AlgoPhase::Compress => SpanKind::Merge,
        }
    }
}

/// One aggregated stage of a query's execution.
///
/// α-block algorithms cross each phase boundary once per block; the
/// trace aggregates them, so a span's `duration` is the total time
/// attributed to that stage and `start` is the first time it was
/// entered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpan {
    /// The stage.
    pub kind: SpanKind,
    /// For per-shard stages ([`SpanKind::ShardLocal`]), which shard
    /// the span describes; `None` for every whole-query stage.
    /// Aggregation is per `(kind, shard)`, so a sharded trace carries
    /// one local span per shard with its own duration and
    /// dominance-test count.
    pub shard: Option<u32>,
    /// Engine-clock timestamp of first entry.
    pub start: Duration,
    /// Total time attributed to the stage.
    pub duration: Duration,
    /// Dominance tests spent in the stage.
    pub dominance_tests: u64,
}

/// The full execution trace of one query, as returned by
/// [`QueryTicket::trace`](crate::session::QueryTicket::trace) and
/// [`Engine::explain_analyze`](crate::Engine::explain_analyze).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    /// The session-scoped ticket id of the traced query.
    pub query_id: u64,
    /// Dataset the query ran against.
    pub dataset: String,
    /// The executed strategy's stable name (`"hybrid"`, `"min-scan"`,
    /// `"cache"`, …).
    pub strategy: &'static str,
    /// The planner's one-line justification.
    pub reason: &'static str,
    /// Aggregated spans in first-entry order.
    pub spans: Vec<TraceSpan>,
    /// Time spent queued before dispatch.
    pub queue_wait: Duration,
    /// End-to-end latency on the engine clock, admission wait
    /// included.
    pub total: Duration,
    /// Dominance tests attributed to this query.
    pub dominance_tests: u64,
    /// Whether the result came from the cache without recomputation.
    pub cache_hit: bool,
}

impl QueryTrace {
    /// The aggregated span for `kind`, if the query entered it (the
    /// first matching span for per-shard kinds — use
    /// [`spans_of`](Self::spans_of) to see every shard).
    pub fn span(&self, kind: SpanKind) -> Option<&TraceSpan> {
        self.spans.iter().find(|s| s.kind == kind)
    }

    /// Every aggregated span for `kind`, in first-entry order — one
    /// per shard for the per-shard kinds.
    pub fn spans_of(&self, kind: SpanKind) -> impl Iterator<Item = &TraceSpan> {
        self.spans.iter().filter(move |s| s.kind == kind)
    }

    /// Renders the trace as one machine-greppable `TRACE …` line.
    /// Per-shard spans render as `shard.local[i]:…`.
    pub fn render(&self) -> String {
        let mut spans = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                spans.push(' ');
            }
            let _ = match s.shard {
                Some(shard) => write!(
                    spans,
                    "{}[{shard}]:{}us/{}dt",
                    s.kind.name(),
                    s.duration.as_micros(),
                    s.dominance_tests
                ),
                None => write!(
                    spans,
                    "{}:{}us/{}dt",
                    s.kind.name(),
                    s.duration.as_micros(),
                    s.dominance_tests
                ),
            };
        }
        format!(
            "TRACE query={} dataset={} strategy={} cache_hit={} wait_us={} total_us={} dts={} spans=[{}]",
            self.query_id,
            self.dataset,
            self.strategy,
            self.cache_hit,
            self.queue_wait.as_micros(),
            self.total.as_micros(),
            self.dominance_tests,
            spans
        )
    }
}

#[derive(Debug, Default)]
struct TraceAcc {
    spans: Vec<TraceSpan>,
    mark: Duration,
}

/// A trace under construction: the engine adds its own spans
/// (admission wait, planning, cache traffic) with explicit bounds, and
/// the running algorithm streams phase boundaries into it through the
/// [`SpanSink`] seam. All timestamps come from the engine [`Clock`],
/// so a [`ManualClock`](crate::ManualClock) makes every duration
/// exact.
#[derive(Debug)]
pub(crate) struct ActiveTrace {
    clock: Arc<dyn Clock>,
    inner: Mutex<TraceAcc>,
}

impl ActiveTrace {
    pub(crate) fn new(clock: Arc<dyn Clock>) -> Self {
        let mark = clock.now();
        Self {
            clock,
            inner: Mutex::new(TraceAcc {
                spans: Vec::new(),
                mark,
            }),
        }
    }

    /// The trace clock's current reading: the start of a span that
    /// [`close_span`](Self::close_span) ends later.
    pub(crate) fn now(&self) -> Duration {
        self.clock.now()
    }

    /// Adds an engine-side span of `kind` from `start` until now.
    pub(crate) fn close_span(&self, kind: SpanKind, start: Duration, dominance_tests: u64) {
        let duration = self.clock.now().saturating_sub(start);
        self.add_span(kind, start, duration, dominance_tests);
    }

    /// Adds an engine-side span with explicit bounds.
    pub(crate) fn add_span(
        &self,
        kind: SpanKind,
        start: Duration,
        duration: Duration,
        dominance_tests: u64,
    ) {
        self.add_span_sharded(kind, None, start, duration, dominance_tests);
    }

    /// Adds an engine-side span attributed to one shard. Spans
    /// aggregate per `(kind, shard)`, so per-shard stages stay visible
    /// individually instead of collapsing into one row.
    pub(crate) fn add_span_sharded(
        &self,
        kind: SpanKind,
        shard: Option<u32>,
        start: Duration,
        duration: Duration,
        dominance_tests: u64,
    ) {
        let mut acc = self.inner.lock().unwrap();
        if let Some(span) = acc
            .spans
            .iter_mut()
            .find(|s| s.kind == kind && s.shard == shard)
        {
            span.duration += duration;
            span.dominance_tests += dominance_tests;
        } else {
            acc.spans.push(TraceSpan {
                kind,
                shard,
                start,
                duration,
                dominance_tests,
            });
        }
    }

    /// Re-bases the phase-boundary mark to "now" — called right before
    /// handing control to an algorithm, so its first phase is not
    /// charged for engine-side time.
    pub(crate) fn set_mark(&self) {
        let now = self.clock.now();
        self.inner.lock().unwrap().mark = now;
    }

    /// Seals the trace.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finish(
        &self,
        query_id: u64,
        dataset: &str,
        strategy: &'static str,
        reason: &'static str,
        queue_wait: Duration,
        total: Duration,
        cache_hit: bool,
    ) -> Arc<QueryTrace> {
        let mut acc = self.inner.lock().unwrap();
        let spans = std::mem::take(&mut acc.spans);
        let dominance_tests = spans.iter().map(|s| s.dominance_tests).sum();
        Arc::new(QueryTrace {
            query_id,
            dataset: dataset.to_string(),
            strategy,
            reason,
            spans,
            queue_wait,
            total,
            dominance_tests,
            cache_hit,
        })
    }
}

impl SpanSink for ActiveTrace {
    fn phase_end(&self, phase: AlgoPhase, dominance_tests: u64) {
        let now = self.clock.now();
        let kind = SpanKind::from_phase(phase);
        let mut acc = self.inner.lock().unwrap();
        let mark = acc.mark;
        let lap = now.saturating_sub(mark);
        if let Some(span) = acc
            .spans
            .iter_mut()
            .find(|s| s.kind == kind && s.shard.is_none())
        {
            span.duration += lap;
            span.dominance_tests += dominance_tests;
        } else {
            acc.spans.push(TraceSpan {
                kind,
                shard: None,
                start: mark,
                duration: lap,
                dominance_tests,
            });
        }
        acc.mark = now;
    }
}

// ---------------------------------------------------------------------------
// Slow-query log
// ---------------------------------------------------------------------------

/// A bounded ring of the most recent traces whose end-to-end latency
/// met the configured threshold.
#[derive(Debug)]
pub struct SlowQueryLog {
    threshold: Duration,
    capacity: usize,
    ring: Mutex<VecDeque<Arc<QueryTrace>>>,
}

impl SlowQueryLog {
    fn new(threshold: Duration, capacity: usize) -> Self {
        Self {
            threshold,
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Retains `trace` if it met the threshold, evicting the oldest
    /// entry at capacity.
    pub(crate) fn offer(&self, trace: &Arc<QueryTrace>) {
        if trace.total < self.threshold {
            return;
        }
        let mut ring = self.ring.lock().unwrap();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(Arc::clone(trace));
    }

    /// Removes and returns every retained trace, oldest first.
    pub fn drain(&self) -> Vec<Arc<QueryTrace>> {
        self.ring.lock().unwrap().drain(..).collect()
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// Queue-wait histograms
// ---------------------------------------------------------------------------

/// The per-class `session.queue_wait` histogram family.
///
/// This is the **single source of truth** for queue-wait time: the
/// session layer records into it on every successful completion and
/// the metrics registry exposes it. Three histograms, written
/// lock-free.
#[derive(Debug)]
pub struct QueueWaitHistograms {
    per_class: [Arc<Histogram>; 3],
}

impl QueueWaitHistograms {
    /// Three empty per-class histograms.
    pub fn new() -> Self {
        Self {
            per_class: std::array::from_fn(|_| Arc::new(Histogram::new())),
        }
    }

    /// Records a completed query's queue wait under its class.
    #[inline]
    pub fn record(&self, class: Priority, wait: Duration) {
        self.per_class[class.index()].record(wait);
    }

    /// The histogram for `class`.
    pub fn class(&self, class: Priority) -> &Arc<Histogram> {
        &self.per_class[class.index()]
    }
}

impl Default for QueueWaitHistograms {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// The engine-facing aggregate
// ---------------------------------------------------------------------------

/// Everything the engine's telemetry layer owns: the registry, the
/// pre-registered hot-path instruments, and the slow-query ring.
#[derive(Debug)]
pub(crate) struct Telemetry {
    registry: Arc<MetricsRegistry>,
    query_latency: Arc<Histogram>,
    dominance: Vec<(Algorithm, Arc<Counter>)>,
    submitted: [Arc<Counter>; 3],
    completed: [Arc<Counter>; 3],
    rejected_queue: [Arc<Counter>; 3],
    rejected_quota: [Arc<Counter>; 3],
    stats_rescans: Arc<Counter>,
    slow_log: SlowQueryLog,
}

impl Telemetry {
    pub(crate) fn new(cfg: TelemetryConfig, waits: &QueueWaitHistograms) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        for class in Priority::ALL {
            registry.adopt_histogram(
                "session.queue_wait",
                &[("class", class.name())],
                waits.class(class),
            );
        }
        let query_latency = registry.histogram("engine.query.latency", &[]);
        let dominance = Algorithm::ALL
            .iter()
            .map(|&a| {
                (
                    a,
                    registry.counter("dominance.tests", &[("algo", a.name())]),
                )
            })
            .collect();
        let per_class = |name: &str| -> [Arc<Counter>; 3] {
            std::array::from_fn(|i| registry.counter(name, &[("class", Priority::ALL[i].name())]))
        };
        let submitted = per_class("session.submitted");
        let completed = per_class("session.completed");
        let rejected_queue: [Arc<Counter>; 3] = std::array::from_fn(|i| {
            registry.counter(
                "session.rejected",
                &[("class", Priority::ALL[i].name()), ("reason", "queue_full")],
            )
        });
        let rejected_quota: [Arc<Counter>; 3] = std::array::from_fn(|i| {
            registry.counter(
                "session.rejected",
                &[("class", Priority::ALL[i].name()), ("reason", "quota")],
            )
        });
        let stats_rescans = registry.counter("catalog.stats.rescans", &[]);
        let slow_log = SlowQueryLog::new(cfg.slow_query_threshold, cfg.slow_log_capacity);
        Self {
            registry,
            query_latency,
            dominance,
            submitted,
            completed,
            rejected_queue,
            rejected_quota,
            stats_rescans,
            slow_log,
        }
    }

    pub(crate) fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// A shared handle on the registry, handed to embedders through
    /// [`Engine::metrics_registry`](crate::Engine::metrics_registry).
    pub(crate) fn registry_handle(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }

    pub(crate) fn slow_log(&self) -> &SlowQueryLog {
        &self.slow_log
    }

    pub(crate) fn record_latency(&self, total: Duration) {
        self.query_latency.record(total);
    }

    pub(crate) fn record_dominance(&self, algo: Algorithm, dts: u64) {
        if let Some((_, c)) = self.dominance.iter().find(|(a, _)| *a == algo) {
            c.add(dts);
        }
    }

    /// Dimensions a mutation batch had to rescan for its min/max
    /// ([`MutationOutcome::stats_rescans`](crate::catalog::MutationOutcome::stats_rescans)).
    pub(crate) fn on_stats_rescans(&self, dims: usize) {
        self.stats_rescans.add(dims as u64);
    }

    pub(crate) fn on_submitted(&self, class: Priority) {
        self.submitted[class.index()].inc();
    }

    pub(crate) fn on_completed(&self, class: Priority) {
        self.completed[class.index()].inc();
    }

    pub(crate) fn on_rejected_queue_full(&self, class: Priority) {
        self.rejected_queue[class.index()].inc();
    }

    pub(crate) fn on_rejected_quota(&self, class: Priority) {
        self.rejected_quota[class.index()].inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn counter_merges_across_threads() {
        let c = Arc::new(Counter::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.value(), 4_000);
    }

    #[test]
    fn histogram_bucket_boundaries_are_powers_of_two() {
        let h = Histogram::new();
        for ns in [0u64, 1, 2, 3, 1023, 1024] {
            h.record(Duration::from_nanos(ns));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.zeros, 1);
        // 0 and 1 land in the le=1 bucket; 2 and 3 in le=3; 1023 in
        // le=1023; 1024 in le=2047.
        assert_eq!(s.buckets, vec![(1, 2), (3, 4), (1023, 5), (2047, 6)]);
    }

    #[test]
    fn quantile_returns_bucket_upper_bounds() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(Duration::from_nanos(100)); // le=127
        }
        h.record(Duration::from_micros(100)); // le=131071
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), Duration::from_nanos(127));
        assert_eq!(s.quantile(1.0), Duration::from_nanos(131_071));
        assert_eq!(
            HistogramSnapshot::default_empty().quantile(0.5),
            Duration::ZERO
        );
    }

    impl HistogramSnapshot {
        fn default_empty() -> Self {
            Self {
                count: 0,
                zeros: 0,
                sum: Duration::ZERO,
                buckets: Vec::new(),
            }
        }
    }

    #[test]
    fn registry_get_or_create_returns_same_handle() {
        let r = MetricsRegistry::new();
        let a = r.counter("x", &[("k", "v")]);
        let b = r.counter("x", &[("k", "v")]);
        assert!(Arc::ptr_eq(&a, &b));
        a.add(3);
        let snap = r.snapshot();
        assert_eq!(snap.counter("x", &[("k", "v")]), Some(3));
        assert_eq!(snap.counter("x", &[]), None);
    }

    #[test]
    fn render_is_line_per_sample_with_sorted_labels() {
        let r = MetricsRegistry::new();
        r.counter("b.count", &[("z", "1"), ("a", "2")]).add(7);
        r.gauge("a.gauge", &[]).set(0.5);
        r.histogram("c.lat", &[]).record(Duration::from_nanos(3));
        let snap = r.snapshot();
        assert_eq!(snap.gauge("a.gauge", &[]), Some(0.5));
        let text = snap.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                "a.gauge 0.5",
                "b.count{a=\"2\",z=\"1\"} 7",
                "c.lat_bucket{le=\"3\"} 1",
                "c.lat_bucket{le=\"+Inf\"} 1",
                "c.lat_sum 3",
                "c.lat_count 1",
            ]
        );
    }

    #[test]
    fn active_trace_aggregates_blocks_per_kind() {
        let clock = ManualClock::shared();
        let trace = ActiveTrace::new(Arc::clone(&clock) as Arc<dyn Clock>);
        clock.advance(Duration::from_millis(1));
        trace.phase_end(AlgoPhase::PhaseOne, 10);
        clock.advance(Duration::from_millis(2));
        trace.phase_end(AlgoPhase::Compress, 0);
        clock.advance(Duration::from_millis(3));
        trace.phase_end(AlgoPhase::PhaseOne, 5); // second α-block
        let t = trace.finish(1, "d", "qflow", "", Duration::ZERO, clock.now(), false);
        let p1 = t.span(SpanKind::PhaseOne).unwrap();
        assert_eq!(p1.duration, Duration::from_millis(4));
        assert_eq!(p1.dominance_tests, 15);
        assert_eq!(p1.start, Duration::ZERO);
        let merge = t.span(SpanKind::Merge).unwrap();
        assert_eq!(merge.duration, Duration::from_millis(2));
        assert_eq!(t.dominance_tests, 15);
        assert!(t
            .render()
            .starts_with("TRACE query=1 dataset=d strategy=qflow"));
    }

    #[test]
    fn slow_log_keeps_threshold_crossers_bounded() {
        let log = SlowQueryLog::new(Duration::from_millis(1), 2);
        let mk = |id: u64, ms: u64| {
            Arc::new(QueryTrace {
                query_id: id,
                dataset: "d".into(),
                strategy: "trivial",
                reason: "",
                spans: Vec::new(),
                queue_wait: Duration::ZERO,
                total: Duration::from_millis(ms),
                dominance_tests: 0,
                cache_hit: false,
            })
        };
        log.offer(&mk(1, 0)); // below threshold
        log.offer(&mk(2, 2));
        log.offer(&mk(3, 2));
        log.offer(&mk(4, 2)); // evicts 2
        assert_eq!(log.len(), 2);
        let drained = log.drain();
        assert_eq!(
            drained.iter().map(|t| t.query_id).collect::<Vec<_>>(),
            vec![3, 4]
        );
        assert!(log.is_empty());
    }

    #[test]
    fn queue_wait_family_sums_nonzero_waits() {
        let w = QueueWaitHistograms::new();
        w.record(Priority::High, Duration::ZERO);
        w.record(Priority::High, Duration::from_millis(2));
        w.record(Priority::Low, Duration::from_millis(3));
        let high = w.class(Priority::High).snapshot();
        let low = w.class(Priority::Low).snapshot();
        assert_eq!((high.count, high.zeros), (2, 1));
        assert_eq!(high.count - high.zeros + low.count - low.zeros, 2);
        assert_eq!(high.sum + low.sum, Duration::from_millis(5));
    }
}
