//! The engine's serving front door: sessions, query tickets, admission
//! control, and per-tenant quotas.
//!
//! The blocking [`Engine::execute`](crate::Engine::execute) pair answers
//! one caller at a time; a serving tier needs somewhere to **queue,
//! shed, and prioritize** load before it reaches the compute pool. This
//! module is that layer:
//!
//! * a [`Session`] identifies a **tenant** and carries its priority
//!   class and quotas ([`SessionOptions`]);
//! * [`Session::submit`] is **non-blocking**: it validates the query,
//!   pins the dataset snapshot current at submission, probes the result
//!   cache (hits short-circuit admission entirely), and otherwise asks
//!   the admission queue for a slot — returning a [`QueryTicket`] the
//!   client can [`poll`](QueryTicket::poll), [`wait`](QueryTicket::wait),
//!   [`wait_timeout`](QueryTicket::wait_timeout), or
//!   [`cancel`](QueryTicket::cancel);
//! * admission is **bounded per priority class** ([`Priority`]), so a
//!   flood of low-priority work fills only its own queue — a per-query
//!   [`SkylineQuery::priority`] can lower a submission's class but is
//!   clamped to the session's, so no tenant self-elevates — and the
//!   rejection ([`EngineError::Rejected`]) names the reason:
//!   [`RejectReason::QueueFull`], [`RejectReason::QuotaExceeded`]
//!   (per-tenant in-flight and per-second submission quotas, measured
//!   on the engine's [`Clock`](crate::Clock) so tests drive them with a
//!   [`ManualClock`](crate::ManualClock)), or [`RejectReason::Shutdown`];
//! * a **dispatcher** drains the queues highest-class-first — with
//!   **class aging** ([`AdmissionConfig::age_boost_after`]) so
//!   sustained High traffic cannot starve Low forever,
//!   **round-robin across tenants within a class** (one tenant's bulk
//!   backlog cannot make a co-tenant's single ticket wait behind all of
//!   it), earliest-deadline-first order within a tenant, and a re-check for
//!   newly queued higher-class tickets between a batch's pool-wide
//!   plans — and feeds the engine's shared thread pool through the
//!   same batch core as
//!   [`Engine::execute_batch`](crate::Engine::execute_batch), so
//!   co-queued tickets coalesce: sequential plans run one per pool
//!   lane, parallel plans span the whole pool, and the pool is never
//!   oversubscribed;
//! * per-query **deadlines** ([`SkylineQuery::deadline`]) are checked
//!   at dequeue and again between plan phases — an expired ticket
//!   terminates with [`EngineError::DeadlineExceeded`] without running
//!   its plan, and a cancelled one with [`EngineError::Cancelled`].
//!
//! Every ticket executes against the dataset snapshot captured at
//! submission (the catalog's entries are immutable behind `Arc`s), so
//! mutations landing while a ticket waits cannot tear its result;
//! [`SkylineQuery::pin_version`] additionally *asserts* which version
//! that snapshot is.
//!
//! [`Engine::shutdown`](crate::Engine::shutdown) closes admission
//! (subsequent submissions are rejected with
//! [`RejectReason::Shutdown`]) and **drains** the queues: every ticket
//! already admitted runs to a terminal outcome before shutdown returns.
//!
//! ## Walkthrough
//!
//! ```
//! use skyline_engine::{Engine, Priority, SessionOptions, SkylineQuery};
//! use skyline_data::Dataset;
//!
//! let engine = Engine::new();
//! engine.register(
//!     "hotels",
//!     Dataset::from_rows(&[vec![120.0, 2.0], vec![90.0, 5.0], vec![150.0, 4.0]]).unwrap(),
//! );
//!
//! // A tenant with a quota: at most 64 queued-or-running tickets.
//! let session = engine.open_session(
//!     SessionOptions::new("acme").priority(Priority::High).max_in_flight(64),
//! );
//!
//! // Non-blocking submission; the ticket is the handle.
//! let ticket = session.submit(&SkylineQuery::new("hotels")).unwrap();
//! let result = ticket.wait().unwrap();
//! assert_eq!(result.indices(), &[0, 1]);
//!
//! // Repeats short-circuit admission from the result cache.
//! let warm = session.submit(&SkylineQuery::new("hotels")).unwrap();
//! assert!(warm.poll().expect("cache hits complete at submit").unwrap().cache_hit);
//! engine.shutdown();
//! ```

use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::engine::{EngineShared, Prepared};
use crate::error::{EngineError, QuotaKind, RejectReason};
use crate::query::{QueryResult, SkylineQuery};
use crate::telemetry::{QueryTrace, SpanKind, TraceSpan};

/// Nano-tokens per admission in the per-tenant token bucket backing
/// [`SessionOptions::qps_cap`]. Integer nano-token arithmetic keeps the
/// refill exact under a [`ManualClock`](crate::ManualClock) — no
/// floating-point drift at window boundaries.
const TOKEN: u64 = 1_000_000_000;

/// Priority classes of the admission queue, dispatched highest first.
/// Each class has its own bounded queue, so saturating one class never
/// blocks admission into another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Background work: bulk exports, prefetchers, analytics.
    Low,
    /// The default class for interactive traffic.
    Normal,
    /// Latency-sensitive traffic; dispatched before everything else.
    High,
}

impl Priority {
    /// Every class, lowest to highest.
    pub const ALL: [Priority; 3] = [Priority::Low, Priority::Normal, Priority::High];

    /// Short label for reports.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }

    #[inline]
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// Construction-time knobs of the admission queue and its dispatcher,
/// carried by [`EngineConfig`](crate::EngineConfig).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum queued tickets **per priority class**; a submission into
    /// a full class is rejected with [`RejectReason::QueueFull`].
    pub queue_capacity: usize,
    /// Maximum tickets one dispatch pass pops from the queues; the pass
    /// schedules them together through the batch core (sequential plans
    /// lane-parallel, parallel plans pool-wide). Larger batches
    /// coalesce better but also bound how long a higher-priority ticket
    /// arriving *just after* a pop waits behind the in-flight batch —
    /// lower it for tighter priority latency under sustained load.
    pub max_batch: usize,
    /// Whether the engine runs a background dispatcher thread. `false`
    /// leaves dispatch to [`Engine::pump`](crate::Engine::pump) /
    /// [`Engine::dispatch_now`](crate::Engine::dispatch_now) (and to
    /// waiting threads, which then drive the queue themselves) — the
    /// deterministic mode the session tests run in.
    pub background_dispatcher: bool,
    /// Queue wait (on the engine clock) after which a ticket counts as
    /// one class higher in dispatch ordering — and two higher after
    /// twice this — so sustained High traffic cannot starve Low
    /// forever. Aging changes *dispatch order only*: capacities and
    /// quotas still apply at the admitted class. `Duration::ZERO`
    /// disables aging (strict priority).
    pub age_boost_after: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 1024,
            max_batch: 64,
            background_dispatcher: true,
            age_boost_after: Duration::from_millis(100),
        }
    }
}

/// Identity, priority class, and quotas of a [`Session`], passed to
/// [`Engine::open_session`](crate::Engine::open_session).
///
/// Quotas attach to the **tenant**, not the session object: two
/// sessions opened for the same tenant share one in-flight count and
/// one rate window (re-opening updates the caps; the last open wins).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionOptions {
    pub(crate) tenant: String,
    pub(crate) priority: Priority,
    pub(crate) max_in_flight: Option<usize>,
    pub(crate) qps_cap: Option<u32>,
}

impl SessionOptions {
    /// Options for `tenant`: [`Priority::Normal`], no quotas.
    pub fn new(tenant: impl Into<String>) -> Self {
        Self {
            tenant: tenant.into(),
            priority: Priority::Normal,
            max_in_flight: None,
            qps_cap: None,
        }
    }

    /// Sets the session's priority class — the ceiling for everything
    /// it submits (a per-query [`SkylineQuery::priority`] can lower a
    /// single submission, never raise it).
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Caps the tenant's queued-or-running tickets; submissions beyond
    /// it are rejected with [`QuotaKind::InFlight`].
    pub fn max_in_flight(mut self, cap: usize) -> Self {
        self.max_in_flight = Some(cap);
        self
    }

    /// Caps the tenant's admitted submissions per second via a token
    /// bucket on the engine's clock: the tenant may burst up to `cap`
    /// admissions, and the bucket refills continuously at `cap` tokens
    /// per second. Submissions finding less than one whole token are
    /// rejected with [`QuotaKind::Rate`]. Cache-hit short-circuits
    /// don't consume the budget.
    pub fn qps_cap(mut self, cap: u32) -> Self {
        self.qps_cap = Some(cap);
        self
    }
}

/// Monotonic counters describing the admission queue's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Tickets admitted into the queue.
    pub submitted: u64,
    /// Submissions answered straight from the result cache, bypassing
    /// admission.
    pub short_circuits: u64,
    /// Tickets that terminated with a result.
    pub completed: u64,
    /// Tickets that terminated cancelled before running.
    pub cancelled: u64,
    /// Tickets whose deadline expired before running to completion.
    pub deadline_expired: u64,
    /// Tickets stranded by a panicking dispatch batch and terminated
    /// with [`EngineError::Internal`] — nonzero means an incident, not
    /// successful completions.
    pub internal_errors: u64,
    /// Submissions rejected because their priority class was full.
    pub rejected_queue_full: u64,
    /// Submissions rejected over a tenant quota.
    pub rejected_quota: u64,
    /// Submissions rejected because the engine was shutting down.
    pub rejected_shutdown: u64,
    /// Tickets currently queued (all classes).
    pub queued: usize,
    /// Tenants currently tracked (live sessions or in-flight tickets).
    pub tenants: usize,
}

/// Terminal outcome slot of a ticket, guarded by the ticket's mutex.
#[derive(Debug, Default)]
pub(crate) struct TicketInner {
    pub(crate) outcome: Option<Result<QueryResult, EngineError>>,
    pub(crate) queue_wait: Option<Duration>,
    /// The sealed execution trace, present once terminal with a
    /// successful outcome.
    pub(crate) trace: Option<Arc<QueryTrace>>,
}

/// Shared state behind a [`QueryTicket`]; the admission queue holds the
/// same `Arc` until dispatch.
#[derive(Debug)]
pub(crate) struct TicketState {
    pub(crate) id: u64,
    pub(crate) tenant: String,
    pub(crate) priority: Priority,
    /// The query resolved against the catalog at submission — the
    /// pinned snapshot the ticket executes on.
    pub(crate) prepared: Prepared,
    /// Absolute expiry on the engine clock, when bounded.
    pub(crate) deadline: Option<Duration>,
    /// Engine-clock reading at admission.
    pub(crate) submitted_at: Duration,
    pub(crate) cancelled: AtomicBool,
    pub(crate) inner: Mutex<TicketInner>,
    pub(crate) done: Condvar,
}

impl TicketState {
    /// Whether the ticket's deadline has passed at clock reading `now`.
    pub(crate) fn expired(&self, now: Duration) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }
}

/// The token-bucket state behind one tenant's
/// [`SessionOptions::qps_cap`], in integer nano-tokens.
#[derive(Debug)]
struct TokenBucket {
    /// Nano-tokens available; one admission costs [`TOKEN`].
    tokens: u64,
    /// Engine-clock reading of the last refill.
    last_refill: Duration,
}

impl TokenBucket {
    /// A bucket starting full: the tenant's initial burst allowance is
    /// exactly `cap`.
    fn full(cap: u32, now: Duration) -> Self {
        Self {
            tokens: u64::from(cap).saturating_mul(TOKEN),
            last_refill: now,
        }
    }

    /// Accrues `cap` tokens per second since the last refill, capped at
    /// a full bucket. Exact in integer nanoseconds: advancing a manual
    /// clock by 500 ms at `cap = 2` yields precisely one token.
    fn refill(&mut self, cap: u32, now: Duration) {
        let elapsed = now.saturating_sub(self.last_refill);
        self.last_refill = now;
        let gained = elapsed
            .as_nanos()
            .saturating_mul(u128::from(cap))
            .min(u128::from(u64::MAX)) as u64;
        let cap_tokens = u64::from(cap).saturating_mul(TOKEN);
        self.tokens = self.tokens.saturating_add(gained).min(cap_tokens);
    }
}

/// Per-tenant admission bookkeeping: the caps from the last
/// [`SessionOptions`] that opened the tenant, plus live usage.
#[derive(Debug, Default)]
struct TenantState {
    max_in_flight: Option<usize>,
    qps_cap: Option<u32>,
    /// Live [`Session`] handles naming this tenant; the entry is
    /// dropped when this and `in_flight` both reach zero.
    sessions: usize,
    in_flight: usize,
    /// Lazily initialized (full) at the first capped submission; reset
    /// when a re-open changes `qps_cap`.
    bucket: Option<TokenBucket>,
}

/// A queued ticket, ordered for the per-class heap: earliest deadline
/// first, submission id as the tie-break — so a class whose tickets
/// carry no deadlines dequeues strictly FIFO.
#[derive(Debug)]
struct QueueEntry(Arc<TicketState>);

impl QueueEntry {
    fn key(&self) -> (Duration, u64) {
        (self.0.deadline.unwrap_or(Duration::MAX), self.0.id)
    }
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0.id == other.0.id
    }
}
impl Eq for QueueEntry {}
impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueEntry {
    /// Reversed on purpose: [`BinaryHeap`] is a max-heap, so the
    /// smallest `(deadline, id)` key must compare greatest.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key().cmp(&self.key())
    }
}

/// One priority class's queue with **per-tenant fair share**: each
/// tenant gets its own deadline-ordered heap, and dequeue round-robins
/// across the tenants holding queued tickets — so one tenant
/// bulk-submitting a thousand tickets into a class cannot make a
/// co-tenant's single ticket wait behind all of them. Capacity and the
/// cross-class dispatch rules (aging, seniority) are unchanged; with a
/// single tenant queued the class degenerates to one plain
/// deadline-ordered queue.
#[derive(Debug, Default)]
struct ClassQueue {
    /// Per-tenant deadline-ordered heaps; a tenant's entry exists iff
    /// it has queued tickets.
    tenants: HashMap<String, BinaryHeap<QueueEntry>>,
    /// Round-robin dequeue order over the tenants in `tenants`; each
    /// appears exactly once.
    rr: VecDeque<String>,
    /// Total queued tickets across all tenants.
    len: usize,
}

impl ClassQueue {
    fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, ticket: Arc<TicketState>) {
        let heap = self.tenants.entry(ticket.tenant.clone()).or_default();
        if heap.is_empty() {
            self.rr.push_back(ticket.tenant.clone());
        }
        heap.push(QueueEntry(ticket));
        self.len += 1;
    }

    /// The ticket the next [`pop`](Self::pop) would return: the
    /// round-robin front tenant's earliest-deadline ticket.
    fn peek(&self) -> Option<&QueueEntry> {
        self.tenants.get(self.rr.front()?)?.peek()
    }

    fn pop(&mut self) -> Option<Arc<TicketState>> {
        let name = self.rr.pop_front()?;
        let heap = self
            .tenants
            .get_mut(&name)
            .expect("rr names tenants with queued tickets");
        let entry = heap.pop().expect("rr tenants have queued tickets");
        if heap.is_empty() {
            self.tenants.remove(&name);
        } else {
            self.rr.push_back(name);
        }
        self.len -= 1;
        Some(entry.0)
    }
}

#[derive(Debug, Default)]
struct AdmissionState {
    /// One bounded queue per priority class, indexed by
    /// [`Priority::index`]; within a class, dequeue is round-robin
    /// across tenants, earliest deadline first within a tenant.
    queues: [ClassQueue; 3],
    tenants: HashMap<String, TenantState>,
    shutdown: bool,
}

impl AdmissionState {
    fn queued(&self) -> usize {
        self.queues.iter().map(ClassQueue::len).sum()
    }
}

/// The admission queue, tenant registry, and dispatcher bookkeeping —
/// one per engine, shared by every session and ticket.
#[derive(Debug)]
pub(crate) struct SessionRuntime {
    cfg: AdmissionConfig,
    state: Mutex<AdmissionState>,
    /// Signalled on enqueue and on shutdown; the background dispatcher
    /// waits on it.
    work: Condvar,
    worker: Mutex<Option<JoinHandle<()>>>,
    next_id: AtomicU64,
    submitted: AtomicU64,
    short_circuits: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    deadline_expired: AtomicU64,
    internal_errors: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_quota: AtomicU64,
    rejected_shutdown: AtomicU64,
}

impl SessionRuntime {
    pub(crate) fn new(cfg: AdmissionConfig) -> Self {
        Self {
            cfg,
            state: Mutex::new(AdmissionState::default()),
            work: Condvar::new(),
            worker: Mutex::new(None),
            next_id: AtomicU64::new(1),
            submitted: AtomicU64::new(0),
            short_circuits: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            internal_errors: AtomicU64::new(0),
            rejected_queue_full: AtomicU64::new(0),
            rejected_quota: AtomicU64::new(0),
            rejected_shutdown: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, AdmissionState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Starts the background dispatcher, when configured. The thread
    /// drains batches until shutdown, then empties the queues and
    /// exits.
    pub(crate) fn spawn_worker(self: &Arc<Self>, shared: &Arc<EngineShared>) {
        if !self.cfg.background_dispatcher {
            return;
        }
        let runtime = Arc::clone(self);
        let shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("skyline-dispatch".into())
            .spawn(move || loop {
                let batch = {
                    let mut st = runtime.lock();
                    loop {
                        let batch = runtime.pop_batch(&mut st, shared.clock.now());
                        if !batch.is_empty() {
                            break batch;
                        }
                        if st.shutdown {
                            return;
                        }
                        st = runtime.work.wait(st).unwrap_or_else(|e| e.into_inner());
                    }
                };
                runtime.run_batch_guarded(&shared, batch, true);
            })
            .expect("spawning the dispatcher thread");
        *self.worker.lock().unwrap_or_else(|e| e.into_inner()) = Some(handle);
    }

    /// Runs one batch with a panic guard: if the batch core panics
    /// (an algorithm bug, a poisoned invariant), every ticket it had
    /// claimed still reaches a terminal [`EngineError::Internal`]
    /// outcome and the dispatcher survives — waiters must never hang
    /// on a dead thread.
    ///
    /// `steal` lets the batch core pull queued higher-class tickets in
    /// between this batch's pool-wide plans; it is `false` for the
    /// stolen sub-batches themselves, bounding the recursion.
    pub(crate) fn run_batch_guarded(
        &self,
        shared: &EngineShared,
        batch: Vec<Arc<TicketState>>,
        steal: bool,
    ) {
        let mirror = batch.clone();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared.run_ticket_batch(self, batch, steal);
        }));
        if outcome.is_err() {
            for ticket in mirror {
                let pending = ticket
                    .inner
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .outcome
                    .is_none();
                if pending {
                    let wait = shared.clock.now().saturating_sub(ticket.submitted_at);
                    self.complete(&ticket, Err(EngineError::Internal), wait, None);
                }
            }
        }
    }

    /// Registers (or re-registers) a tenant with the given caps and
    /// takes one session reference on it.
    pub(crate) fn open(&self, options: &SessionOptions) {
        let mut st = self.lock();
        let tenant = st.tenants.entry(options.tenant.clone()).or_default();
        tenant.max_in_flight = options.max_in_flight;
        if tenant.qps_cap != options.qps_cap {
            // A changed rate cap re-seeds the bucket at the new size on
            // the next capped submission; re-opening with the *same*
            // cap must not hand the tenant a fresh burst.
            tenant.bucket = None;
        }
        tenant.qps_cap = options.qps_cap;
        tenant.sessions += 1;
    }

    /// Takes one more session reference on `tenant` (session clone).
    pub(crate) fn retain_tenant(&self, tenant: &str) {
        let mut st = self.lock();
        if let Some(t) = st.tenants.get_mut(tenant) {
            t.sessions += 1;
        }
    }

    /// Releases one session reference; the tenant's bookkeeping is
    /// dropped once no session holds it and nothing is in flight, so
    /// high-cardinality tenant names cannot grow the registry without
    /// bound.
    pub(crate) fn release_tenant(&self, tenant: &str) {
        let mut st = self.lock();
        if let Some(t) = st.tenants.get_mut(tenant) {
            t.sessions = t.sessions.saturating_sub(1);
            if t.sessions == 0 && t.in_flight == 0 {
                st.tenants.remove(tenant);
            }
        }
    }

    pub(crate) fn is_shutdown(&self) -> bool {
        self.lock().shutdown
    }

    pub(crate) fn has_worker(&self) -> bool {
        self.worker
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_some()
    }

    /// Non-blocking submission: validate, short-circuit on a cache hit,
    /// otherwise pass admission (shutdown, quotas, class capacity) and
    /// enqueue. The returned state is either already terminal (hit) or
    /// queued for the dispatcher.
    ///
    /// `enforce_quotas` is false only for the engine's internal direct
    /// session: its submissions still count in-flight (for tenant
    /// bookkeeping) but are never rejected by caps — even if a user
    /// opens a capped session under the same tenant name, the blocking
    /// `execute` wrappers keep their no-quota-rejection contract.
    pub(crate) fn submit(
        &self,
        shared: &Arc<EngineShared>,
        tenant: &str,
        class: Priority,
        enforce_quotas: bool,
        query: &SkylineQuery,
    ) -> Result<Arc<TicketState>, EngineError> {
        let prepared = shared.prepare(query)?;
        if let Some(pin) = query.options().pin_version() {
            let current = prepared.entry.version();
            if current != pin {
                return Err(EngineError::VersionUnavailable {
                    requested: pin,
                    current,
                });
            }
        }
        if self.is_shutdown() {
            self.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
            return Err(EngineError::Rejected(RejectReason::Shutdown));
        }
        // A query may *lower* its class (a high-priority tenant
        // demoting bulk work) but never raise it above the session's —
        // otherwise any flooder could submit straight into High and
        // defeat class isolation.
        let priority = query.options().priority().map_or(class, |p| p.min(class));
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // Telemetry counts every attempt that reaches admission with a
        // resolved class — including the ones rejected below — mirroring
        // the client's view of "submissions".
        shared.telemetry.on_submitted(priority);

        // Counted cache probe: hits short-circuit admission — no queue
        // slot, no quota consumption.
        if let Some(hit) = shared.probe(&prepared, Instant::now()) {
            self.short_circuits.fetch_add(1, Ordering::Relaxed);
            let submitted_at = shared.clock.now();
            shared.queue_waits.record(priority, Duration::ZERO);
            let trace = Arc::new(QueryTrace {
                query_id: id,
                dataset: prepared.entry.name().to_string(),
                strategy: "cache",
                reason: hit.plan.reason,
                spans: vec![TraceSpan {
                    kind: SpanKind::CacheHit,
                    shard: None,
                    start: submitted_at,
                    duration: Duration::ZERO,
                    dominance_tests: 0,
                }],
                queue_wait: Duration::ZERO,
                total: Duration::ZERO,
                dominance_tests: 0,
                cache_hit: true,
            });
            shared.telemetry.on_completed(priority);
            shared.telemetry.record_latency(Duration::ZERO);
            shared.telemetry.slow_log().offer(&trace);
            let state = Arc::new(TicketState {
                id,
                tenant: tenant.to_string(),
                priority,
                prepared,
                deadline: None,
                submitted_at,
                cancelled: AtomicBool::new(false),
                inner: Mutex::new(TicketInner {
                    outcome: Some(Ok(hit)),
                    queue_wait: Some(Duration::ZERO),
                    trace: Some(trace),
                }),
                done: Condvar::new(),
            });
            return Ok(state);
        }

        let now = shared.clock.now();
        let mut st = self.lock();
        if st.shutdown {
            drop(st);
            self.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
            return Err(EngineError::Rejected(RejectReason::Shutdown));
        }
        let tstate = st
            .tenants
            .get_mut(tenant)
            .expect("sessions register their tenant at open");
        if enforce_quotas {
            if let Some(cap) = tstate.qps_cap {
                // Token bucket on the engine clock: burst up to `cap`,
                // sustained refill of `cap` per second. Unlike the
                // fixed window it replaced, no boundary instant doubles
                // the burst allowance.
                let bucket = tstate
                    .bucket
                    .get_or_insert_with(|| TokenBucket::full(cap, now));
                bucket.refill(cap, now);
                if bucket.tokens < TOKEN {
                    drop(st);
                    self.rejected_quota.fetch_add(1, Ordering::Relaxed);
                    shared.telemetry.on_rejected_quota(priority);
                    return Err(EngineError::Rejected(RejectReason::QuotaExceeded {
                        tenant: tenant.to_string(),
                        quota: QuotaKind::Rate,
                    }));
                }
            }
            if let Some(cap) = tstate.max_in_flight {
                if tstate.in_flight >= cap {
                    drop(st);
                    self.rejected_quota.fetch_add(1, Ordering::Relaxed);
                    shared.telemetry.on_rejected_quota(priority);
                    return Err(EngineError::Rejected(RejectReason::QuotaExceeded {
                        tenant: tenant.to_string(),
                        quota: QuotaKind::InFlight,
                    }));
                }
            }
        }
        let queued = st.queues[priority.index()].len();
        if queued >= self.cfg.queue_capacity {
            drop(st);
            self.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
            shared.telemetry.on_rejected_queue_full(priority);
            return Err(EngineError::Rejected(RejectReason::QueueFull { queued }));
        }
        // Admitted: commit the quota usage and enqueue.
        let tstate = st
            .tenants
            .get_mut(tenant)
            .expect("checked just above under the same lock");
        if enforce_quotas {
            if let Some(bucket) = tstate.bucket.as_mut() {
                bucket.tokens = bucket.tokens.saturating_sub(TOKEN);
            }
        }
        tstate.in_flight += 1;
        let state = Arc::new(TicketState {
            id,
            tenant: tenant.to_string(),
            priority,
            prepared,
            // Saturating: Duration::MAX as a "no deadline" sentinel
            // must not panic the submit path (quota already committed).
            deadline: query.options().deadline().map(|d| now.saturating_add(d)),
            submitted_at: now,
            cancelled: AtomicBool::new(false),
            inner: Mutex::new(TicketInner::default()),
            done: Condvar::new(),
        });
        st.queues[priority.index()].push(Arc::clone(&state));
        drop(st);
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.work.notify_one();
        Ok(state)
    }

    /// A queued ticket's class for dispatch ordering: its admitted
    /// class plus the aging boost its queue wait has earned
    /// ([`AdmissionConfig::age_boost_after`]), capped at
    /// [`Priority::High`].
    fn effective_class(&self, ticket: &TicketState, now: Duration) -> usize {
        let native = ticket.priority.index();
        let step = self.cfg.age_boost_after;
        if step.is_zero() {
            return native;
        }
        let wait = now.saturating_sub(ticket.submitted_at);
        let boost = (wait.as_nanos() / step.as_nanos()).min(2) as usize;
        (native + boost).min(Priority::High.index())
    }

    /// Pops the best queued ticket: highest *effective* class first
    /// (ties broken by seniority — earlier submission wins, so an aged
    /// Low beats a fresh High of equal effective class), deadline order
    /// within a class. `floor`, when set, only accepts tickets whose
    /// effective class is strictly above it.
    fn pop_next(
        &self,
        st: &mut AdmissionState,
        now: Duration,
        floor: Option<Priority>,
    ) -> Option<Arc<TicketState>> {
        let mut best: Option<(usize, usize, Duration, u64)> = None;
        for class in 0..st.queues.len() {
            let Some(entry) = st.queues[class].peek() else {
                continue;
            };
            let t = &entry.0;
            let eff = self.effective_class(t, now);
            if floor.is_some_and(|f| eff <= f.index()) {
                continue;
            }
            let better = match &best {
                None => true,
                Some((_, beff, bsub, bid)) => {
                    eff > *beff || (eff == *beff && (t.submitted_at, t.id) < (*bsub, *bid))
                }
            };
            if better {
                best = Some((class, eff, t.submitted_at, t.id));
            }
        }
        best.map(|(class, ..)| st.queues[class].pop().expect("peeked just above"))
    }

    /// Pops up to `max_batch` tickets by effective class (aging
    /// included), earliest deadline first within a class.
    fn pop_batch(&self, st: &mut AdmissionState, now: Duration) -> Vec<Arc<TicketState>> {
        let mut batch = Vec::new();
        while batch.len() < self.cfg.max_batch {
            match self.pop_next(st, now, None) {
                Some(t) => batch.push(t),
                None => break,
            }
        }
        batch
    }

    /// Pops queued tickets whose effective class is strictly above
    /// `floor` — the batch core calls this between a batch's pool-wide
    /// plans so late-arriving (or newly aged) higher-class tickets
    /// overtake the remainder of an in-flight batch instead of waiting
    /// it out.
    pub(crate) fn pop_higher(&self, now: Duration, floor: Priority) -> Vec<Arc<TicketState>> {
        if floor == Priority::High {
            return Vec::new();
        }
        let mut st = self.lock();
        let mut batch = Vec::new();
        while batch.len() < self.cfg.max_batch {
            match self.pop_next(&mut st, now, Some(floor)) {
                Some(t) => batch.push(t),
                None => break,
            }
        }
        batch
    }

    /// Pops and runs one batch; returns how many tickets it processed
    /// (0 when the queues were empty).
    pub(crate) fn dispatch_batch(&self, shared: &Arc<EngineShared>) -> usize {
        let batch = {
            let mut st = self.lock();
            self.pop_batch(&mut st, shared.clock.now())
        };
        if batch.is_empty() {
            return 0;
        }
        let n = batch.len();
        self.run_batch_guarded(shared, batch, true);
        n
    }

    /// Closes admission and drains: joins the background dispatcher
    /// (which empties the queues before exiting) or, without one,
    /// dispatches inline until nothing is queued. Idempotent.
    pub(crate) fn shutdown(&self, shared: &Arc<EngineShared>) {
        {
            let mut st = self.lock();
            st.shutdown = true;
        }
        self.work.notify_all();
        let worker = self.worker.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(handle) = worker {
            let _ = handle.join();
        }
        while self.dispatch_batch(shared) > 0 {}
    }

    /// Records a ticket's terminal outcome (and its sealed trace, when
    /// the engine traced it), releases its tenant's in-flight slot, and
    /// wakes every waiter.
    pub(crate) fn complete(
        &self,
        ticket: &TicketState,
        outcome: Result<QueryResult, EngineError>,
        queue_wait: Duration,
        trace: Option<Arc<QueryTrace>>,
    ) {
        {
            let mut st = self.lock();
            if let Some(t) = st.tenants.get_mut(&ticket.tenant) {
                t.in_flight = t.in_flight.saturating_sub(1);
                if t.sessions == 0 && t.in_flight == 0 {
                    st.tenants.remove(&ticket.tenant);
                }
            }
        }
        match &outcome {
            Err(EngineError::Cancelled) => self.cancelled.fetch_add(1, Ordering::Relaxed),
            Err(EngineError::DeadlineExceeded) => {
                self.deadline_expired.fetch_add(1, Ordering::Relaxed)
            }
            Err(EngineError::Internal) => self.internal_errors.fetch_add(1, Ordering::Relaxed),
            _ => self.completed.fetch_add(1, Ordering::Relaxed),
        };
        {
            let mut inner = ticket.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.outcome = Some(outcome);
            inner.queue_wait = Some(queue_wait);
            inner.trace = trace;
        }
        ticket.done.notify_all();
    }

    /// Snapshot of the admission counters.
    pub(crate) fn stats(&self) -> SessionStats {
        let (queued, tenants) = {
            let st = self.lock();
            (st.queued(), st.tenants.len())
        };
        SessionStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            short_circuits: self.short_circuits.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            internal_errors: self.internal_errors.load(Ordering::Relaxed),
            rejected_queue_full: self.rejected_queue_full.load(Ordering::Relaxed),
            rejected_quota: self.rejected_quota.load(Ordering::Relaxed),
            rejected_shutdown: self.rejected_shutdown.load(Ordering::Relaxed),
            queued,
            tenants,
        }
    }
}

/// A tenant's handle for submitting queries; opened with
/// [`Engine::open_session`](crate::Engine::open_session). Cheap to
/// clone and freely shared across threads; every clone submits under
/// the same tenant identity and quota. The tenant's admission
/// bookkeeping lives as long as any of its sessions (or in-flight
/// tickets) do, and is dropped afterwards.
#[derive(Debug)]
pub struct Session {
    shared: Arc<EngineShared>,
    runtime: Arc<SessionRuntime>,
    tenant: String,
    priority: Priority,
    /// False only for the engine's internal direct session: submissions
    /// bypass the tenant's quota caps (the blocking `execute` wrappers
    /// must never surface a quota rejection, even when a user session
    /// puts caps on the same tenant name).
    enforce_quotas: bool,
}

impl Clone for Session {
    fn clone(&self) -> Self {
        self.runtime.retain_tenant(&self.tenant);
        Self {
            shared: Arc::clone(&self.shared),
            runtime: Arc::clone(&self.runtime),
            tenant: self.tenant.clone(),
            priority: self.priority,
            enforce_quotas: self.enforce_quotas,
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.runtime.release_tenant(&self.tenant);
    }
}

impl Session {
    pub(crate) fn open(
        shared: &Arc<EngineShared>,
        runtime: &Arc<SessionRuntime>,
        options: SessionOptions,
    ) -> Self {
        Self::build(shared, runtime, options, true)
    }

    /// The engine's internal session behind the blocking wrappers:
    /// quota enforcement off.
    pub(crate) fn open_internal(
        shared: &Arc<EngineShared>,
        runtime: &Arc<SessionRuntime>,
        options: SessionOptions,
    ) -> Self {
        Self::build(shared, runtime, options, false)
    }

    fn build(
        shared: &Arc<EngineShared>,
        runtime: &Arc<SessionRuntime>,
        options: SessionOptions,
        enforce_quotas: bool,
    ) -> Self {
        runtime.open(&options);
        Self {
            shared: Arc::clone(shared),
            runtime: Arc::clone(runtime),
            tenant: options.tenant,
            priority: options.priority,
            enforce_quotas,
        }
    }

    /// The tenant this session submits as.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The session's default priority class.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Submits a query without blocking.
    ///
    /// On success the [`QueryTicket`] either is already complete (the
    /// result cache answered at submission) or sits in the admission
    /// queue for the dispatcher. Errors are immediate: invalid queries,
    /// pin mismatches ([`EngineError::VersionUnavailable`]), and
    /// admission rejections ([`EngineError::Rejected`]) never create a
    /// ticket.
    pub fn submit(&self, query: &SkylineQuery) -> Result<QueryTicket, EngineError> {
        let state = self.runtime.submit(
            &self.shared,
            &self.tenant,
            self.priority,
            self.enforce_quotas,
            query,
        )?;
        Ok(QueryTicket {
            state,
            runtime: Arc::clone(&self.runtime),
            shared: Arc::clone(&self.shared),
        })
    }

    /// Submit-and-wait convenience: the session-scoped equivalent of
    /// [`Engine::execute`](crate::Engine::execute).
    pub fn execute(&self, query: &SkylineQuery) -> Result<QueryResult, EngineError> {
        self.submit(query)?.wait()
    }
}

/// A handle to one submitted query.
///
/// The ticket resolves to exactly one terminal outcome: a
/// [`QueryResult`], or [`EngineError::Cancelled`] /
/// [`EngineError::DeadlineExceeded`] when it terminated without
/// executing. Dropping a ticket does not cancel it.
#[derive(Debug)]
pub struct QueryTicket {
    state: Arc<TicketState>,
    runtime: Arc<SessionRuntime>,
    shared: Arc<EngineShared>,
}

impl QueryTicket {
    /// Engine-unique ticket id (also carried by rejection-free logs).
    pub fn id(&self) -> u64 {
        self.state.id
    }

    /// The submitting tenant.
    pub fn tenant(&self) -> &str {
        &self.state.tenant
    }

    /// The class the ticket was admitted under.
    pub fn priority(&self) -> Priority {
        self.state.priority
    }

    /// The dataset version the ticket's snapshot observes.
    pub fn dataset_version(&self) -> u64 {
        self.state.prepared.entry.version()
    }

    /// Non-blocking check: the terminal outcome, if the ticket has one.
    pub fn poll(&self) -> Option<Result<QueryResult, EngineError>> {
        self.state
            .inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .outcome
            .clone()
    }

    /// How long the ticket waited in the admission queue, once it has
    /// terminated (zero for cache-hit short-circuits).
    pub fn queue_wait(&self) -> Option<Duration> {
        self.state
            .inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .queue_wait
    }

    /// The query's execution trace: per-stage spans with wall time on
    /// the engine clock and dominance-test counts, the planner's
    /// decision, and the cache verdict. Present once the ticket
    /// terminated successfully; `None` while pending or after a failed
    /// outcome.
    pub fn trace(&self) -> Option<Arc<QueryTrace>> {
        self.state
            .inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .trace
            .clone()
    }

    /// Blocks until the ticket terminates.
    ///
    /// With the background dispatcher running this parks on the
    /// ticket's condvar. Without one (manual dispatch mode) the waiting
    /// thread drives the queue itself, so `wait` — and therefore
    /// [`Engine::execute`](crate::Engine::execute) — still completes.
    pub fn wait(&self) -> Result<QueryResult, EngineError> {
        if self.runtime.has_worker() {
            let mut inner = self.state.inner.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(out) = &inner.outcome {
                    return out.clone();
                }
                inner = self
                    .state
                    .done
                    .wait(inner)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
        loop {
            if let Some(out) = self.poll() {
                return out;
            }
            if self.runtime.dispatch_batch(&self.shared) == 0 {
                // Our ticket is inside a batch another thread is
                // running; park briefly on the completion condvar
                // (complete() notifies it) instead of spinning.
                self.park_briefly();
            }
        }
    }

    /// Parks on the completion condvar for at most a millisecond — the
    /// manual-mode idle wait while another thread runs the batch that
    /// claimed this ticket.
    fn park_briefly(&self) {
        let inner = self.state.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.outcome.is_none() {
            let _ = self
                .state
                .done
                .wait_timeout(inner, Duration::from_millis(1));
        }
    }

    /// Blocks up to `timeout` — measured on the **engine clock**, the
    /// same timebase as query deadlines — for the ticket to terminate;
    /// `None` on timeout: the ticket stays queued and a later
    /// [`wait`](Self::wait)/[`poll`](Self::poll) can still collect it.
    ///
    /// Under a [`ManualClock`](crate::ManualClock) the timeout only
    /// elapses when the test advances the clock, so timeouts and
    /// deadlines can never disagree; waiters park in short real-time
    /// slices ([`Clock::park_slice`](crate::Clock::park_slice)) between
    /// re-reads of the manual time.
    ///
    /// In manual dispatch mode the waiting thread executes dispatch
    /// passes itself, and a pass is not preemptible: the return can
    /// overshoot `timeout` by however long one batch takes to run.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<QueryResult, EngineError>> {
        let clock = &self.shared.clock;
        let expires = clock.now().saturating_add(timeout);
        if self.runtime.has_worker() {
            let mut inner = self.state.inner.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(out) = &inner.outcome {
                    return Some(out.clone());
                }
                let now = clock.now();
                if now >= expires {
                    return None;
                }
                inner = self
                    .state
                    .done
                    .wait_timeout(inner, clock.park_slice(expires - now))
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
        }
        loop {
            if let Some(out) = self.poll() {
                return Some(out);
            }
            if clock.now() >= expires {
                return None;
            }
            if self.runtime.dispatch_batch(&self.shared) == 0 {
                self.park_briefly();
            }
        }
    }

    /// Requests cancellation. A ticket still queued when the dispatcher
    /// reaches it terminates with [`EngineError::Cancelled`] and never
    /// runs its plan; one already executing runs to completion.
    ///
    /// Returns `true` when the request was registered before the ticket
    /// had a terminal outcome (the plan may still complete if it was
    /// already running), `false` when the outcome already existed.
    pub fn cancel(&self) -> bool {
        self.state.cancelled.store(true, Ordering::SeqCst);
        self.state
            .inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .outcome
            .is_none()
    }
}
