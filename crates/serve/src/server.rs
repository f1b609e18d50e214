//! The HTTP front door: accept pool, routing, auth, and graceful drain.
//!
//! [`SkylineServer::start`] binds a `TcpListener` and spawns a small
//! pool of acceptor threads; each accepted connection gets its own
//! detached handler thread (connections are long-lived and mostly
//! blocked on reads, so a thread per connection is the simple, honest
//! model at this scale). Requests map one-to-one onto
//! [`Session::submit`] — the server adds nothing to the admission
//! story beyond translating [`EngineError`]s to status codes, so
//! back-pressure decisions stay in the engine where the tests pin
//! them.
//!
//! ## Routes
//!
//! | Method | Path           | Purpose                                   |
//! |--------|----------------|-------------------------------------------|
//! | GET    | `/healthz`     | liveness (`draining` once shutdown began) |
//! | GET    | `/metrics`     | engine + server metrics exposition        |
//! | GET    | `/v1/datasets` | catalog listing                           |
//! | POST   | `/v1/query`    | submit a skyline query                    |
//!
//! ## Drain
//!
//! [`SkylineServer::shutdown`] stops the acceptors, lets every
//! in-flight request run to completion against a still-live engine,
//! waits for the connection count to hit zero, and only then shuts the
//! engine down (configurable). Idle keep-alive connections, and ones
//! stalled halfway through sending a request, notice the stop flag at
//! their next read-timeout poll and close.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use skyline_data::Preference;
use skyline_engine::{
    Counter, EngineError, Gauge, Histogram, Priority, QueryKind, QueryResult, RejectReason,
    Session, SessionOptions, SkylineQuery,
};

use crate::http::{self, ChunkedWriter, ReadOutcome, Request};
use crate::json::{self, Json};

/// Engine-side identity and quotas granted to an auth token.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name reported to the engine (quota bucket and telemetry
    /// label).
    pub tenant: String,
    /// Default priority class for the tenant's queries.
    pub priority: Priority,
    /// Optional in-flight ticket cap ([`SessionOptions::max_in_flight`]).
    pub max_in_flight: Option<usize>,
    /// Optional sustained submissions-per-second cap
    /// ([`SessionOptions::qps_cap`]).
    pub qps_cap: Option<u32>,
}

impl TenantSpec {
    /// A spec with default priority and no quotas.
    pub fn new(tenant: impl Into<String>) -> Self {
        Self {
            tenant: tenant.into(),
            priority: Priority::Normal,
            max_in_flight: None,
            qps_cap: None,
        }
    }

    fn session_options(&self) -> SessionOptions {
        let mut opts = SessionOptions::new(&self.tenant).priority(self.priority);
        if let Some(cap) = self.max_in_flight {
            opts = opts.max_in_flight(cap);
        }
        if let Some(cap) = self.qps_cap {
            opts = opts.qps_cap(cap);
        }
        opts
    }
}

/// Server tuning knobs; the defaults suit tests and local runs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks an ephemeral port (see
    /// [`SkylineServer::local_addr`]).
    pub addr: String,
    /// Acceptor threads sharing the listener.
    pub acceptors: usize,
    /// Hard cap on concurrent connections; excess connections get an
    /// immediate `503` and are closed.
    pub max_connections: usize,
    /// Skyline indices per streamed chunk.
    pub page_rows: usize,
    /// Results with more indices than this stream back chunked instead
    /// of as one fixed-length body.
    pub stream_threshold: usize,
    /// Maximum accepted request body, in bytes.
    pub max_body_bytes: usize,
    /// Socket read-timeout; the granularity at which idle connections
    /// notice shutdown.
    pub idle_poll: Duration,
    /// Auth-token → tenant mapping. Requests must present one of these
    /// as `Authorization: Bearer <token>` unless `allow_anonymous`.
    pub tokens: Vec<(String, TenantSpec)>,
    /// Accept requests without a token under the `anonymous` tenant.
    pub allow_anonymous: bool,
    /// Whether [`SkylineServer::shutdown`] also shuts the engine down
    /// after the connection drain completes.
    pub shutdown_engine: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            acceptors: 2,
            max_connections: 256,
            page_rows: 4096,
            stream_threshold: 16 * 1024,
            max_body_bytes: 64 * 1024,
            idle_poll: Duration::from_millis(25),
            tokens: Vec::new(),
            allow_anonymous: true,
            shutdown_engine: true,
        }
    }
}

/// Server-side instruments, registered into the engine's metrics
/// exposition so `GET /metrics` covers both layers.
#[derive(Debug)]
struct ServeMetrics {
    connections: Arc<Counter>,
    active: Arc<Gauge>,
    requests: Arc<Counter>,
    rejected: Arc<Counter>,
    streamed_chunks: Arc<Counter>,
    latency: Arc<Histogram>,
}

struct Inner {
    engine: Arc<skyline_engine::Engine>,
    cfg: ServeConfig,
    stop: AtomicBool,
    /// Active connection count + the condvar `shutdown` waits on.
    conns: (Mutex<usize>, Condvar),
    metrics: ServeMetrics,
}

/// Decrements the connection count on scope exit (normal return or
/// handler panic), waking any drain waiter.
struct ConnGuard(Arc<Inner>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        let (lock, cvar) = &self.0.conns;
        let mut n = lock.lock().unwrap_or_else(|e| e.into_inner());
        *n = n.saturating_sub(1);
        cvar.notify_all();
        self.0.metrics.active.set(*n as f64);
    }
}

/// A running HTTP front door. Dropping the handle does **not** stop
/// the server; call [`shutdown`](Self::shutdown).
pub struct SkylineServer {
    inner: Arc<Inner>,
    local_addr: SocketAddr,
    acceptors: Mutex<Vec<JoinHandle<()>>>,
    shut: AtomicBool,
}

impl std::fmt::Debug for SkylineServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SkylineServer")
            .field("local_addr", &self.local_addr)
            .field("stopping", &self.inner.stop.load(Ordering::SeqCst))
            .finish()
    }
}

impl SkylineServer {
    /// Binds the listener and spawns the accept pool. The engine must
    /// outlive the server (it is shared via `Arc`).
    pub fn start(engine: Arc<skyline_engine::Engine>, cfg: ServeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let reg = engine.metrics_registry();
        let metrics = ServeMetrics {
            connections: reg.counter("serve.connections", &[]),
            active: reg.gauge("serve.connections.active", &[]),
            requests: reg.counter("serve.requests", &[]),
            rejected: reg.counter("serve.requests.rejected", &[]),
            streamed_chunks: reg.counter("serve.streamed.chunks", &[]),
            latency: reg.histogram("serve.request.latency", &[]),
        };
        let inner = Arc::new(Inner {
            engine,
            cfg,
            stop: AtomicBool::new(false),
            conns: (Mutex::new(0), Condvar::new()),
            metrics,
        });
        let mut handles = Vec::new();
        for i in 0..inner.cfg.acceptors.max(1) {
            let listener = listener.try_clone()?;
            let inner = Arc::clone(&inner);
            handles.push(
                thread::Builder::new()
                    .name(format!("serve-accept-{i}"))
                    .spawn(move || accept_loop(listener, inner))
                    .expect("spawn acceptor"),
            );
        }
        Ok(Self {
            inner,
            local_addr,
            acceptors: Mutex::new(handles),
            shut: AtomicBool::new(false),
        })
    }

    /// The bound address (resolves port `0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Active connection count right now.
    pub fn active_connections(&self) -> usize {
        *self.inner.conns.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Graceful drain: stop accepting, let in-flight requests finish,
    /// wait for every connection to close, then (by default) shut the
    /// engine down. Idempotent; the second caller returns immediately
    /// without waiting.
    pub fn shutdown(&self) {
        if self.shut.swap(true, Ordering::SeqCst) {
            return;
        }
        self.inner.stop.store(true, Ordering::SeqCst);
        // Acceptors block in `accept`; poke them awake until each one
        // has observed the flag and exited.
        let handles =
            std::mem::take(&mut *self.acceptors.lock().unwrap_or_else(|e| e.into_inner()));
        for h in &handles {
            while !h.is_finished() {
                let _ = TcpStream::connect(self.local_addr);
                thread::sleep(Duration::from_millis(1));
            }
        }
        for h in handles {
            let _ = h.join();
        }
        // Connection handlers notice the flag at their next read poll
        // (idle or mid-request); requests already executing run to
        // completion first.
        let (lock, cvar) = &self.inner.conns;
        let mut n = lock.lock().unwrap_or_else(|e| e.into_inner());
        while *n > 0 {
            let (guard, _) = cvar
                .wait_timeout(n, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner());
            n = guard;
        }
        drop(n);
        if self.inner.cfg.shutdown_engine {
            self.inner.engine.shutdown();
        }
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<Inner>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if inner.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if inner.stop.load(Ordering::SeqCst) {
            // This may be the shutdown wake-up connection; either way,
            // no new connections once draining.
            return;
        }
        // Admission at the connection level: over the cap, shed load
        // immediately instead of queueing invisible work.
        {
            let (lock, _) = &inner.conns;
            let mut n = lock.lock().unwrap_or_else(|e| e.into_inner());
            if *n >= inner.cfg.max_connections {
                drop(n);
                let mut stream = stream;
                let _ = http::write_response(
                    &mut stream,
                    503,
                    "application/json",
                    &[("Retry-After", "1")],
                    b"{\"error\":\"connection limit reached\"}",
                );
                continue;
            }
            *n += 1;
            inner.metrics.active.set(*n as f64);
        }
        inner.metrics.connections.inc();
        let inner = Arc::clone(&inner);
        // Detached on purpose: ConnGuard's decrement is what `shutdown`
        // waits on, so joining individual handles is unnecessary.
        let _ = thread::Builder::new()
            .name("serve-conn".to_string())
            .spawn(move || {
                let guard = ConnGuard(Arc::clone(&inner));
                handle_connection(stream, inner);
                drop(guard);
            });
    }
}

fn handle_connection(mut stream: TcpStream, inner: Arc<Inner>) {
    if http::configure(&stream, inner.cfg.idle_poll).is_err() {
        return;
    }
    let mut buf = Vec::new();
    // Sessions are cached per connection keyed by token, so a
    // keep-alive client pays the session-open cost once.
    let mut sessions: HashMap<String, Session> = HashMap::new();
    loop {
        let outcome = match http::read_request(
            &mut stream,
            &mut buf,
            inner.cfg.max_body_bytes,
            &inner.stop,
        ) {
            Ok(o) => o,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let status = if e.to_string().contains("head") {
                    431
                } else {
                    413
                };
                let body = format!("{{\"error\":\"{}\"}}", json::escape(&e.to_string()));
                let _ = http::write_response(
                    &mut stream,
                    status,
                    "application/json",
                    &[],
                    body.as_bytes(),
                );
                return;
            }
            Err(_) => return,
        };
        let request = match outcome {
            ReadOutcome::Request(r) => r,
            ReadOutcome::Closed => return,
            ReadOutcome::TimedOut => {
                let _ = respond_error(&mut stream, 408, None, "request timed out", &inner);
                return;
            }
            ReadOutcome::Idle => {
                if inner.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if inner.stop.load(Ordering::SeqCst) {
            // Draining: refuse work that arrived after the stop flag.
            let _ = respond_error(&mut stream, 503, Some(5), "server is draining", &inner);
            return;
        }
        let close = request.close;
        let start = Instant::now();
        let ok = dispatch(&mut stream, &request, &inner, &mut sessions);
        inner.metrics.latency.record(start.elapsed());
        inner.metrics.requests.inc();
        if !ok || close {
            return;
        }
    }
}

/// Routes one request. Returns `false` when the connection should
/// close (write failure, i.e. the client hung up mid-response).
fn dispatch(
    stream: &mut TcpStream,
    request: &Request,
    inner: &Inner,
    sessions: &mut HashMap<String, Session>,
) -> bool {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let quarantined = inner.engine.quarantined();
            let state = if inner.stop.load(Ordering::SeqCst) {
                "draining"
            } else if !quarantined.is_empty() {
                // Still 200 — the process serves every healthy dataset
                // — but the status flags the degradation and names the
                // quarantined datasets for operators.
                "degraded"
            } else {
                "ok"
            };
            let mut body = format!("{{\"status\":\"{state}\"");
            if !quarantined.is_empty() {
                body.push_str(",\"quarantined\":[");
                for (i, (name, _reason)) in quarantined.iter().enumerate() {
                    if i > 0 {
                        body.push(',');
                    }
                    body.push_str(&format!("\"{}\"", json::escape(name)));
                }
                body.push(']');
            }
            body.push('}');
            http::write_response(stream, 200, "application/json", &[], body.as_bytes()).is_ok()
        }
        ("GET", "/metrics") => {
            let body = inner.engine.metrics().render();
            http::write_response(
                stream,
                200,
                "text/plain; version=0.0.4",
                &[],
                body.as_bytes(),
            )
            .is_ok()
        }
        ("GET", "/v1/datasets") => {
            let mut body = String::from("[");
            for (i, (name, version, rows)) in inner.engine.datasets().into_iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                body.push_str(&format!(
                    "{{\"name\":\"{}\",\"version\":{version},\"rows\":{rows}}}",
                    json::escape(&name)
                ));
            }
            body.push(']');
            http::write_response(stream, 200, "application/json", &[], body.as_bytes()).is_ok()
        }
        ("POST", "/v1/query") => handle_query(stream, request, inner, sessions),
        (_, "/healthz" | "/metrics" | "/v1/datasets" | "/v1/query") => {
            respond_error(stream, 405, None, "method not allowed", inner)
        }
        _ => respond_error(stream, 404, None, "no such route", inner),
    }
}

fn handle_query(
    stream: &mut TcpStream,
    request: &Request,
    inner: &Inner,
    sessions: &mut HashMap<String, Session>,
) -> bool {
    // Auth: bearer token → tenant spec.
    let token = request.bearer_token().unwrap_or("");
    let spec = match inner.cfg.tokens.iter().find(|(t, _)| t == token) {
        Some((_, spec)) => spec.clone(),
        None if token.is_empty() && inner.cfg.allow_anonymous => TenantSpec::new("anonymous"),
        None => {
            return respond_error(stream, 401, None, "unknown or missing bearer token", inner);
        }
    };
    let session = sessions
        .entry(token.to_string())
        .or_insert_with(|| inner.engine.open_session(spec.session_options()));

    // Body → query.
    let text = match std::str::from_utf8(&request.body) {
        Ok(t) => t,
        Err(_) => return respond_error(stream, 400, None, "body is not UTF-8", inner),
    };
    let parsed = match json::parse(text) {
        Ok(v) => v,
        Err(e) => {
            return respond_error(stream, 400, None, &format!("invalid JSON: {e}"), inner);
        }
    };
    let query = match build_query(&parsed) {
        Ok(q) => q,
        Err(msg) => return respond_error(stream, 400, None, &msg, inner),
    };

    // Submit + wait; the ticket wait blocks this connection thread
    // only, which is exactly the closed-loop semantics clients expect.
    let result = match session.submit(&query) {
        Ok(ticket) => match ticket.wait() {
            Ok(r) => r,
            Err(e) => return respond_engine_error(stream, &e, inner),
        },
        Err(e) => return respond_engine_error(stream, &e, inner),
    };
    write_result(stream, &result, inner)
}

/// Top-level request fields [`build_query`] understands. Anything
/// else is rejected with a 400 naming the field, so a typo like
/// `"pref"` fails loudly instead of silently running the default
/// full-space query.
const QUERY_FIELDS: &[&str] = &[
    "dataset",
    "kind",
    "dims",
    "preference",
    "limit",
    "deadline_ms",
    "priority",
    "pin_version",
];

/// Translates the JSON body into a [`SkylineQuery`].
fn build_query(body: &Json) -> Result<SkylineQuery, String> {
    let members = match body {
        Json::Obj(members) => members,
        _ => return Err("request body must be a JSON object".into()),
    };
    if let Some((key, _)) = members
        .iter()
        .find(|(k, _)| !QUERY_FIELDS.contains(&k.as_str()))
    {
        return Err(format!(
            "unknown field '{}'; allowed fields: {}",
            json::escape(key),
            QUERY_FIELDS.join(", ")
        ));
    }
    let dataset = body
        .get("dataset")
        .and_then(Json::as_str)
        .ok_or("missing required string field 'dataset'")?;
    let mut query = SkylineQuery::new(dataset);
    if let Some(kind) = body.get("kind") {
        query = query.kind(parse_kind(kind)?);
    }
    if let Some(dims) = body.get("dims") {
        let items = dims.as_arr().ok_or("'dims' must be an array of integers")?;
        let mut out = Vec::with_capacity(items.len());
        for d in items {
            out.push(
                d.as_u64()
                    .ok_or("'dims' must be an array of non-negative integers")?
                    as usize,
            );
        }
        query = query.dims(out);
    }
    if let Some(prefs) = body.get("preference") {
        let items = prefs
            .as_arr()
            .ok_or("'preference' must be an array of \"min\"/\"max\"")?;
        let mut out = Vec::with_capacity(items.len());
        for p in items {
            out.push(match p.as_str() {
                Some("min") => Preference::Min,
                Some("max") => Preference::Max,
                _ => return Err("'preference' entries must be \"min\" or \"max\"".into()),
            });
        }
        query = query.preference(out);
    }
    if let Some(limit) = body.get("limit") {
        query = query.limit(
            limit
                .as_u64()
                .ok_or("'limit' must be a non-negative integer")? as usize,
        );
    }
    if let Some(deadline) = body.get("deadline_ms") {
        let ms = deadline
            .as_u64()
            .ok_or("'deadline_ms' must be a non-negative integer")?;
        query = query.deadline(Duration::from_millis(ms));
    }
    if let Some(priority) = body.get("priority") {
        query = query.priority(match priority.as_str() {
            Some("low") => Priority::Low,
            Some("normal") => Priority::Normal,
            Some("high") => Priority::High,
            _ => return Err("'priority' must be \"low\", \"normal\", or \"high\"".into()),
        });
    }
    if let Some(version) = body.get("pin_version") {
        query = query.pin_version(
            version
                .as_u64()
                .ok_or("'pin_version' must be a non-negative integer")?,
        );
    }
    Ok(query)
}

/// Parses the `kind` member: `"skyline"` (the default),
/// `{"skyband":{"k":N}}`, or `{"top_k_dominating":{"k":N}}`.
fn parse_kind(value: &Json) -> Result<QueryKind, String> {
    const SHAPE: &str = "'kind' must be \"skyline\", {\"skyband\":{\"k\":N}}, \
                         or {\"top_k_dominating\":{\"k\":N}}";
    match value {
        Json::Str(s) if s == "skyline" => Ok(QueryKind::Skyline),
        Json::Obj(members) if members.len() == 1 => {
            let (name, args) = &members[0];
            // The variant object carries exactly one member, `k`.
            match args {
                Json::Obj(inner) if inner.iter().all(|(k, _)| k == "k") => {}
                _ => return Err(SHAPE.into()),
            }
            let k = args
                .get("k")
                .and_then(Json::as_u64)
                .filter(|k| *k <= u64::from(u32::MAX))
                .ok_or(SHAPE)? as u32;
            match name.as_str() {
                "skyband" => Ok(QueryKind::Skyband { k }),
                "top_k_dominating" => Ok(QueryKind::TopKDominating { k }),
                _ => Err(SHAPE.into()),
            }
        }
        _ => Err(SHAPE.into()),
    }
}

/// Writes a successful query result: fixed-length for small skylines,
/// chunked pages for large ones.
fn write_result(stream: &mut TcpStream, result: &QueryResult, inner: &Inner) -> bool {
    let indices = result.indices();
    let counts = result.counts();
    let prefix = format!(
        "{{\"version\":{},\"cache_hit\":{},\"elapsed_us\":{},\"total\":{},\"count\":{},\"indices\":[",
        result.dataset_version,
        result.cache_hit,
        result.elapsed.as_micros(),
        result.total_skyline_size(),
        indices.len(),
    );
    if indices.len() <= inner.cfg.stream_threshold {
        let mut body = prefix;
        for (i, idx) in indices.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&idx.to_string());
        }
        body.push(']');
        if let Some(counts) = counts {
            body.push_str(",\"counts\":[");
            for (i, c) in counts.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                body.push_str(&c.to_string());
            }
            body.push(']');
        }
        body.push('}');
        return http::write_response(stream, 200, "application/json", &[], body.as_bytes()).is_ok();
    }
    // Streamed: one chunk per page so the server's memory stays
    // bounded by page size, not skyline size.
    let mut write = || -> io::Result<()> {
        let mut w = ChunkedWriter::start(stream, 200, "application/json")?;
        w.chunk(prefix.as_bytes())?;
        let stream_array = |w: &mut ChunkedWriter<'_>, values: &[u32]| -> io::Result<()> {
            let mut first = true;
            for page in values.chunks(inner.cfg.page_rows.max(1)) {
                let mut text = String::with_capacity(page.len() * 8);
                for v in page {
                    if !first {
                        text.push(',');
                    }
                    first = false;
                    text.push_str(&v.to_string());
                }
                w.chunk(text.as_bytes())?;
                inner.metrics.streamed_chunks.inc();
            }
            Ok(())
        };
        stream_array(&mut w, indices)?;
        w.chunk(b"]")?;
        if let Some(counts) = counts {
            w.chunk(b",\"counts\":[")?;
            stream_array(&mut w, counts)?;
            w.chunk(b"]")?;
        }
        w.chunk(b"}")?;
        w.finish()
    };
    write().is_ok()
}

/// Maps an [`EngineError`] onto a status + optional `Retry-After`.
fn status_for(err: &EngineError) -> (u16, Option<u64>) {
    match err {
        EngineError::Rejected(RejectReason::QueueFull { .. })
        | EngineError::Rejected(RejectReason::QuotaExceeded { .. }) => (429, Some(1)),
        EngineError::Rejected(RejectReason::Shutdown) => (503, Some(5)),
        EngineError::UnknownDataset(_) => (404, None),
        EngineError::DeadlineExceeded => (504, None),
        EngineError::VersionUnavailable { .. } => (409, None),
        EngineError::EmptyDims
        | EngineError::DimOutOfRange { .. }
        | EngineError::ConflictingPreference { .. }
        | EngineError::PreferenceLength { .. }
        | EngineError::RowArity { .. }
        | EngineError::NonFiniteValue { .. }
        | EngineError::UnknownRow { .. } => (400, None),
        // Quarantine is an availability problem on one dataset, not a
        // client mistake: 503 without Retry-After (waiting won't fix
        // corruption; an operator must re-register).
        EngineError::DatasetQuarantined(_) => (503, None),
        EngineError::Cancelled | EngineError::Internal | EngineError::Persist(_) => (500, None),
    }
}

fn respond_engine_error(stream: &mut TcpStream, err: &EngineError, inner: &Inner) -> bool {
    let (status, retry_after) = status_for(err);
    respond_error(stream, status, retry_after, &err.to_string(), inner)
}

fn respond_error(
    stream: &mut TcpStream,
    status: u16,
    retry_after: Option<u64>,
    message: &str,
    inner: &Inner,
) -> bool {
    if matches!(status, 429 | 503) {
        inner.metrics.rejected.inc();
    }
    let body = format!("{{\"error\":\"{}\"}}", json::escape(message));
    let retry = retry_after.map(|secs| secs.to_string());
    let mut headers: Vec<(&str, &str)> = Vec::new();
    if let Some(r) = retry.as_deref() {
        headers.push(("Retry-After", r));
    }
    http::write_response(
        stream,
        status,
        "application/json",
        &headers,
        body.as_bytes(),
    )
    .is_ok()
}
