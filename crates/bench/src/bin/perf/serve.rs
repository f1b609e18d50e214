//! `serve_cold` and `serve_warm`: the engine behind its HTTP front
//! door, driven over real sockets by keep-alive client connections
//! (at most [`inputs::connections`]) from this one generator process.
//!
//! * `serve_cold` — independent 8 000×4 with the cache off, so every
//!   request plans and computes (the engine is most of the request).
//!   A closed loop (one client sends its next request when the
//!   previous response lands) is followed by an open loop on the
//!   shared schedule `t_k = k / rate`, arrivals spread over the
//!   connection pool and latency timed from the due instant: at the
//!   middle rung of [`inputs::RATE_LADDER`] when untraced, at every
//!   rung when traced. The only workload with concurrent arrivals, the
//!   admission queue and a latency limit.
//! * `serve_warm` — independent 200 000×8 behind the default cache,
//!   seven bodies warmed in set-up whose results run from about ten to
//!   about 3 400 rows; closed loop only. The engine answers in about a
//!   microsecond, so parse, auth, submit, serialise and the socket are
//!   the whole request.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use skyline_data::Distribution;
use skyline_engine::{Engine, EngineConfig, Priority};
use skyline_parallel::ThreadPool;
use skyline_serve::{parse_json, Client, ServeConfig, SkylineServer, TenantSpec};

use crate::engine_cold::trace_stages;
use crate::inputs::{self, Body, LATENCY_LIMIT_MS, RATE_LADDER, SERVE_COLD, SERVE_WARM, TOKEN};
use crate::lib_ops::NAIVE_PREFIX;
use crate::loadgen::{max_ok_rate, open_loop_worker, Arrival, Rung, Schedule, WallClock};
use crate::oracle::{self, Answer};
use crate::report::{peak_rss_mb, Metrics, Outcome};
use crate::stats::{mean, median_of, ms, percentile, rate, sorted, summarize, us, Tail, Timed};
use crate::trace::Recorder;
use crate::{probes, repeat_setup, spec, Ctx};

/// On `serve_cold` an untraced window is half closed loop, half open
/// loop at the ladder's middle rate (the only rung an end-to-end metric
/// reads). A traced run gives the closed loop a third of its window
/// (as every workload does, once untraced and once traced) and each of
/// the three rungs a sixth of the untraced window.
const MIDDLE_RUNG: usize = 1;

struct State {
    /// Closed-loop clients. `serve_warm`: [`inputs::connections`] —
    /// busy cores answer faster than ones woken for every request.
    /// `serve_cold`: one — the engine computes one cold query at a
    /// time, so a second client only queues behind the first, and on
    /// two cores the pair read 42 % apart from run to run where a
    /// single client read 13 % (interleaved runs, same minutes). The
    /// open loop uses the full pool of connections on both.
    closed_clients: usize,
    engine: Arc<Engine>,
    server: SkylineServer,
    addr: SocketAddr,
    bodies: Vec<Body>,
    /// What every response to body `i` must end with: everything from
    /// `"total"` on (the fields before it carry timings).
    expected: Vec<Vec<u8>>,
    generate_ms: f64,
    register_ms: f64,
    checks: u64,
    mismatches: u64,
}

impl Drop for State {
    fn drop(&mut self) {
        // Drains the connections, then shuts the engine down.
        self.server.shutdown();
    }
}

/// The part of a response body the oracle pins.
fn stable_suffix(body: &[u8]) -> &[u8] {
    const MARK: &[u8] = b",\"total\":";
    let at = body
        .windows(MARK.len())
        .position(|w| w == MARK)
        .unwrap_or(0);
    &body[at..]
}

/// Indices and counts of a `200` response body.
fn parse_answer(body: &[u8]) -> Option<Answer> {
    let json = parse_json(std::str::from_utf8(body).ok()?).ok()?;
    let list = |key: &str| -> Option<Vec<u32>> {
        json.get(key)?
            .as_arr()?
            .iter()
            .map(|v| Some(v.as_u64()? as u32))
            .collect()
    };
    let counts = match json.get("counts") {
        Some(_) => Some(list("counts")?),
        None => None,
    };
    Some(Answer {
        indices: list("indices")?,
        counts,
    })
}

fn setup(ctx: &Ctx, warm: bool) -> State {
    let pool = ThreadPool::new(inputs::lanes());
    let ((n, d), name, bodies) = if warm {
        (SERVE_WARM, "warm", inputs::warm_bodies(ctx.seed))
    } else {
        (SERVE_COLD, "serve", inputs::cold_bodies())
    };
    let start = Instant::now();
    let data = inputs::dataset(
        Distribution::Independent,
        n,
        d,
        ctx.seed,
        "serve.rows",
        &pool,
    );
    let generate_ms = ms(start.elapsed());
    let config = || EngineConfig {
        threads: inputs::lanes(),
        cache_bytes: if warm {
            EngineConfig::default().cache_bytes
        } else {
            0
        },
        ..EngineConfig::default()
    };

    // The bodies' queries on a prefix engine, against the definition.
    // serve_cold's 8 000 rows are few enough to be checked whole.
    let (mut checks, mut mismatches) = (0, 0);
    let cut = data.truncated(if warm { NAIVE_PREFIX } else { n });
    let prefix = Engine::with_config(config());
    prefix.register(name, cut.clone());
    for body in &bodies {
        checks += 1;
        match prefix.execute(&body.query) {
            Ok(r) if Answer::of(&r) == oracle::naive(&cut, &body.query) => {}
            _ => {
                eprintln!("perf: prefix oracle disagrees on {}", body.json);
                mismatches += 1;
            }
        }
    }
    prefix.shutdown();

    let engine = Arc::new(Engine::with_config(config()));
    let start = Instant::now();
    engine.register(name, data);
    let register_ms = ms(start.elapsed());
    let server = SkylineServer::start(
        Arc::clone(&engine),
        ServeConfig {
            tokens: vec![(
                TOKEN.to_string(),
                TenantSpec {
                    tenant: "perf".to_string(),
                    priority: Priority::Normal,
                    max_in_flight: None,
                    qps_cap: None,
                },
            )],
            allow_anonymous: false,
            ..ServeConfig::default()
        },
    )
    .expect("bind an ephemeral port on 127.0.0.1");
    let addr = server.local_addr();

    // First pass over the wire: warms the cache (serve_warm), and pins
    // each body's response after checking it against the engine's own
    // in-process answer.
    let mut expected = Vec::with_capacity(bodies.len());
    let mut client =
        Client::connect_with_token(addr, TOKEN).expect("connect to the server just started");
    for body in &bodies {
        checks += 1;
        let over_wire = client
            .post_json("/v1/query", &body.json)
            .ok()
            .filter(|r| r.status == 200);
        let in_process = engine.execute(&body.query).ok().map(|r| Answer::of(&r));
        let agree = over_wire.as_ref().and_then(|r| parse_answer(&r.body)) == in_process
            && in_process.is_some();
        if !agree {
            eprintln!(
                "perf: response to {} disagrees with the in-process answer",
                body.json
            );
            mismatches += 1;
        }
        expected.push(
            over_wire
                .map(|r| stable_suffix(&r.body).to_vec())
                .unwrap_or_default(),
        );
    }
    State {
        closed_clients: if warm { inputs::connections() } else { 1 },
        engine,
        server,
        addr,
        bodies,
        expected,
        generate_ms,
        register_ms,
        checks,
        mismatches,
    }
}

/// What a client saw of one request.
#[derive(Debug, Clone, Copy)]
struct Seen {
    body: usize,
    /// Completion, in seconds since the loop began.
    at: f64,
    ms: f64,
    bytes: usize,
    ok: bool,
    refused: bool,
}

/// Sends body `i` and judges the response.
fn request(client: &mut Client, state: &State, i: usize) -> Seen {
    let start = Instant::now();
    let response = client.post_json("/v1/query", &state.bodies[i].json);
    let wall_ms = ms(start.elapsed());
    match response {
        Ok(r) => Seen {
            body: i,
            at: 0.0,
            ms: wall_ms,
            bytes: r.body.len(),
            ok: r.status == 200 && stable_suffix(&r.body) == state.expected[i].as_slice(),
            refused: matches!(r.status, 429 | 503),
        },
        Err(e) => {
            eprintln!("perf: request failed: {e}");
            Seen {
                body: i,
                at: 0.0,
                ms: wall_ms,
                bytes: 0,
                ok: false,
                refused: false,
            }
        }
    }
}

struct Closed {
    seen: Vec<Seen>,
    elapsed: Duration,
}

/// The closed loop: every client rotates through the bodies on its own
/// connection (each starting at its own offset) until the window
/// closes.
fn closed_loop(state: &State, window: Duration, rec: &mut Recorder) -> Closed {
    let begun = Instant::now();
    let clients = state.closed_clients;
    let per_thread: Vec<(Vec<Seen>, Recorder)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|conn| {
                let mut rec = rec.fork();
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    let mut client =
                        Client::connect_with_token(state.addr, TOKEN).expect("connect");
                    let mut next = conn * state.bodies.len() / clients;
                    while begun.elapsed() < window {
                        let i = next % state.bodies.len();
                        next += 1;
                        let op = rec.begin(state.bodies[i].class);
                        let start = Instant::now();
                        let mut s = request(&mut client, state, i);
                        s.at = begun.elapsed().as_secs_f64();
                        rec.call(&op, "serve.client.request", start, Instant::now(), &[]);
                        rec.end(op);
                        seen.push(s);
                    }
                    (seen, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = begun.elapsed();
    let mut seen = Vec::new();
    for (s, r) in per_thread {
        seen.extend(s);
        rec.absorb(r);
    }
    Closed { seen, elapsed }
}

/// One rung of the open loop: the connections share one schedule.
fn open_loop(state: &State, rate: u64, length: Duration) -> Vec<Arrival> {
    let schedule = Schedule::new(rate, length);
    let clock = WallClock::start();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..inputs::connections())
            .map(|_| {
                let (schedule, clock) = (&schedule, &clock);
                scope.spawn(move || {
                    let mut client =
                        Client::connect_with_token(state.addr, TOKEN).expect("connect");
                    open_loop_worker(clock, schedule, |k| {
                        request(&mut client, state, k as usize % state.bodies.len()).ok
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// Sum and count of a histogram in the `GET /metrics` exposition.
fn scrape(text: &str, name: &str, labels: &str) -> (f64, f64) {
    let value = |suffix: &str| {
        let key = format!("{name}_{suffix}{labels} ");
        text.lines()
            .find_map(|l| l.strip_prefix(&key)?.trim().parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (value("sum"), value("count"))
}

/// Mean, in milliseconds, of what a histogram recorded between two
/// scrapes (its buckets are powers of two, so only the mean is exact).
fn mean_between(before: &str, after: &str, name: &str, labels: &str) -> f64 {
    let (s0, c0) = scrape(before, name, labels);
    let (s1, c1) = scrape(after, name, labels);
    if c1 > c0 {
        (s1 - s0) / (c1 - c0) / 1e6
    } else {
        0.0
    }
}

fn metrics_text(state: &State) -> String {
    Client::connect_with_token(state.addr, TOKEN)
        .and_then(|mut c| c.get("/metrics"))
        .map(|r| r.text())
        .unwrap_or_default()
}

/// The in-process twin: the bodies' queries through the same engine
/// without the wire, one caller, as operations of their own.
fn twin(state: &State, budget: Duration, rec: &mut Recorder) -> (Vec<f64>, u64) {
    let mut wall_ms = Vec::new();
    let mut failed = 0;
    let begun = Instant::now();
    'budget: loop {
        for body in &state.bodies {
            if begun.elapsed() >= budget {
                break 'budget;
            }
            let op = rec.begin("twin");
            let start = Instant::now();
            let answered = state.engine.explain_analyze(&body.query);
            let end = Instant::now();
            match answered {
                Ok((_, trace)) => {
                    rec.call(
                        &op,
                        "engine.explain_analyze",
                        start,
                        end,
                        &trace_stages(&trace),
                    );
                    wall_ms.push(ms(end - start));
                }
                Err(_) => failed += 1,
            }
            rec.end(op);
        }
    }
    (wall_ms, failed)
}

fn wire_probes(m: &mut Metrics, state: &State, rec: &mut Recorder) {
    let mut parse_us = Vec::new();
    for body in &state.bodies {
        for _ in 0..500 {
            let op = rec.begin("parse");
            let start = Instant::now();
            let parsed = parse_json(std::hint::black_box(&body.json));
            let end = Instant::now();
            std::hint::black_box(parsed.is_ok());
            rec.call(&op, "serve.json.parse", start, end, &[]);
            rec.end(op);
            parse_us.push(us(end - start));
        }
    }
    m.layer("serve.json.parse_us", median_of(parse_us));
    let connect_us = (0..30)
        .filter_map(|_| {
            let start = Instant::now();
            let client = Client::connect_with_token(state.addr, TOKEN).ok()?;
            let took = us(start.elapsed());
            drop(client);
            Some(took)
        })
        .collect();
    m.layer("serve.connect_us", median_of(connect_us));
}

pub fn run(ctx: &Ctx) -> Outcome {
    let warm = ctx.workload == "serve_warm";
    let (state, setup_s) = repeat_setup(|| setup(ctx, warm));
    let mut m = Metrics::new(spec::spec(), ctx.traced);
    let mut attempted = state.checks;
    let mut failed = state.mismatches;
    let mut refused = 0;
    // Requests made, requests that failed, requests refused (429/503).
    let tally = |seen: &[Seen]| {
        let count = |f: fn(&Seen) -> bool| seen.iter().filter(|s| f(s)).count() as u64;
        (seen.len() as u64, count(|s| !s.ok), count(|s| s.refused))
    };

    let closed_window = if warm || ctx.traced {
        ctx.replay_window()
    } else {
        ctx.window / 2
    };
    let base = closed_loop(&state, closed_window, &mut Recorder::new(false));
    let (n, bad, no) = tally(&base.seen);
    attempted += n;
    failed += bad;
    refused += no;
    let closed = |c: &Closed, class: Option<&str>| -> Vec<Timed> {
        c.seen
            .iter()
            .filter(|s| class.map_or(true, |c| state.bodies[s.body].class == c))
            .map(|s| (s.at, s.ms))
            .collect()
    };
    let closed_ms =
        |c: &Closed, class| -> Vec<f64> { closed(c, class).iter().map(|t| t.1).collect() };
    // Tails are p90: this machine's two cores carry the clients, the
    // connection threads, the dispatcher and the pool at once, and p99
    // over a few seconds of that does not repeat from run to run. The
    // p99s are per-layer metrics.
    let window_s = base.elapsed.as_secs_f64();
    // `op` on serve_cold: any request. On serve_warm: the request whose
    // response is always 64 rows — the pooled median of seven bodies of
    // very different sizes sits between two of them and flips from one
    // to the other under the slightest disturbance.
    let op = summarize(
        &closed(&base, warm.then_some("small")),
        window_s,
        Tail::Percentile(90.0),
        "request",
    );
    let correct_at: Vec<f64> = base.seen.iter().filter(|s| s.ok).map(|s| s.at).collect();
    m.e2e("setup_s", setup_s);
    m.e2e("ops_per_s", rate(&correct_at, window_s));

    // `alt` on serve_warm: the request with the largest response. On
    // serve_cold: the open loop's middle rung, from the due instant.
    let mut rungs = Vec::new();
    let mut queue_wait_us = 0.0;
    let alt = if warm {
        summarize(
            &closed(&base, Some("large")),
            window_s,
            // Responses of some twenty kilobytes take several reads;
            // how those interleave with the writer on two cores makes
            // this latency bimodal, and its p90 does not repeat.
            Tail::UpperQuartile,
            "large-body request",
        )
    } else {
        let (ladder, length) = if ctx.traced {
            (&RATE_LADDER[..], ctx.window / 6)
        } else {
            (&RATE_LADDER[MIDDLE_RUNG..=MIDDLE_RUNG], ctx.window / 2)
        };
        let mut middle = Vec::new();
        for &rate in ladder {
            let from_due = |a: &Arrival| (a.done.as_secs_f64(), a.latency_ms());
            let before = if ctx.traced {
                metrics_text(&state)
            } else {
                String::new()
            };
            let arrivals = open_loop(&state, rate, length);
            attempted += arrivals.len() as u64;
            failed += arrivals.iter().filter(|a| !a.ok).count() as u64;
            if rate == RATE_LADDER[MIDDLE_RUNG] {
                middle = arrivals.iter().map(from_due).collect();
                if ctx.traced {
                    queue_wait_us = 1e3
                        * mean_between(
                            &before,
                            &metrics_text(&state),
                            "session.queue_wait",
                            "{class=\"normal\"}",
                        );
                }
            }
            rungs.push(Rung::of(rate, arrivals));
        }
        let phase_s = middle.iter().map(|t: &Timed| t.0).fold(0.0, f64::max);
        summarize(
            &middle,
            phase_s,
            Tail::Percentile(90.0),
            "open-loop request",
        )
    };
    m.latencies(op, alt);

    if ctx.traced {
        let mut rec = Recorder::new(true);
        let before = metrics_text(&state);
        let traced = closed_loop(&state, closed_window, &mut rec);
        let after = metrics_text(&state);
        let (n, bad, no) = tally(&traced.seen);
        attempted += n + 1;
        failed += bad;
        refused += no;
        let (twin_ms, twin_failed) = twin(&state, closed_window / 4, &mut rec);
        failed += twin_failed;
        wire_probes(&mut m, &state, &mut rec);

        let client_ms = closed_ms(&traced, None);
        let client_p50 = median_of(client_ms.clone());
        let server_mean = mean_between(&before, &after, "serve.request.latency", "");
        m.layer("serve.wire.overhead_ms", client_p50 - median_of(twin_ms));
        m.layer("serve.server_side_mean_ms", server_mean);
        m.layer("serve.client_side_gap_ms", mean(&client_ms) - server_mean);
        m.layer(
            "serve.response.bytes_per_op",
            mean(
                &traced
                    .seen
                    .iter()
                    .map(|s| s.bytes as f64)
                    .collect::<Vec<_>>(),
            ),
        );
        m.layer(
            "serve.small_body.ms",
            median_of(closed_ms(&traced, Some("small"))),
        );
        m.layer(
            "serve.large_body.ms",
            median_of(closed_ms(&traced, Some("large"))),
        );
        m.layer(
            "serve.closed.p99_ms",
            percentile(&sorted(client_ms.clone()), 99.0),
        );
        if let [low, middle, high] = rungs.as_slice() {
            m.layer("serve.open.r500_p99_ms", low.p99_ms);
            m.layer("serve.open.r1000_p99_ms", middle.p99_ms);
            m.layer("serve.open.r2500_p99_ms", high.p99_ms);
            m.layer("serve.open.r2500_achieved_qps", high.achieved_qps);
            m.layer("serve.open.lateness_p99_ms", middle.lateness_p99_ms);
            m.layer(
                "serve.open.max_ok_rate_qps",
                max_ok_rate(&rungs, LATENCY_LIMIT_MS) as f64,
            );
            m.layer("engine.session.queue_wait_us", queue_wait_us);
        }
        let cache = state.engine.cache_stats();
        m.layer("engine.cache.hit_ratio", cache.hit_rate());
        m.layer("data.generate.ms", state.generate_ms);
        m.layer("engine.register.ms", state.register_ms);
        let traced_op_p50 = median_of(closed_ms(&traced, warm.then_some("small")));
        m.layer("bench.trace_overhead", traced_op_p50 / op.p50);
        failed += probes::finish_trace(&rec, ctx);
    }
    m.layer("serve.rejected", refused as f64);
    m.e2e("peak_rss_mb", peak_rss_mb());
    drop(state);
    Outcome {
        attempted,
        failed,
        metrics: m,
    }
}
