//! End-to-end tests for the HTTP front door: a real server on an
//! ephemeral port, real sockets, and the naive O(n²·d) skyline as the
//! correctness oracle.

mod common;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use skybench::{
    generate, parse_json, verify, Client, Distribution, Engine, EngineConfig, Json, Priority,
    ServeConfig, SessionOptions, SkylineQuery, SkylineServer, TenantSpec, ThreadPool,
};

fn test_engine(n: usize, dist: Distribution) -> Arc<Engine> {
    let pool = ThreadPool::new(2);
    let engine = Arc::new(Engine::with_config(EngineConfig {
        threads: 2,
        ..EngineConfig::default()
    }));
    engine.register("data", generate(dist, n, 4, 7, &pool));
    engine
}

fn two_tier_tokens() -> Vec<(String, TenantSpec)> {
    vec![
        (
            "gold-token".to_string(),
            TenantSpec {
                tenant: "gold".to_string(),
                priority: Priority::High,
                max_in_flight: None,
                qps_cap: None,
            },
        ),
        (
            "bronze-token".to_string(),
            TenantSpec {
                tenant: "bronze".to_string(),
                priority: Priority::Normal,
                max_in_flight: None,
                qps_cap: None,
            },
        ),
    ]
}

/// Pulls the `indices` array out of a response body.
fn indices_of(body: &str) -> Vec<u32> {
    let parsed = parse_json(body).expect("response is valid JSON");
    parsed
        .get("indices")
        .and_then(Json::as_arr)
        .expect("response has an indices array")
        .iter()
        .map(|v| v.as_u64().expect("index is an integer") as u32)
        .collect()
}

#[test]
fn concurrent_mixed_tenants_get_oracle_correct_results() {
    let engine = test_engine(1_200, Distribution::Independent);
    let data = engine.dataset("data").expect("registered").snapshot();
    let server = SkylineServer::start(
        Arc::clone(&engine),
        ServeConfig {
            tokens: two_tier_tokens(),
            allow_anonymous: false,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    // (body, dims, max_mask) — the oracle recomputes each one.
    let cases: &[(&str, &[usize], u32)] = &[
        (r#"{"dataset":"data"}"#, &[0, 1, 2, 3], 0),
        (r#"{"dataset":"data","dims":[0,1]}"#, &[0, 1], 0),
        (
            r#"{"dataset":"data","dims":[1,3],"preference":["min","max"]}"#,
            &[1, 3],
            1 << 3,
        ),
        (
            r#"{"dataset":"data","dims":[0,2],"preference":["max","max"],"priority":"low"}"#,
            &[0, 2],
            (1 << 0) | (1 << 2),
        ),
        (
            r#"{"dataset":"data","dims":[2,3],"deadline_ms":60000}"#,
            &[2, 3],
            0,
        ),
    ];

    // Four concurrent clients — two per tenant tier — each running the
    // whole case list against the shared server.
    let data = &data;
    thread::scope(|s| {
        for worker in 0..4 {
            s.spawn(move || {
                let token = if worker % 2 == 0 {
                    "gold-token"
                } else {
                    "bronze-token"
                };
                let mut client = Client::connect_with_token(addr, token).expect("connect");
                for (body, dims, max_mask) in cases {
                    let resp = client.post_json("/v1/query", body).expect("request");
                    assert_eq!(resp.status, 200, "body {body}: {}", resp.text());
                    let mut got = indices_of(&resp.text());
                    got.sort_unstable();
                    let expected = verify::naive_skyline_on_pref(data, dims, *max_mask);
                    assert_eq!(got, expected, "case {body} diverged from the oracle");
                }
            });
        }
    });

    // Auth boundaries: no token and a bogus token are both 401 when
    // anonymous access is off.
    let mut anon = Client::connect(addr).expect("connect");
    assert_eq!(
        anon.post_json("/v1/query", r#"{"dataset":"data"}"#)
            .expect("request")
            .status,
        401
    );
    let mut bogus = Client::connect_with_token(addr, "no-such-token").expect("connect");
    assert_eq!(
        bogus
            .post_json("/v1/query", r#"{"dataset":"data"}"#)
            .expect("request")
            .status,
        401
    );

    // Error mapping over the wire: unknown dataset 404, invalid body
    // 400, dims out of range 400.
    let mut gold = Client::connect_with_token(addr, "gold-token").expect("connect");
    assert_eq!(
        gold.post_json("/v1/query", r#"{"dataset":"nope"}"#)
            .expect("request")
            .status,
        404
    );
    assert_eq!(
        gold.post_json("/v1/query", "not json")
            .expect("request")
            .status,
        400
    );
    assert_eq!(
        gold.post_json("/v1/query", r#"{"dataset":"data","dims":[99]}"#)
            .expect("request")
            .status,
        400
    );

    // The catalog listing round-trips.
    let resp = gold.get("/v1/datasets").expect("request");
    assert_eq!(resp.status, 200);
    let listing = parse_json(&resp.text()).expect("valid JSON");
    let entry = &listing.as_arr().expect("array")[0];
    assert_eq!(entry.get("name").and_then(Json::as_str), Some("data"));
    assert_eq!(entry.get("rows").and_then(Json::as_u64), Some(1_200));

    // The exposition over the wire: engine and server instruments in
    // one body, every line well-formed.
    let resp = gold.get("/metrics").expect("request");
    assert_eq!(resp.status, 200);
    common::assert_exposition(
        &resp.text(),
        &[
            "serve.requests",
            "serve.request.latency",
            "serve.connections",
            "serve.connections.active",
        ],
    );

    server.shutdown();

    // Admission counters balance: every admitted ticket reached a
    // terminal outcome, nothing leaked or hung.
    let stats = engine.session_stats();
    assert_eq!(
        stats.submitted,
        stats.completed + stats.cancelled + stats.deadline_expired + stats.internal_errors,
        "ticket accounting must balance after drain: {stats:?}"
    );
    assert_eq!(stats.internal_errors, 0);
    assert_eq!(stats.cancelled, 0);
}

#[test]
fn oversized_skylines_stream_chunked_and_match_the_oracle() {
    // Anticorrelated data keeps most points on the skyline, so the
    // result far exceeds the tiny stream threshold below.
    let engine = test_engine(600, Distribution::Anticorrelated);
    let data = engine.dataset("data").expect("registered").snapshot();
    let server = SkylineServer::start(
        Arc::clone(&engine),
        ServeConfig {
            stream_threshold: 16,
            page_rows: 7,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    let resp = client
        .post_json("/v1/query", r#"{"dataset":"data"}"#)
        .expect("request");
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("transfer-encoding")
            .map(str::to_ascii_lowercase),
        Some("chunked".to_string()),
        "a skyline past the threshold must stream"
    );
    let body = resp.text();
    let mut got = indices_of(&body);
    let total = parse_json(&body)
        .expect("valid JSON")
        .get("total")
        .and_then(Json::as_u64)
        .expect("total field");
    assert_eq!(got.len() as u64, total);
    assert!(got.len() > 16, "the test dataset must exceed the threshold");
    got.sort_unstable();
    let expected = verify::naive_skyline_on_pref(&data, &[0, 1, 2, 3], 0);
    assert_eq!(got, expected, "streamed result diverged from the oracle");

    // A small skyline on the same server stays fixed-length.
    let resp = client
        .post_json("/v1/query", r#"{"dataset":"data","limit":5}"#)
        .expect("request");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("transfer-encoding"), None);
    assert_eq!(indices_of(&resp.text()).len(), 5);

    // Mid-stream disconnect: fire a streaming query and hang up without
    // reading the response. The server must shrug it off and keep
    // serving other connections.
    Client::connect(addr)
        .expect("connect")
        .post_and_abort("/v1/query", r#"{"dataset":"data"}"#)
        .expect("send");
    let mut after = Client::connect(addr).expect("connect");
    let resp = after.get("/healthz").expect("request");
    assert_eq!(resp.status, 200);
    let resp = after
        .post_json("/v1/query", r#"{"dataset":"data","dims":[0,1]}"#)
        .expect("request");
    assert_eq!(resp.status, 200, "server must survive a client hangup");

    server.shutdown();
    let stats = engine.session_stats();
    assert_eq!(
        stats.submitted,
        stats.completed + stats.cancelled + stats.deadline_expired + stats.internal_errors,
        "ticket accounting must balance after drain: {stats:?}"
    );
}

#[test]
fn query_kinds_round_trip_and_unknown_fields_reject() {
    let engine = test_engine(800, Distribution::Anticorrelated);
    let data = engine.dataset("data").expect("registered").snapshot();
    let server = SkylineServer::start(Arc::clone(&engine), ServeConfig::default()).expect("bind");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");

    // A skyband query returns both indices and the parallel dominator
    // counts, and both must match the naive oracle.
    let resp = client
        .post_json(
            "/v1/query",
            r#"{"dataset":"data","kind":{"skyband":{"k":3}},"dims":[0,1]}"#,
        )
        .expect("request");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let body = resp.text();
    let parsed = parse_json(&body).expect("valid JSON");
    let counts: Vec<u32> = parsed
        .get("counts")
        .and_then(Json::as_arr)
        .expect("skyband responses carry a counts array")
        .iter()
        .map(|v| v.as_u64().expect("count is an integer") as u32)
        .collect();
    let indices = indices_of(&body);
    assert_eq!(indices.len(), counts.len());
    let mut got: Vec<(u32, u32)> = indices
        .iter()
        .copied()
        .zip(counts.iter().copied())
        .collect();
    got.sort_unstable();
    let expected = verify::naive_skyband_on_pref(&data, &[0, 1], 0, 3);
    assert_eq!(got, expected, "skyband diverged from the oracle");

    // Top-k dominating over the wire: ranked ids plus dominated counts.
    let resp = client
        .post_json(
            "/v1/query",
            r#"{"dataset":"data","kind":{"top_k_dominating":{"k":5}}}"#,
        )
        .expect("request");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let body = resp.text();
    let parsed = parse_json(&body).expect("valid JSON");
    let counts: Vec<u32> = parsed
        .get("counts")
        .and_then(Json::as_arr)
        .expect("top-k responses carry a counts array")
        .iter()
        .map(|v| v.as_u64().expect("count is an integer") as u32)
        .collect();
    let got: Vec<(u32, u32)> = indices_of(&body).into_iter().zip(counts).collect();
    let expected = verify::naive_top_k_dominating(&data, &[0, 1, 2, 3], 0, 5);
    assert_eq!(got, expected, "top-k dominating diverged from the oracle");

    // The explicit skyline spelling matches the default, with no counts.
    let resp = client
        .post_json("/v1/query", r#"{"dataset":"data","kind":"skyline"}"#)
        .expect("request");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let body = resp.text();
    assert!(
        parse_json(&body)
            .expect("valid JSON")
            .get("counts")
            .is_none(),
        "skyline responses must not carry counts"
    );
    let mut got = indices_of(&body);
    got.sort_unstable();
    assert_eq!(got, verify::naive_skyline_on_pref(&data, &[0, 1, 2, 3], 0));

    // Malformed kinds are 400s that name the accepted shapes.
    for bad in [
        r#"{"dataset":"data","kind":"skybandd"}"#,
        r#"{"dataset":"data","kind":{"skyband":{"k":3},"extra":1}}"#,
        r#"{"dataset":"data","kind":{"skyband":{"kk":3}}}"#,
        r#"{"dataset":"data","kind":{"skyband":{"k":-1}}}"#,
    ] {
        let resp = client.post_json("/v1/query", bad).expect("request");
        assert_eq!(resp.status, 400, "body {bad}: {}", resp.text());
        assert!(
            resp.text().contains("'kind' must be"),
            "error must describe the accepted kind shapes: {}",
            resp.text()
        );
    }

    // An unknown top-level field is a 400 naming the offender, so typos
    // like "pref" fail loudly instead of silently running a different
    // query.
    let resp = client
        .post_json(
            "/v1/query",
            r#"{"dataset":"data","pref":["min","max"],"dims":[0,1]}"#,
        )
        .expect("request");
    assert_eq!(resp.status, 400, "{}", resp.text());
    let body = resp.text();
    assert!(
        body.contains("unknown field 'pref'"),
        "error must name the rejected field: {body}"
    );
    assert!(
        body.contains("preference"),
        "error must list the accepted fields: {body}"
    );

    // A non-object body gets the same treatment.
    let resp = client
        .post_json("/v1/query", r#"[1,2,3]"#)
        .expect("request");
    assert_eq!(resp.status, 400, "{}", resp.text());

    server.shutdown();
}

#[test]
fn version_pins_conflict_after_mutation() {
    let engine = test_engine(300, Distribution::Independent);
    let server = SkylineServer::start(Arc::clone(&engine), ServeConfig::default()).expect("bind");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");

    let version = parse_json(&client.get("/v1/datasets").expect("request").text())
        .expect("valid JSON")
        .as_arr()
        .expect("array")[0]
        .get("version")
        .and_then(Json::as_u64)
        .expect("version field");

    // Pinning the live version works.
    let body = format!("{{\"dataset\":\"data\",\"pin_version\":{version}}}");
    assert_eq!(
        client
            .post_json("/v1/query", &body)
            .expect("request")
            .status,
        200
    );

    // A mutation moves the catalog past the pin → 409 over the wire.
    engine
        .insert("data", &[vec![0.0, 0.0, 0.0, 0.0]])
        .expect("insert");
    assert_eq!(
        client
            .post_json("/v1/query", &body)
            .expect("request")
            .status,
        409,
        "a stale pin must map to 409"
    );

    server.shutdown();
}

#[test]
fn graceful_drain_finishes_in_flight_work_and_stops_new_work() {
    let engine = test_engine(1_000, Distribution::Anticorrelated);
    let server = Arc::new(
        SkylineServer::start(
            Arc::clone(&engine),
            ServeConfig {
                tokens: two_tier_tokens(),
                allow_anonymous: true,
                ..ServeConfig::default()
            },
        )
        .expect("bind"),
    );
    let addr = server.local_addr();

    // Background clients hammer the server while the main thread pulls
    // the plug. Every response must be a clean terminal outcome: 200,
    // a drain 503, or a socket error once the listener is gone — never
    // a hang (the scope join would deadlock and time the test out).
    let outcomes = thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|worker| {
                s.spawn(move || {
                    let token = if worker == 0 {
                        "gold-token"
                    } else {
                        "bronze-token"
                    };
                    let mut done = (0u32, 0u32, 0u32); // ok, unavailable, io
                    for i in 0..40 {
                        let mut client = match Client::connect_with_token(addr, token) {
                            Ok(c) => c,
                            Err(_) => {
                                done.2 += 1;
                                break;
                            }
                        };
                        let body = if i % 2 == 0 {
                            r#"{"dataset":"data"}"#
                        } else {
                            r#"{"dataset":"data","dims":[0,1],"priority":"low"}"#
                        };
                        match client.post_json("/v1/query", body) {
                            Ok(resp) if resp.status == 200 => done.0 += 1,
                            Ok(resp) if resp.status == 503 => done.1 += 1,
                            Ok(resp) => panic!("unexpected status {}", resp.status),
                            Err(_) => done.2 += 1,
                        }
                    }
                    done
                })
            })
            .collect();
        // Let the workers get some requests in flight, then drain.
        thread::sleep(Duration::from_millis(100));
        server.shutdown();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });

    let ok: u32 = outcomes.iter().map(|o| o.0).sum();
    assert!(ok > 0, "some requests must complete before the drain");
    assert_eq!(
        server.active_connections(),
        0,
        "drain must close every connection"
    );

    // Engine shut down behind the drain: direct submission is refused…
    let session = engine.open_session(SessionOptions::new("late"));
    assert!(matches!(
        session.submit(&SkylineQuery::new("data")),
        Err(skybench::EngineError::Rejected(
            skybench::RejectReason::Shutdown
        ))
    ));

    // …and every admitted ticket reached a terminal outcome (a hung
    // waiter would also have deadlocked the drain above).
    let stats = engine.session_stats();
    assert_eq!(
        stats.submitted,
        stats.completed + stats.cancelled + stats.deadline_expired + stats.internal_errors,
        "ticket accounting must balance after drain: {stats:?}"
    );

    // Shutdown is idempotent.
    server.shutdown();
}

/// Opens a raw connection and sends `partial`, the start of a request
/// the client then never finishes.
fn stalled_client(addr: SocketAddr, partial: &[u8]) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(partial).expect("send");
    stream
}

#[test]
fn stalled_requests_get_408_and_the_connection_closes() {
    let engine = test_engine(100, Distribution::Independent);
    let server = SkylineServer::start(Arc::clone(&engine), ServeConfig::default()).expect("bind");
    let addr = server.local_addr();

    // The server bounds a request at 5 s from its first byte; the read
    // timeout is this test's watchdog (without the bound the server
    // waits forever and the read below times out instead).
    let partials: [&[u8]; 2] = [
        b"POST /v1/query HTTP/1.1\r\n",
        b"POST /v1/query HTTP/1.1\r\nContent-Length: 64\r\n\r\n{\"dataset\":",
    ];
    thread::scope(|s| {
        for partial in partials {
            s.spawn(move || {
                let mut stream = stalled_client(addr, partial);
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                let started = Instant::now();
                let mut answer = String::new();
                stream
                    .read_to_string(&mut answer)
                    .expect("the server must answer and close, not wait forever");
                assert!(answer.starts_with("HTTP/1.1 408 "), "got: {answer}");
                assert!(started.elapsed() >= Duration::from_secs(4), "too eager");
            });
        }
    });

    // The handler threads are gone, and the server still serves.
    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(client.get("/healthz").expect("request").status, 200);
    server.shutdown();
    assert_eq!(server.active_connections(), 0);
}

#[test]
fn shutdown_returns_while_a_half_sent_request_is_open() {
    let engine = test_engine(100, Distribution::Independent);
    let server =
        Arc::new(SkylineServer::start(Arc::clone(&engine), ServeConfig::default()).expect("bind"));
    let stalled = stalled_client(server.local_addr(), b"POST /v1/query HTTP/1.1\r\n");
    while server.active_connections() == 0 {
        thread::sleep(Duration::from_millis(1));
    }

    // Watchdog: the drain must not wait for the stalled client — not
    // even for its 408 — so it finishes well inside the request bound.
    let (done, finished) = mpsc::channel();
    let drainer = Arc::clone(&server);
    thread::spawn(move || {
        drainer.shutdown();
        let _ = done.send(());
    });
    finished
        .recv_timeout(Duration::from_secs(3))
        .expect("shutdown() hung on a connection stalled mid-request");
    assert_eq!(server.active_connections(), 0);
    drop(stalled);
}
