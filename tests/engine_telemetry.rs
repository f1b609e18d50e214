//! Deterministic tests of the telemetry layer: trace spans timed on a
//! [`ManualClock`], histogram bucket arithmetic, the slow-query ring's
//! threshold and capacity, and per-query counter isolation.

mod common;

use std::sync::Arc;
use std::time::Duration;

use skybench::{
    generate, AdmissionConfig, Dataset, Distribution, Engine, EngineConfig, Histogram, ManualClock,
    MetricValue, PartitionerKind, PlannerConfig, QueryTrace, SkylineQuery, SpanKind, Strategy,
    TelemetryConfig, ThreadPool,
};

/// A 2-lane manual-dispatch engine on a shared manual clock: nothing
/// runs until [`Engine::pump`] and no duration elapses unless the test
/// advances the clock.
fn manual_engine(telemetry: TelemetryConfig) -> (Engine, Arc<ManualClock>) {
    let clock = ManualClock::shared();
    let engine = Engine::with_clock(
        EngineConfig {
            threads: 2,
            admission: AdmissionConfig {
                background_dispatcher: false,
                ..AdmissionConfig::default()
            },
            telemetry,
            ..EngineConfig::default()
        },
        Arc::clone(&clock) as Arc<dyn skybench::Clock>,
    );
    engine.register(
        "d",
        Dataset::from_rows(&[
            vec![1.0, 9.0, 2.0, 8.0],
            vec![9.0, 1.0, 8.0, 2.0],
            vec![5.0, 5.0, 5.0, 5.0],
            vec![2.0, 8.0, 1.0, 9.0],
        ])
        .unwrap(),
    );
    (engine, clock)
}

/// Distinct subspace queries so none is a cache duplicate of another.
fn distinct_query(i: usize) -> SkylineQuery {
    let subspaces: [&[usize]; 6] = [&[0], &[1], &[0, 1], &[1, 2], &[2, 3], &[0, 3]];
    SkylineQuery::new("d").dims(subspaces[i % subspaces.len()].iter().copied())
}

#[test]
fn trace_spans_are_exact_under_a_manual_clock() {
    let (engine, clock) = manual_engine(TelemetryConfig::default());
    let session = engine.open_session(skybench::SessionOptions::new("t"));

    let ticket = session.submit(&distinct_query(2)).unwrap();
    assert!(ticket.trace().is_none(), "no trace before dispatch");
    clock.advance(Duration::from_millis(5));
    engine.pump();

    let trace = ticket.trace().expect("terminal tickets carry a trace");
    assert!(!trace.cache_hit);
    assert_eq!(trace.queue_wait, Duration::from_millis(5));
    // The clock never moved after dispatch, so end-to-end time IS the
    // queue wait.
    assert_eq!(trace.total, Duration::from_millis(5));

    // Span ordering: admission wait (from submission time) first, then
    // planning, then execution spans, with the cache insert last.
    assert_eq!(trace.spans[0].kind, SpanKind::AdmissionWait);
    assert_eq!(trace.spans[0].start, Duration::ZERO);
    assert_eq!(trace.spans[0].duration, Duration::from_millis(5));
    assert_eq!(trace.spans[1].kind, SpanKind::Plan);
    assert_eq!(trace.spans.last().unwrap().kind, SpanKind::CacheInsert);
    // Every non-wait span ran while the clock stood still.
    for span in &trace.spans[1..] {
        assert_eq!(
            span.duration,
            Duration::ZERO,
            "{:?} saw the clock move",
            span.kind
        );
    }

    // A repeat of the same query is answered by the session-layer cache
    // short circuit and traced as such.
    let hit = session.submit(&distinct_query(2)).unwrap();
    let hit_trace = hit.trace().expect("cache hits are traced on submit");
    assert!(hit_trace.cache_hit);
    assert_eq!(hit_trace.strategy, "cache");
    assert_eq!(hit_trace.spans.len(), 1);
    assert_eq!(hit_trace.spans[0].kind, SpanKind::CacheHit);
    engine.shutdown();
}

/// `explain_analyze` on a cache hit must return a trace that says so:
/// the cache-probe span is present whether the hit is taken at
/// submission (the session short circuit) or at dispatch.
#[test]
fn explain_analyze_traces_cache_hits() {
    let (engine, _clock) = manual_engine(TelemetryConfig::default());
    let warm_session = engine.open_session(skybench::SessionOptions::new("w"));
    let warm = warm_session.submit(&distinct_query(3)).unwrap();
    engine.pump();
    assert!(!warm.trace().unwrap().cache_hit, "first run computes");

    // `explain_analyze` drives the same submission machinery, so the
    // repeat is served from the cache and the trace records the probe.
    std::thread::scope(|scope| {
        let engine = &engine;
        let analyzed = scope.spawn(move || engine.explain_analyze(&distinct_query(3)));
        // The analyze call blocks on its ticket; with manual dispatch a
        // cache hit resolves at submission, so no pump is needed — but
        // pump anyway to cover the dispatch-time path if probing moved.
        engine.pump();
        let (result, trace) = analyzed.join().expect("no panic").expect("valid query");
        assert!(result.cache_hit);
        assert!(trace.cache_hit);
        assert_eq!(trace.strategy, "cache");
        let probe = trace
            .span(SpanKind::CacheHit)
            .expect("cache-hit traces carry the probe span");
        assert_eq!(probe.dominance_tests, 0);
        assert_eq!(trace.dominance_tests, 0);
        assert!(trace.render().contains("cache_hit"), "{}", trace.render());
    });
    engine.shutdown();
}

/// What the cache holds never changes a miss: an engine that has just
/// answered a `[0, 1]` skyline and a cold one answer `[0, 1, 2]` with
/// the same plan, answer, dominance-test count and spans, and each
/// trace's span-summed tests equal the run's statistics.
#[test]
fn a_cached_subspace_never_changes_a_miss() {
    let pool = ThreadPool::new(2);
    let data = generate(Distribution::Correlated, 12_000, 4, 42, &pool);
    let engines = [(); 2].map(|_| {
        let engine = Engine::with_config(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        });
        engine.register("corr", data.clone());
        engine
    });
    let sub = engines[0]
        .execute(&SkylineQuery::new("corr").dims([0, 1]))
        .unwrap();
    assert!(!sub.cache_hit);

    let query = SkylineQuery::new("corr").dims([0, 1, 2]);
    let runs = engines
        .each_ref()
        .map(|engine| engine.explain_analyze(&query).expect("valid query"));
    let expect = skybench::verify::naive_skyline_on(&data, &[0, 1, 2]);
    for (result, trace) in &runs {
        assert!(!result.cache_hit);
        assert_eq!(result.indices(), expect.as_slice());
        let span_sum: u64 = trace.spans.iter().map(|s| s.dominance_tests).sum();
        assert_eq!(trace.dominance_tests, span_sum);
        assert_eq!(
            span_sum,
            result.stats.as_ref().expect("computed").dominance_tests
        );
    }
    let [(warm, warm_trace), (cold, cold_trace)] = &runs;
    assert_eq!(warm.plan.strategy, cold.plan.strategy);
    assert_eq!(
        warm.stats.as_ref().map(|s| s.dominance_tests),
        cold.stats.as_ref().map(|s| s.dominance_tests),
        "a cached subspace must not change a miss's work"
    );
    let kinds = |trace: &QueryTrace| trace.spans.iter().map(|s| s.kind).collect::<Vec<_>>();
    assert_eq!(kinds(warm_trace), kinds(cold_trace));
    for engine in engines {
        engine.shutdown();
    }
}

/// Sharded plans feed `dominance.tests{algo=…}` like every other
/// computed plan: each local step and the merge land under the
/// algorithm that ran them, so one sharded query grows the family's sum
/// by exactly its trace's total.
#[test]
fn sharded_queries_reach_the_dominance_counters() {
    let pool = ThreadPool::new(2);
    let engine = Engine::with_config(EngineConfig {
        threads: 2,
        planner: PlannerConfig {
            small_n: 256,
            sharded_min_n: 512,
        },
        ..EngineConfig::default()
    });
    engine.register_sharded(
        "s",
        generate(Distribution::Anticorrelated, 6_000, 4, 11, &pool),
        4,
        PartitionerKind::Grid,
    );
    let counted = || -> u64 {
        engine
            .metrics()
            .samples
            .iter()
            .filter(|s| s.name == "dominance.tests")
            .map(|s| match s.value {
                MetricValue::Counter(v) => v,
                _ => 0,
            })
            .sum()
    };

    for query in [SkylineQuery::new("s"), SkylineQuery::new("s").skyband(3)] {
        let before = counted();
        let (result, trace) = engine.explain_analyze(&query).expect("valid query");
        assert!(matches!(
            result.plan.strategy,
            Strategy::Sharded { k: 4, .. }
        ));
        assert!(trace.dominance_tests > 0);
        assert_eq!(counted() - before, trace.dominance_tests, "{query:?}");
    }
    engine.shutdown();
}

#[test]
fn histogram_buckets_and_quantiles_are_exact() {
    let h = Histogram::new();
    h.record(Duration::ZERO);
    h.record(Duration::from_nanos(1));
    h.record(Duration::from_nanos(2));
    h.record(Duration::from_nanos(1000));

    let snap = h.snapshot();
    assert_eq!(snap.count, 4);
    assert_eq!(snap.zeros, 1);
    assert_eq!(snap.sum, Duration::from_nanos(1003));
    // Log buckets: bucket 0 covers 0..=1 ns (zeros included), bucket 1
    // covers 2..=3 ns, 1000 ns lands in 512..=1023. Counts cumulative.
    assert_eq!(snap.buckets, vec![(1, 2), (3, 3), (1023, 4)]);

    // Quantiles report the holding bucket's inclusive upper edge; exact
    // zeros rank below every bucket.
    assert_eq!(snap.quantile(0.0), Duration::ZERO);
    assert_eq!(snap.quantile(0.5), Duration::from_nanos(3));
    assert_eq!(snap.quantile(1.0), Duration::from_nanos(1023));
    assert_eq!(snap.mean(), Duration::from_nanos(1003) / 4);
}

#[test]
fn slow_query_log_applies_threshold_and_capacity() {
    let (engine, clock) = manual_engine(TelemetryConfig {
        slow_query_threshold: Duration::from_millis(1),
        slow_log_capacity: 2,
    });
    let session = engine.open_session(skybench::SessionOptions::new("t"));

    // Fast query: dispatched with no clock movement → below threshold.
    let fast = session.submit(&distinct_query(0)).unwrap();
    engine.pump();
    assert!(fast.trace().is_some());

    // Three slow queries (2 ms of queue wait each) through a ring of 2:
    // the oldest is evicted.
    let mut slow_ids = Vec::new();
    for i in 1..4 {
        let t = session.submit(&distinct_query(i)).unwrap();
        clock.advance(Duration::from_millis(2));
        engine.pump();
        slow_ids.push(t.trace().unwrap().query_id);
    }

    let drained = engine.slow_queries();
    let drained_ids: Vec<u64> = drained.iter().map(|t| t.query_id).collect();
    assert_eq!(drained_ids, slow_ids[1..], "capacity 2, oldest evicted");
    assert!(drained.iter().all(|t| t.total >= Duration::from_millis(1)));
    assert!(engine.slow_queries().is_empty(), "drain empties the ring");
    engine.shutdown();
}

#[test]
fn concurrent_traces_isolate_their_dominance_counts() {
    let pool = ThreadPool::new(2);
    let engine = Engine::with_config(EngineConfig {
        threads: 2,
        ..EngineConfig::default()
    });
    engine.register(
        "anti",
        generate(Distribution::Anticorrelated, 2_000, 4, 7, &pool),
    );
    engine.register(
        "indep",
        generate(Distribution::Independent, 2_000, 4, 8, &pool),
    );

    std::thread::scope(|scope| {
        for name in ["anti", "indep"] {
            let engine = &engine;
            scope.spawn(move || {
                let (result, trace) = engine
                    .explain_analyze(&SkylineQuery::new(name))
                    .expect("valid query");
                assert_eq!(trace.dataset, name);
                assert!(!trace.cache_hit);
                // The trace's DT total is the sum of its spans' counts
                // and matches the run's own statistics: counts from the
                // concurrent query never bleed in.
                let span_sum: u64 = trace.spans.iter().map(|s| s.dominance_tests).sum();
                assert_eq!(trace.dominance_tests, span_sum);
                assert_eq!(
                    trace.dominance_tests,
                    result
                        .stats
                        .expect("computed plans carry stats")
                        .dominance_tests
                );
                assert!(trace.dominance_tests > 0);
            });
        }
    });
    engine.shutdown();
}

#[test]
fn cold_hybrid_query_traces_every_phase() {
    let pool = ThreadPool::new(4);
    let engine = Engine::with_config(EngineConfig {
        threads: 4,
        ..EngineConfig::default()
    });
    engine.register(
        "anti",
        generate(Distribution::Anticorrelated, 20_000, 6, 7, &pool),
    );

    let (result, trace) = engine
        .explain_analyze(&SkylineQuery::new("anti"))
        .expect("valid query");
    assert!(!trace.cache_hit);

    // The planner's decision and its reason travel with the trace.
    assert_eq!(trace.strategy, "Hybrid", "20 000 rows > small_n → Hybrid");
    assert_eq!(trace.reason, "above small_n: Hybrid on every lane");

    // Both computation phases are present, took real wall time on the
    // monotonic clock, and carry their own dominance-test counts.
    for kind in [SpanKind::Plan, SpanKind::PhaseOne, SpanKind::PhaseTwo] {
        let span = trace
            .span(kind)
            .unwrap_or_else(|| panic!("{kind:?} span missing"));
        assert!(span.duration > Duration::ZERO, "{kind:?} has no duration");
    }
    assert!(trace.span(SpanKind::PhaseOne).unwrap().dominance_tests > 0);
    assert!(trace.span(SpanKind::PhaseTwo).unwrap().dominance_tests > 0);
    assert_eq!(
        trace.dominance_tests,
        result
            .stats
            .expect("computed plans carry stats")
            .dominance_tests
    );
    assert!(trace.total > Duration::ZERO);

    // The rendered line carries every span in one greppable record.
    let line = trace.render();
    assert!(line.starts_with("TRACE query="));
    assert!(line.contains("strategy=Hybrid"));
    assert!(line.contains("phase1:") && line.contains("phase2:"));
    engine.shutdown();
}

/// The exposition contract dashboards scrape: every rendered line
/// parses, the engine's stable names survive a query and mutations,
/// and no `feedback.` family is exported. `catalog.stats.rescans`
/// counts dimensions rescanned, so folding a new minimum in is free
/// and deleting it again costs every dimension it was the minimum of.
#[test]
fn exposition_parses_and_carries_the_stable_names() {
    let engine = Engine::with_config(EngineConfig {
        threads: 2,
        ..EngineConfig::default()
    });
    let pool = ThreadPool::new(2);
    engine.register("d", generate(Distribution::Independent, 2_000, 4, 7, &pool));
    engine.execute(&SkylineQuery::new("d")).unwrap();
    let origin = engine.insert("d", &[vec![0.0; 4]]).unwrap().inserted_ids;
    assert_eq!(
        engine.metrics().counter("catalog.stats.rescans", &[]),
        Some(0)
    );
    engine.execute(&SkylineQuery::new("d")).unwrap();
    engine.delete("d", &origin).unwrap();

    let text = engine.metrics().render();
    common::assert_exposition(&text, &[]);
    assert!(
        text.contains("catalog.stats.rescans 4\n"),
        "the deleted row was the minimum of all four dimensions:\n{text}"
    );
    assert!(
        !text.lines().any(|l| l.starts_with("feedback.")),
        "no feedback family is exported:\n{text}"
    );
    engine.shutdown();
}
