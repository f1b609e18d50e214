//! The telemetry layer end to end: run a mixed workload, pull a
//! Prometheus-style metrics snapshot, explain-analyze one query into a
//! per-phase trace, and drain the slow-query log.
//!
//! ```text
//! cargo run --release --example engine_telemetry
//! ```

use std::time::Duration;

use skybench::prelude::*;
use skybench::{generate, SpanKind, TelemetryConfig};

fn main() {
    let threads = skybench::available_threads().max(4);
    let gen_pool = ThreadPool::new(threads);
    let engine = Engine::with_config(EngineConfig {
        threads,
        telemetry: TelemetryConfig {
            // Everything slower than 1 ms lands in the slow-query ring.
            slow_query_threshold: Duration::from_millis(1),
            ..TelemetryConfig::default()
        },
        ..EngineConfig::default()
    });
    engine.register(
        "flights",
        generate(Distribution::Anticorrelated, 100_000, 6, 3, &gen_pool),
    );

    // A little traffic: cold subspace scans, then warm repeats.
    let queries: Vec<SkylineQuery> = [vec![0usize, 1], vec![1, 2, 3], vec![2, 3, 4, 5], vec![0, 5]]
        .into_iter()
        .map(|dims| SkylineQuery::new("flights").dims(dims))
        .collect();
    for _ in 0..3 {
        for q in &queries {
            engine.execute(q).unwrap();
        }
    }

    // 1. The metrics registry: every counter, gauge, and histogram the
    //    engine maintains, in one machine-readable exposition.
    let snapshot = engine.metrics();
    println!("=== metrics snapshot ===\n{}", snapshot.render());
    let latency = snapshot
        .histogram("engine.query.latency", &[])
        .expect("always registered");
    println!(
        "{} queries served, p50 ≈ {:?}, p99 ≈ {:?}, cache hits {}\n",
        latency.count,
        latency.quantile(0.50),
        latency.quantile(0.99),
        snapshot.counter("cache.hits", &[]).unwrap_or(0),
    );

    // 2. Explain-analyze: run one cold query and get its full trace —
    //    the plan decision and its reason plus a span per phase with
    //    wall time and dominance-test counts.
    let (result, trace) = engine
        .explain_analyze(&SkylineQuery::new("flights"))
        .expect("valid query");
    println!("=== explain analyze ===");
    println!(
        "strategy {} ({}), {} skyline points, {} dominance tests",
        trace.strategy,
        trace.reason,
        result.indices().len(),
        trace.dominance_tests
    );
    for span in &trace.spans {
        println!(
            "  span {:<14} {:>10?} {:>12} DTs",
            span.kind.name(),
            span.duration,
            span.dominance_tests
        );
    }
    if let Some(p1) = trace.span(SpanKind::PhaseOne) {
        println!("  (phase 1 alone: {:?})", p1.duration);
    }
    println!("{}\n", trace.render());

    // 3. The slow-query log: a bounded ring of full traces over the
    //    threshold, drained on read.
    let slow = engine.slow_queries();
    println!("=== slow queries (> 1 ms) ===");
    println!("{} retained", slow.len());
    if let Some(worst) = slow.iter().max_by_key(|t| t.total) {
        println!(
            "worst: {} on '{}' took {:?}",
            worst.strategy, worst.dataset, worst.total
        );
    }
    engine.shutdown();
}
