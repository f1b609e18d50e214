//! The query engine in one sitting: register a dataset once, serve
//! many subspace queries, watch the planner pick a strategy per query,
//! and measure the cache-hit path.
//!
//! ```text
//! cargo run --release --example engine_catalog
//! ```

use std::time::Instant;

use skybench::prelude::*;
use skybench::{generate, Strategy};

fn main() {
    // A moderately hard workload: 40k points, 8 dimensions.
    let threads = skybench::available_threads().max(4);
    let gen_pool = ThreadPool::new(threads);
    let data = generate(Distribution::Independent, 40_000, 8, 7, &gen_pool);

    // Pin the pool width so the planner's parallel tier is exercised
    // even on single-core CI boxes (plans depend on the thread budget).
    let engine = Engine::with_config(EngineConfig {
        threads,
        ..EngineConfig::default()
    });
    let version = engine.register("listings", data);
    println!(
        "registered 'listings' v{version} ({} points × {} dims) on {} threads",
        40_000,
        8,
        engine.threads()
    );

    // Three very different queries against the same registration.
    let queries = [
        ("full space", SkylineQuery::new("listings")),
        ("2-d subspace", SkylineQuery::new("listings").dims([0, 1])),
        ("1-d best-of", SkylineQuery::new("listings").dims([3])),
        (
            "mixed preference",
            SkylineQuery::new("listings")
                .dims([0, 5])
                .preference([Preference::Min, Preference::Max]),
        ),
    ];

    let mut strategies_seen = Vec::new();
    for (label, query) in &queries {
        let cold_started = Instant::now();
        let cold = engine.execute(query).unwrap();
        let cold_time = cold_started.elapsed();
        assert!(!cold.cache_hit);

        let warm_started = Instant::now();
        let warm = engine.execute(query).unwrap();
        let warm_time = warm_started.elapsed();

        // The cache-hit path returns the identical result without
        // recomputation: no algorithm stats, same indices.
        assert!(warm.cache_hit, "repeat of {label} must hit");
        assert!(warm.stats.is_none(), "hits carry no run stats");
        assert_eq!(cold.indices(), warm.indices());
        assert_eq!(warm.plan.strategy, Strategy::Cached);

        strategies_seen.push(cold.plan.strategy.name());
        println!(
            "\n{label}: {} skyline points\n  plan: {:?} — {}\n  cold {cold_time:?}, warm (cached) {warm_time:?}",
            cold.len(),
            cold.plan.strategy,
            cold.plan.reason,
        );
    }

    // 40 000 rows are above `small_n`, so every multi-dimensional
    // subspace of ONE registered dataset runs Hybrid on every lane; the
    // one-dimensional query takes the algorithm-free min-scan path.
    strategies_seen.sort_unstable();
    strategies_seen.dedup();
    assert_eq!(
        strategies_seen,
        ["Hybrid", "min-scan"],
        "unexpected plans: {strategies_seen:?}"
    );
    println!("\nplanner strategies across the workload: {strategies_seen:?}");

    let stats = engine.cache_stats();
    println!(
        "cache: {} hits / {} misses ({:.0}% hit rate)",
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0
    );
}
