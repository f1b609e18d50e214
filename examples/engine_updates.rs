//! Mutable datasets end to end: register once, then insert and delete
//! points while the engine maintains the skyline incrementally —
//! cache entries patched on the write for inserts and deletes alike,
//! and a compaction when tombstones pile up.
//!
//! ```text
//! cargo run --release --example engine_updates
//! ```

use std::time::Instant;

use skybench::generate;
use skybench::prelude::*;

fn main() {
    let threads = skybench::available_threads().max(4);
    let gen_pool = ThreadPool::new(threads);
    let n = 50_000;
    let data = generate(Distribution::Independent, n, 6, 11, &gen_pool);

    let engine = Engine::with_config(EngineConfig {
        threads,
        ..EngineConfig::default()
    });
    let v1 = engine.register("listings", data);
    println!("registered 'listings' v{v1}: {n} points × 6 dims");

    // Cold query fills the cache.
    let cold = engine.execute(&SkylineQuery::new("listings")).unwrap();
    println!(
        "cold skyline: {} points via {:?} in {:?}",
        cold.len(),
        cold.plan.strategy,
        cold.elapsed
    );

    // --- Insert: the new point is tested against the cached skyline
    // only, and every cached result is patched forward. The next query
    // is still a cache hit.
    let insert_started = Instant::now();
    let report = engine
        .insert(
            "listings",
            &[vec![0.001, 0.001, 0.001, 0.001, 0.001, 0.001]],
        )
        .unwrap();
    let insert_time = insert_started.elapsed();
    println!(
        "\ninsert of a dominating point: v{} (+{:?}), {} cached results patched",
        report.version, insert_time, report.cache_patched
    );
    let warm = engine.execute(&SkylineQuery::new("listings")).unwrap();
    assert!(warm.cache_hit, "patched entry serves the new version");
    assert!(warm.indices().contains(&report.inserted_ids[0]));
    println!(
        "query after insert: cache hit, {} points (the new point joined), {:?}",
        warm.len(),
        warm.elapsed
    );

    // --- Delete of a skyline member: repaired on the write. Only the
    // deleted point's exclusive dominance region is scanned, and the
    // next query is a cache hit again.
    let victim = report.inserted_ids[0];
    let delete_started = Instant::now();
    let report = engine.delete("listings", &[victim]).unwrap();
    println!(
        "\ndelete of that member: v{} (+{:?}), {} cached results patched",
        report.version,
        delete_started.elapsed(),
        report.cache_patched
    );
    let after = engine.execute(&SkylineQuery::new("listings")).unwrap();
    assert!(after.cache_hit, "repaired entry serves the new version");
    assert_eq!(after.indices(), cold.indices(), "back to the original");
    println!("query after delete: cache hit, {:?}", after.elapsed);

    // --- Mixed batch through update_batch: one version bump. Sixteen
    // inserts are offered through the batched tile kernels.
    let entry = engine.dataset("listings").unwrap();
    let doomed: Vec<u32> = entry.live_ids().iter().copied().take(3).collect();
    let report = engine
        .update_batch(
            "listings",
            &vec![vec![0.9; 6]; 16], // dominated: they join nothing
            &doomed,
        )
        .unwrap();
    println!(
        "\nmixed batch: v{}, inserted ids {:?}, deleted {}",
        report.version, report.inserted_ids, report.deleted
    );
    let r = engine.execute(&SkylineQuery::new("listings")).unwrap();
    assert!(r.cache_hit, "a mixed batch is patched on the write too");
    println!("query after batch: cache hit, {} points", r.len());

    // --- Compaction: delete enough rows and the base is rebuilt with
    // renumbered ids; prior cached results are invalidated.
    let entry = engine.dataset("listings").unwrap();
    let bulk: Vec<u32> = entry
        .live_ids()
        .iter()
        .copied()
        .step_by(3) // every third row: ~33% > the 25% threshold
        .collect();
    let report = engine.delete("listings", &bulk).unwrap();
    assert!(report.compacted);
    let entry = engine.dataset("listings").unwrap();
    println!(
        "\nbulk delete of {} rows compacted the dataset: {} live rows, ids renumbered, pristine = {}",
        bulk.len(),
        entry.live_len(),
        entry.is_pristine()
    );
    let fresh = engine.execute(&SkylineQuery::new("listings")).unwrap();
    assert!(!fresh.cache_hit, "compaction voids prior results");
    println!(
        "post-compaction cold query: {} points via {:?}",
        fresh.len(),
        fresh.plan.strategy
    );

    let stats = engine.cache_stats();
    println!(
        "\ncache: {} hits / {} misses, {} patches, {} invalidations, {} KiB of {} KiB",
        stats.hits,
        stats.misses,
        stats.patches,
        stats.invalidations,
        stats.bytes / 1024,
        stats.budget_bytes / 1024
    );
}
