//! Engine behaviour required by the acceptance criteria: subspace
//! correctness against brute force, cache semantics across
//! registrations, invalidation, concurrent batched execution, and
//! incremental maintenance under mutation.

use std::sync::Arc;

use skyline_core::{algo::Algorithm, verify};
use skyline_data::{generate, Distribution, Preference};
use skyline_engine::{Engine, EngineConfig, SkylineQuery, Strategy};
use skyline_parallel::ThreadPool;

fn engine(threads: usize) -> Engine {
    Engine::with_config(EngineConfig {
        threads,
        ..EngineConfig::default()
    })
}

#[test]
fn subspace_results_equal_brute_force_on_the_full_projection() {
    let engine = engine(4);
    let pool = ThreadPool::new(2);
    for (name, dist) in [
        ("corr", Distribution::Correlated),
        ("indep", Distribution::Independent),
        ("anti", Distribution::Anticorrelated),
    ] {
        let data = generate(dist, 2_500, 5, 21, &pool);
        let reference = data.clone();
        engine.register(name, data);
        for dims in [
            &[0usize][..],
            &[4],
            &[0, 1],
            &[2, 4],
            &[0, 2, 3],
            &[1, 2, 3, 4],
            &[0, 1, 2, 3, 4],
        ] {
            // Brute force over the materialised projection…
            let projected = reference.project(dims).unwrap();
            let expect = verify::naive_skyline(&projected);
            // …must equal the engine's subspace path (which projects
            // lazily or not at all).
            let got = engine
                .execute(&SkylineQuery::new(name).dims(dims.iter().copied()))
                .unwrap();
            assert_eq!(got.indices(), expect.as_slice(), "{name} {dims:?}");
        }
    }
}

#[test]
fn subspace_with_preferences_matches_negated_projection() {
    let engine = engine(2);
    let pool = ThreadPool::new(2);
    let data = generate(Distribution::Independent, 1_200, 4, 33, &pool);
    let reference = data.clone();
    engine.register("d", data);
    let dims = [1usize, 3];
    let prefs = [Preference::Max, Preference::Min];
    let projected = reference
        .project(&dims)
        .unwrap()
        .with_preferences(&prefs)
        .unwrap();
    let expect = verify::naive_skyline(&projected);
    let got = engine
        .execute(&SkylineQuery::new("d").dims(dims).preference(prefs))
        .unwrap();
    assert_eq!(got.indices(), expect.as_slice());
}

#[test]
fn cache_hit_returns_identical_indices_after_unrelated_registrations() {
    let engine = engine(4);
    let pool = ThreadPool::new(2);
    engine.register(
        "target",
        generate(Distribution::Anticorrelated, 15_000, 4, 5, &pool),
    );

    let query = SkylineQuery::new("target").dims([0, 1, 2]);
    let first = engine.execute(&query).unwrap();
    assert!(!first.cache_hit);

    // Unrelated datasets come and go.
    for i in 0..5 {
        let name = format!("noise{i}");
        engine.register(
            &name,
            generate(Distribution::Independent, 2_000, 3, i, &pool),
        );
        engine.execute(&SkylineQuery::new(&name)).unwrap();
    }
    engine.evict("noise0");

    let second = engine.execute(&query).unwrap();
    assert!(second.cache_hit, "unrelated registrations must not evict");
    assert_eq!(second.plan.strategy, Strategy::Cached);
    assert!(second.stats.is_none(), "hits never recompute");
    assert_eq!(first.indices(), second.indices());
    assert_eq!(first.dataset_version, second.dataset_version);
}

#[test]
fn reregistering_invalidates_only_that_dataset() {
    let engine = engine(2);
    let pool = ThreadPool::new(2);
    engine.register("a", generate(Distribution::Independent, 3_000, 3, 1, &pool));
    engine.register("b", generate(Distribution::Independent, 3_000, 3, 2, &pool));
    let qa = SkylineQuery::new("a");
    let qb = SkylineQuery::new("b");
    let a1 = engine.execute(&qa).unwrap();
    engine.execute(&qb).unwrap();

    // Re-register `a` with different points: its result must be
    // recomputed, `b`'s must still hit.
    let data2 = generate(Distribution::Independent, 3_000, 3, 99, &pool);
    let expect2 = verify::naive_skyline(&data2);
    let v2 = engine.register("a", data2);
    assert!(v2 > a1.dataset_version);

    let a2 = engine.execute(&qa).unwrap();
    assert!(!a2.cache_hit, "stale result must not be served");
    assert_eq!(a2.dataset_version, v2);
    assert_eq!(a2.indices(), expect2.as_slice());

    let b2 = engine.execute(&qb).unwrap();
    assert!(b2.cache_hit, "sibling dataset kept its cache entries");

    // Eviction empties the name and errors subsequent queries.
    assert!(engine.evict("a"));
    assert!(!engine.evict("a"));
    assert!(engine.execute(&qa).is_err());
}

#[test]
fn concurrent_execute_batch_agrees_with_sequential_execution() {
    // 8 threads hammering one engine with mixed batches must produce
    // exactly what a fresh single-threaded engine produces.
    let shared = Arc::new(engine(4));
    let pool = ThreadPool::new(2);
    let mut datasets = Vec::new();
    for (i, dist) in [
        Distribution::Correlated,
        Distribution::Independent,
        Distribution::Anticorrelated,
    ]
    .iter()
    .enumerate()
    {
        let name = format!("ds{i}");
        let data = generate(*dist, 6_000, 4, 40 + i as u64, &pool);
        shared.register(&name, data.clone());
        datasets.push((name, data));
    }

    let queries: Vec<SkylineQuery> = (0..3)
        .flat_map(|i| {
            let name = format!("ds{i}");
            vec![
                SkylineQuery::new(&name),
                SkylineQuery::new(&name).dims([0, 1]),
                SkylineQuery::new(&name).dims([1, 2, 3]),
                SkylineQuery::new(&name).dims([2]),
                SkylineQuery::new(&name).dims([0, 3]).limit(5),
            ]
        })
        .collect();

    // Sequential ground truth from brute force (not from the engine).
    let truth: Vec<Vec<u32>> = queries
        .iter()
        .map(|q| {
            let (_, data) = datasets
                .iter()
                .find(|(n, _)| n == q.dataset())
                .expect("known dataset");
            let dims: Vec<usize> = match q.selected_dims() {
                Some(d) => d.to_vec(),
                None => (0..data.dims()).collect(),
            };
            let mut sky = verify::naive_skyline_on(data, &dims);
            if let Some(k) = q.result_limit() {
                sky.truncate(k);
            }
            sky
        })
        .collect();

    let handles: Vec<_> = (0..8)
        .map(|t| {
            let shared = Arc::clone(&shared);
            let queries = queries.clone();
            let truth = truth.clone();
            std::thread::spawn(move || {
                for round in 0..4 {
                    // Rotate the batch so threads collide on different
                    // queries each round.
                    let k = (t + round) % queries.len();
                    let batch: Vec<SkylineQuery> =
                        queries[k..].iter().chain(&queries[..k]).cloned().collect();
                    let results = shared.execute_batch(&batch);
                    for (j, r) in results.iter().enumerate() {
                        let qi = (k + j) % queries.len();
                        let r = r.as_ref().expect("valid query");
                        assert_eq!(
                            r.indices(),
                            truth[qi].as_slice(),
                            "thread {t} round {round} query {qi}"
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // The workload repeated identical queries: the cache must show it.
    let stats = shared.cache_stats();
    assert!(stats.hits > 0, "repeated batches should hit: {stats:?}");
}

/// The expected skyline of a mutable dataset: naive over the live
/// snapshot, mapped back to stable ids.
fn expected_skyline(engine: &Engine, name: &str) -> Vec<u32> {
    let entry = engine.dataset(name).expect("registered");
    verify::naive_skyline(&entry.snapshot())
        .iter()
        .map(|&k| entry.live_ids()[k as usize])
        .collect()
}

#[test]
fn mutation_stream_tracks_brute_force_across_all_paths() {
    // A long insert/delete stream against one dataset; every batch
    // patches the cached full-space skyline on the write, so after each
    // one the query is a hit that equals brute force over the
    // survivors.
    let engine = engine(4);
    let pool = ThreadPool::new(2);
    let data = generate(Distribution::Independent, 4_000, 3, 71, &pool);
    engine.register("m", data);
    let q = SkylineQuery::new("m");
    engine.execute(&q).unwrap();

    let mut seed = 0x5151u64;
    let mut next = move |bound: usize| {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((seed >> 33) as usize) % bound.max(1)
    };
    for round in 0..30 {
        let report = if round % 3 == 2 {
            let entry = engine.dataset("m").unwrap();
            let live = entry.live_ids();
            let victim = live[next(live.len())];
            engine.delete("m", &[victim]).unwrap()
        } else {
            let rows: Vec<Vec<f32>> = (0..1 + next(3))
                .map(|_| (0..3).map(|_| next(1_000) as f32 / 1_000.0).collect())
                .collect();
            engine.insert("m", &rows).unwrap()
        };
        assert_eq!(report.cache_patched, 1, "round {round}");
        let got = engine.execute(&q).unwrap();
        assert!(got.cache_hit, "round {round}");
        assert_eq!(
            got.indices(),
            expected_skyline(&engine, "m").as_slice(),
            "round {round}"
        );
    }
    assert_eq!(engine.cache_stats().patches, 30);
}

#[test]
fn concurrent_mutations_and_queries_stay_consistent() {
    // Writers mutate two datasets while readers hammer them with
    // batches. Every result must be internally consistent: a valid
    // skyline of *some* version the reader could have observed —
    // checked here as "all returned ids live at some point" plus a
    // final quiescent equality check against brute force.
    let shared = Arc::new(engine(4));
    let pool = ThreadPool::new(2);
    for name in ["a", "b"] {
        shared.register(
            name,
            generate(Distribution::Independent, 3_000, 3, 5, &pool),
        );
    }

    let writers: Vec<_> = (0..2)
        .map(|w| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let name = if w == 0 { "a" } else { "b" };
                for i in 0..40u32 {
                    let v = (i as f32 + 1.0) / 100.0;
                    shared
                        .insert(name, &[vec![v, 1.0 - v, v * 0.5]])
                        .expect("insert");
                    if i % 4 == 3 {
                        let entry = shared.dataset(name).expect("registered");
                        let victim = *entry.live_ids().last().expect("non-empty");
                        shared.delete(name, &[victim]).expect("live victim");
                    }
                }
            })
        })
        .collect();
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let queries = vec![
                    SkylineQuery::new("a"),
                    SkylineQuery::new("a").dims([0, 1]),
                    SkylineQuery::new("b").dims([1, 2]),
                    SkylineQuery::new("b"),
                ];
                for _ in 0..25 {
                    for r in shared.execute_batch(&queries) {
                        let r = r.expect("valid query");
                        // Ascending, duplicate-free ids.
                        assert!(r.indices().windows(2).all(|w| w[0] < w[1]));
                    }
                }
            })
        })
        .collect();
    for h in writers.into_iter().chain(readers) {
        h.join().unwrap();
    }

    // Quiescent: results equal brute force for the final version.
    for name in ["a", "b"] {
        let got = shared.execute(&SkylineQuery::new(name)).unwrap();
        assert_eq!(got.indices(), expected_skyline(&shared, name).as_slice());
    }
}

#[test]
fn byte_budget_bounds_resident_results() {
    // A tiny budget: anticorrelated skylines are big, so only a few
    // fit; the cache must stay within budget and keep serving.
    let engine = Engine::with_config(EngineConfig {
        threads: 2,
        cache_bytes: 4 << 10,
        ..EngineConfig::default()
    });
    let pool = ThreadPool::new(2);
    engine.register(
        "d",
        generate(Distribution::Anticorrelated, 9_000, 4, 31, &pool),
    );
    for dims in [
        &[0usize, 1][..],
        &[1, 2],
        &[2, 3],
        &[0, 2],
        &[1, 3],
        &[0, 1, 2],
        &[1, 2, 3],
        &[0, 1, 2, 3],
    ] {
        engine
            .execute(&SkylineQuery::new("d").dims(dims.iter().copied()))
            .unwrap();
    }
    let stats = engine.cache_stats();
    assert!(stats.bytes <= stats.budget_bytes, "{stats:?}");
    assert_eq!(stats.budget_bytes, 4 << 10);
    // The budget must bite somewhere: entries evicted under pressure,
    // or a result too large for the whole budget left uncached.
    assert!(
        stats.evictions > 0 || stats.insertions < 8,
        "budget never bit: {stats:?}"
    );
    assert!(stats.entries < 8, "all eight results cannot fit: {stats:?}");
}

#[test]
fn cache_patches_forward_across_three_insert_batches() {
    // Three insert batches in a row: the cached full-space result must
    // be carried across every version hop (a chain of patches, not one),
    // staying a cache hit and staying correct throughout.
    let engine = engine(2);
    let pool = ThreadPool::new(2);
    engine.register(
        "d",
        generate(Distribution::Independent, 2_000, 3, 77, &pool),
    );
    let q = SkylineQuery::new("d");
    let cold = engine.execute(&q).unwrap();
    assert!(!cold.cache_hit);

    for batch in 0..3u32 {
        let rows: Vec<Vec<f32>> = (0..2)
            .map(|k| {
                let v = 0.01 + 0.001 * (batch * 2 + k) as f32;
                vec![v, 1.0 - v, v]
            })
            .collect();
        let report = engine.insert("d", &rows).unwrap();
        assert_eq!(report.cache_patched, 1, "batch {batch} patches the entry");
        assert_eq!(report.cache_dropped, 0);

        let warm = engine.execute(&q).unwrap();
        assert!(warm.cache_hit, "batch {batch} keeps the entry servable");
        assert_eq!(warm.dataset_version, report.version);
        let entry = engine.dataset("d").unwrap();
        let expect: Vec<u32> = verify::naive_skyline(&entry.snapshot())
            .iter()
            .map(|&k| entry.live_ids()[k as usize])
            .collect();
        assert_eq!(warm.indices(), expect.as_slice(), "batch {batch}");
    }
    assert!(engine.cache_stats().patches >= 3);
}

#[test]
fn zero_budget_engine_survives_mutations_and_stays_correct() {
    // cache_bytes = 0 disables caching entirely: no hits, no patches —
    // but mutations and queries must keep agreeing with the naive
    // reference.
    let engine = Engine::with_config(EngineConfig {
        threads: 2,
        cache_bytes: 0,
        ..EngineConfig::default()
    });
    let pool = ThreadPool::new(2);
    engine.register(
        "d",
        generate(Distribution::Independent, 1_500, 3, 99, &pool),
    );
    let q = SkylineQuery::new("d");
    let first = engine.execute(&q).unwrap();
    assert!(!first.cache_hit);

    let report = engine.insert("d", &[vec![0.001, 0.001, 0.001]]).unwrap();
    assert_eq!(report.cache_patched, 0);
    let victim = first.indices()[0];
    let report = engine.delete("d", &[victim]).unwrap();
    assert_eq!(report.cache_patched, 0);

    let after = engine.execute(&q).unwrap();
    assert!(!after.cache_hit);
    assert_eq!(after.plan.strategy, Strategy::Algorithm(Algorithm::Sfs));
    let entry = engine.dataset("d").unwrap();
    let expect: Vec<u32> = verify::naive_skyline(&entry.snapshot())
        .iter()
        .map(|&k| entry.live_ids()[k as usize])
        .collect();
    assert_eq!(after.indices(), expect.as_slice());
    let stats = engine.cache_stats();
    assert_eq!((stats.hits, stats.patches, stats.entries), (0, 0, 0));
}
