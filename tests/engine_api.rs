//! Facade-level engine tests: the acceptance demo, enforced by the
//! test suite — one registered dataset serving several subspace
//! queries, with the planner choosing by the query's shape and the
//! cache provably skipping recomputation.

use skybench::prelude::*;
use skybench::{generate, verify, Strategy};

#[test]
fn one_registration_serves_many_subspaces_with_adaptive_plans() {
    let threads = 4;
    let gen_pool = ThreadPool::new(2);
    let data = generate(Distribution::Independent, 12_000, 8, 77, &gen_pool);
    let reference = data.clone();

    let engine = Engine::with_config(EngineConfig {
        threads,
        ..EngineConfig::default()
    });
    engine.register("listings", data);

    let queries = [
        SkylineQuery::new("listings"),
        SkylineQuery::new("listings").dims([0, 1]),
        SkylineQuery::new("listings").dims([3]),
        SkylineQuery::new("listings").dims([2, 5, 7]),
    ];

    let mut strategies = Vec::new();
    for query in &queries {
        let cold = engine.execute(query).unwrap();
        assert!(!cold.cache_hit);

        // Correctness of every served subspace against brute force.
        let dims: Vec<usize> = query
            .selected_dims()
            .map(|d| d.to_vec())
            .unwrap_or_else(|| (0..8).collect());
        let expect = verify::naive_skyline_on(&reference, &dims);
        assert_eq!(cold.indices(), expect.as_slice(), "{dims:?}");

        // The measured cache-hit path: identical indices, no stats
        // (nothing recomputed), and the Cached strategy marker.
        let warm = engine.execute(query).unwrap();
        assert!(warm.cache_hit);
        assert!(warm.stats.is_none());
        assert_eq!(warm.plan.strategy, Strategy::Cached);
        assert_eq!(warm.indices(), cold.indices());

        strategies.push(cold.plan.strategy);
    }

    // 12 000 rows are above `small_n`: every multi-dimensional subspace
    // of this single registration runs Hybrid on every lane, and the
    // 1-d query takes the algorithm-free min-scan.
    let hybrid = Strategy::Algorithm(Algorithm::Hybrid);
    assert_eq!(
        strategies,
        [
            hybrid.clone(),
            hybrid.clone(),
            Strategy::MinScan { dim: 3 },
            hybrid
        ]
    );

    let stats = engine.cache_stats();
    assert_eq!(stats.hits as usize, queries.len());
    assert!(stats.hit_rate() > 0.0);
}

/// `Strategy::MinScan` ≡ naive on every entry shape the catalog can
/// hand it: each one-dimensional query, `Min` and `Max`, is checked
/// against `verify::naive_skyline_on_pref` over the live rows.
#[test]
fn min_scan_equals_naive_on_every_entry_shape() {
    // Cache off so every query is planned, never served as a hit.
    let engine = Engine::with_config(EngineConfig {
        threads: 2,
        cache_bytes: 0,
        compact_fraction: 0.5,
        ..EngineConfig::default()
    });
    let check = |what: &str| {
        let entry = engine.dataset("d").expect("registered");
        let live = entry.snapshot();
        for dim in 0..2 {
            for (pref, mask) in [(Preference::Min, 0), (Preference::Max, 1 << dim)] {
                let got = engine
                    .execute(&SkylineQuery::new("d").dims([dim]).preference([pref]))
                    .unwrap();
                assert_eq!(got.plan.strategy, Strategy::MinScan { dim }, "{what}");
                let expect: Vec<u32> = verify::naive_skyline_on_pref(&live, &[dim], mask)
                    .iter()
                    .map(|&k| entry.live_ids()[k as usize])
                    .collect();
                assert_eq!(
                    got.indices(),
                    expect.as_slice(),
                    "{what}: dim {dim} {pref:?}"
                );
            }
        }
    };

    // dim 0: unique min on row 0, max tied on rows 2 and 4;
    // dim 1: min tied on rows 1 and 3, unique max on row 0.
    engine.register(
        "d",
        Dataset::from_rows(&[
            vec![1.0, 9.0],
            vec![4.0, 2.0],
            vec![8.0, 5.0],
            vec![5.0, 2.0],
            vec![8.0, 3.0],
            vec![6.0, 6.0],
        ])
        .unwrap(),
    );
    check("pristine");
    // (a) The extreme is tombstoned: row 0 held dim 0's min and dim 1's
    // max; row 2 held one of dim 0's tied maxima.
    engine.delete("d", &[0, 2]).unwrap();
    check("tombstoned extremes");
    // (c) Tied across base and segment: row 6 ties base row 1 on dim 0's
    // min and base row 5 on dim 1's max; row 7 ties base row 4 on dim
    // 0's max and base rows 1 and 3 on dim 1's min.
    let report = engine
        .insert("d", &[vec![4.0, 6.0], vec![8.0, 2.0]])
        .unwrap();
    assert_eq!(report.inserted_ids, vec![6, 7]);
    check("extremes tied across base and segment");
    // (b) Every extreme is an append-segment row (ids 8 and 9).
    engine
        .insert("d", &[vec![0.5, 7.0], vec![9.0, 1.0]])
        .unwrap();
    check("segment rows hold the extremes");
    // A tombstoned segment extreme falls back to the base/segment ties.
    engine.delete("d", &[8]).unwrap();
    check("segment extreme tombstoned");
    // Compacted: this batch crosses the 0.5 threshold and renumbers.
    let report = engine.delete("d", &[9, 1, 3]).unwrap();
    assert!(report.compacted);
    check("compacted");
}

#[test]
fn prelude_exposes_the_engine_types() {
    // Compile-time check that the prelude is sufficient for engine use.
    let engine: Engine = Engine::new();
    let _cfg = EngineConfig::default();
    let _q: SkylineQuery = SkylineQuery::new("x").limit(1);
    assert!(engine.datasets().is_empty());
    assert_eq!(engine.cache_stats().hits, 0);
}
