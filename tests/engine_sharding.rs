//! Engine-level tests of the sharded execution tier: the planner must
//! route large queries on shard-registered datasets through
//! `Strategy::Sharded`, the per-shard scans plus witness-pruned merge
//! must agree with brute force across partitioners and preferences,
//! traces must carry per-shard spans for skylines and skybands alike,
//! and under mutation and compaction the sharded answer must equal the
//! plain answer on the same rows and the naive one.

use skybench::prelude::*;
use skybench::{generate, verify, PartitionerKind, PlannerConfig, SpanKind, Strategy};

/// A planner that sends everything it can at the sharded tier.
fn sharded_planner() -> PlannerConfig {
    PlannerConfig {
        small_n: 256,
        sharded_min_n: 512,
    }
}

#[test]
fn sharded_strategy_matches_naive_across_partitioners() {
    let gen_pool = ThreadPool::new(2);
    let data = generate(Distribution::Anticorrelated, 6_000, 4, 11, &gen_pool);

    for kind in PartitionerKind::ALL {
        let engine = Engine::with_config(EngineConfig {
            threads: 2,
            planner: sharded_planner(),
            ..EngineConfig::default()
        });
        engine.register_sharded("s", data.clone(), 4, kind);

        let queries = [
            (SkylineQuery::new("s"), (0..4).collect::<Vec<_>>(), 0u32),
            (SkylineQuery::new("s").dims([0, 2, 3]), vec![0, 2, 3], 0),
            (
                SkylineQuery::new("s")
                    .dims([1, 3])
                    .preference([Preference::Max, Preference::Min]),
                vec![1, 3],
                0b0010,
            ),
        ];
        for (query, dims, max_mask) in queries {
            let cold = engine.execute(&query).unwrap();
            assert_eq!(
                cold.plan.strategy,
                Strategy::Sharded {
                    k: 4,
                    partitioner: kind
                },
                "{kind:?} {dims:?}"
            );
            let merge = cold
                .shard_merge
                .as_ref()
                .expect("sharded runs report merge accounting");
            assert_eq!(merge.survivors, cold.total_skyline_size());
            assert!(merge.candidates >= merge.survivors);
            let expect = verify::naive_skyline_on_pref(&data, &dims, max_mask);
            assert_eq!(cold.indices(), expect.as_slice(), "{kind:?} {dims:?}");

            // The same query again is a cache hit, not a re-merge.
            let warm = engine.execute(&query).unwrap();
            assert!(warm.cache_hit);
            assert!(warm.shard_merge.is_none());
        }
    }
}

#[test]
fn sharded_trace_carries_per_shard_spans() {
    let gen_pool = ThreadPool::new(2);
    let data = generate(Distribution::Correlated, 4_000, 3, 5, &gen_pool);
    let engine = Engine::with_config(EngineConfig {
        threads: 2,
        planner: sharded_planner(),
        ..EngineConfig::default()
    });
    engine.register_sharded("s", data, 4, PartitionerKind::Grid);

    // The skyline and the skyband run the same executor: one scatter,
    // one local span per shard, one merge.
    for query in [SkylineQuery::new("s"), SkylineQuery::new("s").skyband(3)] {
        let (result, trace) = engine.explain_analyze(&query).expect("valid query");
        assert!(matches!(
            result.plan.strategy,
            Strategy::Sharded { k: 4, .. }
        ));

        let of =
            |kind: SpanKind| -> Vec<_> { trace.spans.iter().filter(|s| s.kind == kind).collect() };
        assert_eq!(of(SpanKind::ShardScatter).len(), 1);
        assert_eq!(of(SpanKind::ShardMerge).len(), 1);
        let locals = of(SpanKind::ShardLocal);
        assert_eq!(locals.len(), 4, "one local span per shard");
        let mut shards: Vec<u32> = locals.iter().map(|s| s.shard.expect("tagged")).collect();
        shards.sort_unstable();
        assert_eq!(shards, vec![0, 1, 2, 3]);
        // Per-shard dominance-test counts roll up into the trace total.
        let local_dts: u64 = locals.iter().map(|s| s.dominance_tests).sum();
        assert!(local_dts > 0, "non-trivial shards do dominance work");
        assert!(trace.dominance_tests >= local_dts);
        // Whole-query spans stay untagged.
        assert!(of(SpanKind::ShardScatter)[0].shard.is_none());
        assert!(of(SpanKind::ShardMerge)[0].shard.is_none());
        // And the rendering distinguishes shards.
        let rendered = trace.render();
        assert!(rendered.contains("shard.scatter"), "{rendered}");
        assert!(rendered.contains("shard.local[0]"), "{rendered}");
        assert!(rendered.contains("shard.merge"), "{rendered}");
    }
}

/// A sharded query's `RunStats` carry every phase of its locals —
/// shards over 4 096 rows run Hybrid, so pre-filter and pivot time must
/// survive the fold — and its total covers them plus scatter and merge.
#[test]
fn sharded_stats_fold_every_local_phase() {
    let gen_pool = ThreadPool::new(2);
    let data = generate(Distribution::Anticorrelated, 20_000, 4, 11, &gen_pool);
    let engine = Engine::with_config(EngineConfig {
        threads: 2,
        planner: sharded_planner(),
        ..EngineConfig::default()
    });
    engine.register_sharded("s", data, 2, PartitionerKind::Grid);

    let result = engine.execute(&SkylineQuery::new("s")).unwrap();
    assert!(matches!(
        result.plan.strategy,
        Strategy::Sharded { k: 2, .. }
    ));
    let stats = result.stats.expect("computed plans carry stats");
    assert!(!stats.prefilter.is_zero(), "{stats:?}");
    assert!(!stats.pivot.is_zero(), "{stats:?}");
    let named =
        stats.init + stats.prefilter + stats.pivot + stats.phase1 + stats.phase2 + stats.compress;
    assert!(stats.total >= named, "{stats:?}");
}

/// Beside a cached `[0, 1]` skyline, a `[0, 1, 2]` query on a sharded
/// entry plans sharded and agrees with the same query on a plain entry
/// over the same rows, and both with the naive oracle.
#[test]
fn sharded_and_plain_agree_beside_a_cached_subspace() {
    let gen_pool = ThreadPool::new(2);
    let data = generate(Distribution::Correlated, 4_000, 3, 5, &gen_pool);
    let engine = Engine::with_config(EngineConfig {
        threads: 2,
        planner: sharded_planner(),
        ..EngineConfig::default()
    });
    engine.register_sharded("s", data.clone(), 4, PartitionerKind::Grid);
    engine.register("p", data.clone());

    let answer = |name: &str| {
        let sub = engine
            .execute(&SkylineQuery::new(name).dims([0, 1]))
            .unwrap();
        assert!(!sub.cache_hit);
        engine
            .execute(&SkylineQuery::new(name).dims([0, 1, 2]))
            .expect("valid query")
    };
    let (plain, sharded) = (answer("p"), answer("s"));
    assert!(matches!(
        sharded.plan.strategy,
        Strategy::Sharded { k: 4, .. }
    ));
    let expect = verify::naive_skyline_on(&data, &[0, 1, 2]);
    assert_eq!(sharded.indices(), expect.as_slice());
    assert_eq!(plain.indices(), sharded.indices());
}

#[test]
fn sharded_datasets_stay_correct_under_mutation() {
    let gen_pool = ThreadPool::new(2);
    let data = generate(Distribution::Independent, 3_000, 3, 23, &gen_pool);
    let engine = Engine::with_config(EngineConfig {
        threads: 2,
        cache_bytes: 0, // every query recomputes
        planner: sharded_planner(),
        ..EngineConfig::default()
    });
    // The same rows twice: sharded, and plain as the reference.
    engine.register_sharded("s", data.clone(), 3, PartitionerKind::Angular);
    engine.register("p", data);

    // Sharded answer ≡ plain answer on the same rows ≡ naive.
    let check = |what: &str| {
        let entry = engine.dataset("s").expect("registered");
        assert!(
            entry.sharded().is_some(),
            "the partitioner follows mutations"
        );
        for (dims, band) in [(vec![0, 1, 2], 1u32), (vec![0, 1], 1), (vec![0, 2], 2)] {
            let query = |name: &str| {
                let q = SkylineQuery::new(name).dims(dims.iter().copied());
                if band > 1 {
                    q.skyband(band)
                } else {
                    q
                }
            };
            let sharded = engine.execute(&query("s")).unwrap();
            assert!(
                matches!(sharded.plan.strategy, Strategy::Sharded { k: 3, .. }),
                "{what} {dims:?}: {:?}",
                sharded.plan.strategy
            );
            let plain = engine.execute(&query("p")).unwrap();
            assert!(plain.shard_merge.is_none());
            assert_eq!(
                sharded.indices(),
                plain.indices(),
                "{what} {dims:?} k={band}"
            );
            assert_eq!(sharded.counts(), plain.counts(), "{what} {dims:?} k={band}");
            let expect: Vec<u32> = verify::naive_skyband_on_pref(&entry.snapshot(), &dims, 0, band)
                .iter()
                .map(|&(k, _)| entry.live_ids()[k as usize])
                .collect();
            assert_eq!(
                sharded.indices(),
                expect.as_slice(),
                "{what} {dims:?} k={band}"
            );
        }
    };
    check("fresh");

    // A few deletes from the first skyline, a few inserts: tombstones
    // and segment rows, below the compaction threshold.
    let cold = engine.execute(&SkylineQuery::new("s")).unwrap();
    let victims: Vec<u32> = cold.indices().iter().copied().take(3).collect();
    let inserts = [vec![0.001, 0.9, 0.9], vec![0.5, 0.001, 0.9]];
    for name in ["s", "p"] {
        assert!(!engine.delete(name, &victims).unwrap().compacted);
        engine.insert(name, &inserts).unwrap();
    }
    check("patched");

    // A bulk delete trips dataset compaction: survivors are renumbered,
    // the frozen partitioner routes the new ids.
    let bulk: Vec<u32> = (100..1_400).filter(|id| !victims.contains(id)).collect();
    for name in ["s", "p"] {
        assert!(engine.delete(name, &bulk).unwrap().compacted);
    }
    check("compacted");
}

/// The same sharded query does the same work at every thread count: the
/// locals run Hybrid@1 and the merge runs Hybrid@T over the probe
/// survivors, whose pre-filter and Phase II no longer depend on the
/// schedule, so the merge's DTs and the query's total repeat to the unit.
#[test]
fn sharded_dominance_tests_repeat_at_every_thread_count() {
    let gen_pool = ThreadPool::new(2);
    let data = generate(Distribution::Anticorrelated, 60_000, 6, 3, &gen_pool);
    let work = |threads: usize| {
        let engine = Engine::with_config(EngineConfig {
            threads,
            cache_bytes: 0,
            planner: sharded_planner(),
            ..EngineConfig::default()
        });
        engine.register_sharded("s", data.clone(), 4, PartitionerKind::Grid);
        let result = engine.execute(&SkylineQuery::new("s")).unwrap();
        assert!(matches!(
            result.plan.strategy,
            Strategy::Sharded { k: 4, .. }
        ));
        let merge = result.shard_merge.as_ref().expect("merge accounting");
        // Over 4 096 probe survivors, so the merge runs Hybrid, and over
        // 17 × 1 024, so its tuned α is the same at T = 1 and T = 2.
        assert!(
            merge.candidates - merge.witness_kills > 17 * 1_024,
            "{merge:?}"
        );
        (
            result.indices().to_vec(),
            merge.dominance_tests,
            result.stats.as_ref().expect("computed").dominance_tests,
        )
    };
    let (one, two) = (work(1), work(2));
    assert!(one.0 == two.0, "the answers differ");
    assert_eq!((one.1, one.2), (two.1, two.2), "(merge DTs, total DTs)");
}
