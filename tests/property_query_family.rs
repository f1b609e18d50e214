//! Property-based testing of the skyline query family: random
//! interleavings of inserts, deletes, and queries of every
//! [`QueryKind`] — plain skyline, `k`-skyband, top-`k` dominating —
//! against plain and sharded registrations must always agree with the
//! naive counting references over the materialized live rows, across
//! subspaces, Min/Max preferences, and the skyband-ancestor cache
//! (each scenario interleaves wide-band "seed" queries so ancestor
//! derivations race the mutation stream).
//!
//! The model mirrors the engine's stable-id contract from
//! `property_engine_updates`: every live row is tracked as
//! `(stable id, coordinates)` and compaction renumbers the model
//! exactly as the catalog does.

use proptest::prelude::*;
use skybench::prelude::*;
use skybench::{verify, PartitionerKind, QueryKind, SpanKind, Strategy};

/// Deterministic mutation/query driver (splitmix-ish), seeded per case.
struct Driver(u64);

impl Driver {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }

    /// Small integer alphabet: forces ties, duplicates, and coincident
    /// points — the hard cases of dominance counting.
    fn coord(&mut self) -> f32 {
        (self.next() % 5) as f32
    }
}

/// The shadow model: live rows as (stable id, coordinates), ascending
/// in id — mirroring the catalog's live list.
struct Model {
    rows: Vec<(u32, Vec<f32>)>,
}

impl Model {
    fn materialize(&self, d: usize) -> Dataset {
        let flat: Vec<f32> = self
            .rows
            .iter()
            .flat_map(|(_, r)| r.iter().copied())
            .collect();
        Dataset::from_flat(flat, d).expect("model rows are valid")
    }

    fn renumber(&mut self) {
        for (k, (id, _)) in self.rows.iter_mut().enumerate() {
            *id = k as u32;
        }
    }
}

/// A random operator: skyline biased, skyband and top-k dominating
/// with small k (including the k = 0 trivial edge).
fn random_kind(drv: &mut Driver) -> QueryKind {
    match drv.next() % 5 {
        0 => QueryKind::Skyline,
        1 | 2 => QueryKind::Skyband {
            k: drv.below(5) as u32,
        },
        _ => QueryKind::TopKDominating {
            k: drv.below(6) as u32,
        },
    }
}

/// Executes `kind` on the given subspace and checks it against the
/// naive counting references (ids and counts both).
fn check_kind(
    engine: &Engine,
    model: &Model,
    kind: QueryKind,
    dims: &[usize],
    prefs: &[Preference],
    max_mask: u32,
) {
    let d = dims
        .iter()
        .max()
        .map_or(1, |&m| m + 1)
        .max(model.rows.first().map(|(_, r)| r.len()).unwrap_or(1));
    let got = engine
        .execute(
            &SkylineQuery::new("m")
                .dims(dims.iter().copied())
                .preference(prefs.iter().copied())
                .kind(kind),
        )
        .expect("valid family query");
    let data = model.materialize(d);
    let context = |sfx: &str| {
        format!(
            "{kind:?} dims {dims:?} mask {max_mask:#b} strategy {:?} reason {:?} (n = {}): {sfx}",
            got.plan.strategy,
            got.plan.reason,
            model.rows.len()
        )
    };
    match kind {
        QueryKind::Skyline => {
            let expect: Vec<u32> = verify::naive_skyline_on_pref(&data, dims, max_mask)
                .iter()
                .map(|&r| model.rows[r as usize].0)
                .collect();
            assert_eq!(got.indices(), expect.as_slice(), "{}", context("ids"));
            assert!(
                got.counts().is_none(),
                "{}",
                context("skyline results carry no counts")
            );
        }
        QueryKind::Skyband { k } => {
            let expect = verify::naive_skyband_on_pref(&data, dims, max_mask, k);
            let ids: Vec<u32> = expect
                .iter()
                .map(|&(r, _)| model.rows[r as usize].0)
                .collect();
            let counts: Vec<u32> = expect.iter().map(|&(_, c)| c).collect();
            assert_eq!(got.indices(), ids.as_slice(), "{}", context("ids"));
            assert_eq!(
                got.counts().expect("skyband results carry counts"),
                counts.as_slice(),
                "{}",
                context("counts")
            );
        }
        QueryKind::TopKDominating { k } => {
            let expect = verify::naive_top_k_dominating(&data, dims, max_mask, k);
            let ids: Vec<u32> = expect
                .iter()
                .map(|&(r, _)| model.rows[r as usize].0)
                .collect();
            let scores: Vec<u32> = expect.iter().map(|&(_, s)| s).collect();
            assert_eq!(got.indices(), ids.as_slice(), "{}", context("ids"));
            assert_eq!(
                got.counts().expect("top-k results carry scores"),
                scores.as_slice(),
                "{}",
                context("scores")
            );
        }
    }
}

/// One full scenario: build a (plain or sharded) dataset, interleave
/// mutations with family queries, check every result against the
/// naive references. Roughly half the query ops first warm the same
/// subspace with a wide skyband so the operator that follows is
/// served through the ancestor-derivation path — racing whatever
/// mutations came before.
fn check_scenario(
    d: usize,
    n0: usize,
    ops: usize,
    seed: u64,
    shard: Option<(usize, PartitionerKind)>,
) {
    let mut drv = Driver(seed);
    let engine = Engine::with_config(EngineConfig {
        threads: 2,
        ..EngineConfig::default()
    });
    let mut model = Model {
        rows: (0..n0 as u32)
            .map(|id| (id, (0..d).map(|_| drv.coord()).collect::<Vec<f32>>()))
            .collect(),
    };
    match shard {
        Some((k, kind)) => engine.register_sharded("m", model.materialize(d), k, kind),
        None => engine.register("m", model.materialize(d)),
    };

    let run_query = |model: &Model, drv: &mut Driver| {
        let dims: Vec<usize> = (0..d).filter(|_| drv.next() % 2 == 0).collect();
        let dims = if dims.is_empty() {
            vec![drv.below(d)]
        } else {
            dims
        };
        let prefs: Vec<Preference> = dims
            .iter()
            .map(|_| {
                if drv.next() % 2 == 0 {
                    Preference::Min
                } else {
                    Preference::Max
                }
            })
            .collect();
        let max_mask = dims
            .iter()
            .zip(&prefs)
            .filter(|(_, p)| **p == Preference::Max)
            .fold(0u32, |m, (dim, _)| m | (1 << dim));
        let kind = random_kind(drv);
        if drv.next() % 2 == 0 {
            // Warm the key with a wide ancestor first, so the operator
            // below exercises the derivation path on this version.
            let wide = QueryKind::Skyband {
                k: kind.k().max(4) * 2,
            };
            check_kind(&engine, model, wide, &dims, &prefs, max_mask);
        }
        check_kind(&engine, model, kind, &dims, &prefs, max_mask);
    };

    run_query(&model, &mut drv);
    for _ in 0..ops {
        match drv.next() % 4 {
            0 | 1 => {
                let k = 1 + drv.below(3);
                let rows: Vec<Vec<f32>> = (0..k)
                    .map(|_| (0..d).map(|_| drv.coord()).collect())
                    .collect();
                let report = engine.insert("m", &rows).expect("valid insert");
                for (row, &id) in rows.iter().zip(&report.inserted_ids) {
                    model.rows.push((id, row.clone()));
                }
                if report.compacted {
                    model.renumber();
                }
            }
            2 => {
                if model.rows.is_empty() {
                    continue;
                }
                let victim = model.rows[drv.below(model.rows.len())].0;
                let report = engine.delete("m", &[victim]).expect("live victim");
                model.rows.retain(|(id, _)| *id != victim);
                if report.compacted {
                    model.renumber();
                }
            }
            _ => run_query(&model, &mut drv),
        }
    }
    // Final sweep: every operator on the full space.
    let full: Vec<usize> = (0..d).collect();
    let prefs = vec![Preference::Min; d];
    for kind in [
        QueryKind::Skyline,
        QueryKind::Skyband { k: 2 },
        QueryKind::TopKDominating { k: 3 },
    ] {
        check_kind(&engine, &model, kind, &full, &prefs, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // Plain registrations under mutation.
    #[test]
    fn family_matches_naive_on_plain_datasets(
        d in 1usize..=4,
        n0 in 0usize..=40,
        ops in 8usize..=24,
        seed in 0u64..=u64::MAX / 2,
    ) {
        check_scenario(d, n0, ops, seed, None);
    }

    // Sharded registrations under mutation, across every partitioner.
    #[test]
    fn family_matches_naive_on_sharded_datasets(
        d in 2usize..=4,
        n0 in 1usize..=48,
        ops in 6usize..=20,
        seed in 0u64..=u64::MAX / 2,
        part in 0usize..3,
    ) {
        let kind = [
            PartitionerKind::Random,
            PartitionerKind::Grid,
            PartitionerKind::Angular,
        ][part];
        check_scenario(d, n0, ops, seed, Some((2 + seed as usize % 3, kind)));
    }
}

/// The acceptance scenario for ancestor caching: a wide skyband
/// (k' = 8) warms the cache, and the plain skyline on the same key is
/// then served by filtering the stored dominator counts — traced as a
/// `cache_ancestor` span with **zero** dataset-scan spans of any
/// flavour.
#[test]
fn skyband_ancestor_serves_skyline_without_scanning() {
    let engine = Engine::with_config(EngineConfig {
        threads: 2,
        ..EngineConfig::default()
    });
    let mut drv = Driver(0xace);
    let rows: Vec<Vec<f32>> = (0..2_000)
        .map(|_| (0..4).map(|_| (drv.next() % 1_000) as f32).collect())
        .collect();
    engine.register("m", Dataset::from_rows(&rows).unwrap());

    let warm = engine
        .execute(&SkylineQuery::new("m").skyband(8))
        .expect("valid skyband");
    assert!(!warm.cache_hit, "the seed query runs cold");

    let (got, trace) = engine
        .explain_analyze(&SkylineQuery::new("m"))
        .expect("valid query");
    assert!(
        got.plan.reason.contains("ancestor"),
        "expected an ancestor-served plan, got {:?} ({:?})",
        got.plan.strategy,
        got.plan.reason
    );
    assert!(
        trace
            .spans
            .iter()
            .any(|s| s.kind == SpanKind::CacheAncestor),
        "the derivation must be traced as a cache_ancestor span: {:?}",
        trace.spans.iter().map(|s| s.kind).collect::<Vec<_>>()
    );
    let scans = [
        SpanKind::Init,
        SpanKind::Prefilter,
        SpanKind::Pivot,
        SpanKind::PhaseOne,
        SpanKind::PhaseTwo,
        SpanKind::Merge,
        SpanKind::ShardScatter,
        SpanKind::ShardLocal,
        SpanKind::ShardMerge,
        SpanKind::Execute,
    ];
    assert!(
        trace.spans.iter().all(|s| !scans.contains(&s.kind)),
        "an ancestor hit must not touch the dataset: {:?}",
        trace.spans.iter().map(|s| s.kind).collect::<Vec<_>>()
    );

    // The derived result is itself cached at its own key: the repeat
    // is a plain exact-key hit.
    let again = engine.execute(&SkylineQuery::new("m")).expect("valid");
    assert!(again.cache_hit);
    assert!(matches!(again.plan.strategy, Strategy::Cached));
    assert_eq!(again.indices(), got.indices());

    // And it is correct.
    let expect = verify::naive_skyline(&Dataset::from_rows(&rows).unwrap());
    assert_eq!(got.indices(), expect.as_slice());
}

/// Ancestor reuse picks narrower bands too: a k' = 8 skyband serves
/// k = 3 by count filtering, and a top-k' list serves top-k by
/// truncation — both with counts intact.
#[test]
fn ancestor_reuse_filters_bands_and_truncates_topk() {
    let engine = Engine::with_config(EngineConfig {
        threads: 2,
        ..EngineConfig::default()
    });
    let mut drv = Driver(0xbead);
    let rows: Vec<Vec<f32>> = (0..600)
        .map(|_| (0..3).map(|_| (drv.next() % 50) as f32).collect())
        .collect();
    let data = Dataset::from_rows(&rows).unwrap();
    engine.register("m", data.clone());
    let dims = [0usize, 1, 2];

    engine
        .execute(&SkylineQuery::new("m").skyband(8))
        .expect("valid");
    let band = engine
        .execute(&SkylineQuery::new("m").skyband(3))
        .expect("valid");
    assert!(
        band.plan.reason.contains("ancestor"),
        "skyband k = 3 must derive from the k' = 8 ancestor, got {:?}",
        band.plan.reason
    );
    let expect = verify::naive_skyband_on_pref(&data, &dims, 0, 3);
    let ids: Vec<u32> = expect.iter().map(|&(r, _)| r).collect();
    let counts: Vec<u32> = expect.iter().map(|&(_, c)| c).collect();
    assert_eq!(band.indices(), ids.as_slice());
    assert_eq!(band.counts().unwrap(), counts.as_slice());

    engine
        .execute(&SkylineQuery::new("m").top_k_dominating(10))
        .expect("valid");
    let top = engine
        .execute(&SkylineQuery::new("m").top_k_dominating(4))
        .expect("valid");
    assert!(
        top.plan.reason.contains("ancestor"),
        "top-4 must truncate the top-10 ancestor, got {:?}",
        top.plan.reason
    );
    let expect = verify::naive_top_k_dominating(&data, &dims, 0, 4);
    let ids: Vec<u32> = expect.iter().map(|&(r, _)| r).collect();
    let scores: Vec<u32> = expect.iter().map(|&(_, s)| s).collect();
    assert_eq!(top.indices(), ids.as_slice());
    assert_eq!(top.counts().unwrap(), scores.as_slice());

    // A mutation bumps the dataset version: the stale ancestor must
    // NOT serve the next query, and the answer tracks the new rows.
    engine
        .insert("m", &[vec![0.0, 0.0, 0.0]])
        .expect("valid insert");
    let fresh = engine
        .execute(&SkylineQuery::new("m").skyband(3))
        .expect("valid");
    let mut rows2 = rows.clone();
    rows2.push(vec![0.0, 0.0, 0.0]);
    let data2 = Dataset::from_rows(&rows2).unwrap();
    let expect = verify::naive_skyband_on_pref(&data2, &dims, 0, 3);
    let ids: Vec<u32> = expect.iter().map(|&(r, _)| r).collect();
    assert_eq!(
        fresh.indices(),
        ids.as_slice(),
        "post-mutation skyband must reflect the new version, plan {:?} ({:?})",
        fresh.plan.strategy,
        fresh.plan.reason
    );
}
