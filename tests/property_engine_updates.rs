//! Property-based testing of incremental skyline maintenance: random
//! interleavings of inserts, deletes, and queries against a mutable
//! engine dataset must always agree with `verify::naive_skyline_on_pref`
//! over the materialized current rows — across subspaces, Min/Max
//! preferences, cache patching on the write, and compaction. After every batch the catalog's running per-dimension
//! min/max must also equal a fresh pass over the live rows: the planner
//! drops dimensions whose min equals max, so a stale extreme is a wrong
//! answer.
//!
//! The model mirrors the engine's stable-id contract: every live row is
//! tracked as `(stable id, coordinates)`; a compacting batch renumbers
//! the model exactly as the catalog does (survivors in id order, then
//! the batch's inserts).

use proptest::prelude::*;
use skybench::prelude::*;
use skybench::verify;

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
    /// points — the hard cases of skyline maintenance.
    fn coord(&mut self) -> f32 {
        (self.next() % 5) as f32
    }
}

/// The shadow model: live rows as (stable id, coordinates), always
/// ascending in id (ids are assigned monotonically and compaction
/// preserves id order) — mirroring the catalog's live list.
struct Model {
    rows: Vec<(u32, Vec<f32>)>,
}

impl Model {
    fn materialize(&self) -> Dataset {
        let d = self.rows.first().map(|(_, r)| r.len()).unwrap_or(1);
        let flat: Vec<f32> = self
            .rows
            .iter()
            .flat_map(|(_, r)| r.iter().copied())
            .collect();
        Dataset::from_flat(flat, d).expect("model rows are valid")
    }

    /// Applies the same renumbering a catalog compaction performs:
    /// survivors (already in id order) become 0..n.
    fn renumber(&mut self) {
        for (k, (id, _)) in self.rows.iter_mut().enumerate() {
            *id = k as u32;
        }
    }
}

/// The catalog's running extremes against a fresh recompute over the
/// live rows (an empty entry reports placeholder zeros).
fn assert_stats_exact(engine: &Engine) {
    let entry = engine.dataset("m").expect("registered");
    let live = entry.snapshot();
    for (c, s) in entry.stats().per_dim.iter().enumerate() {
        let (lo, hi) = live
            .rows()
            .map(|r| r[c])
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), v| {
                (lo.min(v), hi.max(v))
            });
        let expect = if live.is_empty() {
            (0.0, 0.0)
        } else {
            (lo, hi)
        };
        assert_eq!(
            (s.min, s.max),
            expect,
            "dim {c} at version {} (n = {})",
            entry.version(),
            live.len()
        );
    }
}

/// One full scenario: build a dataset, interleave mutations and
/// queries, check every query against the naive reference.
fn check_scenario(d: usize, n0: usize, ops: usize, seed: u64, compact_fraction: f32) {
    let mut drv = Driver(seed);
    let engine = Engine::with_config(EngineConfig {
        threads: 2,
        compact_fraction,
        ..EngineConfig::default()
    });

    let mut model = Model {
        rows: (0..n0 as u32)
            .map(|id| (id, (0..d).map(|_| drv.coord()).collect::<Vec<f32>>()))
            .collect(),
    };
    engine.register("m", model.materialize());

    let run_query = |model: &Model, drv: &mut Driver| {
        // Random non-empty subspace with random preferences.
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

        let got = engine
            .execute(
                &SkylineQuery::new("m")
                    .dims(dims.iter().copied())
                    .preference(prefs.iter().copied()),
            )
            .expect("valid query");
        // Reference: naive skyline over the materialized live rows,
        // mapped back to stable ids through the model.
        let expect: Vec<u32> = verify::naive_skyline_on_pref(&model.materialize(), &dims, max_mask)
            .iter()
            .map(|&k| model.rows[k as usize].0)
            .collect();
        assert_eq!(
            got.indices(),
            expect.as_slice(),
            "dims {:?} mask {:#b} strategy {:?} (n = {})",
            dims,
            max_mask,
            got.plan.strategy,
            model.rows.len()
        );
        // Engine and model agree on the id space too.
        let entry = engine.dataset("m").expect("registered");
        assert_eq!(entry.live_len(), model.rows.len());
    };

    // Seed the cache so the first mutations exercise patching.
    run_query(&model, &mut drv);

    for _ in 0..ops {
        // 0 | 1 insert, 2 delete, 3 both in one batch, 4 query.
        let op = drv.next() % 5;
        if op == 4 {
            run_query(&model, &mut drv);
            continue;
        }
        let rows: Vec<Vec<f32>> = if op == 2 {
            Vec::new()
        } else {
            (0..1 + drv.below(3))
                .map(|_| (0..d).map(|_| drv.coord()).collect())
                .collect()
        };
        // A small batch of random live victims (none when empty).
        let mut victims: Vec<u32> = Vec::new();
        if op >= 2 {
            let k = (1 + drv.below(2)).min(model.rows.len());
            while victims.len() < k {
                let v = model.rows[drv.below(model.rows.len())].0;
                if !victims.contains(&v) {
                    victims.push(v);
                }
            }
        }
        let report = engine
            .update_batch("m", &rows, &victims)
            .expect("valid rows, live victims");
        assert_eq!(report.inserted_ids.len(), rows.len());
        assert_eq!(report.deleted, victims.len());
        model.rows.retain(|(id, _)| !victims.contains(id));
        for (row, &id) in rows.iter().zip(&report.inserted_ids) {
            model.rows.push((id, row.clone()));
        }
        if report.compacted {
            // Survivors renumber in id order with the inserts at the
            // tail — exactly what `renumber` does, since the inserts
            // were just pushed last.
            model.renumber();
        }
        assert_stats_exact(&engine);
    }
    // Final checks: one more random query plus the full space.
    run_query(&model, &mut drv);
    let entry = engine.dataset("m").expect("registered");
    let full = engine.execute(&SkylineQuery::new("m")).expect("valid");
    let expect: Vec<u32> = verify::naive_skyline(&model.materialize())
        .iter()
        .map(|&k| model.rows[k as usize].0)
        .collect();
    assert_eq!(full.indices(), expect.as_slice(), "full-space final state");
    assert_eq!(entry.live_len(), model.rows.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Mutation interleavings with the default compaction threshold.
    #[test]
    fn incremental_maintenance_matches_naive(
        d in 1usize..=4,
        n0 in 0usize..=40,
        ops in 8usize..=28,
        seed in 0u64..=u64::MAX / 2,
    ) {
        check_scenario(d, n0, ops, seed, 0.25);
    }

    // A hair-trigger compaction threshold: every delete batch compacts,
    // exercising renumbering and cache invalidation constantly.
    #[test]
    fn maintenance_survives_constant_compaction(
        d in 1usize..=3,
        n0 in 1usize..=25,
        ops in 6usize..=20,
        seed in 0u64..=u64::MAX / 2,
    ) {
        check_scenario(d, n0, ops, seed, 0.0);
    }

    // Compaction disabled: tombstones and segments accumulate without
    // bound, and every small batch patches the cache the whole run.
    #[test]
    fn maintenance_survives_unbounded_tombstones(
        d in 1usize..=3,
        n0 in 1usize..=25,
        ops in 6usize..=20,
        seed in 0u64..=u64::MAX / 2,
    ) {
        check_scenario(d, n0, ops, seed, 2.0);
    }
}

/// `n` rows of three coordinates from a 50-value alphabet: ties occur,
/// but the skyline has members enough to delete.
fn random_rows(drv: &mut Driver, n: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|_| (0..3).map(|_| (drv.next() % 50) as f32).collect())
        .collect()
}

/// Asks the full-space skyline of `name`, checks it against the naive
/// skyline of the live rows, and returns whether it was a cache hit
/// along with the ids.
fn ask_full(engine: &Engine, name: &str) -> (bool, Vec<u32>) {
    let r = engine.execute(&SkylineQuery::new(name)).expect("valid");
    let entry = engine.dataset(name).expect("registered");
    let expect: Vec<u32> = verify::naive_skyline(&entry.snapshot())
        .iter()
        .map(|&k| entry.live_ids()[k as usize])
        .collect();
    assert_eq!(r.indices(), expect.as_slice(), "{name}");
    (r.cache_hit, expect)
}

/// Every batch shape is carried forward on the write: after an
/// insert-only batch, a delete of a non-member, a delete of a current
/// skyline member (which forces the repair scan) and a mixed batch,
/// the re-asked query is a cache hit equal to the naive skyline. A
/// batch over `delta_cap`, and one over a quarter of the live rows,
/// purge the cached result instead: the query misses, recomputes and
/// is still exact.
#[test]
fn eager_patching_keeps_the_cache_warm() {
    let engine = Engine::with_config(EngineConfig {
        threads: 2,
        compact_fraction: 2.0, // never compact: no batch voids the cache
        delta_cap: 8,
        ..EngineConfig::default()
    });
    let mut drv = Driver(0xfeed);
    engine.register(
        "m",
        Dataset::from_rows(&random_rows(&mut drv, 400)).unwrap(),
    );
    engine.register("s", Dataset::from_rows(&random_rows(&mut drv, 16)).unwrap());
    let (_, mut sky) = ask_full(&engine, "m");
    for round in 0..6 {
        for shape in 0..4 {
            let live = engine.dataset("m").expect("registered").live_ids().clone();
            let outsider = loop {
                let id = live[drv.below(live.len())];
                if sky.binary_search(&id).is_err() {
                    break id;
                }
            };
            let member = sky[drv.below(sky.len())];
            let (inserts, deletes) = match shape {
                0 => (random_rows(&mut drv, 2), vec![]),
                1 => (vec![], vec![outsider]),
                2 => (vec![], vec![member]),
                _ => (random_rows(&mut drv, 2), vec![member, outsider]),
            };
            let report = engine
                .update_batch("m", &inserts, &deletes)
                .expect("valid rows, live victims");
            assert_eq!(report.cache_patched, 1, "round {round} shape {shape}");
            let (hit, now) = ask_full(&engine, "m");
            assert!(hit, "round {round} shape {shape}: the patch serves");
            sky = now;
        }
    }
    assert_eq!(engine.cache_stats().patches, 24);

    // Over `delta_cap`: the batch purges, the query recomputes.
    let report = engine
        .insert("m", &random_rows(&mut drv, 9))
        .expect("valid");
    assert_eq!((report.cache_patched, report.cache_dropped), (0, 1));
    assert!(!ask_full(&engine, "m").0, "an over-cap batch purges");
    assert!(ask_full(&engine, "m").0, "the recompute is cached");

    // Within the cap but over a quarter of the live rows (4 · 6 > 16).
    assert!(!ask_full(&engine, "s").0);
    let report = engine
        .update_batch("s", &random_rows(&mut drv, 3), &[0, 1, 2])
        .expect("valid");
    assert_eq!((report.cache_patched, report.cache_dropped), (0, 1));
    assert!(!ask_full(&engine, "s").0, "an over-quarter batch purges");
}
