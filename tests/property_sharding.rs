//! Property-based testing of the sharded tier: for every partitioner
//! family × shard count × random interleaving of inserts, deletes, and
//! subspace queries, a shard-registered dataset must agree with a
//! plain registration of the same rows under the same mutations, and
//! both with `verify::naive_skyline_on_pref` over the materialized live
//! rows — through tombstoning, segment growth, and whole-dataset
//! compaction renumbering.
//!
//! The scenarios also race **pinned-snapshot queries against
//! mutations**: a ticket submitted pinned to the current version, with
//! a mutation batch landing before it is awaited, must still answer
//! from the version it pinned (the shards are formed from the pinned
//! entry's own live rows).

use proptest::prelude::*;
use skybench::prelude::*;
use skybench::{verify, PartitionerKind, PlannerConfig, Strategy};

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
    /// points across shard boundaries.
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

/// A random subspace + preference pair.
fn pick_query(d: usize, drv: &mut Driver) -> (Vec<usize>, u32) {
    let dims: Vec<usize> = (0..d).filter(|_| drv.next() % 2 == 0).collect();
    let dims = if dims.is_empty() {
        vec![drv.below(d)]
    } else {
        dims
    };
    let max_mask = dims
        .iter()
        .filter(|_| drv.next() % 2 == 0)
        .fold(0u32, |m, &dim| m | (1 << dim));
    (dims, max_mask)
}

fn to_query(name: &str, dims: &[usize], max_mask: u32) -> SkylineQuery {
    SkylineQuery::new(name)
        .dims(dims.iter().copied())
        .preference(
            dims.iter()
                .map(|&dim| {
                    if max_mask & (1 << dim) != 0 {
                        Preference::Max
                    } else {
                        Preference::Min
                    }
                })
                .collect::<Vec<_>>(),
        )
}

/// Expected ids for `dims`/`max_mask` over a model state.
fn reference(model: &Model, d: usize, dims: &[usize], max_mask: u32) -> Vec<u32> {
    if model.rows.is_empty() {
        return Vec::new();
    }
    verify::naive_skyline_on_pref(&model.materialize(d), dims, max_mask)
        .iter()
        .map(|&k| model.rows[k as usize].0)
        .collect()
}

/// One full scenario against a shard-registered dataset.
fn check_scenario(k: usize, kind: PartitionerKind, d: usize, n0: usize, ops: usize, seed: u64) {
    let mut drv = Driver(seed);
    let engine = Engine::with_config(EngineConfig {
        threads: 2,
        // Tiny thresholds force the sharded tier whenever possible.
        planner: PlannerConfig {
            small_n: 8,
            sharded_min_n: 16,
        },
        ..EngineConfig::default()
    });

    let mut model = Model {
        rows: (0..n0 as u32)
            .map(|id| (id, (0..d).map(|_| drv.coord()).collect::<Vec<f32>>()))
            .collect(),
    };
    // "m" is the dataset under test; "p" holds the same rows plain and
    // receives the same mutations, so ids and compactions stay in step.
    engine.register_sharded("m", model.materialize(d), k, kind);
    engine.register("p", model.materialize(d));
    let session = engine.session("prop");
    let mutate = |inserts: &[Vec<f32>], deletes: &[u32]| {
        let report = engine.update_batch("m", inserts, deletes).expect("valid");
        let plain = engine.update_batch("p", inserts, deletes).expect("valid");
        assert_eq!(report.inserted_ids, plain.inserted_ids);
        assert_eq!(report.compacted, plain.compacted);
        report
    };

    let run_query = |model: &Model, drv: &mut Driver| {
        let (dims, max_mask) = pick_query(d, drv);
        let got = engine
            .execute(&to_query("m", &dims, max_mask))
            .expect("valid");
        if let Some(merge) = &got.shard_merge {
            assert_eq!(merge.survivors, got.total_skyline_size());
        }
        // Sharded ≡ plain on the same rows ≡ naive.
        let plain = engine
            .execute(&to_query("p", &dims, max_mask))
            .expect("valid");
        assert!(plain.shard_merge.is_none());
        assert_eq!(got.indices(), plain.indices());
        assert_eq!(
            got.indices(),
            reference(model, d, &dims, max_mask).as_slice(),
            "dims {:?} mask {:#b} strategy {:?} ({kind:?} k={k}, n={})",
            dims,
            max_mask,
            got.plan.strategy,
            model.rows.len()
        );
    };

    run_query(&model, &mut drv);

    for _ in 0..ops {
        match drv.next() % 8 {
            // Insert a small batch.
            0 | 1 => {
                let batch = 1 + drv.below(3);
                let rows: Vec<Vec<f32>> = (0..batch)
                    .map(|_| (0..d).map(|_| drv.coord()).collect())
                    .collect();
                let report = mutate(&rows, &[]);
                for (row, &id) in rows.iter().zip(&report.inserted_ids) {
                    model.rows.push((id, row.clone()));
                }
                if report.compacted {
                    model.renumber();
                }
            }
            // Delete a small batch of random live rows.
            2 | 3 => {
                if model.rows.is_empty() {
                    continue;
                }
                let batch = (1 + drv.below(2)).min(model.rows.len());
                let mut victims: Vec<u32> = Vec::new();
                while victims.len() < batch {
                    let v = model.rows[drv.below(model.rows.len())].0;
                    if !victims.contains(&v) {
                        victims.push(v);
                    }
                }
                let report = mutate(&[], &victims);
                model.rows.retain(|(id, _)| !victims.contains(id));
                if report.compacted {
                    model.renumber();
                }
            }
            // A pinned-snapshot query racing a mutation: submit pinned
            // to the current version, mutate, then await. The answer
            // must come from the pinned (pre-mutation) state.
            4 => {
                if model.rows.is_empty() {
                    continue;
                }
                let (dims, max_mask) = pick_query(d, &mut drv);
                let expect_before = reference(&model, d, &dims, max_mask);
                let version = engine.dataset("m").expect("registered").version();
                let ticket = session
                    .submit(&to_query("m", &dims, max_mask).pin_version(version))
                    .expect("current version is servable");
                // The race: land a mutation before awaiting the ticket.
                let row: Vec<f32> = (0..d).map(|_| drv.coord()).collect();
                let report = mutate(std::slice::from_ref(&row), &[]);
                let pinned = ticket.wait().expect("pinned ticket completes");
                assert_eq!(
                    pinned.indices(),
                    expect_before.as_slice(),
                    "pinned v{version} must not observe the racing insert \
                     (dims {dims:?} mask {max_mask:#b}, {kind:?} k={k})"
                );
                assert_eq!(pinned.dataset_version, version);
                model.rows.push((report.inserted_ids[0], row));
                if report.compacted {
                    model.renumber();
                }
            }
            // Query.
            _ => {
                run_query(&model, &mut drv);
            }
        }
    }
    run_query(&model, &mut drv);

    // A cold re-registration of the final state (no cache, no
    // mutation history) must plan through the sharded tier whenever it is eligible:
    // multiple shards and at least `sharded_min_n` live rows.
    if k > 1 && d >= 2 && model.rows.len() >= 16 {
        engine.register_sharded("cold", model.materialize(d), k, kind);
        let plan = engine.plan(&SkylineQuery::new("cold")).expect("valid");
        assert!(
            matches!(plan.strategy, Strategy::Sharded { .. }) || plan.effective_dims.len() < 2,
            "{} live rows over threshold 16 must plan sharded, got {:?}",
            model.rows.len(),
            plan.strategy
        );
        // Fresh registration: row indices are positions, not the
        // mutated dataset's stable ids.
        let cold = engine.execute(&SkylineQuery::new("cold")).expect("valid");
        let full: Vec<usize> = (0..d).collect();
        let expect = verify::naive_skyline_on_pref(&model.materialize(d), &full, 0);
        assert_eq!(cold.indices(), expect.as_slice());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // Every partitioner family × a random shard count × a random
    // interleaving, on datasets large enough to hit the sharded tier.
    #[test]
    fn sharded_maintenance_matches_naive(
        kind_index in 0usize..3,
        k in 2usize..=5,
        d in 2usize..=4,
        n0 in 32usize..=80,
        ops in 8usize..=24,
        seed in 0u64..=u64::MAX / 2,
    ) {
        check_scenario(k, PartitionerKind::ALL[kind_index], d, n0, ops, seed);
    }

    // Degenerate shapes: near-empty datasets, single-shard stores, and
    // shard counts exceeding the row count must all stay correct (the
    // planner simply declines the sharded tier when k == 1).
    #[test]
    fn sharded_edge_shapes_stay_correct(
        kind_index in 0usize..3,
        k in 1usize..=8,
        d in 1usize..=3,
        n0 in 0usize..=6,
        ops in 4usize..=12,
        seed in 0u64..=u64::MAX / 2,
    ) {
        check_scenario(k, PartitionerKind::ALL[kind_index], d, n0, ops, seed);
    }
}
