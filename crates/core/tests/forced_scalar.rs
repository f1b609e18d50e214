//! Dispatch behaviour of the SIMD layer: one process exercises *both*
//! the forced-scalar dispatch path and the native kernels.
//!
//! This suite is a single `#[test]` on purpose: `active_level()` caches
//! its decision in a `OnceLock`, so the environment variable must be in
//! place before anything in the process touches the dispatcher, and no
//! second test may race the first call. The native vector paths are
//! still covered here — `DtBlock::with_level` and
//! `TileStore::with_level` pin an explicit level and bypass the
//! override — so this binary proves scalar and native agree in the same
//! process that pinned dispatch to scalar.

use skyline_core::algo::Algorithm;
use skyline_core::dominance::simd::{self, DtBlock, Level, TileStore, TILE_LANES};
use skyline_core::verify::naive_skyline;
use skyline_core::SkylineConfig;
use skyline_data::{generate, Distribution};
use skyline_parallel::ThreadPool;

#[test]
fn forced_scalar_dispatch_and_native_agree_in_one_process() {
    // Must precede the first `active_level()` call in this process.
    std::env::set_var("SKYLINE_FORCE_SCALAR", "1");
    assert_eq!(
        simd::active_level(),
        Level::Scalar,
        "SKYLINE_FORCE_SCALAR must pin dispatch to the scalar kernels"
    );
    // Detection still reports the hardware truth; the override only
    // affects dispatch.
    assert!(Level::available().contains(&simd::detected_level()));

    // Every algorithm, running through the (now scalar) dispatcher,
    // still produces the exact skyline.
    let pool = ThreadPool::new(4);
    let cfg = SkylineConfig::default();
    for dist in [
        Distribution::Correlated,
        Distribution::Independent,
        Distribution::Anticorrelated,
    ] {
        let data = generate(dist, 1_500, 9, 23, &pool);
        let expect = naive_skyline(&data);
        for algo in Algorithm::ALL {
            let r = algo.run(&data, &pool, &cfg);
            assert_eq!(r.indices, expect, "{algo} under forced scalar ({dist:?})");
        }
    }

    // And the native tile kernels (explicit level, bypassing the
    // override) agree with the scalar dispatch bit for bit on hostile
    // values: answers and dominance-test charges.
    let hostile = [
        0.0f32,
        -0.0,
        1.0e-45,
        f32::MIN_POSITIVE,
        -1.0,
        1.0,
        1.0e30,
        -1.0e30,
    ];
    let mut rng = 0x5CA1EDu64;
    let mut next = move || {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
        rng >> 33
    };
    let value = |r: u64| hostile[r as usize % hostile.len()];
    let n = 40;
    for d in [1usize, 4, 8, 11, 16, 24] {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..d).map(|_| value(next())).collect())
            .collect();
        let mut tile = DtBlock::new(d);
        for (l, row) in rows.iter().take(TILE_LANES).enumerate() {
            tile.set_lane(l, row);
        }
        let fill = |mut store: TileStore| {
            for r in &rows {
                store.push(r);
            }
            store
        };
        // A tile or store without a level runs at the (forced) active
        // level.
        let dispatched = fill(TileStore::with_capacity(d, n));
        let pinned: Vec<(Level, DtBlock, TileStore)> = Level::available()
            .into_iter()
            .map(|lv| {
                let store = fill(TileStore::with_capacity(d, n).with_level(lv));
                (lv, tile.clone().with_level(lv), store)
            })
            .collect();
        for _ in 0..500 {
            // Half the candidates are a stored row worsened in some
            // coordinates, so dominators and exact ties turn up.
            let q: Vec<f32> = if next() % 2 == 0 {
                let base = &rows[next() as usize % n];
                base.iter()
                    .map(|&v| {
                        if next() % 2 == 0 {
                            v
                        } else {
                            v.max(value(next()))
                        }
                    })
                    .collect()
            } else {
                (0..d).map(|_| value(next())).collect()
            };
            let (a, b) = (next() as usize % (n + 1), next() as usize % (n + 1));
            let (start, end) = (a.min(b), a.max(b));
            let scan = |store: &TileStore| {
                let mut dts = [0u64; 3];
                let any = store.any_dominates(&q, &mut dts[0]);
                let all = store.count_dominators_range(0, n, &q, u32::MAX, &mut dts[1]);
                let some = store.count_dominators_range(start, end, &q, 2, &mut dts[2]);
                (any, all, some, dts)
            };
            let want_tile = tile.dominators(&q);
            let want = scan(&dispatched);
            for (lv, pinned_tile, store) in &pinned {
                assert_eq!(
                    pinned_tile.dominators(&q),
                    want_tile,
                    "DtBlock at {lv:?} disagrees with forced-scalar dispatch (d={d})"
                );
                assert_eq!(
                    scan(store),
                    want,
                    "TileStore at {lv:?} disagrees with forced-scalar dispatch (d={d})"
                );
            }
        }
    }
}
