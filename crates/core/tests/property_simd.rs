//! Property-based equivalence of every SIMD dominance kernel with the
//! scalar reference, for all dimensionalities 1..=24 and for every
//! instruction-set level this CPU offers (`Level::available()` — the
//! `*_with` kernels take an explicit level and ignore the
//! `SKYLINE_FORCE_SCALAR` override, so the vector paths are exercised
//! even in the CI forced-scalar lane).
//!
//! The value alphabet is deliberately hostile: ±0.0, subnormals,
//! negatives, huge magnitudes, and a high tie probability (the second
//! point is derived from the first by per-coordinate nudges), plus tile
//! tail-padding rows (tiles filled with fewer than 8 lanes).

use proptest::prelude::*;

use skyline_core::dominance::{
    self,
    simd::{self, DtBlock, Level, TileStore, TILE_LANES},
    DomRelation,
};

/// Reference implementations straight from Definitions 1–2.
fn ref_sd(p: &[f32], q: &[f32]) -> bool {
    p.iter().zip(q).all(|(a, b)| a <= b) && p.iter().zip(q).any(|(a, b)| a < b)
}

fn ref_de(p: &[f32], q: &[f32]) -> bool {
    p.iter().zip(q).all(|(a, b)| a <= b)
}

fn ref_compare(p: &[f32], q: &[f32]) -> DomRelation {
    match (ref_de(p, q), ref_de(q, p)) {
        (true, true) => DomRelation::Equal,
        (true, false) => DomRelation::PDominatesQ,
        (false, true) => DomRelation::QDominatesP,
        (false, false) => DomRelation::Incomparable,
    }
}

/// Hostile coordinate alphabet: zeros of both signs, subnormals, the
/// smallest normal, huge and tiny magnitudes of both signs.
const ALPHABET: [f32; 12] = [
    0.0,
    -0.0,
    1.0e-45, // smallest positive subnormal
    -1.0e-45,
    1.1754942e-38, // largest subnormal
    f32::MIN_POSITIVE,
    1.0,
    -1.0,
    0.5,
    -0.5,
    1.0e30,
    -1.0e30,
];

fn coord_strategy() -> impl Strategy<Value = f32> {
    (0usize..ALPHABET.len()).prop_map(|i| ALPHABET[i])
}

/// A point plus a partner derived by per-coordinate nudges, so exact
/// ties on a subset of coordinates are the common case, not the rare
/// one.
fn pair_strategy(d: usize) -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    (
        proptest::collection::vec(coord_strategy(), d..=d),
        proptest::collection::vec(0u8..=3, d..=d),
    )
        .prop_map(|(p, moves)| {
            let q: Vec<f32> = p
                .iter()
                .zip(&moves)
                .map(|(&v, &m)| match m {
                    0 => v,        // exact tie
                    1 => v + 0.25, // strictly worse
                    2 => v - 0.25, // strictly better
                    _ => -v,       // sign flip (±0.0 ties!)
                })
                .collect();
            (p, q)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(80))]

    #[test]
    fn one_vs_one_kernels_equal_scalar_reference(
        d in 1usize..=24,
        seed in 0u64..=u64::MAX / 2,
    ) {
        let mut rng = proptest::TestRng::from_seed(seed);
        for _ in 0..40 {
            let (p, q) = pair_strategy(d).generate(&mut rng);
            let sd = ref_sd(&p, &q);
            let de = ref_de(&p, &q);
            let cm = ref_compare(&p, &q);
            // The public dispatchers...
            prop_assert_eq!(dominance::strictly_dominates(&p, &q), sd);
            prop_assert_eq!(dominance::strictly_dominates_lanes(&p, &q), sd);
            prop_assert_eq!(dominance::dt(&p, &q), sd);
            prop_assert_eq!(dominance::dominates_or_equal(&p, &q), de);
            prop_assert_eq!(dominance::compare(&p, &q), cm);
            // ...and every explicit instruction-set level.
            for lv in Level::available() {
                prop_assert_eq!(simd::strictly_dominates_with(lv, &p, &q), sd, "{:?} d={}", lv, d);
                prop_assert_eq!(simd::dominates_or_equal_with(lv, &p, &q), de, "{:?} d={}", lv, d);
                prop_assert_eq!(simd::compare_with(lv, &p, &q), cm, "{:?} d={}", lv, d);
            }
        }
    }

    #[test]
    fn tile_kernels_equal_scalar_reference_with_tail_padding(
        d in 1usize..=24,
        live in 1usize..=TILE_LANES,
        seed in 0u64..=u64::MAX / 2,
    ) {
        let mut rng = proptest::TestRng::from_seed(seed);
        let row_strat = proptest::collection::vec(coord_strategy(), d..=d);
        let rows: Vec<Vec<f32>> = (0..live).map(|_| row_strat.generate(&mut rng)).collect();
        let mut tile = DtBlock::new(d);
        for (l, row) in rows.iter().enumerate() {
            tile.set_lane(l, row);
        }
        prop_assert_eq!(tile.live(), live);
        let moves_strat = proptest::collection::vec(0u8..=3, d..=d);
        for _ in 0..20 {
            // Candidates are derived from a random live row by
            // per-coordinate nudges, so ties and dominance in both
            // directions actually occur.
            let base = &rows[(rng.next_u64() as usize) % live];
            let moves = moves_strat.generate(&mut rng);
            let q: Vec<f32> = base
                .iter()
                .zip(&moves)
                .map(|(&v, &m)| match m {
                    0 => v,
                    1 => v + 0.25,
                    2 => v - 0.25,
                    _ => -v,
                })
                .collect();
            let mut want_dom = 0u32;
            let mut want_sub = 0u32;
            for (l, row) in rows.iter().enumerate() {
                want_dom |= u32::from(ref_sd(row, &q)) << l;
                want_sub |= u32::from(ref_sd(&q, row)) << l;
            }
            for lv in Level::available() {
                prop_assert_eq!(tile.dominators_with(lv, &q), want_dom, "{:?} d={} live={}", lv, d, live);
                prop_assert_eq!(
                    tile.compare_masks_with(lv, &q),
                    (want_dom, want_sub),
                    "{:?} d={} live={}", lv, d, live
                );
            }
        }
    }

    #[test]
    fn pref_tiles_equal_the_scalar_pref_kernel(
        full_d in 1usize..=8,
        max_mask in 0u32..256,
        seed in 0u64..=u64::MAX / 2,
    ) {
        let mut rng = proptest::TestRng::from_seed(seed);
        let max_mask = max_mask & ((1u32 << full_d) - 1);
        // A random non-empty subspace of the full dimensions.
        let dims: Vec<usize> = (0..full_d)
            .filter(|_| rng.next_u64() % 2 == 0)
            .collect();
        let dims = if dims.is_empty() { vec![0] } else { dims };
        let row_strat = proptest::collection::vec(coord_strategy(), full_d..=full_d);
        let live = 1 + (rng.next_u64() as usize) % TILE_LANES;
        let rows: Vec<Vec<f32>> = (0..live).map(|_| row_strat.generate(&mut rng)).collect();
        let mut tile = DtBlock::new(dims.len());
        for (l, row) in rows.iter().enumerate() {
            tile.set_lane_pref(l, row, &dims, max_mask);
        }
        for _ in 0..20 {
            let q_raw = row_strat.generate(&mut rng);
            // Candidate transformed once, exactly as the tile was.
            let q: Vec<f32> = dims
                .iter()
                .map(|&c| simd::flip_pref(q_raw[c], max_mask & (1 << c) != 0))
                .collect();
            let mut want = 0u32;
            for (l, row) in rows.iter().enumerate() {
                want |= u32::from(dominance::strictly_dominates_on_pref(
                    row, &q_raw, &dims, max_mask,
                )) << l;
            }
            for lv in Level::available() {
                prop_assert_eq!(tile.dominators_with(lv, &q), want, "{:?} mask={:#b}", lv, max_mask);
            }
        }
    }

    #[test]
    fn pref_kernel_equals_negated_projection(
        d in 1usize..=10,
        max_mask in 0u32..1024,
        seed in 0u64..=u64::MAX / 2,
    ) {
        // The branch-free XOR form must equal plain dominance over
        // explicitly negated columns — the definition of Max columns.
        let mut rng = proptest::TestRng::from_seed(seed);
        let max_mask = max_mask & ((1u32 << d) - 1);
        let dims: Vec<usize> = (0..d).collect();
        for _ in 0..60 {
            let (p, q) = pair_strategy(d).generate(&mut rng);
            let neg = |v: &[f32]| -> Vec<f32> {
                v.iter()
                    .enumerate()
                    .map(|(c, &x)| if max_mask & (1 << c) != 0 { -x } else { x })
                    .collect()
            };
            prop_assert_eq!(
                dominance::strictly_dominates_on_pref(&p, &q, &dims, max_mask),
                ref_sd(&neg(&p), &neg(&q)),
                "mask {:#b}", max_mask
            );
        }
    }

    #[test]
    fn tile_store_scans_agree_with_row_scans(
        d in 1usize..=16,
        n in 0usize..=130,
        seed in 0u64..=u64::MAX / 2,
    ) {
        // Up to 17 tiles: whole-range scans see several full iterations,
        // odd tile counts and a lone (possibly partial) last tile.
        let mut rng = proptest::TestRng::from_seed(seed);
        let row_strat = proptest::collection::vec(coord_strategy(), d..=d);
        let rows: Vec<Vec<f32>> = (0..n).map(|_| row_strat.generate(&mut rng)).collect();
        let mut store = TileStore::with_capacity(d, n);
        for r in &rows {
            store.push(r);
        }
        let moves_strat = proptest::collection::vec(0u8..=3, d..=d);
        for _ in 0..20 {
            // Half the candidates are nudged copies of a stored row, so
            // dominators turn up at every position, not just rarely.
            let q: Vec<f32> = if n > 0 && rng.next_u64() % 2 == 0 {
                let base = &rows[(rng.next_u64() as usize) % n];
                let moves = moves_strat.generate(&mut rng);
                base.iter()
                    .zip(&moves)
                    .map(|(&v, &m)| match m {
                        0 => v,
                        1 => v + 0.25,
                        2 => v - 0.25,
                        _ => -v,
                    })
                    .collect()
            } else {
                row_strat.generate(&mut rng)
            };

            let mut dts = 0u64;
            let got = store.any_dominates(&q, &mut dts);
            prop_assert_eq!((got, dts), ref_any_dominates(&rows, &q));

            let k = (rng.next_u64() as usize) % (n + 1);
            let mut dts = 0u64;
            let got = store.any_dominates_first(k, &q, &mut dts);
            prop_assert_eq!((got, dts), ref_any_dominates_range(&rows, 0, k, &q), "k={}", k);

            let a = (rng.next_u64() as usize) % (n + 1);
            let b = (rng.next_u64() as usize) % (n + 1);
            let (start, end) = (a.min(b), a.max(b));
            let mut dts = 0u64;
            let got = store.any_dominates_range(start, end, &q, &mut dts);
            prop_assert_eq!(
                (got, dts),
                ref_any_dominates_range(&rows, start, end, &q),
                "range {}..{}", start, end
            );

            for cap in [1u32, 2, 4, u32::MAX] {
                let mut dts = 0u64;
                let got = store.count_dominators_range(start, end, &q, cap, &mut dts);
                prop_assert_eq!(
                    (got, dts),
                    ref_count_dominators_range(&rows, start, end, &q, cap),
                    "range {}..{} cap {}", start, end, cap
                );
            }
        }
    }
}

// Reference scans over plain rows, charging dominance tests at the
// tile-granular accounting `TileStore` promises: `any_dominates` charges
// the first tile alone, then tile pairs through the pair holding the
// first dominator; a range scan charges its masked head tile, then whole
// tile pairs (a lone last whole tile alone), then its masked tail;
// counting charges tile by tile until the cap is reached.

/// Does any row of `rows[lo..hi]` strictly dominate `q`?
fn any_in(rows: &[Vec<f32>], lo: usize, hi: usize, q: &[f32]) -> bool {
    rows[lo..hi].iter().any(|r| ref_sd(r, q))
}

fn ref_any_dominates(rows: &[Vec<f32>], q: &[f32]) -> (bool, u64) {
    let n = rows.len();
    let mut dts = 0u64;
    let mut lo = 0;
    let mut width = TILE_LANES;
    while lo < n {
        let hi = (lo + width).min(n);
        dts += (hi - lo) as u64;
        if any_in(rows, lo, hi, q) {
            return (true, dts);
        }
        lo = hi;
        width = 2 * TILE_LANES;
    }
    (false, dts)
}

fn ref_any_dominates_range(rows: &[Vec<f32>], start: usize, end: usize, q: &[f32]) -> (bool, u64) {
    let mut dts = 0u64;
    let mut lo = start;
    while lo < end {
        let hi = if lo % TILE_LANES != 0 {
            end.min(lo.next_multiple_of(TILE_LANES))
        } else if lo + 2 * TILE_LANES <= end {
            lo + 2 * TILE_LANES
        } else if lo + TILE_LANES <= end {
            lo + TILE_LANES
        } else {
            end
        };
        dts += (hi - lo) as u64;
        if any_in(rows, lo, hi, q) {
            return (true, dts);
        }
        lo = hi;
    }
    (false, dts)
}

fn ref_count_dominators_range(
    rows: &[Vec<f32>],
    start: usize,
    end: usize,
    q: &[f32],
    cap: u32,
) -> (u32, u64) {
    let mut dts = 0u64;
    let mut count = 0u32;
    let mut lo = start;
    while lo < end {
        let hi = end.min((lo + 1).next_multiple_of(TILE_LANES));
        dts += (hi - lo) as u64;
        count += rows[lo..hi].iter().filter(|r| ref_sd(r, q)).count() as u32;
        if count >= cap {
            return (cap, dts);
        }
        lo = hi;
    }
    (count, dts)
}
