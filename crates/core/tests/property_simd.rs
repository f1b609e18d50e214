//! Property-based equivalence of every dominance kernel with the
//! scalar reference, for all dimensionalities 1..=24: the inlineable
//! one-vs-one forms, and the SIMD tile kernels at every instruction-set
//! level this CPU offers (`Level::available()` —
//! `DtBlock::with_level` and `TileStore::with_level` pin an explicit
//! level and ignore the `SKYLINE_FORCE_SCALAR` override, so
//! the vector paths are exercised even in the CI forced-scalar lane).
//!
//! The value alphabet is deliberately hostile: ±0.0, subnormals,
//! negatives, huge magnitudes, and a high tie probability (the second
//! point is derived from the first by per-coordinate nudges), plus tile
//! tail-padding rows (tiles filled with fewer than 8 or 16 lanes). The
//! code-tile stores are checked against row scans with quantised rows,
//! rows one ulp apart and constant columns, coded against the true
//! column range, against wrong ones and range-free: their answers and
//! dominance-test charges must not depend on the codes.

use proptest::prelude::*;

use skyline_core::dominance::{
    self,
    simd::{self, ColumnRange, DtBlock, Level, TileStore, CODE_LANES, TILE_LANES},
    DomRelation,
};
use skyline_data::{quantize, Dataset};

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
            let cm = ref_compare(&p, &q);
            prop_assert_eq!(dominance::strictly_dominates(&p, &q), sd);
            prop_assert_eq!(dominance::strictly_dominates_lanes(&p, &q), sd);
            prop_assert_eq!(dominance::dt(&p, &q), sd);
            prop_assert_eq!(dominance::compare(&p, &q), cm);
        }
    }

    #[test]
    fn tile_kernels_equal_scalar_reference_with_tail_padding(
        d in 1usize..=24,
        live in 1usize..=CODE_LANES + 3,
        seed in 0u64..=u64::MAX / 2,
    ) {
        // One f32 tile over the first 8 rows, and code stores over all
        // of them (tail padding in the last code tile), range-free and
        // coded against the rows' own range.
        let mut rng = proptest::TestRng::from_seed(seed);
        let row_strat = proptest::collection::vec(coord_strategy(), d..=d);
        let rows: Vec<Vec<f32>> = (0..live).map(|_| row_strat.generate(&mut rng)).collect();
        let mut tile = DtBlock::new(d);
        for (l, row) in rows.iter().take(TILE_LANES).enumerate() {
            tile.set_lane(l, row);
        }
        prop_assert_eq!(tile.live(), live.min(TILE_LANES));
        let moves_strat = proptest::collection::vec(0u8..=4, d..=d);
        for _ in 0..20 {
            // Candidates are derived from a random live row by
            // per-coordinate nudges, so ties and dominance in both
            // directions actually occur.
            let base = &rows[(rng.next_u64() as usize) % live];
            let q = nudged(base, &moves_strat.generate(&mut rng));
            let dom: Vec<bool> = rows.iter().map(|r| ref_sd(r, &q)).collect();
            let want_tile = dom
                .iter()
                .take(TILE_LANES)
                .enumerate()
                .fold(0u32, |m, (l, &b)| m | u32::from(b) << l);
            for lv in Level::available() {
                let tile = tile.clone().with_level(lv);
                prop_assert_eq!(tile.dominators(&q), want_tile, "{:?} d={} live={}", lv, d, live);
                for store in [
                    TileStore::with_capacity(d, live),
                    TileStore::with_range(&range_of(&rows, d), live),
                ] {
                    let mut store = store.with_level(lv);
                    for row in &rows {
                        store.push(row);
                    }
                    for (l, &b) in dom.iter().enumerate() {
                        let got = store.count_dominators_range(l, l + 1, &q, 1, &mut 0);
                        prop_assert_eq!(got, u32::from(b), "{:?} d={} lane {}", lv, d, l);
                    }
                    let got = (store.clone().offer(&q, &mut 0, |_| {}), offered(store, &q));
                    let want = ref_offer(&rows, &q);
                    prop_assert_eq!((got.0, got.1), (want.0, want.2), "{:?} d={} live={}", lv, d, live);
                }
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
        let live = 1 + (rng.next_u64() as usize) % (2 * CODE_LANES);
        let rows: Vec<Vec<f32>> = (0..live).map(|_| row_strat.generate(&mut rng)).collect();
        // The full-space range of the raw rows, projected the way the
        // engine projects its catalog stats.
        let folded = range_of(&rows, full_d).project(&dims, max_mask);
        for _ in 0..20 {
            let q_raw = row_strat.generate(&mut rng);
            // Candidate transformed once, exactly as the stored rows were.
            let q: Vec<f32> = dims
                .iter()
                .map(|&c| simd::flip_pref(q_raw[c], max_mask & (1 << c) != 0))
                .collect();
            for lv in Level::available() {
                for store in [TileStore::new(dims.len()), TileStore::with_range(&folded, live)] {
                    let mut store = store.with_level(lv);
                    for row in &rows {
                        store.push_pref(row, &dims, max_mask);
                    }
                    for (l, row) in rows.iter().enumerate() {
                        let want = dominance::strictly_dominates_on_pref(row, &q_raw, &dims, max_mask);
                        let got = store.count_dominators_range(l, l + 1, &q, 1, &mut 0);
                        prop_assert_eq!(got, u32::from(want), "{:?} mask={:#b} lane {}", lv, max_mask, l);
                    }
                }
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
        kind in 0u8..=3,
        seed in 0u64..=u64::MAX / 2,
    ) {
        // Up to 9 code tiles and 17 virtual tiles: whole-range scans see
        // several full iterations, odd tile counts and a lone (possibly
        // partial) last tile. Every store codes the same rows against
        // another range — the true one, wrong ones, an empty one, none —
        // and must answer and charge exactly as the row-scan reference.
        let mut rng = proptest::TestRng::from_seed(seed);
        let rows = store_rows(kind, n, d, &mut rng);
        let stores: Vec<(String, TileStore)> = bad_ranges(&range_of(&rows, d))
            .into_iter()
            .map(|(name, r)| (name, TileStore::with_range(&r, n)))
            .chain([("range-free", TileStore::with_capacity(d, n)), ("new", TileStore::new(d))])
            .flat_map(|(name, store)| {
                Level::available()
                    .into_iter()
                    .map(move |lv| (format!("{name} at {lv:?}"), store.clone().with_level(lv)))
            })
            .map(|(name, mut store)| {
                for r in &rows {
                    store.push(r);
                }
                (name, store)
            })
            .collect();
        let moves_strat = proptest::collection::vec(0u8..=4, d..=d);
        for _ in 0..12 {
            // Most candidates are nudged copies of a stored row, so
            // dominators (and code ties) turn up at every position.
            let q: Vec<f32> = if n > 0 && rng.next_u64() % 4 != 0 {
                let base = &rows[(rng.next_u64() as usize) % n];
                nudged(base, &moves_strat.generate(&mut rng))
            } else {
                store_rows(kind, 1, d, &mut rng).remove(0)
            };
            let k = (rng.next_u64() as usize) % (n + 1);
            let a = (rng.next_u64() as usize) % (n + 1);
            let b = (rng.next_u64() as usize) % (n + 1);
            let (start, end) = (a.min(b), a.max(b));
            let want_any = ref_any_dominates(&rows, &q);
            let want_first = ref_any_dominates_range(&rows, 0, k, &q);
            let want_range = ref_any_dominates_range(&rows, start, end, &q);
            let want_offer = ref_offer(&rows, &q);

            for (lv, store) in &stores {
                let mut dts = 0u64;
                let got = store.any_dominates(&q, &mut dts);
                prop_assert_eq!((got, dts), want_any, "{}", lv);

                let mut dts = 0u64;
                let got = store.any_dominates_first(k, &q, &mut dts);
                prop_assert_eq!((got, dts), want_first, "{} k={}", lv, k);

                let mut dts = 0u64;
                let got = store.any_dominates_range(start, end, &q, &mut dts);
                prop_assert_eq!((got, dts), want_range, "{} range {}..{}", lv, start, end);

                for cap in [1u32, 2, 4, u32::MAX] {
                    let mut dts = 0u64;
                    let got = store.count_dominators_range(start, end, &q, cap, &mut dts);
                    prop_assert_eq!(
                        (got, dts),
                        ref_count_dominators_range(&rows, start, end, &q, cap),
                        "{} range {}..{} cap {}", lv, start, end, cap
                    );
                }

                let mut window = store.clone();
                let mut dts = 0u64;
                let dominated = window.offer(&q, &mut dts, |_| {});
                prop_assert_eq!((dominated, dts), (want_offer.0, want_offer.1), "{} offer", lv);
                prop_assert_eq!(offered(store.clone(), &q), want_offer.2.clone(), "{} offer", lv);
            }
        }
    }
}

/// A candidate derived from `base` by per-coordinate moves: an exact
/// tie, a quarter worse or better, a sign flip (±0.0 ties), or a
/// one-ulp step (a tie on every code, resolved only by the `f32` row).
fn nudged(base: &[f32], moves: &[u8]) -> Vec<f32> {
    base.iter()
        .zip(moves)
        .map(|(&v, &m)| match m {
            0 => v,
            1 => v + 0.25,
            2 => v - 0.25,
            3 => -v,
            _ => ulp_step(v, 1),
        })
        .collect()
}

/// `v` moved by `k` units in the last place, away from zero for
/// positive `k` (the smallest subnormal for zero).
fn ulp_step(v: f32, k: i32) -> f32 {
    if v == 0.0 {
        f32::from_bits(k.unsigned_abs())
    } else {
        f32::from_bits((v.to_bits() as i32 + k) as u32)
    }
}

/// `n` rows of one of four kinds: the hostile alphabet; `quantize`d
/// uniform rows (many exact ties); rows a few ulps apart around a base
/// per column (one of them 1e6, where codes are coarse); and a mix of
/// the three with constant columns.
fn store_rows(kind: u8, n: usize, d: usize, rng: &mut proptest::TestRng) -> Vec<Vec<f32>> {
    const BASES: [f32; 4] = [0.5, 1.0e6, -3.0, 1.1754942e-38];
    let row_strat = proptest::collection::vec(coord_strategy(), d..=d);
    let hostile = |rng: &mut proptest::TestRng| row_strat.generate(rng);
    let quantized = |rng: &mut proptest::TestRng| {
        let levels = [2u32, 3, 7][rng.below(3) as usize];
        let flat: Vec<f32> = (0..d).map(|_| rng.unit_f64() as f32).collect();
        quantize(&Dataset::from_flat(flat, d).expect("finite"), levels)
            .values()
            .to_vec()
    };
    let ulps = |rng: &mut proptest::TestRng| -> Vec<f32> {
        (0..d)
            .map(|j| ulp_step(BASES[j % BASES.len()], rng.below(4) as i32))
            .collect()
    };
    let mut rows: Vec<Vec<f32>> = (0..n)
        .map(|_| match kind {
            0 => hostile(rng),
            1 => quantized(rng),
            2 => ulps(rng),
            _ => match rng.below(3) {
                0 => hostile(rng),
                1 => quantized(rng),
                _ => ulps(rng),
            },
        })
        .collect();
    if kind == 3 && n > 0 {
        let c = rng.below(d as u64) as usize;
        let v = rows[0][c];
        for row in &mut rows {
            row[c] = v;
        }
    }
    rows
}

/// The true per-column range of `rows` (`[0, 1]` when there are none).
fn range_of(rows: &[Vec<f32>], d: usize) -> ColumnRange {
    if rows.is_empty() {
        return ColumnRange::new(vec![0.0; d], vec![1.0; d]);
    }
    let mut r = ColumnRange::empty(d);
    for row in rows {
        r.include(row);
    }
    r
}

/// `truth` and wrong variants of it: 1000× too narrow, 1000× too wide,
/// shifted by half its width, and empty (`lo == hi`).
fn bad_ranges(truth: &ColumnRange) -> Vec<(&'static str, ColumnRange)> {
    let map = |f: &dyn Fn(f32, f32) -> (f32, f32)| {
        let (lo, hi) = truth
            .lo()
            .iter()
            .zip(truth.hi())
            .map(|(&lo, &hi)| f(lo, hi))
            .unzip();
        ColumnRange::new(lo, hi)
    };
    let mid = |lo: f32, hi: f32| lo / 2.0 + hi / 2.0;
    let half = |lo: f32, hi: f32| hi / 2.0 - lo / 2.0;
    vec![
        ("true", truth.clone()),
        (
            "narrow",
            map(&|lo, hi| {
                (
                    mid(lo, hi) - half(lo, hi) / 1000.0,
                    mid(lo, hi) + half(lo, hi) / 1000.0,
                )
            }),
        ),
        (
            "wide",
            map(&|lo, hi| {
                let w = half(lo, hi).max(1.0) * 1000.0;
                (mid(lo, hi) - w, mid(lo, hi) + w)
            }),
        ),
        (
            "shifted",
            map(&|lo, hi| (lo + half(lo, hi), hi + half(lo, hi))),
        ),
        ("lo == hi", map(&|lo, hi| (mid(lo, hi), mid(lo, hi)))),
    ]
}

/// The points left in `store` after offering it `q`, in store order.
fn offered(mut store: TileStore, q: &[f32]) -> Vec<Vec<f32>> {
    store.offer(q, &mut 0, |_| {});
    (0..store.len()).map(|i| store.point(i).to_vec()).collect()
}

/// BNL's window update over plain rows: `(dominated, DTs charged, the
/// rows left in swap-remove order)`. The charge is one virtual 8-lane
/// tile at a time through the one holding the first dominator; the
/// evictions (only when nothing dominates `q`) run in descending
/// position order.
fn ref_offer(rows: &[Vec<f32>], q: &[f32]) -> (bool, u64, Vec<Vec<f32>>) {
    if let Some(i) = rows.iter().position(|r| ref_sd(r, q)) {
        let charged = rows.len().min((i / TILE_LANES + 1) * TILE_LANES);
        return (true, charged as u64, rows.to_vec());
    }
    let mut left = rows.to_vec();
    for pos in (0..rows.len()).rev() {
        if ref_sd(q, &rows[pos]) {
            left.swap_remove(pos);
        }
    }
    (false, rows.len() as u64, left)
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
