//! Counting kernels for the skyline **query family**: k-skyband and
//! top-k dominating.
//!
//! Both operators reduce to *dominator counting* over the same tiled
//! layout the plain-skyline scans use:
//!
//! * the **k-skyband** keeps every point strictly dominated by fewer
//!   than `k` others — the skyline is the `count == 0` slice, and a
//!   skyband computed at `k'` answers every skyband (and the skyline)
//!   at `k ≤ k'` by filtering stored counts;
//! * **top-k dominating** ranks points by how many others they
//!   dominate. By antisymmetry of the component order, `p` dominates
//!   `q` iff `-q` dominates `-p`, so the *dominated-by* counter over a
//!   sign-flipped tile store doubles as the *dominates* scorer.
//!
//! Both kernels run as a sum-ordered window scan (the SFS shape):
//! points sort by exact-as-f64 folded coordinate sum ascending, so
//! every strict dominator of a point sits in the sorted prefix up to
//! and including the point's equal-sum tie run (floating-point sums
//! can tie where exact sums differ, and a point never dominates
//! itself, so the inclusive bound is sound — the same argument as the
//! engine's shard merge). Each point then takes one SIMD
//! [`TileStore::count_dominators_range`] probe over that prefix, with
//! the skyband probe early-exiting at `k` — a candidate only needs to
//! know "k or more", never the exact larger total.
//!
//! All rows arriving here are already preference-folded and projected
//! to the query's effective dimensions (minimisation on every
//! coordinate), matching the engine's algorithm-input convention.
//!
//! [`TileStore::count_dominators_range`]: crate::dominance::simd::TileStore::count_dominators_range

use crate::dominance::simd::{ColumnRange, TileStore};
use crate::norms::f64_order_bits;
use skyline_parallel::{par_sort_by_key, ThreadPool};

/// Sum-sorted scan order over `rows`: `(computed f64 sum, index)`
/// ascending by sum, plus a [`TileStore`] holding the rows in that
/// order, coded against the column range the sum pass takes.
fn sum_order(rows: &[f32], d: usize) -> (Vec<(f64, u32)>, TileStore) {
    let n = rows.len() / d;
    let mut bounds = ColumnRange::empty(d);
    let mut order: Vec<(f64, u32)> = (0..n)
        .map(|i| {
            let row = &rows[i * d..(i + 1) * d];
            bounds.include(row);
            let sum: f64 = row.iter().map(|&v| v as f64).sum();
            (sum, i as u32)
        })
        .collect();
    // Stable on the sum: equal sums stay in index order. No pool is at
    // hand here, and a one-lane pool spawns no thread.
    par_sort_by_key(&ThreadPool::new(1), &mut order, |&(sum, _)| {
        f64_order_bits(sum)
    });
    let mut tile = TileStore::with_range(&bounds, n);
    for &(_, i) in &order {
        tile.push(&rows[i as usize * d..(i as usize + 1) * d]);
    }
    (order, tile)
}

/// Walks `order` one equal-sum tie run at a time, invoking `visit`
/// with each member's original index, its row, and the run's exclusive
/// end position (every dominator lives below that position in `tile`).
fn for_each_in_runs(
    order: &[(f64, u32)],
    rows: &[f32],
    d: usize,
    mut visit: impl FnMut(u32, &[f32], usize),
) {
    let mut i = 0usize;
    while i < order.len() {
        let mut run_end = i + 1;
        while run_end < order.len() && order[run_end].0 == order[i].0 {
            run_end += 1;
        }
        for &(_, idx) in &order[i..run_end] {
            visit(
                idx,
                &rows[idx as usize * d..(idx as usize + 1) * d],
                run_end,
            );
        }
        i = run_end;
    }
}

/// The k-skyband of preference-folded `rows` (`d` values per point,
/// minimisation on every coordinate): every point strictly dominated
/// by fewer than `k` others, as `(input index, exact dominator count)`
/// in ascending index order. `k = 0` yields the empty set; `k = 1` is
/// the skyline with all counts zero. Tile-lane dominance-test charges
/// accumulate into `dts`.
pub fn skyband_counts(rows: &[f32], d: usize, k: u32, dts: &mut u64) -> Vec<(u32, u32)> {
    assert!(d > 0 && rows.len() % d == 0, "rows must be n×d");
    if k == 0 || rows.is_empty() {
        return Vec::new();
    }
    let (order, tile) = sum_order(rows, d);
    let mut out = Vec::new();
    for_each_in_runs(&order, rows, d, |idx, q, run_end| {
        let count = tile.count_dominators_range(0, run_end, q, k, dts);
        if count < k {
            out.push((idx, count));
        }
    });
    out.sort_unstable();
    out
}

/// The top-k dominating points of preference-folded `rows`: each point
/// scored by how many others it strictly dominates, the top `k`
/// returned as `(input index, exact score)` ordered by score
/// descending, index ascending on ties. Scores are computed as
/// dominator counts over the sign-flipped rows (`p` dominates `q` iff
/// `-q` dominates `-p`), so the same sum-ordered prefix probe applies;
/// no early exit is possible — ranking needs exact scores.
/// Tile-lane dominance-test charges accumulate into `dts`.
pub fn top_k_dominating(rows: &[f32], d: usize, k: u32, dts: &mut u64) -> Vec<(u32, u32)> {
    assert!(d > 0 && rows.len() % d == 0, "rows must be n×d");
    if k == 0 || rows.is_empty() {
        return Vec::new();
    }
    let negated: Vec<f32> = rows.iter().map(|&v| -v).collect();
    let n = negated.len() / d;
    let (order, tile) = sum_order(&negated, d);
    let mut scored: Vec<(u32, u32)> = Vec::with_capacity(n);
    for_each_in_runs(&order, &negated, d, |idx, q, run_end| {
        let score = tile.count_dominators_range(0, run_end, q, u32::MAX, dts);
        scored.push((idx, score));
    });
    scored.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(k as usize);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::simd::flip_pref;
    use crate::verify;
    use skyline_data::{generate, Dataset, Distribution};

    /// Folds `data` onto `dims` with `max_mask` orientation — the
    /// engine's algorithm-input convention.
    fn fold(data: &Dataset, dims: &[usize], max_mask: u32) -> Vec<f32> {
        let mut out = Vec::with_capacity(data.len() * dims.len());
        for row in data.rows() {
            for &c in dims {
                out.push(flip_pref(row[c], max_mask & (1 << c) != 0));
            }
        }
        out
    }

    #[test]
    fn skyband_matches_naive_reference() {
        let pool = ThreadPool::new(1);
        for dist in [
            Distribution::Independent,
            Distribution::Anticorrelated,
            Distribution::Correlated,
        ] {
            let data = generate(dist, 400, 4, 7, &pool);
            for dims in [&[0usize, 1][..], &[1, 2, 3], &[0, 1, 2, 3]] {
                for max_mask in [0u32, 0b101] {
                    let rows = fold(&data, dims, max_mask);
                    for k in [0u32, 1, 2, 5, 1000] {
                        let mut dts = 0;
                        assert_eq!(
                            skyband_counts(&rows, dims.len(), k, &mut dts),
                            verify::naive_skyband_on_pref(&data, dims, max_mask, k),
                            "{dist:?} {dims:?} mask={max_mask:b} k={k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn top_k_dominating_matches_naive_reference() {
        let pool = ThreadPool::new(1);
        for dist in [Distribution::Independent, Distribution::Anticorrelated] {
            let data = generate(dist, 300, 3, 11, &pool);
            for dims in [&[0usize, 1][..], &[0, 1, 2]] {
                for max_mask in [0u32, 0b10] {
                    let rows = fold(&data, dims, max_mask);
                    for k in [0u32, 1, 3, 10, 1000] {
                        let mut dts = 0;
                        assert_eq!(
                            top_k_dominating(&rows, dims.len(), k, &mut dts),
                            verify::naive_top_k_dominating(&data, dims, max_mask, k),
                            "{dist:?} {dims:?} mask={max_mask:b} k={k}"
                        );
                    }
                }
            }
        }
    }

    /// Same work, pinned: the 4-skyband of a fixed anticorrelated
    /// 20 000 × 6 input — band size and the counting scan's
    /// tile-granular dominance tests, identical at every dispatch level
    /// (`SKYLINE_FORCE_SCALAR=1` included).
    #[test]
    fn skyband_dominance_tests_are_pinned() {
        let pool = ThreadPool::new(1);
        let data = generate(Distribution::Anticorrelated, 20_000, 6, 1, &pool);
        let mut dts = 0;
        let band = skyband_counts(data.values(), 6, 4, &mut dts);
        assert_eq!((band.len(), dts), (14_023, 106_874_427));
    }

    #[test]
    fn duplicates_and_equal_sum_ties_are_counted_exactly() {
        // Coincident points never dominate each other; (1,3) and (3,1)
        // tie on sum without dominance; the chain picks up dominators.
        let rows: Vec<f32> = vec![
            1.0, 3.0, // idx 0: sum 4, undominated
            3.0, 1.0, // idx 1: sum 4, undominated
            2.0, 2.0, // idx 2: sum 4, undominated (incomparable to both)
            2.0, 2.0, // idx 3: duplicate of 2 — still 0 dominators
            2.0, 4.0, // idx 4: dominated by 0, 2, 3 → count 3
        ];
        let mut dts = 0;
        assert_eq!(
            skyband_counts(&rows, 2, 10, &mut dts),
            vec![(0, 0), (1, 0), (2, 0), (3, 0), (4, 3)]
        );
        assert_eq!(
            skyband_counts(&rows, 2, 2, &mut dts),
            vec![(0, 0), (1, 0), (2, 0), (3, 0)]
        );
        // Dominates-scores: 0 → {4}; 2,3 → {4}; 1 → {}; 4 → {}.
        assert_eq!(
            top_k_dominating(&rows, 2, 5, &mut dts),
            vec![(0, 1), (2, 1), (3, 1), (1, 0), (4, 0)]
        );
    }
}
