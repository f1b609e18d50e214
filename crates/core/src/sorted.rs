//! Sorted working sets: the initialization step shared by the presorting
//! algorithms (SFS, SaLSa, PSFS, Q-Flow, and — with compound keys —
//! Hybrid).
//!
//! Rows are gathered into a fresh contiguous buffer in sort order, because
//! the paper's flow of control relies on contiguity: Phase I streams the
//! skyline buffer linearly and compression shifts rows left without
//! indirection.

use crate::config::SortKey;
use crate::norms::{eval_sort_key, f32_order_bits, l1};
use skyline_parallel::{par_chunks_mut, par_sort_unstable_by_key, ThreadPool};

/// A dataset copy reordered by a monotone sort key.
#[derive(Debug)]
pub(crate) struct WorkSet {
    /// Dimensionality.
    pub d: usize,
    /// Row-major values in sort order.
    pub values: Vec<f32>,
    /// The scalar sort-key value of each row (L1 for Q-Flow).
    pub keys: Vec<f32>,
    /// Original dataset index of each row.
    pub orig: Vec<u32>,
}

impl WorkSet {
    #[inline]
    pub fn len(&self) -> usize {
        self.orig.len()
    }

    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.values[i * self.d..(i + 1) * self.d]
    }
}

/// Builds a [`WorkSet`] ordered by `sort_key` ascending.
///
/// `source_orig` maps positions of `values` back to original dataset
/// indices (identity if `None`) — used after pre-filtering has already
/// compacted the input.
///
/// Ties: for `L1`/`Entropy` ties are broken by position (dominance forces
/// a strictly smaller key, so ties are never dominance-related); for
/// `MinCoord` ties are broken by L1, which *is* dominance-relevant
/// (p ≺ q with equal min requires strictly smaller L1), then position.
pub(crate) fn build_workset(
    values: &[f32],
    d: usize,
    source_orig: Option<&[u32]>,
    sort_key: SortKey,
    pool: &ThreadPool,
) -> WorkSet {
    let n = values.len() / d;
    debug_assert_eq!(values.len(), n * d);

    // (packed key, position) pairs; see `packed` below for layouts.
    let mut items: Vec<(u64, u32)> = vec![(0, 0); n];
    {
        let values_ref = values;
        par_chunks_mut(pool, &mut items, 1 << 12, |offset, chunk| {
            for (k, slot) in chunk.iter_mut().enumerate() {
                let i = offset + k;
                let row = &values_ref[i * d..(i + 1) * d];
                let hi = (f32_order_bits(eval_sort_key(sort_key, row)) as u64) << 32;
                let lo = match sort_key {
                    SortKey::L1 | SortKey::Entropy => (i as u32) as u64,
                    SortKey::MinCoord => f32_order_bits(l1(row)) as u64,
                };
                let packed = hi | lo;
                *slot = (packed, i as u32);
            }
        });
    }
    par_sort_unstable_by_key(pool, &mut items, |&t| t);

    gather(values, d, source_orig, &items, sort_key, pool)
}

/// Gathers rows into sort order and recomputes per-row key values.
fn gather(
    values: &[f32],
    d: usize,
    source_orig: Option<&[u32]>,
    items: &[(u64, u32)],
    sort_key: SortKey,
    pool: &ThreadPool,
) -> WorkSet {
    let n = items.len();
    let mut out_values = vec![0.0f32; n * d];
    {
        let grain = (1usize << 10) * d; // row-aligned chunk boundaries
        par_chunks_mut(pool, &mut out_values, grain, |offset, chunk| {
            debug_assert_eq!(offset % d, 0);
            let first_row = offset / d;
            for (r, dst) in chunk.chunks_exact_mut(d).enumerate() {
                let src_pos = items[first_row + r].1 as usize;
                dst.copy_from_slice(&values[src_pos * d..(src_pos + 1) * d]);
            }
        });
    }
    // The keys are recomputed from the gathered, contiguous rows: the
    // same floats as the sort saw, without a second random read.
    let mut keys = vec![0.0f32; n];
    par_chunks_mut(pool, &mut keys, 1 << 12, |offset, chunk| {
        let rows = out_values[offset * d..].chunks_exact(d);
        for (slot, row) in chunk.iter_mut().zip(rows) {
            *slot = eval_sort_key(sort_key, row);
        }
    });
    let mut orig = vec![0u32; n];
    par_chunks_mut(pool, &mut orig, 1 << 12, |offset, chunk| {
        for (slot, item) in chunk.iter_mut().zip(&items[offset..]) {
            let pos = item.1 as usize;
            *slot = source_orig.map_or(pos as u32, |m| m[pos]);
        }
    });
    WorkSet {
        d,
        values: out_values,
        keys,
        orig,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(rows: &[[f32; 2]]) -> Vec<f32> {
        rows.iter().flatten().copied().collect()
    }

    #[test]
    fn sorts_by_l1_with_position_ties() {
        let pool = ThreadPool::new(2);
        let values = flat(&[[3.0, 1.0], [0.5, 0.5], [2.0, 2.0], [1.0, 0.0]]);
        let ws = build_workset(&values, 2, None, SortKey::L1, &pool);
        // L1 ties (rows 1/3 at 1.0, rows 0/2 at 4.0) break by position.
        assert_eq!(ws.orig, vec![1, 3, 0, 2]);
        assert_eq!(ws.row(0), &[0.5, 0.5]);
        assert!(ws.keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn min_coord_ties_break_by_l1() {
        let pool = ThreadPool::new(2);
        // Both rows have min = 0.0; the dominator must sort first.
        let values = flat(&[[0.0, 5.0], [0.0, 3.0]]);
        let ws = build_workset(&values, 2, None, SortKey::MinCoord, &pool);
        assert_eq!(ws.orig[0], 1, "dominating row must precede");
    }

    #[test]
    fn respects_source_orig_mapping() {
        let pool = ThreadPool::new(1);
        let values = flat(&[[2.0, 2.0], [1.0, 1.0]]);
        let ws = build_workset(&values, 2, Some(&[10, 20]), SortKey::L1, &pool);
        assert_eq!(ws.orig, vec![20, 10]);
    }

    #[test]
    fn dominance_order_invariant_holds() {
        // If p precedes q in the workset then q does not dominate p.
        let pool = ThreadPool::new(2);
        let mut rng = 7u64;
        let mut next = move || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng >> 40) % 8) as f32
        };
        let n = 300;
        let d = 3;
        let values: Vec<f32> = (0..n * d).map(|_| next()).collect();
        for key in [SortKey::L1, SortKey::Entropy, SortKey::MinCoord] {
            let ws = build_workset(&values, d, None, key, &pool);
            for i in 0..n {
                for j in (i + 1)..n {
                    assert!(
                        !crate::dominance::strictly_dominates(ws.row(j), ws.row(i)),
                        "{key:?}: later row dominates earlier"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_input() {
        let pool = ThreadPool::new(2);
        let ws = build_workset(&[], 4, None, SortKey::L1, &pool);
        assert_eq!(ws.len(), 0);
    }
}
