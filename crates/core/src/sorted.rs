//! Sorted working sets: the initialization step shared by the presorting
//! algorithms (SFS, SaLSa, PSFS, Q-Flow, and — with compound keys —
//! Hybrid).
//!
//! Rows are gathered into a fresh contiguous buffer in sort order, because
//! the paper's flow of control relies on contiguity: Phase I streams the
//! skyline buffer linearly and compression shifts rows left without
//! indirection.

use std::cmp::Ordering;
use std::sync::Mutex;

use crate::config::SortKey;
use crate::dominance::dt;
use crate::dominance::simd::ColumnRange;
use crate::norms::{eval_sort_key, f32_from_order_bits, f32_order_bits, l1, min_coord};
use skyline_parallel::{par_chunks_mut, par_collect, par_sort_by_key, ThreadPool};

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
    /// Per-column bounds of the rows, for the code tiles of the scans.
    pub range: ColumnRange,
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
/// Ties: for `L1`/`Entropy` ties keep position order (the sort is
/// stable and the items are built in position order); for `MinCoord`
/// they break by L1 (p ≺ q with equal min requires a smaller L1), then
/// position. Exactly, a strict dominator has the strictly smaller key,
/// but a float key can round to a tie, so runs of rows whose
/// dominance-relevant keys tie are then put in dominance order
/// ([`order_tied_runs`]).
pub(crate) fn build_workset(
    values: &[f32],
    d: usize,
    source_orig: Option<&[u32]>,
    sort_key: SortKey,
    pool: &ThreadPool,
) -> WorkSet {
    // `(order bits, position)` items: the key alone for `L1`/`Entropy`,
    // `[min : 32][L1 : 32]` for `MinCoord`, whose top half the keys are
    // read back from.
    let mut ws = match sort_key {
        SortKey::L1 | SortKey::Entropy => {
            let (mut items, range) = sort_items(values, d, pool, |row| {
                f32_order_bits(eval_sort_key(sort_key, row))
            });
            par_sort_by_key(pool, &mut items, |&(k, _)| k);
            gather(values, d, source_orig, &items, |&(k, _)| k, range, pool)
        }
        SortKey::MinCoord => {
            let (mut items, range) = sort_items(values, d, pool, |row| {
                (f32_order_bits(min_coord(row)) as u64) << 32 | f32_order_bits(l1(row)) as u64
            });
            par_sort_by_key(pool, &mut items, |&(k, _)| k);
            gather(
                values,
                d,
                source_orig,
                &items,
                |&(k, _)| (k >> 32) as u32,
                range,
                pool,
            )
        }
    };
    let mut tied = TiedWorkSet {
        ws: &mut ws,
        min_coord: sort_key == SortKey::MinCoord,
    };
    order_tied_runs(&mut tied, pool);
    ws
}

/// Each row's `(key, position)` item, in position order, and the rows'
/// column range, in one parallel pass.
fn sort_items<K: Copy + Default + Send>(
    values: &[f32],
    d: usize,
    pool: &ThreadPool,
    key: impl Fn(&[f32]) -> K + Sync,
) -> (Vec<(K, u32)>, ColumnRange) {
    let n = values.len() / d;
    debug_assert_eq!(values.len(), n * d);
    let mut items = vec![(K::default(), 0u32); n];
    let range = Mutex::new(ColumnRange::empty(d));
    par_chunks_mut(pool, &mut items, 1 << 12, |offset, chunk| {
        let mut local = ColumnRange::empty(d);
        for (k, slot) in chunk.iter_mut().enumerate() {
            let i = offset + k;
            let row = &values[i * d..(i + 1) * d];
            local.include(row);
            *slot = (key(row), i as u32);
        }
        range.lock().expect("range lock").union(&local);
    });
    (items, range.into_inner().expect("range lock"))
}

/// Runs longer than this are ordered lexicographically instead of by
/// in-run dominator counts, which cost a test per pair of members.
const TIE_RUN_PAIRWISE: usize = 16;

/// Rows in sort order, for [`order_tied_runs`].
pub(crate) trait TiedRows {
    /// Number of rows.
    fn count(&self) -> usize;
    /// Do rows `i` and `i + 1` tie on the dominance-relevant part of
    /// the sort key?
    fn tied(&self, i: usize) -> bool;
    /// Row `i`.
    fn row(&self, i: usize) -> &[f32];
    /// Swaps rows `i` and `j`, with everything kept beside them.
    fn swap(&mut self, i: usize, j: usize);
}

/// Puts each run of tied rows in an order where no row precedes one
/// that strictly dominates it — the order every presorting scan relies
/// on. A float key is monotone but not strictly so: rounding can give a
/// dominator the same key as its victim, and the position tiebreak
/// could then put the victim first. A short run is stably sorted by the
/// number of its members dominating each one (a dominator has strictly
/// fewer: its own dominators dominate the victim too), so a run without
/// dominance inside keeps its order; a long one, typical of
/// duplicate-heavy data, is sorted lexicographically by row (a
/// dominator is lexicographically smaller), then by position. Runs are
/// found and ordered in parallel; the few that move are permuted after.
pub(crate) fn order_tied_runs(rows: &mut (impl TiedRows + Sync), pool: &ThreadPool) {
    let n = rows.count();
    let moves = {
        let rows = &*rows;
        par_collect(pool, n.saturating_sub(1), 1 << 14, |starts, out| {
            for start in starts {
                if !rows.tied(start) || (start > 0 && rows.tied(start - 1)) {
                    continue;
                }
                let mut end = start + 2;
                while end < n && rows.tied(end - 1) {
                    end += 1;
                }
                if let Some(order) = run_order(rows, start, end) {
                    out.push((start, order));
                }
            }
        })
    };
    for (start, order) in moves {
        // Row `start + order[k]` moves to `start + k`, one cycle of the
        // permutation at a time.
        let mut placed = vec![false; order.len()];
        for k in 0..order.len() {
            let mut at = k;
            while !placed[at] {
                placed[at] = true;
                if order[at] != k {
                    rows.swap(start + at, start + order[at]);
                }
                at = order[at];
            }
        }
    }
}

/// The dominance order of run `start..end` of [`order_tied_runs`], as
/// offsets into the run, or `None` when the run is in order already.
fn run_order(rows: &impl TiedRows, start: usize, end: usize) -> Option<Vec<usize>> {
    let len = end - start;
    let mut order: Vec<usize>;
    if len > TIE_RUN_PAIRWISE {
        order = (0..len).collect();
        order.sort_by(|&a, &b| {
            let lex = rows.row(start + a).partial_cmp(rows.row(start + b));
            lex.unwrap_or(Ordering::Equal).then(a.cmp(&b))
        });
    } else {
        let mut doms = [0usize; TIE_RUN_PAIRWISE];
        for (a, slot) in doms[..len].iter_mut().enumerate() {
            let victim = rows.row(start + a);
            *slot = (start..end).filter(|&b| dt(rows.row(b), victim)).count();
        }
        if doms[..len].iter().all(|&c| c == 0) {
            return None;
        }
        order = (0..len).collect();
        order.sort_by_key(|&k| doms[k]);
    }
    order
        .iter()
        .enumerate()
        .any(|(k, &from)| k != from)
        .then_some(order)
}

/// A gathered [`WorkSet`]: rows tie when their keys do (and, for
/// `MinCoord`, their L1 norms too).
struct TiedWorkSet<'a> {
    ws: &'a mut WorkSet,
    min_coord: bool,
}

impl TiedRows for TiedWorkSet<'_> {
    fn count(&self) -> usize {
        self.ws.len()
    }

    fn tied(&self, i: usize) -> bool {
        let ws = &self.ws;
        ws.keys[i] == ws.keys[i + 1] && (!self.min_coord || l1(ws.row(i)) == l1(ws.row(i + 1)))
    }

    fn row(&self, i: usize) -> &[f32] {
        self.ws.row(i)
    }

    fn swap(&mut self, i: usize, j: usize) {
        let d = self.ws.d;
        for c in 0..d {
            self.ws.values.swap(i * d + c, j * d + c);
        }
        self.ws.keys.swap(i, j);
        self.ws.orig.swap(i, j);
    }
}

/// Gathers rows into sort order with their keys, read back from the
/// sorted items' order bits (`key_bits`: the same floats the sort saw),
/// and their original indices, in one parallel pass.
fn gather<I: Sync>(
    values: &[f32],
    d: usize,
    source_orig: Option<&[u32]>,
    items: &[(I, u32)],
    key_bits: impl Fn(&(I, u32)) -> u32 + Sync,
    range: ColumnRange,
    pool: &ThreadPool,
) -> WorkSet {
    let n = items.len();
    let mut ws = WorkSet {
        d,
        values: vec![0.0f32; n * d],
        keys: vec![0.0f32; n],
        orig: vec![0u32; n],
        range,
    };
    par_fill_rows(
        pool,
        d,
        &mut ws.values,
        &mut ws.keys,
        &mut ws.orig,
        |first, rows, keys, orig| {
            let sorted = &items[first..first + keys.len()];
            for (((dst, key), slot), item) in
                rows.chunks_exact_mut(d).zip(keys).zip(orig).zip(sorted)
            {
                let pos = item.1 as usize;
                dst.copy_from_slice(&values[pos * d..(pos + 1) * d]);
                *key = f32_from_order_bits(key_bits(item));
                *slot = source_orig.map_or(item.1, |m| m[pos]);
            }
        },
    );
    ws
}

/// Rows per task of [`par_fill_rows`].
const FILL_ROWS: usize = 1 << 10;

/// Fills row-major `values` (`d` per row) and the per-row columns `a`
/// and `b` in one parallel pass: `body(first, rows, a, b)` gets the
/// matching pieces of all three, starting at row `first`.
pub(crate) fn par_fill_rows<A: Send, B: Send>(
    pool: &ThreadPool,
    d: usize,
    values: &mut [f32],
    a: &mut [A],
    b: &mut [B],
    body: impl Fn(usize, &mut [f32], &mut [A], &mut [B]) + Sync,
) {
    debug_assert!(values.len() == a.len() * d && a.len() == b.len());
    let mut parts: Vec<_> = values
        .chunks_mut(FILL_ROWS * d)
        .zip(a.chunks_mut(FILL_ROWS))
        .zip(b.chunks_mut(FILL_ROWS))
        .collect();
    par_chunks_mut(pool, &mut parts, 1, |first, run| {
        for (c, ((rows, a), b)) in run.iter_mut().enumerate() {
            body((first + c) * FILL_ROWS, rows, a, b);
        }
    });
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
    fn a_dominator_with_a_rounded_tie_key_sorts_first() {
        // At 5e5 one f32 ulp is 1/32, so the 0.5-ulp differences of
        // the other columns vanish from the L1 sums: all three rows tie
        // on L1, yet row 2 dominates rows 0 and 1, and row 1 dominates
        // row 0. Position alone would put every victim first.
        let pool = ThreadPool::new(1);
        let up = |v: f32, k: u32| f32::from_bits(v.to_bits() + k);
        let values = [
            5e5,
            up(0.5, 2),
            up(0.5, 2),
            5e5,
            up(0.5, 1),
            up(0.5, 2),
            5e5,
            0.5,
            0.5,
        ];
        for key in [SortKey::L1, SortKey::MinCoord] {
            let ws = build_workset(&values, 3, None, key, &pool);
            assert_eq!(ws.orig, vec![2, 1, 0], "{key:?}");
        }
        // Long runs (duplicate-heavy data) take the lexicographic order.
        let mut long: Vec<f32> = Vec::new();
        for i in 0..40u32 {
            long.extend([5e5, up(0.5, 40 - i), 0.5]);
        }
        let ws = build_workset(&long, 3, None, SortKey::L1, &pool);
        assert_eq!(ws.orig, (0..40).rev().collect::<Vec<u32>>());
    }

    #[test]
    fn matches_a_position_tiebroken_comparison_sort() {
        // Past the sort's cutoffs and the gather's row blocks, at one and
        // two lanes: the rows, keys and order of a serial `(key,
        // position)` comparison sort followed by the same tie pass.
        let (n, d) = (70_000, 3);
        let mut rng = 11u64;
        let values: Vec<f32> = (0..n * d)
            .map(|_| {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((rng >> 40) % 64) as f32 / 8.0
            })
            .collect();
        let row = |i: usize| &values[i * d..(i + 1) * d];
        for key in [SortKey::L1, SortKey::Entropy, SortKey::MinCoord] {
            let min_coord = key == SortKey::MinCoord;
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&i| {
                let tiebreak = if min_coord {
                    f32_order_bits(l1(row(i)))
                } else {
                    0
                };
                (f32_order_bits(eval_sort_key(key, row(i))), tiebreak, i)
            });
            let mut expect = WorkSet {
                d,
                values: order.iter().flat_map(|&i| row(i).to_vec()).collect(),
                keys: order.iter().map(|&i| eval_sort_key(key, row(i))).collect(),
                orig: order.iter().map(|&i| i as u32).collect(),
                range: ColumnRange::empty(d),
            };
            let mut tied = TiedWorkSet {
                ws: &mut expect,
                min_coord,
            };
            order_tied_runs(&mut tied, &ThreadPool::new(1));
            for t in [1, 2] {
                let ws = build_workset(&values, d, None, key, &ThreadPool::new(t));
                assert_eq!(ws.orig, expect.orig, "{key:?}, T = {t}");
                assert_eq!(ws.values, expect.values, "{key:?}, T = {t}");
                let bits = |keys: &[f32]| keys.iter().map(|k| k.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&ws.keys), bits(&expect.keys), "{key:?}, T = {t}");
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
