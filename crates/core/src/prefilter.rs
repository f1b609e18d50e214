//! The β-queue pre-filter (paper §VI-A1).
//!
//! Most datasets contain points dominated by a large fraction of the rest;
//! Hybrid removes them cheaply before the heavier initialization (pivot
//! selection, sorting), and LESS runs the same pass as its elimination
//! filter. Two parallel passes on the tile kernels, then a compaction:
//!
//! 1. `0..n` is cut into a fixed number of contiguous stripes (`STRIPES`,
//!    whatever the thread count), scanned in parallel. Each stripe keeps a
//!    queue of the β points with the smallest `(L1, index)` it has seen,
//!    held as ⌈β/8⌉ [`DtBlock`] tiles — exactly one at the default β = 8.
//!    A point that does not enter the queue is tested against it one tile
//!    at a time and dropped if dominated. The queue maximum is tracked
//!    incrementally: the β keys are rescanned only when a point replaces
//!    it.
//! 2. The union of the stripe queues, sorted by `(L1, index)` (most
//!    likely pruners first), becomes one [`TileStore`] coded against the
//!    union's own column range, and every pass-1 survivor is tested
//!    against it with [`TileStore::any_dominates`]. A queue member meets
//!    itself there, harmlessly: no point strictly dominates itself.
//! 3. The survivors are collected per fixed chunk and concatenated in
//!    chunk order, so the output stays in index order, and their rows and
//!    norms are gathered in parallel.
//!
//! Dominance tests are charged per tile: pass 1 charges the live lanes of
//! each queue tile it tests, pass 2 [`TileStore::any_dominates`]'s rule.
//! Because the stripes do not depend on the schedule, neither do the
//! queues: the survivors and the DT count are the same at every thread
//! count.
//!
//! β = 8 by default (footnote 3: "appreciable impact only \[on\]
//! correlated data").

use crate::dominance::simd::{ColumnRange, DtBlock, TileStore, TILE_LANES};
use crate::norms::{l1, packed_scalar_key};
use skyline_parallel::{par_chunks_mut, par_collect, LaneCounters, ThreadPool};

/// Number of pass-1 stripes: fixed, so the queues (and everything they
/// decide) are the same at every thread count.
const STRIPES: usize = 8;

/// Compacted pre-filter survivors.
#[derive(Debug)]
pub struct PrefilterOutput {
    /// Surviving rows, row-major.
    pub values: Vec<f32>,
    /// Original dataset index of each surviving row, ascending.
    pub orig: Vec<u32>,
    /// L1 norm of each surviving row (reused by sorting and pivots).
    pub l1: Vec<f32>,
    /// Number of points removed.
    pub dropped: usize,
}

/// What pass 1 leaves of one stripe.
struct Stripe {
    /// The queue's `(L1, index)` keys.
    keys: Vec<(f32, u32)>,
    /// Indices the queue did not drop, ascending.
    kept: Vec<u32>,
    /// Dominance tests charged.
    dts: u64,
}

/// Runs the two-pass pre-filter over `values` (row-major `n·d`).
pub fn prefilter(
    values: &[f32],
    d: usize,
    beta: usize,
    pool: &ThreadPool,
    counters: &LaneCounters,
) -> PrefilterOutput {
    let n = values.len() / d;
    debug_assert_eq!(values.len(), n * d);
    let beta = beta.max(1);
    let row = |i: usize| &values[i * d..(i + 1) * d];

    // L1 norms for everyone (also pass 1's queue key).
    let mut norms = vec![0.0f32; n];
    par_chunks_mut(pool, &mut norms, 1 << 12, |offset, chunk| {
        for (k, slot) in chunk.iter_mut().enumerate() {
            *slot = l1(row(offset + k));
        }
    });

    // ---- Pass 1: one β-queue per fixed stripe, dropping en route --------
    let stripe_len = n.div_ceil(STRIPES).max(1);
    let stripes = par_collect(pool, n, stripe_len, |range, out| {
        out.push(scan_stripe(values, d, &norms, beta, range));
    });

    // ---- Pass 2: every pass-1 survivor against the union of the queues --
    let mut union: Vec<(f32, u32)> = stripes
        .iter()
        .flat_map(|s| s.keys.iter().copied())
        .collect();
    union.sort_unstable_by_key(|&(key, i)| packed_scalar_key(key, i));
    let mut bounds = ColumnRange::empty(d);
    for &(_, i) in &union {
        bounds.include(row(i as usize));
    }
    let mut store = TileStore::with_range(&bounds, union.len());
    for &(_, i) in &union {
        store.push(row(i as usize));
    }
    let cands: Vec<u32> = stripes
        .iter()
        .flat_map(|s| s.kept.iter().copied())
        .collect();
    counters.add(0, stripes.iter().map(|s| s.dts).sum());
    drop(stripes);
    let orig = par_collect(pool, cands.len(), 1 << 10, |range, keep| {
        let mut dts = 0u64;
        for &i in &cands[range] {
            if !store.any_dominates(row(i as usize), &mut dts) {
                keep.push(i);
            }
        }
        counters.add(0, dts);
    });

    // ---- Compact survivors -----------------------------------------------
    let mut out_values = vec![0.0f32; orig.len() * d];
    par_chunks_mut(pool, &mut out_values, (1 << 10) * d, |offset, chunk| {
        let first = offset / d;
        for (r, dst) in chunk.chunks_exact_mut(d).enumerate() {
            dst.copy_from_slice(row(orig[first + r] as usize));
        }
    });
    let mut out_l1 = vec![0.0f32; orig.len()];
    par_chunks_mut(pool, &mut out_l1, 1 << 12, |offset, chunk| {
        for (k, slot) in chunk.iter_mut().enumerate() {
            *slot = norms[orig[offset + k] as usize];
        }
    });
    PrefilterOutput {
        values: out_values,
        dropped: n - orig.len(),
        orig,
        l1: out_l1,
    }
}

/// Pass 1 over one stripe: the first β points fill the queue; after
/// that a point with a smaller L1 than the queue maximum replaces it,
/// and any other point is tested against the queue's tiles in order,
/// charged their live lanes, until one dominates it.
fn scan_stripe(
    values: &[f32],
    d: usize,
    norms: &[f32],
    beta: usize,
    range: std::ops::Range<usize>,
) -> Stripe {
    let row = |i: usize| &values[i * d..(i + 1) * d];
    let mut tiles: Vec<DtBlock> = (0..beta.div_ceil(TILE_LANES))
        .map(|_| DtBlock::new(d))
        .collect();
    let mut keys: Vec<(f32, u32)> = Vec::with_capacity(beta);
    let mut kept = Vec::with_capacity(range.len());
    let mut dts = 0u64;
    // Position in `keys` of the largest `(L1, index)`.
    let mut max_at = 0;
    for i in range {
        let key = (norms[i], i as u32);
        let slot = if keys.len() < beta {
            // Later indices win L1 ties, so a new equal norm is the max.
            if keys.is_empty() || key.0 >= keys[max_at].0 {
                max_at = keys.len();
            }
            keys.push(key);
            keys.len() - 1
        } else if key.0 < keys[max_at].0 {
            // `i` replaces the largest; the evicted point stays in the
            // dataset (it was merely a filter candidate).
            let slot = max_at;
            keys[slot] = key;
            max_at = argmax(&keys);
            slot
        } else {
            let q = row(i);
            let dominated = tiles.iter().any(|t| {
                dts += t.live() as u64;
                t.dominators(q) != 0
            });
            if !dominated {
                kept.push(i as u32);
            }
            continue;
        };
        tiles[slot / TILE_LANES].set_lane(slot % TILE_LANES, row(i));
        kept.push(i as u32);
    }
    Stripe { keys, kept, dts }
}

/// Position of the largest `(L1, index)` key.
fn argmax(keys: &[(f32, u32)]) -> usize {
    let mut at = 0;
    for (k, key) in keys.iter().enumerate().skip(1) {
        if *key > keys[at] {
            at = k;
        }
    }
    at
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::naive_skyline;
    use skyline_data::{generate, Dataset, Distribution};

    fn run_prefilter(data: &Dataset, beta: usize, threads: usize) -> PrefilterOutput {
        let pool = ThreadPool::new(threads);
        let counters = LaneCounters::new(pool.threads());
        prefilter(data.values(), data.dims(), beta, &pool, &counters)
    }

    #[test]
    fn never_drops_a_skyline_point() {
        let gen_pool = ThreadPool::new(2);
        for dist in [
            Distribution::Correlated,
            Distribution::Independent,
            Distribution::Anticorrelated,
        ] {
            let data = generate(dist, 2_000, 4, 3, &gen_pool);
            let sky: std::collections::HashSet<u32> = naive_skyline(&data).into_iter().collect();
            for threads in [1, 4] {
                let out = run_prefilter(&data, 8, threads);
                let kept: std::collections::HashSet<u32> = out.orig.iter().copied().collect();
                for s in &sky {
                    assert!(
                        kept.contains(s),
                        "{dist:?} t={threads}: dropped skyline {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn drops_most_correlated_points() {
        let gen_pool = ThreadPool::new(2);
        let data = generate(Distribution::Correlated, 20_000, 4, 3, &gen_pool);
        let out = run_prefilter(&data, 8, 2);
        // "For correlated data, this is true of most points."
        assert!(
            out.dropped * 2 > data.len(),
            "only dropped {} of {}",
            out.dropped,
            data.len()
        );
    }

    #[test]
    fn output_arrays_are_consistent() {
        let gen_pool = ThreadPool::new(2);
        let data = generate(Distribution::Independent, 1_000, 3, 1, &gen_pool);
        let out = run_prefilter(&data, 8, 2);
        assert_eq!(out.values.len(), out.orig.len() * 3);
        assert_eq!(out.l1.len(), out.orig.len());
        for (k, &o) in out.orig.iter().enumerate() {
            assert_eq!(&out.values[k * 3..k * 3 + 3], data.row(o as usize));
            assert!((out.l1[k] - crate::norms::l1(data.row(o as usize))).abs() < 1e-5);
        }
    }

    #[test]
    fn duplicates_of_queue_members_survive() {
        // A coincident copy of the best point must not be flagged.
        let mut rows = vec![vec![0.0f32, 0.0], vec![0.0, 0.0]];
        rows.extend((0..100).map(|i| vec![1.0 + i as f32, 1.0]));
        let data = Dataset::from_rows(&rows).unwrap();
        let out = run_prefilter(&data, 4, 2);
        assert!(out.orig.contains(&0));
        assert!(out.orig.contains(&1));
    }

    /// Pre-filter survivors and the DT count it charged.
    fn survivors_and_dts(data: &Dataset, beta: usize, threads: usize) -> (Vec<u32>, u64) {
        let pool = ThreadPool::new(threads);
        let counters = LaneCounters::new(pool.threads());
        let out = prefilter(data.values(), data.dims(), beta, &pool, &counters);
        (out.orig, counters.total())
    }

    #[test]
    fn same_survivors_and_work_at_every_thread_count() {
        let gen_pool = ThreadPool::new(2);
        for dist in [
            Distribution::Correlated,
            Distribution::Independent,
            Distribution::Anticorrelated,
        ] {
            let data = generate(dist, 30_000, 6, 5, &gen_pool);
            let at_one = survivors_and_dts(&data, 8, 1);
            for threads in [2, 4] {
                assert_eq!(
                    survivors_and_dts(&data, 8, threads),
                    at_one,
                    "{dist:?} T = {threads}"
                );
            }
        }
    }

    /// The DT charge, restated row by row: pass 1 tests a point against
    /// its stripe's queue slots in groups of 8 (one tile each, charged
    /// its live lanes) until one dominates; pass 2 tests every pass-1
    /// survivor against the `(L1, index)`-sorted union, charging the
    /// first 8 members, then 16 at a time through the group holding the
    /// first dominator (`TileStore::any_dominates`'s rule).
    fn reference(data: &Dataset, beta: usize) -> (Vec<u32>, u64) {
        let n = data.len();
        let l1 = |i: usize| crate::norms::l1(data.row(i));
        let sd = |p: usize, q: usize| crate::dominance::dt(data.row(p), data.row(q));
        let mut dts = 0u64;
        let mut union: Vec<(f32, u32)> = Vec::new();
        let mut kept: Vec<u32> = Vec::new();
        let stripe_len = n.div_ceil(STRIPES).max(1);
        for start in (0..n).step_by(stripe_len) {
            let mut queue: Vec<(f32, u32)> = Vec::new();
            for i in start..(start + stripe_len).min(n) {
                if queue.len() < beta {
                    queue.push((l1(i), i as u32));
                    kept.push(i as u32);
                    continue;
                }
                let max_at = (0..beta)
                    .max_by(|&a, &b| queue[a].partial_cmp(&queue[b]).unwrap())
                    .unwrap();
                if l1(i) < queue[max_at].0 {
                    queue[max_at] = (l1(i), i as u32);
                    kept.push(i as u32);
                    continue;
                }
                let mut dominated = false;
                for tile in queue.chunks(TILE_LANES) {
                    dts += tile.len() as u64;
                    if tile.iter().any(|&(_, p)| sd(p as usize, i)) {
                        dominated = true;
                        break;
                    }
                }
                if !dominated {
                    kept.push(i as u32);
                }
            }
            union.extend(queue);
        }
        union.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let survivors = kept
            .into_iter()
            .filter(|&i| {
                let (mut lo, mut width) = (0, TILE_LANES);
                while lo < union.len() {
                    let hi = (lo + width).min(union.len());
                    dts += (hi - lo) as u64;
                    if union[lo..hi]
                        .iter()
                        .any(|&(_, p)| sd(p as usize, i as usize))
                    {
                        return false;
                    }
                    lo = hi;
                    width = 2 * TILE_LANES;
                }
                true
            })
            .collect();
        (survivors, dts)
    }

    #[test]
    fn reference_accountant_reproduces_the_dt_charge() {
        let gen_pool = ThreadPool::new(2);
        for dist in [
            Distribution::Correlated,
            Distribution::Independent,
            Distribution::Anticorrelated,
        ] {
            let data = generate(dist, 3_000, 4, 17, &gen_pool);
            for beta in [1, 8, 12, 32] {
                assert_eq!(
                    survivors_and_dts(&data, beta, 2),
                    reference(&data, beta),
                    "{dist:?} β = {beta}"
                );
            }
        }
        let tiny = generate(Distribution::Independent, 20, 3, 2, &gen_pool);
        assert_eq!(survivors_and_dts(&tiny, 8, 2), reference(&tiny, 8));
    }

    #[test]
    fn beta_one_and_empty_input() {
        let gen_pool = ThreadPool::new(1);
        let data = generate(Distribution::Independent, 200, 2, 9, &gen_pool);
        let out = run_prefilter(&data, 1, 1);
        let sky: std::collections::HashSet<u32> = naive_skyline(&data).into_iter().collect();
        let kept: std::collections::HashSet<u32> = out.orig.iter().copied().collect();
        assert!(sky.is_subset(&kept));
        let empty = Dataset::from_flat(vec![], 2).unwrap();
        let out = run_prefilter(&empty, 8, 2);
        assert_eq!(out.orig.len(), 0);
    }
}
