//! Hybrid (paper §VI): the full multicore skyline algorithm.
//!
//! Hybrid is Q-Flow's flow of control with the third DT-avoidance
//! technique layered in: *region-wise incomparability* via point-based
//! partitioning. The pipeline is
//!
//! 1. **pre-filter** (§VI-A1): two parallel tile-kernel passes with one
//!    β-queue per fixed stripe of the input drop the easily dominated
//!    bulk, the same rows at every thread count (see [`crate::prefilter`]);
//! 2. **pivot & partition** (§VI-A2): every survivor gets a bitmask
//!    relative to a (possibly virtual) pivot; for concrete skyline-point
//!    pivots, the all-ones region is dropped outright;
//! 3. **sort** (§VI-A3): by the compound key `(|m| ≪ d) | m`, then L1 —
//!    one integer comparison orders by (level, mask);
//! 4. **α-blocks**: Phase I consults the two-level `SkyStructure`
//!    (Algorithm 3), Phase II decomposes the peer scan into three loops
//!    with successively stronger assumptions (Algorithm 4), and confirmed
//!    points enter the structure via Algorithm 2.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use super::skystruct::SkyStructure;
use crate::dominance::dt;
use crate::dominance::simd::{ColumnRange, TileStore, TILE_LANES};
use crate::masks::{can_dominate, full_mask, level, mask_and_eq, CompoundKey, Mask};
use crate::norms::f32_order_bits;
use crate::pivot::select_pivot;
use crate::prefilter::prefilter;
use crate::sorted::{order_tied_runs, par_fill_rows, TiedRows};
use crate::telemetry::{AlgoPhase, PhaseProbe};
use crate::{SkylineConfig, SkylineResult};
use skyline_data::Dataset;
use skyline_parallel::{par_collect, par_sort_by_key, parallel_for_in_lane, ThreadPool};

/// Hybrid's working set after initialization: rows gathered in
/// (level, mask, L1) order with their level-1 masks.
#[derive(Debug)]
struct HybridWork {
    d: usize,
    values: Vec<f32>,
    masks: Vec<Mask>,
    orig: Vec<u32>,
}

impl HybridWork {
    #[inline]
    fn row(&self, i: usize) -> &[f32] {
        &self.values[i * self.d..(i + 1) * self.d]
    }
}

/// Sorted `(key, position)` items over the survivors' rows: items tie
/// when their whole key, (level, mask) and L1, does.
struct TiedItems<'a> {
    items: &'a mut [(u64, u32)],
    values: &'a [f32],
    d: usize,
}

impl TiedRows for TiedItems<'_> {
    fn count(&self) -> usize {
        self.items.len()
    }

    fn tied(&self, i: usize) -> bool {
        self.items[i].0 == self.items[i + 1].0
    }

    fn row(&self, i: usize) -> &[f32] {
        let at = self.items[i].1 as usize * self.d;
        &self.values[at..at + self.d]
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.items.swap(i, j);
    }
}

/// Runs Hybrid with block size `cfg.alpha_hybrid` and pivot `cfg.pivot`.
pub fn run(data: &Dataset, pool: &ThreadPool, cfg: &SkylineConfig) -> SkylineResult {
    run_with_progress(data, pool, cfg, |_| {})
}

/// Runs Hybrid, invoking `on_block` with each confirmed batch of skyline
/// points (original dataset indices), enabling progressive consumption.
pub fn run_with_progress(
    data: &Dataset,
    pool: &ThreadPool,
    cfg: &SkylineConfig,
    mut on_block: impl FnMut(&[u32]),
) -> SkylineResult {
    let mut probe = PhaseProbe::start(cfg, pool.threads());
    let counters = Arc::clone(probe.counters());
    let d = data.dims();
    let full = full_mask(d);
    let alpha = cfg.alpha_hybrid.max(1);

    // ---- 1. Pre-filter --------------------------------------------------
    let pf = prefilter(data.values(), d, cfg.prefilter_beta, pool, &counters);
    probe.lap(AlgoPhase::Prefilter);
    if pf.orig.is_empty() {
        return probe.finish(Vec::new());
    }

    // ---- 2. Pivot selection & partitioning -------------------------------
    // Each survivor becomes a sort item keyed [compound (level, mask) : 32]
    // [L1 order bits : 32] beside its position; `par_collect` keeps
    // position order and the sort is stable, so ties stay in position
    // order. The mask is read back from the key. The
    // same pass takes the kept rows' column range, which the code tiles
    // of Phases I and II quantise against.
    let pivot = select_pivot(cfg.pivot, &pf.values, d, &pf.l1, cfg.seed, pool);
    let npf = pf.orig.len();
    let bounds = Mutex::new(ColumnRange::empty(d));
    let mut items = par_collect(pool, npf, 1 << 12, |rows, keep| {
        let mut local = ColumnRange::empty(d);
        for i in rows {
            let row = &pf.values[i * d..(i + 1) * d];
            let (m, eq) = mask_and_eq(row, &pivot.coords);
            // A concrete pivot is a known skyline point: everything
            // (non-coincident) in its all-ones region is dominated by it
            // and can be dropped before sorting ("2^d − 1 regions").
            // Virtual pivots (Median) give no such licence.
            if pivot.concrete && m == full && !eq {
                continue;
            }
            local.include(row);
            let key = ((CompoundKey::new(m, d).0 as u64) << 32) | f32_order_bits(pf.l1[i]) as u64;
            keep.push((key, i as u32));
        }
        bounds.lock().expect("bounds lock").union(&local);
    });
    let bounds = bounds.into_inner().expect("bounds lock");
    // Mask computations against the pivot are part() evaluations — one DT
    // each under the paper's accounting.
    counters.add(0, npf as u64);
    probe.lap(AlgoPhase::Pivot);

    // ---- 3. Sort by (level, mask, L1) -------------------------------------
    // A float L1 tie inside one partition can hide a dominance pair;
    // such runs are put in dominance order.
    par_sort_by_key(pool, &mut items, |&(key, _)| key);
    let mut tied = TiedItems {
        items: &mut items,
        values: &pf.values,
        d,
    };
    order_tied_runs(&mut tied, pool);

    let n = items.len();
    let mut ws = HybridWork {
        d,
        values: vec![0.0f32; n * d],
        masks: vec![0; n],
        orig: vec![0; n],
    };
    par_fill_rows(
        pool,
        d,
        &mut ws.values,
        &mut ws.masks,
        &mut ws.orig,
        |first, rows, masks, orig| {
            let sorted = &items[first..first + masks.len()];
            for (((dst, mask), slot), &(key, pos)) in
                rows.chunks_exact_mut(d).zip(masks).zip(orig).zip(sorted)
            {
                let pos = pos as usize;
                dst.copy_from_slice(&pf.values[pos * d..(pos + 1) * d]);
                *mask = CompoundKey((key >> 32) as u32).mask(d);
                *slot = pf.orig[pos];
            }
        },
    );
    drop(items);
    probe.lap(AlgoPhase::Init);

    // ---- 4. α-block processing -------------------------------------------
    let mut sky = SkyStructure::new(&bounds);
    let flags: Vec<AtomicBool> = (0..alpha).map(|_| AtomicBool::new(false)).collect();
    let mut emitted = 0usize;

    let mut blk_start = 0;
    while blk_start < n {
        let blk_len = alpha.min(n - blk_start);
        reset_flags(&flags, blk_len);

        // Phase I: compareToSky via M(S) (Algorithm 3).
        {
            let (ws, sky, flags, counters) = (&ws, &sky, &flags, &counters);
            parallel_for_in_lane(pool, blk_len, 16, |lane, range| {
                let mut dts = 0u64;
                for r in range {
                    let q = ws.row(blk_start + r);
                    if sky.dominates(q, ws.masks[blk_start + r], &mut dts) {
                        flags[r].store(true, Ordering::Relaxed);
                    }
                }
                counters.add(lane, dts);
            });
        }
        probe.lap(AlgoPhase::PhaseOne);

        let survivors = compress(&mut ws, blk_start, blk_len, &flags);
        probe.lap(AlgoPhase::Compress);

        // Phase II: compareToPeers (Algorithm 4). The compressed
        // survivors are tiled once so the same-partition loop (the one
        // with no mask filter to hide behind) can run the batched
        // kernel — but only when the block actually contains a
        // same-partition run long enough to batch (one O(survivors)
        // pass over the sorted masks); fine-grained blocks skip the
        // build and keep the scalar loop.
        reset_flags(&flags, survivors);
        let tile_from = 2 * TILE_LANES;
        let mut max_run = 0usize;
        let mut run = 0usize;
        for j in 0..survivors {
            if j > 0 && ws.masks[blk_start + j] == ws.masks[blk_start + j - 1] {
                run += 1;
            } else {
                run = 1;
            }
            max_run = max_run.max(run);
        }
        let tiled = max_run >= tile_from;
        let mut peer_tiles = TileStore::with_range(&bounds, if tiled { survivors } else { 0 });
        if tiled {
            for j in 0..survivors {
                peer_tiles.push(ws.row(blk_start + j));
            }
        }
        {
            let (ws, peer_tiles, flags, counters) = (&ws, &peer_tiles, &flags, &counters);
            parallel_for_in_lane(pool, survivors, 8, |lane, range| {
                let mut dts = 0u64;
                for r in range {
                    if dominated_by_peers(ws, peer_tiles, blk_start, r, &mut dts) {
                        flags[r].store(true, Ordering::Relaxed);
                    }
                }
                counters.add(lane, dts);
            });
        }
        probe.lap(AlgoPhase::PhaseTwo);

        let confirmed = compress(&mut ws, blk_start, survivors, &flags);
        probe.lap(AlgoPhase::Compress);

        // Update S and M(S) (Algorithm 2).
        let mut dts = 0u64;
        sky.append_block(
            &ws.values[blk_start * d..(blk_start + confirmed) * d],
            &ws.masks[blk_start..blk_start + confirmed],
            &ws.orig[blk_start..blk_start + confirmed],
            &mut dts,
        );
        counters.add(0, dts);
        on_block(&ws.orig[blk_start..blk_start + confirmed]);
        emitted += confirmed;
        debug_assert_eq!(emitted, sky.len());

        blk_start += blk_len;
    }

    probe.lap(AlgoPhase::Compress); // trailing structure updates
    probe.finish(sky.into_indices())
}

/// Algorithm 4: is block point `me` (relative index, position
/// `blk_start + me`) dominated by a preceding Phase-I survivor?
///
/// The peer scan decomposes into three consecutive loops over the
/// (level, mask, L1)-sorted block:
/// 1. peers at strictly lower levels — mask filter, then DT (scalar:
///    the mask filter rejects most peers before any coordinate is
///    read, which a gathered tile could not exploit);
/// 2. peers at the same level but a different (smaller) mask — all
///    incomparable by Property 1, skipped wholesale;
/// 3. peers in the same partition — full DTs; *long* runs are batched
///    through `peer_tiles` (the survivors in block order, so the run
///    `[i, me)` is one range scan), short runs stay scalar with
///    per-peer early exit.
///
/// Peers that another lane flags concurrently are still tested: a
/// dominated peer's dominator chain ends at an undominated earlier peer
/// (chains cannot leave the block — Phase I survivors are not dominated
/// by anything older), so testing them changes no answer, and not
/// skipping them keeps the DT count independent of the schedule.
#[inline]
fn dominated_by_peers(
    ws: &HybridWork,
    peer_tiles: &TileStore,
    blk_start: usize,
    me: usize,
    dts: &mut u64,
) -> bool {
    let me_mask = ws.masks[blk_start + me];
    let me_level = level(me_mask);
    let q = ws.row(blk_start + me);

    let mut i = 0;
    while i < me {
        let m = ws.masks[blk_start + i];
        if level(m) >= me_level {
            break;
        }
        if can_dominate(m, me_mask) {
            *dts += 1;
            if dt(ws.row(blk_start + i), q) {
                return true;
            }
        }
        i += 1;
    }
    // Same level, different mask ⇒ incomparable (Property 1).
    while i < me && ws.masks[blk_start + i] != me_mask {
        i += 1;
    }
    // Same partition: no assumption possible. Long runs go through the
    // batched kernel; short runs keep the scalar early exit.
    if me - i >= 2 * TILE_LANES && !peer_tiles.is_empty() {
        return peer_tiles.any_dominates_range(i, me, q, dts);
    }
    while i < me {
        *dts += 1;
        if dt(ws.row(blk_start + i), q) {
            return true;
        }
        i += 1;
    }
    false
}

#[inline]
fn reset_flags(flags: &[AtomicBool], len: usize) {
    for f in &flags[..len] {
        f.store(false, Ordering::Relaxed);
    }
}

/// Shifts unflagged rows (values, masks, orig) left within the block;
/// returns the survivor count. Sequential O(α·d), as in the paper.
fn compress(ws: &mut HybridWork, blk_start: usize, blk_len: usize, flags: &[AtomicBool]) -> usize {
    let d = ws.d;
    let mut w = 0;
    // Read cursor r / write cursor w walk several parallel arrays.
    #[allow(clippy::needless_range_loop)]
    for r in 0..blk_len {
        if flags[r].load(Ordering::Relaxed) {
            continue;
        }
        if w != r {
            let src = (blk_start + r) * d;
            let dst = (blk_start + w) * d;
            ws.values.copy_within(src..src + d, dst);
            ws.masks[blk_start + w] = ws.masks[blk_start + r];
            ws.orig[blk_start + w] = ws.orig[blk_start + r];
        }
        w += 1;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PivotStrategy;
    use crate::verify::{check_skyline, naive_skyline};
    use skyline_data::{generate, quantize, Distribution};

    #[test]
    fn matches_naive_across_alphas_and_threads() {
        let gen_pool = ThreadPool::new(2);
        let data = generate(Distribution::Anticorrelated, 1_200, 5, 31, &gen_pool);
        let expect = naive_skyline(&data);
        for t in [1, 2, 4] {
            let pool = ThreadPool::new(t);
            for alpha in [1usize, 5, 64, 1024, 1 << 20] {
                let cfg = SkylineConfig {
                    alpha_hybrid: alpha,
                    ..Default::default()
                };
                let r = run(&data, &pool, &cfg);
                assert_eq!(r.indices, expect, "t = {t}, alpha = {alpha}");
            }
        }
    }

    #[test]
    fn every_pivot_strategy_is_correct() {
        let pool = ThreadPool::new(2);
        for dist in [
            Distribution::Correlated,
            Distribution::Independent,
            Distribution::Anticorrelated,
        ] {
            let data = generate(dist, 900, 4, 8, &pool);
            let expect = naive_skyline(&data);
            for strat in PivotStrategy::ALL {
                let cfg = SkylineConfig {
                    pivot: strat,
                    ..Default::default()
                };
                let r = run(&data, &pool, &cfg);
                assert_eq!(r.indices, expect, "{dist:?} pivot {strat:?}");
            }
        }
    }

    #[test]
    fn duplicates_and_heavy_ties() {
        let pool = ThreadPool::new(4);
        for levels in [2u32, 5, 16] {
            let data = quantize(
                &generate(Distribution::Independent, 2_000, 4, 6, &pool),
                levels,
            );
            let r = run(&data, &pool, &SkylineConfig::default());
            check_skyline(&data, &r.indices).unwrap();
        }
    }

    #[test]
    fn high_dimensions() {
        let pool = ThreadPool::new(2);
        let data = generate(Distribution::Independent, 400, 16, 4, &pool);
        let r = run(&data, &pool, &SkylineConfig::default());
        assert_eq!(r.indices, naive_skyline(&data));
    }

    #[test]
    fn progressive_blocks_concatenate() {
        let pool = ThreadPool::new(2);
        let data = generate(Distribution::Independent, 3_000, 4, 19, &pool);
        let cfg = SkylineConfig {
            alpha_hybrid: 128,
            ..Default::default()
        };
        let mut streamed = Vec::new();
        let r = run_with_progress(&data, &pool, &cfg, |b| streamed.extend_from_slice(b));
        streamed.sort_unstable();
        assert_eq!(streamed, r.indices);
    }

    #[test]
    fn hybrid_needs_fewer_dts_than_qflow() {
        // The whole point of the partitioning (§VII): region-wise
        // incomparability slashes Phase I DTs on independent data.
        let pool = ThreadPool::new(2);
        let data = generate(Distribution::Independent, 8_000, 8, 13, &pool);
        let cfg = SkylineConfig::default();
        let hy = run(&data, &pool, &cfg);
        let qf = crate::algo::qflow::run(&data, &pool, &cfg);
        assert_eq!(hy.indices, qf.indices);
        assert!(
            hy.stats.dominance_tests * 2 < qf.stats.dominance_tests,
            "Hybrid {} DTs vs Q-Flow {}",
            hy.stats.dominance_tests,
            qf.stats.dominance_tests
        );
    }

    #[test]
    fn phase_breakdown_covers_hybrid_categories() {
        let pool = ThreadPool::new(2);
        let data = generate(Distribution::Independent, 30_000, 8, 2, &pool);
        let r = run(&data, &pool, &SkylineConfig::default());
        assert!(r.stats.prefilter > std::time::Duration::ZERO);
        assert!(r.stats.pivot > std::time::Duration::ZERO);
        assert!(r.stats.phase1 > std::time::Duration::ZERO);
    }

    /// Same work, pinned: Hybrid's dominance tests on a fixed
    /// anticorrelated 20 000 × 6 input at the default configuration,
    /// the same number at T = 1 and T = 2. It holds at every dispatch
    /// level (`SKYLINE_FORCE_SCALAR=1` included); `algo::tests::
    /// work_is_pinned` pins the small tuned-α case beside the others.
    #[test]
    fn dominance_tests_are_pinned() {
        let data = generate(
            Distribution::Anticorrelated,
            20_000,
            6,
            1,
            &ThreadPool::new(1),
        );
        for threads in [1, 2] {
            let pool = ThreadPool::new(threads);
            let r = run(&data, &pool, &SkylineConfig::default());
            assert_eq!(
                (r.indices.len(), r.stats.dominance_tests),
                (9_121, 11_340_111),
                "T = {threads}"
            );
        }
    }

    #[test]
    fn degenerate_inputs() {
        let pool = ThreadPool::new(2);
        let cfg = SkylineConfig::default();
        let empty = Dataset::from_flat(vec![], 3).unwrap();
        assert!(run(&empty, &pool, &cfg).indices.is_empty());
        let one = Dataset::from_rows(&[vec![2.0, 1.0]]).unwrap();
        assert_eq!(run(&one, &pool, &cfg).indices, vec![0]);
        let identical = Dataset::from_rows(&vec![vec![1.0, 2.0]; 100]).unwrap();
        assert_eq!(
            run(&identical, &pool, &cfg).indices,
            (0..100u32).collect::<Vec<_>>()
        );
    }
}
