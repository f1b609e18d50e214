//! Q-Flow (paper §V, Algorithm 1): the simplified form of Hybrid that
//! demonstrates the flow of control.
//!
//! Points are sorted by L1 norm (so dominance can only flow forwards) and
//! processed in α-sized blocks against a *global, shared skyline*:
//!
//! * **Phase I** (parallel): each block point is compared, in sequential-
//!   algorithm order, against every known skyline point; dominated points
//!   are flagged.
//! * **Compression** (sequential, O(α)): surviving rows are shifted left
//!   so the layout stays contiguous and branch-free.
//! * **Phase II** (parallel): each survivor is compared against the
//!   survivors preceding it in the block — the price of parallelism, as
//!   their skyline membership is not yet known.
//! * Survivors are appended to the global skyline; the sort order
//!   guarantees no later point can dominate them, so results stream out
//!   progressively and the skyline is always correct to within α points.
//!
//! The global skyline and each block's survivor set are held as
//! [`TileStore`] code tiles, coded against the column range the sort's
//! key pass takes: Phase I tests a candidate against 16 skyline points
//! per iteration with the batched SIMD kernel, and Phase II runs the
//! peer-prefix scan the same way. Phase II never skips peers
//! flagged by concurrent workers — testing a flagged (dominated) peer is
//! harmless by transitivity of dominance, and skipping on a racy flag
//! would make the dominance-test count depend on the schedule.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::config::SortKey;
use crate::dominance::dt;
use crate::dominance::simd::TileStore;
use crate::sorted::{build_workset, WorkSet};
use crate::telemetry::{AlgoPhase, PhaseProbe};
use crate::{SkylineConfig, SkylineResult};
use skyline_data::Dataset;
use skyline_parallel::{parallel_for_in_lane, ThreadPool};

/// Runs Q-Flow with block size `cfg.alpha_qflow`.
pub fn run(data: &Dataset, pool: &ThreadPool, cfg: &SkylineConfig) -> SkylineResult {
    run_with_progress(data, pool, cfg, |_| {})
}

/// Runs Q-Flow, invoking `on_block` with each newly confirmed batch of
/// skyline points (original dataset indices) — the progressive reporting
/// the paper highlights as an advantage over divide-and-conquer (§I).
pub fn run_with_progress(
    data: &Dataset,
    pool: &ThreadPool,
    cfg: &SkylineConfig,
    mut on_block: impl FnMut(&[u32]),
) -> SkylineResult {
    let mut probe = PhaseProbe::start(cfg, pool.threads());
    let counters = Arc::clone(probe.counters());
    let d = data.dims();
    let alpha = cfg.alpha_qflow.max(1);

    // Initialization: compute L1 norms and sort (paper: "Init.").
    let mut ws = build_workset(data.values(), d, None, SortKey::L1, pool);
    probe.lap(AlgoPhase::Init);

    let n = ws.len();
    let mut sky_tiles = TileStore::with_range(&ws.range, 0);
    let mut sky_orig: Vec<u32> = Vec::new();
    let flags: Vec<AtomicBool> = (0..alpha).map(|_| AtomicBool::new(false)).collect();

    let mut blk_start = 0;
    while blk_start < n {
        let blk_len = alpha.min(n - blk_start);
        reset_flags(&flags, blk_len);

        // ---- Phase I: compare to known skyline points (Fig. 2a) -------
        {
            let (ws, sky_tiles, flags, counters) = (&ws, &sky_tiles, &flags, &counters);
            parallel_for_in_lane(pool, blk_len, 16, |lane, range| {
                let mut dts = 0u64;
                for r in range {
                    let q = ws.row(blk_start + r);
                    // Identical iteration order to a sequential algorithm
                    // — most-likely pruners (smallest L1) first — at
                    // tile granularity.
                    if sky_tiles.any_dominates(q, &mut dts) {
                        flags[r].store(true, Ordering::Relaxed);
                    }
                }
                counters.add(lane, dts);
            });
        }
        probe.lap(AlgoPhase::PhaseOne);

        let survivors = compress_block(&mut ws, blk_start, blk_len, &flags);
        probe.lap(AlgoPhase::Compress);

        // ---- Phase II: compare to surviving peers (Fig. 2b) -----------
        reset_flags(&flags, survivors);
        // Tile the (compressed, contiguous) survivors once — when the
        // block kept enough of them for batching to pay; tiny blocks
        // fall back to the scalar peer loop with its per-peer early
        // exit.
        let tiled = survivors >= 2 * crate::dominance::simd::TILE_LANES;
        let mut peer_tiles = TileStore::with_range(&ws.range, if tiled { survivors } else { 0 });
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
                    let q = ws.row(blk_start + r);
                    let dominated = if tiled {
                        peer_tiles.any_dominates_first(r, q, &mut dts)
                    } else {
                        (0..r).any(|j| {
                            dts += 1;
                            dt(ws.row(blk_start + j), q)
                        })
                    };
                    if dominated {
                        flags[r].store(true, Ordering::Relaxed);
                    }
                }
                counters.add(lane, dts);
            });
        }
        probe.lap(AlgoPhase::PhaseTwo);

        let confirmed = compress_block(&mut ws, blk_start, survivors, &flags);
        // Append the compressed block to the global skyline.
        for j in 0..confirmed {
            sky_tiles.push(ws.row(blk_start + j));
        }
        let first_new = sky_orig.len();
        sky_orig.extend_from_slice(&ws.orig[blk_start..blk_start + confirmed]);
        probe.lap(AlgoPhase::Compress);
        on_block(&sky_orig[first_new..]);

        blk_start += blk_len;
    }

    probe.finish(sky_orig)
}

#[inline]
fn reset_flags(flags: &[AtomicBool], len: usize) {
    for f in &flags[..len] {
        f.store(false, Ordering::Relaxed);
    }
}

/// Shifts unflagged rows of the block left so survivors are contiguous at
/// `blk_start` (paper §V-D). Returns the survivor count. Sequential O(α·d).
pub(crate) fn compress_block(
    ws: &mut WorkSet,
    blk_start: usize,
    blk_len: usize,
    flags: &[AtomicBool],
) -> usize {
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
            ws.keys[blk_start + w] = ws.keys[blk_start + r];
            ws.orig[blk_start + w] = ws.orig[blk_start + r];
        }
        w += 1;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_skyline, naive_skyline};
    use skyline_data::{generate, quantize, Distribution};

    #[test]
    fn matches_naive_across_alphas_and_threads() {
        let gen_pool = ThreadPool::new(2);
        let data = generate(Distribution::Anticorrelated, 1_000, 5, 77, &gen_pool);
        let expect = naive_skyline(&data);
        for t in [1, 2, 4] {
            let pool = ThreadPool::new(t);
            for alpha in [1usize, 3, 32, 512, 1 << 20] {
                let cfg = SkylineConfig {
                    alpha_qflow: alpha,
                    ..Default::default()
                };
                let r = run(&data, &pool, &cfg);
                assert_eq!(r.indices, expect, "t = {t}, alpha = {alpha}");
            }
        }
    }

    #[test]
    fn all_distributions_with_duplicates() {
        let pool = ThreadPool::new(4);
        for dist in [
            Distribution::Correlated,
            Distribution::Independent,
            Distribution::Anticorrelated,
        ] {
            let data = quantize(&generate(dist, 2_000, 4, 5, &pool), 7);
            let r = run(&data, &pool, &SkylineConfig::default());
            check_skyline(&data, &r.indices).unwrap();
        }
    }

    #[test]
    fn progressive_blocks_concatenate_to_result() {
        let pool = ThreadPool::new(2);
        let data = generate(Distribution::Independent, 3_000, 4, 9, &pool);
        let cfg = SkylineConfig {
            alpha_qflow: 256,
            ..Default::default()
        };
        let mut streamed: Vec<u32> = Vec::new();
        let r = run_with_progress(&data, &pool, &cfg, |batch| {
            streamed.extend_from_slice(batch)
        });
        streamed.sort_unstable();
        assert_eq!(streamed, r.indices);
    }

    /// The paper's α-guarantee: each point is compared to at most α more
    /// points than a sequential SFS would compare it to. We verify the
    /// weaker observable consequence: Q-Flow's DT count is bounded by
    /// SFS's plus n·α.
    #[test]
    fn dt_overhead_is_bounded_by_alpha() {
        let pool = ThreadPool::new(4);
        let data = generate(Distribution::Independent, 2_000, 4, 42, &pool);
        let alpha = 64usize;
        let cfg = SkylineConfig {
            alpha_qflow: alpha,
            ..Default::default()
        };
        let qf = run(&data, &pool, &cfg);
        let sfs = crate::algo::sfs::run(&data, &pool, &cfg);
        assert!(
            qf.stats.dominance_tests <= sfs.stats.dominance_tests + (data.len() * alpha) as u64,
            "Q-Flow DTs {} vs SFS {} + bound",
            qf.stats.dominance_tests,
            sfs.stats.dominance_tests
        );
    }

    #[test]
    fn phase_breakdown_is_populated() {
        let pool = ThreadPool::new(2);
        let data = generate(Distribution::Independent, 30_000, 8, 4, &pool);
        let r = run(&data, &pool, &SkylineConfig::default());
        assert!(r.stats.init > std::time::Duration::ZERO);
        assert!(r.stats.phase1 > std::time::Duration::ZERO);
        assert!(r.stats.parallel_fraction() > 0.0);
    }

    /// Same work, pinned: Q-Flow's dominance tests on a fixed
    /// anticorrelated 20 000 × 6 input at the default configuration,
    /// the same number at T = 1 and T = 2 (Phase II skips no peer on a
    /// flag another lane set). The count is fixed by the algorithm and
    /// the tile-granular accounting, not by the kernel, so it holds at
    /// every dispatch level (`SKYLINE_FORCE_SCALAR=1` included).
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
                (9_121, 46_454_725),
                "T = {threads}"
            );
        }
    }

    #[test]
    fn empty_and_singleton() {
        let pool = ThreadPool::new(2);
        let cfg = SkylineConfig::default();
        let empty = Dataset::from_flat(vec![], 4).unwrap();
        assert!(run(&empty, &pool, &cfg).indices.is_empty());
        let one = Dataset::from_rows(&[vec![1.0, 2.0]]).unwrap();
        assert_eq!(run(&one, &pool, &cfg).indices, vec![0]);
    }
}
