//! PSFS — parallel SFS, the naive baseline of Im et al. (§III: "PSFS, a
//! weaker version of our Q-Flow").
//!
//! Like Q-Flow it sorts by L1 and processes α-blocks, comparing each block
//! point against the globally known skyline in parallel. Unlike Q-Flow
//! there is no parallel Phase II: the block's survivors are resolved
//! against each other *sequentially*, which caps scalability when blocks
//! retain many survivors.
//!
//! Both the global skyline and the per-block survivor window are held as
//! [`TileStore`] tiles, so every scan runs the batched one-vs-many SIMD
//! kernel.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::config::SortKey;
use crate::dominance::simd::TileStore;
use crate::sorted::build_workset;
use crate::telemetry::{AlgoPhase, PhaseProbe};
use crate::{SkylineConfig, SkylineResult};
use skyline_data::Dataset;
use skyline_parallel::{parallel_for_in_lane, ThreadPool};

/// Runs PSFS with block size `cfg.alpha_qflow`.
pub fn run(data: &Dataset, pool: &ThreadPool, cfg: &SkylineConfig) -> SkylineResult {
    let mut probe = PhaseProbe::start(cfg, pool.threads());
    let counters = Arc::clone(probe.counters());
    let d = data.dims();
    let alpha = cfg.alpha_qflow.max(1);

    let ws = build_workset(data.values(), d, None, SortKey::L1, pool);
    probe.lap(AlgoPhase::Init);

    let n = ws.len();
    let mut sky_tiles = TileStore::with_range(&ws.range, 0);
    let mut sky_orig: Vec<u32> = Vec::new();
    let flags: Vec<AtomicBool> = (0..alpha).map(|_| AtomicBool::new(false)).collect();

    let mut blk_start = 0;
    while blk_start < n {
        let blk_end = (blk_start + alpha).min(n);
        let blk_len = blk_end - blk_start;
        for f in flags.iter().take(blk_len) {
            f.store(false, Ordering::Relaxed);
        }

        // Parallel phase: prune against the known skyline (batched
        // one-vs-many over the shared tiles).
        {
            let (ws, sky_tiles, flags, counters) = (&ws, &sky_tiles, &flags, &counters);
            parallel_for_in_lane(pool, blk_len, 16, |lane, range| {
                let mut dts = 0u64;
                for r in range {
                    let q = ws.row(blk_start + r);
                    if sky_tiles.any_dominates(q, &mut dts) {
                        flags[r].store(true, Ordering::Relaxed);
                    }
                }
                counters.add(lane, dts);
            });
        }
        probe.lap(AlgoPhase::PhaseOne);

        // Sequential resolution of the block's survivors (the "weaker"
        // part): a plain SFS window over the survivors.
        let mut dts = 0u64;
        let mut block_tiles = TileStore::with_range(&ws.range, 0);
        let mut block_sky: Vec<usize> = Vec::new(); // positions in ws
        #[allow(clippy::needless_range_loop)]
        for r in 0..blk_len {
            if flags[r].load(Ordering::Relaxed) {
                continue;
            }
            let q = ws.row(blk_start + r);
            if block_tiles.any_dominates(q, &mut dts) {
                continue;
            }
            block_tiles.push(q);
            block_sky.push(blk_start + r);
        }
        counters.add(0, dts);
        for &s in &block_sky {
            sky_tiles.push(ws.row(s));
            sky_orig.push(ws.orig[s]);
        }
        probe.lap(AlgoPhase::PhaseTwo);

        blk_start = blk_end;
    }

    probe.finish(sky_orig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::naive_skyline;
    use skyline_data::{generate, quantize, Distribution};

    #[test]
    fn matches_naive_across_alphas_and_threads() {
        let gen_pool = ThreadPool::new(2);
        let data = generate(Distribution::Independent, 1_500, 4, 12, &gen_pool);
        let expect = naive_skyline(&data);
        for t in [1, 4] {
            let pool = ThreadPool::new(t);
            for alpha in [1usize, 7, 64, 100_000] {
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
    fn duplicates_survive() {
        let pool = ThreadPool::new(2);
        let data = quantize(&generate(Distribution::Anticorrelated, 800, 3, 2, &pool), 6);
        let r = run(&data, &pool, &SkylineConfig::default());
        assert_eq!(r.indices, naive_skyline(&data));
    }
}
