//! Sort-Filter-Skyline (SFS), Chomicki et al., ICDE 2003.
//!
//! Presort by a monotone key (L1 by default — the paper's choice, §III:
//! "points are compared first to other points that are closer to the
//! origin, since they are the most likely to prune"). After sorting, a
//! point can only be dominated by an *earlier* point, and every survivor
//! is immediately known to be a skyline point, so the window is exactly
//! the skyline-so-far and only one dominance direction is ever tested.
//!
//! The window is held as a [`TileStore`] of 16-point code tiles, coded
//! against the column range the sort's key pass takes, so each scan
//! step tests the candidate against 16 window points with the batched
//! SIMD kernel instead of 16 one-vs-one row scans.

use crate::dominance::simd::TileStore;
use crate::sorted::build_workset;
use crate::telemetry::{AlgoPhase, PhaseProbe};
use crate::{SkylineConfig, SkylineResult};
use skyline_data::Dataset;
use skyline_parallel::ThreadPool;

/// Runs SFS with `cfg.sort_key` (the sort uses `pool`; the scan itself is
/// sequential).
pub fn run(data: &Dataset, pool: &ThreadPool, cfg: &SkylineConfig) -> SkylineResult {
    let mut probe = PhaseProbe::start(cfg, 1);

    let ws = build_workset(data.values(), data.dims(), None, cfg.sort_key, pool);
    probe.lap(AlgoPhase::Init);

    let mut dts: u64 = 0;
    let mut sky: Vec<u32> = Vec::new(); // positions into ws, ascending
    let mut window = TileStore::with_range(&ws.range, 0);
    for i in 0..ws.len() {
        let p = ws.row(i);
        // Sort order means insertion order is "most likely pruners
        // first"; the tile scan preserves it at tile granularity.
        if window.any_dominates(p, &mut dts) {
            continue;
        }
        window.push(p);
        sky.push(i as u32);
    }
    probe.counters().add(0, dts);
    probe.lap(AlgoPhase::PhaseOne);

    let indices = sky.into_iter().map(|s| ws.orig[s as usize]).collect();
    probe.finish(indices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SortKey;
    use crate::verify::naive_skyline;
    use skyline_data::{generate, Distribution};

    #[test]
    fn matches_naive_on_all_sort_keys() {
        let pool = ThreadPool::new(2);
        let data = generate(Distribution::Anticorrelated, 600, 4, 21, &pool);
        let expect = naive_skyline(&data);
        for key in [SortKey::L1, SortKey::Entropy, SortKey::MinCoord] {
            let cfg = SkylineConfig {
                sort_key: key,
                ..Default::default()
            };
            assert_eq!(run(&data, &pool, &cfg).indices, expect, "{key:?}");
        }
    }

    #[test]
    fn entropy_key_orders_large_coordinates() {
        // Coordinates around 5·10⁵ overflow a naive softplus (eˣ = +∞),
        // which ties every key; the sort must still be dominance-consistent.
        let pool = ThreadPool::new(2);
        let base = generate(Distribution::Anticorrelated, 600, 4, 21, &pool);
        let flat = base.values().iter().map(|&v| 5.0e5 * (1.0 + v)).collect();
        let data = Dataset::from_flat(flat, 4).unwrap();
        let cfg = SkylineConfig {
            sort_key: SortKey::Entropy,
            ..Default::default()
        };
        assert_eq!(run(&data, &pool, &cfg).indices, naive_skyline(&data));
    }

    #[test]
    fn entropy_key_orders_rows_one_ulp_apart() {
        // 0.30000004 and the next float: a softplus that sums a rising and
        // a falling term gives the larger one the smaller key, and SFS's
        // final window inserts would keep the dominated row.
        let (lo, hi) = (f32::from_bits(0x3e99_999b), f32::from_bits(0x3e99_999c));
        let data = Dataset::from_flat(vec![hi, 0.7, lo, 0.7], 2).unwrap();
        let cfg = SkylineConfig {
            sort_key: SortKey::Entropy,
            ..Default::default()
        };
        let pool = ThreadPool::new(1);
        assert_eq!(run(&data, &pool, &cfg).indices, naive_skyline(&data));
    }

    #[test]
    fn window_is_skyline_only() {
        // Every window insertion in SFS is final: verify via DT count on a
        // chain where each point is pruned by the first window entry.
        let rows: Vec<Vec<f32>> = (0..100).map(|i| vec![i as f32, i as f32]).collect();
        let data = Dataset::from_rows(&rows).unwrap();
        let pool = ThreadPool::new(1);
        let r = run(&data, &pool, &SkylineConfig::default());
        assert_eq!(r.indices, vec![0]);
        // 99 pruned points × 1 DT each.
        assert_eq!(r.stats.dominance_tests, 99);
    }

    #[test]
    fn init_time_is_recorded() {
        let pool = ThreadPool::new(2);
        let data = generate(Distribution::Independent, 5_000, 6, 1, &pool);
        let r = run(&data, &pool, &SkylineConfig::default());
        assert!(r.stats.init > std::time::Duration::ZERO);
        assert_eq!(r.stats.skyline_size, r.indices.len());
    }

    #[test]
    fn coincident_points_survive_together() {
        let data = Dataset::from_rows(&[vec![2.0, 2.0], vec![1.0, 3.0], vec![1.0, 3.0]]).unwrap();
        let pool = ThreadPool::new(1);
        let r = run(&data, &pool, &SkylineConfig::default());
        assert_eq!(r.indices, vec![0, 1, 2]);
    }
}
