//! Block-nested-loops (BNL), Börzsönyi et al., ICDE 2001.
//!
//! The original skyline algorithm: stream points against a window of
//! incomparable candidates. In main memory the window is unbounded, so a
//! single pass suffices: a surviving point can only be evicted by a later
//! dominator, and evicted points never return.
//!
//! Not part of the paper's evaluation (it is strictly dominated by SFS on
//! main-memory workloads) but included as the classic baseline; it is also
//! the only algorithm here that needs *two-way* dominance tests, since the
//! input is unsorted. The window lives in a [`TileStore`] (coded
//! range-free: BNL makes no pass that could take a range), whose
//! [`offer`](TileStore::offer) runs both directions against 16 window
//! points at a time with the batched code compare (the window is
//! mutually incomparable, so a dominator anywhere rules out evictions —
//! one pass resolves the whole update).

use crate::dominance::simd::TileStore;
use crate::telemetry::{AlgoPhase, PhaseProbe};
use crate::{SkylineConfig, SkylineResult};
use skyline_data::Dataset;
use skyline_parallel::ThreadPool;

/// Runs BNL. `pool` is unused (sequential); `cfg` only carries the
/// telemetry hooks.
pub fn run(data: &Dataset, _pool: &ThreadPool, cfg: &SkylineConfig) -> SkylineResult {
    let mut probe = PhaseProbe::start(cfg, 1);
    let mut dts: u64 = 0;
    let mut window = TileStore::new(data.dims());
    let mut ids: Vec<u32> = Vec::new();

    for i in 0..data.len() {
        let p = data.row(i);
        let dominated = window.offer(p, &mut dts, |evicted| {
            // Mirror the store's swap_remove so ids track lanes.
            ids.swap_remove(evicted);
        });
        if !dominated {
            window.push(p);
            ids.push(i as u32);
        }
    }

    probe.counters().add(0, dts);
    probe.lap(AlgoPhase::PhaseOne);
    probe.finish(ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_skyline, naive_skyline};

    fn run_bnl(data: &Dataset) -> Vec<u32> {
        let pool = ThreadPool::new(1);
        run(data, &pool, &SkylineConfig::default()).indices
    }

    #[test]
    fn matches_naive_on_small_grid() {
        let rows: Vec<Vec<f32>> = (0..5)
            .flat_map(|x| (0..5).map(move |y| vec![x as f32, y as f32]))
            .collect();
        let data = Dataset::from_rows(&rows).unwrap();
        assert_eq!(run_bnl(&data), naive_skyline(&data));
    }

    #[test]
    fn eviction_path_is_exercised() {
        // Descending input forces every new point to evict the previous.
        let rows: Vec<Vec<f32>> = (0..50).rev().map(|i| vec![i as f32, i as f32]).collect();
        let data = Dataset::from_rows(&rows).unwrap();
        assert_eq!(run_bnl(&data), vec![49]);
    }

    #[test]
    fn keeps_all_duplicates() {
        let data = Dataset::from_rows(&[
            vec![1.0, 2.0],
            vec![1.0, 2.0],
            vec![1.0, 2.0],
            vec![3.0, 3.0],
        ])
        .unwrap();
        let sky = run_bnl(&data);
        assert_eq!(sky, vec![0, 1, 2]);
        check_skyline(&data, &sky).unwrap();
    }

    #[test]
    fn counts_dominance_tests() {
        let data = Dataset::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]).unwrap();
        let pool = ThreadPool::new(1);
        let r = run(&data, &pool, &SkylineConfig::default());
        assert_eq!(r.indices, vec![0]);
        assert!(r.stats.dominance_tests >= 2);
    }

    #[test]
    fn empty_input() {
        let data = Dataset::from_flat(vec![], 3).unwrap();
        assert!(run_bnl(&data).is_empty());
    }
}
