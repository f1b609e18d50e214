//! APSkyline, Liknes/Vlachou/Doulkeridis/Nørvåg, DASFAA 2014 — the other
//! multicore algorithm in the paper's related work (§III): PSkyline's
//! map/merge flow with *angle-based* rather than linear partitioning.
//!
//! Points are ranked by their first hyperspherical angle
//! `φ₁ = atan2(‖x₂..x_d‖, x₁)` (after shifting coordinates to be
//! non-negative) and cut into equi-depth angular slices, one per thread.
//! A cone of similar angles contains points that are likely *comparable*,
//! so local skylines come out small and the merge phase — PSkyline's
//! weakness — shrinks. The published algorithm refines the split
//! recursively over several angles for large thread counts; with one
//! angle we reproduce its behaviour for the small `t` it was evaluated at
//! (the paper notes its experiments "consider d = 5 at most").

use std::sync::Arc;

use crate::algo::pskyline::pmerge;
use crate::algo::sskyline::sskyline_in_place;
use crate::telemetry::{AlgoPhase, PhaseProbe};
use crate::{SkylineConfig, SkylineResult};
use skyline_data::Dataset;
use skyline_parallel::{par_chunks_mut, parallel_for_in_lane, ThreadPool};

/// Runs APSkyline with `pool.threads()` angular partitions.
pub fn run(data: &Dataset, pool: &ThreadPool, cfg: &SkylineConfig) -> SkylineResult {
    let n = data.len();
    let d = data.dims();
    let t = pool.threads();
    let mut probe = PhaseProbe::start(cfg, t);
    let counters = Arc::clone(probe.counters());

    if n == 0 {
        return probe.finish(Vec::new());
    }

    // ---- Partitioning: equi-depth slices of the first hyperspherical
    // angle. Coordinates are shifted per-dimension so the origin is the
    // ideal corner, as the published algorithm assumes.
    let mut mins = vec![f32::INFINITY; d];
    for row in data.rows() {
        for (m, &v) in mins.iter_mut().zip(row) {
            *m = m.min(v);
        }
    }
    let mut keyed: Vec<(u64, u32)> = vec![(0, 0); n];
    {
        let mins = &mins;
        par_chunks_mut(pool, &mut keyed, 1 << 12, |offset, chunk| {
            for (k, slot) in chunk.iter_mut().enumerate() {
                let i = offset + k;
                let row = data.row(i);
                let x1 = (row[0] - mins[0]) as f64;
                let rest: f64 = row[1..]
                    .iter()
                    .zip(&mins[1..])
                    .map(|(&v, &m)| ((v - m) as f64).powi(2))
                    .sum::<f64>()
                    .sqrt();
                // angle ∈ [0, π/2]; non-negative finite f64 bits order
                // identically to the float values.
                let angle = rest.atan2(x1);
                *slot = (angle.to_bits(), i as u32);
            }
        });
    }
    // Angles are non-negative finite f64s, so their raw bits order
    // correctly as u64; the stable sort keeps equal angles in position
    // order.
    skyline_parallel::par_sort_by_key(pool, &mut keyed, |&(angle, _)| angle);
    let slice_len = n.div_ceil(t).max(1);
    probe.lap(AlgoPhase::Init);

    // ---- Phase I: local skyline per angular slice ----------------------
    let slices: Vec<(usize, usize)> = (0..t)
        .map(|b| (b * slice_len, ((b + 1) * slice_len).min(n)))
        .filter(|(s, e)| s < e)
        .collect();
    let results: Vec<std::sync::Mutex<Vec<u32>>> = (0..slices.len())
        .map(|_| std::sync::Mutex::new(Vec::new()))
        .collect();
    {
        let (keyed, slices, results) = (&keyed, &slices, &results);
        parallel_for_in_lane(pool, slices.len(), 1, |lane, range| {
            for b in range {
                let (s, e) = slices[b];
                let mut idxs: Vec<u32> = keyed[s..e].iter().map(|&(_, i)| i).collect();
                let dts = sskyline_in_place(data, &mut idxs);
                counters.add(lane, dts);
                *results[b].lock().expect("unpoisoned") = idxs;
            }
        });
    }
    probe.lap(AlgoPhase::PhaseOne);

    // ---- Phase II: fold-merge, exactly as PSkyline ----------------------
    let mut merged: Vec<u32> = Vec::new();
    for slot in &results {
        let local = std::mem::take(&mut *slot.lock().expect("unpoisoned"));
        merged = if merged.is_empty() {
            local
        } else {
            pmerge(data, merged, local, pool, &counters)
        };
    }
    probe.lap(AlgoPhase::PhaseTwo);
    probe.finish(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_skyline, naive_skyline};
    use skyline_data::{generate, quantize, Distribution};

    #[test]
    fn matches_naive_across_thread_counts() {
        let gen_pool = ThreadPool::new(2);
        let data = generate(Distribution::Anticorrelated, 1_000, 4, 77, &gen_pool);
        let expect = naive_skyline(&data);
        for t in [1, 2, 3, 8] {
            let pool = ThreadPool::new(t);
            let r = run(&data, &pool, &SkylineConfig::default());
            assert_eq!(r.indices, expect, "t = {t}");
        }
    }

    #[test]
    fn every_distribution_and_duplicates() {
        let pool = ThreadPool::new(4);
        for dist in [
            Distribution::Correlated,
            Distribution::Independent,
            Distribution::Anticorrelated,
        ] {
            let data = quantize(&generate(dist, 900, 5, 3, &pool), 12);
            let r = run(&data, &pool, &SkylineConfig::default());
            check_skyline(&data, &r.indices).unwrap();
        }
    }

    #[test]
    fn angle_slices_beat_linear_slices_on_anticorrelated_merge() {
        // The point of angle partitioning: smaller local skylines on
        // anticorrelated data than a linear cut, hence fewer merge DTs.
        let pool = ThreadPool::new(4);
        let data = generate(Distribution::Anticorrelated, 8_000, 4, 5, &pool);
        let cfg = SkylineConfig::default();
        let ap = run(&data, &pool, &cfg);
        let ps = crate::algo::pskyline::run(&data, &pool, &cfg);
        assert_eq!(ap.indices, ps.indices);
        assert!(
            ap.stats.dominance_tests < ps.stats.dominance_tests,
            "APSkyline {} DTs vs PSkyline {}",
            ap.stats.dominance_tests,
            ps.stats.dominance_tests
        );
    }

    #[test]
    fn negative_coordinates_are_shifted_safely() {
        let pool = ThreadPool::new(2);
        let raw = generate(Distribution::Independent, 600, 3, 11, &pool);
        let data = raw
            .with_preferences(&[
                skyline_data::Preference::Max,
                skyline_data::Preference::Min,
                skyline_data::Preference::Max,
            ])
            .unwrap();
        let r = run(&data, &pool, &SkylineConfig::default());
        assert_eq!(r.indices, naive_skyline(&data));
    }

    #[test]
    fn degenerate_inputs() {
        let pool = ThreadPool::new(3);
        let cfg = SkylineConfig::default();
        let empty = Dataset::from_flat(vec![], 3).unwrap();
        assert!(run(&empty, &pool, &cfg).indices.is_empty());
        let one = Dataset::from_rows(&[vec![1.0]]).unwrap();
        assert_eq!(run(&one, &pool, &cfg).indices, vec![0]);
    }
}
