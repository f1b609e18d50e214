//! SSkyline, Im/Park/Park, Inf. Syst. 2011 — PSkyline's sequential kernel.
//!
//! An in-place nested loop over an index array, with no presorting (the
//! point: PSkyline's local phase must start instantly on raw blocks).
//! When the inner point dominates the head, the head is *replaced* by it
//! and the inner scan restarts — the published SSkyline control flow.

use crate::dominance::{compare, DomRelation};
use crate::telemetry::{AlgoPhase, PhaseProbe};
use crate::{SkylineConfig, SkylineResult};
use skyline_data::Dataset;
use skyline_parallel::ThreadPool;

/// In-place skyline of the points referenced by `idxs` (global dataset
/// indices); on return `idxs` holds exactly the skyline of that subset.
/// Returns the number of dominance tests executed.
pub(crate) fn sskyline_in_place(data: &Dataset, idxs: &mut Vec<u32>) -> u64 {
    let mut dts: u64 = 0;
    let mut head = 0;
    while head < idxs.len() {
        let mut i = head + 1;
        while i < idxs.len() {
            dts += 1;
            match compare(data.row(idxs[head] as usize), data.row(idxs[i] as usize)) {
                DomRelation::PDominatesQ => {
                    // head dominates i: evict i.
                    idxs.swap_remove(i);
                }
                DomRelation::QDominatesP => {
                    // i dominates head: i becomes the new head and the
                    // scan restarts — points previously incomparable to
                    // the old head may relate to the new one.
                    idxs[head] = idxs[i];
                    idxs.swap_remove(i);
                    i = head + 1;
                }
                DomRelation::Equal | DomRelation::Incomparable => i += 1,
            }
        }
        head += 1;
    }
    dts
}

/// Runs SSkyline over the whole dataset (sequential; `pool` unused,
/// `cfg` only carries the telemetry hooks).
pub fn run(data: &Dataset, _pool: &ThreadPool, cfg: &SkylineConfig) -> SkylineResult {
    let mut probe = PhaseProbe::start(cfg, 1);
    let mut idxs: Vec<u32> = (0..data.len() as u32).collect();
    let dts = sskyline_in_place(data, &mut idxs);
    probe.counters().add(0, dts);
    probe.lap(AlgoPhase::PhaseOne);
    probe.finish(idxs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_skyline, naive_skyline};
    use skyline_data::{generate, quantize, Distribution};

    #[test]
    fn matches_naive() {
        let pool = ThreadPool::new(2);
        for dist in [
            Distribution::Correlated,
            Distribution::Independent,
            Distribution::Anticorrelated,
        ] {
            let data = generate(dist, 500, 5, 17, &pool);
            let r = run(&data, &pool, &SkylineConfig::default());
            assert_eq!(r.indices, naive_skyline(&data), "{dist:?}");
        }
    }

    #[test]
    fn head_replacement_path() {
        // Strictly descending: every new point dominates the head.
        let rows: Vec<Vec<f32>> = (0..30).rev().map(|i| vec![i as f32, i as f32]).collect();
        let data = Dataset::from_rows(&rows).unwrap();
        let pool = ThreadPool::new(1);
        let r = run(&data, &pool, &SkylineConfig::default());
        assert_eq!(r.indices, vec![29]);
    }

    #[test]
    fn subset_kernel_respects_subset() {
        let pool = ThreadPool::new(1);
        let data = generate(Distribution::Independent, 200, 3, 9, &pool);
        // Skyline of only the even-indexed points.
        let mut idxs: Vec<u32> = (0..200u32).filter(|i| i % 2 == 0).collect();
        sskyline_in_place(&data, &mut idxs);
        idxs.sort_unstable();
        let sub_rows: Vec<Vec<f32>> = (0..200)
            .filter(|i| i % 2 == 0)
            .map(|i| data.row(i).to_vec())
            .collect();
        let sub = Dataset::from_rows(&sub_rows).unwrap();
        let expect: Vec<u32> = naive_skyline(&sub).iter().map(|&i| i * 2).collect();
        assert_eq!(idxs, expect);
    }

    #[test]
    fn duplicates_kept() {
        let pool = ThreadPool::new(1);
        let data = quantize(&generate(Distribution::Independent, 400, 2, 3, &pool), 4);
        let r = run(&data, &pool, &SkylineConfig::default());
        check_skyline(&data, &r.indices).unwrap();
    }
}
