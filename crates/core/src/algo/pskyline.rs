//! PSkyline, Im/Park/Park, Inf. Syst. 2011 — the multicore state of the
//! art that the paper compares against.
//!
//! Divide-and-conquer (paper §VII-A2): the dataset is linearly cut into
//! one block per thread; each thread computes a local skyline with
//! SSkyline (Phase I, the parallel *map*); local skylines are then folded
//! together with a parallel two-sided merge (Phase II). There is no
//! initialization phase at all — the reason PSkyline wins on easy
//! correlated workloads and collapses on hard ones, where the merge
//! inherits huge local skylines that were computed in isolation.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use crate::algo::sskyline::sskyline_in_place;
use crate::dominance::dt;
use crate::telemetry::{AlgoPhase, PhaseProbe};
use crate::{SkylineConfig, SkylineResult};
use skyline_data::Dataset;
use skyline_parallel::{parallel_for_in_lane, LaneCounters, ThreadPool};

/// Runs PSkyline on `pool.threads()` blocks.
pub fn run(data: &Dataset, pool: &ThreadPool, cfg: &SkylineConfig) -> SkylineResult {
    let n = data.len();
    let t = pool.threads();
    let mut probe = PhaseProbe::start(cfg, t);
    let counters = Arc::clone(probe.counters());

    // ---- Phase I: local skylines, one block per thread ----------------
    let block_len = n.div_ceil(t.max(1)).max(1);
    let ranges: Vec<(usize, usize)> = (0..t)
        .map(|b| (b * block_len, ((b + 1) * block_len).min(n)))
        .filter(|(s, e)| s < e)
        .collect();
    // One write-once slot per block, filled by the lane that runs it.
    let locals: Vec<OnceLock<Vec<u32>>> = (0..ranges.len()).map(|_| OnceLock::new()).collect();
    {
        let ranges = &ranges;
        let locals = &locals;
        parallel_for_in_lane(pool, ranges.len(), 1, |lane, blocks| {
            for b in blocks {
                let (s, e) = ranges[b];
                let mut idxs: Vec<u32> = (s as u32..e as u32).collect();
                let dts = sskyline_in_place(data, &mut idxs);
                counters.add(lane, dts);
                locals[b].set(idxs).expect("slot written twice");
            }
        });
    }
    probe.lap(AlgoPhase::PhaseOne);

    // ---- Phase II: fold with the parallel two-sided merge --------------
    let mut merged: Vec<u32> = Vec::new();
    for slot in locals {
        let local = slot.into_inner().expect("slot never written");
        merged = if merged.is_empty() {
            local
        } else {
            pmerge(data, merged, local, pool, &counters)
        };
    }
    probe.lap(AlgoPhase::PhaseTwo);
    probe.finish(merged)
}

/// The parallel merge of Im et al.: prune `b` against `a` (in parallel
/// over `b`), then prune `a` against the surviving `b` (in parallel over
/// `a`); the union of survivors is the skyline of `a ∪ b`. Both inputs
/// are skylines of their own subsets, so no within-side tests are needed.
pub(crate) fn pmerge(
    data: &Dataset,
    a: Vec<u32>,
    b: Vec<u32>,
    pool: &ThreadPool,
    counters: &LaneCounters,
) -> Vec<u32> {
    let b_flags: Vec<AtomicBool> = (0..b.len()).map(|_| AtomicBool::new(false)).collect();
    {
        let (a, b, b_flags) = (&a, &b, &b_flags);
        parallel_for_in_lane(pool, b.len(), 16, |lane, range| {
            let mut dts = 0u64;
            for i in range {
                let q = data.row(b[i] as usize);
                for &s in a.iter() {
                    dts += 1;
                    if dt(data.row(s as usize), q) {
                        b_flags[i].store(true, Ordering::Relaxed);
                        break;
                    }
                }
            }
            counters.add(lane, dts);
        });
    }
    let b_surv: Vec<u32> = b
        .iter()
        .zip(&b_flags)
        .filter(|(_, f)| !f.load(Ordering::Relaxed))
        .map(|(&i, _)| i)
        .collect();

    let a_flags: Vec<AtomicBool> = (0..a.len()).map(|_| AtomicBool::new(false)).collect();
    {
        let (a, b_surv, a_flags) = (&a, &b_surv, &a_flags);
        parallel_for_in_lane(pool, a.len(), 16, |lane, range| {
            let mut dts = 0u64;
            for i in range {
                let q = data.row(a[i] as usize);
                for &s in b_surv.iter() {
                    dts += 1;
                    if dt(data.row(s as usize), q) {
                        a_flags[i].store(true, Ordering::Relaxed);
                        break;
                    }
                }
            }
            counters.add(lane, dts);
        });
    }
    let mut out: Vec<u32> = a
        .iter()
        .zip(&a_flags)
        .filter(|(_, f)| !f.load(Ordering::Relaxed))
        .map(|(&i, _)| i)
        .collect();
    out.extend_from_slice(&b_surv);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_skyline, naive_skyline};
    use skyline_data::{generate, quantize, Distribution};

    #[test]
    fn matches_naive_across_thread_counts() {
        let gen_pool = ThreadPool::new(2);
        let data = generate(Distribution::Anticorrelated, 900, 4, 3, &gen_pool);
        let expect = naive_skyline(&data);
        for t in [1, 2, 3, 4, 7] {
            let pool = ThreadPool::new(t);
            let r = run(&data, &pool, &SkylineConfig::default());
            assert_eq!(r.indices, expect, "t = {t}");
        }
    }

    #[test]
    fn tiny_inputs_with_many_threads() {
        let pool = ThreadPool::new(8);
        for n in [0usize, 1, 2, 5] {
            let rows: Vec<Vec<f32>> = (0..n).map(|i| vec![i as f32, (n - i) as f32]).collect();
            let data = Dataset::from_rows(&rows).unwrap();
            let r = run(&data, &pool, &SkylineConfig::default());
            assert_eq!(r.indices, naive_skyline(&data), "n = {n}");
        }
    }

    #[test]
    fn duplicates_and_ties() {
        let pool = ThreadPool::new(4);
        let data = quantize(&generate(Distribution::Independent, 1_200, 3, 8, &pool), 5);
        let r = run(&data, &pool, &SkylineConfig::default());
        check_skyline(&data, &r.indices).unwrap();
    }

    #[test]
    fn phase_times_cover_the_run() {
        let pool = ThreadPool::new(2);
        let data = generate(Distribution::Independent, 20_000, 8, 4, &pool);
        let r = run(&data, &pool, &SkylineConfig::default());
        assert!(r.stats.phase1 + r.stats.phase2 <= r.stats.total);
        assert!(r.stats.dominance_tests > 0);
    }
}
