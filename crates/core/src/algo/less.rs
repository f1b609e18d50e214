//! LESS (Linear Elimination Sort for Skyline), Godfrey/Shipley/Gryz,
//! VLDB J 2007 — the third of the classic sort-based algorithms the paper
//! surveys (§III) alongside SFS and SaLSa.
//!
//! LESS folds dominance tests *into the sort*: an elimination-filter (EF)
//! window of a few best-by-L1 points drops most of the input before the
//! sort ever sees it, and the remainder is processed SFS-style. In this
//! main-memory adaptation the EF pass is exactly Hybrid's β-queue
//! pre-filter (§VI-A1 cites the same idea), followed by the L1 sort and
//! the SFS window scan over the survivors.

use crate::config::SortKey;
use crate::dominance::dt;
use crate::prefilter::prefilter;
use crate::sorted::build_workset;
use crate::telemetry::{AlgoPhase, PhaseProbe};
use crate::{SkylineConfig, SkylineResult};
use skyline_data::Dataset;
use skyline_parallel::ThreadPool;

/// Runs LESS with an EF window of `cfg.prefilter_beta` points per fixed
/// stripe of the input (the pre-filter's queues).
pub fn run(data: &Dataset, pool: &ThreadPool, cfg: &SkylineConfig) -> SkylineResult {
    let mut probe = PhaseProbe::start(cfg, pool.threads());
    let d = data.dims();

    // Elimination-filter pass: drops the easily dominated bulk during the
    // "sort's first pass" (here: before the sort).
    let pf = prefilter(data.values(), d, cfg.prefilter_beta, pool, probe.counters());
    probe.lap(AlgoPhase::Prefilter);

    let ws = build_workset(&pf.values, d, Some(&pf.orig), SortKey::L1, pool);
    probe.lap(AlgoPhase::Init);

    // SFS-style window scan over the survivors.
    let mut dts: u64 = 0;
    let mut sky: Vec<u32> = Vec::new();
    'points: for i in 0..ws.len() {
        let p = ws.row(i);
        for &s in &sky {
            dts += 1;
            if dt(ws.row(s as usize), p) {
                continue 'points;
            }
        }
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
    use crate::verify::naive_skyline;
    use skyline_data::{generate, quantize, Distribution};

    #[test]
    fn matches_naive_on_every_distribution() {
        let pool = ThreadPool::new(2);
        for dist in [
            Distribution::Correlated,
            Distribution::Independent,
            Distribution::Anticorrelated,
        ] {
            let data = generate(dist, 800, 4, 55, &pool);
            let r = run(&data, &pool, &SkylineConfig::default());
            assert_eq!(r.indices, naive_skyline(&data), "{dist:?}");
        }
    }

    #[test]
    fn ef_pass_bounds_work_on_correlated_data() {
        // LESS's promise is that the elimination filter shrinks the input
        // before the (expensive) sort: per point it costs O(β) DTs, and
        // on correlated data almost nothing survives to the SFS scan.
        let pool = ThreadPool::new(2);
        let n = 20_000usize;
        let data = generate(Distribution::Correlated, n, 6, 9, &pool);
        let cfg = SkylineConfig::default();
        let less = run(&data, &pool, &cfg);
        let sfs = crate::algo::sfs::run(&data, &pool, &cfg);
        assert_eq!(less.indices, sfs.indices);
        // Two passes of ≤ 2β(=16) filter DTs each, plus the tiny SFS tail:
        // far below the O(n·|SKY|) worst case.
        let bound = (4 * cfg.prefilter_beta as u64 + 8) * n as u64;
        assert!(
            less.stats.dominance_tests < bound,
            "LESS used {} DTs, bound {bound}",
            less.stats.dominance_tests
        );
        // And the pre-filter time is accounted separately from the scan.
        assert!(less.stats.prefilter > std::time::Duration::ZERO);
    }

    #[test]
    fn duplicates_and_degenerates() {
        let pool = ThreadPool::new(2);
        let data = quantize(&generate(Distribution::Independent, 700, 3, 2, &pool), 5);
        let r = run(&data, &pool, &SkylineConfig::default());
        assert_eq!(r.indices, naive_skyline(&data));
        let empty = Dataset::from_flat(vec![], 2).unwrap();
        assert!(run(&empty, &pool, &SkylineConfig::default())
            .indices
            .is_empty());
    }
}
