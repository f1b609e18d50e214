//! SaLSa (Sort and Limit Skyline algorithm), Bartolini et al., TODS 2008.
//!
//! Like SFS, but sorts by the *minimum coordinate* (`minC`, ties broken by
//! L1), which enables early termination (§III: "a min-value sort order
//! that makes early termination possible"): maintain the skyline point
//! `p*` minimising its maximum coordinate, and stop as soon as the next
//! point's `minC` exceeds it — `p*` then strictly dominates every
//! remaining point, because all of their coordinates exceed all of `p*`'s.

use crate::config::SortKey;
use crate::dominance::dt;
use crate::norms::max_coord;
use crate::sorted::build_workset;
use crate::telemetry::{AlgoPhase, PhaseProbe};
use crate::{SkylineConfig, SkylineResult};
use skyline_data::Dataset;
use skyline_parallel::ThreadPool;

/// Runs SaLSa (sequential scan; the sort uses `pool`).
pub fn run(data: &Dataset, pool: &ThreadPool, cfg: &SkylineConfig) -> SkylineResult {
    let mut probe = PhaseProbe::start(cfg, 1);

    let ws = build_workset(data.values(), data.dims(), None, SortKey::MinCoord, pool);
    probe.lap(AlgoPhase::Init);

    let mut dts: u64 = 0;
    let mut sky: Vec<u32> = Vec::new();
    // sup = min over skyline points of their max coordinate. Strict
    // comparison below keeps potential coincident duplicates of the stop
    // point alive (minC == sup must still be scanned).
    let mut sup = f32::INFINITY;
    'points: for i in 0..ws.len() {
        let p = ws.row(i);
        if ws.keys[i] > sup {
            // Early termination: every remaining point q has
            // minC(q) ≥ minC(p) > sup = maxᵢ p*[i], so p* ≺ q.
            break;
        }
        for &s in &sky {
            dts += 1;
            if dt(ws.row(s as usize), p) {
                continue 'points;
            }
        }
        sup = sup.min(max_coord(p));
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
            let data = generate(dist, 700, 4, 33, &pool);
            let r = run(&data, &pool, &SkylineConfig::default());
            assert_eq!(r.indices, naive_skyline(&data), "{dist:?}");
        }
    }

    #[test]
    fn early_termination_fires_on_correlated_data() {
        // One point near the origin with a tiny max coordinate stops the
        // scan almost immediately.
        let mut rows = vec![vec![0.01f32, 0.02]];
        rows.extend((0..2_000).map(|i| {
            let v = 0.5 + (i as f32) * 1e-4;
            vec![v, v + 0.01]
        }));
        let data = Dataset::from_rows(&rows).unwrap();
        let pool = ThreadPool::new(1);
        let r = run(&data, &pool, &SkylineConfig::default());
        assert_eq!(r.indices, vec![0]);
        // Without the stop this would be ≥ 2000 DTs.
        assert!(
            r.stats.dominance_tests < 100,
            "early termination did not fire: {} DTs",
            r.stats.dominance_tests
        );
    }

    #[test]
    fn stop_point_duplicates_are_kept() {
        // A constant vector as stop point, duplicated: both copies are
        // skyline (neither dominates the other).
        let data = Dataset::from_rows(&[vec![0.5, 0.5], vec![0.5, 0.5], vec![0.9, 0.9]]).unwrap();
        let pool = ThreadPool::new(1);
        let r = run(&data, &pool, &SkylineConfig::default());
        assert_eq!(r.indices, vec![0, 1]);
    }

    #[test]
    fn handles_quantised_duplicates() {
        let pool = ThreadPool::new(2);
        let data = quantize(&generate(Distribution::Independent, 800, 3, 5, &pool), 6);
        let r = run(&data, &pool, &SkylineConfig::default());
        assert_eq!(r.indices, naive_skyline(&data));
    }
}
