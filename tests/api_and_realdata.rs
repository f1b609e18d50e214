//! Facade API behaviour and the real-data stand-ins.

use std::sync::Arc;

use skybench::prelude::*;
use skybench::RealDataset;

#[test]
fn builder_defaults_and_overrides() {
    let data = Dataset::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0], vec![2.0, 2.0]]).unwrap();
    let expect: &[u32] = &[0, 1];
    assert_eq!(skyline(&data).indices(), expect);
    for algo in Algorithm::ALL {
        let sky = SkylineBuilder::new()
            .algorithm(algo)
            .threads(1)
            .alpha(2)
            .pivot(PivotStrategy::Balanced)
            .sort_key(SortKey::Entropy)
            .prefilter_beta(2)
            .seed(7)
            .compute(&data);
        assert_eq!(sky.indices(), expect, "{algo}");
    }
}

#[test]
fn stats_are_meaningful() {
    let pool = Arc::new(ThreadPool::new(2));
    let data = skybench::generate(Distribution::Independent, 20_000, 6, 3, &pool);
    let (sky, stats) = SkylineBuilder::new()
        .pool(Arc::clone(&pool))
        .compute_with_stats(&data);
    assert_eq!(stats.skyline_size, sky.len());
    assert!(stats.dominance_tests > 0);
    assert!(stats.total >= stats.phase1);
    assert!(stats.parallel_fraction() >= 0.0 && stats.parallel_fraction() <= 1.0);
}

#[test]
fn preferences_flip_the_problem() {
    let raw = Dataset::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]).unwrap();
    // Minimising: only (1,1). Maximising both: only (3,3).
    assert_eq!(skyline(&raw).indices(), &[0]);
    let maxed = raw
        .with_preferences(&[Preference::Max, Preference::Max])
        .unwrap();
    assert_eq!(skyline(&maxed).indices(), &[2]);
}

#[test]
fn nba_standin_matches_paper_shape() {
    let pool = Arc::new(ThreadPool::new(2));
    let data = RealDataset::Nba.standin(&pool);
    assert_eq!(data.len(), RealDataset::Nba.cardinality());
    assert_eq!(data.dims(), RealDataset::Nba.dims());
    let sky = SkylineBuilder::new().pool(Arc::clone(&pool)).compute(&data);
    // Paper (genuine NBA): 1,796 points = 10.40 %. The stand-in is
    // calibrated to land in the same regime.
    let pct = 100.0 * sky.len() as f64 / data.len() as f64;
    assert!(
        (5.0..=20.0).contains(&pct),
        "NBA stand-in skyline {pct:.2}% out of calibrated band"
    );
    // All algorithms agree on real-shaped (duplicate-heavy) data.
    let expect = sky.indices();
    for algo in [Algorithm::BSkyTree, Algorithm::PSkyline, Algorithm::QFlow] {
        let got = SkylineBuilder::new()
            .algorithm(algo)
            .pool(Arc::clone(&pool))
            .compute(&data);
        assert_eq!(got.indices(), expect, "{algo}");
    }
}

#[test]
fn house_standin_agreement() {
    let pool = Arc::new(ThreadPool::new(2));
    let data = RealDataset::House.standin(&pool);
    assert_eq!(data.len(), RealDataset::House.cardinality());
    let hybrid = SkylineBuilder::new().pool(Arc::clone(&pool)).compute(&data);
    let qflow = SkylineBuilder::new()
        .algorithm(Algorithm::QFlow)
        .pool(Arc::clone(&pool))
        .compute(&data);
    assert_eq!(hybrid.indices(), qflow.indices());
    let pct = 100.0 * hybrid.len() as f64 / data.len() as f64;
    assert!(
        (1.0..=15.0).contains(&pct),
        "HOUSE stand-in skyline {pct:.2}% out of calibrated band"
    );
}

#[test]
fn weather_standin_agreement() {
    // WEATHER (d = 15, 200 levels per column) is the only real-data
    // shape above 8 dimensions: it runs `compare`'s lanes form and the
    // runtime-d tile scans on column ties. The prefix holds no
    // duplicate rows, so every 10th row is repeated to reach SSkyline's
    // `Equal` arm too.
    let pool = Arc::new(ThreadPool::new(2));
    let full = RealDataset::Weather.standin(&pool);
    let d = full.dims();
    let n = 1_000;
    let mut flat = full.values()[..n * d].to_vec();
    for i in (0..n).step_by(10) {
        flat.extend_from_slice(full.row(i));
    }
    let data = Dataset::from_flat(flat, d).unwrap();
    let expect = skybench::verify::naive_skyline(&data);
    assert!(!expect.is_empty() && expect.len() < data.len());
    for algo in Algorithm::ALL {
        let got = SkylineBuilder::new()
            .algorithm(algo)
            .pool(Arc::clone(&pool))
            .compute(&data);
        assert_eq!(got.indices(), expect.as_slice(), "{algo}");
    }
}
