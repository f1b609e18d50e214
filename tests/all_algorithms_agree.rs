//! Cross-algorithm agreement: every algorithm in the suite must produce
//! the definitionally correct skyline on every workload family.

use skybench::prelude::*;
use skybench::{generate, quantize, verify, PlannerConfig, Strategy};

fn assert_all_agree(data: &Dataset, label: &str) {
    let expect = verify::naive_skyline(data);
    verify::check_skyline(data, &expect).unwrap_or_else(|e| panic!("{label}: bad oracle: {e}"));
    let pool = std::sync::Arc::new(ThreadPool::new(2));
    for algo in Algorithm::ALL {
        let sky = SkylineBuilder::new()
            .algorithm(algo)
            .pool(std::sync::Arc::clone(&pool))
            .compute(data);
        assert_eq!(
            sky.indices(),
            expect.as_slice(),
            "{label}: {algo} disagrees with the naive reference"
        );
    }
}

#[test]
fn synthetic_distributions() {
    let pool = ThreadPool::new(2);
    for dist in [
        Distribution::Correlated,
        Distribution::Independent,
        Distribution::Anticorrelated,
    ] {
        for (n, d) in [(400usize, 2usize), (800, 5), (300, 12)] {
            let data = generate(dist, n, d, 1234, &pool);
            assert_all_agree(&data, &format!("{dist:?} n={n} d={d}"));
        }
    }
}

#[test]
fn quantised_duplicate_heavy_data() {
    let pool = ThreadPool::new(2);
    for levels in [2u32, 4, 10] {
        let data = quantize(
            &generate(Distribution::Independent, 900, 3, 77, &pool),
            levels,
        );
        assert_all_agree(&data, &format!("quantised levels={levels}"));
    }
}

#[test]
fn degenerate_shapes() {
    // Empty.
    let empty = Dataset::from_flat(vec![], 4).unwrap();
    assert_all_agree(&empty, "empty");
    // Single point.
    let one = Dataset::from_rows(&[vec![5.0, 5.0]]).unwrap();
    assert_all_agree(&one, "singleton");
    // All identical.
    let same = Dataset::from_rows(&vec![vec![1.0, 2.0, 3.0]; 120]).unwrap();
    assert_all_agree(&same, "identical");
    // One dimension: skyline = all copies of the minimum.
    let d1 =
        Dataset::from_rows(&(0..200).map(|i| vec![(i % 50) as f32]).collect::<Vec<_>>()).unwrap();
    assert_all_agree(&d1, "1-d");
    // Chain (total order).
    let chain = Dataset::from_rows(
        &(0..300)
            .map(|i| vec![i as f32, i as f32])
            .collect::<Vec<_>>(),
    )
    .unwrap();
    assert_all_agree(&chain, "chain");
    // Antichain (everything is skyline).
    let anti = Dataset::from_rows(
        &(0..300)
            .map(|i| vec![i as f32, 300.0 - i as f32])
            .collect::<Vec<_>>(),
    )
    .unwrap();
    assert_all_agree(&anti, "antichain");
}

#[test]
fn negative_values_from_max_preferences() {
    let pool = ThreadPool::new(2);
    let raw = generate(Distribution::Independent, 500, 4, 9, &pool);
    let data = raw
        .with_preferences(&[
            Preference::Max,
            Preference::Min,
            Preference::Max,
            Preference::Min,
        ])
        .unwrap();
    assert_all_agree(&data, "negated columns");
}

#[test]
fn extreme_magnitudes() {
    // Large spreads and tiny epsilons must not confuse any kernel.
    let data = Dataset::from_rows(&[
        vec![1e30, 1e-30],
        vec![1e-30, 1e30],
        vec![1e30, 1e30],
        vec![0.0, 0.0],
        vec![-1e20, 5.0],
    ])
    .unwrap();
    assert_all_agree(&data, "extreme magnitudes");
}

/// `v` moved `k` units in the last place (away from zero).
fn ulps(v: f32, k: u32) -> f32 {
    f32::from_bits(v.to_bits() + k)
}

/// Rows whose codes cannot decide a single dominance test: column 0
/// spans 1e6 (one code bucket is ~15 wide) while the middle rows sit a
/// few ulps apart at 5e5, and the other columns sit a few ulps apart at
/// 0.5 inside `[0, 1]`. Every middle row's offsets sum to 10, 11 or 12,
/// so the sum-10 rows form a large antichain and the others are
/// dominated by some of them. Every tile scan over these rows ties on
/// codes and is decided by the exact `f32` re-check; all 12 algorithms
/// and one engine query under `Max` preferences (whose fold must happen
/// before the rows are coded) must still match the naive oracle.
#[test]
fn values_closer_than_one_code_bucket() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    let mut rows = vec![vec![0.0f32, 1.0, 1.0, 1.0], vec![1e6, 0.0, 0.0, 0.0]];
    while rows.len() < 3_000 {
        let offsets: Vec<u32> = (0..4).map(|_| next(6) as u32).collect();
        if !(10..=12).contains(&offsets.iter().sum::<u32>()) {
            continue;
        }
        let mut row = vec![ulps(5e5, offsets[0])];
        row.extend(offsets[1..].iter().map(|&o| ulps(0.5, o)));
        rows.push(row);
    }
    let data = Dataset::from_rows(&rows).unwrap();
    let sky = verify::naive_skyline(&data);
    assert!(sky.len() > 100, "the antichain is large: {}", sky.len());
    assert_all_agree(&data, "values closer than one code bucket");

    // Below `small_n` the engine plans SFS, above it Hybrid; a small
    // `small_n` makes this query run Hybrid on the folded rows.
    let engine = Engine::with_config(EngineConfig {
        threads: 2,
        cache_bytes: 0,
        planner: PlannerConfig {
            small_n: 512,
            ..PlannerConfig::default()
        },
        ..EngineConfig::default()
    });
    engine.register("close", data.clone());
    let prefs = [
        Preference::Max,
        Preference::Min,
        Preference::Max,
        Preference::Min,
    ];
    let got = engine
        .execute(&SkylineQuery::new("close").preference(prefs))
        .unwrap();
    assert_eq!(got.plan.strategy, Strategy::Algorithm(Algorithm::Hybrid));
    let expect = verify::naive_skyline_on_pref(&data, &[0, 1, 2, 3], 0b0101);
    assert_eq!(got.indices(), expect.as_slice());
}
