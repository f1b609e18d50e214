//! Probes of single layers, run in the traced pass only: micro-kernels
//! on seeded arrays, the pool's empty-region round trip, the parallel
//! sort, and the closing of a trace.

use std::hint::black_box;
use std::time::Instant;

use skyline_core::dominance::simd::TileStore;
use skyline_core::dominance::strictly_dominates;
use skyline_data::Rng;
use skyline_parallel::{par_sort_unstable_by_key, ThreadPool};

use crate::report::Metrics;
use crate::stats::median_of;
use crate::trace::{self, Recorder};
use crate::{inputs, Ctx};

const KERNEL_DIMS: usize = 8;
const KERNEL_WINDOW: usize = 4_096;
const PSORT_KEYS: usize = 500_000;

/// Median over `reps` timings of `body`, each in nanoseconds.
fn median_ns(reps: usize, mut body: impl FnMut()) -> f64 {
    median_of(
        (0..reps)
            .map(|_| {
                let start = Instant::now();
                body();
                start.elapsed().as_nanos() as f64
            })
            .collect(),
    )
}

/// The `core.kernel.*` and `parallel.*` probes of the `lib_*` traced
/// runs.
pub fn core_and_parallel(m: &mut Metrics, seed: u64, pool: &ThreadPool) {
    let mut rng = Rng::seed_from(inputs::subseed(seed, "probe.kernel"));
    let rows: Vec<[f32; KERNEL_DIMS]> = (0..KERNEL_WINDOW)
        .map(|_| std::array::from_fn(|_| rng.next_f64() as f32))
        .collect();

    // One-vs-one scalar test on neighbouring rows (independent uniform
    // rows: the early exit fires after about two coordinates).
    let scalar = median_ns(31, || {
        let mut hits = 0u32;
        for pair in rows.windows(2) {
            hits += u32::from(strictly_dominates(black_box(&pair[0]), black_box(&pair[1])));
        }
        black_box(hits);
    });
    m.layer("core.kernel.scalar_ns", scalar / (KERNEL_WINDOW - 1) as f64);

    // One-vs-many tile scans over a full window with a probe nothing
    // dominates, so neither scan can stop early.
    let mut tiles = TileStore::with_capacity(KERNEL_DIMS, KERNEL_WINDOW);
    for row in &rows {
        tiles.push(row);
    }
    let probe = [-1.0f32; KERNEL_DIMS];
    let mut dts = 0u64;
    let any = median_ns(201, || {
        black_box(tiles.any_dominates(black_box(&probe), &mut dts));
    });
    m.layer("core.kernel.tile_ns_per_point", any / KERNEL_WINDOW as f64);
    let count = median_ns(201, || {
        black_box(tiles.count_dominators_range(0, KERNEL_WINDOW, black_box(&probe), 4, &mut dts));
    });
    m.layer(
        "core.kernel.count_ns_per_point",
        count / KERNEL_WINDOW as f64,
    );
    black_box(dts);

    let region = median_ns(2_001, || {
        pool.run(|lane| {
            black_box(lane);
        })
    });
    m.layer("parallel.pool.region_us", region / 1e3);

    let keys: Vec<f32> = (0..PSORT_KEYS).map(|_| rng.next_f64() as f32).collect();
    let mut scratch = keys.clone();
    let sort = median_of(
        (0..7)
            .map(|_| {
                scratch.copy_from_slice(&keys);
                let start = Instant::now();
                // Non-negative floats order like their bit patterns.
                par_sort_unstable_by_key(pool, &mut scratch, |k| k.to_bits());
                start.elapsed().as_nanos() as f64
            })
            .collect(),
    );
    assert!(scratch.windows(2).all(|w| w[0] <= w[1]));
    m.layer("parallel.psort.ms", sort / 1e6);
}

/// Checks the recorded spans (children inside parents, self times
/// summing to each operation's duration) and writes the trace file.
/// Returns the number of failures, to be added to the run's.
pub fn finish_trace(rec: &Recorder, ctx: &Ctx) -> u64 {
    let mut failures = 0;
    if let Err(why) = trace::check(rec.spans()) {
        eprintln!("perf: trace of {} is inconsistent: {why}", ctx.workload);
        failures += 1;
    }
    if let Err(e) = rec.write(&ctx.out, &ctx.workload, ctx.seed) {
        eprintln!(
            "perf: cannot write the trace under {}: {e}",
            ctx.out.display()
        );
        failures += 1;
    }
    failures
}
