//! Data exploration with subspace skylines (paper §I cites skyline-based
//! data exploration as a core application [5]).
//!
//! Which pairs of criteria actually trade off against each other? A tiny
//! subspace skyline tells you one dimension nearly decides the pair; a
//! huge one tells you the pair is strongly conflicting. This example
//! scans every 2-D projection of a workload and ranks dimension pairs by
//! their skyline size — an instant conflict map of the data.
//!
//! Run with: `cargo run --release --example data_exploration`

use skybench::generate;
use skybench::prelude::*;

fn main() {
    let pool = std::sync::Arc::new(ThreadPool::with_available_parallelism());
    let d = 6;
    let n = 30_000;
    // Anticorrelated data: plenty of conflicts to discover.
    let data = generate(Distribution::Anticorrelated, n, d, 4, &pool);
    println!("exploring {n} points in {d} dimensions\n");

    let full = SkylineBuilder::new()
        .pool(std::sync::Arc::clone(&pool))
        .compute(&data);
    println!(
        "full-space skyline: {} points ({:.1}%)",
        full.len(),
        100.0 * full.len() as f64 / n as f64
    );

    let mut pairs: Vec<(usize, usize, usize)> = Vec::new();
    for a in 0..d {
        for b in (a + 1)..d {
            let projected = data.project(&[a, b]).expect("valid columns");
            let sky = SkylineBuilder::new()
                .pool(std::sync::Arc::clone(&pool))
                .compute(&projected);
            pairs.push((a, b, sky.len()));
        }
    }
    pairs.sort_by_key(|&(_, _, s)| std::cmp::Reverse(s));

    println!("\ndimension pairs ranked by conflict (2-D skyline size):");
    println!("{:>6} {:>6} {:>14}", "dim a", "dim b", "|skyline(a,b)|");
    for (a, b, s) in &pairs {
        println!("{a:>6} {b:>6} {s:>14}");
    }

    // Monotonicity sanity: every 2-D skyline is tiny relative to the
    // full-space one (fewer dimensions ⇒ more domination).
    let max_pair = pairs.first().expect("d ≥ 2").2;
    assert!(max_pair <= full.len());
    println!(
        "\nmost conflicting pair has a {}x smaller skyline than the full space — \
         adding dimensions always grows the skyline",
        (full.len() as f64 / max_pair as f64).round()
    );
}
