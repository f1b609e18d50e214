//! Exact order statistics over latency samples.
//!
//! Everything here works on a sorted `&[f64]`; nothing is sketched or
//! bucketed, so two runs that saw the same samples report the same
//! numbers to the last digit.

use std::time::Duration;

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Sorts a sample vector ascending (total order; the benchmark never
/// produces NaN).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_unstable_by(f64::total_cmp);
    v
}

/// The median: the middle sample, or the mean of the two middle ones.
/// Zero for an empty slice, so that a class a workload never ran reads
/// as "no time spent".
pub fn median(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median of an unsorted sample vector.
pub fn median_of(v: Vec<f64>) -> f64 {
    median(&sorted(v))
}

/// Arithmetic mean; zero when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// First quartile, median and third quartile by the *exclusive* method
/// — the one Python's `statistics.quantiles(values, n=4)` uses, so the
/// spreads the README quotes can be recomputed with the standard
/// library: position `(n + 1) · k / 4` in 1-based ranks, linearly
/// interpolated between the two neighbouring samples.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    if n == 0 {
        return [0.0; 3];
    }
    if n == 1 {
        return [sorted[0]; 3];
    }
    let at = |k: usize| {
        let pos = (n + 1) * k; // in quarters of a rank
        let j = (pos / 4).clamp(1, n - 1); // 1-based lower rank
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    [at(1), at(2), at(3)]
}

/// 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n`
/// samples: the smallest rank with at least `p` % of the samples at or
/// below it.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    // The epsilon keeps 99.9 % of 10 000 at rank 9 990 although the
    // product is not exact in binary.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile; zero when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        sorted[nearest_rank(sorted.len(), p) - 1]
    }
}

/// How many samples lie strictly beyond the nearest rank of `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p).min(n)
}

/// Percentiles a tail may be reported at, highest first.
pub const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 75.0];

/// The highest percentile of [`TAIL_LADDER`] that still has at least
/// ten samples beyond it, or `None` when even the upper quartile does
/// not (fewer than 40 samples): such a timing reports median and
/// quartiles only.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// The summary every timing carries: sample count, quartiles, and the
/// tail the workload fixed for it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub p50: f64,
    pub q3: f64,
    pub tail: f64,
}

/// Which tail a workload reports for a timing. Fixed per workload (not
/// chosen from the sample count at run time) so that the metric means
/// the same thing on every run; [`tail_percentile`] is what justified
/// each choice for the sample counts this machine produces, and
/// [`summarize`] warns when a run falls short of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tail {
    /// Too few samples for a percentile: the third quartile.
    UpperQuartile,
    /// Nearest-rank percentile.
    Percentile(f64),
}

/// Plain statistics over every sample of a window — for operations
/// that are not interchangeable over time (a script replayed in order),
/// where a slice would hold a different mix than its neighbour.
pub fn summarize_whole(samples: Vec<f64>, tail: Tail, what: &str) -> Summary {
    let s = sorted(samples);
    let [q1, p50, q3] = quartiles(&s);
    let tail = match tail {
        Tail::UpperQuartile => q3,
        Tail::Percentile(p) => {
            if tail_percentile(s.len()).map_or(true, |best| best < p) {
                eprintln!(
                    "perf: warning: {what}: p{p} of {} samples has fewer than 10 beyond it",
                    s.len()
                );
            }
            percentile(&s, p)
        }
    };
    Summary {
        n: s.len(),
        q1,
        p50,
        q3,
        tail,
    }
}

/// One timed operation: when it completed, in seconds since its window
/// opened, and how long it took, in milliseconds.
pub type Timed = (f64, f64);

/// A window is cut into this many equal slices and its median and
/// quartiles (and throughput) reported as the median over the slices'
/// values, so that a burst of interference from outside the benchmark
/// (this sandbox has them, lasting seconds) spoils a slice, not the
/// run.
pub const SLICES: usize = 5;

/// Samples a slice needs before the window is cut: thirty beyond each
/// quartile.
const MIN_PER_SLICE: usize = 120;

/// As many slices, up to [`SLICES`], as the samples fill; one (the
/// window taken whole) when they do not fill two.
fn slices_for(samples: usize) -> usize {
    (samples / MIN_PER_SLICE).clamp(1, SLICES)
}

/// The slice a completion at `at` seconds falls in.
fn slice_of(at: f64, window_s: f64, slices: usize) -> usize {
    ((at / window_s * slices as f64) as usize).min(slices - 1)
}

/// Summarises the operations of a window of `window_s` seconds. The
/// median and the quartiles are medians over the window's slices of
/// the slice's own; the tail is taken over the whole window, where it
/// rests on five times the samples (`n` is the total).
pub fn summarize(samples: &[Timed], window_s: f64, tail: Tail, what: &str) -> Summary {
    let k = slices_for(samples.len());
    let mut per_slice = vec![Vec::new(); k];
    for &(at, ms) in samples {
        per_slice[slice_of(at, window_s, k)].push(ms);
    }
    let parts: Vec<[f64; 3]> = per_slice
        .into_iter()
        .filter(|s| !s.is_empty())
        .map(|s| quartiles(&sorted(s)))
        .collect();
    let over = |i: usize| median_of(parts.iter().map(|q| q[i]).collect());
    let whole = summarize_whole(samples.iter().map(|t| t.1).collect(), tail, what);
    Summary {
        q1: over(0),
        p50: over(1),
        q3: over(2),
        ..whole
    }
}

/// Operations completed per second: the median over the window's
/// slices of the slice's count divided by its length. `completions`
/// are offsets in seconds, of correct operations only.
pub fn rate(completions: &[f64], window_s: f64) -> f64 {
    let k = slices_for(completions.len());
    let mut counts = vec![0usize; k];
    for &at in completions {
        counts[slice_of(at, window_s, k)] += 1;
    }
    let slice_s = window_s / k as f64;
    median_of(counts.into_iter().map(|c| c as f64 / slice_s).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
        assert_eq!(median_of(vec![9.0, 1.0, 4.0, 2.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quartiles(&v), [1.5, 3.0, 4.5]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: with
        // two samples the method extrapolates past both ends.
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert_eq!(quartiles(&[]), [0.0; 3]);
    }

    #[test]
    fn nearest_rank_percentiles_are_exact() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&v, 0.01), 1.0);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p99 needs 1 000 samples, p99.9 needs 10 000, p90 needs 100,
        // the upper quartile 40.
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn summary_uses_the_fixed_tail() {
        // Too few samples to slice: plain statistics over the window.
        let v: Vec<Timed> = (1..=60).rev().map(|i| (0.0, f64::from(i))).collect();
        let s = summarize(&v, 10.0, Tail::UpperQuartile, "t");
        assert_eq!((s.n, s.p50, s.tail), (60, 30.5, 45.75));
        assert!(s.q1 < s.p50 && s.p50 < s.q3);
        let v: Vec<Timed> = (1..=2000)
            .map(|i| (f64::from(i) / 200.0, f64::from(i)))
            .collect();
        let s = summarize(&v, 10.0, Tail::Percentile(99.0), "t");
        // Slice medians are 200, 599.5, 999.5, 1399.5 and 1800; the tail
        // is the whole window's.
        assert_eq!((s.n, s.p50, s.tail), (2000, 999.5, 1980.0));
    }

    #[test]
    fn a_spoilt_slice_does_not_move_the_median_or_the_rate() {
        // 1 000 operations at a steady 100/s taking 1 ms each, except
        // that everything between t = 4 s and t = 6 s (one whole slice
        // of five) took 50 ms and only every other operation got through.
        let mut samples = Vec::new();
        for i in 0..1000 {
            let at = f64::from(i) / 100.0;
            let spoilt = (4.0..6.0).contains(&at);
            if !spoilt || i % 2 == 0 {
                samples.push((at, if spoilt { 50.0 } else { 1.0 }));
            }
        }
        let s = summarize(&samples, 10.0, Tail::Percentile(90.0), "t");
        assert_eq!((s.q1, s.p50, s.q3), (1.0, 1.0, 1.0));
        let at: Vec<f64> = samples.iter().map(|s| s.0).collect();
        assert_eq!(rate(&at, 10.0), 100.0);
        // Taken whole, the same window reads 90 operations per second,
        // and its tail (which is taken whole) 50 ms.
        assert_eq!(at.len(), 900);
        assert_eq!(s.tail, 50.0);
        // Slices are only cut where each still has thirty samples
        // beyond each quartile.
        assert_eq!(slices_for(5_300), 5);
        assert_eq!(slices_for(500), 4);
        assert_eq!(slices_for(239), 1);
        assert_eq!(slices_for(12), 1);
        // A completion on the closing edge falls in the last slice.
        assert_eq!(slice_of(10.0, 10.0, 5), 4);
        assert_eq!(rate(&[0.5, 1.5], 2.0), 1.0);
    }
}
