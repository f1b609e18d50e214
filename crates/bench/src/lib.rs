//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§VII) and its three ablations (dominance kernels,
//! pre-filter β, presort keys). The `skybench` binary drives the
//! functions in [`experiments`] and is the only way to run them. Engine,
//! HTTP and durability numbers come from the repo's benchmark, the
//! `perf` package under `src/bin/perf/`.

#![warn(missing_docs)]

pub mod experiments;
pub mod workloads;

use std::sync::Arc;
use std::time::Duration;

use skyline_core::algo::Algorithm;
use skyline_core::{RunStats, SkylineConfig};
use skyline_data::Dataset;
use skyline_parallel::ThreadPool;

/// Scale presets. `Laptop` keeps every cell tractable on a small machine
/// by shrinking n (to at most 200 000), t (to at most 4) and the fixed d
/// of the single-workload and cardinality experiments (8, not 12); the d
/// sweep stays 4..16. `Paper` restores the paper's parameter grid (n up
/// to 8M, d up to 16, t up to 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long preset exercising every code path; used by the
    /// harness's own test suite and for quick sanity checks.
    Smoke,
    /// Small-machine preset (default).
    Laptop,
    /// The paper's original grid. Expect hours on a laptop.
    Paper,
}

impl Scale {
    /// Parses `smoke` / `laptop` / `paper`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "smoke" => Some(Self::Smoke),
            "laptop" => Some(Self::Laptop),
            "paper" => Some(Self::Paper),
            _ => None,
        }
    }

    /// Cardinality sweep (Figures 4/6/11/13, Table III).
    pub fn cardinalities(&self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![500, 1_000],
            Scale::Laptop => vec![25_000, 50_000, 100_000, 200_000],
            Scale::Paper => vec![500_000, 1_000_000, 2_000_000, 4_000_000, 8_000_000],
        }
    }

    /// Dimensionality sweep (Figures 4/5/10/12).
    pub fn dimensionalities(&self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![2, 4],
            Scale::Laptop | Scale::Paper => vec![4, 6, 8, 10, 12, 14, 16],
        }
    }

    /// Default workload for single-workload experiments
    /// (paper: n = 1M, d = 12).
    pub fn default_workload(&self) -> (usize, usize) {
        match self {
            Scale::Smoke => (1_000, 4),
            Scale::Laptop => (50_000, 8),
            Scale::Paper => (1_000_000, 12),
        }
    }

    /// Fixed d for the cardinality sweeps (paper: 12).
    pub fn sweep_dim(&self) -> usize {
        match self {
            Scale::Smoke => 4,
            Scale::Laptop => 8,
            Scale::Paper => 12,
        }
    }

    /// Fixed n for the dimensionality sweeps (paper: 1M).
    pub fn sweep_cardinality(&self) -> usize {
        match self {
            Scale::Smoke => 1_000,
            Scale::Laptop => 50_000,
            Scale::Paper => 1_000_000,
        }
    }

    /// Thread counts for the scalability figures (paper: 1..16).
    pub fn thread_counts(&self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![1, 2],
            // 4 is oversubscribed on a 2-core box; reported for
            // completeness and marked in the output.
            Scale::Laptop => vec![1, 2, 4],
            Scale::Paper => vec![1, 2, 4, 8, 16],
        }
    }

    /// Repetitions per cell; the median total time is reported.
    pub fn reps(&self) -> usize {
        match self {
            Scale::Smoke => 1,
            Scale::Laptop | Scale::Paper => 3,
        }
    }

    /// Per-cell budget: cells whose first run exceeds this are not
    /// repeated, and later cells of a series whose previous cell exceeded
    /// it are skipped outright.
    pub fn cell_budget(&self) -> Duration {
        match self {
            Scale::Smoke => Duration::from_secs(5),
            Scale::Laptop => Duration::from_secs(20),
            Scale::Paper => Duration::from_secs(600),
        }
    }
}

/// The measured outcome of one experiment cell.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Median-by-total run statistics.
    pub stats: RunStats,
    /// Number of repetitions actually performed.
    pub reps: usize,
}

/// Runs `algo` `reps` times (adaptively fewer if the budget is exceeded)
/// and returns the run with the median total time.
pub fn measure(
    algo: Algorithm,
    data: &Dataset,
    pool: &Arc<ThreadPool>,
    cfg: &SkylineConfig,
    scale: Scale,
) -> Measurement {
    let mut runs: Vec<RunStats> = Vec::new();
    let budget = scale.cell_budget();
    for _ in 0..scale.reps().max(1) {
        let r = algo.run(data, pool, cfg);
        let over_budget = r.stats.total > budget;
        runs.push(r.stats);
        if over_budget {
            break;
        }
    }
    runs.sort_by_key(|s| s.total);
    let reps = runs.len();
    Measurement {
        stats: runs.swap_remove(reps / 2),
        reps,
    }
}

/// Formats a duration in the paper's style (seconds with ms precision).
pub fn fmt_secs(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{:.1}ms", s * 1e3)
    }
}

/// Prints a markdown table: header row + aligned cells.
pub fn print_table(title: &str, header: &[String], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        let body: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        format!("| {} |", body.join(" | "))
    };
    println!("{}", fmt_row(header));
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("{}", fmt_row(&sep));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses() {
        assert_eq!(Scale::parse("laptop"), Some(Scale::Laptop));
        assert_eq!(Scale::parse("PAPER"), Some(Scale::Paper));
        assert_eq!(Scale::parse("x"), None);
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(Duration::from_millis(5)), "5.0ms");
        assert_eq!(fmt_secs(Duration::from_secs_f64(2.346)), "2.35");
        assert_eq!(fmt_secs(Duration::from_secs(250)), "250");
    }

    #[test]
    fn measure_returns_median() {
        let pool = Arc::new(ThreadPool::new(1));
        let data =
            skyline_data::generate(skyline_data::Distribution::Independent, 2_000, 3, 1, &pool);
        let m = measure(
            Algorithm::Sfs,
            &data,
            &pool,
            &SkylineConfig::default(),
            Scale::Laptop,
        );
        assert!(m.reps >= 1);
        assert!(m.stats.skyline_size > 0);
    }
}
