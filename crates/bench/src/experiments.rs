//! One function per table/figure of the paper's evaluation (§VII).
//!
//! Every function prints a markdown table whose rows/series correspond to
//! the paper's plot. Absolute times differ from the paper (different
//! hardware — see DESIGN.md §5); the *shape* (who wins, by what factor,
//! where crossovers fall) is the reproduction target, recorded in
//! EXPERIMENTS.md.

use std::collections::HashMap;
use std::sync::Arc;

use skyline_core::algo::Algorithm;
use skyline_core::{PivotStrategy, SkylineConfig};
use skyline_data::{Distribution, RealDataset};
use skyline_parallel::ThreadPool;

use crate::workloads::{WorkloadCache, DISTRIBUTIONS};
use crate::{fmt_secs, measure, print_table, Scale};

/// Shared state for a harness invocation.
#[derive(Debug)]
pub struct ExpCtx {
    /// Scale preset.
    pub scale: Scale,
    /// The "all cores" thread count (the paper's t = 16).
    pub threads: usize,
    pools: HashMap<usize, Arc<ThreadPool>>,
    cache: WorkloadCache,
}

impl ExpCtx {
    /// Creates a context with `threads` as the full-parallelism setting.
    pub fn new(scale: Scale, threads: usize) -> Self {
        Self {
            scale,
            threads: threads.max(1),
            pools: HashMap::new(),
            cache: WorkloadCache::new(),
        }
    }

    fn pool(&mut self, t: usize) -> Arc<ThreadPool> {
        Arc::clone(
            self.pools
                .entry(t)
                .or_insert_with(|| Arc::new(ThreadPool::new(t))),
        )
    }

    fn data(&mut self, dist: Distribution, n: usize, d: usize) -> Arc<skyline_data::Dataset> {
        let pool = self.pool(self.threads);
        self.cache.get(dist, n, d, &pool)
    }

    /// Runs the named experiment; returns false for unknown names.
    pub fn run(&mut self, name: &str) -> bool {
        match name {
            "fig4" => fig4(self),
            "fig5" => fig5(self),
            "fig6" => fig6(self),
            "fig7" => fig7(self),
            "fig8" => fig8(self),
            "fig9" => fig9(self),
            "fig10" => fig10_11(self, SweepAxis::Dimensionality, Pair::QFlowVsPSkyline),
            "fig11" => fig10_11(self, SweepAxis::Cardinality, Pair::QFlowVsPSkyline),
            "fig12" => fig10_11(self, SweepAxis::Dimensionality, Pair::HybridVsPBSkyTree),
            "fig13" => fig10_11(self, SweepAxis::Cardinality, Pair::HybridVsPBSkyTree),
            "table1" => table1(self),
            "table2" => table2(self),
            "table3" => table3(self),
            "all" => {
                for e in Self::ALL_EXPERIMENTS {
                    if *e != "all" {
                        println!("\n===================== {e} =====================");
                        self.run(e);
                    }
                }
            }
            _ => return false,
        }
        true
    }

    /// Every experiment name the harness accepts.
    pub const ALL_EXPERIMENTS: &'static [&'static str] = &[
        "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
        "table1", "table2", "table3", "all",
    ];
}

/// Figure 4: skyline sizes of the synthetic distributions, versus n (at
/// the sweep dimensionality) and versus d (at the sweep cardinality).
fn fig4(ctx: &mut ExpCtx) {
    let cfg = SkylineConfig::default();
    let pool = ctx.pool(ctx.threads);

    let header: Vec<String> = ["", "correlated", "independent", "anticorrelated"]
        .iter()
        .map(|s| s.to_string())
        .collect();

    let d = ctx.scale.sweep_dim();
    let mut rows = Vec::new();
    for n in ctx.scale.cardinalities() {
        let mut row = vec![format!("n={n}")];
        for dist in DISTRIBUTIONS {
            let data = ctx.data(dist, n, d);
            let r = Algorithm::Hybrid.run(&data, &pool, &cfg);
            row.push(r.indices.len().to_string());
        }
        rows.push(row);
    }
    print_table(
        &format!("Figure 4 (left): |skyline| vs cardinality (d = {d})"),
        &header,
        &rows,
    );

    let n = ctx.scale.sweep_cardinality();
    let mut rows = Vec::new();
    for d in ctx.scale.dimensionalities() {
        let mut row = vec![format!("d={d}")];
        for dist in DISTRIBUTIONS {
            let data = ctx.data(dist, n, d);
            let r = Algorithm::Hybrid.run(&data, &pool, &cfg);
            row.push(r.indices.len().to_string());
        }
        rows.push(row);
    }
    print_table(
        &format!("Figure 4 (right): |skyline| vs dimensionality (n = {n})"),
        &header,
        &rows,
    );
}

/// Runs one five-algorithm sweep cell, honouring per-series skip rules.
fn five_algo_sweep(
    ctx: &mut ExpCtx,
    title: &str,
    xs: &[(String, usize, usize)], // (label, n, d)
) {
    let cfg = SkylineConfig::default();
    let budget = ctx.scale.cell_budget();
    for dist in DISTRIBUTIONS {
        let mut skip: HashMap<Algorithm, bool> = HashMap::new();
        let header: Vec<String> = std::iter::once(String::new())
            .chain(Algorithm::PAPER_FIVE.iter().map(|a| {
                if *a == Algorithm::BSkyTree {
                    format!("{} (t=1)", a.name())
                } else {
                    format!("{} (t={})", a.name(), ctx.threads)
                }
            }))
            .collect();
        let mut rows = Vec::new();
        for (label, n, d) in xs {
            let data = ctx.data(dist, *n, *d);
            let mut row = vec![label.clone()];
            for algo in Algorithm::PAPER_FIVE {
                if *skip.get(&algo).unwrap_or(&false) {
                    row.push("(skipped)".into());
                    continue;
                }
                let t = if algo == Algorithm::BSkyTree {
                    1
                } else {
                    ctx.threads
                };
                let pool = ctx.pool(t);
                let m = measure(algo, &data, &pool, &cfg, ctx.scale);
                if m.stats.total > budget {
                    skip.insert(algo, true);
                }
                row.push(fmt_secs(m.stats.total));
            }
            rows.push(row);
        }
        print_table(&format!("{title} — {}", dist.label()), &header, &rows);
    }
}

/// Figure 5: runtime vs dimensionality, five algorithms, three
/// distributions.
fn fig5(ctx: &mut ExpCtx) {
    let n = ctx.scale.sweep_cardinality();
    let xs: Vec<(String, usize, usize)> = ctx
        .scale
        .dimensionalities()
        .into_iter()
        .map(|d| (format!("d={d}"), n, d))
        .collect();
    five_algo_sweep(ctx, &format!("Figure 5: runtime vs d (n = {n})"), &xs);
}

/// Figure 6: runtime vs cardinality.
fn fig6(ctx: &mut ExpCtx) {
    let d = ctx.scale.sweep_dim();
    let xs: Vec<(String, usize, usize)> = ctx
        .scale
        .cardinalities()
        .into_iter()
        .map(|n| (format!("n={n}"), n, d))
        .collect();
    five_algo_sweep(ctx, &format!("Figure 6: runtime vs n (d = {d})"), &xs);
}

/// Figure 7: Q-Flow phase decomposition across α, plus PSkyline.
fn fig7(ctx: &mut ExpCtx) {
    let (n, d) = ctx.scale.default_workload();
    let pool = ctx.pool(ctx.threads);
    let header: Vec<String> = ["", "Init.", "Phase I", "Phase II", "Other", "Total"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    for dist in DISTRIBUTIONS {
        let data = ctx.data(dist, n, d);
        let mut rows = Vec::new();
        for alpha_log in [7u32, 10, 13, 16] {
            let cfg = SkylineConfig {
                alpha_qflow: 1 << alpha_log,
                ..Default::default()
            };
            let m = measure(Algorithm::QFlow, &data, &pool, &cfg, ctx.scale);
            let s = &m.stats;
            rows.push(vec![
                format!("α=2^{alpha_log}"),
                fmt_secs(s.init),
                fmt_secs(s.phase1),
                fmt_secs(s.phase2),
                fmt_secs(s.other() + s.compress + s.prefilter + s.pivot),
                fmt_secs(s.total),
            ]);
        }
        // PSkyline comparison row: Phase I = local skylines, II = merge.
        let m = measure(
            Algorithm::PSkyline,
            &data,
            &pool,
            &SkylineConfig::default(),
            ctx.scale,
        );
        let s = &m.stats;
        rows.push(vec![
            "PSkyline".into(),
            fmt_secs(s.init),
            fmt_secs(s.phase1),
            fmt_secs(s.phase2),
            fmt_secs(s.other()),
            fmt_secs(s.total),
        ]);
        print_table(
            &format!(
                "Figure 7: effect of α on Q-Flow (n = {n}, d = {d}, t = {}) — {}",
                ctx.threads,
                dist.label()
            ),
            &header,
            &rows,
        );
    }
}

/// Figure 8: Hybrid phase decomposition across α.
fn fig8(ctx: &mut ExpCtx) {
    let (n, d) = ctx.scale.default_workload();
    let pool = ctx.pool(ctx.threads);
    let header: Vec<String> = [
        "",
        "Init.",
        "Pre-filter",
        "Pivot",
        "Phase I",
        "Phase II",
        "Compress",
        "Other",
        "Total",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for dist in DISTRIBUTIONS {
        let data = ctx.data(dist, n, d);
        let mut rows = Vec::new();
        for alpha_log in [7u32, 10, 13, 16] {
            let cfg = SkylineConfig {
                alpha_hybrid: 1 << alpha_log,
                ..Default::default()
            };
            let m = measure(Algorithm::Hybrid, &data, &pool, &cfg, ctx.scale);
            let s = &m.stats;
            rows.push(vec![
                format!("α=2^{alpha_log}"),
                fmt_secs(s.init),
                fmt_secs(s.prefilter),
                fmt_secs(s.pivot),
                fmt_secs(s.phase1),
                fmt_secs(s.phase2),
                fmt_secs(s.compress),
                fmt_secs(s.other()),
                fmt_secs(s.total),
            ]);
        }
        print_table(
            &format!(
                "Figure 8: effect of α on Hybrid (n = {n}, d = {d}, t = {}) — {}",
                ctx.threads,
                dist.label()
            ),
            &header,
            &rows,
        );
    }
}

/// Figure 9: pivot-selection strategies across α (Hybrid total time).
fn fig9(ctx: &mut ExpCtx) {
    let (n, d) = ctx.scale.default_workload();
    let pool = ctx.pool(ctx.threads);
    let header: Vec<String> = std::iter::once(String::new())
        .chain(PivotStrategy::ALL.iter().map(|p| p.name().to_string()))
        .collect();
    for dist in DISTRIBUTIONS {
        let data = ctx.data(dist, n, d);
        let mut rows = Vec::new();
        for alpha in [16usize, 128, 1024, 8192] {
            let mut row = vec![format!("α={alpha}")];
            for pivot in PivotStrategy::ALL {
                let cfg = SkylineConfig {
                    alpha_hybrid: alpha,
                    pivot,
                    ..Default::default()
                };
                let m = measure(Algorithm::Hybrid, &data, &pool, &cfg, ctx.scale);
                row.push(fmt_secs(m.stats.total));
            }
            rows.push(row);
        }
        print_table(
            &format!(
                "Figure 9: pivot selection in Hybrid (n = {n}, d = {d}) — {}",
                dist.label()
            ),
            &header,
            &rows,
        );
    }
}

/// Which pair of algorithms a scalability figure compares.
#[derive(Debug, Clone, Copy)]
enum Pair {
    QFlowVsPSkyline,
    HybridVsPBSkyTree,
}

impl Pair {
    fn algorithms(self) -> [Algorithm; 2] {
        match self {
            Pair::QFlowVsPSkyline => [Algorithm::QFlow, Algorithm::PSkyline],
            Pair::HybridVsPBSkyTree => [Algorithm::Hybrid, Algorithm::PBSkyTree],
        }
    }

    fn figure(self, axis: SweepAxis) -> &'static str {
        match (self, axis) {
            (Pair::QFlowVsPSkyline, SweepAxis::Dimensionality) => "Figure 10",
            (Pair::QFlowVsPSkyline, SweepAxis::Cardinality) => "Figure 11",
            (Pair::HybridVsPBSkyTree, SweepAxis::Dimensionality) => "Figure 12",
            (Pair::HybridVsPBSkyTree, SweepAxis::Cardinality) => "Figure 13",
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum SweepAxis {
    Dimensionality,
    Cardinality,
}

/// Figures 10–13: multi-threaded scalability of an algorithm pair across
/// a workload axis, t ∈ scale.thread_counts().
fn fig10_11(ctx: &mut ExpCtx, axis: SweepAxis, pair: Pair) {
    let budget = ctx.scale.cell_budget();
    let xs: Vec<(String, usize, usize)> = match axis {
        SweepAxis::Dimensionality => {
            let n = ctx.scale.sweep_cardinality();
            ctx.scale
                .dimensionalities()
                .into_iter()
                .map(|d| (format!("d={d}"), n, d))
                .collect()
        }
        SweepAxis::Cardinality => {
            let d = ctx.scale.sweep_dim();
            ctx.scale
                .cardinalities()
                .into_iter()
                .map(|n| (format!("n={n}"), n, d))
                .collect()
        }
    };
    let threads = ctx.scale.thread_counts();
    let cfg = SkylineConfig::default();
    let hw = skyline_parallel::available_threads();

    for dist in DISTRIBUTIONS {
        let header: Vec<String> = std::iter::once(String::new())
            .chain(pair.algorithms().iter().flat_map(|a| {
                threads.iter().map(move |t| {
                    let over = if *t > hw { "*" } else { "" };
                    format!("{} t={}{}", a.name(), t, over)
                })
            }))
            .collect();
        let mut skip: HashMap<(Algorithm, usize), bool> = HashMap::new();
        let mut rows = Vec::new();
        for (label, n, d) in &xs {
            let data = ctx.data(dist, *n, *d);
            let mut row = vec![label.clone()];
            for algo in pair.algorithms() {
                for &t in &threads {
                    if *skip.get(&(algo, t)).unwrap_or(&false) {
                        row.push("(skipped)".into());
                        continue;
                    }
                    let pool = ctx.pool(t);
                    let m = measure(algo, &data, &pool, &cfg, ctx.scale);
                    if m.stats.total > budget {
                        skip.insert((algo, t), true);
                    }
                    row.push(fmt_secs(m.stats.total));
                }
            }
            rows.push(row);
        }
        print_table(
            &format!(
                "{}: {} vs {} scalability — {} ('*' = oversubscribed)",
                pair.figure(axis),
                pair.algorithms()[0].name(),
                pair.algorithms()[1].name(),
                dist.label()
            ),
            &header,
            &rows,
        );
    }
}

/// Table I: real dataset specifications (stand-ins measured here).
fn table1(ctx: &mut ExpCtx) {
    let pool = ctx.pool(ctx.threads);
    let cfg = SkylineConfig::default();
    let header: Vec<String> = [
        "dataset",
        "cardinality",
        "dims",
        "|SKY| (measured)",
        "%",
        "|SKY| (paper)",
        "% (paper)",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    for ds in RealDataset::ALL {
        let data = ds.standin(&pool);
        let r = Algorithm::Hybrid.run(&data, &pool, &cfg);
        rows.push(vec![
            ds.name().to_string(),
            data.len().to_string(),
            data.dims().to_string(),
            r.indices.len().to_string(),
            format!("{:.2}", 100.0 * r.indices.len() as f64 / data.len() as f64),
            ds.paper_skyline_size().to_string(),
            format!(
                "{:.2}",
                100.0 * ds.paper_skyline_size() as f64 / ds.cardinality() as f64
            ),
        ]);
    }
    print_table("Table I: real dataset stand-ins", &header, &rows);
}

/// Table II: real-data performance, t = max vs t = 1 speedups.
fn table2(ctx: &mut ExpCtx) {
    let cfg = SkylineConfig::default();
    let algos = [
        Algorithm::BSkyTree,
        Algorithm::PBSkyTree,
        Algorithm::PSkyline,
        Algorithm::QFlow,
        Algorithm::Hybrid,
    ];
    let header: Vec<String> = std::iter::once("algorithm".to_string())
        .chain(RealDataset::ALL.iter().flat_map(|d| {
            [
                format!("{} t={}", d.name(), ctx.threads),
                format!("{} speedup", d.name()),
            ]
        }))
        .collect();
    let datasets: Vec<_> = {
        let pool = ctx.pool(ctx.threads);
        RealDataset::ALL.iter().map(|d| d.standin(&pool)).collect()
    };
    let mut rows = Vec::new();
    for algo in algos {
        let mut row = vec![algo.name().to_string()];
        for data in &datasets {
            let pool_max = ctx.pool(ctx.threads);
            let pool_1 = ctx.pool(1);
            let m_max = measure(algo, data, &pool_max, &cfg, ctx.scale);
            let m_1 = measure(algo, data, &pool_1, &cfg, ctx.scale);
            row.push(fmt_secs(m_max.stats.total));
            row.push(format!(
                "{:.1}x",
                m_1.stats.total.as_secs_f64() / m_max.stats.total.as_secs_f64().max(1e-9)
            ));
        }
        rows.push(row);
    }
    print_table(
        &format!("Table II: real data (t = {} vs t = 1)", ctx.threads),
        &header,
        &rows,
    );
}

/// Table III: parallelization overhead — PBSkyTree at t = 1 relative to
/// the natively sequential BSkyTree, across cardinality.
fn table3(ctx: &mut ExpCtx) {
    let d = ctx.scale.sweep_dim();
    let cfg = SkylineConfig::default();
    let pool1 = ctx.pool(1);
    let header: Vec<String> = std::iter::once(format!("d={d}, t=1"))
        .chain(ctx.scale.cardinalities().iter().map(|n| format!("n={n}")))
        .collect();
    let mut rows = Vec::new();
    for dist in DISTRIBUTIONS {
        let mut row = vec![dist.label().to_string()];
        for n in ctx.scale.cardinalities() {
            let data = ctx.data(dist, n, d);
            let bs = measure(Algorithm::BSkyTree, &data, &pool1, &cfg, ctx.scale);
            let pb = measure(Algorithm::PBSkyTree, &data, &pool1, &cfg, ctx.scale);
            row.push(format!(
                "{:.1}x",
                pb.stats.total.as_secs_f64() / bs.stats.total.as_secs_f64().max(1e-9)
            ));
        }
        rows.push(row);
    }
    print_table(
        "Table III: PBSkyTree (t = 1) overhead relative to BSkyTree",
        &header,
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every experiment must run end-to-end at smoke scale. This is the
    /// harness's own integration test: it exercises workload caching,
    /// the skip machinery, phase decomposition, and table printing.
    #[test]
    fn all_experiments_run_at_smoke_scale() {
        let mut ctx = ExpCtx::new(Scale::Smoke, 2);
        for e in ExpCtx::ALL_EXPERIMENTS {
            if *e == "all" || e.starts_with("table") {
                continue; // tables use the (larger) real stand-ins
            }
            assert!(ctx.run(e), "experiment {e} unknown");
        }
    }

    #[test]
    fn unknown_experiment_is_rejected() {
        let mut ctx = ExpCtx::new(Scale::Smoke, 1);
        assert!(!ctx.run("fig99"));
    }

    /// Table III's ratio machinery on a tiny workload.
    #[test]
    fn table3_smoke() {
        let mut ctx = ExpCtx::new(Scale::Smoke, 2);
        assert!(ctx.run("table3"));
    }
}
