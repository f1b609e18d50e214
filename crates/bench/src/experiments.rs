//! One function per table/figure of the paper's evaluation (§VII), plus
//! the three ablations behind its design choices (the vectorised DT of
//! §VII-A2, the pre-filter queue size β of footnote 3, the presort key).
//!
//! Every figure function prints a markdown table whose rows/series
//! correspond to the paper's plot. Absolute times differ from the paper
//! (different hardware, and smaller grids below `--scale paper`); the
//! *shape* (who wins, by what factor, where crossovers fall) is the
//! reproduction target — see the README's "Reproduction harness".

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use skyline_core::algo::Algorithm;
use skyline_core::dominance::{
    simd::{self, TileStore},
    strictly_dominates, strictly_dominates_lanes,
};
use skyline_core::{PivotStrategy, SkylineConfig, SortKey};
use skyline_data::{Distribution, RealDataset, Rng};
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
            "ablation-dominance" => {
                ablation_dominance(self.scale);
            }
            "ablation-prefilter" => ablation_prefilter(self),
            "ablation-sortkeys" => ablation_sortkeys(self),
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
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "table1",
        "table2",
        "table3",
        "ablation-dominance",
        "ablation-prefilter",
        "ablation-sortkeys",
        "all",
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

/// Per-DT nanoseconds of each dominance kernel at one dimensionality:
/// one `ABLATION_DOMINANCE` line.
#[derive(Debug)]
struct DominanceRow {
    level: &'static str,
    d: usize,
    window: usize,
    scalar_ns: f64,
    lanes_ns: f64,
    batch_ns: f64,
}

/// Ablation of the dominance-test kernels (paper §VII-A2, which
/// vectorises its DTs for 1.25–2× end-to-end speedups), on window scans
/// where every test fails *late* — the worst case for the scalar early
/// exit, the case vectorisation is for:
///
/// * `scalar` — early-exit one-vs-one loop;
/// * `lanes` — the branch-free auto-vectorised one-vs-one kernel that
///   [`dt`](skyline_core::dominance::dt) runs from d = 8;
/// * `batch` — the batched one-vs-many tile scan (`TileStore`): the
///   AVX2 kernel where the CPU has it, the portable one otherwise or
///   when `SKYLINE_FORCE_SCALAR` is set. It is the shape the window
///   loops actually run.
///
/// Prints one machine-readable line per dimensionality (`*_ns` are
/// per-DT nanoseconds; `batch_vs_lanes` is the speedup of the batched
/// kernel over the `lanes` window scan) and returns the rows it printed:
///
/// ```text
/// ABLATION_DOMINANCE level=avx2 d=8 window=512 scalar_ns=.. lanes_ns=.. batch_ns=.. batch_vs_lanes=..x
/// ```
fn ablation_dominance(scale: Scale) -> Vec<DominanceRow> {
    let budget = match scale {
        Scale::Smoke => Duration::from_millis(20),
        Scale::Laptop | Scale::Paper => Duration::from_millis(200),
    };
    let (window, cands) = (512, 256);
    let mut out = Vec::new();
    for d in [4usize, 8, 16] {
        let (win, cand) = window_workload(d, window, cands);
        let dts = (win.len() * cand.len()) as f64;
        // All variants use window-scan (`any`) semantics so early-exit
        // behaviour is compared like for like.
        let scalar_ns = ns_per_call(budget, || {
            cand.iter()
                .filter(|q| win.iter().any(|w| strictly_dominates(w, q)))
                .count()
        }) / dts;
        let lanes_ns = ns_per_call(budget, || {
            cand.iter()
                .filter(|q| win.iter().any(|w| strictly_dominates_lanes(w, q)))
                .count()
        }) / dts;
        let mut tiles = TileStore::with_capacity(d, win.len());
        for w in &win {
            tiles.push(w);
        }
        let batch_ns = ns_per_call(budget, || {
            let mut dts_ctr = 0u64;
            cand.iter()
                .filter(|q| tiles.any_dominates(q, &mut dts_ctr))
                .count()
        }) / dts;

        let row = DominanceRow {
            level: simd::active_level().name(),
            d,
            window,
            scalar_ns,
            lanes_ns,
            batch_ns,
        };
        println!(
            "ABLATION_DOMINANCE level={} d={} window={} scalar_ns={:.3} lanes_ns={:.3} \
             batch_ns={:.3} batch_vs_lanes={:.2}x",
            row.level,
            row.d,
            row.window,
            row.scalar_ns,
            row.lanes_ns,
            row.batch_ns,
            row.lanes_ns / row.batch_ns,
        );
        out.push(row);
    }
    out
}

/// A window-scan workload: `window` points scanned by each of `cands`
/// candidates — the access pattern of SFS/Q-Flow Phase I. Window points
/// model anticorrelated skyline members: better than every candidate on
/// all dimensions except the last, where they collapse — so every
/// dominance test fails late and every kernel runs the full scan.
fn window_workload(d: usize, window: usize, cands: usize) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
    let mut rng = Rng::seed_from(11);
    let win: Vec<Vec<f32>> = (0..window)
        .map(|_| {
            let mut row: Vec<f32> = (0..d).map(|_| 0.5 * rng.next_f64() as f32).collect();
            row[d - 1] = 2.0 + rng.next_f64() as f32;
            row
        })
        .collect();
    let cand: Vec<Vec<f32>> = (0..cands)
        .map(|_| (0..d).map(|_| 0.6 + 0.4 * rng.next_f64() as f32).collect())
        .collect();
    (win, cand)
}

/// Mean nanoseconds per call of `f`, timed over `budget` after a warm-up.
fn ns_per_call(budget: Duration, mut f: impl FnMut() -> usize) -> f64 {
    let mut sink = 0usize;
    for _ in 0..3 {
        sink = sink.wrapping_add(f());
    }
    let mut rounds = 0u32;
    let started = Instant::now();
    while started.elapsed() < budget {
        sink = sink.wrapping_add(f());
        rounds += 1;
    }
    black_box(sink);
    started.elapsed().as_nanos() as f64 / rounds.max(1) as f64
}

/// Ablation of the pre-filter queue size β (paper footnote 3: "β = 8
/// empirically configured; appreciable impact only [on] correlated
/// data"): Hybrid at the default workload across β.
fn ablation_prefilter(ctx: &mut ExpCtx) {
    let (n, d) = ctx.scale.default_workload();
    let pool = ctx.pool(ctx.threads);
    let header: Vec<String> = ["", "Pre-filter", "Total", "DTs"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    for dist in [Distribution::Correlated, Distribution::Independent] {
        let data = ctx.data(dist, n, d);
        let mut rows = Vec::new();
        for beta in [1usize, 4, 8, 32, 128] {
            let cfg = SkylineConfig {
                prefilter_beta: beta,
                ..Default::default()
            };
            let s = measure(Algorithm::Hybrid, &data, &pool, &cfg, ctx.scale).stats;
            rows.push(vec![
                format!("β={beta}"),
                fmt_secs(s.prefilter),
                fmt_secs(s.total),
                s.dominance_tests.to_string(),
            ]);
        }
        print_table(
            &format!(
                "Ablation: pre-filter queue size β in Hybrid (n = {n}, d = {d}, t = {}) — {}",
                ctx.threads,
                dist.label()
            ),
            &header,
            &rows,
        );
    }
}

/// Ablation of the monotone presort key: SFS with L1 (the paper's
/// choice), entropy and SaLSa's minimum coordinate, plus SaLSa's early
/// termination as the fourth row.
fn ablation_sortkeys(ctx: &mut ExpCtx) {
    let (n, d) = ctx.scale.default_workload();
    let pool = ctx.pool(ctx.threads);
    let header: Vec<String> = ["", "Total", "DTs"].iter().map(|s| s.to_string()).collect();
    for dist in [Distribution::Independent, Distribution::Anticorrelated] {
        let data = ctx.data(dist, n, d);
        let mut rows = Vec::new();
        for (algo, key) in [
            (Algorithm::Sfs, SortKey::L1),
            (Algorithm::Sfs, SortKey::Entropy),
            (Algorithm::Sfs, SortKey::MinCoord),
            (Algorithm::Salsa, SortKey::default()), // SaLSa sorts by its own key
        ] {
            let cfg = SkylineConfig {
                sort_key: key,
                ..Default::default()
            };
            let s = measure(algo, &data, &pool, &cfg, ctx.scale).stats;
            let label = if algo == Algorithm::Sfs {
                format!("SFS {}", key.name())
            } else {
                algo.name().to_string()
            };
            rows.push(vec![
                label,
                fmt_secs(s.total),
                s.dominance_tests.to_string(),
            ]);
        }
        print_table(
            &format!(
                "Ablation: presort key (n = {n}, d = {d}, t = {}) — {}",
                ctx.threads,
                dist.label()
            ),
            &header,
            &rows,
        );
    }
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

    /// CI greps the `ABLATION_DOMINANCE` lines at both SIMD levels: one
    /// row per d, labelled with the level that actually ran.
    #[test]
    fn ablation_dominance_reports_every_kernel_at_the_active_level() {
        let rows = ablation_dominance(Scale::Smoke);
        assert_eq!(rows.iter().map(|r| r.d).collect::<Vec<_>>(), [4, 8, 16]);
        for r in &rows {
            assert_eq!(r.level, simd::active_level().name());
            assert_eq!(r.window, 512);
            for ns in [r.scalar_ns, r.lanes_ns, r.batch_ns] {
                assert!(ns.is_finite() && ns > 0.0, "d = {}: {ns}", r.d);
            }
        }
    }

    /// Table III's ratio machinery on a tiny workload.
    #[test]
    fn table3_smoke() {
        let mut ctx = ExpCtx::new(Scale::Smoke, 2);
        assert!(ctx.run("table3"));
    }
}
