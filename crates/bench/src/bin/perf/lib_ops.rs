//! `lib_anti` and `lib_corr`: the paper's algorithms called directly.
//!
//! Three operations run round-robin through `Algorithm::run` with
//! `SkylineConfig::default()`: Hybrid on all lanes, Q-Flow on all
//! lanes, and Hybrid on one lane (the single-threaded baseline).
//! `core` kernels and `parallel` scaling do all the work; the engine
//! and the wire do none.
//!
//! * `lib_anti` — anticorrelated 200 000×6: skyline of about 41 000,
//!   at least 90 % of the time in Phase I/II dominance tests.
//! * `lib_corr` — correlated 500 000×8: skyline of about 1 400, time
//!   dominated by sort, pre-filter, pivot and pool-region overhead.

use std::time::{Duration, Instant};

use skyline_core::algo::Algorithm;
use skyline_core::{verify, RunStats, SkylineConfig};
use skyline_data::{Dataset, Distribution};
use skyline_parallel::ThreadPool;

use crate::report::{peak_rss_mb, Metrics, Outcome};
use crate::stats::{median_of, ms, rate, summarize, Tail, Timed};
use crate::trace::{Recorder, Stage};
use crate::{inputs, probes, repeat_setup, spec, Ctx};

/// Rows of the prefix every operation is also checked on against the
/// quadratic definition.
pub const NAIVE_PREFIX: usize = 5_000;

const OPS: [(&str, Algorithm); 3] = [
    ("hybrid", Algorithm::Hybrid),
    ("qflow", Algorithm::QFlow),
    ("hybrid_seq", Algorithm::Hybrid),
];

struct State {
    pool: ThreadPool,
    pool_seq: ThreadPool,
    data: Dataset,
    /// Skyline indices from one sequential BSkyTree run.
    oracle: Vec<u32>,
    generate_ms: f64,
    bskytree_ms: f64,
    checks: u64,
    mismatches: u64,
}

impl State {
    fn pool_of(&self, op: usize) -> &ThreadPool {
        if OPS[op].0 == "hybrid_seq" {
            &self.pool_seq
        } else {
            &self.pool
        }
    }
}

fn setup(ctx: &Ctx, dist: Distribution, n: usize, d: usize) -> State {
    let pool = ThreadPool::new(inputs::lanes());
    let pool_seq = ThreadPool::new(1);
    let cfg = SkylineConfig::default();

    let start = Instant::now();
    let data = inputs::dataset(dist, n, d, ctx.seed, "lib.rows", &pool);
    let generate_ms = ms(start.elapsed());

    let start = Instant::now();
    let oracle = Algorithm::BSkyTree.run(&data, &pool_seq, &cfg).indices;
    let bskytree_ms = ms(start.elapsed());

    let mut state = State {
        pool,
        pool_seq,
        data,
        oracle,
        generate_ms,
        bskytree_ms,
        checks: 0,
        mismatches: 0,
    };
    // All three operations against the definition on a prefix, then one
    // untimed run each on the full rows (also checked) so that the
    // window starts with warm pools and page tables.
    let prefix = state.data.truncated(NAIVE_PREFIX);
    let naive = verify::naive_skyline(&prefix);
    for (op, (name, algo)) in OPS.iter().enumerate() {
        let on_prefix = algo.run(&prefix, state.pool_of(op), &cfg).indices;
        let on_full = algo.run(&state.data, state.pool_of(op), &cfg).indices;
        state.checks += 2;
        for (what, ok) in [
            ("prefix", on_prefix == naive),
            ("full", on_full == state.oracle),
        ] {
            if !ok {
                eprintln!("perf: {name} disagrees with the oracle on the {what} rows");
                state.mismatches += 1;
            }
        }
    }
    state
}

fn stages(s: &RunStats) -> [Stage; 7] {
    [
        ("core.init", s.init),
        ("core.prefilter", s.prefilter),
        ("core.pivot", s.pivot),
        ("core.phase1", s.phase1),
        ("core.phase2", s.phase2),
        ("core.compress", s.compress),
        ("core.other", s.other()),
    ]
}

/// What one replay of the round-robin collected, per operation.
#[derive(Default)]
struct Replay {
    /// (completion offset in seconds, wall milliseconds) per run.
    wall_ms: [Vec<Timed>; 3],
    /// Completion offsets of the runs the oracle agreed with.
    correct_at: Vec<f64>,
    stats: [Vec<RunStats>; 3],
    attempted: u64,
    failed: u64,
    elapsed: Duration,
}

fn replay(state: &State, window: Duration, rec: &mut Recorder) -> Replay {
    let cfg = SkylineConfig::default();
    let mut out = Replay::default();
    let begun = Instant::now();
    'window: loop {
        for (op, (name, algo)) in OPS.iter().enumerate() {
            if begun.elapsed() >= window {
                break 'window;
            }
            let span = rec.begin(name);
            let start = Instant::now();
            let result = algo.run(&state.data, state.pool_of(op), &cfg);
            let end = Instant::now();
            rec.call(
                &span,
                "core.algorithm.run",
                start,
                end,
                &stages(&result.stats),
            );
            rec.end(span);
            let at = (end - begun).as_secs_f64();
            out.attempted += 1;
            if result.indices == state.oracle {
                out.correct_at.push(at);
            } else {
                out.failed += 1;
            }
            out.wall_ms[op].push((at, ms(end - start)));
            out.stats[op].push(result.stats);
        }
    }
    out.elapsed = begun.elapsed();
    out
}

/// Median over the runs of one operation of a value read from its
/// `RunStats`.
fn med(stats: &[RunStats], f: impl Fn(&RunStats) -> f64) -> f64 {
    median_of(stats.iter().map(f).collect())
}

fn layer_metrics(m: &mut Metrics, state: &State, r: &Replay) {
    let [hybrid, qflow, seq] = &r.stats;
    m.layer("core.hybrid.dts", med(hybrid, |s| s.dominance_tests as f64));
    m.layer("core.qflow.dts", med(qflow, |s| s.dominance_tests as f64));
    m.layer("core.skyline_size", state.oracle.len() as f64);
    let ns_per_dt =
        |s: &RunStats| (s.phase1 + s.phase2).as_nanos() as f64 / s.dominance_tests.max(1) as f64;
    m.layer("core.hybrid.ns_per_dt", med(hybrid, ns_per_dt));
    m.layer("core.qflow.ns_per_dt", med(qflow, ns_per_dt));
    m.layer("core.hybrid.init_ms", med(hybrid, |s| ms(s.init)));
    m.layer("core.hybrid.prefilter_ms", med(hybrid, |s| ms(s.prefilter)));
    m.layer("core.hybrid.pivot_ms", med(hybrid, |s| ms(s.pivot)));
    m.layer("core.hybrid.phase1_ms", med(hybrid, |s| ms(s.phase1)));
    m.layer("core.hybrid.phase2_ms", med(hybrid, |s| ms(s.phase2)));
    m.layer("core.hybrid.compress_ms", med(hybrid, |s| ms(s.compress)));
    m.layer("core.hybrid.other_ms", med(hybrid, |s| ms(s.other())));
    m.layer("core.qflow.init_ms", med(qflow, |s| ms(s.init)));
    m.layer("core.qflow.phase1_ms", med(qflow, |s| ms(s.phase1)));
    m.layer("core.qflow.phase2_ms", med(qflow, |s| ms(s.phase2)));
    m.layer("core.qflow.compress_ms", med(qflow, |s| ms(s.compress)));
    m.layer(
        "core.hybrid.parallel_fraction",
        med(hybrid, RunStats::parallel_fraction),
    );
    let hybrid_ms = med(hybrid, |s| ms(s.total));
    let seq_ms = med(seq, |s| ms(s.total));
    m.layer("core.hybrid_seq.ms", seq_ms);
    m.layer("core.bskytree.ms", state.bskytree_ms);
    m.layer("core.seq_overhead", seq_ms / state.bskytree_ms);
    m.layer("parallel.speedup", seq_ms / hybrid_ms);
    m.layer("data.generate.ms", state.generate_ms);
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (dist, n, d) = match ctx.workload.as_str() {
        "lib_anti" => (Distribution::Anticorrelated, 200_000, 6),
        _ => (Distribution::Correlated, 500_000, 8),
    };
    let (state, setup_s) = repeat_setup(|| setup(ctx, dist, n, d));
    let mut m = Metrics::new(spec::spec(), ctx.traced);
    let mut attempted = state.checks;
    let mut failed = state.mismatches;

    let window = ctx.replay_window();
    let base = replay(&state, window, &mut Recorder::new(false));
    attempted += base.attempted;
    failed += base.failed;

    let [hybrid, qflow, _] = &base.wall_ms;
    let window_s = base.elapsed.as_secs_f64();
    let op = summarize(hybrid, window_s, Tail::UpperQuartile, "Hybrid");
    let alt = summarize(qflow, window_s, Tail::UpperQuartile, "Q-Flow");
    m.latencies(op, alt);
    m.e2e("setup_s", setup_s);
    m.e2e("ops_per_s", rate(&base.correct_at, window_s));

    if ctx.traced {
        let mut rec = Recorder::new(true);
        let traced = replay(&state, window, &mut rec);
        attempted += traced.attempted;
        failed += traced.failed;
        layer_metrics(&mut m, &state, &traced);
        let traced_p50 = median_of(traced.wall_ms[0].iter().map(|t| t.1).collect());
        m.layer("bench.trace_overhead", traced_p50 / op.p50);
        probes::core_and_parallel(&mut m, ctx.seed, &state.pool);
        failed += probes::finish_trace(&rec, ctx);
        attempted += 1;
    }
    m.e2e("peak_rss_mb", peak_rss_mb());
    Outcome {
        attempted,
        failed,
        metrics: m,
    }
}
