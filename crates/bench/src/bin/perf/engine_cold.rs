//! `engine_cold`: every query is planned, materialised and computed.
//!
//! An engine with the result cache off holds four datasets — `ind`
//! (independent 200 000×8), `anti` (anticorrelated 100 000×6), the
//! same rows again as `anti_sh` through `register_sharded(4, Grid)`,
//! and `small` (independent 10 000×4). One caller replays the fixed
//! 20-query script of [`inputs::cold_script`] in order through
//! `Engine::execute`. The planner, the `algorithm_input` copy for
//! mixed-preference rows, the executor's fork per query kind and the
//! sharded scatter/merge all run on every pass; the cache and the wire
//! are bypassed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use skyline_data::{Distribution, PartitionerKind, ShardedStore};
use skyline_engine::{
    Engine, EngineConfig, EngineError, QueryResult, QueryTrace, SkylineQuery, SpanKind,
};
use skyline_parallel::ThreadPool;

use crate::inputs::{self, ScriptEntry, COLD_ANTI, COLD_IND, COLD_SHARDS, COLD_SMALL};
use crate::lib_ops::NAIVE_PREFIX;
use crate::oracle::{self, Answer};
use crate::report::{peak_rss_mb, Metrics, Outcome};
use crate::stats::{mean, median_of, ms, summarize_whole, us, Tail};
use crate::trace::{Recorder, Stage};
use crate::{probes, repeat_setup, spec, Ctx};

struct State {
    engine: Engine,
    script: Vec<ScriptEntry>,
    /// The first pass's answers; every later pass must repeat them.
    reference: Vec<Answer>,
    generate_ms: f64,
    register_ms: f64,
    register_sharded_ms: f64,
    checks: u64,
    mismatches: u64,
}

fn cold_engine() -> Engine {
    Engine::with_config(EngineConfig {
        threads: inputs::lanes(),
        cache_bytes: 0,
        ..EngineConfig::default()
    })
}

fn setup(ctx: &Ctx) -> State {
    let pool = ThreadPool::new(inputs::lanes());
    let start = Instant::now();
    let ind = inputs::dataset(
        Distribution::Independent,
        COLD_IND.0,
        COLD_IND.1,
        ctx.seed,
        "cold.ind",
        &pool,
    );
    let anti = inputs::dataset(
        Distribution::Anticorrelated,
        COLD_ANTI.0,
        COLD_ANTI.1,
        ctx.seed,
        "cold.anti",
        &pool,
    );
    let small = inputs::dataset(
        Distribution::Independent,
        COLD_SMALL.0,
        COLD_SMALL.1,
        ctx.seed,
        "cold.small",
        &pool,
    );
    let generate_ms = ms(start.elapsed());
    let script = inputs::cold_script(ctx.seed);

    // The script on a prefix engine of the same shape, against the
    // quadratic definition.
    let (mut checks, mut mismatches) = (0, 0);
    let prefix = cold_engine();
    let cut = [
        ("ind", ind.truncated(NAIVE_PREFIX)),
        ("anti", anti.truncated(NAIVE_PREFIX)),
        ("small", small.truncated(NAIVE_PREFIX)),
    ];
    for (name, data) in &cut {
        prefix.register(name, data.clone());
    }
    prefix.register_sharded(
        "anti_sh",
        cut[1].1.clone(),
        COLD_SHARDS,
        PartitionerKind::Grid,
    );
    for entry in &script {
        let name = entry.query.dataset().trim_end_matches("_sh");
        let data = &cut
            .iter()
            .find(|(n, _)| *n == name)
            .expect("script names a dataset")
            .1;
        checks += 1;
        match prefix.execute(&entry.query) {
            Ok(r) if Answer::of(&r) == oracle::naive(data, &entry.query) => {}
            other => {
                eprintln!(
                    "perf: prefix oracle disagrees on {:?}: {:?}",
                    entry.query,
                    other.map(|r| r.len())
                );
                mismatches += 1;
            }
        }
    }
    prefix.shutdown();

    let engine = cold_engine();
    let start = Instant::now();
    engine.register("ind", ind);
    let register_ms = ms(start.elapsed());
    engine.register("anti", anti.clone());
    let start = Instant::now();
    engine.register_sharded("anti_sh", anti, COLD_SHARDS, PartitionerKind::Grid);
    let register_sharded_ms = ms(start.elapsed());
    engine.register("small", small);

    // First pass: the reference for every later one, and the warm-up.
    let reference: Vec<Answer> = script
        .iter()
        .map(|e| Answer::of(&engine.execute(&e.query).expect("script queries are valid")))
        .collect();
    // The sharded entry holds the same rows as the plain one.
    let at = |class| {
        script
            .iter()
            .position(|e| e.class == class)
            .expect("class is in the script")
    };
    checks += 1;
    if reference[at("anti_sharded")] != reference[at("anti_plain")] {
        eprintln!("perf: sharded and plain anticorrelated skylines differ");
        mismatches += 1;
    }
    State {
        engine,
        script,
        reference,
        generate_ms,
        register_ms,
        register_sharded_ms,
        checks,
        mismatches,
    }
}

/// One executed script entry.
struct Sample {
    entry: usize,
    wall_ms: f64,
    /// `RunStats.total` of the algorithm run, when there was one.
    algo_ms: Option<f64>,
    result: QueryResult,
    trace: Option<Arc<QueryTrace>>,
}

struct Replay {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    elapsed: Duration,
}

/// The stage totals of a query trace, in first-entry order. Per-shard
/// local spans run next to each other on the pool's lanes, so only the
/// slowest one is kept.
pub fn trace_stages(trace: &QueryTrace) -> Vec<Stage> {
    let mut stages: Vec<Stage> = Vec::with_capacity(trace.spans.len());
    for span in &trace.spans {
        if span.kind == SpanKind::ShardLocal {
            if let Some(slot) = stages.iter_mut().find(|s| s.0 == span.kind.name()) {
                slot.1 = slot.1.max(span.duration);
                continue;
            }
        }
        stages.push((span.kind.name(), span.duration));
    }
    stages
}

/// Runs one query: through `execute`, or, in a traced replay, through
/// `explain_analyze`, which hands back the trace the engine keeps
/// either way — the query runs exactly as `execute` runs it.
pub fn ask(
    engine: &Engine,
    query: &SkylineQuery,
    traced: bool,
) -> Result<(QueryResult, Option<Arc<QueryTrace>>), EngineError> {
    if traced {
        engine.explain_analyze(query).map(|(r, t)| (r, Some(t)))
    } else {
        engine.execute(query).map(|r| (r, None))
    }
}

fn replay(state: &State, window: Duration, rec: &mut Recorder) -> Replay {
    let mut out = Replay {
        samples: Vec::new(),
        attempted: 0,
        failed: 0,
        elapsed: Duration::ZERO,
    };
    let begun = Instant::now();
    'window: loop {
        for (i, entry) in state.script.iter().enumerate() {
            if begun.elapsed() >= window {
                break 'window;
            }
            let op = rec.begin(entry.class);
            let start = Instant::now();
            let answered = ask(&state.engine, &entry.query, rec.enabled());
            let end = Instant::now();
            out.attempted += 1;
            match answered {
                Ok((result, trace)) => {
                    let stages = trace.as_deref().map(trace_stages).unwrap_or_default();
                    rec.call(&op, "engine.explain_analyze", start, end, &stages);
                    if Answer::of(&result) != state.reference[i] {
                        out.failed += 1;
                    }
                    out.samples.push(Sample {
                        entry: i,
                        wall_ms: ms(end - start),
                        algo_ms: result.stats.as_ref().map(|s| ms(s.total)),
                        result,
                        trace,
                    });
                }
                Err(e) => {
                    eprintln!("perf: {:?} failed: {e}", entry.query);
                    out.failed += 1;
                }
            }
            rec.end(op);
        }
    }
    out.elapsed = begun.elapsed();
    out
}

fn layer_metrics(m: &mut Metrics, state: &State, r: &Replay) {
    let of_class = |class: &'static str| {
        r.samples
            .iter()
            .filter(move |s| state.script[s.entry].class == class)
    };
    let class_ms = |class: &'static str| median_of(of_class(class).map(|s| s.wall_ms).collect());
    m.layer("engine.cold.ind_min_ms", class_ms("ind_min"));
    m.layer("engine.cold.ind_pref_ms", class_ms("ind_pref"));
    m.layer("engine.cold.skyband_ms", class_ms("skyband"));
    m.layer("engine.cold.anti_plain_ms", class_ms("anti_plain"));
    m.layer("engine.cold.anti_sharded_ms", class_ms("anti_sharded"));
    m.layer("engine.cold.topk_ms", class_ms("topk"));
    m.layer(
        "engine.sharded.over_plain",
        class_ms("anti_sharded") / class_ms("anti_plain"),
    );

    // What the engine adds around the algorithm run: plan, queue hop,
    // and for mixed preferences the `algorithm_input` copy.
    let overhead = |class: &'static str| {
        median_of(
            of_class(class)
                .filter_map(|s| Some(s.wall_ms - s.algo_ms?))
                .collect(),
        )
    };
    m.layer("engine.overhead.min_ms", overhead("ind_min"));
    m.layer("engine.overhead.pref_ms", overhead("ind_pref"));

    let traces = || r.samples.iter().filter_map(|s| s.trace.as_deref());
    m.layer(
        "engine.dts_per_query",
        mean(
            &traces()
                .map(|t| t.dominance_tests as f64)
                .collect::<Vec<_>>(),
        ),
    );
    let span_us = |kind: SpanKind| {
        median_of(
            traces()
                .filter_map(|t| t.span(kind))
                .map(|s| us(s.duration))
                .collect(),
        )
    };
    m.layer(
        "engine.span.admission_wait_us",
        span_us(SpanKind::AdmissionWait),
    );
    m.layer("engine.span.plan_us", span_us(SpanKind::Plan));
    m.layer(
        "engine.span.cache_insert_us",
        span_us(SpanKind::CacheInsert),
    );
    m.layer(
        "engine.span.unattributed_ms",
        median_of(
            traces()
                .map(|t| {
                    let named: Duration = trace_stages(t).iter().map(|s| s.1).sum();
                    ms(t.total.saturating_sub(named))
                })
                .collect(),
        ),
    );

    let sharded_span_ms = |kind: SpanKind| {
        median_of(
            of_class("anti_sharded")
                .filter_map(|s| s.trace.as_deref())
                .map(|t| {
                    t.spans_of(kind)
                        .map(|s| s.duration)
                        .max()
                        .unwrap_or_default()
                })
                .map(ms)
                .collect(),
        )
    };
    m.layer(
        "engine.sharded.scatter_ms",
        sharded_span_ms(SpanKind::ShardScatter),
    );
    m.layer(
        "engine.sharded.local_max_ms",
        sharded_span_ms(SpanKind::ShardLocal),
    );
    m.layer(
        "engine.sharded.merge_ms",
        sharded_span_ms(SpanKind::ShardMerge),
    );
    let merges: Vec<_> = of_class("anti_sharded")
        .filter_map(|s| s.result.shard_merge.as_ref())
        .collect();
    m.layer(
        "engine.sharded.merge_dts",
        median_of(merges.iter().map(|s| s.dominance_tests as f64).collect()),
    );
    m.layer(
        "engine.sharded.witness_kill_ratio",
        median_of(
            merges
                .iter()
                .map(|s| s.witness_kills as f64 / s.candidates.max(1) as f64)
                .collect(),
        ),
    );

    // Probes of single calls the script only makes as part of a query.
    let mut plan_us = Vec::new();
    for _ in 0..5 {
        for entry in &state.script {
            let start = Instant::now();
            let plan = state.engine.plan(&entry.query);
            plan_us.push(us(start.elapsed()));
            std::hint::black_box(plan.is_ok());
        }
    }
    m.layer("engine.plan.us", median_of(plan_us));
    let anti = state
        .engine
        .dataset("anti")
        .expect("anti is registered")
        .snapshot();
    m.layer(
        "data.shard.build_ms",
        median_of(
            (0..3)
                .map(|_| {
                    let start = Instant::now();
                    std::hint::black_box(ShardedStore::build(
                        &anti,
                        COLD_SHARDS,
                        PartitionerKind::Grid,
                    ));
                    ms(start.elapsed())
                })
                .collect(),
        ),
    );
    m.layer("data.generate.ms", state.generate_ms);
    m.layer("engine.register.ms", state.register_ms);
    m.layer("engine.register_sharded.ms", state.register_sharded_ms);
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (state, setup_s) = repeat_setup(|| setup(ctx));
    let mut m = Metrics::new(spec::spec(), ctx.traced);
    let mut attempted = state.checks + state.script.len() as u64;
    let mut failed = state.mismatches;

    let window = ctx.replay_window();
    let base = replay(&state, window, &mut Recorder::new(false));
    attempted += base.attempted;
    failed += base.failed;

    // `op`: any script query. `alt`: the d = 6 skyline on the sharded
    // entry, the script's most expensive single query. The script is
    // replayed in order, so the window is taken whole, not in slices.
    let sharded = state.script.iter().position(|e| e.class == "anti_sharded");
    let op = summarize_whole(
        base.samples.iter().map(|s| s.wall_ms).collect(),
        Tail::UpperQuartile,
        "script query",
    );
    let alt = summarize_whole(
        base.samples
            .iter()
            .filter(|s| Some(s.entry) == sharded)
            .map(|s| s.wall_ms)
            .collect(),
        Tail::UpperQuartile,
        "sharded query",
    );
    m.latencies(op, alt);
    m.e2e("setup_s", setup_s);
    m.e2e(
        "ops_per_s",
        (base.attempted - base.failed) as f64 / base.elapsed.as_secs_f64(),
    );

    if ctx.traced {
        let mut rec = Recorder::new(true);
        let traced = replay(&state, window, &mut rec);
        attempted += traced.attempted + 1;
        failed += traced.failed;
        layer_metrics(&mut m, &state, &traced);
        let traced_p50 = median_of(traced.samples.iter().map(|s| s.wall_ms).collect());
        m.layer("bench.trace_overhead", traced_p50 / op.p50);
        failed += probes::finish_trace(&rec, ctx);
    }
    state.engine.shutdown();
    m.e2e("peak_rss_mb", peak_rss_mb());
    Outcome {
        attempted,
        failed,
        metrics: m,
    }
}
