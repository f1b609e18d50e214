//! `engine_mixed`: writes beside reads on a cached engine.
//!
//! Independent 200 000×8 behind the default 8 MiB result cache; the
//! hot set of eight queries from [`inputs::hot_set`] is warmed in
//! set-up. One caller then runs cycles of 19 queries drawn uniformly
//! (seeded) from the hot set plus one mutation: an `insert` of 16
//! seeded rows, and every 4th cycle instead a `delete` of the 4 oldest
//! inserted ids. Cache hits, forward patching, delta plans after
//! deletes and sorted-projection maintenance all run here; a change
//! that speeds cold execution by making mutation or patching dearer
//! shows on this workload and not on `engine_cold`.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use skyline_core::algo::Algorithm;
use skyline_core::skyband::skyband_counts;
use skyline_core::SkylineConfig;
use skyline_data::{Dataset, Distribution, Preference};
use skyline_engine::{Engine, EngineConfig, QueryKind, SpanKind};
use skyline_parallel::ThreadPool;

use crate::engine_cold::{ask, trace_stages};
use crate::inputs::{self, MixedStream, ScriptEntry, DELETE_ROWS, MIXED_IND, QUERIES_PER_CYCLE};
use crate::oracle::{self, Answer};
use crate::report::{peak_rss_mb, Metrics, Outcome};
use crate::stats::{median_of, ms, rate, summarize, Tail, Timed};
use crate::trace::Recorder;
use crate::{probes, repeat_setup, spec, Ctx};

fn mixed_config() -> EngineConfig {
    EngineConfig {
        threads: inputs::lanes(),
        ..EngineConfig::default()
    }
}

/// Runs the hot set once, in order; returns how many queries failed.
fn warm(engine: &Engine, hot: &[ScriptEntry]) -> u64 {
    hot.iter()
        .filter(|e| engine.execute(&e.query).is_err())
        .count() as u64
}

struct State {
    engine: Engine,
    hot: Vec<ScriptEntry>,
    /// The registered rows; with [`Script::inserted`] and
    /// [`Script::orphaned`] the shadow list of what must be live in
    /// the engine.
    base: Dataset,
    generate_ms: f64,
    register_ms: f64,
    warm_failures: u64,
}

fn setup(ctx: &Ctx) -> State {
    let pool = ThreadPool::new(inputs::lanes());
    let start = Instant::now();
    let base = inputs::dataset(
        Distribution::Independent,
        MIXED_IND.0,
        MIXED_IND.1,
        ctx.seed,
        "mixed.ind",
        &pool,
    );
    let generate_ms = ms(start.elapsed());
    let hot = inputs::hot_set(ctx.seed);
    let engine = Engine::with_config(mixed_config());
    let start = Instant::now();
    engine.register("ind", base.clone());
    let register_ms = ms(start.elapsed());
    let warm_failures = warm(&engine, &hot);
    State {
        engine,
        hot,
        base,
        generate_ms,
        register_ms,
        warm_failures,
    }
}

/// The mutation script's moving parts, carried across replays so a
/// traced replay continues where the untraced one stopped.
struct Script {
    stream: MixedStream,
    cycle: u64,
    /// Inserted rows still live, oldest first, with the ids the engine
    /// gave them.
    inserted: VecDeque<(u32, Vec<f32>)>,
    /// Inserted rows whose ids a compaction voided: still live, never
    /// deleted by the script.
    orphaned: Vec<Vec<f32>>,
    /// Hot keys not queried yet since the last delete.
    stale: Vec<bool>,
}

impl Script {
    fn new(seed: u64, hot: usize) -> Self {
        Self {
            stream: MixedStream::new(seed, hot),
            cycle: 0,
            inserted: VecDeque::new(),
            orphaned: Vec::new(),
            stale: vec![false; hot],
        }
    }
}

#[derive(Default)]
struct Replay {
    /// Every query and every mutation, with its completion offset.
    queries: Vec<Timed>,
    mutations: Vec<Timed>,
    /// Completion offsets of the operations that succeeded.
    correct_at: Vec<f64>,
    hit_ms: Vec<f64>,
    delta_ms: Vec<f64>,
    insert_ms: Vec<f64>,
    delete_ms: Vec<f64>,
    patched: u64,
    compactions: u64,
    ancestor_hits: u64,
    attempted: u64,
    failed: u64,
    elapsed: Duration,
}

/// Runs mutation cycles against `engine` until `window` has passed or
/// `max_cycles` are done.
fn replay(
    engine: &Engine,
    hot: &[ScriptEntry],
    script: &mut Script,
    window: Duration,
    max_cycles: u64,
    rec: &mut Recorder,
) -> Replay {
    let mut out = Replay::default();
    let begun = Instant::now();
    let mut cycles = 0;
    while begun.elapsed() < window && cycles < max_cycles {
        cycles += 1;
        for _ in 0..QUERIES_PER_CYCLE {
            let key = script.stream.next_query();
            let entry = &hot[key];
            let op = rec.begin(entry.class);
            let start = Instant::now();
            let answered = ask(engine, &entry.query, rec.enabled());
            let end = Instant::now();
            out.attempted += 1;
            match answered {
                Ok((result, trace)) => {
                    let wall_ms = ms(end - start);
                    let at = (end - begun).as_secs_f64();
                    out.queries.push((at, wall_ms));
                    out.correct_at.push(at);
                    if std::mem::take(&mut script.stale[key]) {
                        out.delta_ms.push(wall_ms);
                    } else if result.cache_hit {
                        out.hit_ms.push(wall_ms);
                    }
                    if let Some(trace) = trace.as_deref() {
                        out.ancestor_hits +=
                            u64::from(trace.span(SpanKind::CacheAncestor).is_some());
                        rec.call(
                            &op,
                            "engine.explain_analyze",
                            start,
                            end,
                            &trace_stages(trace),
                        );
                    }
                }
                Err(e) => {
                    eprintln!("perf: {:?} failed: {e}", entry.query);
                    out.failed += 1;
                }
            }
            rec.end(op);
        }

        script.cycle += 1;
        let delete = script.cycle % 4 == 0 && script.inserted.len() >= DELETE_ROWS;
        let op = rec.begin(if delete { "delete" } else { "insert" });
        let rows = if delete {
            Vec::new()
        } else {
            script.stream.next_rows()
        };
        let ids: Vec<u32> = script
            .inserted
            .iter()
            .take(if delete { DELETE_ROWS } else { 0 })
            .map(|(id, _)| *id)
            .collect();
        let start = Instant::now();
        let report = engine.update_batch("ind", &rows, &ids);
        let end = Instant::now();
        rec.call(&op, "engine.update_batch", start, end, &[]);
        rec.end(op);
        out.attempted += 1;
        match report {
            Ok(report) => {
                let wall_ms = ms(end - start);
                let at = (end - begun).as_secs_f64();
                out.mutations.push((at, wall_ms));
                out.correct_at.push(at);
                if delete {
                    out.delete_ms.push(wall_ms);
                    script.inserted.drain(..DELETE_ROWS);
                    script.stale.fill(true);
                } else {
                    out.insert_ms.push(wall_ms);
                    out.patched += report.cache_patched as u64;
                    script
                        .inserted
                        .extend(report.inserted_ids.iter().copied().zip(rows));
                }
                if report.compacted {
                    // Compaction renumbers every surviving row, so the
                    // ids held for later deletes are void: the rows
                    // stay in the shadow list, out of the script's reach.
                    out.compactions += 1;
                    script
                        .orphaned
                        .extend(script.inserted.drain(..).map(|(_, row)| row));
                }
            }
            Err(e) => {
                eprintln!("perf: mutation failed: {e}");
                out.failed += 1;
            }
        }
    }
    out.elapsed = begun.elapsed();
    out
}

/// A result as a sorted multiset of (row values, count) — ids are not
/// comparable across a compaction, values are.
fn as_multiset(rows: impl Iterator<Item = (Vec<u32>, u32)>) -> Vec<(Vec<u32>, u32)> {
    let mut v: Vec<_> = rows.collect();
    v.sort_unstable();
    v
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

/// Recomputes every hot query sequentially over the shadow list of
/// live rows and compares it with what the engine answers now.
/// Returns (checks made, mismatches).
fn verify_against_shadow(state: &State, script: &Script) -> (u64, u64) {
    let d = state.base.dims();
    let mut flat = state.base.values().to_vec();
    for row in script
        .inserted
        .iter()
        .map(|(_, row)| row)
        .chain(&script.orphaned)
    {
        flat.extend_from_slice(row);
    }
    let shadow = Dataset::from_flat(flat, d).expect("shadow rows are finite");
    let entry = state.engine.dataset("ind").expect("ind is registered");
    let seq = ThreadPool::new(1);
    let mut mismatches = 0;
    for hot in &state.hot {
        let (dims, mask) = oracle::dims_and_mask(&hot.query, d);
        let prefs: Vec<Preference> = dims
            .iter()
            .map(|dim| {
                if mask & (1 << dim) != 0 {
                    Preference::Max
                } else {
                    Preference::Min
                }
            })
            .collect();
        let folded = shadow
            .project(&dims)
            .and_then(|p| p.with_preferences(&prefs))
            .expect("hot queries name valid dimensions");
        let expected: Vec<(u32, u32)> = match hot.query.query_kind() {
            QueryKind::Skyline => Algorithm::Sfs
                .run(&folded, &seq, &SkylineConfig::default())
                .indices
                .into_iter()
                .map(|i| (i, 0))
                .collect(),
            QueryKind::Skyband { k } => skyband_counts(folded.values(), dims.len(), k, &mut 0),
            QueryKind::TopKDominating { .. } => unreachable!("the hot set has no top-k query"),
        };
        let expected = as_multiset(
            expected
                .into_iter()
                .map(|(i, c)| (bits(shadow.row(i as usize)), c)),
        );
        let got = match state.engine.execute(&hot.query) {
            Ok(result) => {
                let answer = Answer::of(&result);
                let counts = answer
                    .counts
                    .unwrap_or_else(|| vec![0; answer.indices.len()]);
                as_multiset(
                    answer
                        .indices
                        .iter()
                        .zip(counts)
                        .map(|(&id, c)| (bits(entry.point(id)), c)),
                )
            }
            Err(e) => {
                eprintln!("perf: {:?} failed after the window: {e}", hot.query);
                Vec::new()
            }
        };
        if got != expected {
            eprintln!(
                "perf: {:?} returns {} rows, sequential recomputation over the shadow list {}",
                hot.query,
                got.len(),
                expected.len()
            );
            mismatches += 1;
        }
    }
    (state.hot.len() as u64, mismatches)
}

fn wal_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(meta) if meta.is_dir() => wal_bytes(&e.path()),
            Ok(meta) if e.file_name() == "wal.log" => meta.len(),
            _ => 0,
        })
        .sum()
}

/// The durable twin: the same mutation script against
/// `Engine::open_durable` on a scratch directory (`StdIo`, this
/// sandbox's disk), then a reopen that replays the log. Returns the
/// number of failures.
fn durable_twin(m: &mut Metrics, ctx: &Ctx, state: &State, budget: Duration) -> u64 {
    let dir: PathBuf = ctx.out.join(format!("durable_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut run = || -> Result<u64, String> {
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let (engine, _) = Engine::open_durable(&dir, mixed_config()).map_err(|e| e.to_string())?;
        engine.register("ind", state.base.clone());
        let mut failed = warm(&engine, &state.hot);
        let mut script = Script::new(ctx.seed, state.hot.len());
        let r = replay(
            &engine,
            &state.hot,
            &mut script,
            budget,
            60,
            &mut Recorder::new(false),
        );
        failed += r.failed;
        let rows = (r.insert_ms.len() * inputs::INSERT_ROWS) as f64;
        m.layer("data.persist.ack_ms", median_of(r.insert_ms));
        m.layer(
            "data.persist.wal_bytes_per_row",
            wal_bytes(&dir) as f64 / rows.max(1.0),
        );
        let live = engine.dataset("ind").map_or(0, |e| e.live_len());
        engine.shutdown();
        drop(engine);
        let start = Instant::now();
        let (reopened, report) =
            Engine::open_durable(&dir, mixed_config()).map_err(|e| e.to_string())?;
        m.layer("data.persist.recover_ms", ms(start.elapsed()));
        let recovered = reopened.dataset("ind").map_or(0, |e| e.live_len());
        if recovered != live || !report.quarantined.is_empty() {
            eprintln!("perf: recovery brought back {recovered} of {live} live rows");
            failed += 1;
        }
        reopened.shutdown();
        Ok(failed)
    };
    let failed = run().unwrap_or_else(|e| {
        eprintln!("perf: durable twin: {e}");
        1
    });
    let _ = std::fs::remove_dir_all(&dir);
    failed
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (state, setup_s) = repeat_setup(|| setup(ctx));
    let mut m = Metrics::new(spec::spec(), ctx.traced);
    let mut attempted = state.hot.len() as u64;
    let mut failed = state.warm_failures;
    let mut script = Script::new(ctx.seed, state.hot.len());

    let window = ctx.replay_window();
    let before = state.engine.cache_stats();
    let base = replay(
        &state.engine,
        &state.hot,
        &mut script,
        window,
        u64::MAX,
        &mut Recorder::new(false),
    );
    let after = state.engine.cache_stats();
    attempted += base.attempted;
    failed += base.failed;

    // `op`: a query from the hot set. `alt`: a mutation acknowledgement,
    // inserts and deletes pooled.
    let window_s = base.elapsed.as_secs_f64();
    let op = summarize(&base.queries, window_s, Tail::Percentile(99.0), "hot query");
    let alt = summarize(&base.mutations, window_s, Tail::UpperQuartile, "mutation");
    m.latencies(op, alt);
    m.e2e("setup_s", setup_s);
    m.e2e("ops_per_s", rate(&base.correct_at, window_s));

    if ctx.traced {
        let mut rec = Recorder::new(true);
        let traced = replay(
            &state.engine,
            &state.hot,
            &mut script,
            window,
            u64::MAX,
            &mut rec,
        );
        attempted += traced.attempted + 1;
        failed += traced.failed;
        let probes = (after.hits - before.hits) as f64 + (after.misses - before.misses) as f64;
        m.layer(
            "engine.cache.hit_ratio",
            (after.hits - before.hits) as f64 / probes.max(1.0),
        );
        m.layer(
            "engine.cache.hit_us",
            median_of(traced.hit_ms.clone()) * 1e3,
        );
        m.layer(
            "engine.cache.patches_per_insert",
            traced.patched as f64 / traced.insert_ms.len().max(1) as f64,
        );
        m.layer("engine.cache.ancestor_hits", traced.ancestor_hits as f64);
        m.layer(
            "engine.mutate.insert_ms",
            median_of(traced.insert_ms.clone()),
        );
        m.layer(
            "engine.mutate.delete_ms",
            median_of(traced.delete_ms.clone()),
        );
        m.layer(
            "engine.mutate.compactions",
            (base.compactions + traced.compactions) as f64,
        );
        m.layer("engine.delta.query_ms", median_of(traced.delta_ms.clone()));
        m.layer("data.generate.ms", state.generate_ms);
        m.layer("engine.register.ms", state.register_ms);
        m.layer(
            "bench.trace_overhead",
            median_of(traced.queries.iter().map(|q| q.1).collect()) / op.p50,
        );
        failed += probes::finish_trace(&rec, ctx);
        failed += durable_twin(&mut m, ctx, &state, window / 2);
        attempted += 1;
    }

    let (checks, mismatches) = verify_against_shadow(&state, &script);
    attempted += checks;
    failed += mismatches;
    state.engine.shutdown();
    m.e2e("peak_rss_mb", peak_rss_mb());
    Outcome {
        attempted,
        failed,
        metrics: m,
    }
}
