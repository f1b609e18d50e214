//! The `engine` experiment: drives a mixed subspace-query workload
//! through [`skyline_engine::Engine`] and reports plan selections,
//! cold/warm service times, cache effectiveness, batch throughput,
//! and — since datasets are mutable — a mixed **read/write** phase
//! measuring how the cache survives point inserts and deletes
//! (eager patching and query-time delta plans versus recomputation).
//!
//! With `--feedback`, a final phase runs the workload on a
//! feedback-enabled engine across several cold epochs and reports
//! **plan-choice drift** (which queries the re-fitted thresholds
//! re-routed) and before/after latency.
//!
//! With `--tenants N`, an **admission-control phase** drives the
//! session front door: one high-priority tenant issues closed-loop
//! queries while `N − 1` low-priority tenants (each capped at
//! `--qps-cap` submissions/s) flood the queue. Per class it prints a
//! machine-readable `ADMISSION` line — queue-wait percentiles and
//! rejection rates — showing the flood cannot starve high-priority
//! latency. The line renders from the engine's telemetry registry (the
//! same `session.*` counters and queue-wait histograms every consumer
//! sees), not from a bench-side tally.
//!
//! With `--metrics`, each phase additionally dumps the registry as
//! machine-parseable `METRICS phase=<phase> name{labels} value` lines
//! (validated in CI by the `metrics_check` binary), one cold query is
//! rendered as a `TRACE` line via
//! [`Engine::explain_analyze`], and a `SLOWLOG` summary reports the
//! slow-query ring.

use std::time::{Duration, Instant};

use skyline_data::{generate, Distribution, Preference};
use skyline_engine::{
    Engine, EngineConfig, EngineError, FeedbackConfig, Priority, QueryKind, SessionOptions,
    SkylineQuery, Strategy, TelemetryConfig,
};
use skyline_parallel::ThreadPool;

use crate::{fmt_secs, print_table, Scale};

fn strategy_label(s: &Strategy) -> String {
    match s {
        Strategy::Cached => "cache".to_string(),
        Strategy::Trivial => "trivial".to_string(),
        Strategy::MinScan { dim } => format!("min-scan(d{dim})"),
        Strategy::Delta { .. } => "delta".to_string(),
        Strategy::Algorithm(a) => a.name().to_string(),
        Strategy::Sharded { k, partitioner } => {
            format!("sharded(k={k},{})", partitioner.name())
        }
    }
}

/// The mixed workload: for each registered dataset, a spread of
/// full-space, subspace, single-dimension, preference-flipped, and
/// limited queries.
fn workload(names: &[String], d: usize) -> Vec<SkylineQuery> {
    let mut queries = Vec::new();
    for name in names {
        queries.push(SkylineQuery::new(name));
        queries.push(SkylineQuery::new(name).dims([0, 1]));
        queries.push(SkylineQuery::new(name).dims([d - 2, d - 1]));
        queries.push(SkylineQuery::new(name).dims(0..d.min(4)));
        queries.push(SkylineQuery::new(name).dims([0]));
        queries.push(
            SkylineQuery::new(name)
                .dims([0, d - 1])
                .preference([Preference::Min, Preference::Max]),
        );
        queries.push(SkylineQuery::new(name).dims([1, 2]).limit(16));
    }
    queries
}

/// Cheap deterministic generator for the mutation phase.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
        self.0 >> 33
    }

    fn unit(&mut self) -> f32 {
        (self.next() % 1_000_000) as f32 / 1_000_000.0
    }
}

/// Prints the engine's telemetry registry as machine-parseable
/// `METRICS phase=<phase> name{labels} value` lines (one registry
/// sample per line; the `metrics_check` binary validates them in CI).
fn emit_metrics(engine: &Engine, phase: &str) {
    for line in engine.metrics().render().lines() {
        println!("METRICS phase={phase} {line}");
    }
}

/// Runs the engine workload at `scale` on `threads` lanes, with
/// `update_frac` of the mixed phase's operations being mutations;
/// `feedback` appends the adaptive-planning phase, `tenants >= 2`
/// the multi-tenant admission-control phase (flooders capped at
/// `qps_cap` submissions/s). `kind` appends the query-family phase (the
/// requested operator against ancestor-seeded subspaces, emitting a
/// machine-readable `FAMILY` line). With `metrics`, every phase dumps
/// the telemetry registry as `METRICS` lines.
#[allow(clippy::too_many_arguments)]
pub fn run(
    scale: Scale,
    threads: usize,
    update_frac: f64,
    feedback: bool,
    tenants: usize,
    qps_cap: u32,
    kind: Option<QueryKind>,
    metrics: bool,
) {
    let (n, d) = scale.default_workload();
    let d = d.max(4);
    let engine = Engine::with_config(EngineConfig {
        threads,
        telemetry: TelemetryConfig {
            // Under --metrics the slow ring retains every query so the
            // SLOWLOG summary has content even at smoke scale.
            slow_query_threshold: if metrics {
                Duration::ZERO
            } else {
                TelemetryConfig::default().slow_query_threshold
            },
            ..TelemetryConfig::default()
        },
        ..EngineConfig::default()
    });
    println!(
        "\n## engine workload — n = {n}, d = {d}, t = {} (cache budget {} KiB)\n",
        engine.threads(),
        engine.cache_stats().budget_bytes / 1024
    );

    // Registration (timed: includes stats + sorted projections).
    let gen_pool = ThreadPool::new(threads);
    let mut names = Vec::new();
    let reg_started = Instant::now();
    for (label, dist) in [
        ("corr", Distribution::Correlated),
        ("indep", Distribution::Independent),
        ("anti", Distribution::Anticorrelated),
    ] {
        let data = generate(dist, n, d, 42, &gen_pool);
        let name = label.to_string();
        engine.register(&name, data);
        names.push(name);
    }
    println!(
        "registered {} datasets in {}\n",
        names.len(),
        fmt_secs(reg_started.elapsed())
    );

    // Cold pass: every query misses; show what the planner chose.
    let queries = workload(&names, d);
    let cold_started = Instant::now();
    let cold = engine.execute_batch(&queries);
    let cold_elapsed = cold_started.elapsed();

    let header: Vec<String> = ["query", "plan", "sampled frac", "skyline", "time"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    for (q, r) in queries.iter().zip(&cold) {
        let r = r.as_ref().expect("workload queries are valid");
        let dims = match q.selected_dims() {
            Some(dims) => format!("{dims:?}"),
            None => "full".to_string(),
        };
        rows.push(vec![
            format!("{} {}", q.dataset(), dims),
            strategy_label(&r.plan.strategy),
            r.plan
                .sample_skyline_frac
                .map(|f| format!("{f:.3}"))
                .unwrap_or_else(|| "-".to_string()),
            r.total_skyline_size().to_string(),
            fmt_secs(r.elapsed),
        ]);
    }
    print_table(
        "cold batch (every query planned and computed)",
        &header,
        &rows,
    );
    println!("\ncold batch total: {}", fmt_secs(cold_elapsed));
    if metrics {
        emit_metrics(&engine, "cold");
        // One fully traced cold query — a subspace the workload never
        // touches — rendered as a machine-readable TRACE line.
        let (_, trace) = engine
            .explain_analyze(&SkylineQuery::new(&names[1]).dims([0, 2, 3]))
            .expect("telemetry is enabled");
        println!("{}", trace.render());
    }

    // Warm passes: everything hits the cache.
    let reps: usize = match scale {
        Scale::Smoke => 20,
        Scale::Laptop => 200,
        Scale::Paper => 1_000,
    };
    let warm_started = Instant::now();
    for _ in 0..reps {
        for r in engine.execute_batch(&queries) {
            let r = r.expect("workload queries are valid");
            debug_assert!(r.cache_hit);
        }
    }
    let warm_elapsed = warm_started.elapsed();
    let total_queries = reps * queries.len();
    println!(
        "warm: {} batches × {} queries in {} → {:.0} queries/s",
        reps,
        queries.len(),
        fmt_secs(warm_elapsed),
        total_queries as f64 / warm_elapsed.as_secs_f64()
    );
    if metrics {
        emit_metrics(&engine, "warm");
    }

    // Mixed read/write phase: each round interleaves mutation batches
    // (point inserts / deletes on random datasets) with the query
    // batch, at the configured update fraction. With incremental
    // maintenance most queries should stay cache hits (eagerly patched
    // inserts) or cheap delta plans (deferred deletes) instead of
    // recomputations.
    let rounds: usize = match scale {
        Scale::Smoke => 10,
        Scale::Laptop => 50,
        Scale::Paper => 200,
    };
    let before = engine.cache_stats();
    let mut rng = Lcg(0xdecaf);
    // `update_frac` is the mutation share of ALL operations in the
    // phase: with Q queries per round, writes w must satisfy
    // w / (w + Q) = frac, i.e. w = Q·frac/(1−frac). Capped at 0.9 so
    // the phase stays bounded.
    let frac = update_frac.clamp(0.0, 0.9);
    let writes_per_round = (queries.len() as f64 * frac / (1.0 - frac)).round() as usize;
    let (mut hits, mut deltas, mut recomputes, mut writes) = (0u64, 0u64, 0u64, 0u64);
    let mixed_started = Instant::now();
    for _ in 0..rounds {
        for _ in 0..writes_per_round {
            let name = &names[(rng.next() as usize) % names.len()];
            if rng.unit() < 0.5 {
                let row: Vec<f32> = (0..d).map(|_| rng.unit()).collect();
                engine.insert(name, &[row]).expect("valid insert");
            } else {
                let entry = engine.dataset(name).expect("registered");
                let live = entry.live_ids();
                let victim = live[(rng.next() as usize) % live.len()];
                engine.delete(name, &[victim]).expect("live victim");
            }
            writes += 1;
        }
        for r in engine.execute_batch(&queries) {
            let r = r.expect("workload queries are valid");
            if r.cache_hit {
                hits += 1;
            } else if matches!(r.plan.strategy, Strategy::Delta { .. }) {
                deltas += 1;
            } else {
                recomputes += 1;
            }
        }
    }
    let mixed_elapsed = mixed_started.elapsed();
    let after = engine.cache_stats();
    let n_queries = rounds as u64 * queries.len() as u64;
    let mixed_ops = writes + n_queries;
    println!(
        "\nmixed read/write ({:.0}% updates): {} rounds, {} writes + {} queries in {} → {:.0} ops/s",
        writes as f64 / (mixed_ops as f64).max(1.0) * 100.0,
        rounds,
        writes,
        n_queries,
        fmt_secs(mixed_elapsed),
        mixed_ops as f64 / mixed_elapsed.as_secs_f64()
    );
    println!(
        "  query outcomes: {hits} cache hits, {deltas} delta patches, {recomputes} recomputes"
    );
    println!(
        "  cache: {} eager patches, {} invalidations during the phase",
        after.patches - before.patches,
        after.invalidations - before.invalidations
    );

    // Invalidation: re-register one dataset and show selective misses.
    let fresh = generate(Distribution::Independent, n, d, 4242, &gen_pool);
    engine.register(&names[0], fresh);
    let after_reg = engine.execute_batch(&queries);
    let recomputed = after_reg
        .iter()
        .map(|r| r.as_ref().expect("valid"))
        .filter(|r| !r.cache_hit)
        .count();
    println!(
        "\nafter re-registering '{}': {recomputed}/{} queries recomputed, rest still cached",
        names[0],
        queries.len()
    );

    let stats = engine.cache_stats();
    println!(
        "\ncache: {} hits / {} misses ({:.1}% hit rate), {} insertions, {} patches, {} invalidations, {} resident ({} KiB of {} KiB)",
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0,
        stats.insertions,
        stats.patches,
        stats.invalidations,
        stats.entries,
        stats.bytes / 1024,
        stats.budget_bytes / 1024
    );
    if metrics {
        emit_metrics(&engine, "mixed");
        let slow = engine.slow_queries();
        let slowest = slow.iter().map(|t| t.total).max().unwrap_or(Duration::ZERO);
        println!(
            "SLOWLOG retained={} slowest_us={}",
            slow.len(),
            slowest.as_micros()
        );
    }

    if feedback {
        feedback_phase(scale, threads, n, d, &gen_pool, metrics);
    }
    if tenants >= 2 {
        admission_phase(scale, threads, n, d, &gen_pool, tenants, qps_cap, metrics);
    }
    if let Some(kind) = kind {
        family_phase(scale, threads, kind, &gen_pool, metrics);
    }
}

/// The query-family phase: exercises the requested operator (skyline,
/// `k`-skyband, or top-`k` dominating) together with the
/// skyband-ancestor cache. Per subspace the cache is first seeded with
/// a cold wide-band query (`seed_k`); the requested operator then
/// arrives as an exact-key miss the engine must serve by filtering the
/// stored ancestor counts (plan reason `… ancestor cache hit`) instead
/// of rescanning the dataset. One machine-readable line:
///
/// ```text
/// FAMILY kind=<skyline|skyband|top_k_dominating> k=<k> n=<n> d=<d>
///        seed_k=<k'> cold_us=<..> p50_us=<..> ancestor_hits=<..>
///        ancestor_hit_rate=<..>
/// ```
///
/// `p50_us` is the steady-state (warm) serving latency of the
/// operator; `ancestor_hit_rate` is the fraction of first-arrival
/// operator queries served from a seeded ancestor.
fn family_phase(
    scale: Scale,
    threads: usize,
    kind: QueryKind,
    gen_pool: &ThreadPool,
    metrics: bool,
) {
    let (n, d) = match scale {
        Scale::Smoke => (5_000, 4),
        Scale::Laptop => (50_000, 5),
        Scale::Paper => (200_000, 6),
    };
    let engine = Engine::with_config(EngineConfig {
        threads,
        ..EngineConfig::default()
    });
    engine.register(
        "family",
        generate(Distribution::Anticorrelated, n, d, 42, gen_pool),
    );
    let k = kind.k();
    // The ancestor must be at least as wide as the requested band;
    // 8 keeps the stored counts interesting even for k = 1.
    let seed_k = (2 * k.max(1)).max(8);
    println!(
        "\n## query-family phase — kind = {}, k = {k}, anticorrelated n = {n}, d = {d}, \
         ancestor seed k' = {seed_k}\n",
        kind.label()
    );

    let subspaces: Vec<Option<Vec<usize>>> = vec![
        None,
        Some(vec![0, 1]),
        Some(vec![0, d - 1]),
        Some((0..d.min(3)).collect()),
    ];
    let query_for = |sub: &Option<Vec<usize>>| {
        let q = SkylineQuery::new("family");
        match sub {
            Some(dims) => q.dims(dims.iter().copied()),
            None => q,
        }
    };

    // Top-k dominating can only reuse a top-k' ancestor (dominated
    // counts are a different statistic than dominator counts); the
    // band kinds share the skyband ancestor.
    let seed_kind = match kind {
        QueryKind::TopKDominating { .. } => QueryKind::TopKDominating { k: seed_k },
        _ => QueryKind::Skyband { k: seed_k },
    };
    let seed_started = Instant::now();
    for sub in &subspaces {
        let r = engine
            .execute(&query_for(sub).kind(seed_kind))
            .expect("family seed queries are valid");
        assert!(!r.cache_hit, "seed queries run cold");
    }
    println!(
        "seeded {} subspaces with cold {} k' = {seed_k} in {}",
        subspaces.len(),
        seed_kind.label(),
        fmt_secs(seed_started.elapsed())
    );

    // First wave of the requested operator: exact-key misses served
    // from the seeded ancestors.
    let mut ancestor_hits = 0usize;
    let mut cold_us = 0u128;
    for sub in &subspaces {
        let r = engine
            .execute(&query_for(sub).kind(kind))
            .expect("family queries are valid");
        cold_us += r.elapsed.as_micros();
        if r.plan.reason.contains("ancestor") {
            ancestor_hits += 1;
        }
    }
    let ancestor_hit_rate = ancestor_hits as f64 / subspaces.len() as f64;

    // Warm repeats: steady-state serving latency of the operator.
    let reps: usize = match scale {
        Scale::Smoke => 20,
        Scale::Laptop => 200,
        Scale::Paper => 1_000,
    };
    let mut lat_us: Vec<u128> = Vec::with_capacity(reps * subspaces.len());
    for _ in 0..reps {
        for sub in &subspaces {
            let r = engine
                .execute(&query_for(sub).kind(kind))
                .expect("family queries are valid");
            lat_us.push(r.elapsed.as_micros());
        }
    }
    lat_us.sort_unstable();
    let p50_us = lat_us.get(lat_us.len() / 2).copied().unwrap_or_default();
    println!(
        "FAMILY kind={} k={k} n={n} d={d} seed_k={seed_k} cold_us={cold_us} p50_us={p50_us} \
         ancestor_hits={ancestor_hits} ancestor_hit_rate={ancestor_hit_rate:.3}",
        kind.label()
    );
    if metrics {
        emit_metrics(&engine, "family");
    }
    engine.shutdown();
}

/// The admission-control phase: one closed-loop high-priority tenant
/// versus a low-priority flood, on a cache-disabled engine so every
/// query really computes and the queue actually fills. The per-class
/// `ADMISSION` lines render from the engine's telemetry registry.
#[allow(clippy::too_many_arguments)]
fn admission_phase(
    scale: Scale,
    threads: usize,
    n: usize,
    d: usize,
    gen_pool: &ThreadPool,
    tenants: usize,
    qps_cap: u32,
    metrics: bool,
) {
    // No result cache: hits would short-circuit admission and the
    // phase would measure nothing. A small queue keeps rejections
    // observable at smoke scale.
    let engine = Engine::with_config(EngineConfig {
        threads,
        cache_bytes: 0,
        admission: skyline_engine::AdmissionConfig {
            queue_capacity: 64,
            ..Default::default()
        },
        ..EngineConfig::default()
    });
    engine.register(
        "serve",
        generate(Distribution::Independent, n, d, 77, gen_pool),
    );
    let floods = tenants - 1;
    let per_flood: usize = match scale {
        Scale::Smoke => 150,
        Scale::Laptop => 600,
        Scale::Paper => 2_000,
    };
    let vip_total = (per_flood / 4).max(20);
    println!(
        "\n## admission phase — 1 high-priority tenant vs {floods} low-priority flooder(s) \
         (qps cap {qps_cap}/s each, {per_flood} submissions each, cache off)\n"
    );

    /// A rotating spread of subspace queries so plans vary.
    fn query_for(k: usize, d: usize) -> SkylineQuery {
        match k % 4 {
            0 => SkylineQuery::new("serve"),
            1 => SkylineQuery::new("serve").dims(0..d.min(3)),
            2 => SkylineQuery::new("serve").dims([0, d - 1]),
            _ => SkylineQuery::new("serve").dims([1, 2]),
        }
    }

    let started = Instant::now();
    std::thread::scope(|scope| {
        // The flood: open-loop bursts of low-priority submissions, each
        // tenant rate-capped; tickets are awaited in chunks. Every
        // outcome (completion, rejection, deadline expiry) lands in the
        // engine's telemetry registry — no bench-side tally.
        for f in 0..floods {
            let engine = &engine;
            scope.spawn(move || {
                let session = engine.open_session(
                    SessionOptions::new(format!("bulk{f}"))
                        .priority(Priority::Low)
                        .qps_cap(qps_cap),
                );
                let mut inflight = Vec::new();
                for k in 0..per_flood {
                    match session.submit(&query_for(k, d)) {
                        Ok(ticket) => inflight.push(ticket),
                        Err(EngineError::Rejected(_)) => {}
                        Err(e) => panic!("unexpected flood error: {e}"),
                    }
                    if inflight.len() >= 32 {
                        for ticket in inflight.drain(..) {
                            match ticket.wait() {
                                Ok(_) | Err(EngineError::DeadlineExceeded) => {}
                                Err(e) => panic!("unexpected flood outcome: {e}"),
                            }
                        }
                    }
                }
                for ticket in inflight {
                    let _ = ticket.wait();
                }
            });
        }

        // The VIP: closed-loop high-priority requests racing the flood.
        scope.spawn(|| {
            let session = engine.open_session(SessionOptions::new("vip").priority(Priority::High));
            for k in 0..vip_total {
                match session.submit(&query_for(k, d)) {
                    Ok(ticket) => {
                        ticket.wait().expect("vip queries complete");
                    }
                    Err(e) => panic!("vip submissions are never rejected here: {e}"),
                }
            }
        });
    });
    let elapsed = started.elapsed();

    // Render the per-class lines from the registry snapshot — the same
    // counters and `session.queue_wait{class}` histograms any scraper
    // of `Engine::metrics` sees. Percentiles are histogram quantiles
    // (log-bucket upper bounds), not exact order statistics.
    let snapshot = engine.metrics();
    let print_class = |class: &str, tenants: u64| -> Duration {
        let by_class = [("class", class)];
        let submitted = snapshot
            .counter("session.submitted", &by_class)
            .unwrap_or(0);
        let completed = snapshot
            .counter("session.completed", &by_class)
            .unwrap_or(0);
        let rejected_queue = snapshot
            .counter(
                "session.rejected",
                &[("class", class), ("reason", "queue_full")],
            )
            .unwrap_or(0);
        let rejected_quota = snapshot
            .counter("session.rejected", &[("class", class), ("reason", "quota")])
            .unwrap_or(0);
        let (p50, p99) = snapshot
            .histogram("session.queue_wait", &by_class)
            .map(|h| (h.quantile(0.50), h.quantile(0.99)))
            .unwrap_or((Duration::ZERO, Duration::ZERO));
        println!(
            "ADMISSION class={class} tenants={tenants} submitted={} completed={} \
             rejected_queue={} rejected_quota={} rejected_rate={:.3} \
             p50_wait_us={} p99_wait_us={}",
            submitted,
            completed,
            rejected_queue,
            rejected_quota,
            (rejected_queue + rejected_quota) as f64 / submitted.max(1) as f64,
            p50.as_micros(),
            p99.as_micros(),
        );
        p99
    };
    let vip_p99 = print_class("high", 1);
    let flood_p99 = print_class("low", floods as u64);
    println!(
        "\nadmission phase: {} total on {} lanes — high-priority p99 queue wait {} vs \
         low-priority p99 {} under flood",
        fmt_secs(elapsed),
        engine.threads(),
        fmt_secs(vip_p99),
        fmt_secs(flood_p99),
    );
    let stats = engine.session_stats();
    println!(
        "sessions: {} admitted, {} cache short-circuits, {} completed, {} expired, \
         {} queue-full + {} quota rejections",
        stats.submitted,
        stats.short_circuits,
        stats.completed,
        stats.deadline_expired,
        stats.rejected_queue_full,
        stats.rejected_quota,
    );
    if metrics {
        emit_metrics(&engine, "admission");
    }
    engine.shutdown();
}

/// The adaptive-planning phase: a feedback-enabled engine replans the
/// same workload cold across several epochs (each epoch re-registers
/// the datasets, so every query is planned and computed afresh) while
/// the loop re-fits the thresholds from what it measured. Reports per-
/// query plan drift between the first and last epoch, the latency
/// movement, and the fitted thresholds.
fn feedback_phase(
    scale: Scale,
    threads: usize,
    n: usize,
    d: usize,
    gen_pool: &ThreadPool,
    metrics: bool,
) {
    let engine = Engine::with_config(EngineConfig {
        threads,
        feedback: FeedbackConfig {
            enabled: true,
            refit_interval: Duration::from_millis(100),
            min_observations: 4,
            hysteresis: 0.15,
            explore_every: 4,
        },
        ..EngineConfig::default()
    });
    let epochs: usize = match scale {
        Scale::Smoke => 3,
        Scale::Laptop => 6,
        Scale::Paper => 10,
    };
    println!(
        "\n## feedback phase — online cost-model refit ({epochs} cold epochs, refit every 100 ms)\n"
    );
    let before_cfg = (*engine.planner_config()).clone();
    let labels = ["corr", "indep", "anti"];
    let dists = [
        Distribution::Correlated,
        Distribution::Independent,
        Distribution::Anticorrelated,
    ];
    let names: Vec<String> = labels.iter().map(|s| s.to_string()).collect();
    let queries = workload(&names, d);

    let mut epoch_plans: Vec<Vec<String>> = Vec::new();
    let mut epoch_times: Vec<Duration> = Vec::new();
    for _ in 0..epochs {
        // Fresh registration: new version, cold cache, full replanning
        // under whatever thresholds are live right now.
        for (name, dist) in labels.iter().zip(dists) {
            engine.register(name, generate(dist, n, d, 42, gen_pool));
        }
        let started = Instant::now();
        let results = engine.execute_batch(&queries);
        epoch_times.push(started.elapsed());
        epoch_plans.push(
            results
                .iter()
                .map(|r| strategy_label(&r.as_ref().expect("valid workload").plan.strategy))
                .collect(),
        );
        // Guarantee at least one fit per epoch even when an epoch runs
        // faster than the refit interval (smoke scale).
        engine.refit_feedback();
    }

    let (first_plans, last_plans) = (&epoch_plans[0], &epoch_plans[epochs - 1]);
    let header: Vec<String> = ["query", "epoch 1 plan", "final plan", "drift"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    let mut drifted = 0usize;
    for ((q, before), after) in queries.iter().zip(first_plans).zip(last_plans) {
        let dims = match q.selected_dims() {
            Some(dims) => format!("{dims:?}"),
            None => "full".to_string(),
        };
        let drift = if before == after {
            "-".to_string()
        } else {
            drifted += 1;
            "→".to_string()
        };
        rows.push(vec![
            format!("{} {}", q.dataset(), dims),
            before.clone(),
            after.clone(),
            drift,
        ]);
    }
    print_table(
        "plan-choice drift (first vs final cold epoch)",
        &header,
        &rows,
    );
    println!(
        "\n{drifted}/{} queries re-routed by the fitted thresholds",
        queries.len()
    );
    println!(
        "cold-epoch latency: {} before → {} after refits",
        fmt_secs(epoch_times[0]),
        fmt_secs(epoch_times[epochs - 1])
    );

    let stats = engine.feedback_stats();
    println!(
        "feedback: {} observations into {} buckets, {} refits, {} installs",
        stats.observations, stats.buckets, stats.refits, stats.installs
    );
    let after_cfg = engine.planner_config();
    println!(
        "thresholds: tiny_n {} → {}, small_n {} → {}, dense_frac {:.3} → {:.3}, delta_cap {} → {}, α(Q-Flow) {:?} → {:?}, α(Hybrid) {:?} → {:?}",
        before_cfg.tiny_n,
        after_cfg.tiny_n,
        before_cfg.small_n,
        after_cfg.small_n,
        before_cfg.dense_frac,
        after_cfg.dense_frac,
        before_cfg.delta_cap,
        after_cfg.delta_cap,
        before_cfg.alpha_qflow,
        after_cfg.alpha_qflow,
        before_cfg.alpha_hybrid,
        after_cfg.alpha_hybrid,
    );
    if metrics {
        emit_metrics(&engine, "feedback");
    }
}
