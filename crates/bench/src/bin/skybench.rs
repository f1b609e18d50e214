//! The SkyBench experiment harness: regenerates every table and figure of
//! the paper's evaluation.
//!
//! ```text
//! skybench <experiment> [--scale laptop|paper] [--threads N]
//!                       [--update-frac F] [--feedback]
//!                       [--tenants N] [--qps-cap Q]
//!                       [--metrics]
//!                       [--kind OP] [--k K]
//!                       [--duration SECS] [--connections N]
//!                       [--persist DIR] [--crash-after K]
//!
//! experiments: fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13
//!              table1 table2 table3 engine serve all
//!
//! --update-frac F   mutation share of the `engine` experiment's mixed
//!                   read/write phase (0..=1, default 0.3; capped at
//!                   0.9 so each round still issues the query batch)
//! --feedback        append the `engine` experiment's adaptive-planning
//!                   phase: run the workload cold across several epochs
//!                   with the planner feedback loop enabled and report
//!                   plan-choice drift and before/after latency
//! --tenants N       append the `engine` experiment's admission phase:
//!                   1 high-priority tenant races N-1 low-priority
//!                   flooders through the session front door; per class
//!                   a machine-readable ADMISSION line reports queue-
//!                   wait p50/p99 and rejection rates (needs N >= 2)
//! --qps-cap Q       per-flooder submission-rate cap in the admission
//!                   phase (default 256/s)
//! --kind OP         append the `engine` experiment's query-family
//!                   phase: run the given operator — skyline |
//!                   skyband | top_k_dominating — against ancestor-
//!                   seeded subspaces and emit one machine-readable
//!                   FAMILY line (operator p50 and the skyband-
//!                   ancestor cache hit rate)
//! --k K             the operator's k parameter for the query-family
//!                   phase (default 4; ignored for --kind skyline)
//! --metrics         after each `engine` experiment phase, dump the
//!                   engine's telemetry registry as machine-parseable
//!                   `METRICS phase=<phase> name{labels} value` lines
//!                   (validated by the `metrics_check` binary), plus a
//!                   `TRACE` line for one cold query and a `SLOWLOG`
//!                   summary; the `serve` experiment dumps the combined
//!                   engine+server registry as `METRICS phase=serve`
//!                   lines after draining
//! --duration SECS   measurement window per `serve` experiment line
//!                   (fractional seconds; default is per-scale)
//! --connections N   client connections in the `serve` experiment's
//!                   load phases (default 4)
//! --persist DIR     append the `engine` experiment's crash-matrix
//!                   phase: under DIR, run a durable engine into a
//!                   deterministic kill, a torn WAL tail, and an
//!                   interior bit flip, recover from each, and verify
//!                   the recovered state equals the acknowledged
//!                   history; one machine-readable RECOVERY line per
//!                   fault reports records replayed, tails truncated,
//!                   datasets quarantined, and warm query p50
//! --crash-after K   durable write at which the crash-matrix kill
//!                   phase dies (default 5)
//! ```

use skyline_bench::experiments::ExpCtx;
use skyline_bench::Scale;

fn usage() -> ! {
    eprintln!(
        "usage: skybench <experiment> [--scale laptop|paper] [--threads N] [--update-frac F] \
         [--feedback] [--tenants N] [--qps-cap Q] [--metrics] \
         [--kind skyline|skyband|top_k_dominating] [--k K] \
         [--duration SECS] [--connections N] [--persist DIR] [--crash-after K]\n\
         experiments: {}",
        ExpCtx::ALL_EXPERIMENTS.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut experiment: Option<String> = None;
    let mut scale = Scale::Laptop;
    let mut threads = skyline_parallel::available_threads();
    let mut update_frac = 0.3f64;
    let mut feedback = false;
    let mut tenants = 0usize;
    let mut qps_cap = 256u32;
    let mut kind: Option<String> = None;
    let mut k = 4u32;
    let mut metrics = false;
    let mut duration: Option<std::time::Duration> = None;
    let mut connections = 4usize;
    let mut persist: Option<std::path::PathBuf> = None;
    let mut crash_after = 5u64;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--feedback" => {
                feedback = true;
            }
            "--metrics" => {
                metrics = true;
            }
            "--tenants" => {
                i += 1;
                tenants = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&t: &usize| t >= 2)
                    .unwrap_or_else(|| usage());
            }
            "--kind" => {
                i += 1;
                kind = args
                    .get(i)
                    .filter(|s| matches!(s.as_str(), "skyline" | "skyband" | "top_k_dominating"))
                    .cloned()
                    .or_else(|| usage());
            }
            "--k" => {
                i += 1;
                k = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&k: &u32| k > 0)
                    .unwrap_or_else(|| usage());
            }
            "--qps-cap" => {
                i += 1;
                qps_cap = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&q: &u32| q > 0)
                    .unwrap_or_else(|| usage());
            }
            "--duration" => {
                i += 1;
                duration = args
                    .get(i)
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|&secs| secs > 0.0 && secs.is_finite())
                    .map(std::time::Duration::from_secs_f64)
                    .or_else(|| usage());
            }
            "--connections" => {
                i += 1;
                connections = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&c: &usize| c > 0)
                    .unwrap_or_else(|| usage());
            }
            "--persist" => {
                i += 1;
                persist = args
                    .get(i)
                    .filter(|s| !s.is_empty() && !s.starts_with('-'))
                    .map(std::path::PathBuf::from)
                    .or_else(|| usage());
            }
            "--crash-after" => {
                i += 1;
                crash_after = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&k: &u64| k > 0)
                    .unwrap_or_else(|| usage());
            }
            "--update-frac" => {
                i += 1;
                update_frac = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|f: &f64| (0.0..=1.0).contains(f))
                    .unwrap_or_else(|| usage());
            }
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| usage());
            }
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&t| t > 0)
                    .unwrap_or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            name if experiment.is_none() && !name.starts_with('-') => {
                experiment = Some(name.to_string());
            }
            _ => usage(),
        }
        i += 1;
    }
    let experiment = experiment.unwrap_or_else(|| usage());

    println!(
        "# SkyBench harness — experiment {experiment}, scale {scale:?}, t = {threads} \
         (hardware threads: {})",
        skyline_parallel::available_threads()
    );
    let mut ctx = ExpCtx::new(scale, threads);
    ctx.update_frac = update_frac;
    ctx.feedback = feedback;
    ctx.tenants = tenants;
    ctx.qps_cap = qps_cap;
    ctx.kind = kind.as_deref().map(|op| match op {
        "skyline" => skyline_engine::QueryKind::Skyline,
        "skyband" => skyline_engine::QueryKind::Skyband { k },
        _ => skyline_engine::QueryKind::TopKDominating { k },
    });
    ctx.metrics = metrics;
    ctx.duration = duration;
    ctx.connections = connections;
    ctx.persist = persist;
    ctx.crash_after = crash_after;
    if !ctx.run(&experiment) {
        eprintln!("unknown experiment '{experiment}'");
        usage();
    }
}
