//! `perf` — the repository's benchmark.
//!
//! One process runs one workload:
//!
//! ```text
//! perf --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>] [--out DIR] [--quick]
//! perf --all --seed <u64> [--seconds <n>] [--out DIR] [--quick]
//! perf --compare A.jsonl B.jsonl
//! ```
//!
//! and prints, as the last line of its standard output, one JSON
//! object with the keys `correct`, `attempted`, `failed` and `metrics`
//! — the end-to-end metrics of `BENCHMARK.json` when untraced, its
//! per-layer metrics when traced. The README next to this file
//! documents every workload and metric.
//!
//! All timing is done from out here, around calls into the public
//! functions of `skyline-{core,data,parallel,engine,serve}` and from
//! the values those functions return.

mod all;
mod compare;
mod engine_cold;
mod engine_mixed;
mod inputs;
mod lib_ops;
mod loadgen;
mod oracle;
mod probes;
mod report;
mod serve;
mod spec;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Outcome;

/// The workloads, in the order `--all` runs them.
pub const WORKLOADS: [&str; 6] = [
    "lib_anti",
    "lib_corr",
    "engine_cold",
    "engine_mixed",
    "serve_cold",
    "serve_warm",
];

/// A run sets up from scratch at least this often; `setup_s` is the
/// median.
const SETUP_REPEATS: usize = 3;

/// Cheap set-ups are repeated further, up to this often and this many
/// seconds in all, so that a 30 ms set-up is not judged on three tries.
const SETUP_REPEATS_MAX: usize = 15;
const SETUP_BUDGET_S: f64 = 1.5;

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// The timed window of an untraced run.
    pub window: Duration,
    pub traced: bool,
    /// Where trace files and the durable twin's scratch directory go.
    pub out: PathBuf,
    pub quick: bool,
}

impl Ctx {
    /// How long one replay of the workload lasts. A traced run splits
    /// its budget in three: an untraced replay (the base of
    /// `bench.trace_overhead`), the traced replay, and the layer probes.
    pub fn replay_window(&self) -> Duration {
        if self.traced {
            self.window / 3
        } else {
            self.window
        }
    }
}

/// Builds the workload's state several times ([`SETUP_REPEATS`] or
/// more), dropping each before building the next, and returns the
/// last together with the median build time in seconds.
pub fn repeat_setup<S>(mut build: impl FnMut() -> S) -> (S, f64) {
    let mut times: Vec<f64> = Vec::with_capacity(SETUP_REPEATS_MAX);
    let mut state = None;
    while times.len() < SETUP_REPEATS
        || (times.len() < SETUP_REPEATS_MAX && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(state.take());
        let start = Instant::now();
        state = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    (state.expect("SETUP_REPEATS > 0"), stats::median_of(times))
}

fn run_workload(ctx: &Ctx) -> Outcome {
    match ctx.workload.as_str() {
        "lib_anti" | "lib_corr" => lib_ops::run(ctx),
        "engine_cold" => engine_cold::run(ctx),
        "engine_mixed" => engine_mixed::run(ctx),
        "serve_cold" | "serve_warm" => serve::run(ctx),
        other => unreachable!("workload '{other}' was validated by the argument parser"),
    }
}

const USAGE: &str = "usage:
  perf --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>] [--out DIR] [--quick]
  perf --all --seed <u64> [--seconds <n>] [--out DIR] [--quick]
  perf --compare A.jsonl B.jsonl
workloads: lib_anti lib_corr engine_cold engine_mixed serve_cold serve_warm";

#[derive(Debug, PartialEq)]
enum Mode {
    One,
    All,
    Compare(PathBuf, PathBuf),
}

#[derive(Debug)]
struct Args {
    mode: Mode,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    out: PathBuf,
    quick: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        mode: Mode::One,
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        out: PathBuf::from(".bench_out"),
        quick: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload '{name}'"));
                }
                parsed.workload = Some(name);
            }
            "--seed" => {
                let text = value("a number")?;
                parsed.seed = text.parse().map_err(|_| format!("bad seed '{text}'"))?;
            }
            "--seconds" => {
                let text = value("a number")?;
                let secs: f64 = text.parse().map_err(|_| format!("bad seconds '{text}'"))?;
                if !(secs > 0.0 && secs <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {text}"));
                }
                parsed.seconds = Some(secs);
            }
            "--trace" => {
                // `--trace` alone (the issue's spelling) and `--trace 1`
                // (the driver's) both switch tracing on.
                parsed.traced = match it.clone().next().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => parsed.out = PathBuf::from(value("a directory")?),
            "--quick" => parsed.quick = true,
            "--all" => parsed.mode = Mode::All,
            "--compare" => {
                let a = value("two files")?;
                let b = value("two files")?;
                parsed.mode = Mode::Compare(a.into(), b.into());
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if parsed.mode == Mode::One && parsed.workload.is_none() {
        return Err("one of --workload, --all or --compare is required".into());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perf: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seconds = args.seconds.unwrap_or(spec::spec().run_seconds as f64);
    // `--quick`: windows ÷ 10 on the same inputs, for smoke use.
    let window = Duration::from_secs_f64(if args.quick { seconds / 10.0 } else { seconds });
    match args.mode {
        Mode::Compare(a, b) => compare::run(&a, &b),
        Mode::All => all::run(args.seed, seconds, &args.out, args.quick),
        Mode::One => {
            let ctx = Ctx {
                workload: args.workload.expect("checked by parse_args"),
                seed: args.seed,
                window,
                traced: args.traced,
                out: args.out,
                quick: args.quick,
            };
            let outcome = run_workload(&ctx);
            println!("{}", report::result_line(&outcome, ctx.quick));
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perf: {} of {} operations failed",
                    outcome.failed, outcome.attempted
                );
                ExitCode::FAILURE
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_and_issue_spellings_of_trace_both_parse() {
        let a = args(&[
            "--workload",
            "lib_anti",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert!(!a.traced && a.seed == 9 && a.seconds == Some(10.0));
        let a = args(&["--workload", "lib_anti", "--trace", "1", "--seed", "3"]).unwrap();
        assert!(a.traced && a.seed == 3);
        let a = args(&["--workload", "lib_anti", "--trace", "--out", "x"]).unwrap();
        assert!(a.traced && a.out.as_os_str() == "x");
        let a = args(&["--workload", "serve_warm", "--trace"]).unwrap();
        assert!(a.traced);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "lib_anti", "--seed", "x"]).is_err());
        assert!(args(&["--workload", "lib_anti", "--seconds", "0"]).is_err());
        assert!(args(&["--compare", "a"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
        assert_eq!(
            args(&["--compare", "a", "b"]).unwrap().mode,
            Mode::Compare("a".into(), "b".into())
        );
        assert_eq!(args(&["--all", "--quick"]).unwrap().mode, Mode::All);
    }

    #[test]
    fn repeat_setup_reports_the_median_and_keeps_the_last_state() {
        let mut built = 0;
        let (state, secs) = repeat_setup(|| {
            built += 1;
            built
        });
        assert_eq!((state, built), (SETUP_REPEATS_MAX, SETUP_REPEATS_MAX));
        assert!(secs >= 0.0);
    }
}
