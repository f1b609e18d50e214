//! The SkyBench experiment harness: regenerates every table and figure of
//! the paper's evaluation, and the ablations of its design choices.
//!
//! ```text
//! skybench <experiment> [--scale smoke|laptop|paper] [--threads N]
//!
//! experiments: fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13
//!              table1 table2 table3
//!              ablation-dominance ablation-prefilter ablation-sortkeys
//!              all
//! ```
//!
//! `ablation-dominance` prints one `ABLATION_DOMINANCE level=… d=…` line
//! per dimensionality (4, 8, 16) with the per-DT cost of each kernel.
//!
//! Engine, HTTP and durability numbers are not printed here: they come
//! from the repo's benchmark (`perf`, see `BENCHMARK.json`).

use skyline_bench::experiments::ExpCtx;
use skyline_bench::Scale;

fn usage() -> ! {
    eprintln!(
        "usage: skybench <experiment> [--scale smoke|laptop|paper] [--threads N]\n\
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

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
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
    if !ExpCtx::new(scale, threads).run(&experiment) {
        eprintln!("unknown experiment '{experiment}'");
        usage();
    }
}
