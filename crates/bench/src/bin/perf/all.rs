//! `perf --all`: every workload, untraced then traced, each in a child
//! process of its own so that `peak_rss_mb` and caches do not leak
//! from one workload into the next.
//!
//! Each child's result line is printed wrapped in one JSON line that
//! names the run — the format `perf --compare` reads:
//!
//! ```text
//! {"workload": "lib_anti", "seed": 1, "trace": 0, "result": {...}}
//! ```

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use crate::WORKLOADS;

pub fn run(seed: u64, seconds: f64, out: &Path, quick: bool) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perf: cannot find my own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    for workload in WORKLOADS {
        for trace in [0, 1] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    &trace.to_string(),
                ])
                .arg("--out")
                .arg(out)
                .stdin(Stdio::null())
                .stderr(Stdio::inherit());
            if quick {
                cmd.arg("--quick");
            }
            // `output` waits for the child to end. A run with failed
            // operations still prints its line (and exits non-zero).
            let output = cmd.output();
            let line = output.as_ref().ok().and_then(|o| {
                let text = String::from_utf8_lossy(&o.stdout);
                text.lines()
                    .last()
                    .filter(|l| l.starts_with('{'))
                    .map(str::to_string)
            });
            if let Some(result) = &line {
                println!(
                    "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \"result\": {result}}}"
                );
            }
            if line.is_none() || !output.is_ok_and(|o| o.status.success()) {
                eprintln!("perf: {workload} (trace {trace}) failed");
                all_ok = false;
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
