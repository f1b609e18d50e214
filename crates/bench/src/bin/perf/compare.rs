//! `perf --compare A.jsonl B.jsonl`: the regression gate.
//!
//! Each file holds the lines of one or more `perf --all` runs of one
//! version of the program (append several runs to one file; ten is the
//! guide's number). Per metric and workload the table gives the two
//! medians, the change as a share of A's median, and for end-to-end
//! metrics a verdict against the bound `BENCHMARK.json` fixes:
//!
//! * `regressed` — B's median is worse than A's by more than the bound;
//! * `improved` — B's median is better by more than the run-to-run
//!   spread of either side;
//! * `unchanged` — neither;
//! * `unresolved` — the spread of either side (interquartile range over
//!   its median) is wider than the bound, so the runs cannot tell;
//!   unless every run of one side reads better than every run of the
//!   other, which settles it whatever the spread.
//!
//! Per-layer metrics have no bound and get no verdict. The exit code
//! is non-zero when anything regressed or more operations failed.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use skyline_serve::{parse_json, Json};

use crate::spec::{spec, MetricSpec};
use crate::stats::{median, quartiles, sorted};

/// Values per (workload, metric), plus failed/attempted per workload.
#[derive(Debug, Default)]
pub struct Runs {
    values: BTreeMap<(String, String), Vec<f64>>,
    fail_ratio: BTreeMap<String, Vec<f64>>,
}

pub fn parse_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| l.trim_start().starts_with('{'))
    {
        let v = parse_json(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let field = |v: &Json, key: &str| {
            v.get(key)
                .cloned()
                .ok_or_else(|| format!("line {}: no '{key}'", n + 1))
        };
        let workload = field(&v, "workload")?
            .as_str()
            .unwrap_or_default()
            .to_string();
        let result = field(&v, "result")?;
        if result.get("comparable") == Some(&Json::Bool(false)) {
            return Err(format!("line {}: a --quick run is not comparable", n + 1));
        }
        let count = |key: &str| field(&result, key).map(|c| c.as_f64().unwrap_or(0.0));
        if field(&v, "trace")?.as_u64() == Some(0) {
            runs.fail_ratio
                .entry(workload.clone())
                .or_default()
                .push(count("failed")? / count("attempted")?.max(1.0));
        }
        let Json::Obj(metrics) = field(&result, "metrics")? else {
            return Err(format!("line {}: 'metrics' is not an object", n + 1));
        };
        for (name, entry) in metrics {
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("line {}: {name} has no value", n + 1))?;
            runs.values
                .entry((workload.clone(), name))
                .or_default()
                .push(value);
        }
    }
    if runs.values.is_empty() {
        return Err("no runs found".into());
    }
    Ok(runs)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Unresolved,
    Regressed,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Interquartile range over the median; zero for fewer than two runs.
fn spread(sorted: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(sorted);
    if sorted.len() < 2 || q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The verdict on one end-to-end metric of one workload.
pub fn verdict(m: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let bound = m.bound.expect("verdicts are for bounded metrics");
    let (a, b) = (sorted(a.to_vec()), sorted(b.to_vec()));
    let (ma, mb) = (median(&a), median(&b));
    // Positive when B is worse, as a share of A's median.
    let sign = if m.higher_is_better { -1.0 } else { 1.0 };
    let worse = if ma == 0.0 {
        0.0
    } else {
        sign * (mb - ma) / ma.abs()
    };
    let noise = spread(&a).max(spread(&b));
    let (a_lo, a_hi) = (a[0], a[a.len() - 1]);
    let (b_lo, b_hi) = (b[0], b[b.len() - 1]);
    let b_all_better = if m.higher_is_better {
        b_lo > a_hi
    } else {
        b_hi < a_lo
    };
    let b_all_worse = if m.higher_is_better {
        b_hi < a_lo
    } else {
        b_lo > a_hi
    };
    if noise > bound {
        return if b_all_better {
            Verdict::Improved
        } else if b_all_worse && worse > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if worse > bound {
        Verdict::Regressed
    } else if -worse > noise && worse < 0.0 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Renders the comparison; returns the table and whether anything
/// regressed.
pub fn table(a: &Runs, b: &Runs) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    out.push_str(&format!(
        "{:<14} {:<34} {:>14} {:>14} {:>22} {:>7}  {}\n",
        "workload", "metric", "A median", "B median", "change (of A)", "bound", "verdict"
    ));
    for (workload, _) in &spec().workloads {
        let fails = |r: &Runs| {
            r.fail_ratio
                .get(workload)
                .map(|v| median(&sorted(v.clone())))
        };
        if let (Some(fa), Some(fb)) = (fails(a), fails(b)) {
            let verdict = if fb > fa { "regressed" } else { "unchanged" };
            regressed |= fb > fa;
            out.push_str(&format!(
                "{workload:<14} {:<34} {fa:>14.6} {fb:>14.6} {:>22} {:>7}  {verdict}\n",
                "fail_ratio", "", "any"
            ));
        }
        for m in spec().end_to_end.iter().chain(&spec().per_layer) {
            let key = (workload.clone(), m.name.clone());
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            let (ma, mb) = (median(&sorted(va.clone())), median(&sorted(vb.clone())));
            if ma == 0.0 && mb == 0.0 {
                // A per-layer metric this workload does not exercise.
                continue;
            }
            let change = if ma == 0.0 {
                "n/a (A is 0)".to_string()
            } else {
                format!("{:+.2}% of {:.6}", (mb - ma) / ma.abs() * 100.0, ma)
            };
            let (bound, label) = match m.bound {
                Some(bound) => {
                    let v = verdict(m, va, vb);
                    regressed |= v == Verdict::Regressed;
                    (format!("{:.0}%", bound * 100.0), v.label())
                }
                None => ("-".to_string(), "-"),
            };
            out.push_str(&format!(
                "{workload:<14} {:<34} {ma:>14.6} {mb:>14.6} {change:>22} {bound:>7}  {label}\n",
                format!("{} [{}]", m.name, m.unit)
            ));
        }
    }
    (out, regressed)
}

pub fn run(a: &Path, b: &Path) -> ExitCode {
    let load = |path: &Path| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| parse_runs(&text))
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            let (text, regressed) = table(&a, &b);
            print!("{text}");
            if regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "x_ms".into(),
            unit: "ms".into(),
            higher_is_better: false,
            bound: Some(bound),
        }
    }

    fn higher(bound: f64) -> MetricSpec {
        MetricSpec {
            higher_is_better: true,
            ..lower(bound)
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within the bound and within the noise.
        assert_eq!(
            verdict(&lower(0.1), &a, &[100.2, 100.9, 99.4, 100.0, 99.8]),
            Verdict::Unchanged
        );
        // Worse by 5 %: inside a 10 % bound.
        assert_eq!(
            verdict(&lower(0.1), &a, &[105.0, 106.0, 104.0, 105.5, 104.5]),
            Verdict::Unchanged
        );
        // Worse by 15 %.
        assert_eq!(
            verdict(&lower(0.1), &a, &[115.0, 116.0, 114.0, 115.5, 114.5]),
            Verdict::Regressed
        );
        // Better by 5 %, far outside the ~1.5 % spread.
        assert_eq!(
            verdict(&lower(0.1), &a, &[95.0, 96.0, 94.0, 95.5, 94.5]),
            Verdict::Improved
        );
        // Direction flips for throughput-like metrics.
        assert_eq!(
            verdict(&higher(0.1), &a, &[115.0, 116.0, 114.0, 115.5, 114.5]),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&higher(0.1), &a, &[85.0, 86.0, 84.0, 85.5, 84.5]),
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_runs_do_not_overlap() {
        let noisy = [80.0, 120.0, 90.0, 110.0, 100.0];
        assert_eq!(
            verdict(&lower(0.1), &noisy, &[85.0, 125.0, 95.0, 115.0, 105.0]),
            Verdict::Unresolved
        );
        // Every run of B better than every run of A settles it.
        assert_eq!(
            verdict(&lower(0.1), &noisy, &[50.0, 70.0, 55.0, 65.0, 60.0]),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&lower(0.1), &noisy, &[150.0, 170.0, 155.0, 165.0, 160.0]),
            Verdict::Regressed
        );
        // A single run each has no spread to speak of.
        assert_eq!(verdict(&lower(0.1), &[100.0], &[120.0]), Verdict::Regressed);
        assert_eq!(verdict(&lower(0.1), &[100.0], &[104.0]), Verdict::Unchanged);
    }

    fn line(workload: &str, trace: u8, failed: u32, metrics: &[(&str, f64)]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|(n, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"ms\"}}"))
            .collect();
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": 1, \"trace\": {trace}, \"result\": {{\"correct\": {}, \
             \"attempted\": 100, \"failed\": {failed}, \"metrics\": {{{}}}}}}}",
            failed == 0,
            body.join(", ")
        )
    }

    #[test]
    fn tables_give_medians_change_with_base_and_flag_regressions() {
        let a = [
            line("lib_anti", 0, 0, &[("op_p50_ms", 190.0), ("setup_s", 1.5)]),
            line("lib_anti", 0, 0, &[("op_p50_ms", 192.0), ("setup_s", 1.5)]),
            line("lib_anti", 1, 0, &[("core.hybrid.dts", 300.0)]),
            "noise that is not JSON".to_string(),
        ]
        .join("\n");
        let b = [
            line("lib_anti", 0, 0, &[("op_p50_ms", 250.0), ("setup_s", 1.5)]),
            line("lib_anti", 0, 2, &[("op_p50_ms", 252.0), ("setup_s", 1.5)]),
            line("lib_anti", 1, 0, &[("core.hybrid.dts", 330.0)]),
        ]
        .join("\n");
        let (a, b) = (parse_runs(&a).unwrap(), parse_runs(&b).unwrap());
        let (text, regressed) = table(&a, &b);
        assert!(regressed);
        let row = |needle: &str| {
            text.lines()
                .find(|l| l.contains(needle))
                .unwrap_or_else(|| panic!("{needle} in\n{text}"))
        };
        assert!(
            row("op_p50_ms").contains("+31.41% of 191.0")
                && row("op_p50_ms").ends_with("regressed")
        );
        assert!(row("setup_s").ends_with("unchanged"));
        assert!(row("fail_ratio").ends_with("regressed"));
        assert!(
            row("core.hybrid.dts").contains("+10.00% of 300.0")
                && row("core.hybrid.dts").ends_with('-')
        );
        let (same, regressed) = table(&a, &a);
        assert!(!regressed && !same.contains("regressed"));
    }

    #[test]
    fn quick_runs_and_empty_files_are_refused() {
        assert!(parse_runs("").is_err());
        let quick = line("lib_anti", 0, 0, &[("op_p50_ms", 1.0)])
            .replace("\"correct\"", "\"comparable\": false, \"correct\"");
        assert!(parse_runs(&quick).unwrap_err().contains("not comparable"));
    }
}
