//! What one run reports: the metric values, the operation counts, and
//! the single JSON line the driver reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::spec::Spec;
use crate::stats::Summary;

/// Named values of one run. Only names the contract lists for the
/// run's mode (end-to-end when untraced, per-layer when traced) are
/// accepted, so a misspelt name fails the first run that sets it.
#[derive(Debug)]
pub struct Metrics {
    spec: &'static Spec,
    traced: bool,
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn new(spec: &'static Spec, traced: bool) -> Self {
        Self {
            spec,
            traced,
            values: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.spec
                .metrics(self.traced)
                .iter()
                .any(|m| m.name == name),
            "metric '{name}' is not in BENCHMARK.json for trace={}",
            self.traced
        );
        assert!(value.is_finite(), "metric '{name}' is not finite: {value}");
        self.values.insert(name, value);
    }

    /// Sets an end-to-end metric in an untraced run; ignored in a
    /// traced run, whose line carries per-layer metrics only.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        if !self.traced {
            self.set(name, value);
        }
    }

    /// Sets a per-layer metric in a traced run; ignored otherwise.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        if self.traced {
            self.set(name, value);
        }
    }

    /// The latency slots every workload fills: `op_p50_ms` for its
    /// headline operation and `alt_p50_ms` for its second one (README,
    /// "End-to-end metrics"). In a traced run the same summaries are
    /// recorded as the `bench.*` sample counts, quartiles and tails
    /// instead.
    pub fn latencies(&mut self, op: Summary, alt: Summary) {
        self.e2e("op_p50_ms", op.p50);
        self.e2e("alt_p50_ms", alt.p50);
        self.layer("bench.op.samples", op.n as f64);
        self.layer("bench.op.tail_ms", op.tail);
        self.layer("bench.alt.tail_ms", alt.tail);
        self.layer("bench.op.q1_ms", op.q1);
        self.layer("bench.op.q3_ms", op.q3);
        self.layer("bench.alt.samples", alt.n as f64);
        self.layer("bench.alt.q1_ms", alt.q1);
        self.layer("bench.alt.q3_ms", alt.q3);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// The outcome of one run of one workload.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted inside the timed windows, plus oracle
    /// comparisons made outside them.
    pub attempted: u64,
    /// Operations that errored, were refused (429/503), or returned a
    /// result the oracle disagrees with.
    pub failed: u64,
    pub metrics: Metrics,
}

/// Formats a measured value with all its digits (Rust prints the
/// shortest decimal that reads back to the same `f64`).
fn number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter carrying every metric of the run's mode in
/// contract order. A per-layer metric the workload does not exercise
/// reads 0 (no calls made into that layer, no time spent there); an
/// end-to-end metric left unset is a bug. `quick` runs add
/// `"comparable": false`.
pub fn result_line(outcome: &Outcome, quick: bool) -> String {
    let m = &outcome.metrics;
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, ",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    );
    if quick {
        out.push_str("\"comparable\": false, ");
    }
    out.push_str("\"metrics\": {");
    for (i, spec) in m.spec.metrics(m.traced).iter().enumerate() {
        let value = match m.get(&spec.name) {
            Some(v) => v,
            None if m.traced => 0.0,
            None => panic!("end-to-end metric '{}' was not measured", spec.name),
        };
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            spec.name,
            number(value),
            spec.unit
        );
    }
    out.push_str("}}");
    out
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::spec;
    use skyline_serve::{parse_json, Json};

    fn keys(v: &Json) -> Vec<String> {
        match v {
            Json::Obj(m) => m.iter().map(|(k, _)| k.clone()).collect(),
            _ => panic!("not an object: {v:?}"),
        }
    }

    fn filled(traced: bool) -> Outcome {
        let mut metrics = Metrics::new(spec(), traced);
        if !traced {
            for (i, m) in spec().end_to_end.iter().enumerate() {
                let name: &'static str = Box::leak(m.name.clone().into_boxed_str());
                metrics.set(name, 1.5 + i as f64);
            }
        }
        Outcome {
            attempted: 10,
            failed: 0,
            metrics,
        }
    }

    /// The emitted line carries exactly the contract's names, in both
    /// modes, with the contract's units.
    #[test]
    fn result_line_carries_exactly_the_contract_names() {
        for traced in [false, true] {
            let line = result_line(&filled(traced), false);
            let v = parse_json(&line).expect("the result line is JSON");
            assert_eq!(keys(&v), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
            let metrics = v.get("metrics").unwrap();
            let want: Vec<String> = spec()
                .metrics(traced)
                .iter()
                .map(|m| m.name.clone())
                .collect();
            assert_eq!(keys(metrics), want);
            for m in spec().metrics(traced) {
                let entry = metrics.get(&m.name).unwrap();
                assert_eq!(keys(entry), ["value", "unit"]);
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(&*m.unit));
                assert!(entry.get("value").and_then(Json::as_f64).is_some());
            }
        }
    }

    #[test]
    fn quick_runs_are_marked_incomparable_and_failures_flip_correct() {
        let mut o = filled(false);
        o.failed = 1;
        let v = parse_json(&result_line(&o, true)).unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(v.get("comparable"), Some(&Json::Bool(false)));
    }

    #[test]
    #[should_panic(expected = "not in BENCHMARK.json")]
    fn unknown_names_are_refused() {
        Metrics::new(spec(), false).set("no_such_metric", 1.0);
    }

    #[test]
    fn mode_filters_route_values() {
        let mut untraced = Metrics::new(spec(), false);
        untraced.layer("bench.trace_overhead", 1.0);
        untraced.e2e("setup_s", 2.0);
        assert_eq!(untraced.get("bench.trace_overhead"), None);
        assert_eq!(untraced.get("setup_s"), Some(2.0));
        let mut traced = Metrics::new(spec(), true);
        traced.e2e("setup_s", 2.0);
        traced.layer("bench.trace_overhead", 1.0);
        assert_eq!(traced.get("setup_s"), None);
        assert_eq!(traced.get("bench.trace_overhead"), Some(1.0));
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(number(1.2034), "1.2034");
        assert_eq!(number(41_000.0), "41000.0");
        assert_eq!(number(0.000_123_456_789), "0.000123456789");
        assert!(peak_rss_mb() > 0.0);
    }
}
