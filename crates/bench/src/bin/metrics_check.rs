//! CI gate for the machine-readable telemetry exposition.
//!
//! Reads `skybench engine --metrics` output on stdin and validates
//! every `METRICS` line against the exposition grammar:
//!
//! ```text
//! METRICS phase=<phase> <name>[{k="v",...}] <value>
//! ```
//!
//! where `<name>` is dotted lowercase (histogram series carry a
//! `_bucket` / `_sum` / `_count` suffix) and `<value>` parses as a
//! finite number. After parsing, the checker requires that the stream
//! covered the registry's stable metric names, so a rename or a
//! dropped registration fails CI rather than silently vanishing from
//! dashboards. Exits non-zero with a diagnostic on the first malformed
//! line or any missing required name.
//!
//! The serving load harness's report lines are validated too:
//!
//! ```text
//! SERVE class=<closed|open> offered_qps=<int> achieved_qps=<int> p50_us=<int> p99_us=<int> rejected_rate=<f in [0,1]> connections=<int> requests=<int>
//! ```
//!
//! When any SERVE lines are present the stream must carry at least two
//! distinct `offered_qps` values — a latency/throughput claim at a
//! single offered rate is not a curve.
//!
//! The crash-matrix phase's report lines are validated too:
//!
//! ```text
//! RECOVERY phase=<kill|torn|bitflip> records_replayed=<int> torn_tail=<int> quarantined=<int> warm_p50_us=<int>
//! ```
//!
//! And the query-family phase's report line:
//!
//! ```text
//! FAMILY kind=<skyline|skyband|top_k_dominating> k=<int> p50_us=<int> ancestor_hit_rate=<f in [0,1]> ...
//! ```

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader};
use std::process::exit;

/// Metric names (suffix-stripped) that every `--metrics` dump must
/// contain. These are the engine's documented stable names.
const REQUIRED: &[&str] = &[
    "engine.query.latency",
    "session.queue_wait",
    "cache.hits",
    "cache.misses",
    "cache.patches",
    "cache.bytes",
    "dominance.tests",
    "feedback.refits",
];

/// Parses one sample body (`name[{labels}] value`), returning the
/// suffix-stripped metric name, or an error describing the defect.
fn parse_sample(body: &str) -> Result<String, String> {
    let (series, value) = body
        .rsplit_once(' ')
        .ok_or("expected `<name>[{labels}] <value>`")?;
    let value: f64 = value
        .parse()
        .map_err(|_| format!("value `{value}` is not a number"))?;
    if !value.is_finite() {
        return Err(format!("value `{value}` is not finite"));
    }

    let name = match series.split_once('{') {
        Some((name, rest)) => {
            let labels = rest
                .strip_suffix('}')
                .ok_or("label set is missing its closing `}`")?;
            for pair in labels.split(',') {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("label `{pair}` is not `k=\"v\"`"))?;
                if k.is_empty()
                    || !k.chars().all(|c| c.is_ascii_lowercase() || c == '_')
                    || !v.starts_with('"')
                    || !v.ends_with('"')
                    || v.len() < 2
                {
                    return Err(format!("label `{pair}` is not `k=\"v\"`"));
                }
            }
            name
        }
        None => series,
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_')
    {
        return Err(format!("metric name `{name}` is malformed"));
    }
    let base = name
        .strip_suffix("_bucket")
        .or_else(|| name.strip_suffix("_sum"))
        .or_else(|| name.strip_suffix("_count"))
        .unwrap_or(name);
    Ok(base.to_string())
}

/// Validates one `RECOVERY ` line body (the `k=v` pairs after the
/// tag). Every field is `key=value`; the keys below are required and
/// typed.
fn check_recovery_line(body: &str) -> Result<(), String> {
    let mut fields = std::collections::BTreeMap::new();
    for pair in body.split_whitespace() {
        let (k, v) = pair
            .split_once('=')
            .ok_or_else(|| format!("field `{pair}` is not `key=value`"))?;
        fields.insert(k, v);
    }
    let get = |key: &str| {
        fields
            .get(key)
            .copied()
            .ok_or_else(|| format!("missing required field `{key}`"))
    };
    let phase = get("phase")?;
    if !matches!(phase, "kill" | "torn" | "bitflip") {
        return Err(format!("field `phase={phase}` is not a known fault mode"));
    }
    for key in [
        "records_replayed",
        "torn_tail",
        "quarantined",
        "warm_p50_us",
    ] {
        let v = get(key)?;
        v.parse::<u64>()
            .map_err(|_| format!("field `{key}={v}` is not an unsigned integer"))?;
    }
    Ok(())
}

/// Validates one `FAMILY ` line body (the `k=v` pairs after the tag).
/// Every field is `key=value`; the keys below are required and typed.
fn check_family_line(body: &str) -> Result<(), String> {
    let mut fields = std::collections::BTreeMap::new();
    for pair in body.split_whitespace() {
        let (k, v) = pair
            .split_once('=')
            .ok_or_else(|| format!("field `{pair}` is not `key=value`"))?;
        fields.insert(k, v);
    }
    let get = |key: &str| {
        fields
            .get(key)
            .copied()
            .ok_or_else(|| format!("missing required field `{key}`"))
    };
    let kind = get("kind")?;
    if !matches!(kind, "skyline" | "skyband" | "top_k_dominating") {
        return Err(format!("field `kind={kind}` is not a known operator"));
    }
    for key in ["k", "p50_us"] {
        let v = get(key)?;
        v.parse::<u64>()
            .map_err(|_| format!("field `{key}={v}` is not an unsigned integer"))?;
    }
    let rate = get("ancestor_hit_rate")?;
    let rate: f64 = rate
        .parse()
        .map_err(|_| format!("field `ancestor_hit_rate={rate}` is not a number"))?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!(
            "field `ancestor_hit_rate={rate}` is outside [0, 1]"
        ));
    }
    Ok(())
}

/// Validates one `SERVE ` line body (the `k=v` pairs after the tag),
/// returning its `offered_qps` on success. Every field is `key=value`;
/// the keys below are required and typed.
fn check_serve_line(body: &str) -> Result<u64, String> {
    let mut fields = std::collections::BTreeMap::new();
    for pair in body.split_whitespace() {
        let (k, v) = pair
            .split_once('=')
            .ok_or_else(|| format!("field `{pair}` is not `key=value`"))?;
        fields.insert(k, v);
    }
    let get = |key: &str| {
        fields
            .get(key)
            .copied()
            .ok_or_else(|| format!("missing required field `{key}`"))
    };
    let class = get("class")?;
    if !matches!(class, "closed" | "open") {
        return Err(format!("field `class={class}` is not `closed` or `open`"));
    }
    for key in [
        "offered_qps",
        "achieved_qps",
        "p50_us",
        "p99_us",
        "connections",
        "requests",
    ] {
        let v = get(key)?;
        v.parse::<u64>()
            .map_err(|_| format!("field `{key}={v}` is not an unsigned integer"))?;
    }
    let rate = get("rejected_rate")?;
    let rate: f64 = rate
        .parse()
        .map_err(|_| format!("field `rejected_rate={rate}` is not a number"))?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("field `rejected_rate={rate}` is outside [0, 1]"));
    }
    Ok(get("offered_qps")?.parse::<u64>().expect("validated above"))
}

fn main() {
    let stdin = std::io::stdin();
    let mut seen_names = BTreeSet::new();
    let mut seen_phases = BTreeSet::new();
    let mut lines = 0u64;
    let mut serve_lines = 0u64;
    let mut recovery_lines = 0u64;
    let mut family_lines = 0u64;
    let mut offered_points = BTreeSet::new();

    for (no, line) in BufReader::new(stdin.lock()).lines().enumerate() {
        let line = line.expect("stdin is readable");
        if let Some(body) = line.strip_prefix("RECOVERY ") {
            if let Err(why) = check_recovery_line(body) {
                eprintln!("metrics_check: line {}: {why}: `{line}`", no + 1);
                exit(1);
            }
            recovery_lines += 1;
            continue;
        }
        if let Some(body) = line.strip_prefix("FAMILY ") {
            if let Err(why) = check_family_line(body) {
                eprintln!("metrics_check: line {}: {why}: `{line}`", no + 1);
                exit(1);
            }
            family_lines += 1;
            continue;
        }
        if let Some(body) = line.strip_prefix("SERVE ") {
            match check_serve_line(body) {
                Ok(offered) => {
                    serve_lines += 1;
                    offered_points.insert(offered);
                }
                Err(why) => {
                    eprintln!("metrics_check: line {}: {why}: `{line}`", no + 1);
                    exit(1);
                }
            }
            continue;
        }
        let Some(rest) = line.strip_prefix("METRICS ") else {
            continue;
        };
        lines += 1;
        let Some((phase, body)) = rest
            .strip_prefix("phase=")
            .and_then(|r| r.split_once(' '))
            .filter(|(phase, _)| !phase.is_empty())
        else {
            eprintln!("metrics_check: line {}: missing `phase=<phase>`", no + 1);
            exit(1);
        };
        match parse_sample(body) {
            Ok(name) => {
                seen_names.insert(name);
                seen_phases.insert(phase.to_string());
            }
            Err(why) => {
                eprintln!("metrics_check: line {}: {why}: `{line}`", no + 1);
                exit(1);
            }
        }
    }

    if lines == 0 {
        eprintln!("metrics_check: no METRICS lines on stdin (run skybench engine --metrics)");
        exit(1);
    }
    let missing: Vec<&&str> = REQUIRED
        .iter()
        .filter(|name| !seen_names.contains(**name))
        .collect();
    if !missing.is_empty() {
        eprintln!("metrics_check: required metric names missing from the dump: {missing:?}");
        exit(1);
    }
    if serve_lines > 0 && offered_points.len() < 2 {
        eprintln!(
            "metrics_check: SERVE lines present but only {} distinct offered_qps point(s); \
             a latency curve needs at least 2",
            offered_points.len()
        );
        exit(1);
    }
    if seen_phases.contains("serve") && serve_lines == 0 {
        eprintln!(
            "metrics_check: the serve phase ran (phase=serve samples present) \
             but emitted no SERVE report lines"
        );
        exit(1);
    }
    if seen_phases.contains("recovery") && recovery_lines == 0 {
        eprintln!(
            "metrics_check: the crash-matrix phase ran (phase=recovery samples present) \
             but emitted no RECOVERY report lines"
        );
        exit(1);
    }
    if seen_phases.contains("family") && family_lines == 0 {
        eprintln!(
            "metrics_check: the query-family phase ran (phase=family samples present) \
             but emitted no FAMILY report lines"
        );
        exit(1);
    }
    println!(
        "metrics_check: OK — {lines} samples ({serve_lines} SERVE lines at {} offered-QPS \
         point(s), {recovery_lines} RECOVERY lines, \
         {family_lines} FAMILY lines), {} distinct metrics across phases {:?}",
        offered_points.len(),
        seen_names.len(),
        seen_phases
    );
}
