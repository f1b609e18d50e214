//! The benchmark's contract, read from the `BENCHMARK.json` at the
//! repository root: workload names, metric names, units, directions
//! and bounds. The file is compiled in, so the names this binary emits
//! and the names the contract lists cannot drift apart unnoticed —
//! [`crate::report::Metrics`] refuses a name the contract does not
//! carry.

use std::sync::OnceLock;

use skyline_serve::{parse_json, Json};

const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a larger value is the better one.
    pub higher_is_better: bool,
    /// Relative worsening that counts as a regression; `None` for
    /// per-layer metrics, which are recorded but not gated.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    #[cfg(test)]
    pub fn find(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

fn metric(v: &Json) -> Result<MetricSpec, String> {
    let text = |key: &str| {
        v.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("metric without string '{key}': {v:?}"))
    };
    let better = text("better")?;
    Ok(MetricSpec {
        name: text("name")?,
        unit: text("unit")?,
        higher_is_better: match better.as_str() {
            "higher" => true,
            "lower" => false,
            other => return Err(format!("'better' must be higher or lower, got {other}")),
        },
        bound: v.get("bound").and_then(Json::as_f64),
    })
}

pub fn parse(text: &str) -> Result<Spec, String> {
    let root = parse_json(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| {
        root.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: '{key}' must be an array"))
    };
    let workloads = list("workloads")?
        .iter()
        .map(|w| {
            let field = |k: &str| w.get(k).and_then(Json::as_str).map(str::to_string);
            field("name")
                .zip(field("why"))
                .ok_or_else(|| format!("workload needs name and why: {w:?}"))
        })
        .collect::<Result<_, _>>()?;
    Ok(Spec {
        run_seconds: root
            .get("run_seconds")
            .and_then(Json::as_u64)
            .ok_or("BENCHMARK.json: 'run_seconds' must be a whole number")?,
        workloads,
        end_to_end: list("end_to_end")?
            .iter()
            .map(metric)
            .collect::<Result<_, _>>()?,
        per_layer: list("per_layer")?
            .iter()
            .map(metric)
            .collect::<Result<_, _>>()?,
    })
}

/// The compiled-in contract.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse(BENCHMARK_JSON).expect("the committed BENCHMARK.json parses"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// The limits the builder contract puts on `BENCHMARK.json`.
    #[test]
    fn committed_contract_is_within_its_limits() {
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        let root = parse_json(BENCHMARK_JSON).unwrap();
        let Json::Obj(members) = &root else {
            panic!("not an object")
        };
        let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let s = spec();
        assert!((1..=60).contains(&s.run_seconds));
        assert!((2..=8).contains(&s.workloads.len()));
        assert!((1..=16).contains(&s.end_to_end.len()));
        assert!((1..=128).contains(&s.per_layer.len()));
        let mut names: Vec<&str> = s
            .workloads
            .iter()
            .map(|(n, _)| n.as_str())
            .chain(s.end_to_end.iter().map(|m| m.name.as_str()))
            .chain(s.per_layer.iter().map(|m| m.name.as_str()))
            .collect();
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for (_, why) in &s.workloads {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        for m in s.end_to_end.iter().chain(&s.per_layer) {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{m:?}");
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in &s.end_to_end {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{m:?}");
        }
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = s.find("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let largest = s
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
    }

    #[test]
    fn every_workload_in_the_contract_is_implemented_and_vice_versa() {
        let mut listed: Vec<&str> = spec().workloads.iter().map(|(n, _)| n.as_str()).collect();
        let mut known: Vec<&str> = crate::WORKLOADS.to_vec();
        listed.sort_unstable();
        known.sort_unstable();
        assert_eq!(listed, known);
    }

    #[test]
    fn malformed_contracts_are_refused() {
        assert!(parse("[]").is_err());
        assert!(parse(r#"{"run_seconds":1.5}"#).is_err());
        let no_unit = r#"{"run_seconds":1,"workloads":[],"per_layer":[],
            "end_to_end":[{"name":"x","better":"lower","bound":0.1}]}"#;
        assert!(parse(no_unit).unwrap_err().contains("unit"));
        let sideways = r#"{"run_seconds":1,"workloads":[],"per_layer":[],
            "end_to_end":[{"name":"x","unit":"s","better":"sideways","bound":0.1}]}"#;
        assert!(parse(sideways).is_err());
    }
}
