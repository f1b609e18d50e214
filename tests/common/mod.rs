//! The metrics exposition contract, shared by the engine-side and the
//! HTTP-side suites.

/// The engine's documented stable metric names (histogram
/// `_bucket`/`_sum`/`_count` suffixes stripped).
const ENGINE_NAMES: [&str; 8] = [
    "engine.query.latency",
    "session.queue_wait",
    "catalog.stats.rescans",
    "cache.hits",
    "cache.misses",
    "cache.patches",
    "cache.bytes",
    "dominance.tests",
];

/// Asserts every line of a `MetricsSnapshot::render` text parses as
/// `name[{k="v",…}] finite-number` and that the engine's stable names
/// plus `also_required` are present — a renamed or dropped instrument
/// fails here, not on a dashboard.
pub fn assert_exposition(text: &str, also_required: &[&str]) {
    let mut seen = std::collections::BTreeSet::new();
    for line in text.lines() {
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("`{line}` is not `<series> <value>`"));
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("`{line}`: value is not a number"));
        assert!(value.is_finite(), "`{line}`: value is not finite");
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => (
                name,
                rest.strip_suffix('}')
                    .unwrap_or_else(|| panic!("`{line}`: unclosed label set")),
            ),
            None => (series, ""),
        };
        for pair in labels.split(',').filter(|p| !p.is_empty()) {
            let ok = pair.split_once('=').is_some_and(|(k, v)| {
                !k.is_empty()
                    && k.chars().all(|c| c.is_ascii_lowercase() || c == '_')
                    && v.len() >= 2
                    && v.starts_with('"')
                    && v.ends_with('"')
            });
            assert!(ok, "`{line}`: label `{pair}` is not k=\"v\"");
        }
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
            "`{line}`: malformed metric name"
        );
        let base = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| name.strip_suffix(suffix))
            .unwrap_or(name);
        seen.insert(base);
    }
    for name in ENGINE_NAMES.iter().chain(also_required) {
        assert!(seen.contains(name), "exposition lacks `{name}`:\n{text}");
    }
}
