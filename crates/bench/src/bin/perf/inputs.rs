//! Everything the program is fed, made from `--seed`: rows, query
//! scripts, request bodies and mutation batches. The same seed gives
//! byte-identical inputs; the program only ever sees what is generated
//! here.
//!
//! Sizes, dimensionalities, script shapes and the rate ladder are
//! constants of the benchmark — only *which* dimensions, preferences
//! and row values are drawn from the seed, so the cost of a workload
//! does not depend on the seed beyond sampling noise.

use skyline_data::{generate, splitmix64, Dataset, Distribution, Preference, Rng};
use skyline_engine::SkylineQuery;
use skyline_parallel::ThreadPool;

/// Pool lanes: every core, at most four.
pub fn lanes() -> usize {
    skyline_parallel::available_threads().min(4)
}

/// Client connections: one per lane, at most two, so that the load
/// generator (this process) and the server share the machine without
/// the clients outnumbering the cores.
pub fn connections() -> usize {
    lanes().min(2)
}

/// An independent seed for one named input of a run.
pub fn subseed(seed: u64, tag: &str) -> u64 {
    let mut state = seed;
    for b in tag.bytes() {
        state = splitmix64(&mut state) ^ u64::from(b);
    }
    splitmix64(&mut state)
}

pub fn dataset(
    dist: Distribution,
    n: usize,
    d: usize,
    seed: u64,
    tag: &str,
    pool: &ThreadPool,
) -> Dataset {
    generate(dist, n, d, subseed(seed, tag), pool)
}

/// `k` distinct dimensions out of `d`, ascending.
fn pick_dims(rng: &mut Rng, d: usize, k: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..d).collect();
    for i in 0..k {
        let j = i + rng.next_below(d - i);
        all.swap(i, j);
    }
    let mut dims = all[..k].to_vec();
    dims.sort_unstable();
    dims
}

/// A preference vector with at least one `Min` and one `Max`.
fn mixed_prefs(rng: &mut Rng, k: usize) -> Vec<Preference> {
    loop {
        let prefs: Vec<Preference> = (0..k)
            .map(|_| {
                if rng.next_below(2) == 0 {
                    Preference::Min
                } else {
                    Preference::Max
                }
            })
            .collect();
        if prefs.contains(&Preference::Min) && prefs.contains(&Preference::Max) {
            return prefs;
        }
    }
}

/// One entry of a query script: the class it is timed under and the
/// query itself.
#[derive(Debug, Clone)]
pub struct ScriptEntry {
    pub class: &'static str,
    pub query: SkylineQuery,
}

/// A query rendered as text, for comparing scripts byte for byte.
#[cfg(test)]
pub fn render(q: &SkylineQuery) -> String {
    format!(
        "{} {:?} {:?} {:?} {:?}",
        q.dataset(),
        q.query_kind(),
        q.selected_dims(),
        q.preferences(),
        q.result_limit()
    )
}

// ---------------------------------------------------------------------
// engine_cold
// ---------------------------------------------------------------------

pub const COLD_IND: (usize, usize) = (200_000, 8);
pub const COLD_ANTI: (usize, usize) = (100_000, 6);
pub const COLD_SMALL: (usize, usize) = (10_000, 4);
pub const COLD_SHARDS: usize = 4;

/// The fixed 20-query script of `engine_cold`, replayed in order:
/// 8 all-`Min` subspace skylines on `ind` (|dims| 2..8), 6 mixed
/// `Min`/`Max` ones, 2 `skyband(4)` on 4 dims, the d = 6 skyline on
/// the plain and on the sharded anticorrelated entry, a d = 4 one on
/// the sharded entry, and one `top_k_dominating(10)` on 3 dims of
/// `small`.
pub fn cold_script(seed: u64) -> Vec<ScriptEntry> {
    let mut rng = Rng::seed_from(subseed(seed, "engine_cold.script"));
    let mut script = Vec::with_capacity(20);
    for k in [2, 3, 4, 5, 6, 7, 8, 3] {
        script.push(ScriptEntry {
            class: "ind_min",
            query: SkylineQuery::new("ind").dims(pick_dims(&mut rng, COLD_IND.1, k)),
        });
    }
    for k in [2, 3, 4, 4, 5, 6] {
        let dims = pick_dims(&mut rng, COLD_IND.1, k);
        script.push(ScriptEntry {
            class: "ind_pref",
            query: SkylineQuery::new("ind")
                .dims(dims)
                .preference(mixed_prefs(&mut rng, k)),
        });
    }
    for _ in 0..2 {
        script.push(ScriptEntry {
            class: "skyband",
            query: SkylineQuery::new("ind")
                .dims(pick_dims(&mut rng, COLD_IND.1, 4))
                .skyband(4),
        });
    }
    script.push(ScriptEntry {
        class: "anti_plain",
        query: SkylineQuery::new("anti"),
    });
    script.push(ScriptEntry {
        class: "anti_sharded",
        query: SkylineQuery::new("anti_sh"),
    });
    script.push(ScriptEntry {
        class: "anti_sharded_d4",
        query: SkylineQuery::new("anti_sh").dims(pick_dims(&mut rng, COLD_ANTI.1, 4)),
    });
    script.push(ScriptEntry {
        class: "topk",
        query: SkylineQuery::new("small")
            .dims(pick_dims(&mut rng, COLD_SMALL.1, 3))
            .top_k_dominating(10),
    });
    script
}

// ---------------------------------------------------------------------
// engine_mixed
// ---------------------------------------------------------------------

pub const MIXED_IND: (usize, usize) = (200_000, 8);
pub const QUERIES_PER_CYCLE: usize = 19;
pub const INSERT_ROWS: usize = 16;
pub const DELETE_ROWS: usize = 4;

/// The hot set of `engine_mixed`: 5 all-`Min` subspaces, 1 mixed
/// preference, and `skyband(4)` on `[0,1,2,3]` next to the skyline on
/// `[0,1,2,3]` it is a cache ancestor of. The skyband comes first so
/// that warming in order exercises the ancestor path once.
pub fn hot_set(seed: u64) -> Vec<ScriptEntry> {
    let mut rng = Rng::seed_from(subseed(seed, "engine_mixed.hot"));
    let band_dims = vec![0, 1, 2, 3];
    let mut hot = vec![
        ScriptEntry {
            class: "skyband",
            query: SkylineQuery::new("ind").dims(band_dims.clone()).skyband(4),
        },
        ScriptEntry {
            class: "descendant",
            query: SkylineQuery::new("ind").dims(band_dims.clone()),
        },
    ];
    let mut seen = vec![band_dims];
    for k in [2, 3, 4, 5, 6] {
        let dims = loop {
            let dims = pick_dims(&mut rng, MIXED_IND.1, k);
            if !seen.contains(&dims) {
                break dims;
            }
        };
        seen.push(dims.clone());
        hot.push(ScriptEntry {
            class: "min",
            query: SkylineQuery::new("ind").dims(dims),
        });
    }
    let dims = pick_dims(&mut rng, MIXED_IND.1, 3);
    hot.push(ScriptEntry {
        class: "pref",
        query: SkylineQuery::new("ind")
            .dims(dims)
            .preference(mixed_prefs(&mut rng, 3)),
    });
    hot
}

/// The seeded stream `engine_mixed` draws from while it runs: which
/// hot query comes next, and the rows of the next insert batch.
#[derive(Debug)]
pub struct MixedStream {
    rng: Rng,
    hot: usize,
}

impl MixedStream {
    pub fn new(seed: u64, hot: usize) -> Self {
        Self {
            rng: Rng::seed_from(subseed(seed, "engine_mixed.stream")),
            hot,
        }
    }

    pub fn next_query(&mut self) -> usize {
        self.rng.next_below(self.hot)
    }

    pub fn next_rows(&mut self) -> Vec<Vec<f32>> {
        (0..INSERT_ROWS)
            .map(|_| {
                (0..MIXED_IND.1)
                    .map(|_| self.rng.next_f64() as f32)
                    .collect()
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// serve_*
// ---------------------------------------------------------------------

pub const SERVE_COLD: (usize, usize) = (8_000, 4);
pub const SERVE_WARM: (usize, usize) = (200_000, 8);
pub const TOKEN: &str = "perf-token";

/// Open-loop rate ladder, requests per second. Closed-loop capacity on
/// the reference machine is about 2 000/s, so the middle rung sits
/// near half of it and the top rung above it.
pub const RATE_LADDER: [u64; 3] = [500, 1_000, 2_500];

/// The open-loop latency limit on p99, from the due instant.
pub const LATENCY_LIMIT_MS: f64 = 5.0;

/// One request body and the query it encodes (the in-process twin
/// executes the query; the oracle checks the response against it).
#[derive(Debug, Clone)]
pub struct Body {
    pub class: &'static str,
    pub json: String,
    pub query: SkylineQuery,
}

fn body(
    class: &'static str,
    dataset: &str,
    dims: Option<Vec<usize>>,
    prefs: Option<Vec<Preference>>,
    limit: Option<usize>,
) -> Body {
    let mut json = format!("{{\"dataset\":\"{dataset}\"");
    let mut query = SkylineQuery::new(dataset);
    if let Some(dims) = dims {
        let list: Vec<String> = dims.iter().map(usize::to_string).collect();
        json.push_str(&format!(",\"dims\":[{}]", list.join(",")));
        query = query.dims(dims);
    }
    if let Some(prefs) = prefs {
        let list: Vec<&str> = prefs
            .iter()
            .map(|p| match p {
                Preference::Min => "\"min\"",
                Preference::Max => "\"max\"",
            })
            .collect();
        json.push_str(&format!(",\"preference\":[{}]", list.join(",")));
        query = query.preference(prefs);
    }
    if let Some(limit) = limit {
        json.push_str(&format!(",\"limit\":{limit}"));
        query = query.limit(limit);
    }
    json.push('}');
    Body { class, json, query }
}

/// The four rotating bodies of the repository's own `skybench serve`
/// harness (`serve_load::BODIES`, copied): full space, two subspaces,
/// and a limited one. They are fixed; only the rows depend on the seed.
pub fn cold_bodies() -> Vec<Body> {
    vec![
        body("full", "serve", None, None, None),
        body("d2", "serve", Some(vec![0, 1]), None, None),
        body(
            "d2_pref",
            "serve",
            Some(vec![1, 2]),
            Some(vec![Preference::Min, Preference::Max]),
            None,
        ),
        body("d3_limit", "serve", Some(vec![0, 2, 3]), None, Some(64)),
    ]
}

/// The seven bodies of `serve_warm`: subspace skylines on 2..7 seeded
/// dimensions (about 10 to about 3 400 rows on independent 200 000×8)
/// and the full-space skyline cut to 64 rows.
pub fn warm_bodies(seed: u64) -> Vec<Body> {
    let mut rng = Rng::seed_from(subseed(seed, "serve_warm.bodies"));
    const CLASSES: [&str; 6] = ["d2", "d3", "d4", "d5", "d6", "large"];
    let mut bodies: Vec<Body> = (2..=7)
        .map(|k| {
            let dims = pick_dims(&mut rng, SERVE_WARM.1, k);
            body(CLASSES[k - 2], "warm", Some(dims), None, None)
        })
        .collect();
    bodies.push(body("small", "warm", None, None, Some(64)));
    bodies
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rendered(script: &[ScriptEntry]) -> Vec<String> {
        script
            .iter()
            .map(|e| format!("{} {}", e.class, render(&e.query)))
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let pool = ThreadPool::new(2);
        let rows = |seed| {
            dataset(Distribution::Anticorrelated, 5_000, 6, seed, "t", &pool)
                .values()
                .to_vec()
        };
        assert_eq!(rows(7), rows(7));
        assert_ne!(rows(7), rows(8));
        // Different inputs of one run do not share a stream.
        assert_ne!(subseed(7, "a"), subseed(7, "b"));

        assert_eq!(rendered(&cold_script(7)), rendered(&cold_script(7)));
        assert_ne!(rendered(&cold_script(7)), rendered(&cold_script(8)));
        assert_eq!(rendered(&hot_set(7)), rendered(&hot_set(7)));
        assert_ne!(rendered(&hot_set(7)), rendered(&hot_set(8)));

        let bodies =
            |seed| -> Vec<String> { warm_bodies(seed).into_iter().map(|b| b.json).collect() };
        assert_eq!(bodies(7), bodies(7));
        assert_ne!(bodies(7), bodies(8));

        let stream = |seed| {
            let mut s = MixedStream::new(seed, 8);
            let picks: Vec<usize> = (0..64).map(|_| s.next_query()).collect();
            (picks, s.next_rows())
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
    }

    #[test]
    fn cold_script_has_the_fixed_shape() {
        for seed in [1, 2, 3] {
            let script = cold_script(seed);
            assert_eq!(script.len(), 20);
            let count = |class| script.iter().filter(|e| e.class == class).count();
            assert_eq!(
                [
                    count("ind_min"),
                    count("ind_pref"),
                    count("skyband"),
                    count("anti_plain"),
                    count("anti_sharded"),
                    count("anti_sharded_d4"),
                    count("topk")
                ],
                [8, 6, 2, 1, 1, 1, 1]
            );
            let sizes: Vec<usize> = script[..8]
                .iter()
                .map(|e| e.query.selected_dims().unwrap().len())
                .collect();
            assert_eq!(sizes, [2, 3, 4, 5, 6, 7, 8, 3]);
            for e in script.iter().filter(|e| e.class == "ind_pref") {
                let prefs = e.query.preferences().unwrap();
                assert!(prefs.contains(&Preference::Min) && prefs.contains(&Preference::Max));
            }
        }
    }

    #[test]
    fn hot_set_has_eight_distinct_keys_with_the_ancestor_pair_first() {
        for seed in [1, 2, 3, 4] {
            let hot = hot_set(seed);
            assert_eq!(hot.len(), 8);
            assert_eq!(hot[0].query.selected_dims(), hot[1].query.selected_dims());
            assert_eq!(hot[0].query.query_kind().k(), 4);
            let mut keys = rendered(&hot);
            keys.sort();
            keys.dedup();
            assert_eq!(keys.len(), 8);
        }
    }

    #[test]
    fn bodies_are_the_json_of_their_queries() {
        let cold = cold_bodies();
        assert_eq!(cold[0].json, r#"{"dataset":"serve"}"#);
        assert_eq!(cold[1].json, r#"{"dataset":"serve","dims":[0,1]}"#);
        assert_eq!(
            cold[2].json,
            r#"{"dataset":"serve","dims":[1,2],"preference":["min","max"]}"#
        );
        assert_eq!(
            cold[3].json,
            r#"{"dataset":"serve","dims":[0,2,3],"limit":64}"#
        );
        let warm = warm_bodies(5);
        assert_eq!(warm.len(), 7);
        assert_eq!(warm[6].json, r#"{"dataset":"warm","limit":64}"#);
        for (k, b) in warm[..6].iter().enumerate() {
            assert_eq!(b.query.selected_dims().unwrap().len(), k + 2);
            assert!(skyline_serve::parse_json(&b.json).is_ok());
        }
    }

    #[test]
    fn load_is_sized_for_the_machine() {
        assert!((1..=4).contains(&lanes()));
        assert!((1..=2).contains(&connections()));
        assert!(connections() <= lanes());
    }
}
