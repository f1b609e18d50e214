//! Reference answers the engine's results are compared with.

use skyline_core::verify;
use skyline_data::{Dataset, Preference};
use skyline_engine::{QueryKind, QueryResult, SkylineQuery};

/// What a query returned: member indices and, for the counting
/// operators, the count that goes with each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub indices: Vec<u32>,
    pub counts: Option<Vec<u32>>,
}

impl Answer {
    pub fn of(result: &QueryResult) -> Self {
        Self {
            indices: result.indices().to_vec(),
            counts: result.counts().map(<[u32]>::to_vec),
        }
    }
}

/// The query's dimensions and the bit mask of the maximised ones, as
/// the `verify::naive_*_on_pref` functions take them.
pub fn dims_and_mask(q: &SkylineQuery, d: usize) -> (Vec<usize>, u32) {
    let dims: Vec<usize> = q
        .selected_dims()
        .map_or_else(|| (0..d).collect(), <[usize]>::to_vec);
    let mask = q.preferences().map_or(0, |prefs| {
        dims.iter()
            .zip(prefs)
            .filter(|(_, p)| **p == Preference::Max)
            .fold(0u32, |m, (dim, _)| m | 1 << dim)
    });
    (dims, mask)
}

/// The definitionally correct answer, by the quadratic `verify`
/// functions — for prefix-sized data only.
pub fn naive(data: &Dataset, q: &SkylineQuery) -> Answer {
    let (dims, mask) = dims_and_mask(q, data.dims());
    let (mut indices, mut counts) = match q.query_kind() {
        QueryKind::Skyline => (verify::naive_skyline_on_pref(data, &dims, mask), None),
        QueryKind::Skyband { k } => {
            let pairs = verify::naive_skyband_on_pref(data, &dims, mask, k);
            let (i, c) = pairs.into_iter().unzip();
            (i, Some(c))
        }
        QueryKind::TopKDominating { k } => {
            let pairs = verify::naive_top_k_dominating(data, &dims, mask, k);
            let (i, c): (Vec<u32>, Vec<u32>) = pairs.into_iter().unzip();
            (i, Some(c))
        }
    };
    if let Some(limit) = q.result_limit() {
        indices.truncate(limit);
        if let Some(c) = counts.as_mut() {
            c.truncate(limit);
        }
    }
    Answer { indices, counts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_engine::{Engine, EngineConfig};

    #[test]
    fn naive_answers_agree_with_the_engine_on_every_operator() {
        let pool = skyline_parallel::ThreadPool::new(1);
        let data = crate::inputs::dataset(
            skyline_data::Distribution::Independent,
            600,
            4,
            3,
            "t",
            &pool,
        );
        let engine = Engine::with_config(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        });
        engine.register("t", data.clone());
        let queries = [
            SkylineQuery::new("t"),
            SkylineQuery::new("t")
                .dims([1, 3])
                .preference([Preference::Max, Preference::Min]),
            SkylineQuery::new("t").dims([0, 1, 2]).skyband(3),
            SkylineQuery::new("t").dims([0, 2]).top_k_dominating(5),
            SkylineQuery::new("t").limit(2),
        ];
        for q in &queries {
            let got = Answer::of(&engine.execute(q).unwrap());
            assert_eq!(got, naive(&data, q), "{q:?}");
        }
        assert_eq!(dims_and_mask(&queries[1], 4), (vec![1, 3], 0b10));
        assert_eq!(dims_and_mask(&queries[0], 4), (vec![0, 1, 2, 3], 0));
    }
}
