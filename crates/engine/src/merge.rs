//! Witness-pruned merge of per-shard local results — one function for
//! the skyline (`k = 1`) and for any k-skyband.
//!
//! A shard's local k-skyband is a superset of its contribution to the
//! global one, and strict dominance is transitive — so a concatenation
//! of all local results contains the global answer, and a candidate's
//! dominator count **among the broadcast candidates**, capped at `k`,
//! decides it (see [`merge_locals`] for why that count is exact below
//! `k`). The merge therefore never revisits base data: shards
//! broadcast only their local result plus a small **witness set**, and
//! elimination runs entirely over the broadcast rows.
//!
//! Cost shape, in order of application:
//!
//! 1. **Witness probe** — each shard nominates at most `d + 1`
//!    witnesses (its per-dimension minima and its minimum-sum point,
//!    the rows most likely to dominate foreign candidates). Probing a
//!    candidate against the tiny witness tile kills the bulk of
//!    locally-kept-but-globally-dominated rows for a few tile
//!    compares. Every witness is a distinct live candidate, so `k`
//!    witnesses dominating a probe certify a global count of at least
//!    `k`; own-shard witnesses need no ownership bookkeeping.
//! 2. **Sorted range scan** — survivors are checked against the full
//!    candidate tile, laid out in ascending folded-coordinate-sum
//!    order. A strict dominator has a strictly smaller exact sum, so
//!    only the prefix up to (and including) the candidate's equal-sum
//!    run can contain one. Equal-sum rows are kept in the scanned range
//!    because floating-point sums can tie where exact sums differ; a
//!    candidate inside its own tie run never dominates itself, so the
//!    inclusive bound is sound and loses nothing.
//!
//! Both steps use the boolean tile scan
//! ([`TileStore::any_dominates`] / [`TileStore::any_dominates_range`])
//! when `k == 1` — it tests a tile pair per broadcast and is the faster
//! kernel — and the capped counting scan
//! ([`TileStore::count_dominators_range`]) otherwise. The choice is
//! made from the query's `k`, never from a setting.
//!
//! All rows arriving here are already preference-folded and projected
//! to the query's effective dimensions, so plain [`TileStore::push`] /
//! minimisation semantics apply throughout.
//!
//! [`TileStore::any_dominates`]: skyline_core::dominance::simd::TileStore::any_dominates
//! [`TileStore::any_dominates_range`]: skyline_core::dominance::simd::TileStore::any_dominates_range
//! [`TileStore::count_dominators_range`]: skyline_core::dominance::simd::TileStore::count_dominators_range
//! [`TileStore::push`]: skyline_core::dominance::simd::TileStore::push

use skyline_core::dominance::simd::TileStore;

/// One shard's broadcast: its local skyline (`k = 1`) or local
/// k-skyband — the members dominated by fewer than `k` rows of the same
/// shard — in preference-folded, dimension-projected form.
#[derive(Debug, Clone, Default)]
pub struct ShardLocal {
    /// Shard index the rows came from.
    pub shard: usize,
    /// Stable dataset ids of the local members.
    pub ids: Vec<u32>,
    /// Folded row data, `dims` contiguous values per id, parallel to
    /// `ids`.
    pub rows: Vec<f32>,
}

/// What the merge did, for telemetry and the bench harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Candidates entering the merge (Σ local result sizes).
    pub candidates: usize,
    /// Witness rows broadcast (≤ `(d + 1) ·` shards).
    pub witnesses: usize,
    /// Candidates eliminated by the witness probe alone.
    pub witness_kills: usize,
    /// Candidates surviving as global members.
    pub survivors: usize,
    /// Dominance tests charged to the merge (tile compares × lanes).
    pub dominance_tests: u64,
}

impl MergeStats {
    /// Fraction of candidates the witness probe killed without
    /// touching the full candidate tile (0 when there were no
    /// candidates).
    pub fn witness_frac(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.witness_kills as f64 / self.candidates as f64
        }
    }
}

/// Merges per-shard local k-skybands (local skylines at `k = 1`) into
/// the global one.
///
/// `dims` is the folded row width and `k` the skyband depth. Returns
/// `(stable id, exact global dominator count)` pairs (unsorted; every
/// count is 0 at `k = 1`) and the merge statistics.
///
/// Correctness rests on a strengthening of the local-skyline lemma: for
/// any point `c` of shard `t`, at least `min(|D_t(c)|, k)` of `c`'s
/// shard-local dominators are themselves in the local k-skyband (strong
/// induction on local dominator count: a local dominator `y` missing
/// from the local skyband has `count_t(y) ≥ k`, and its own dominators
/// — a strict subset of `c`'s — are transitively dominators of `c`).
/// Every cross-shard dominator of a candidate is either broadcast or
/// has ≥ k broadcast dominators that transitively dominate the
/// candidate. So counting dominators **among the broadcast candidates
/// only**, capped at `k`, is exact below `k` and correctly saturates at
/// `≥ k` — no base-data revisit, and no carry-over arithmetic: a
/// candidate's same-shard broadcast dominators are exactly its local
/// count (both sides `< k`).
pub fn merge_locals(dims: usize, k: u32, locals: &[ShardLocal]) -> (Vec<(u32, u32)>, MergeStats) {
    let mut stats = MergeStats::default();
    let total: usize = locals.iter().map(|l| l.ids.len()).sum();
    stats.candidates = total;
    if total == 0 || k == 0 {
        return (Vec::new(), stats);
    }

    // Candidate order: ascending exact-as-f64 folded sum. Strict
    // dominators sort strictly before their victims except for
    // floating-point sum ties, which the inclusive tie-run bound below
    // covers.
    let mut order: Vec<(f64, u32, u32)> = Vec::with_capacity(total); // (sum, local, row)
    for (li, local) in locals.iter().enumerate() {
        debug_assert_eq!(local.rows.len(), local.ids.len() * dims);
        for r in 0..local.ids.len() {
            let row = &local.rows[r * dims..(r + 1) * dims];
            let sum: f64 = row.iter().map(|&v| v as f64).sum();
            order.push((sum, li as u32, r as u32));
        }
    }
    order.sort_by(|a, b| a.0.total_cmp(&b.0));

    let row_of = |li: u32, r: u32| -> &[f32] {
        let base = r as usize * dims;
        &locals[li as usize].rows[base..base + dims]
    };

    let mut tile = TileStore::with_capacity(dims, total);
    for &(_, li, r) in &order {
        tile.push(row_of(li, r));
    }

    // Witnesses: per shard, the per-dimension minima and the
    // minimum-sum member of its local result.
    let mut witnesses = TileStore::new(dims);
    for local in locals {
        let n = local.ids.len();
        if n == 0 {
            continue;
        }
        let mut picks: Vec<usize> = Vec::with_capacity(dims + 1);
        for j in 0..dims {
            let mut best = 0usize;
            for r in 1..n {
                if local.rows[r * dims + j] < local.rows[best * dims + j] {
                    best = r;
                }
            }
            picks.push(best);
        }
        let mut best_sum = 0usize;
        let mut best = f64::INFINITY;
        for r in 0..n {
            let s: f64 = local.rows[r * dims..(r + 1) * dims]
                .iter()
                .map(|&v| v as f64)
                .sum();
            if s < best {
                best = s;
                best_sum = r;
            }
        }
        picks.push(best_sum);
        picks.sort_unstable();
        picks.dedup();
        for r in picks {
            witnesses.push(&local.rows[r * dims..(r + 1) * dims]);
        }
    }
    stats.witnesses = witnesses.len();
    let wn = witnesses.len();

    let mut out = Vec::new();
    let mut dts = 0u64;
    let mut i = 0usize;
    while i < total {
        // The equal-sum run [i, run_end): every member's dominators
        // live strictly below run_end in the sorted tile.
        let mut run_end = i + 1;
        while run_end < total && order[run_end].0 == order[i].0 {
            run_end += 1;
        }
        for &(_, li, r) in &order[i..run_end] {
            let q = row_of(li, r);
            let killed = if k == 1 {
                witnesses.any_dominates(q, &mut dts)
            } else {
                witnesses.count_dominators_range(0, wn, q, k, &mut dts) >= k
            };
            if killed {
                stats.witness_kills += 1;
                continue;
            }
            let count = if k == 1 {
                tile.any_dominates_range(0, run_end, q, &mut dts) as u32
            } else {
                tile.count_dominators_range(0, run_end, q, k, &mut dts)
            };
            if count < k {
                out.push((locals[li as usize].ids[r as usize], count));
            }
        }
        i = run_end;
    }
    stats.survivors = out.len();
    stats.dominance_tests = dts;
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_core::dominance::simd::flip_pref;
    use skyline_core::verify;
    use skyline_data::{generate, Dataset, Distribution, PartitionerKind, ShardedStore};
    use skyline_parallel::ThreadPool;

    fn gen(dist: Distribution, n: usize, d: usize, seed: u64) -> Dataset {
        generate(dist, n, d, seed, &ThreadPool::new(1))
    }

    /// `[candidates, witnesses, witness_kills, survivors,
    /// dominance_tests]` recorded on these seeds from the separate
    /// skyline (`k = 1`) and skyband (`k > 1`) merges this function
    /// unified: it must do the same work, test for test.
    fn pinned(p: [u64; 5]) -> MergeStats {
        MergeStats {
            candidates: p[0] as usize,
            witnesses: p[1] as usize,
            witness_kills: p[2] as usize,
            survivors: p[3] as usize,
            dominance_tests: p[4],
        }
    }

    const SKYLINE_PINS: [[u64; 5]; 18] = [
        [388, 10, 10, 342, 67053], // Random shards=2 band_k=1 n=600 d=4 mask=0
        [42, 8, 10, 27, 937],      // Random shards=2 band_k=1 n=600 d=3 mask=101
        [6, 4, 1, 5, 39],          // Random shards=2 band_k=1 n=400 d=2 mask=10
        [455, 20, 24, 342, 77009], // Random shards=4 band_k=1 n=600 d=4 mask=0
        [68, 15, 35, 27, 1579],    // Random shards=4 band_k=1 n=600 d=3 mask=101
        [9, 8, 4, 5, 88],          // Random shards=4 band_k=1 n=400 d=2 mask=10
        [361, 10, 1, 342, 63681],  // Grid shards=2 band_k=1 n=600 d=4 mask=0
        [45, 8, 16, 27, 812],      // Grid shards=2 band_k=1 n=600 d=3 mask=101
        [10, 5, 5, 5, 65],         // Grid shards=2 band_k=1 n=400 d=2 mask=10
        [377, 20, 7, 342, 68934],  // Grid shards=4 band_k=1 n=600 d=4 mask=0
        [66, 15, 35, 27, 1371],    // Grid shards=4 band_k=1 n=600 d=3 mask=101
        [25, 11, 20, 5, 230],      // Grid shards=4 band_k=1 n=400 d=2 mask=10
        [348, 9, 4, 342, 62359],   // Angular shards=2 band_k=1 n=600 d=4 mask=0
        [31, 7, 4, 27, 643],       // Angular shards=2 band_k=1 n=600 d=3 mask=101
        [26, 5, 21, 5, 145],       // Angular shards=2 band_k=1 n=400 d=2 mask=10
        [359, 13, 7, 342, 64902],  // Angular shards=4 band_k=1 n=600 d=4 mask=0
        [45, 13, 14, 27, 1073],    // Angular shards=4 band_k=1 n=600 d=3 mask=101
        [42, 11, 37, 5, 366],      // Angular shards=4 band_k=1 n=400 d=2 mask=10
    ];

    const BAND_PINS: [[u64; 5]; 19] = [
        [364, 15, 25, 265, 49105], // Random shards=3 band_k=1 n=500 d=4 mask=0
        [60, 16, 41, 18, 1281],    // Random shards=4 band_k=1 n=500 d=3 mask=101
        [455, 15, 4, 376, 85492],  // Random shards=3 band_k=2 n=500 d=4 mask=0
        [110, 16, 52, 38, 3622],   // Random shards=4 band_k=2 n=500 d=3 mask=101
        [481, 15, 0, 445, 111581], // Random shards=3 band_k=4 n=500 d=4 mask=0
        [176, 16, 19, 74, 8947],   // Random shards=4 band_k=4 n=500 d=3 mask=101
        [310, 15, 22, 265, 42139], // Grid shards=3 band_k=1 n=500 d=4 mask=0
        [48, 15, 29, 18, 982],     // Grid shards=4 band_k=1 n=500 d=3 mask=101
        [409, 15, 2, 376, 80388],  // Grid shards=3 band_k=2 n=500 d=4 mask=0
        [81, 15, 28, 38, 2421],    // Grid shards=4 band_k=2 n=500 d=3 mask=101
        [462, 15, 0, 445, 108438], // Grid shards=3 band_k=4 n=500 d=4 mask=0
        [149, 15, 30, 74, 6722],   // Grid shards=4 band_k=4 n=500 d=3 mask=101
        [274, 9, 4, 265, 38267],   // Angular shards=3 band_k=1 n=500 d=4 mask=0
        [47, 14, 29, 18, 972],     // Angular shards=4 band_k=1 n=500 d=3 mask=101
        [390, 9, 1, 376, 76024],   // Angular shards=3 band_k=2 n=500 d=4 mask=0
        [75, 14, 22, 38, 2344],    // Angular shards=4 band_k=2 n=500 d=3 mask=101
        [454, 9, 0, 445, 104716],  // Angular shards=3 band_k=4 n=500 d=4 mask=0
        [124, 14, 16, 74, 5683],   // Angular shards=4 band_k=4 n=500 d=3 mask=101
        [19, 5, 4, 12, 214],       // Random shards=2 band_k=3 n=300 d=2 mask=10
    ];

    /// Reference merge path: shard `data`, compute each local
    /// `band_k`-skyband by brute force, merge, and compare against the
    /// global naive skyband with exact counts.
    fn check(
        data: &Dataset,
        band_k: u32,
        shards: usize,
        kind: PartitionerKind,
        max_mask: u32,
    ) -> MergeStats {
        let d = data.dims();
        let dims: Vec<usize> = (0..d).collect();
        let store = ShardedStore::build(data, shards, kind);
        // Scatter in id order, as the engine does.
        let mut buckets: Vec<(Vec<u32>, Vec<f32>)> = vec![Default::default(); store.k()];
        for (i, row) in data.rows().enumerate() {
            let (ids, rows) = &mut buckets[store.shard_of(i as u32, row)];
            ids.push(i as u32);
            rows.extend((0..d).map(|j| flip_pref(row[j], max_mask & (1 << j) != 0)));
        }
        let mut locals = Vec::new();
        for (s, (ids, rows)) in buckets.iter().enumerate() {
            let mut local = ShardLocal {
                shard: s,
                ..ShardLocal::default()
            };
            for a in 0..ids.len() {
                let pa = &rows[a * d..(a + 1) * d];
                let dominators = (0..ids.len())
                    .filter(|&b| {
                        let pb = &rows[b * d..(b + 1) * d];
                        pb.iter().zip(pa).all(|(x, y)| x <= y)
                            && pb.iter().zip(pa).any(|(x, y)| x < y)
                    })
                    .count();
                if (dominators as u32) < band_k {
                    local.ids.push(ids[a]);
                    local.rows.extend_from_slice(pa);
                }
            }
            locals.push(local);
        }
        let (mut got, stats) = merge_locals(d, band_k, &locals);
        got.sort_unstable();
        let expect = verify::naive_skyband_on_pref(data, &dims, max_mask, band_k);
        assert_eq!(
            got, expect,
            "band_k={band_k} shards={shards} {kind:?} mask={max_mask:b}"
        );
        assert_eq!(stats.survivors, expect.len());
        assert!(stats.witnesses <= (d + 1) * store.k());
        assert_eq!(
            stats.candidates,
            locals.iter().map(|l| l.ids.len()).sum::<usize>()
        );
        stats
    }

    /// Every distinct row twice, the copies 40 ids apart so the id-hash
    /// partitioner spreads them over shards: an anti-diagonal on the
    /// first two dimensions at five levels of the third, so level `l`
    /// has exactly `2 l` dominators.
    fn duplicates() -> Dataset {
        let rows: Vec<Vec<f32>> = (0..80)
            .map(|i| i % 40)
            .map(|i| vec![(i % 8) as f32, (7 - i % 8) as f32, (i / 8) as f32])
            .collect();
        Dataset::from_rows(&rows).unwrap()
    }

    /// 64 rows (eight tiles) with one exact coordinate sum: a single
    /// equal-sum run spans the whole candidate tile, and every row
    /// appears twice.
    fn all_ties() -> Dataset {
        let rows: Vec<Vec<f32>> = (0..64)
            .map(|i| i % 32)
            .map(|j| vec![j as f32, (31 - j) as f32])
            .collect();
        Dataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn merge_matches_naive_across_partitioners() {
        let mut pins = SKYLINE_PINS.iter();
        let mut same_work = |stats: MergeStats| assert_eq!(stats, pinned(*pins.next().unwrap()));
        for kind in PartitionerKind::ALL {
            for k in [2usize, 4] {
                let anti = gen(Distribution::Anticorrelated, 600, 4, 42);
                same_work(check(&anti, 1, k, kind, 0));
                let ind = gen(Distribution::Independent, 600, 3, 42);
                same_work(check(&ind, 1, k, kind, 0b101));
                let corr = gen(Distribution::Correlated, 400, 2, 42);
                same_work(check(&corr, 1, k, kind, 0b10));
                assert_eq!(check(&duplicates(), 1, k, kind, 0).survivors, 16);
                assert_eq!(check(&all_ties(), 1, k, kind, 0).survivors, 64);
            }
        }
    }

    #[test]
    fn single_shard_passes_through() {
        let data = gen(Distribution::Independent, 300, 3, 42);
        let stats = check(&data, 1, 1, PartitionerKind::Random, 0);
        assert_eq!(stats, pinned([33, 3, 0, 33, 660]));
    }

    #[test]
    fn duplicate_rows_across_shards_all_survive() {
        // Two identical undominated rows in different shards: neither
        // strictly dominates the other, so both are global.
        let locals = vec![
            ShardLocal {
                shard: 0,
                ids: vec![0, 2],
                rows: vec![0.0, 1.0, 1.0, 0.0],
            },
            ShardLocal {
                shard: 1,
                ids: vec![5],
                rows: vec![0.0, 1.0],
            },
        ];
        let (mut got, stats) = merge_locals(2, 1, &locals);
        got.sort_unstable();
        assert_eq!(got, vec![(0, 0), (2, 0), (5, 0)]);
        assert_eq!(stats.witness_kills, 0);
        assert!((stats.witness_frac() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn cross_shard_domination_is_applied() {
        // Shard 1's sole candidate is dominated by shard 0's witness.
        let locals = vec![
            ShardLocal {
                shard: 0,
                ids: vec![1],
                rows: vec![0.0, 0.0],
            },
            ShardLocal {
                shard: 1,
                ids: vec![9],
                rows: vec![1.0, 1.0],
            },
        ];
        let (got, stats) = merge_locals(2, 1, &locals);
        assert_eq!(got, vec![(1, 0)]);
        assert_eq!(stats.witness_kills, 1, "the witness probe caught it");
        assert!(stats.witness_frac() > 0.49);
    }

    #[test]
    fn empty_input_is_empty() {
        let (got, stats) = merge_locals(3, 1, &[]);
        assert!(got.is_empty());
        assert_eq!(stats, MergeStats::default());
    }

    #[test]
    fn skyband_merge_matches_naive_across_partitioners() {
        let mut pins = BAND_PINS.iter();
        let mut same_work = |stats: MergeStats| assert_eq!(stats, pinned(*pins.next().unwrap()));
        for kind in PartitionerKind::ALL {
            for band_k in [1u32, 2, 4] {
                let anti = gen(Distribution::Anticorrelated, 500, 4, 1337);
                same_work(check(&anti, band_k, 3, kind, 0));
                let ind = gen(Distribution::Independent, 500, 3, 1337);
                same_work(check(&ind, band_k, 4, kind, 0b101));
            }
            // Levels 0 and 1 of `duplicates` have 0 and 2 dominators.
            assert_eq!(check(&duplicates(), 3, 4, kind, 0).survivors, 32);
            assert_eq!(check(&all_ties(), 3, 4, kind, 0).survivors, 64);
        }
        let corr = gen(Distribution::Correlated, 300, 2, 1337);
        same_work(check(&corr, 3, 2, PartitionerKind::Random, 0b10));
    }

    #[test]
    fn skyband_merge_k1_equals_skyline_merge() {
        // k = 1 skyband is the skyline with all counts zero, merged by
        // the boolean kernel: the pin is the skyline merge's.
        let data = gen(Distribution::Anticorrelated, 400, 3, 1337);
        let stats = check(&data, 1, 3, PartitionerKind::Grid, 0);
        assert_eq!(stats, pinned([147, 12, 1, 127, 10496]));
        let dims: Vec<usize> = (0..3).collect();
        let expect = verify::naive_skyband_on_pref(&data, &dims, 0, 1);
        assert!(expect.iter().all(|&(_, c)| c == 0));
    }

    #[test]
    fn skyband_merge_empty_and_k0() {
        let (got, stats) = merge_locals(3, 2, &[]);
        assert!(got.is_empty());
        assert_eq!(stats, MergeStats::default());
        let locals = vec![ShardLocal {
            shard: 0,
            ids: vec![1],
            rows: vec![0.5, 0.5],
        }];
        let (got, _) = merge_locals(2, 0, &locals);
        assert!(got.is_empty());
    }
}
