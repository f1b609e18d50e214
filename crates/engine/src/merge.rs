//! Witness-pruned merge of per-shard local results — one function for
//! the skyline (`k = 1`) and for any k-skyband.
//!
//! A shard's local k-skyband is a superset of its contribution to the
//! global one, and strict dominance is transitive — so a concatenation
//! of all local results contains the global answer (see
//! [`merge_locals`] for why counting dominators among it is exact below
//! `k`). The merge therefore never revisits base data: shards broadcast
//! only their local result plus a small **witness set**, and
//! elimination runs entirely over the broadcast rows.
//!
//! Cost shape, in order of application:
//!
//! 1. **Witness probe** — each shard nominates at most `d + 1`
//!    witnesses (its per-dimension minima and its minimum-sum point,
//!    the rows most likely to dominate foreign candidates). Probing a
//!    candidate against the tiny witness tile kills locally-kept but
//!    globally-dominated rows for a few tile compares: the boolean
//!    [`TileStore::any_dominates`] at `k = 1`, the capped
//!    [`TileStore::count_dominators_range`] otherwise. Every witness is
//!    a distinct live candidate, so `k` witnesses dominating a probe
//!    certify a global count of at least `k`; own-shard witnesses need
//!    no ownership bookkeeping.
//! 2. **Skyline (`k = 1`): the paper's algorithm over the union.** The
//!    probe's survivors are concatenated once into a dataset and run
//!    through SFS (up to 4 096 rows) or Hybrid@T on the engine's pool —
//!    the same cardinality rule, in one helper, that picks each shard's
//!    local algorithm. The union holds every global skyline member,
//!    and each dominated row in it has a dominator in it (the global
//!    member above it), so its skyline *is* the answer, equal rows
//!    split across shards included.
//! 3. **Skyband (`k > 1`): sorted counting scan.** The candidates are
//!    laid out in ascending folded-coordinate-sum order and each probe
//!    survivor's dominators are counted, capped at `k`, over the prefix
//!    up to (and including) its equal-sum run. A strict dominator has a
//!    strictly smaller exact sum; equal-sum rows stay in range because
//!    floating-point sums can tie where exact sums differ, and a
//!    candidate never dominates itself. This scan is single-lane,
//!    pending a capped-count Q-Flow.
//!
//! The choice between 2 and 3 is made from the query's `k`, never from
//! a setting. All rows arriving here are already preference-folded and
//! projected to the query's effective dimensions, so plain
//! [`TileStore::push`] / minimisation semantics apply throughout.
//!
//! [`TileStore::any_dominates`]: skyline_core::dominance::simd::TileStore::any_dominates
//! [`TileStore::count_dominators_range`]: skyline_core::dominance::simd::TileStore::count_dominators_range
//! [`TileStore::push`]: skyline_core::dominance::simd::TileStore::push

use skyline_core::algo::Algorithm;
use skyline_core::dominance::simd::{ColumnRange, TileStore};
use skyline_core::norms::f64_order_bits;
use skyline_core::SkylineConfig;
use skyline_data::Dataset;
use skyline_parallel::{par_sort_by_key, ThreadPool};

/// The sharded tier's skyline algorithm for `n` rows: SFS up to 4 096
/// (one sort and a filter pass beat any parallel set-up), the paper's
/// Hybrid above. Both the per-shard local step and the merge use it.
pub(crate) fn skyline_algorithm(n: usize) -> Algorithm {
    if n <= 4096 {
        Algorithm::Sfs
    } else {
        Algorithm::Hybrid
    }
}

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
    /// Dominance tests charged to the merge: the witness probe's tile
    /// compares × lanes plus the elimination step's tests.
    pub dominance_tests: u64,
    /// The algorithm the merge's tests are charged to in
    /// `dominance.tests{algo}`: SFS or Hybrid at `k = 1` (by the probe
    /// survivors' count), SFS for the counting scan at `k > 1` (as
    /// plain counting plans report it); `None` when there was nothing
    /// to merge.
    pub(crate) algorithm: Option<Algorithm>,
}

impl MergeStats {
    /// Fraction of candidates the witness probe killed before the
    /// elimination step (0 when there were no candidates).
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
/// `dims` is the folded row width, `k` the skyband depth and `pool` the
/// lanes the `k = 1` SFS/Hybrid run may use. Returns `(stable id, exact
/// global dominator count)` pairs (unsorted; every count is 0 at
/// `k = 1`) and the merge statistics.
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
/// count (both sides `< k`). At `k = 1` this says the skyline of the
/// broadcast union is the global skyline, which is what the algorithm
/// run computes.
pub fn merge_locals(
    dims: usize,
    k: u32,
    locals: &[ShardLocal],
    pool: &ThreadPool,
) -> (Vec<(u32, u32)>, MergeStats) {
    let mut stats = MergeStats::default();
    for local in locals {
        debug_assert_eq!(local.rows.len(), local.ids.len() * dims);
        stats.candidates += local.ids.len();
    }
    if stats.candidates == 0 || k == 0 {
        return (Vec::new(), stats);
    }
    let (witnesses, bounds) = witness_tile(dims, locals);
    stats.witnesses = witnesses.len();
    let out = if k == 1 {
        merge_skyline(dims, locals, &witnesses, pool, &mut stats)
    } else {
        merge_skyband(dims, k, locals, &witnesses, &bounds, pool, &mut stats)
    };
    stats.survivors = out.len();
    (out, stats)
}

/// Per shard, the per-dimension minima and the minimum-sum member of
/// its local result, in a store coded against the column range of all
/// candidates, which the minimum-sum pass takes and which is returned
/// beside it.
fn witness_tile(dims: usize, locals: &[ShardLocal]) -> (TileStore, ColumnRange) {
    let mut bounds = ColumnRange::empty(dims);
    let mut rows: Vec<&[f32]> = Vec::new();
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
            let row = &local.rows[r * dims..(r + 1) * dims];
            bounds.include(row);
            let s: f64 = row.iter().map(|&v| v as f64).sum();
            if s < best {
                best = s;
                best_sum = r;
            }
        }
        picks.push(best_sum);
        picks.sort_unstable();
        picks.dedup();
        rows.extend(picks.iter().map(|&r| &local.rows[r * dims..(r + 1) * dims]));
    }
    let mut witnesses = TileStore::with_range(&bounds, rows.len());
    for row in rows {
        witnesses.push(row);
    }
    (witnesses, bounds)
}

/// `k = 1`: the witness probe, then SFS/Hybrid on `pool` over the
/// concatenated survivors, positions mapped back to stable ids.
fn merge_skyline(
    dims: usize,
    locals: &[ShardLocal],
    witnesses: &TileStore,
    pool: &ThreadPool,
    stats: &mut MergeStats,
) -> Vec<(u32, u32)> {
    let mut dts = 0u64;
    let mut ids = Vec::with_capacity(stats.candidates);
    let mut rows = Vec::with_capacity(stats.candidates * dims);
    for local in locals {
        for (&id, q) in local.ids.iter().zip(local.rows.chunks_exact(dims)) {
            if witnesses.any_dominates(q, &mut dts) {
                stats.witness_kills += 1;
            } else {
                ids.push(id);
                rows.extend_from_slice(q);
            }
        }
    }
    // Never empty: no witness dominates a global skyline member.
    let algo = skyline_algorithm(ids.len());
    let union = Dataset::from_flat(rows, dims).expect("folded projection of a valid dataset");
    let run = algo.run(
        &union,
        pool,
        &SkylineConfig::tuned(ids.len(), pool.threads()),
    );
    stats.algorithm = Some(algo);
    stats.dominance_tests = dts + run.stats.dominance_tests;
    run.indices
        .iter()
        .map(|&pos| (ids[pos as usize], 0))
        .collect()
}

/// `k > 1`: the witness probe, then the capped counting scan over the
/// sum-sorted candidate tile.
fn merge_skyband(
    dims: usize,
    k: u32,
    locals: &[ShardLocal],
    witnesses: &TileStore,
    bounds: &ColumnRange,
    pool: &ThreadPool,
    stats: &mut MergeStats,
) -> Vec<(u32, u32)> {
    let total = stats.candidates;
    // Candidate order: ascending exact-as-f64 folded sum. Strict
    // dominators sort strictly before their victims except for
    // floating-point sum ties, which the inclusive tie-run bound below
    // covers.
    let mut order: Vec<(f64, u32, u32)> = Vec::with_capacity(total); // (sum, local, row)
    for (li, local) in locals.iter().enumerate() {
        for r in 0..local.ids.len() {
            let row = &local.rows[r * dims..(r + 1) * dims];
            let sum: f64 = row.iter().map(|&v| v as f64).sum();
            order.push((sum, li as u32, r as u32));
        }
    }
    // Stable: equal sums keep (local, row) order.
    par_sort_by_key(pool, &mut order, |&(sum, _, _)| f64_order_bits(sum));

    let row_of = |li: u32, r: u32| -> &[f32] {
        let base = r as usize * dims;
        &locals[li as usize].rows[base..base + dims]
    };

    let mut tile = TileStore::with_range(bounds, total);
    for &(_, li, r) in &order {
        tile.push(row_of(li, r));
    }
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
            if witnesses.count_dominators_range(0, wn, q, k, &mut dts) >= k {
                stats.witness_kills += 1;
                continue;
            }
            let count = tile.count_dominators_range(0, run_end, q, k, &mut dts);
            if count < k {
                out.push((locals[li as usize].ids[r as usize], count));
            }
        }
        i = run_end;
    }
    stats.dominance_tests = dts;
    stats.algorithm = Some(Algorithm::Sfs);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_core::dominance::simd::flip_pref;
    use skyline_core::verify;
    use skyline_data::{generate, Distribution, PartitionerKind, ShardedStore};

    fn gen(dist: Distribution, n: usize, d: usize, seed: u64) -> Dataset {
        generate(dist, n, d, seed, &ThreadPool::new(1))
    }

    /// `[candidates, witnesses, witness_kills, survivors,
    /// dominance_tests]`.
    fn columns(s: &MergeStats) -> [u64; 5] {
        [
            s.candidates as u64,
            s.witnesses as u64,
            s.witness_kills as u64,
            s.survivors as u64,
            s.dominance_tests,
        ]
    }

    /// Skyline merges at T = 1 on these seeds: candidates, witnesses,
    /// witness kills and survivors, then the probe's tests plus SFS's
    /// over the probe's survivors.
    const SKYLINE_PINS: [[u64; 5]; 18] = [
        [388, 10, 10, 342, 64179], // Random shards=2 band_k=1 n=600 d=4 mask=0
        [42, 8, 10, 27, 742],      // Random shards=2 band_k=1 n=600 d=3 mask=101
        [6, 4, 1, 5, 34],          // Random shards=2 band_k=1 n=400 d=2 mask=10
        [455, 20, 24, 342, 71335], // Random shards=4 band_k=1 n=600 d=4 mask=0
        [68, 15, 35, 27, 1210],    // Random shards=4 band_k=1 n=600 d=3 mask=101
        [9, 8, 4, 5, 82],          // Random shards=4 band_k=1 n=400 d=2 mask=10
        [361, 10, 1, 342, 62175],  // Grid shards=2 band_k=1 n=600 d=4 mask=0
        [45, 8, 16, 27, 727],      // Grid shards=2 band_k=1 n=600 d=3 mask=101
        [10, 5, 5, 5, 60],         // Grid shards=2 band_k=1 n=400 d=2 mask=10
        [377, 20, 7, 342, 66623],  // Grid shards=4 band_k=1 n=600 d=4 mask=0
        [66, 15, 35, 27, 1212],    // Grid shards=4 band_k=1 n=600 d=3 mask=101
        [25, 11, 20, 5, 225],      // Grid shards=4 band_k=1 n=400 d=2 mask=10
        [348, 9, 4, 342, 61615],   // Angular shards=2 band_k=1 n=600 d=4 mask=0
        [31, 7, 4, 27, 568],       // Angular shards=2 band_k=1 n=600 d=3 mask=101
        [26, 5, 21, 5, 140],       // Angular shards=2 band_k=1 n=400 d=2 mask=10
        [359, 13, 7, 342, 63411],  // Angular shards=4 band_k=1 n=600 d=4 mask=0
        [45, 13, 14, 27, 923],     // Angular shards=4 band_k=1 n=600 d=3 mask=101
        [42, 11, 37, 5, 361],      // Angular shards=4 band_k=1 n=400 d=2 mask=10
    ];

    /// Skyband merges on these seeds. At `band_k > 1` all five columns
    /// are the counting scan's work. At `band_k = 1` the merge is SFS
    /// over the probe's survivors, not the counting scan, so only the
    /// first four columns are compared there.
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
    /// `band_k`-skyband by brute force, merge at T = 1 and at T = 2,
    /// and compare both against the global naive skyband with exact
    /// counts. Returns the T = 1 statistics.
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
        let expect = verify::naive_skyband_on_pref(data, &dims, max_mask, band_k);
        let what = format!("band_k={band_k} shards={shards} {kind:?} mask={max_mask:b}");
        let [one, two] = [1, 2].map(|threads| {
            let (mut got, stats) = merge_locals(d, band_k, &locals, &ThreadPool::new(threads));
            got.sort_unstable();
            assert_eq!(got, expect, "{what} T={threads}");
            stats
        });
        assert_eq!(one.survivors, expect.len());
        assert!(one.witnesses <= (d + 1) * store.k());
        assert_eq!(
            one.candidates,
            locals.iter().map(|l| l.ids.len()).sum::<usize>()
        );
        // Two lanes do the same probe work; only an elimination run by
        // Hybrid may count its tests differently.
        assert_eq!(columns(&one)[..4], columns(&two)[..4], "{what}");
        assert_eq!(one.algorithm, two.algorithm, "{what}");
        one
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
        let mut same_work = |stats: MergeStats| {
            assert_eq!(columns(&stats), *pins.next().unwrap());
            assert_eq!(stats.algorithm, Some(Algorithm::Sfs));
        };
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

    /// A union above 4 096 rows runs Hybrid on the pool: the same
    /// answer as SFS over the whole input, at one lane and at two.
    #[test]
    fn large_union_runs_hybrid() {
        let data = gen(Distribution::Anticorrelated, 12_000, 6, 7);
        let d = data.dims();
        let store = ShardedStore::build(&data, 2, PartitionerKind::Random);
        let mut buckets: Vec<(Vec<u32>, Vec<f32>)> = vec![Default::default(); store.k()];
        for (i, row) in data.rows().enumerate() {
            let (ids, rows) = &mut buckets[store.shard_of(i as u32, row)];
            ids.push(i as u32);
            rows.extend_from_slice(row);
        }
        let one = ThreadPool::new(1);
        let cfg = SkylineConfig::default();
        let locals: Vec<ShardLocal> = buckets
            .into_iter()
            .enumerate()
            .map(|(shard, (ids, rows))| {
                let shard_data = Dataset::from_flat(rows, d).unwrap();
                let members = Algorithm::Sfs.run(&shard_data, &one, &cfg).indices;
                ShardLocal {
                    shard,
                    ids: members.iter().map(|&p| ids[p as usize]).collect(),
                    rows: members
                        .iter()
                        .flat_map(|&p| shard_data.row(p as usize).iter().copied())
                        .collect(),
                }
            })
            .collect();
        let mut expect = Algorithm::Sfs.run(&data, &one, &cfg).indices;
        expect.sort_unstable();
        for threads in [1, 2] {
            let (got, stats) = merge_locals(d, 1, &locals, &ThreadPool::new(threads));
            assert_eq!(stats.algorithm, Some(Algorithm::Hybrid), "T={threads}");
            let mut got: Vec<u32> = got.into_iter().map(|(id, _)| id).collect();
            got.sort_unstable();
            assert_eq!(got, expect, "T={threads}");
            assert_eq!(stats.survivors, expect.len());
        }
    }

    #[test]
    fn single_shard_passes_through() {
        let data = gen(Distribution::Independent, 300, 3, 42);
        let stats = check(&data, 1, 1, PartitionerKind::Random, 0);
        assert_eq!(columns(&stats), [33, 3, 0, 33, 627]);
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
        let (mut got, stats) = merge_locals(2, 1, &locals, &ThreadPool::new(1));
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
        let (got, stats) = merge_locals(2, 1, &locals, &ThreadPool::new(1));
        assert_eq!(got, vec![(1, 0)]);
        assert_eq!(stats.witness_kills, 1, "the witness probe caught it");
        assert!(stats.witness_frac() > 0.49);
    }

    #[test]
    fn empty_input_is_empty() {
        let (got, stats) = merge_locals(3, 1, &[], &ThreadPool::new(1));
        assert!(got.is_empty());
        assert_eq!(stats, MergeStats::default());
    }

    #[test]
    fn skyband_merge_matches_naive_across_partitioners() {
        let mut pins = BAND_PINS.iter();
        let mut same_work = |stats: MergeStats, band_k: u32| {
            let pin = pins.next().unwrap();
            let compared = if band_k == 1 { 4 } else { 5 };
            assert_eq!(columns(&stats)[..compared], pin[..compared]);
        };
        for kind in PartitionerKind::ALL {
            for band_k in [1u32, 2, 4] {
                let anti = gen(Distribution::Anticorrelated, 500, 4, 1337);
                same_work(check(&anti, band_k, 3, kind, 0), band_k);
                let ind = gen(Distribution::Independent, 500, 3, 1337);
                same_work(check(&ind, band_k, 4, kind, 0b101), band_k);
            }
            // Levels 0 and 1 of `duplicates` have 0 and 2 dominators.
            assert_eq!(check(&duplicates(), 3, 4, kind, 0).survivors, 32);
            assert_eq!(check(&all_ties(), 3, 4, kind, 0).survivors, 64);
        }
        let corr = gen(Distribution::Correlated, 300, 2, 1337);
        same_work(check(&corr, 3, 2, PartitionerKind::Random, 0b10), 3);
    }

    #[test]
    fn skyband_merge_k1_equals_skyline_merge() {
        // k = 1 skyband is the skyline with all counts zero, merged by
        // SFS over the probe's survivors: the pin is the skyline merge's.
        let data = gen(Distribution::Anticorrelated, 400, 3, 1337);
        let stats = check(&data, 1, 3, PartitionerKind::Grid, 0);
        assert_eq!(columns(&stats), [147, 12, 1, 127, 10137]);
        let dims: Vec<usize> = (0..3).collect();
        let expect = verify::naive_skyband_on_pref(&data, &dims, 0, 1);
        assert!(expect.iter().all(|&(_, c)| c == 0));
    }

    #[test]
    fn skyband_merge_empty_and_k0() {
        let pool = ThreadPool::new(1);
        let (got, stats) = merge_locals(3, 2, &[], &pool);
        assert!(got.is_empty());
        assert_eq!(stats, MergeStats::default());
        let locals = vec![ShardLocal {
            shard: 0,
            ids: vec![1],
            rows: vec![0.5, 0.5],
        }];
        let (got, _) = merge_locals(2, 0, &locals, &pool);
        assert!(got.is_empty());
    }
}
