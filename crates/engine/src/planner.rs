//! The query planner.
//!
//! Chooses how to answer a subspace skyline query from the shape of the
//! work alone: live cardinality, the dimensions that can decide a
//! dominance test, and the thread budget. Nothing is sampled, no
//! runtime model is kept, and the cache is never consulted (results
//! carried across a write are patched forward by the engine when the
//! batch lands, so a miss always computes from scratch). The paper
//! finds Hybrid the fastest of its algorithms on every distribution,
//! so the only size rule left is the one below which a plain
//! sort-and-filter pass beats Hybrid's set-up.
//!
//! The decision procedure, in order:
//!
//! 1. constant dimensions (catalog min == max) are dropped — they can
//!    never decide a dominance test; none left → **trivial**;
//! 2. one surviving dimension → **min-scan**: one pass over the live
//!    rows collecting those that attain the catalog's exact running
//!    min (or max) on it, no algorithm and no index at all;
//! 3. `n ≤ small_n` → **SFS** (one sort, then a cheap filter pass);
//! 4. a dataset registered with a partitioner attached, at or above
//!    the `sharded_min_n` threshold → **sharded fan-out** (per-shard
//!    skylines over cache-resident working sets, then a witness probe
//!    and SFS/Hybrid@T over the union of the local skylines);
//! 5. otherwise **Hybrid** on every lane, with α tuned to `n` and the
//!    thread count via [`SkylineConfig::tuned`].

use skyline_core::algo::Algorithm;
use skyline_core::SkylineConfig;
use skyline_data::PartitionerKind;

use crate::catalog::DatasetEntry;
use crate::query::QueryKind;

/// How a query will be (or was) answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Strategy {
    /// Served from the result cache; nothing was recomputed.
    Cached,
    /// Empty dataset or no discriminating dimensions: the answer is
    /// definitional (every live row, or none).
    Trivial,
    /// One effective dimension: one pass over the live rows, keeping
    /// those whose value equals the catalog's exact running min (max
    /// for a maximised dimension).
    MinScan {
        /// The scanned dimension.
        dim: usize,
    },
    /// Run a skyline algorithm over the (projected) data.
    Algorithm(Algorithm),
    /// Route the live rows through the dataset's attached
    /// [`ShardedStore`](skyline_data::ShardedStore) partitioner, fan
    /// the per-shard local results out, then merge them: a witness-point
    /// probe, then SFS or Hybrid@T over the probe's survivors for a
    /// skyline, the sum-sorted counting scan for a k-skyband.
    Sharded {
        /// Number of shards the partitioner routes to.
        k: usize,
        /// The partitioning family the partitioner belongs to.
        partitioner: PartitionerKind,
    },
}

impl Strategy {
    /// Stable short name, as traces and the slow-query log report it:
    /// the algorithm's [`name`](Algorithm::name) for algorithm plans.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Cached => "cache",
            Strategy::Trivial => "trivial",
            Strategy::MinScan { .. } => "min-scan",
            Strategy::Sharded { .. } => "sharded",
            Strategy::Algorithm(a) => a.name(),
        }
    }
}

/// The planner's full decision for one query.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// How the query is answered.
    pub strategy: Strategy,
    /// Thread lanes the execution may use.
    pub threads: usize,
    /// Algorithm tuning (α etc.) for `Strategy::Algorithm` plans.
    pub config: SkylineConfig,
    /// The dimensions that actually participate after dropping
    /// constant ones (ascending, full-space indices).
    pub effective_dims: Vec<usize>,
    /// One-line human-readable justification.
    pub reason: &'static str,
}

impl QueryPlan {
    fn new(
        strategy: Strategy,
        threads: usize,
        config: SkylineConfig,
        effective_dims: Vec<usize>,
        reason: &'static str,
    ) -> Self {
        QueryPlan {
            strategy,
            threads,
            config,
            effective_dims,
            reason,
        }
    }

    /// A single-lane plan with default tuning.
    fn sequential(strategy: Strategy, effective_dims: Vec<usize>, reason: &'static str) -> Self {
        Self::new(
            strategy,
            1,
            SkylineConfig::default(),
            effective_dims,
            reason,
        )
    }

    pub(crate) fn trivial(reason: &'static str) -> Self {
        Self::sequential(Strategy::Trivial, Vec::new(), reason)
    }

    pub(crate) fn cached(mut self) -> Self {
        self.strategy = Strategy::Cached;
        self.reason = "result cache hit";
        self
    }
}

/// The [`Strategy::Sharded`] plan for `entry`, taken whenever a
/// partitioner over more than one shard is attached and the live
/// cardinality reaches [`PlannerConfig::sharded_min_n`]; `None`
/// otherwise.
fn sharded_plan(
    cfg: &PlannerConfig,
    entry: &DatasetEntry,
    effective: &[usize],
    threads: usize,
    reason: &'static str,
) -> Option<QueryPlan> {
    let n = entry.live_len();
    let store = entry.sharded().filter(|s| s.k() > 1)?;
    if n < cfg.sharded_min_n {
        return None;
    }
    let k = store.k();
    Some(QueryPlan::new(
        Strategy::Sharded {
            k,
            partitioner: store.partitioner_kind(),
        },
        threads,
        SkylineConfig::tuned(n / k, 1),
        effective.to_vec(),
        reason,
    ))
}

/// Thresholds steering the planner. The defaults fall out of the
/// paper's evaluation plus the constant factors of this codebase.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerConfig {
    /// At or below this cardinality SFS runs on one lane; above it
    /// Hybrid runs on every lane.
    pub small_n: usize,
    /// Smallest live cardinality at which an attached sharded store is
    /// used: below it, per-shard fan-out and merge overhead cannot pay
    /// for themselves against a single scan.
    pub sharded_min_n: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            small_n: 8_192,
            // Below ~64k rows a single scan already fits in cache;
            // above it, per-shard working sets shrinking back under
            // the cache is exactly the sharded tier's win.
            sharded_min_n: 65_536,
        }
    }
}

/// The planner: stateless decision rules over a fixed
/// [`PlannerConfig`]. Safe to share across threads.
#[derive(Debug, Clone, Default)]
pub struct Planner {
    cfg: PlannerConfig,
}

impl Planner {
    /// A planner with the given thresholds.
    pub fn new(cfg: PlannerConfig) -> Self {
        Self { cfg }
    }

    /// The planner's thresholds.
    pub fn config(&self) -> &PlannerConfig {
        &self.cfg
    }

    /// Plans a query of `kind` over `entry` restricted to the canonical
    /// (sorted, deduplicated) `dims`, with `threads` lanes available.
    /// Preferences never change the plan (negation preserves every
    /// property the rules read), so they are not an input.
    ///
    /// Skyline queries take the tiered decision of the module docs.
    ///
    /// Counting kinds (k-skyband, top-k dominating) skip the min-scan
    /// shortcut: the rows at a dimension's extreme are its skyline but
    /// say nothing about dominator counts.
    ///
    /// - **k-skyband** fans out over an attached sharded store when
    ///   the input is large enough (per-shard local skybands, counting
    ///   merge with exact carry-over); otherwise it runs the
    ///   sum-sorted counting kernel, which is SFS-shaped, so the plan
    ///   reports [`Algorithm::Sfs`].
    /// - **top-k dominating** always runs the counting kernel over the
    ///   whole input: dominated-counts add across shards, so a
    ///   local-merge decomposition cannot bound them and sharding is
    ///   never sound for this kind.
    pub fn plan_kind(
        &self,
        entry: &DatasetEntry,
        dims: &[usize],
        threads: usize,
        kind: QueryKind,
    ) -> QueryPlan {
        let cfg = &self.cfg;
        let n = entry.live_len();
        if n == 0 {
            return QueryPlan::trivial("empty dataset");
        }
        if kind.k() == 0 {
            return QueryPlan::trivial("k = 0: the answer is empty by definition");
        }

        // 1. Constant dimensions never decide a dominance test.
        let stats = entry.stats();
        let effective: Vec<usize> = dims
            .iter()
            .copied()
            .filter(|&c| !stats.per_dim[c].is_constant())
            .collect();
        if effective.is_empty() {
            return QueryPlan::trivial("all selected dimensions are constant");
        }
        let threads = threads.max(1);

        if !kind.is_skyline() {
            if let QueryKind::Skyband { .. } = kind {
                if let Some(plan) = sharded_plan(
                    cfg,
                    entry,
                    &effective,
                    threads,
                    "partitioner attached: per-shard local skybands, counting merge",
                ) {
                    return plan;
                }
            }
            let reason = match kind {
                QueryKind::Skyband { .. } => "k-skyband: sum-sorted counting scan",
                _ => "top-k dominating: counting kernel over the negated input",
            };
            return QueryPlan::sequential(Strategy::Algorithm(Algorithm::Sfs), effective, reason);
        }

        // 2. One effective dimension: the skyline is the set of rows
        //    attaining the running extreme the catalog already holds.
        if effective.len() == 1 {
            return QueryPlan::sequential(
                Strategy::MinScan { dim: effective[0] },
                effective,
                "one effective dimension: one pass for the rows at its running extreme",
            );
        }

        // 3. Small inputs: one sort and a filter pass beat Hybrid's
        //    pre-filter and partition set-up.
        if n <= cfg.small_n {
            return QueryPlan::sequential(
                Strategy::Algorithm(Algorithm::Sfs),
                effective,
                "small input: sort-filter-skyline, no parallel setup",
            );
        }
        // 4. An attached partitioner on a large input: per-shard scans
        //    over cache-resident working sets, then a witness probe and
        //    SFS/Hybrid over the union of local skylines.
        if let Some(plan) = sharded_plan(
            cfg,
            entry,
            &effective,
            threads,
            "partitioner attached: cache-resident per-shard scans, witness-pruned merge",
        ) {
            return plan;
        }
        // 5. Everything else: Hybrid on every lane.
        QueryPlan::new(
            Strategy::Algorithm(Algorithm::Hybrid),
            threads,
            SkylineConfig::tuned(n, threads),
            effective,
            "above small_n: Hybrid on every lane",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use skyline_data::{generate, Dataset, Distribution};
    use skyline_parallel::ThreadPool;

    fn entry_of(data: Dataset) -> std::sync::Arc<DatasetEntry> {
        Catalog::new().register("t", data)
    }

    fn plan_skyline(planner: &Planner, e: &DatasetEntry, dims: &[usize]) -> QueryPlan {
        planner.plan_kind(e, dims, 4, QueryKind::Skyline)
    }

    const DISTRIBUTIONS: [Distribution; 3] = [
        Distribution::Independent,
        Distribution::Correlated,
        Distribution::Anticorrelated,
    ];

    /// Plans the full-width skyline of `dist` at `n` × `d` for each
    /// thread count and checks the size rule's side for `n`: SFS on
    /// one lane at or below `small_n`, Hybrid on every lane with
    /// `SkylineConfig::tuned(n, T)`'s α above it.
    fn assert_size_rule(n: usize, widths: &[usize], threads: &[usize]) {
        let planner = Planner::default();
        let pool = ThreadPool::new(2);
        for dist in DISTRIBUTIONS {
            for &d in widths {
                let dims: Vec<usize> = (0..d).collect();
                let e = entry_of(generate(dist, n, d, 7, &pool));
                for &t in threads {
                    let case = format!("{dist:?} n={n} d={d} T={t}");
                    let plan = planner.plan_kind(&e, &dims, t, QueryKind::Skyline);
                    assert_eq!(plan.effective_dims, dims, "{case}");
                    if n <= planner.config().small_n {
                        assert_eq!(plan.strategy, Strategy::Algorithm(Algorithm::Sfs), "{case}");
                        assert_eq!(plan.threads, 1, "{case}");
                    } else {
                        let tuned = SkylineConfig::tuned(n, t);
                        assert_eq!(
                            plan.strategy,
                            Strategy::Algorithm(Algorithm::Hybrid),
                            "{case}"
                        );
                        assert_eq!(plan.threads, t, "{case}");
                        assert_eq!(plan.config.alpha_hybrid, tuned.alpha_hybrid, "{case}");
                        assert_eq!(plan.reason, "above small_n: Hybrid on every lane");
                    }
                }
            }
        }
    }

    /// There is no BNL tier: a few hundred rows and `small_n` rows
    /// both run SFS on one lane, at every width and thread count.
    #[test]
    fn tiny_goes_bnl_small_goes_sfs() {
        let small_n = Planner::default().config().small_n;
        for n in [300, small_n] {
            assert_size_rule(n, &[2, 4, 10], &[1, 2, 4]);
        }
    }

    /// There is no one-thread BSkyTree rule: at T = 1 the rows above
    /// `small_n` run Hybrid on its one lane.
    #[test]
    fn single_thread_prefers_bskytree() {
        let small_n = Planner::default().config().small_n;
        assert_size_rule(small_n + 1, &[2, 4, 10], &[1]);
    }

    /// There is no density split: correlated data (tiny skyline) and
    /// anticorrelated data (huge skyline) above `small_n` both run
    /// Hybrid on every lane, as independent data does.
    #[test]
    fn density_splits_qflow_and_hybrid() {
        let small_n = Planner::default().config().small_n;
        assert_size_rule(small_n + 1, &[2, 4], &[2, 4]);
    }

    /// There is no width threshold: d = 10 above `small_n` runs Hybrid
    /// on every lane like every narrower shape.
    #[test]
    fn high_d_forces_hybrid() {
        let small_n = Planner::default().config().small_n;
        assert_size_rule(small_n + 1, &[10], &[2, 4]);
    }

    #[test]
    fn constant_dims_are_dropped() {
        let mut rows = Vec::new();
        for i in 0..1_000 {
            rows.push(vec![5.0, i as f32, (1_000 - i) as f32]);
        }
        let e = entry_of(Dataset::from_rows(&rows).unwrap());
        let planner = Planner::default();
        // Dim 0 is constant: a {0,1} query degenerates to a 1-d scan.
        let plan = plan_skyline(&planner, &e, &[0, 1]);
        assert_eq!(plan.strategy, Strategy::MinScan { dim: 1 });
        // All-constant selection is trivial.
        let plan = plan_skyline(&planner, &e, &[0]);
        assert_eq!(plan.strategy, Strategy::Trivial);
        // Dims 1+2 survive.
        let plan = plan_skyline(&planner, &e, &[0, 1, 2]);
        assert_eq!(plan.effective_dims, vec![1, 2]);
    }

    #[test]
    fn attached_partitioner_takes_the_sharded_tier() {
        // An anticorrelated 100 000 × 6 entry over four Grid shards
        // plans sharded at every thread count, with α tuned to one
        // shard's share on one lane.
        let pool = ThreadPool::new(2);
        let data = generate(Distribution::Anticorrelated, 100_000, 6, 7, &pool);
        let e = Catalog::new().register_sharded("t", data, 4, PartitionerKind::Grid);
        for threads in [1, 2, 4] {
            let plan =
                Planner::default().plan_kind(&e, &[0, 1, 2, 3, 4, 5], threads, QueryKind::Skyline);
            assert_eq!(
                plan.strategy,
                Strategy::Sharded {
                    k: 4,
                    partitioner: PartitionerKind::Grid
                }
            );
            assert_eq!(plan.threads, threads);
            assert_eq!(
                plan.config.alpha_hybrid,
                SkylineConfig::tuned(25_000, 1).alpha_hybrid
            );
        }
    }

    #[test]
    fn counting_kinds_skip_structural_shortcuts() {
        let planner = Planner::default();
        let pool = ThreadPool::new(2);
        let e = entry_of(generate(Distribution::Independent, 20_000, 4, 7, &pool));
        for kind in [
            QueryKind::Skyband { k: 3 },
            QueryKind::TopKDominating { k: 5 },
        ] {
            let plan = planner.plan_kind(&e, &[0, 1, 2, 3], 4, kind);
            assert_eq!(
                plan.strategy,
                Strategy::Algorithm(Algorithm::Sfs),
                "{kind:?}"
            );
        }
        // k = 0 is definitionally empty.
        let plan = planner.plan_kind(&e, &[0, 1, 2, 3], 4, QueryKind::Skyband { k: 0 });
        assert_eq!(plan.strategy, Strategy::Trivial);
        // A one-dimensional counting query still counts: no min-scan,
        // where the skyline kind takes it.
        let kind = QueryKind::Skyband { k: 2 };
        let plan = planner.plan_kind(&e, &[2], 4, kind);
        assert_eq!(plan.strategy, Strategy::Algorithm(Algorithm::Sfs));
        let plan = plan_skyline(&planner, &e, &[2]);
        assert_eq!(plan.strategy, Strategy::MinScan { dim: 2 });
    }
}
