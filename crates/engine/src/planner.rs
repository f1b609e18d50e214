//! The adaptive query planner.
//!
//! Chooses how to answer a subspace skyline query from the shape of the
//! work: cardinality, subspace dimensionality, thread budget, and an
//! estimated skyline density obtained by running the naive skyline over
//! the catalog's precomputed sample (restricted to the query's
//! dimensions via the subspace dominance kernels — no projection is
//! materialised to plan).
//!
//! The decision procedure, in order:
//!
//! 1. constant dimensions (catalog min == max) are dropped — they can
//!    never decide a dominance test;
//! 2. one surviving dimension → **min-scan**: one pass over the live
//!    rows collecting those that attain the catalog's exact running
//!    min (or max) on it, no algorithm and no index at all;
//! 3. a prior-version cached result reachable through a small mutation
//!    delta → **delta maintenance** (patch the cached skyline with the
//!    `skyline_core::maintain` kernels instead of recomputing);
//! 4. tiny inputs → **BNL** (any setup cost dwarfs the scan);
//! 5. small inputs → **SFS** (one sort, then a cheap filter pass);
//! 6. a dataset registered with a partitioner attached, at or above
//!    the `sharded_min_n` threshold → **sharded fan-out** (per-shard
//!    skylines over cache-resident working sets, then a witness probe
//!    and SFS/Hybrid@T over the union of the local skylines), priced
//!    from an even split for the cost sheet;
//! 7. one thread → **BSkyTree** (the paper's best sequential
//!    algorithm);
//! 8. otherwise **Q-Flow** when the sampled skyline density is low (the
//!    shared global skyline stays small, so its block flow is all
//!    overhead saved) and **Hybrid** when it is high or the subspace is
//!    high-dimensional (point-based partitioning and the two-level
//!    `M(S)` structure pay for themselves), with α tuned to `n` and the
//!    thread count via [`SkylineConfig::tuned`] unless the live
//!    [`PlannerConfig`] carries fitted overrides.
//!
//! Every decision path estimates the sampled skyline fraction (the
//! sample is precomputed and capped, so the estimate is microseconds)
//! and reports it in the plan — the [feedback loop](feedback) buckets
//! observed runtimes by that fraction, so even min-scan, tiny-input,
//! and delta plans must carry the feature.
//!
//! ## Live thresholds
//!
//! The planner's thresholds are not fixed: [`Planner::install`] swaps
//! in a replacement [`PlannerConfig`] atomically (each planning pass
//! takes one consistent snapshot up front, so in-flight decisions never
//! see a half-updated config). The [`feedback`] module re-fits the
//! config from observed runtimes; its hysteresis band ensures a
//! threshold only moves when the observed advantage is decisive, so
//! plan choices do not thrash between near-equal strategies.

pub mod feedback;

use std::sync::{Arc, RwLock};

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
    /// Patch a prior-version cached result forward through the
    /// dataset's mutation delta instead of recomputing.
    Delta {
        /// The version whose cached result seeds the patch.
        from_version: u64,
    },
    /// Run a skyline algorithm over the (projected) data.
    Algorithm(Algorithm),
    /// Route the live rows through the dataset's attached
    /// [`ShardedStore`](skyline_data::ShardedStore) partitioner, fan
    /// the per-shard local results out, then merge them: a witness-point
    /// probe, then SFS or Hybrid@T over the probe's survivors for a
    /// skyline, the sum-sorted counting scan for a k-skyband. Never
    /// carries a [`SuperspaceSeed`]: the scatter routes every live row.
    Sharded {
        /// Number of shards the partitioner routes to.
        k: usize,
        /// The partitioning family the partitioner belongs to.
        partitioner: PartitionerKind,
    },
}

impl Strategy {
    /// The algorithm this strategy runs, if any.
    pub fn algorithm(&self) -> Option<Algorithm> {
        match self {
            Strategy::Algorithm(a) => Some(*a),
            _ => None,
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
    /// constant ones (ascending, full-space indices). Delta plans keep
    /// every requested dimension: the prior result they patch was
    /// defined over all of them, and a once-constant dimension may
    /// have grown discriminating since.
    pub effective_dims: Vec<usize>,
    /// Skyline fraction observed on the catalog's sample (0..=1);
    /// `None` only when there was nothing to sample (trivial plans).
    pub sample_skyline_frac: Option<f32>,
    /// One-line human-readable justification.
    pub reason: &'static str,
    /// Every strategy the final cost comparison considered, with its
    /// estimated cost, the chosen one flagged. Empty for plans decided
    /// by an earlier structural rule (trivial, min-scan, delta, the
    /// sequential size tiers), where no cost comparison happens.
    pub candidates: Vec<PlanCandidate>,
    /// A cached **subspace** skyline usable as a pruning window for
    /// this (superspace) query: any live row strictly dominated on the
    /// query's dimensions by a member of that cached skyline cannot be
    /// in the answer and is dropped before the scan. `None` when no
    /// compatible entry was cached or the strategy does not scan.
    pub superspace_seed: Option<SuperspaceSeed>,
}

/// One strategy considered by the planner's final cost comparison,
/// surfaced in [`QueryTrace`](crate::QueryTrace) so `explain`-style
/// output can show what was rejected and at what estimated price.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCandidate {
    /// The candidate's stable strategy name (an
    /// [`Algorithm::name`](skyline_core::algo::Algorithm::name)).
    pub strategy: &'static str,
    /// Coarse estimated cost in dominance-test units. Comparable only
    /// within one plan's candidate list; informational — the decision
    /// itself is made by the planner's (feedback-refitted) rules.
    pub estimated_cost: f64,
    /// Whether this candidate became the plan.
    pub chosen: bool,
}

/// The coarse candidate cost sheet for a parallel-tier decision.
///
/// Estimates are in dominance-test units with `s = frac·n` as the
/// expected skyline size: BNL pays the full `n·s` window scan, SFS
/// halves it by sort order, BSkyTree prunes to a log factor, Q-Flow
/// divides the scan across threads plus per-block overhead, and Hybrid
/// additionally cuts comparisons by partitioning at a β-queue
/// pre-filter price.
fn candidate_costs(
    n: usize,
    frac: f32,
    threads: usize,
    chosen: &'static str,
    sharded: Option<f64>,
) -> Vec<PlanCandidate> {
    let n = n as f64;
    let t = threads.max(1) as f64;
    let s = (frac as f64 * n).max(1.0);
    let sheet = [
        ("bnl", n * s),
        ("sfs", 0.5 * n * s),
        ("bskytree", n * (s + 2.0).log2()),
        ("qflow", 0.5 * n * s / t + n),
        ("hybrid", hybrid_cost(n, s, t)),
    ];
    sheet
        .into_iter()
        .map(|(strategy, estimated_cost)| PlanCandidate {
            strategy,
            estimated_cost,
            chosen: strategy == chosen,
        })
        .chain(sharded.map(|estimated_cost| PlanCandidate {
            strategy: "sharded",
            estimated_cost,
            chosen: chosen == "sharded",
        }))
        .collect()
}

/// The sheet's Hybrid price over `n` rows with an expected skyline of
/// `s` on `t` threads: a quarter of the window pairs (partitioning cuts
/// comparisons) split across threads, plus a per-row β-queue
/// pre-filter price.
fn hybrid_cost(n: f64, s: f64, t: f64) -> f64 {
    0.25 * n * s / t + 8.0 * n
}

/// Coarse cost of the sharded plan over `k` shards of an even `n / k`
/// split (the shards are formed per query, so no per-shard counts are
/// stored): each shard pays a hybrid-style window scan over its own
/// rows (quadratic in the shard, which is where splitting wins), the
/// scatter pays one pass over `n`, and the merge pays Hybrid over the
/// `c` concatenated local skyline rows — the sheet's `"hybrid"` terms
/// with the sampled skyline share of `c` as its skyline.
fn sharded_cost(n: usize, k: usize, frac: f32, threads: usize) -> f64 {
    let t = threads.max(1) as f64;
    let f = frac as f64;
    let (n, k) = (n as f64, k as f64);
    let shard = n / k;
    let local = k * 0.25 * shard * (f * shard).max(1.0) / t;
    let c = k * (f * shard).max(1.0);
    local + n + hybrid_cost(c, (f * c).max(1.0), t)
}

/// The [`Strategy::Sharded`] plan for `entry`, taken whenever a
/// partitioner over more than one shard is attached and the live
/// cardinality reaches [`PlannerConfig::sharded_min_n`]; `None`
/// otherwise. The sheet's "sharded" row prices it from an even split —
/// the quadratic window term dividing across shards is what it models.
fn sharded_plan(
    cfg: &PlannerConfig,
    entry: &DatasetEntry,
    effective: &[usize],
    frac: f32,
    threads: usize,
    reason: &'static str,
) -> Option<QueryPlan> {
    let n = entry.live_len();
    let store = entry.sharded().filter(|s| s.k() > 1)?;
    if n < cfg.sharded_min_n {
        return None;
    }
    let k = store.k();
    let mut config = SkylineConfig::tuned(n / k, 1);
    if let Some(a) = cfg.alpha_qflow {
        config.alpha_qflow = a;
    }
    if let Some(a) = cfg.alpha_hybrid {
        config.alpha_hybrid = a;
    }
    let cost = sharded_cost(n, k, frac, threads);
    Some(QueryPlan {
        strategy: Strategy::Sharded {
            k,
            partitioner: store.partitioner_kind(),
        },
        threads,
        config,
        effective_dims: effective.to_vec(),
        sample_skyline_frac: Some(frac),
        reason,
        candidates: candidate_costs(n, frac, threads, "sharded", Some(cost)),
        superspace_seed: None,
    })
}

impl QueryPlan {
    pub(crate) fn trivial(reason: &'static str) -> Self {
        QueryPlan {
            strategy: Strategy::Trivial,
            threads: 1,
            config: SkylineConfig::default(),
            effective_dims: Vec::new(),
            sample_skyline_frac: None,
            reason,
            candidates: Vec::new(),
            superspace_seed: None,
        }
    }

    pub(crate) fn cached(mut self) -> Self {
        self.strategy = Strategy::Cached;
        self.reason = "result cache hit";
        self
    }
}

/// A prior-version cached result the planner may patch forward: where
/// it lives and how big the accumulated mutation delta is.
#[derive(Debug, Clone, Copy)]
pub struct PriorResult {
    /// Version of the cached result.
    pub from_version: u64,
    /// Its skyline size (indices).
    pub len: usize,
    /// Rows inserted between that version and now (still live).
    pub inserted: usize,
    /// Rows deleted between that version and now (netted).
    pub deleted: usize,
}

/// Thresholds steering the planner. The defaults fall out of the
/// paper's evaluation plus the constant factors of this codebase; they
/// are exposed so deployments can re-tune from their own traces — or
/// let the [feedback loop](feedback) re-fit them online from observed
/// runtimes.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerConfig {
    /// At or below this cardinality, BNL wins outright.
    pub tiny_n: usize,
    /// At or below this cardinality, SFS wins over parallel set-up.
    pub small_n: usize,
    /// Subspaces at or above this dimensionality always use Hybrid
    /// when parallel (partitioning pays off regardless of density).
    pub high_d: usize,
    /// Sampled skyline fraction above which Hybrid replaces Q-Flow.
    pub dense_frac: f32,
    /// Largest mutation delta (inserts + deletes) worth patching a
    /// cached result through instead of recomputing — both at query
    /// time (`Strategy::Delta`) and when the engine patches cache
    /// entries forward eagerly after a mutation batch.
    pub delta_cap: usize,
    /// Fitted Q-Flow block size; `None` defers to
    /// [`SkylineConfig::tuned`]. Installed by the feedback loop when
    /// observed runtimes show a different α winning on this machine.
    pub alpha_qflow: Option<usize>,
    /// Fitted Hybrid block size; `None` defers to
    /// [`SkylineConfig::tuned`].
    pub alpha_hybrid: Option<usize>,
    /// Smallest live cardinality at which an attached sharded store is
    /// used: below it, per-shard fan-out and merge overhead cannot pay
    /// for themselves against a single scan.
    pub sharded_min_n: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            tiny_n: 512,
            small_n: 8_192,
            high_d: 8,
            // The sample-level fraction runs well above the full-data
            // fraction (256 points have few dominators); 0.2 splits
            // correlated workloads (~0.15 at d = 4) from independent
            // and anticorrelated ones (0.2–0.9).
            dense_frac: 0.2,
            // An insert costs O(|SKY|·d), a delete of a member one
            // filtered pass over the data; 256 keeps the worst patch
            // well under any recomputation the tiers below would pick.
            delta_cap: 256,
            alpha_qflow: None,
            alpha_hybrid: None,
            // Below ~64k rows a single scan already fits in cache;
            // above it, per-shard working sets shrinking back under
            // the cache is exactly the sharded tier's win.
            sharded_min_n: 65_536,
        }
    }
}

/// A cached **subspace** skyline offered to the planner as a pruning
/// window for a superspace query: the entry's dimension mask is a
/// proper subset of the query's, its preference mask agrees on the
/// shared dimensions, and it was computed at the query's exact dataset
/// version — so every one of its members is live, and any live row one
/// of them strictly dominates on the *query's* dimensions is provably
/// outside the answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperspaceSeed {
    /// Dimension mask of the cached subspace entry.
    pub dim_mask: u32,
    /// Number of skyline members cached under it.
    pub len: usize,
}

/// The adaptive planner: stateless decision logic over an atomically
/// swappable [`PlannerConfig`]. Safe to share across threads; each
/// planning pass snapshots the config once, so an [`install`]
/// (Planner::install) mid-flight never mixes old and new thresholds
/// within one decision.
///
/// [`install`]: Planner::install
#[derive(Debug, Default)]
pub struct Planner {
    cfg: RwLock<Arc<PlannerConfig>>,
}

impl Clone for Planner {
    fn clone(&self) -> Self {
        Self {
            cfg: RwLock::new(self.config()),
        }
    }
}

impl Planner {
    /// A planner with the given thresholds.
    pub fn new(cfg: PlannerConfig) -> Self {
        Self {
            cfg: RwLock::new(Arc::new(cfg)),
        }
    }

    /// A consistent snapshot of the live thresholds.
    pub fn config(&self) -> Arc<PlannerConfig> {
        Arc::clone(&self.cfg.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Atomically replaces the live thresholds. Plans already being
    /// made keep the snapshot they took. Returns whether the config
    /// actually changed.
    pub fn install(&self, cfg: PlannerConfig) -> bool {
        let mut live = self.cfg.write().unwrap_or_else(|e| e.into_inner());
        if **live == cfg {
            return false;
        }
        *live = Arc::new(cfg);
        true
    }

    /// Plans a query over `entry` restricted to the canonical
    /// (sorted, deduplicated) `dims`, with `threads` lanes available.
    ///
    /// `max_mask` flags maximised dimensions; it does not influence the
    /// choice of algorithm (negation preserves every density property)
    /// but tells a min-scan which of the two running extremes to match.
    pub fn plan(
        &self,
        entry: &DatasetEntry,
        dims: &[usize],
        max_mask: u32,
        threads: usize,
    ) -> QueryPlan {
        self.plan_with_prior(entry, dims, max_mask, threads, None)
    }

    /// Like [`plan`](Self::plan), but additionally offered a
    /// prior-version cached result: when the accumulated delta is
    /// small, patching it forward beats every recomputation tier.
    pub fn plan_with_prior(
        &self,
        entry: &DatasetEntry,
        dims: &[usize],
        max_mask: u32,
        threads: usize,
        prior: Option<PriorResult>,
    ) -> QueryPlan {
        self.plan_query(entry, dims, max_mask, threads, prior, None)
    }

    /// The full planning entry point:
    /// [`plan_with_prior`](Self::plan_with_prior) plus an optional
    /// cached-subspace
    /// [`SuperspaceSeed`]. The seed never changes the strategy choice;
    /// [`Strategy::Algorithm`] plans carry its mask so the executor
    /// pre-filters through the cached result before the algorithm runs.
    /// Every other plan drops it — the sharded executor scatters all
    /// live rows and never reads a seed, so a plan carrying one would
    /// claim a pre-filter that does not run.
    pub fn plan_query(
        &self,
        entry: &DatasetEntry,
        dims: &[usize],
        max_mask: u32,
        threads: usize,
        prior: Option<PriorResult>,
        seed: Option<SuperspaceSeed>,
    ) -> QueryPlan {
        let mut plan = self.plan_inner(entry, dims, max_mask, threads, prior);
        if matches!(plan.strategy, Strategy::Algorithm(_)) {
            plan.superspace_seed = seed;
        }
        plan
    }

    /// Plans a query of any [`QueryKind`]. Skyline queries take the
    /// full tiered decision of [`plan_query`](Self::plan_query);
    /// counting kinds (k-skyband, top-k dominating) use a reduced
    /// procedure because the structural shortcuts do not apply to
    /// them: the rows at a dimension's extreme are its skyline but say
    /// nothing about dominator counts (no min-scan), the maintenance
    /// kernels patch membership but not counts (no delta), and a cached
    /// subspace skyline prunes rows that may still carry non-zero
    /// counts (no superspace seed).
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
    #[allow(clippy::too_many_arguments)]
    pub fn plan_kind(
        &self,
        entry: &DatasetEntry,
        dims: &[usize],
        max_mask: u32,
        threads: usize,
        kind: QueryKind,
        prior: Option<PriorResult>,
        seed: Option<SuperspaceSeed>,
    ) -> QueryPlan {
        if kind.is_skyline() {
            return self.plan_query(entry, dims, max_mask, threads, prior, seed);
        }
        let cfg = self.config();
        let n = entry.live_len();
        if n == 0 {
            return QueryPlan::trivial("empty dataset");
        }
        if kind.k() == 0 {
            return QueryPlan::trivial("k = 0: the answer is empty by definition");
        }
        let stats = entry.stats();
        let effective: Vec<usize> = dims
            .iter()
            .copied()
            .filter(|&c| !stats.per_dim[c].is_constant())
            .collect();
        if effective.is_empty() {
            return QueryPlan::trivial("all selected dimensions are constant");
        }
        let frac = sample_skyline_frac(entry, &effective);
        if let QueryKind::Skyband { .. } = kind {
            if let Some(plan) = sharded_plan(
                &cfg,
                entry,
                &effective,
                frac,
                threads.max(1),
                "partitioner attached: per-shard local skybands, counting merge",
            ) {
                return plan;
            }
        }
        let reason = match kind {
            QueryKind::Skyband { .. } => "k-skyband: sum-sorted counting scan",
            _ => "top-k dominating: counting kernel over the negated input",
        };
        QueryPlan {
            strategy: Strategy::Algorithm(Algorithm::Sfs),
            threads: 1,
            config: SkylineConfig::default(),
            effective_dims: effective,
            sample_skyline_frac: Some(frac),
            reason,
            candidates: Vec::new(),
            superspace_seed: None,
        }
    }

    fn plan_inner(
        &self,
        entry: &DatasetEntry,
        dims: &[usize],
        max_mask: u32,
        threads: usize,
        prior: Option<PriorResult>,
    ) -> QueryPlan {
        let cfg = self.config();
        let n = entry.live_len();
        if n == 0 {
            return QueryPlan::trivial("empty dataset");
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
        let d = effective.len();
        let threads = threads.max(1);
        // The sampled density is both a decision input (Q-Flow vs
        // Hybrid) and a feedback feature: every non-trivial plan
        // carries it so the observed runtime lands in the right
        // bucket. The sample is capped, so this is microseconds.
        let frac = sample_skyline_frac(entry, &effective);

        // 2. One effective dimension: the skyline is the set of rows
        //    attaining the running extreme the catalog already holds.
        if d == 1 {
            return QueryPlan {
                strategy: Strategy::MinScan { dim: effective[0] },
                threads: 1,
                config: SkylineConfig::default(),
                effective_dims: effective,
                sample_skyline_frac: Some(frac),
                reason: "one effective dimension: one pass for the rows at its running extreme",
                candidates: Vec::new(),
                superspace_seed: None,
            };
        }

        // 3. A reachable prior result with a small delta: maintenance
        //    beats recomputation. Capped against both the configured
        //    ceiling and the live cardinality so a delta comparable to
        //    the dataset falls through to a fresh run.
        if let Some(p) = prior {
            let delta = p.inserted + p.deleted;
            if delta > 0 && delta <= cfg.delta_cap && delta * 4 <= n {
                return QueryPlan {
                    strategy: Strategy::Delta {
                        from_version: p.from_version,
                    },
                    threads: 1,
                    config: SkylineConfig::default(),
                    effective_dims: dims.to_vec(),
                    sample_skyline_frac: Some(frac),
                    reason: "small delta over a prior cached result",
                    candidates: Vec::new(),
                    superspace_seed: None,
                };
            }
        }

        // 4./5. Sequential baselines for small work.
        if n <= cfg.tiny_n {
            return QueryPlan {
                strategy: Strategy::Algorithm(Algorithm::Bnl),
                threads: 1,
                config: SkylineConfig::default(),
                effective_dims: effective,
                sample_skyline_frac: Some(frac),
                reason: "tiny input: window scan beats any setup cost",
                candidates: Vec::new(),
                superspace_seed: None,
            };
        }
        if n <= cfg.small_n {
            return QueryPlan {
                strategy: Strategy::Algorithm(Algorithm::Sfs),
                threads: 1,
                config: SkylineConfig::default(),
                effective_dims: effective,
                sample_skyline_frac: Some(frac),
                reason: "small input: sort-filter-skyline, no parallel setup",
                candidates: Vec::new(),
                superspace_seed: None,
            };
        }

        // 5b. An attached partitioner on a large input: per-shard
        //     scans over cache-resident working sets, then a witness
        //     probe and SFS/Hybrid over the union of local skylines.
        if let Some(plan) = sharded_plan(
            &cfg,
            entry,
            &effective,
            frac,
            threads,
            "partitioner attached: cache-resident per-shard scans, witness-pruned merge",
        ) {
            return plan;
        }

        // 6. No parallelism available: best sequential algorithm.
        if threads == 1 {
            return QueryPlan {
                strategy: Strategy::Algorithm(Algorithm::BSkyTree),
                threads: 1,
                config: SkylineConfig::default(),
                effective_dims: effective,
                sample_skyline_frac: Some(frac),
                reason: "single thread: BSkyTree is the best sequential algorithm",
                candidates: Vec::new(),
                superspace_seed: None,
            };
        }

        // 7. Parallel: split on the sampled skyline density, with α
        //    from the workload-tuned formula unless the feedback loop
        //    installed a fitted override.
        let mut config = SkylineConfig::tuned(n, threads);
        if let Some(a) = cfg.alpha_qflow {
            config.alpha_qflow = a;
        }
        if let Some(a) = cfg.alpha_hybrid {
            config.alpha_hybrid = a;
        }
        let (algo, reason) = if d >= cfg.high_d {
            (
                Algorithm::Hybrid,
                "high-dimensional subspace: partitioning and M(S) pay off",
            )
        } else if frac > cfg.dense_frac {
            (
                Algorithm::Hybrid,
                "dense sampled skyline: partition to cut comparisons",
            )
        } else {
            (
                Algorithm::QFlow,
                "sparse sampled skyline: shared-skyline block flow",
            )
        };
        let _ = max_mask; // direction never changes the plan, see doc
        let chosen = match algo {
            Algorithm::Hybrid => "hybrid",
            _ => "qflow",
        };
        QueryPlan {
            strategy: Strategy::Algorithm(algo),
            threads,
            config,
            effective_dims: effective,
            sample_skyline_frac: Some(frac),
            reason,
            candidates: candidate_costs(n, frac, threads, chosen, None),
            superspace_seed: None,
        }
    }
}

/// Fraction of the catalog's sample that is skyline within the sample,
/// under dominance restricted to `dims`. An upper-bound proxy for the
/// full dataset's skyline fraction (density shrinks with n), cheap
/// enough to run on every planning pass: O(sample²·|dims|).
fn sample_skyline_frac(entry: &DatasetEntry, dims: &[usize]) -> f32 {
    let sample = &entry.stats().sample;
    if sample.len() < 2 {
        return 1.0;
    }
    use skyline_core::dominance::strictly_dominates_on;
    let mut survivors = 0usize;
    'outer: for &i in sample {
        let p = entry.point(i);
        for &j in sample {
            if i != j && strictly_dominates_on(entry.point(j), p, dims) {
                continue 'outer;
            }
        }
        survivors += 1;
    }
    survivors as f32 / sample.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use skyline_core::verify;
    use skyline_data::{generate, Dataset, Distribution};
    use skyline_parallel::ThreadPool;

    fn entry_of(data: Dataset) -> std::sync::Arc<DatasetEntry> {
        Catalog::new().register("t", data)
    }

    #[test]
    fn tiny_goes_bnl_small_goes_sfs() {
        let planner = Planner::default();
        let pool = ThreadPool::new(2);
        let tiny = entry_of(generate(Distribution::Independent, 300, 3, 7, &pool));
        let plan = planner.plan(&tiny, &[0, 1, 2], 0, 4);
        assert_eq!(plan.strategy, Strategy::Algorithm(Algorithm::Bnl));
        assert!(
            plan.sample_skyline_frac.is_some(),
            "frac must be bucketable"
        );

        let small = entry_of(generate(Distribution::Independent, 5_000, 3, 7, &pool));
        let plan = planner.plan(&small, &[0, 1, 2], 0, 4);
        assert_eq!(plan.strategy, Strategy::Algorithm(Algorithm::Sfs));
        assert_eq!(plan.threads, 1);
        assert!(plan.sample_skyline_frac.is_some());
    }

    #[test]
    fn single_thread_prefers_bskytree() {
        let pool = ThreadPool::new(2);
        let e = entry_of(generate(Distribution::Independent, 20_000, 4, 7, &pool));
        let plan = Planner::default().plan(&e, &[0, 1, 2, 3], 0, 1);
        assert_eq!(plan.strategy, Strategy::Algorithm(Algorithm::BSkyTree));
        assert!(plan.sample_skyline_frac.is_some());
    }

    #[test]
    fn density_splits_qflow_and_hybrid() {
        let planner = Planner::default();
        let pool = ThreadPool::new(2);
        // Correlated data: minuscule skyline → Q-Flow.
        let corr = entry_of(generate(Distribution::Correlated, 20_000, 4, 7, &pool));
        let plan = planner.plan(&corr, &[0, 1, 2, 3], 0, 4);
        assert_eq!(plan.strategy, Strategy::Algorithm(Algorithm::QFlow));
        assert!(plan.sample_skyline_frac.unwrap() <= planner.config().dense_frac);

        // Anticorrelated data: huge skyline → Hybrid.
        let anti = entry_of(generate(Distribution::Anticorrelated, 20_000, 6, 7, &pool));
        let plan = planner.plan(&anti, &[0, 1, 2, 3, 4, 5], 0, 4);
        assert_eq!(plan.strategy, Strategy::Algorithm(Algorithm::Hybrid));
        assert!(plan.sample_skyline_frac.unwrap() > planner.config().dense_frac);
        // α was tuned down from the paper's 1M-point default.
        assert!(plan.config.alpha_hybrid <= SkylineConfig::default().alpha_hybrid);
    }

    #[test]
    fn high_d_forces_hybrid() {
        let pool = ThreadPool::new(2);
        let e = entry_of(generate(Distribution::Correlated, 20_000, 10, 7, &pool));
        let plan = Planner::default().plan(&e, &(0..10).collect::<Vec<_>>(), 0, 4);
        assert_eq!(plan.strategy, Strategy::Algorithm(Algorithm::Hybrid));
    }

    #[test]
    fn constant_dims_are_dropped() {
        let mut rows = Vec::new();
        for i in 0..1_000 {
            rows.push(vec![5.0, i as f32, (1_000 - i) as f32]);
        }
        let e = entry_of(Dataset::from_rows(&rows).unwrap());
        // Dim 0 is constant: a {0,1} query degenerates to a 1-d scan.
        let plan = Planner::default().plan(&e, &[0, 1], 0, 4);
        assert_eq!(plan.strategy, Strategy::MinScan { dim: 1 });
        assert!(plan.sample_skyline_frac.is_some());
        // All-constant selection is trivial.
        let plan = Planner::default().plan(&e, &[0], 0, 4);
        assert_eq!(plan.strategy, Strategy::Trivial);
        assert!(plan.sample_skyline_frac.is_none());
        // Dims 1+2 survive.
        let plan = Planner::default().plan(&e, &[0, 1, 2], 0, 4);
        assert_eq!(plan.effective_dims, vec![1, 2]);
    }

    #[test]
    fn small_delta_over_prior_wins_every_tier() {
        let planner = Planner::default();
        let pool = ThreadPool::new(2);
        let e = entry_of(generate(Distribution::Independent, 20_000, 4, 7, &pool));
        let prior = PriorResult {
            from_version: 3,
            len: 120,
            inserted: 2,
            deleted: 1,
        };
        let plan = planner.plan_with_prior(&e, &[0, 1, 2, 3], 0, 4, Some(prior));
        assert_eq!(plan.strategy, Strategy::Delta { from_version: 3 });
        assert_eq!(plan.effective_dims, vec![0, 1, 2, 3]);
        assert_eq!(plan.threads, 1);
        assert!(plan.sample_skyline_frac.is_some(), "delta plans bucket too");
    }

    #[test]
    fn oversized_or_empty_delta_falls_through() {
        let planner = Planner::default();
        let pool = ThreadPool::new(2);
        let e = entry_of(generate(Distribution::Independent, 20_000, 4, 7, &pool));
        // Delta above the cap: recompute.
        let big = PriorResult {
            from_version: 3,
            len: 120,
            inserted: planner.config().delta_cap + 1,
            deleted: 0,
        };
        let plan = planner.plan_with_prior(&e, &[0, 1, 2, 3], 0, 4, Some(big));
        assert!(matches!(plan.strategy, Strategy::Algorithm(_)));
        // Empty delta means the prior IS current; the cache probe
        // handles that — the planner must not loop through Delta.
        let none = PriorResult {
            from_version: 3,
            len: 120,
            inserted: 0,
            deleted: 0,
        };
        let plan = planner.plan_with_prior(&e, &[0, 1, 2, 3], 0, 4, Some(none));
        assert!(matches!(plan.strategy, Strategy::Algorithm(_)));
        // A delta comparable to a small dataset: recompute too.
        let small = entry_of(generate(Distribution::Independent, 300, 3, 7, &pool));
        let wide = PriorResult {
            from_version: 1,
            len: 10,
            inserted: 100,
            deleted: 0,
        };
        let plan = planner.plan_with_prior(&small, &[0, 1, 2], 0, 4, Some(wide));
        assert_eq!(plan.strategy, Strategy::Algorithm(Algorithm::Bnl));
    }

    #[test]
    fn minscan_outranks_delta() {
        let planner = Planner::default();
        let pool = ThreadPool::new(2);
        let e = entry_of(generate(Distribution::Independent, 5_000, 3, 7, &pool));
        let prior = PriorResult {
            from_version: 1,
            len: 4,
            inserted: 1,
            deleted: 0,
        };
        let plan = planner.plan_with_prior(&e, &[2], 0, 4, Some(prior));
        assert_eq!(plan.strategy, Strategy::MinScan { dim: 2 });
    }

    #[test]
    fn sample_estimator_matches_reference_on_the_sample() {
        let pool = ThreadPool::new(2);
        let e = entry_of(generate(Distribution::Independent, 2_000, 3, 11, &pool));
        let dims = [0usize, 2];
        // Build the sample as its own dataset and compare against the
        // definitional subspace skyline.
        let sample_rows: Vec<Vec<f32>> = e
            .stats()
            .sample
            .iter()
            .map(|&i| e.point(i).to_vec())
            .collect();
        let sample_ds = Dataset::from_rows(&sample_rows).unwrap();
        let expect =
            verify::naive_skyline_on(&sample_ds, &dims).len() as f32 / sample_rows.len() as f32;
        let got = sample_skyline_frac(&e, &dims);
        assert!((got - expect).abs() < 1e-6);
    }

    #[test]
    fn install_swaps_thresholds_atomically() {
        let planner = Planner::default();
        let pool = ThreadPool::new(2);
        let e = entry_of(generate(Distribution::Independent, 5_000, 3, 7, &pool));
        assert_eq!(
            planner.plan(&e, &[0, 1, 2], 0, 4).strategy,
            Strategy::Algorithm(Algorithm::Sfs)
        );
        // Raise the BNL ceiling above n: the same query replans to BNL.
        let mut cfg = (*planner.config()).clone();
        cfg.tiny_n = 10_000;
        assert!(planner.install(cfg.clone()));
        assert!(!planner.install(cfg), "identical config is a no-op");
        assert_eq!(
            planner.plan(&e, &[0, 1, 2], 0, 4).strategy,
            Strategy::Algorithm(Algorithm::Bnl)
        );
        // A clone snapshots the live config at clone time.
        let snap = planner.clone();
        assert_eq!(snap.config().tiny_n, 10_000);
    }

    #[test]
    fn alpha_overrides_replace_tuned_values() {
        let planner = Planner::default();
        let pool = ThreadPool::new(2);
        let anti = entry_of(generate(Distribution::Anticorrelated, 20_000, 6, 7, &pool));
        let corr = entry_of(generate(Distribution::Correlated, 20_000, 4, 7, &pool));
        let mut cfg = (*planner.config()).clone();
        cfg.alpha_hybrid = Some(128);
        cfg.alpha_qflow = Some(4_096);
        planner.install(cfg);
        let plan = planner.plan(&anti, &[0, 1, 2, 3, 4, 5], 0, 4);
        assert_eq!(plan.strategy, Strategy::Algorithm(Algorithm::Hybrid));
        assert_eq!(plan.config.alpha_hybrid, 128);
        let plan = planner.plan(&corr, &[0, 1, 2, 3], 0, 4);
        assert_eq!(plan.strategy, Strategy::Algorithm(Algorithm::QFlow));
        assert_eq!(plan.config.alpha_qflow, 4_096);
    }

    #[test]
    fn attached_partitioner_takes_the_sharded_tier() {
        // The sheet prices the sharded plan but does not decide it: an
        // anticorrelated 100 000 × 6 entry over four Grid shards plans
        // sharded at every thread count.
        let pool = ThreadPool::new(2);
        let data = generate(Distribution::Anticorrelated, 100_000, 6, 7, &pool);
        let e = Catalog::new().register_sharded("t", data, 4, PartitionerKind::Grid);
        for threads in [1, 2, 4] {
            let plan = Planner::default().plan(&e, &[0, 1, 2, 3, 4, 5], 0, threads);
            assert_eq!(
                plan.strategy,
                Strategy::Sharded {
                    k: 4,
                    partitioner: PartitionerKind::Grid
                }
            );
            let row = plan
                .candidates
                .iter()
                .find(|c| c.strategy == "sharded")
                .expect("the sheet prices the sharded plan");
            assert!(row.chosen);
            let frac = plan.sample_skyline_frac.unwrap();
            assert_eq!(row.estimated_cost, sharded_cost(100_000, 4, frac, threads));
        }
    }

    #[test]
    fn counting_kinds_skip_structural_shortcuts() {
        let planner = Planner::default();
        let pool = ThreadPool::new(2);
        let e = entry_of(generate(Distribution::Independent, 20_000, 4, 7, &pool));
        // A tempting delta prior is ignored for counting kinds.
        let prior = PriorResult {
            from_version: 3,
            len: 120,
            inserted: 2,
            deleted: 1,
        };
        for kind in [
            QueryKind::Skyband { k: 3 },
            QueryKind::TopKDominating { k: 5 },
        ] {
            let plan = planner.plan_kind(&e, &[0, 1, 2, 3], 0, 4, kind, Some(prior), None);
            assert_eq!(
                plan.strategy,
                Strategy::Algorithm(Algorithm::Sfs),
                "{kind:?}"
            );
            assert!(plan.superspace_seed.is_none());
            assert!(plan.sample_skyline_frac.is_some());
        }
        // k = 0 is definitionally empty.
        let plan = planner.plan_kind(
            &e,
            &[0, 1, 2, 3],
            0,
            4,
            QueryKind::Skyband { k: 0 },
            None,
            None,
        );
        assert_eq!(plan.strategy, Strategy::Trivial);
        // Skyline kind routes through the full tiered procedure.
        let plan = planner.plan_kind(
            &e,
            &[0, 1, 2, 3],
            0,
            4,
            QueryKind::Skyline,
            Some(prior),
            None,
        );
        assert_eq!(plan.strategy, Strategy::Delta { from_version: 3 });
    }
}
