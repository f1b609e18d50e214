//! PBSkyTree — the paper's parallelization of BSkyTree (Appendix A).
//!
//! BSkyTree's depth-first recursion is hostile to parallelism: launching
//! threads early sacrifices processing order, launching them late leaves
//! them underfed. The paper's answer, reproduced here:
//!
//! * **halt the recursion** when a region holds fewer than 64 points
//!   (`cfg.recursion_leaf`) — "recursing further only adds overhead";
//! * **accumulate work batches**: small regions (and the pivots that
//!   precede them in sequential order) are queued until up to
//!   `16 × threads` points (`cfg.batch_factor`) are pending;
//! * **process a batch in parallel**: Phase I compares every batched
//!   point against the global SkyTree built so far (with full region-wise
//!   mask filtering), Phase II resolves the batch internally; survivors
//!   are appended to the skyline and inserted into the tree.
//!
//! Deviation from the authors' (unreleased) internals: *all* dominance
//! filtering is deferred to batch time against the global tree, rather
//! than partially resolved against sibling subtrees inside the recursion.
//! Correctness holds because a dominator always precedes its dominatee in
//! the depth-first (level, mask) order — so it is either already in the
//! tree or inside the same batch, where the full pairwise Phase II
//! catches it. The cost is extra DTs at `t = 1`,
//! which is exactly the overhead the paper measures in Table III ("the
//! last point in a work batch is potentially processed 16·t points too
//! early").
//!
//! Phase accounting: everything the recursion does — L1 norms, pivot
//! selection, partitioning, and gathering rows into regions and batches
//! — is charged to Pivot; the batch's tree probe and the insertion of
//! its survivors into the tree (the index the next probe reads) to
//! Phase I; the in-batch pairwise resolution to Phase II.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

use super::bskytree::{subset_from_parts, SkyNode, SkyOut, Subset};
use crate::dominance::dt;
use crate::masks::{full_mask, level, mask_and_eq, Mask};
use crate::pivot::select_pivot;
use crate::telemetry::{AlgoPhase, PhaseProbe};
use crate::{PivotStrategy, SkylineConfig, SkylineResult};
use skyline_data::Dataset;
use skyline_parallel::{parallel_for_in_lane, ThreadPool};

/// Stack-depth guard: below this the region is simply batched whole.
const MAX_DEPTH: usize = 512;

/// Runs PBSkyTree on `pool`.
pub fn run(data: &Dataset, pool: &ThreadPool, cfg: &SkylineConfig) -> SkylineResult {
    let probe = PhaseProbe::start(cfg, pool.threads());
    let d = data.dims();

    let l1: Vec<f32> = data.rows().map(crate::norms::l1).collect();
    let root = subset_from_parts(data.values().to_vec(), (0..data.len() as u32).collect(), l1);

    let mut state = PbRun {
        d,
        full: full_mask(d),
        leaf: cfg.recursion_leaf.max(1),
        batch_cap: (cfg.batch_factor.max(1)) * pool.threads(),
        out: SkyOut::new(d),
        tree: None,
        pend_values: Vec::new(),
        pend_orig: Vec::new(),
        pool,
        probe,
        seed: cfg.seed,
    };
    state.visit(root, 0);
    state.flush();
    state.probe.finish(state.out.orig)
}

struct PbRun<'a> {
    d: usize,
    full: Mask,
    leaf: usize,
    batch_cap: usize,
    out: SkyOut,
    tree: Option<SkyNode>,
    pend_values: Vec<f32>,
    pend_orig: Vec<u32>,
    pool: &'a ThreadPool,
    probe: PhaseProbe<'a>,
    seed: u64,
}

impl PbRun<'_> {
    fn pending(&self) -> usize {
        self.pend_orig.len()
    }

    /// Queues one row. Never flushes: flushing may only happen at *group*
    /// boundaries (see [`PbRun::end_group`]).
    fn push_row(&mut self, row: &[f32], orig: u32) {
        self.pend_values.extend_from_slice(row);
        self.pend_orig.push(orig);
    }

    /// Marks the end of an order-atomic group of rows — a whole leaf
    /// region, or a pivot with its coincident twins. Groups are pushed in
    /// depth-first (level, mask) order, so any dominator of a group
    /// member lives in an earlier group (flushed to the tree by now, and
    /// caught by Phase I) or inside the same group (caught by the full
    /// pairwise Phase II). Points *within* a group carry no order
    /// guarantee, which is why a group must never straddle a flush — the
    /// batch may therefore exceed `batch_cap` by one group.
    fn end_group(&mut self) {
        if self.pending() >= self.batch_cap {
            self.flush();
        }
    }

    /// Depth-first recursion in (level, mask) order, mirroring BSkyTree's
    /// structure but deferring all dominance work to the batches.
    fn visit(&mut self, sub: Subset, depth: usize) {
        let d = self.d;
        let n = sub.len();
        if n == 0 {
            return;
        }
        if n < self.leaf || depth >= MAX_DEPTH {
            for i in 0..n {
                self.push_row(&sub.values[i * d..(i + 1) * d], sub.orig[i]);
            }
            self.end_group();
            return;
        }

        // Pivot selection is sequential ("it incurs negligible cost").
        let pivot = select_pivot(
            PivotStrategy::Balanced,
            &sub.values,
            d,
            &sub.l1,
            self.seed,
            self.pool,
        );
        let pivot_at = sub
            .values
            .chunks_exact(d)
            .position(|r| r == &pivot.coords[..])
            .expect("pivot row comes from the subset");
        self.push_row(&pivot.coords, sub.orig[pivot_at]);

        // Partitioning is parallelized, as in Hybrid. Bit 31 of each slot
        // carries the coincidence flag (d ≤ 20 keeps it free).
        let masks: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        {
            let (values, coords, masks, counters) =
                (&sub.values, &pivot.coords, &masks, self.probe.counters());
            parallel_for_in_lane(self.pool, n, 1 << 10, |lane, range| {
                let len = range.len() as u64;
                for i in range {
                    let (m, eq) = mask_and_eq(&values[i * d..(i + 1) * d], coords);
                    masks[i].store(m | (u32::from(eq) << 31), Ordering::Relaxed);
                }
                counters.add(lane, len);
            });
        }

        // Gather mask regions; emit coincident twins right after the
        // pivot, drop the dominated all-ones region.
        let mut keyed: Vec<(u32, u32)> = Vec::new(); // (compound key, row)
        let mut skipped_self = false;
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            let slot = masks[i].load(Ordering::Relaxed);
            let (m, eq) = (slot & !(1 << 31), slot >> 31 == 1);
            if m == self.full {
                if eq {
                    if !skipped_self && i == pivot_at {
                        skipped_self = true;
                    } else {
                        let row = &sub.values[i * d..(i + 1) * d];
                        let (rv, ro) = (row.to_vec(), sub.orig[i]);
                        self.push_row(&rv, ro);
                    }
                }
                continue;
            }
            keyed.push(((level(m) << d) | m, i as u32));
        }
        keyed.sort_unstable();
        self.probe.lap(AlgoPhase::Pivot);
        // The pivot + its coincident twins form one group.
        self.end_group();

        let mut b = 0;
        while b < keyed.len() {
            let key = keyed[b].0;
            let mut values = Vec::new();
            let mut orig = Vec::new();
            let mut l1v = Vec::new();
            while b < keyed.len() && keyed[b].0 == key {
                let i = keyed[b].1 as usize;
                values.extend_from_slice(&sub.values[i * d..(i + 1) * d]);
                orig.push(sub.orig[i]);
                l1v.push(sub.l1[i]);
                b += 1;
            }
            self.visit(subset_from_parts(values, orig, l1v), depth + 1);
        }
    }

    /// Processes the pending batch: parallel Phase I against the global
    /// tree, parallel full-pairwise Phase II within the batch, sequential
    /// append + tree insertion of survivors.
    fn flush(&mut self) {
        let d = self.d;
        let b = self.pending();
        if b == 0 {
            return;
        }
        let row = |i: usize| &self.pend_values[i * d..(i + 1) * d];
        // Leaf rows and regions gathered since the last lap.
        self.probe.lap(AlgoPhase::Pivot);

        // ---- Phase I ----------------------------------------------------
        let flags1: Vec<AtomicBool> = (0..b).map(|_| AtomicBool::new(false)).collect();
        if let Some(tree) = &self.tree {
            let (out, full, counters) = (&self.out, self.full, self.probe.counters());
            let (pend_values, flags1ref) = (&self.pend_values, &flags1);
            parallel_for_in_lane(self.pool, b, 4, |lane, range| {
                let mut dts = 0u64;
                for i in range {
                    let q = &pend_values[i * d..(i + 1) * d];
                    if tree.dominates(q, out, full, &mut dts) {
                        flags1ref[i].store(true, Ordering::Relaxed);
                    }
                }
                counters.add(lane, dts);
            });
        }
        self.probe.lap(AlgoPhase::PhaseOne);

        // ---- Phase II: full pairwise within the batch --------------------
        // Batch order within a leaf region is arbitrary, so unlike
        // Q-Flow's sorted blocks both directions must be checked.
        // Peers flagged by Phase II are still tested: whether another
        // lane has flagged one yet is a race, and skipping on it would
        // make the work depend on the schedule. A flagged peer that
        // dominates us is still a dominator, so answers are unchanged.
        let flags2: Vec<AtomicBool> = (0..b).map(|_| AtomicBool::new(false)).collect();
        {
            let (pend_values, flags1ref, flags2ref, counters) =
                (&self.pend_values, &flags1, &flags2, self.probe.counters());
            parallel_for_in_lane(self.pool, b, 4, |lane, range| {
                let mut dts = 0u64;
                for i in range {
                    if flags1ref[i].load(Ordering::Relaxed) {
                        continue;
                    }
                    let q = &pend_values[i * d..(i + 1) * d];
                    for j in 0..b {
                        // Peers dominated in Phase I imply a tree point
                        // dominating them — and transitively us, which
                        // Phase I would have caught; skip them.
                        if j == i || flags1ref[j].load(Ordering::Relaxed) {
                            continue;
                        }
                        dts += 1;
                        if dt(&pend_values[j * d..(j + 1) * d], q) {
                            flags2ref[i].store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                }
                counters.add(lane, dts);
            });
        }
        self.probe.lap(AlgoPhase::PhaseTwo);

        // ---- Survivors into the skyline and the global tree --------------
        let mut ins_dts = 0u64;
        for i in 0..b {
            if flags1[i].load(Ordering::Relaxed) || flags2[i].load(Ordering::Relaxed) {
                continue;
            }
            let pos = self.out.push(row(i), self.pend_orig[i]);
            match &mut self.tree {
                None => {
                    self.tree = Some(SkyNode {
                        pivot: pos,
                        children: Vec::new(),
                    });
                }
                Some(root) => root.insert(pos, &self.out, self.full, &mut ins_dts),
            }
        }
        self.probe.counters().add(0, ins_dts);
        self.probe.lap(AlgoPhase::PhaseOne);
        self.pend_values.clear();
        self.pend_orig.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_skyline, naive_skyline};
    use skyline_data::{generate, quantize, Distribution};

    #[test]
    fn matches_naive_across_thread_counts() {
        let gen_pool = ThreadPool::new(2);
        let data = generate(Distribution::Anticorrelated, 1_500, 4, 23, &gen_pool);
        let expect = naive_skyline(&data);
        for t in [1, 2, 4] {
            let pool = ThreadPool::new(t);
            let r = run(&data, &pool, &SkylineConfig::default());
            assert_eq!(r.indices, expect, "t = {t}");
        }
    }

    #[test]
    fn every_distribution_and_dimension() {
        let pool = ThreadPool::new(2);
        for dist in [
            Distribution::Correlated,
            Distribution::Independent,
            Distribution::Anticorrelated,
        ] {
            for d in [2usize, 6, 12] {
                let data = generate(dist, 700, d, 5, &pool);
                let r = run(&data, &pool, &SkylineConfig::default());
                assert_eq!(r.indices, naive_skyline(&data), "{dist:?} d={d}");
            }
        }
    }

    #[test]
    fn small_leaf_and_batch_settings() {
        let pool = ThreadPool::new(3);
        let data = generate(Distribution::Independent, 2_000, 5, 8, &pool);
        let expect = naive_skyline(&data);
        for (leaf, batch) in [(1usize, 1usize), (2, 2), (64, 16), (1_000, 4)] {
            let cfg = SkylineConfig {
                recursion_leaf: leaf,
                batch_factor: batch,
                ..Default::default()
            };
            let r = run(&data, &pool, &cfg);
            assert_eq!(r.indices, expect, "leaf={leaf} batch={batch}");
        }
    }

    #[test]
    fn duplicates_everywhere() {
        let pool = ThreadPool::new(4);
        let data = quantize(
            &generate(Distribution::Anticorrelated, 2_000, 3, 2, &pool),
            4,
        );
        let r = run(&data, &pool, &SkylineConfig::default());
        check_skyline(&data, &r.indices).unwrap();
    }

    #[test]
    fn matches_bskytree_exactly() {
        let pool = ThreadPool::new(4);
        let data = generate(Distribution::Independent, 3_000, 8, 12, &pool);
        let cfg = SkylineConfig::default();
        let pb = run(&data, &pool, &cfg);
        let bs = crate::algo::bskytree::run(&data, &pool, &cfg);
        assert_eq!(pb.indices, bs.indices);
    }

    #[test]
    fn degenerate_inputs() {
        let pool = ThreadPool::new(2);
        let cfg = SkylineConfig::default();
        let empty = Dataset::from_flat(vec![], 2).unwrap();
        assert!(run(&empty, &pool, &cfg).indices.is_empty());
        let identical = Dataset::from_rows(&vec![vec![3.0, 4.0]; 300]).unwrap();
        assert_eq!(
            run(&identical, &pool, &cfg).indices,
            (0..300u32).collect::<Vec<_>>()
        );
    }
}
