//! BSkyTree, Lee & Hwang, Inf. Syst. 2014 — the sequential state of the
//! art the paper benchmarks against (its BSkyTree-P variant: balanced
//! pivots + point-based partitioning).
//!
//! Bulk recursive construction: select a balanced pivot (a skyline point
//! of the current subset), partition the rest into 2^d mask regions,
//! discard the all-ones region (dominated by the pivot), then process
//! regions in (level, mask) order — each region is first filtered against
//! the completed subtrees of regions that *partially dominate* it
//! (`m' ⊂ m`), then recursed into. A point is therefore only ever
//! compared against regions that can actually dominate it, and only after
//! those regions are fully resolved, which is what makes BSkyTree's DT
//! count so low.
//!
//! The recursion depth is bounded by the data in practice; a depth guard
//! falls back to an incremental insertion (same tree shape, same
//! filtering semantics) for adversarial inputs.

use crate::masks::{full_mask, is_subset, level, mask_and_eq, Mask};
use crate::pivot::select_pivot;
use crate::telemetry::{AlgoPhase, PhaseProbe};
use crate::{PivotStrategy, SkylineConfig, SkylineResult};
use skyline_data::Dataset;
use skyline_parallel::ThreadPool;

/// Beyond this depth, switch to incremental insertion to bound the stack.
const MAX_DEPTH: usize = 512;

/// Skyline accumulator: confirmed rows in emission order.
#[derive(Debug)]
pub(crate) struct SkyOut {
    pub d: usize,
    pub values: Vec<f32>,
    pub orig: Vec<u32>,
}

impl SkyOut {
    pub fn new(d: usize) -> Self {
        Self {
            d,
            values: Vec::new(),
            orig: Vec::new(),
        }
    }

    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.values[i * self.d..(i + 1) * self.d]
    }

    pub fn len(&self) -> usize {
        self.orig.len()
    }

    pub fn push(&mut self, row: &[f32], orig: u32) -> u32 {
        let pos = self.len() as u32;
        self.values.extend_from_slice(row);
        self.orig.push(orig);
        pos
    }
}

/// A SkyTree node: the region's pivot plus child regions keyed by mask
/// (relative to this pivot). Only skyline points appear in the tree.
#[derive(Debug)]
pub(crate) struct SkyNode {
    pub pivot: u32, // row index into SkyOut
    pub children: Vec<(Mask, SkyNode)>,
}

impl SkyNode {
    /// Does any point in this subtree dominate `q`? Mask filters prune
    /// whole child regions; computing `q`'s mask against the node pivot
    /// *is* the pivot's dominance test.
    pub fn dominates(&self, q: &[f32], out: &SkyOut, full: Mask, dts: &mut u64) -> bool {
        *dts += 1;
        let (m, eq) = mask_and_eq(q, out.row(self.pivot as usize));
        if m == full {
            return !eq;
        }
        for (cm, child) in &self.children {
            if is_subset(*cm, m) && child.dominates(q, out, full, dts) {
                return true;
            }
        }
        false
    }

    /// Incremental insertion of a known skyline point (used by the depth
    /// fallback here and by PBSkyTree's global tree). Coincident points
    /// are not stored: they filter exactly like their twin pivot.
    pub fn insert(&mut self, pos: u32, out: &SkyOut, full: Mask, dts: &mut u64) {
        let mut node = self;
        loop {
            *dts += 1;
            let (m, eq) = mask_and_eq(out.row(pos as usize), out.row(node.pivot as usize));
            if eq {
                return;
            }
            debug_assert_ne!(m, full, "dominated point inserted into SkyTree");
            match node.children.iter().position(|(cm, _)| *cm == m) {
                Some(i) => node = &mut node.children[i].1,
                None => {
                    node.children.push((
                        m,
                        SkyNode {
                            pivot: pos,
                            children: Vec::new(),
                        },
                    ));
                    return;
                }
            }
        }
    }
}

/// One recursion subset: rows owned contiguously plus metadata.
#[derive(Debug)]
pub(crate) struct Subset {
    pub(crate) values: Vec<f32>,
    pub(crate) orig: Vec<u32>,
    pub(crate) l1: Vec<f32>,
}

impl Subset {
    pub(crate) fn len(&self) -> usize {
        self.orig.len()
    }
}

/// Runs BSkyTree (sequential; `pool` is only used by pivot selection's
/// median machinery, which BSkyTree does not use — balanced pivots are
/// computed inline).
pub fn run(data: &Dataset, pool: &ThreadPool, cfg: &SkylineConfig) -> SkylineResult {
    let mut probe = PhaseProbe::start(cfg, 1);
    let d = data.dims();
    let mut out = SkyOut::new(d);
    let mut dts = 0u64;

    let l1: Vec<f32> = data.rows().map(crate::norms::l1).collect();
    let root = Subset {
        values: data.values().to_vec(),
        orig: (0..data.len() as u32).collect(),
        l1,
    };
    build(root, d, &mut out, &mut dts, 0, cfg, pool);

    probe.counters().add(0, dts);
    probe.lap(AlgoPhase::PhaseOne);
    probe.finish(out.orig)
}

/// Recursive bulk construction. Emits the subset's local skyline into
/// `out` (all of which are global skyline points, because callers filter
/// subsets against every partially dominating completed region first) and
/// returns the subtree for sibling filtering.
pub(crate) fn build(
    sub: Subset,
    d: usize,
    out: &mut SkyOut,
    dts: &mut u64,
    depth: usize,
    cfg: &SkylineConfig,
    pool: &ThreadPool,
) -> Option<SkyNode> {
    let n = sub.len();
    if n == 0 {
        return None;
    }
    let full = full_mask(d);
    if n == 1 {
        let pos = out.push(&sub.values, sub.orig[0]);
        return Some(SkyNode {
            pivot: pos,
            children: Vec::new(),
        });
    }
    // Below a handful of points, pivot selection costs more than it
    // saves: resolve the subset with a window scan and build the
    // equivalent (incremental) subtree. Also the depth-guard fallback.
    const SCAN_CUTOFF: usize = 16;
    if n <= SCAN_CUTOFF || depth >= MAX_DEPTH {
        return Some(build_incremental(sub, d, out, dts));
    }

    // Balanced pivot — a skyline point of the subset with minimal
    // normalised range (Lee & Hwang's choice for BSkyTree-P).
    let pivot = select_pivot(
        PivotStrategy::Balanced,
        &sub.values,
        d,
        &sub.l1,
        cfg.seed,
        pool,
    );
    let pivot_pos = out.push(&pivot.coords, {
        // Recover the original id of the chosen pivot row.
        let at = sub
            .values
            .chunks_exact(d)
            .position(|r| r == &pivot.coords[..])
            .expect("pivot row comes from the subset");
        sub.orig[at]
    });
    let node_pivot_row = pivot.coords;

    // Partition against the pivot; drop the dominated all-ones region,
    // emit coincident duplicates (they are skyline iff the pivot is).
    let mut bucket_of: Vec<(u32, u32)> = Vec::new(); // (compound key, row)
    let mut skip_self = false;
    for (i, row) in sub.values.chunks_exact(d).enumerate() {
        *dts += 1;
        let (m, eq) = mask_and_eq(row, &node_pivot_row);
        if m == full {
            if eq {
                if !skip_self
                    && row == &node_pivot_row[..]
                    && sub.orig[i] == out.orig[pivot_pos as usize]
                {
                    // The pivot element itself — already emitted.
                    skip_self = true;
                } else {
                    out.push(row, sub.orig[i]);
                }
            }
            continue;
        }
        bucket_of.push(((level(m) << d) | m, i as u32));
    }
    bucket_of.sort_unstable();

    // Process regions in (level, mask) order, filtering each against the
    // completed subtrees of partially dominating regions.
    let mut children: Vec<(Mask, SkyNode)> = Vec::new();
    let mut b = 0;
    while b < bucket_of.len() {
        let key = bucket_of[b].0;
        let m = key & full;
        let mut rows: Vec<u32> = Vec::new();
        while b < bucket_of.len() && bucket_of[b].0 == key {
            rows.push(bucket_of[b].1);
            b += 1;
        }
        // Filter against earlier sibling subtrees with cm ⊂ m.
        let mut filtered = Subset {
            values: Vec::with_capacity(rows.len() * d),
            orig: Vec::with_capacity(rows.len()),
            l1: Vec::with_capacity(rows.len()),
        };
        'rows: for &r in &rows {
            let row = &sub.values[r as usize * d..(r as usize + 1) * d];
            for (cm, child) in &children {
                if is_subset(*cm, m) && child.dominates(row, out, full, dts) {
                    continue 'rows;
                }
            }
            filtered.values.extend_from_slice(row);
            filtered.orig.push(sub.orig[r as usize]);
            filtered.l1.push(sub.l1[r as usize]);
        }
        if let Some(sub_node) = build(filtered, d, out, dts, depth + 1, cfg, pool) {
            children.push((m, sub_node));
        }
    }

    Some(SkyNode {
        pivot: pivot_pos,
        children,
    })
}

/// Depth-guard fallback: resolve the subset with a window scan, then
/// build an equivalent tree by incremental insertion.
fn build_incremental(sub: Subset, d: usize, out: &mut SkyOut, dts: &mut u64) -> SkyNode {
    let full = full_mask(d);
    // Local skyline via window scan.
    let mut window: Vec<u32> = Vec::new();
    for i in 0..sub.len() {
        let p = &sub.values[i * d..(i + 1) * d];
        let mut dominated = false;
        let mut k = 0;
        while k < window.len() {
            let w = &sub.values[window[k] as usize * d..(window[k] as usize + 1) * d];
            *dts += 1;
            match crate::dominance::compare(w, p) {
                crate::dominance::DomRelation::PDominatesQ => {
                    dominated = true;
                    break;
                }
                crate::dominance::DomRelation::QDominatesP => {
                    window.swap_remove(k);
                }
                _ => k += 1,
            }
        }
        if !dominated {
            window.push(i as u32);
        }
    }
    let mut root: Option<SkyNode> = None;
    for &i in &window {
        let row = &sub.values[i as usize * d..(i as usize + 1) * d];
        let pos = out.push(row, sub.orig[i as usize]);
        match &mut root {
            None => {
                root = Some(SkyNode {
                    pivot: pos,
                    children: Vec::new(),
                })
            }
            Some(node) => node.insert(pos, out, full, dts),
        }
    }
    root.expect("non-empty subset always yields a root")
}

/// Builds a `Subset` from raw parts (used by PBSkyTree).
pub(crate) fn subset_from_parts(values: Vec<f32>, orig: Vec<u32>, l1: Vec<f32>) -> Subset {
    Subset { values, orig, l1 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_skyline, naive_skyline};
    use skyline_data::{generate, quantize, Distribution};

    fn run_bst(data: &Dataset) -> SkylineResult {
        let pool = ThreadPool::new(1);
        run(data, &pool, &SkylineConfig::default())
    }

    #[test]
    fn matches_naive_on_every_distribution() {
        let pool = ThreadPool::new(2);
        for dist in [
            Distribution::Correlated,
            Distribution::Independent,
            Distribution::Anticorrelated,
        ] {
            for d in [2usize, 4, 8] {
                let data = generate(dist, 800, d, 15, &pool);
                let r = run_bst(&data);
                assert_eq!(r.indices, naive_skyline(&data), "{dist:?} d={d}");
            }
        }
    }

    #[test]
    fn duplicates_including_pivot_duplicates() {
        // Force coincident rows at the balanced pivot location.
        let mut rows = vec![vec![0.5f32, 0.5], vec![0.5, 0.5], vec![0.5, 0.5]];
        rows.extend((0..200).map(|i| {
            let x = (i as f32) / 200.0;
            vec![x, 1.0 - x]
        }));
        let data = Dataset::from_rows(&rows).unwrap();
        let r = run_bst(&data);
        check_skyline(&data, &r.indices).unwrap();
    }

    #[test]
    fn quantised_grids() {
        let pool = ThreadPool::new(2);
        let data = quantize(
            &generate(Distribution::Anticorrelated, 1_500, 3, 9, &pool),
            8,
        );
        let r = run_bst(&data);
        assert_eq!(r.indices, naive_skyline(&data));
    }

    #[test]
    fn uses_far_fewer_dts_than_quadratic() {
        let pool = ThreadPool::new(2);
        let data = generate(Distribution::Independent, 4_000, 6, 77, &pool);
        let r = run_bst(&data);
        let quadratic = (data.len() as u64) * (data.len() as u64 - 1);
        assert!(
            r.stats.dominance_tests * 10 < quadratic,
            "{} DTs vs n(n-1) = {}",
            r.stats.dominance_tests,
            quadratic
        );
        assert_eq!(r.indices, naive_skyline(&data));
    }

    #[test]
    fn chain_and_antichain_shapes() {
        // Chain: single skyline point; antichain: everything survives.
        let chain: Vec<Vec<f32>> = (0..500).map(|i| vec![i as f32, i as f32]).collect();
        let data = Dataset::from_rows(&chain).unwrap();
        assert_eq!(run_bst(&data).indices, vec![0]);

        let anti: Vec<Vec<f32>> = (0..500).map(|i| vec![i as f32, 500.0 - i as f32]).collect();
        let data = Dataset::from_rows(&anti).unwrap();
        assert_eq!(run_bst(&data).indices.len(), 500);
    }

    #[test]
    fn empty_and_singleton() {
        let data = Dataset::from_flat(vec![], 2).unwrap();
        assert!(run_bst(&data).indices.is_empty());
        let one = Dataset::from_rows(&[vec![1.0, 1.0]]).unwrap();
        assert_eq!(run_bst(&one).indices, vec![0]);
    }
}
