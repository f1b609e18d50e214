//! The `M(S)` data structure over the shared, global skyline
//! (paper §VI-B, Figure 3, Algorithms 2 and 3).
//!
//! Skyline rows are stored once, in a [`TileStore`] in append order
//! (which is (level, mask, L1) order, since compression always shifts
//! left): its code tiles serve the batched scans and its `f32` rows the
//! pivot tests and the short-partition loop. `M(S)` is
//! a flat vector of `(level-1 mask, start)` pairs — one per
//! non-empty partition — terminated by a sentinel. Within a partition the
//! *first* point (lowest L1) serves as the level-2 pivot: later members
//! store their mask relative to it, giving a second, stronger
//! incomparability filter during Phase I without recursion or trees.

use crate::dominance::dt;
use crate::dominance::simd::{ColumnRange, TileStore, TILE_LANES};
use crate::masks::{can_dominate, full_mask, mask_and_eq, Mask};

/// Sentinel mask terminating `M(S)` (the paper uses `2^d`; any value that
/// can never equal a real level-1 mask works).
const SENTINEL: Mask = Mask::MAX;

/// Partitions at least this long are scanned through the batched tile
/// kernels instead of the masked scalar loop. Below it the level-2 mask
/// filter (which rejects most members before any coordinate is read)
/// wins; above it the one-vs-many vector scan amortizes the filter it
/// gives up — the same crossover Hybrid Phase II uses for its peer runs.
const TILE_GATE: usize = 2 * TILE_LANES;

/// Contiguous skyline storage plus the two-level partition map `M(S)`.
#[derive(Debug)]
pub(crate) struct SkyStructure {
    d: usize,
    full: Mask,
    /// Skyline rows in append order, so a partition's span is a range
    /// of the store.
    tiles: TileStore,
    /// Stored mask per row: level-2 (relative to the partition's first
    /// point) for members, level-1 for the partition pivots themselves —
    /// whose stored mask is never consulted (Algorithm 3 reaches pivots
    /// through `M(S)`).
    masks: Vec<Mask>,
    /// Original dataset index per row.
    orig: Vec<u32>,
    /// `M(S)`: (level-1 mask, first row) per partition + sentinel.
    parts: Vec<(Mask, u32)>,
}

impl SkyStructure {
    /// An empty structure whose store codes rows against `range`.
    pub fn new(range: &ColumnRange) -> Self {
        let d = range.dims();
        Self {
            d,
            full: full_mask(d),
            tiles: TileStore::with_range(range, 0),
            masks: Vec::new(),
            orig: Vec::new(),
            parts: vec![(SENTINEL, 0)],
        }
    }

    /// Number of skyline points stored.
    pub fn len(&self) -> usize {
        self.orig.len()
    }

    /// Original dataset indices of all skyline points (append order).
    pub fn into_indices(self) -> Vec<u32> {
        self.orig
    }

    #[inline]
    fn row(&self, i: usize) -> &[f32] {
        self.tiles.point(i)
    }

    /// Number of partitions currently in `M(S)` (excluding the sentinel).
    #[cfg(test)]
    pub fn partitions(&self) -> usize {
        self.parts.len() - 1
    }

    /// Algorithm 2 (`updateS&M`): appends a compressed block of confirmed
    /// skyline points. `block_masks` are level-1 masks; rows continuing
    /// the most recent partition are re-partitioned against its first
    /// point (level-2), rows opening a new mask start a new partition.
    ///
    /// Each re-partitioning is one `part()` evaluation and is counted as
    /// a dominance test in `dts`, matching the paper's DT accounting.
    pub fn append_block(
        &mut self,
        block_values: &[f32],
        block_masks: &[Mask],
        block_orig: &[u32],
        dts: &mut u64,
    ) {
        let d = self.d;
        debug_assert_eq!(block_values.len(), block_masks.len() * d);
        self.parts.pop().expect("sentinel always present");
        let (mut m, mut i) = self.parts.last().copied().unwrap_or((SENTINEL, 0));
        for (j, &bm) in block_masks.iter().enumerate() {
            let row = &block_values[j * d..(j + 1) * d];
            let pos = self.orig.len() as u32;
            if bm == m {
                // Same partition as the current top: store the level-2
                // mask relative to the partition pivot S[i].
                *dts += 1;
                let (lvl2, _) = mask_and_eq(row, self.row(i as usize));
                self.masks.push(lvl2);
            } else {
                // New partition: this row is its pivot; it keeps the
                // level-1 mask and M(S) points at it.
                m = bm;
                i = pos;
                self.masks.push(bm);
                self.parts.push((m, i));
            }
            self.tiles.push(row);
            self.orig.push(block_orig[j]);
        }
        self.parts.push((SENTINEL, self.orig.len() as u32));
    }

    /// Algorithm 3 (`compareToSky`): does any stored skyline point
    /// dominate `q` (whose level-1 mask is `q_mask`)?
    ///
    /// Partitions whose mask cannot dominate `q_mask` are skipped whole;
    /// within a partition, `q` is first re-partitioned against the pivot
    /// (one DT — detecting pivot dominance for free) and the resulting
    /// level-2 mask filters the members. Partitions of [`TILE_GATE`] or
    /// more rows skip the re-partitioning entirely and run the batched
    /// tile scan over the whole span (pivot included) instead — every
    /// member is tested, but 16 lanes per code compare beat the per-member
    /// filter once the span is long.
    pub fn dominates(&self, q: &[f32], q_mask: Mask, dts: &mut u64) -> bool {
        for w in self.parts.windows(2) {
            let (m, s) = w[0];
            let t = w[1].1;
            if !can_dominate(m, q_mask) {
                continue;
            }
            let s = s as usize;
            if t as usize - s >= TILE_GATE {
                if self.tiles.any_dominates_range(s, t as usize, q, dts) {
                    return true;
                }
                continue;
            }
            let pivot = self.row(s);
            *dts += 1;
            let (m2, eq) = mask_and_eq(q, pivot);
            if m2 == self.full && !eq {
                return true; // the partition pivot dominates q
            }
            for j in (s + 1)..t as usize {
                if can_dominate(self.masks[j], m2) {
                    *dts += 1;
                    if dt(self.row(j), q) {
                        return true;
                    }
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::masks::partition_mask;

    /// `[0, 1]` in each of `d` columns: the span of the test rows.
    fn unit_range(d: usize) -> ColumnRange {
        ColumnRange::new(vec![0.0; d], vec![1.0; d])
    }

    /// Builds the Figure 3 example: pivot at the data midpoint, skyline
    /// points u(00), p(01), t(10), s(10).
    fn figure3() -> (SkyStructure, Vec<f32>) {
        let pivot = vec![0.5f32, 0.5];
        let mut sky = SkyStructure::new(&unit_range(2));
        let mut dts = 0;
        // Rows already in (level, mask, L1) order:
        //   u = (0.2, 0.2) mask 00
        //   p = (0.6, 0.1) mask 01   (bit 0 = x ≥ pivot.x)
        //   t = (0.1, 0.6) mask 10
        //   s = (0.3, 0.9) mask 10
        let rows: Vec<(Vec<f32>, Mask)> = vec![
            (vec![0.2, 0.2], 0b00),
            (vec![0.6, 0.1], 0b01),
            (vec![0.1, 0.6], 0b10),
            (vec![0.3, 0.9], 0b10),
        ];
        let values: Vec<f32> = rows.iter().flat_map(|(r, _)| r.clone()).collect();
        let masks: Vec<Mask> = rows.iter().map(|&(_, m)| m).collect();
        let orig: Vec<u32> = (0..4).collect();
        sky.append_block(&values, &masks, &orig, &mut dts);
        (sky, pivot)
    }

    #[test]
    fn partitions_and_level2_masks_match_figure_3b() {
        let (sky, _) = figure3();
        assert_eq!(sky.partitions(), 3);
        assert_eq!(sky.parts[0], (0b00, 0));
        assert_eq!(sky.parts[1], (0b01, 1));
        assert_eq!(sky.parts[2], (0b10, 2));
        assert_eq!(sky.parts[3], (SENTINEL, 4));
        // s is re-partitioned against t: s.x ≥ t.x, s.y ≥ t.y ⇒ but not
        // equal… s = (0.3, 0.9) vs t = (0.1, 0.6): both larger ⇒ 11.
        assert_eq!(sky.masks[3], 0b11);
        // Pivots keep their level-1 masks.
        assert_eq!(sky.masks[2], 0b10);
    }

    #[test]
    fn dominates_agrees_with_brute_force() {
        let (sky, pivot) = figure3();
        let queries: Vec<Vec<f32>> = vec![
            vec![0.25, 0.25], // dominated by u
            vec![0.15, 0.15], // dominates u — not dominated
            vec![0.7, 0.2],   // dominated by p
            vec![0.35, 0.95], // dominated by s (same partition as t)
            vec![0.05, 0.55], // not dominated (better x than t)
            vec![0.2, 0.2],   // coincident with u — not dominated
        ];
        for q in &queries {
            let q_mask = partition_mask(q, &pivot);
            let mut dts = 0;
            let got = sky.dominates(q, q_mask, &mut dts);
            let want = (0..sky.len()).any(|i| crate::dominance::strictly_dominates(sky.row(i), q));
            assert_eq!(got, want, "q = {q:?}");
        }
    }

    #[test]
    fn mask_filter_skips_incomparable_partitions() {
        let (sky, pivot) = figure3();
        // Query in partition 01: only partitions 00 and 01 can dominate,
        // so at most 2 pivot DTs + member DTs in those partitions occur.
        let q = vec![0.9, 0.05];
        let q_mask = partition_mask(&q, &pivot);
        assert_eq!(q_mask, 0b01);
        let mut dts = 0;
        let _ = sky.dominates(&q, q_mask, &mut dts);
        assert!(dts <= 2, "mask filter failed: {dts} DTs");
    }

    #[test]
    fn append_continues_the_last_partition_across_blocks() {
        let (mut sky, _) = figure3();
        let mut dts = 0;
        // Another block whose rows extend partition 10 and open 11.
        let values = [0.45f32, 0.8, 0.55, 0.55];
        let masks = [0b10, 0b11];
        let orig = [4u32, 5];
        sky.append_block(&values, &masks, &orig, &mut dts);
        assert_eq!(sky.partitions(), 4);
        // (0.45, 0.8) is re-partitioned against t = (0.1, 0.6) ⇒ 11.
        assert_eq!(sky.masks[4], 0b11);
        // (0.55, 0.55) opens partition 11 and keeps its level-1 mask.
        assert_eq!(sky.masks[5], 0b11);
        assert_eq!(sky.parts[3], (0b11, 5));
    }

    #[test]
    fn long_partitions_run_the_tiled_scan_and_agree_with_brute_force() {
        // 40 mutually incomparable points share level-1 mask 0b01
        // (x ≥ pivot.x, y < pivot.y), so the partition span crosses
        // TILE_GATE and Phase-I probes take the batched branch. Every
        // decision must match the scalar brute force, including the
        // coincident and boundary cases the masked loop handles.
        let pivot = vec![0.5f32, 0.5];
        let n = 40usize;
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| vec![0.5 + i as f32 * 0.01, 0.4 - i as f32 * 0.01])
            .collect();
        let values: Vec<f32> = rows.iter().flatten().copied().collect();
        let masks = vec![0b01 as Mask; n];
        let orig: Vec<u32> = (0..n as u32).collect();
        let mut sky = SkyStructure::new(&unit_range(2));
        let mut dts = 0;
        sky.append_block(&values, &masks, &orig, &mut dts);
        assert_eq!(sky.partitions(), 1);
        assert!(n >= super::TILE_GATE);

        let mut queries: Vec<Vec<f32>> = vec![
            vec![0.7, 0.39],  // dominated by rows 1..=20
            vec![0.5, 0.395], // better y than row 0 — not dominated
            vec![0.55, 0.35], // coincident with row 5 — not dominated
            vec![0.49, 0.6],  // other region, incomparable
            vec![0.995, 0.005],
        ];
        for row in &rows {
            // Nudged copies of every stored row, both directions.
            queries.push(vec![row[0] + 0.001, row[1] + 0.001]);
            queries.push(vec![row[0] - 0.001, row[1] - 0.001]);
        }
        for q in &queries {
            let q_mask = partition_mask(q, &pivot);
            let mut dts = 0;
            let got = sky.dominates(q, q_mask, &mut dts);
            let want = (0..sky.len()).any(|i| crate::dominance::strictly_dominates(sky.row(i), q));
            assert_eq!(got, want, "q = {q:?}");
        }
    }

    #[test]
    fn empty_structure_dominates_nothing() {
        let sky = SkyStructure::new(&unit_range(3));
        let mut dts = 0;
        assert!(!sky.dominates(&[1.0, 2.0, 3.0], 0b000, &mut dts));
        assert_eq!(dts, 0);
    }
}
