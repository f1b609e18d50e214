//! Sharding as a pure function of a row: a dataset is split into K
//! shards by a [`Partitioner`], and nothing is stored per shard.
//!
//! A [`ShardedStore`] is the handle on a partitioner chosen at build
//! time and **frozen**: random (stable-id hash), grid (equal-width
//! cells over per-dimension bounds captured from the build-time data),
//! or angular (direction from the per-dimension minimum corner, binned
//! on the simplex). Freezing the bounds keeps assignment a pure
//! function of `(id, coordinates)`, so the rows live once — in the
//! dataset — and a reader forms the shards it needs by routing the
//! live rows, with no per-shard copy to keep in step with mutations.
//!
//! The guarantee the engine builds on is purely set-theoretic — the
//! shards partition the live rows, so any per-shard computation that
//! keeps a superset of its shard's skyline can be merged into the
//! global answer.

use std::sync::Arc;

use crate::dataset::Dataset;
use crate::rng::splitmix64;

/// Hard cap on the shard count; far above any sensible K for an
/// in-process store, low enough that per-shard bookkeeping stays
/// trivial.
pub const MAX_SHARDS: usize = 64;

// ---------------------------------------------------------------------------
// Partitioners
// ---------------------------------------------------------------------------

/// Which partitioning family a [`ShardedStore`] was built with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionerKind {
    /// Stable-id hash: perfectly balanced, ignores geometry.
    Random,
    /// Equal-width cells over frozen per-dimension bounds. Cells are
    /// ordered so lower cells hold smaller coordinates, which lets a
    /// merge skip "higher" shards wholesale.
    Grid,
    /// Bins on the direction from the minimum corner (simplex
    /// coordinate of the first dimension). Points in one angular bin
    /// compete with each other; dominance across bins is rare.
    Angular,
}

impl PartitionerKind {
    /// Every kind, for sweeps and property tests.
    pub const ALL: [PartitionerKind; 3] = [
        PartitionerKind::Random,
        PartitionerKind::Grid,
        PartitionerKind::Angular,
    ];

    /// Stable lower-case name.
    pub fn name(&self) -> &'static str {
        match self {
            PartitionerKind::Random => "random",
            PartitionerKind::Grid => "grid",
            PartitionerKind::Angular => "angular",
        }
    }

    /// Parses [`name`](Self::name) back; `None` for anything else.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "random" => Some(PartitionerKind::Random),
            "grid" => Some(PartitionerKind::Grid),
            "angular" => Some(PartitionerKind::Angular),
            _ => None,
        }
    }
}

/// Routes a row to its shard. Implementations must be pure functions
/// of the row's stable id and coordinates (any data-dependent state is
/// frozen at construction), so the same row always routes to the same
/// shard regardless of mutation history.
pub trait Partitioner: std::fmt::Debug + Send + Sync {
    /// The family this partitioner belongs to.
    fn kind(&self) -> PartitionerKind;
    /// Number of shards routed to.
    fn shards(&self) -> usize;
    /// Shard index for a row; must be `< self.shards()` for every
    /// input, including coordinates outside the frozen bounds.
    fn assign(&self, id: u32, point: &[f32]) -> usize;
}

/// Stable-id hash partitioner.
#[derive(Debug)]
struct RandomPartitioner {
    k: usize,
}

impl Partitioner for RandomPartitioner {
    fn kind(&self) -> PartitionerKind {
        PartitionerKind::Random
    }

    fn shards(&self) -> usize {
        self.k
    }

    fn assign(&self, id: u32, _point: &[f32]) -> usize {
        let mut s = id as u64;
        (splitmix64(&mut s) % self.k as u64) as usize
    }
}

/// Frozen per-dimension `[min, max]` bounds captured from the
/// build-time dataset (degenerate `[0, 1]` when built empty).
#[derive(Debug, Clone)]
struct Bounds {
    min: Vec<f32>,
    inv_range: Vec<f32>,
}

impl Bounds {
    fn of(data: &Dataset) -> Self {
        let d = data.dims();
        let mut min = vec![f32::INFINITY; d];
        let mut max = vec![f32::NEG_INFINITY; d];
        for row in data.rows() {
            for (j, &v) in row.iter().enumerate() {
                min[j] = min[j].min(v);
                max[j] = max[j].max(v);
            }
        }
        let mut inv_range = Vec::with_capacity(d);
        for j in 0..d {
            if !min[j].is_finite() {
                min[j] = 0.0;
                max[j] = 1.0;
            }
            let r = max[j] - min[j];
            inv_range.push(if r > 0.0 { 1.0 / r } else { 0.0 });
        }
        Self { min, inv_range }
    }

    /// `point[j]` normalised into `[0, 1]`, clamped for out-of-bounds
    /// late inserts.
    #[inline]
    fn unit(&self, point: &[f32], j: usize) -> f32 {
        ((point[j] - self.min[j]) * self.inv_range[j]).clamp(0.0, 1.0)
    }
}

/// Equal-width grid partitioner: `k` is factored into per-dimension
/// bin counts (largest prime factors on the lowest dimensions), and a
/// row's cell is the mixed-radix index of its per-dimension bins.
#[derive(Debug)]
struct GridPartitioner {
    k: usize,
    bins: Vec<usize>,
    bounds: Bounds,
}

impl GridPartitioner {
    fn new(k: usize, data: &Dataset) -> Self {
        let d = data.dims().max(1);
        let mut bins = vec![1usize; d];
        // Factor k into per-dimension bin counts, round-robin over the
        // dimensions so cells stay roughly cubical.
        let mut rest = k.max(1);
        let mut dim = 0usize;
        let mut p = 2usize;
        while rest > 1 {
            if rest % p == 0 {
                bins[dim % d] *= p;
                dim += 1;
                rest /= p;
            } else {
                p += 1;
            }
        }
        Self {
            k: k.max(1),
            bins,
            bounds: Bounds::of(data),
        }
    }
}

impl Partitioner for GridPartitioner {
    fn kind(&self) -> PartitionerKind {
        PartitionerKind::Grid
    }

    fn shards(&self) -> usize {
        self.k
    }

    fn assign(&self, _id: u32, point: &[f32]) -> usize {
        let mut cell = 0usize;
        for (j, &b) in self.bins.iter().enumerate() {
            let t = self.bounds.unit(point, j.min(point.len() - 1));
            let bin = ((t * b as f32) as usize).min(b - 1);
            cell = cell * b + bin;
        }
        cell.min(self.k - 1)
    }
}

/// Angular partitioner: a row's direction from the frozen minimum
/// corner is summarised by the simplex share of its first coordinate,
/// `u₀ / Σuⱼ`, and binned into `k` equal slices. Rows in the same
/// slice point the same way from the origin and so compete with each
/// other; dominance across slices is geometrically rare, which is the
/// property that keeps local skylines tight on anticorrelated data.
#[derive(Debug)]
struct AngularPartitioner {
    k: usize,
    bounds: Bounds,
}

impl Partitioner for AngularPartitioner {
    fn kind(&self) -> PartitionerKind {
        PartitionerKind::Angular
    }

    fn shards(&self) -> usize {
        self.k
    }

    fn assign(&self, _id: u32, point: &[f32]) -> usize {
        let d = point.len();
        let mut sum = 0.0f32;
        for j in 0..d {
            sum += self.bounds.unit(point, j);
        }
        let t = if sum > 0.0 {
            self.bounds.unit(point, 0) / sum
        } else {
            0.0
        };
        ((t * self.k as f32) as usize).min(self.k - 1)
    }
}

/// Builds the partitioner for `kind` over `k` shards, freezing any
/// data-dependent state (bounds) from `data`.
pub fn make_partitioner(kind: PartitionerKind, k: usize, data: &Dataset) -> Arc<dyn Partitioner> {
    let k = k.clamp(1, MAX_SHARDS);
    match kind {
        PartitionerKind::Random => Arc::new(RandomPartitioner { k }),
        PartitionerKind::Grid => Arc::new(GridPartitioner::new(k, data)),
        PartitionerKind::Angular => Arc::new(AngularPartitioner {
            k,
            bounds: Bounds::of(data),
        }),
    }
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// The sharding of one dataset: a handle on its frozen [`Partitioner`].
///
/// The store holds **no rows**. The dataset it was built over keeps the
/// only copy; whoever needs the shards (the engine's sharded executor)
/// forms them per query by routing each live row through
/// [`shard_of`](Self::shard_of). Cloning shares the partitioner.
#[derive(Debug, Clone)]
pub struct ShardedStore {
    partitioner: Arc<dyn Partitioner>,
}

impl ShardedStore {
    /// Freezes a `kind` partitioner over `k` shards from `data` (its
    /// per-dimension bounds, for the geometric families). `k` is
    /// clamped to `1..=`[`MAX_SHARDS`].
    pub fn build(data: &Dataset, k: usize, kind: PartitionerKind) -> Self {
        Self {
            partitioner: make_partitioner(kind, k, data),
        }
    }

    /// Number of shards.
    pub fn k(&self) -> usize {
        self.partitioner.shards()
    }

    /// The partitioning family the store was built with.
    pub fn partitioner_kind(&self) -> PartitionerKind {
        self.partitioner.kind()
    }

    /// The shard a row with this id and these coordinates belongs to.
    pub fn shard_of(&self, id: u32, point: &[f32]) -> usize {
        self.partitioner.assign(id, point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_data() -> Dataset {
        let rows: Vec<Vec<f32>> = (0..100)
            .map(|i| vec![(i % 10) as f32, (i / 10) as f32])
            .collect();
        Dataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn build_partitions_all_rows_exactly_once() {
        let data = grid_data();
        for kind in PartitionerKind::ALL {
            for k in [1usize, 3, 4, 8] {
                let store = ShardedStore::build(&data, k, kind);
                assert_eq!(store.k(), k);
                assert_eq!(store.partitioner_kind(), kind);
                // Every row routes to exactly one shard below k.
                for (i, row) in data.rows().enumerate() {
                    assert!(store.shard_of(i as u32, row) < k, "{kind:?} k={k}");
                }
            }
        }
    }

    #[test]
    fn assignment_is_stable_for_inserts_and_deletes() {
        let data = grid_data();
        for kind in PartitionerKind::ALL {
            let store = ShardedStore::build(&data, 4, kind);
            // An out-of-bounds late insert still routes deterministically,
            // so a delete by coordinates finds the same shard — on the
            // store and on any clone of it.
            let row = [42.0f32, -3.0];
            let id = 1000u32;
            let s = store.shard_of(id, &row);
            assert!(s < 4);
            assert_eq!(store.shard_of(id, &row), s);
            assert_eq!(store.clone().shard_of(id, &row), s);
        }
    }

    #[test]
    fn grid_shards_order_by_coordinates() {
        // 1-d grid over k=4: strictly increasing values must land in
        // non-decreasing shard order, 16 rows per cell.
        let rows: Vec<Vec<f32>> = (0..64).map(|i| vec![i as f32]).collect();
        let data = Dataset::from_rows(&rows).unwrap();
        let store = ShardedStore::build(&data, 4, PartitionerKind::Grid);
        let mut prev = 0usize;
        let mut sizes = [0usize; 4];
        for i in 0..64u32 {
            let s = store.shard_of(i, data.row(i as usize));
            assert!(s >= prev, "grid order violated at {i}");
            prev = s;
            sizes[s] += 1;
        }
        assert_eq!(sizes, [16; 4]);
    }
}
