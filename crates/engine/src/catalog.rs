//! The dataset catalog: named, versioned, **mutable** datasets with
//! exact, incrementally maintained per-dimension statistics.
//!
//! The catalog keeps no index over the rows: the skyline kernels are
//! sort-based (they order their input per query and keep nothing
//! between queries), so a precomputed order would be paid for on every
//! write and read by nobody. Registration is one pass over the rows —
//! per-dimension min/max. Mutation batches
//! ([`Catalog::mutate`]) then *patch* that state, at a cost
//! proportional to the rows they touch:
//!
//! * inserted rows land in an **append segment** behind the immutable
//!   base [`Dataset`]; row ids are stable, so cached skyline index
//!   lists stay meaningful across versions;
//! * deleted rows are **tombstoned** (a bitset), never renumbered,
//!   until a compaction threshold rebuilds the base;
//! * min/max are **exact running values**: an insert folds in with
//!   `min`/`max`, and only a delete that removes a row attaining the
//!   current extreme of a dimension makes that dimension's extremes be
//!   rescanned (one pass over the new live list, shared by all such
//!   dimensions of the batch). The planner drops dimensions whose min
//!   equals max, so a stale extreme would be a wrong answer, not a
//!   slow one.
//!
//! No history of the batches is kept: the engine patches its cached
//! results forward as each batch lands, from its [`MutationOutcome`].
//!
//! Every mutation produces a fresh [`DatasetEntry`] (copy-on-write
//! over `Arc`-shared pieces) and bumps the version, so concurrent
//! queries keep an immutable snapshot for their whole execution.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use skyline_core::dominance::simd::ColumnRange;
use skyline_data::{Dataset, PartitionerKind, ShardedStore};

use crate::error::EngineError;

/// Summary of one dimension, computed at registration and patched per
/// mutation batch.
#[derive(Debug, Clone, Copy)]
pub struct DimStats {
    /// Smallest live value on the dimension.
    pub min: f32,
    /// Largest live value on the dimension.
    pub max: f32,
}

impl DimStats {
    /// True when every point shares one value — such a dimension can
    /// never decide a dominance test and the planner drops it.
    pub fn is_constant(&self) -> bool {
        self.min == self.max
    }
}

/// What every dimension of an entry with no live rows reports: a
/// placeholder, not an extreme of anything.
const EMPTY_DIM: DimStats = DimStats { min: 0.0, max: 0.0 };

/// Precomputed statistics for a registered dataset.
#[derive(Debug, Clone)]
pub struct DatasetStats {
    /// Per-dimension summaries over the live rows.
    pub per_dim: Vec<DimStats>,
}

impl DatasetStats {
    /// The per-dimension `[min, max]` bounds, for the code tiles of the
    /// engine's dominance scans (project it onto a query's folded
    /// dimensions with [`ColumnRange::project`]).
    pub fn column_range(&self) -> ColumnRange {
        ColumnRange::new(
            self.per_dim.iter().map(|s| s.min).collect(),
            self.per_dim.iter().map(|s| s.max).collect(),
        )
    }
}

/// Deleted-row bitset over the stable id space (base + segment).
#[derive(Debug, Clone, Default)]
struct Tombstones {
    bits: Vec<u64>,
    count: usize,
}

impl Tombstones {
    fn contains(&self, id: u32) -> bool {
        let (w, b) = ((id / 64) as usize, id % 64);
        self.bits.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Marks `id` dead; returns false if it already was.
    fn set(&mut self, id: u32) -> bool {
        let (w, b) = ((id / 64) as usize, id % 64);
        if w >= self.bits.len() {
            self.bits.resize(w + 1, 0);
        }
        let fresh = self.bits[w] & (1 << b) == 0;
        if fresh {
            self.bits[w] |= 1 << b;
            self.count += 1;
        }
        fresh
    }
}

/// A registered dataset plus everything precomputed about it.
///
/// Rows are addressed by **stable ids**: `0..base.len()` are the base
/// rows, ids from `base.len()` up are append-segment rows in insertion
/// order. Ids survive every mutation except a compaction (which
/// renumbers survivors contiguously and is reported as such).
#[derive(Debug)]
pub struct DatasetEntry {
    name: String,
    id: u64,
    version: u64,
    base: Arc<Dataset>,
    /// Appended rows, flat row-major, `dims()` wide.
    segment: Arc<Vec<f32>>,
    tombstones: Arc<Tombstones>,
    /// Live stable ids, ascending.
    live: Arc<Vec<u32>>,
    stats: DatasetStats,
    /// The frozen partitioner of a dataset registered through
    /// [`Catalog::register_sharded`]. It holds no rows: the sharded
    /// executor routes [`live_ids`](Self::live_ids) through it per
    /// query, so every successor entry just shares it.
    sharded: Option<ShardedStore>,
}

impl DatasetEntry {
    /// The dataset's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Stable id (survives re-registration under the same name).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Version, bumped by each re-registration of the name and by each
    /// mutation batch.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.base.dims()
    }

    /// Number of live rows.
    pub fn live_len(&self) -> usize {
        self.live.len()
    }

    /// Total rows ever stored (base + segment), including tombstoned
    /// ones; also the next id an insert would receive.
    pub fn total_rows(&self) -> usize {
        self.base.len() + self.segment.len() / self.dims().max(1)
    }

    /// Number of tombstoned (deleted, not yet compacted) rows.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones.count
    }

    /// True when the entry has no segment rows and no tombstones —
    /// stable ids coincide with base row numbers and algorithms can
    /// run on the base directly.
    pub fn is_pristine(&self) -> bool {
        self.segment.is_empty() && self.tombstones.count == 0
    }

    /// The coordinates of row `id` (live or tombstoned).
    #[inline]
    pub fn point(&self, id: u32) -> &[f32] {
        let base_n = self.base.len();
        if (id as usize) < base_n {
            self.base.row(id as usize)
        } else {
            let d = self.dims();
            let at = (id as usize - base_n) * d;
            &self.segment[at..at + d]
        }
    }

    /// Whether row `id` exists and is live.
    pub fn is_live(&self, id: u32) -> bool {
        (id as usize) < self.total_rows() && !self.tombstones.contains(id)
    }

    /// The live stable ids, ascending.
    pub fn live_ids(&self) -> &Arc<Vec<u32>> {
        &self.live
    }

    /// The immutable base snapshot (excludes segment rows).
    pub(crate) fn base_data(&self) -> &Arc<Dataset> {
        &self.base
    }

    /// Materializes the live rows, in id order, as a standalone
    /// dataset. Row `k` of the result is id `live_ids()[k]`.
    pub fn snapshot(&self) -> Dataset {
        let d = self.dims();
        let mut values = Vec::with_capacity(self.live.len() * d);
        for &id in self.live.iter() {
            values.extend_from_slice(self.point(id));
        }
        Dataset::from_flat(values, d).expect("live rows of a valid dataset are valid")
    }

    /// Precomputed statistics.
    pub fn stats(&self) -> &DatasetStats {
        &self.stats
    }

    /// Live row ids attaining the minimum (resp. maximum when `max` is
    /// true) on dimension `d`, ascending — the 1-d subspace skyline.
    /// One pass over [`live_ids`](Self::live_ids) against the exact
    /// running extreme in [`stats`](Self::stats).
    pub fn extreme_rows(&self, d: usize, max: bool) -> Vec<u32> {
        let s = &self.stats.per_dim[d];
        let best = if max { s.max } else { s.min };
        self.live
            .iter()
            .copied()
            .filter(|&id| self.point(id)[d] == best)
            .collect()
    }

    /// The partitioner handle of this entry, when the dataset was
    /// registered through [`Catalog::register_sharded`]. It is frozen
    /// at registration and shared by every later version; the shards
    /// themselves are whatever it makes of
    /// [`live_ids`](Self::live_ids).
    pub fn sharded(&self) -> Option<&ShardedStore> {
        self.sharded.as_ref()
    }
}

impl skyline_core::maintain::RowSource for DatasetEntry {
    fn point_of(&self, id: u32) -> &[f32] {
        self.point(id)
    }

    fn column_range(&self) -> Option<ColumnRange> {
        Some(self.stats.column_range())
    }
}

/// Per-dimension min/max over every row of `data`.
fn compute_stats(data: &Dataset) -> Vec<DimStats> {
    if data.is_empty() {
        return vec![EMPTY_DIM; data.dims()];
    }
    let mut per_dim = vec![
        DimStats {
            min: f32::INFINITY,
            max: f32::NEG_INFINITY,
        };
        data.dims()
    ];
    for row in data.rows() {
        for (s, &v) in per_dim.iter_mut().zip(row) {
            s.min = s.min.min(v);
            s.max = s.max.max(v);
        }
    }
    per_dim
}

/// The outcome of one applied mutation batch.
#[derive(Debug)]
pub struct MutationOutcome {
    /// The new catalog entry.
    pub entry: Arc<DatasetEntry>,
    /// The version the batch was applied to.
    pub old_version: u64,
    /// Total rows before the batch (every inserted id is `>= old_total`
    /// unless the batch compacted).
    pub old_total: u32,
    /// Stable ids assigned to the inserted rows, in input order.
    pub inserted_ids: Vec<u32>,
    /// The validated deleted ids (pre-compaction numbering).
    pub deleted_ids: Vec<u32>,
    /// Whether the batch triggered a compaction: survivors were
    /// renumbered contiguously and prior-version results are void.
    pub compacted: bool,
    /// Dimensions whose min/max the batch had to rescan over the live
    /// rows because a deleted row attained the running extreme (every
    /// dimension, for a batch applied to an empty entry). Zero for a
    /// compaction, whose full stats pass is part of the rebuild. A
    /// stream with rescans ≈ batches is deleting its own extremes.
    pub stats_rescans: usize,
}

/// The thread-safe name → dataset map.
#[derive(Debug, Default)]
pub struct Catalog {
    entries: RwLock<HashMap<String, Arc<DatasetEntry>>>,
    /// Stable ids per name, preserved across re-registration so cache
    /// purges catch every version.
    ids: RwLock<HashMap<String, u64>>,
    /// Per-name write serialization: registration and mutation of one
    /// name are mutually exclusive (heavy work still runs outside the
    /// `entries` lock, so readers never wait).
    writers: Mutex<HashMap<String, Arc<Mutex<()>>>>,
    next_id: AtomicU64,
    next_version: AtomicU64,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    fn writer_lock(&self, name: &str) -> Arc<Mutex<()>> {
        let mut writers = self.writers.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(writers.entry(name.to_string()).or_default())
    }

    /// Runs `f` on the current entry of `name` while holding its
    /// writer lock, so no mutation can land mid-call. Checkpointing
    /// uses this to capture an entry + WAL-watermark pair that is
    /// consistent by construction.
    pub(crate) fn with_writer<R>(
        &self,
        name: &str,
        f: impl FnOnce(&Arc<DatasetEntry>) -> Result<R, EngineError>,
    ) -> Result<R, EngineError> {
        let writer = self.writer_lock(name);
        let _serialized = writer.lock().unwrap_or_else(|e| e.into_inner());
        let entry = self
            .get(name)
            .ok_or_else(|| EngineError::UnknownDataset(name.to_string()))?;
        f(&entry)
    }

    /// Registers (or replaces) `name`: one pass over the rows for the
    /// per-dimension stats, nothing else is precomputed. Returns the
    /// new entry. The pass runs outside the `entries` lock, so
    /// concurrent queries keep serving the previous version until the
    /// swap.
    pub fn register(&self, name: &str, data: Dataset) -> Arc<DatasetEntry> {
        self.register_inner(name, data, None)
    }

    /// Like [`register`](Self::register), but additionally freezes a
    /// `kind` partitioner over `k` shards from the registered rows and
    /// attaches it to the entry. The planner routes large queries on
    /// such datasets through the sharded execution path.
    pub fn register_sharded(
        &self,
        name: &str,
        data: Dataset,
        k: usize,
        kind: PartitionerKind,
    ) -> Arc<DatasetEntry> {
        self.register_inner(name, data, Some((k, kind)))
    }

    fn register_inner(
        &self,
        name: &str,
        data: Dataset,
        shard_spec: Option<(usize, PartitionerKind)>,
    ) -> Arc<DatasetEntry> {
        let writer = self.writer_lock(name);
        let _serialized = writer.lock().unwrap_or_else(|e| e.into_inner());
        let id = {
            let ids = self.ids.read().unwrap_or_else(|e| e.into_inner());
            ids.get(name).copied()
        };
        let id = match id {
            Some(id) => id,
            None => {
                let mut ids = self.ids.write().unwrap_or_else(|e| e.into_inner());
                *ids.entry(name.to_string())
                    .or_insert_with(|| self.next_id.fetch_add(1, Ordering::Relaxed))
            }
        };
        let version = self.next_version.fetch_add(1, Ordering::Relaxed) + 1;
        let sharded = shard_spec.map(|(k, kind)| ShardedStore::build(&data, k, kind));
        let entry = Arc::new(pristine_entry(name, id, version, data, sharded));
        self.swap_in(name, &entry);
        entry
    }

    /// Publishes `entry` unless a higher version is already resident
    /// (two writers of one name can race; versions must never regress).
    fn swap_in(&self, name: &str, entry: &Arc<DatasetEntry>) {
        let mut entries = self.entries.write().unwrap_or_else(|e| e.into_inner());
        let stale = entries
            .get(name)
            .is_some_and(|resident| resident.version() > entry.version());
        if !stale {
            entries.insert(name.to_string(), Arc::clone(entry));
        }
    }

    /// Applies one mutation batch to `name`: `deletes` are tombstoned,
    /// then `inserts` are appended (receiving the next stable ids).
    /// Statistics are patched to their exact new values at a cost
    /// proportional to the batch — plus one pass over the live rows
    /// iff a deleted row attained a dimension's current min or max
    /// ([`MutationOutcome::stats_rescans`]). When tombstones would
    /// exceed `compact_fraction` of all rows the base is rebuilt
    /// instead (survivors renumbered). One version bump covers the
    /// whole batch.
    ///
    /// `log` is the write-ahead hook: it runs inside the per-dataset
    /// writer critical section, after the batch is fully validated and
    /// before any in-memory state changes. An `Err` from the hook
    /// aborts the mutation — nothing was applied, nothing published —
    /// which is exactly the WAL ordering a durable engine needs: a
    /// batch is acknowledged iff its log record is durable, and the
    /// log order equals the apply order.
    pub fn mutate(
        &self,
        name: &str,
        inserts: &[Vec<f32>],
        deletes: &[u32],
        compact_fraction: f32,
        log: Option<&mut dyn FnMut() -> Result<(), EngineError>>,
    ) -> Result<MutationOutcome, EngineError> {
        let writer = self.writer_lock(name);
        let _serialized = writer.lock().unwrap_or_else(|e| e.into_inner());
        let old = self
            .get(name)
            .ok_or_else(|| EngineError::UnknownDataset(name.to_string()))?;
        let d = old.dims();

        // Validate everything before touching any state.
        for (r, row) in inserts.iter().enumerate() {
            if row.len() != d {
                return Err(EngineError::RowArity {
                    row: r,
                    expected: d,
                    got: row.len(),
                });
            }
            if let Some(c) = row.iter().position(|v| !v.is_finite()) {
                return Err(EngineError::NonFiniteValue { row: r, col: c });
            }
        }
        // Sized up front: no allocation for an insert-only batch, no
        // rehash while a delete batch fills it.
        let mut seen = HashSet::with_capacity(deletes.len());
        for &id in deletes {
            if !old.is_live(id) || !seen.insert(id) {
                return Err(EngineError::UnknownRow { id });
            }
        }

        // Write-ahead point: the batch is valid and will be applied
        // verbatim; make it durable before any state changes.
        if let Some(log) = log {
            log()?;
        }

        let old_total = old.total_rows() as u32;
        let old_version = old.version();
        let dead_after = old.tombstones.count + deletes.len();
        let total_after = old_total as usize + inserts.len();
        let compact =
            dead_after > 0 && (dead_after as f32) > compact_fraction * (total_after as f32);
        let version = self.next_version.fetch_add(1, Ordering::Relaxed) + 1;

        let mut deleted_ids = deletes.to_vec();
        deleted_ids.sort_unstable();

        let (entry, stats_rescans) = if compact {
            (compacted_entry(&old, inserts, &deleted_ids, version), 0)
        } else {
            patched_entry(&old, inserts, &deleted_ids, version)
        };
        let entry = Arc::new(entry);
        self.swap_in(name, &entry);
        let inserted_ids = if compact {
            let keep = entry.live_len() - inserts.len();
            (keep as u32..entry.live_len() as u32).collect()
        } else {
            (old_total..old_total + inserts.len() as u32).collect()
        };
        Ok(MutationOutcome {
            entry,
            old_version,
            old_total,
            inserted_ids,
            deleted_ids,
            compacted: compact,
            stats_rescans,
        })
    }

    /// Looks a dataset up by name.
    pub fn get(&self, name: &str) -> Option<Arc<DatasetEntry>> {
        let entries = self.entries.read().unwrap_or_else(|e| e.into_inner());
        entries.get(name).cloned()
    }

    /// Removes `name`, returning its entry if it was registered. The id
    /// stays reserved so late cache purges remain correct. Serialized
    /// against register/mutate of the same name — without the writer
    /// lock an in-flight mutation could re-publish its successor entry
    /// after the removal, resurrecting the dataset.
    pub fn evict(&self, name: &str) -> Option<Arc<DatasetEntry>> {
        let writer = self.writer_lock(name);
        let _serialized = writer.lock().unwrap_or_else(|e| e.into_inner());
        let mut entries = self.entries.write().unwrap_or_else(|e| e.into_inner());
        entries.remove(name)
    }

    /// Names, versions, and live cardinalities of all registered
    /// datasets, sorted by name.
    pub fn list(&self) -> Vec<(String, u64, usize)> {
        let entries = self.entries.read().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<(String, u64, usize)> = entries
            .values()
            .map(|e| (e.name.clone(), e.version, e.live_len()))
            .collect();
        out.sort();
        out
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        self.entries.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A pristine entry over `data`: no segment, no tombstones, stats from
/// the single [`compute_stats`] pass. Registration and compaction both
/// end here.
fn pristine_entry(
    name: &str,
    id: u64,
    version: u64,
    data: Dataset,
    sharded: Option<ShardedStore>,
) -> DatasetEntry {
    let per_dim = compute_stats(&data);
    let live: Vec<u32> = (0..data.len() as u32).collect();
    DatasetEntry {
        name: name.to_string(),
        id,
        version,
        base: Arc::new(data),
        segment: Arc::new(Vec::new()),
        tombstones: Arc::new(Tombstones::default()),
        stats: DatasetStats { per_dim },
        live: Arc::new(live),
        sharded,
    }
}

/// Builds the incremental (non-compacting) successor entry, copying
/// only the pieces the batch changes, and returns it with the number
/// of dimensions whose extremes had to be rescanned.
fn patched_entry(
    old: &DatasetEntry,
    inserts: &[Vec<f32>],
    deleted_ids: &[u32],
    version: u64,
) -> (DatasetEntry, usize) {
    let old_total = old.total_rows() as u32;

    let segment = if inserts.is_empty() {
        Arc::clone(&old.segment)
    } else {
        let mut segment = Vec::with_capacity(old.segment.len() + inserts.len() * old.dims());
        segment.extend_from_slice(&old.segment);
        for row in inserts {
            segment.extend_from_slice(row);
        }
        Arc::new(segment)
    };

    let tombstones = if deleted_ids.is_empty() {
        Arc::clone(&old.tombstones)
    } else {
        let mut tombstones = (*old.tombstones).clone();
        for &id in deleted_ids {
            tombstones.set(id);
        }
        Arc::new(tombstones)
    };

    let mut live = Vec::with_capacity(old.live.len() + inserts.len());
    if deleted_ids.is_empty() {
        live.extend_from_slice(&old.live);
    } else {
        live.extend(
            old.live
                .iter()
                .filter(|id| deleted_ids.binary_search(id).is_err()),
        );
    }
    live.extend(old_total..old_total + inserts.len() as u32);

    // Running stats. A dimension goes dirty when a deleted row attained
    // its min or max (ties included: whether another row still attains
    // it is what the rescan finds out). An empty entry's stats are
    // placeholders, not extremes of anything, so all of its dimensions
    // start dirty. Inserts fold in regardless; a rescan overwrites them.
    let mut per_dim = old.stats.per_dim.clone();
    let mut dirty = vec![old.live.is_empty(); per_dim.len()];
    for &id in deleted_ids {
        for (c, &v) in old.point(id).iter().enumerate() {
            dirty[c] |= v == per_dim[c].min || v == per_dim[c].max;
        }
    }
    for row in inserts {
        for (s, &v) in per_dim.iter_mut().zip(row) {
            s.min = s.min.min(v);
            s.max = s.max.max(v);
        }
    }
    let rescan: Vec<usize> = (0..dirty.len()).filter(|&c| dirty[c]).collect();

    let mut entry = DatasetEntry {
        name: old.name.clone(),
        id: old.id,
        version,
        base: Arc::clone(&old.base),
        segment,
        tombstones,
        stats: DatasetStats { per_dim },
        live: Arc::new(live),
        sharded: old.sharded.clone(),
    };
    if entry.live.is_empty() {
        entry.stats.per_dim.fill(EMPTY_DIM);
    } else if !rescan.is_empty() {
        let fresh = live_extremes(&entry, &rescan);
        for (&c, (min, max)) in rescan.iter().zip(fresh) {
            entry.stats.per_dim[c].min = min;
            entry.stats.per_dim[c].max = max;
        }
    }
    (entry, rescan.len())
}

/// Exact `(min, max)` of each of `dims` in one pass over the (non-empty)
/// live list.
fn live_extremes(entry: &DatasetEntry, dims: &[usize]) -> Vec<(f32, f32)> {
    let mut out = vec![(f32::INFINITY, f32::NEG_INFINITY); dims.len()];
    for &id in entry.live.iter() {
        let row = entry.point(id);
        for (slot, &c) in out.iter_mut().zip(dims) {
            *slot = (slot.0.min(row[c]), slot.1.max(row[c]));
        }
    }
    out
}

/// Builds a compacted successor: live survivors (in id order) plus
/// the inserts become the new base; ids are renumbered 0..n.
fn compacted_entry(
    old: &DatasetEntry,
    inserts: &[Vec<f32>],
    deleted_ids: &[u32],
    version: u64,
) -> DatasetEntry {
    let d = old.dims();
    let survivors = old
        .live
        .iter()
        .filter(|id| deleted_ids.binary_search(id).is_err());
    let mut values = Vec::with_capacity((old.live.len() + inserts.len()) * d);
    for &id in survivors {
        values.extend_from_slice(old.point(id));
    }
    for row in inserts {
        values.extend_from_slice(row);
    }
    let data = Dataset::from_flat(values, d).expect("validated rows");
    pristine_entry(&old.name, old.id, version, data, old.sharded.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds(rows: &[Vec<f32>]) -> Dataset {
        Dataset::from_rows(rows).unwrap()
    }

    #[test]
    fn register_computes_stats() {
        let catalog = Catalog::new();
        let e = catalog.register("t", ds(&[vec![1.0, 5.0], vec![3.0, 5.0], vec![2.0, 5.0]]));
        let s = e.stats();
        assert_eq!(s.per_dim[0].min, 1.0);
        assert_eq!(s.per_dim[0].max, 3.0);
        assert!(s.per_dim[1].is_constant());
        assert!(e.is_pristine());
    }

    #[test]
    fn versions_bump_and_ids_persist() {
        let catalog = Catalog::new();
        let a = catalog.register("x", ds(&[vec![1.0]]));
        let b = catalog.register("x", ds(&[vec![2.0]]));
        assert_eq!(a.id(), b.id());
        assert!(b.version() > a.version());
        // The live entry is the replacement.
        assert_eq!(catalog.get("x").unwrap().version(), b.version());
        // Eviction then re-registration keeps the id stable.
        catalog.evict("x");
        assert!(catalog.get("x").is_none());
        let c = catalog.register("x", ds(&[vec![3.0]]));
        assert_eq!(c.id(), a.id());
        assert!(c.version() > b.version());
    }

    #[test]
    fn list_is_sorted_and_sized() {
        let catalog = Catalog::new();
        catalog.register("b", ds(&[vec![1.0], vec![2.0]]));
        catalog.register("a", ds(&[vec![1.0]]));
        let listing = catalog.list();
        assert_eq!(listing[0].0, "a");
        assert_eq!(listing[1], ("b".to_string(), 1, 2));
        assert_eq!(catalog.len(), 2);
    }

    #[test]
    fn empty_dataset_registers_cleanly() {
        let catalog = Catalog::new();
        let e = catalog.register("empty", Dataset::from_flat(vec![], 3).unwrap());
        assert!(e.stats().per_dim.iter().all(DimStats::is_constant));
        assert_eq!(e.extreme_rows(1, false), Vec::<u32>::new());
    }

    #[test]
    fn insert_appends_segment_rows_with_stable_ids() {
        let catalog = Catalog::new();
        catalog.register("t", ds(&[vec![2.0, 5.0], vec![4.0, 1.0]]));
        let out = catalog
            .mutate("t", &[vec![1.0, 9.0], vec![3.0, 3.0]], &[], 0.25, None)
            .unwrap();
        assert_eq!(out.inserted_ids, vec![2, 3]);
        assert!(!out.compacted);
        let e = out.entry;
        assert_eq!(e.live_len(), 4);
        assert_eq!(e.total_rows(), 4);
        assert_eq!(e.point(2), &[1.0, 9.0]);
        assert_eq!(e.point(3), &[3.0, 3.0]);
        assert!(!e.is_pristine());
        // Stats patched: min on dim 0 now 1, max on dim 1 now 9.
        assert_eq!(e.stats().per_dim[0].min, 1.0);
        assert_eq!(e.stats().per_dim[1].max, 9.0);
        assert_eq!(e.extreme_rows(0, false), vec![2]);
        assert_eq!(e.extreme_rows(1, false), vec![1]);
        assert_eq!(out.stats_rescans, 0, "nothing was deleted");
    }

    /// Copy-on-write copies only what a batch changes.
    #[test]
    fn pure_batches_share_the_piece_they_leave_alone() {
        let catalog = Catalog::new();
        catalog.register("t", ds(&[vec![1.0], vec![2.0], vec![3.0]]));
        let a = catalog
            .mutate("t", &[vec![4.0]], &[], 2.0, None)
            .unwrap()
            .entry;
        let b = catalog.mutate("t", &[], &[1], 2.0, None).unwrap().entry;
        let c = catalog
            .mutate("t", &[vec![5.0]], &[], 2.0, None)
            .unwrap()
            .entry;
        assert!(
            Arc::ptr_eq(&a.segment, &b.segment),
            "a delete copies no rows"
        );
        assert!(
            Arc::ptr_eq(&b.tombstones, &c.tombstones),
            "an insert copies no bitset"
        );
        assert!(!Arc::ptr_eq(&a.tombstones, &b.tombstones));
        assert!(!Arc::ptr_eq(&b.segment, &c.segment));
    }

    /// `per_dim[c].{min,max}` equal a fresh pass over the live rows.
    fn assert_stats_exact(e: &DatasetEntry) {
        let fresh = compute_stats(&e.snapshot());
        for (c, (got, want)) in e.stats().per_dim.iter().zip(&fresh).enumerate() {
            assert_eq!((got.min, got.max), (want.min, want.max), "dim {c}");
        }
    }

    /// Applies a non-compacting batch and checks the stats it leaves.
    fn apply(catalog: &Catalog, inserts: &[Vec<f32>], deletes: &[u32]) -> MutationOutcome {
        let out = catalog.mutate("t", inserts, deletes, 2.0, None).unwrap();
        assert!(!out.compacted);
        assert_stats_exact(&out.entry);
        out
    }

    #[test]
    fn running_extremes_survive_deleting_an_extreme() {
        let catalog = Catalog::new();
        // dim 0: unique min (row 0), maximum tied across rows 2 and 3;
        // dim 1: min on row 4, max on row 2.
        catalog.register(
            "t",
            ds(&[
                vec![1.0, 5.3],
                vec![2.0, 5.2],
                vec![9.0, 6.0],
                vec![9.0, 5.5],
                vec![5.0, 4.0],
            ]),
        );
        // A row interior on both dimensions: nothing to rescan.
        let out = apply(&catalog, &[], &[1]);
        assert_eq!(out.stats_rescans, 0);
        // The unique minimum of dim 0 (interior on dim 1): only dim 0
        // is rescanned, and its min moves.
        let out = apply(&catalog, &[], &[0]);
        assert_eq!(out.stats_rescans, 1);
        assert_eq!(out.entry.stats().per_dim[0].min, 5.0);
        // One of two tied maxima (also dim 1's max): both dimensions are
        // rescanned, dim 0 finds the other holder and does not move.
        let out = apply(&catalog, &[], &[2]);
        assert_eq!(out.stats_rescans, 2);
        assert_eq!(out.entry.stats().per_dim[0].max, 9.0);
        assert_eq!(out.entry.stats().per_dim[1].max, 5.5);
        assert_eq!(out.entry.extreme_rows(0, true), vec![3]);
    }

    #[test]
    fn deleting_the_minimum_and_inserting_a_smaller_one() {
        let catalog = Catalog::new();
        catalog.register("t", ds(&[vec![3.0], vec![5.0], vec![7.0]]));
        let out = apply(&catalog, &[vec![2.0]], &[0]);
        assert_eq!(out.entry.stats().per_dim[0].min, 2.0);
        assert_eq!(out.entry.extreme_rows(0, false), vec![3]);
        // …and a larger one: the new min is an old row, not the insert.
        let out = apply(&catalog, &[vec![6.0]], &[3]);
        assert_eq!(out.entry.stats().per_dim[0].min, 5.0);
        assert_eq!(out.entry.extreme_rows(0, false), vec![1]);
    }

    #[test]
    fn placeholder_zeros_never_leak_into_the_extremes() {
        let catalog = Catalog::new();
        // Values on both sides of zero, so a folded placeholder would
        // show up as a max of 0 on dim 0 or a min of 0 on dim 1.
        catalog.register("t", ds(&[vec![-4.0, 4.0], vec![-2.0, 8.0]]));
        let emptied = apply(&catalog, &[], &[0, 1]);
        assert_eq!(emptied.entry.live_len(), 0);
        assert_eq!(emptied.entry.extreme_rows(0, false), Vec::<u32>::new());
        let out = apply(&catalog, &[vec![-3.0, 5.0]], &[]);
        assert_eq!(out.stats_rescans, 2, "an empty entry rescans everything");
        let s = &out.entry.stats().per_dim;
        assert_eq!((s[0].min, s[0].max), (-3.0, -3.0));
        assert_eq!((s[1].min, s[1].max), (5.0, 5.0));
        // Emptied and refilled inside one batch.
        let out = apply(&catalog, &[vec![-7.0, 6.0], vec![-6.0, 7.0]], &[2]);
        let s = &out.entry.stats().per_dim;
        assert_eq!((s[0].min, s[0].max), (-7.0, -6.0));
        assert_eq!((s[1].min, s[1].max), (6.0, 7.0));
        // Registered empty, then filled.
        catalog.register("t", Dataset::from_flat(vec![], 2).unwrap());
        let out = apply(&catalog, &[vec![-1.0, 1.0]], &[]);
        assert_eq!(out.entry.stats().per_dim[0].max, -1.0);
        assert_eq!(out.entry.stats().per_dim[1].min, 1.0);
    }

    #[test]
    fn a_dimension_becomes_and_stops_being_constant() {
        let catalog = Catalog::new();
        catalog.register("t", ds(&[vec![1.0, 5.0], vec![2.0, 5.0], vec![1.0, 7.0]]));
        // Deleting the only row off 5 makes dim 1 constant…
        let out = apply(&catalog, &[], &[2]);
        assert!(out.entry.stats().per_dim[1].is_constant());
        assert!(!out.entry.stats().per_dim[0].is_constant());
        // …an insert off 5 ends that (a fold, no rescan)…
        let out = apply(&catalog, &[vec![1.5, 4.0]], &[]);
        assert_eq!(out.stats_rescans, 0);
        assert!(!out.entry.stats().per_dim[1].is_constant());
        // …and deleting it again restores it through a rescan.
        let out = apply(&catalog, &[], &[3]);
        assert_eq!(out.stats_rescans, 1);
        assert!(out.entry.stats().per_dim[1].is_constant());
        // Compaction takes the full pass and reports no rescan.
        let out = catalog.mutate("t", &[], &[0], 0.0, None).unwrap();
        assert!(out.compacted);
        assert_eq!(out.stats_rescans, 0);
        assert_stats_exact(&out.entry);
        assert!(out.entry.stats().per_dim[0].is_constant());
    }

    #[test]
    fn delete_tombstones_and_patches_stats() {
        let catalog = Catalog::new();
        catalog.register(
            "t",
            ds(&[
                vec![1.0, 2.0],
                vec![2.0, 1.0],
                vec![3.0, 9.0],
                vec![4.0, 4.0],
            ]),
        );
        let out = catalog.mutate("t", &[], &[0, 2], 0.9, None).unwrap();
        assert!(!out.compacted);
        let e = out.entry;
        assert_eq!(e.live_len(), 2);
        assert_eq!(e.tombstone_count(), 2);
        assert!(!e.is_live(0) && e.is_live(1) && !e.is_live(2) && e.is_live(3));
        assert_eq!(**e.live_ids(), vec![1, 3]);
        // min/max reflect the survivors only.
        assert_eq!(e.stats().per_dim[0].min, 2.0);
        assert_eq!(e.stats().per_dim[0].max, 4.0);
        assert_eq!(e.stats().per_dim[1].max, 4.0);
        assert_eq!(e.extreme_rows(0, false), vec![1]);
        assert_eq!(e.extreme_rows(1, true), vec![3]);
        // Snapshot materializes the survivors in id order.
        assert_eq!(
            e.snapshot().rows().collect::<Vec<_>>(),
            vec![&[2.0f32, 1.0][..], &[4.0, 4.0]]
        );
    }

    #[test]
    fn mutation_validates_rows_and_ids() {
        let catalog = Catalog::new();
        catalog.register("t", ds(&[vec![1.0, 2.0]]));
        assert!(matches!(
            catalog.mutate("t", &[vec![1.0]], &[], 0.25, None),
            Err(EngineError::RowArity {
                row: 0,
                expected: 2,
                got: 1
            })
        ));
        assert!(matches!(
            catalog.mutate("t", &[vec![1.0, f32::NAN]], &[], 0.25, None),
            Err(EngineError::NonFiniteValue { row: 0, col: 1 })
        ));
        assert!(matches!(
            catalog.mutate("t", &[], &[7], 0.25, None),
            Err(EngineError::UnknownRow { id: 7 })
        ));
        // Duplicate delete within one batch.
        assert!(matches!(
            catalog.mutate("t", &[], &[0, 0], 0.25, None),
            Err(EngineError::UnknownRow { id: 0 })
        ));
        assert!(matches!(
            catalog.mutate("missing", &[], &[], 0.25, None),
            Err(EngineError::UnknownDataset(_))
        ));
        // Deleting an already-dead id fails too.
        catalog
            .mutate("t", &[vec![3.0, 4.0]], &[0], 0.9, None)
            .unwrap();
        assert!(matches!(
            catalog.mutate("t", &[], &[0], 0.9, None),
            Err(EngineError::UnknownRow { id: 0 })
        ));
    }

    #[test]
    fn compaction_renumbers_survivors_and_clears_the_log() {
        let catalog = Catalog::new();
        catalog.register("t", ds(&[vec![1.0], vec![2.0], vec![3.0], vec![4.0]]));
        // Deleting half trips a 0.25 threshold immediately.
        let out = catalog
            .mutate("t", &[vec![9.0]], &[0, 2], 0.25, None)
            .unwrap();
        assert!(out.compacted);
        let e = out.entry;
        assert!(e.is_pristine());
        assert_eq!(e.live_len(), 3);
        assert_eq!(e.total_rows(), 3);
        // Survivors keep their order: old ids 1, 3 become 0, 1; the
        // insert lands at the end.
        assert_eq!(e.point(0), &[2.0]);
        assert_eq!(e.point(1), &[4.0]);
        assert_eq!(e.point(2), &[9.0]);
        assert_eq!(out.inserted_ids, vec![2]);
    }

    #[test]
    fn sharded_registration_tracks_mutations_and_compaction() {
        let catalog = Catalog::new();
        let data = ds(&[
            vec![1.0, 2.0],
            vec![2.0, 1.0],
            vec![3.0, 9.0],
            vec![4.0, 4.0],
        ]);
        let e = catalog.register_sharded("t", data, 2, PartitionerKind::Grid);
        let store = e.sharded().expect("registered sharded").clone();
        assert_eq!(store.k(), 2);
        assert!(catalog
            .register("plain", ds(&[vec![1.0]]))
            .sharded()
            .is_none());

        // The partitioner is frozen: a patch batch and a compaction
        // (which renumbers ids) both hand it on unchanged, so every
        // live row of every version routes exactly as it did at
        // registration.
        let patched = catalog
            .mutate("t", &[vec![0.5, 0.5]], &[2], 0.9, None)
            .unwrap();
        assert!(!patched.compacted);
        let compacted = catalog.mutate("t", &[], &[0, 1], 0.1, None).unwrap();
        assert!(compacted.compacted);
        for entry in [&patched.entry, &compacted.entry] {
            let now = entry.sharded().expect("successors stay sharded");
            assert_eq!(now.k(), 2);
            assert_eq!(now.partitioner_kind(), PartitionerKind::Grid);
            for &id in entry.live_ids().iter() {
                let row = entry.point(id);
                assert_eq!(now.shard_of(id, row), store.shard_of(id, row));
            }
        }
    }
}
