//! The LRU result cache, bounded by **bytes**.
//!
//! Keys are `(dataset id, dataset version, dimension mask, max-pref
//! mask, query kind)` — everything that determines a result's
//! membership. The query's `limit` is deliberately *not* part of the
//! key: the cache stores the full index list and limits are applied as
//! views, so one computation serves every limit.
//!
//! Counting operators cache their per-member counts alongside the ids
//! ([`CachedValue`]), which enables **ancestor reuse**
//! ([`ResultCache::find_ancestor`]): a resident skyband at `k'`
//! answers every skyband at `k ≤ k'` — and the plain skyline — by
//! filtering its stored dominator counts, and a resident top-k
//! dominating list answers every smaller `k` by truncation. No
//! dataset scan runs at all.
//!
//! Skylines range from one index to ~n of them, so a fixed entry count
//! bounds nothing; the cache charges each entry its actual index-list
//! footprint (plus a bookkeeping constant) against a byte budget and
//! evicts from the LRU tail until it fits.
//!
//! Versioned keys make stale hits impossible. Re-registration purges
//! dead entries eagerly ([`ResultCache::purge_dataset_below`]);
//! mutation batches first *patch* the plain skylines forward to the
//! new version (the engine applies the delta kernels and re-inserts via
//! [`ResultCache::insert_patched`]), then purge the rest.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::query::QueryKind;

/// Identity of one cached result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Stable per-name dataset id assigned by the catalog.
    pub dataset_id: u64,
    /// Dataset version the result was computed against.
    pub version: u64,
    /// Bitmask of the (canonical) selected dimensions.
    pub dim_mask: u32,
    /// Bitmask of the dimensions with a `Max` preference.
    pub max_mask: u32,
    /// Which operator of the query family the result answers.
    pub kind: QueryKind,
}

/// One cached result: the member ids plus, for counting operators, the
/// per-member dominance counts parallel to them (skyband dominator
/// counts, top-k dominating scores). Plain skylines carry no counts —
/// every member's dominator count is zero by definition.
#[derive(Debug, Clone)]
pub struct CachedValue {
    /// Result member ids (ascending for skyline/skyband, score order
    /// for top-k dominating).
    pub ids: Arc<Vec<u32>>,
    /// Per-member counts, parallel to `ids`, when the operator has
    /// them.
    pub counts: Option<Arc<Vec<u32>>>,
}

impl CachedValue {
    /// A count-less value — the plain-skyline form.
    pub fn ids_only(ids: Arc<Vec<u32>>) -> Self {
        Self { ids, counts: None }
    }
}

/// Bookkeeping bytes charged per entry on top of its index list: the
/// key, LRU links, map slot, and `Arc` header, rounded up.
pub(crate) const ENTRY_OVERHEAD_BYTES: usize = 96;

fn cost_of(value: &CachedValue) -> usize {
    let counts = value.counts.as_ref().map_or(0, |c| c.len());
    ENTRY_OVERHEAD_BYTES + (value.ids.len() + counts) * std::mem::size_of::<u32>()
}

/// Monotonic counters describing cache effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered from the cache.
    pub hits: u64,
    /// Probes that missed.
    pub misses: u64,
    /// Results inserted.
    pub insertions: u64,
    /// Entries dropped by byte-budget pressure.
    pub evictions: u64,
    /// Entries dropped by dataset re-registration, eviction, or a
    /// mutation batch that superseded their version without patching
    /// them.
    pub invalidations: u64,
    /// Entries patched forward across a dataset version by applying a
    /// mutation delta instead of recomputing.
    pub patches: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Bytes currently charged against the budget.
    pub bytes: usize,
    /// The configured byte budget.
    pub budget_bytes: usize,
}

impl CacheStats {
    /// Hit fraction over all probes so far (0 when unprobed).
    pub fn hit_rate(&self) -> f64 {
        let probes = self.hits + self.misses;
        if probes == 0 {
            0.0
        } else {
            self.hits as f64 / probes as f64
        }
    }
}

const NIL: usize = usize::MAX;

struct Node {
    key: CacheKey,
    value: CachedValue,
    prev: usize,
    next: usize,
}

/// Intrusive doubly-linked LRU list over a slab, O(1) for get/insert/
/// evict. `head` is most recent, `tail` least.
struct Inner {
    map: HashMap<CacheKey, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    bytes: usize,
}

impl Inner {
    fn detach(&mut self, slot: usize) {
        let (prev, next) = (self.nodes[slot].prev, self.nodes[slot].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next].prev = prev;
        }
    }

    fn push_front(&mut self, slot: usize) {
        self.nodes[slot].prev = NIL;
        self.nodes[slot].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    fn remove_slot(&mut self, slot: usize) {
        self.detach(slot);
        self.map.remove(&self.nodes[slot].key);
        self.bytes -= cost_of(&self.nodes[slot].value);
        self.nodes[slot].value = CachedValue::ids_only(Arc::new(Vec::new()));
        self.free.push(slot);
    }
}

/// A thread-safe, byte-bounded LRU cache of skyline index lists.
pub struct ResultCache {
    inner: Mutex<Inner>,
    budget_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    patches: AtomicU64,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("budget_bytes", &self.budget_bytes)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ResultCache {
    /// A cache charging at most `budget_bytes` of result storage; `0`
    /// disables caching (every probe misses, inserts are dropped).
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                nodes: Vec::new(),
                free: Vec::new(),
                head: NIL,
                tail: NIL,
                bytes: 0,
            }),
            budget_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            patches: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks a key up, refreshing its recency on a hit.
    pub fn get(&self, key: &CacheKey) -> Option<CachedValue> {
        if self.budget_bytes == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut inner = self.lock();
        match inner.map.get(key).copied() {
            Some(slot) => {
                inner.detach(slot);
                inner.push_front(slot);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(inner.nodes[slot].value.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Like [`get`](Self::get) (including the recency refresh) but
    /// without touching the hit/miss counters. For de-duplication
    /// re-probes whose query was already counted once.
    pub fn get_uncounted(&self, key: &CacheKey) -> Option<CachedValue> {
        if self.budget_bytes == 0 {
            return None;
        }
        let mut inner = self.lock();
        let slot = inner.map.get(key).copied()?;
        inner.detach(slot);
        inner.push_front(slot);
        Some(inner.nodes[slot].value.clone())
    }

    /// An **ancestor** entry able to answer `key` by filtering: same
    /// dataset, version, subspace, and preferences, holding a skyband
    /// at `k' ≥` the `k` the probe needs (a skyband is a superset of
    /// every smaller-`k` skyband and of the skyline, and its stored
    /// dominator counts say which members survive the tighter bound) —
    /// or, for a top-k dominating probe, a longer top-`k'` list that
    /// answers by truncation. Returns the ancestor's key and value;
    /// prefers the *smallest* sufficient `k'` (fewest rows to filter)
    /// and refreshes its recency — it is serving real traffic. Does
    /// not touch the hit/miss counters: the exact-key probe already
    /// counted this query.
    pub fn find_ancestor(&self, key: &CacheKey) -> Option<(CacheKey, CachedValue)> {
        if self.budget_bytes == 0 {
            return None;
        }
        let needed = key.kind.k();
        let mut inner = self.lock();
        let (found, slot) = {
            let nodes = &inner.nodes;
            inner
                .map
                .iter()
                .filter(|(k, &slot)| {
                    k.dataset_id == key.dataset_id
                        && k.version == key.version
                        && k.dim_mask == key.dim_mask
                        && k.max_mask == key.max_mask
                        && k.kind != key.kind
                        && match (key.kind, k.kind) {
                            (
                                QueryKind::Skyline | QueryKind::Skyband { .. },
                                QueryKind::Skyband { k: have },
                            ) => have >= needed && nodes[slot].value.counts.is_some(),
                            (
                                QueryKind::TopKDominating { .. },
                                QueryKind::TopKDominating { k: have },
                            ) => have >= needed,
                            _ => false,
                        }
                })
                .min_by_key(|(k, _)| k.kind.k())
                .map(|(k, &slot)| (*k, slot))?
        };
        inner.detach(slot);
        inner.push_front(slot);
        Some((found, inner.nodes[slot].value.clone()))
    }

    /// Inserts (or refreshes) a result, evicting least recently used
    /// entries until the byte budget holds. A single result larger
    /// than the whole budget is not cached at all.
    pub fn insert(&self, key: CacheKey, value: CachedValue) {
        self.insert_inner(key, value);
    }

    /// [`insert`](Self::insert), reporting whether the value is now
    /// resident (false: zero budget, or the result alone exceeds it).
    fn insert_inner(&self, key: CacheKey, value: CachedValue) -> bool {
        let cost = cost_of(&value);
        if self.budget_bytes == 0 || cost > self.budget_bytes {
            return false;
        }
        let mut inner = self.lock();
        if let Some(&slot) = inner.map.get(&key) {
            // Concurrent duplicate computation: keep the newer value.
            let old_cost = cost_of(&inner.nodes[slot].value);
            inner.nodes[slot].value = value;
            inner.bytes = inner.bytes - old_cost + cost;
            inner.detach(slot);
            inner.push_front(slot);
        } else {
            let slot = match inner.free.pop() {
                Some(s) => {
                    inner.nodes[s] = Node {
                        key,
                        value,
                        prev: NIL,
                        next: NIL,
                    };
                    s
                }
                None => {
                    inner.nodes.push(Node {
                        key,
                        value,
                        prev: NIL,
                        next: NIL,
                    });
                    inner.nodes.len() - 1
                }
            };
            inner.bytes += cost;
            inner.map.insert(key, slot);
            inner.push_front(slot);
            self.insertions.fetch_add(1, Ordering::Relaxed);
        }
        // Evict from the tail until the budget holds. The fresh entry
        // sits at the head and fits on its own, so the loop always
        // terminates before reaching it.
        while inner.bytes > self.budget_bytes {
            let victim = inner.tail;
            debug_assert_ne!(victim, NIL);
            inner.remove_slot(victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Inserts a result produced by patching a prior version forward.
    /// Counts toward [`CacheStats::patches`] only when the patched
    /// entry actually becomes resident — a zero-budget cache (or an
    /// oversized result) drops the patch and must not report it.
    pub fn insert_patched(&self, key: CacheKey, value: CachedValue) {
        if self.insert_inner(key, value) {
            self.patches.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Removes and returns every **plain-skyline** entry of
    /// `dataset_id` at exactly `version`, without counting
    /// invalidations — the caller patches them forward with the
    /// maintenance kernels and re-inserts via
    /// [`insert_patched`](Self::insert_patched). Counting entries
    /// (skyband, top-k dominating) are left in place: the delta
    /// kernels cannot maintain dominance counts, so the caller purges
    /// them with the rest of the superseded version.
    pub fn take_dataset_version(
        &self,
        dataset_id: u64,
        version: u64,
    ) -> Vec<(CacheKey, Arc<Vec<u32>>)> {
        if self.budget_bytes == 0 {
            return Vec::new();
        }
        let mut inner = self.lock();
        let victims: Vec<usize> = inner
            .map
            .iter()
            .filter(|(k, _)| {
                k.dataset_id == dataset_id && k.version == version && k.kind.is_skyline()
            })
            .map(|(_, &slot)| slot)
            .collect();
        let mut out = Vec::with_capacity(victims.len());
        for slot in victims {
            out.push((
                inner.nodes[slot].key,
                Arc::clone(&inner.nodes[slot].value.ids),
            ));
            inner.remove_slot(slot);
        }
        out
    }

    /// Drops every entry belonging to `dataset_id` (all versions),
    /// returning how many. Called on dataset eviction.
    pub fn purge_dataset(&self, dataset_id: u64) -> usize {
        self.purge_matching(|k| k.dataset_id == dataset_id)
    }

    /// Drops entries of `dataset_id` with a version **below**
    /// `version`, returning how many. Called on re-registration and
    /// compaction (where results already computed against the fresh
    /// version must survive), and after every mutation batch, once the
    /// patchable entries have been carried forward.
    pub fn purge_dataset_below(&self, dataset_id: u64, version: u64) -> usize {
        self.purge_matching(|k| k.dataset_id == dataset_id && k.version < version)
    }

    fn purge_matching(&self, victim: impl Fn(&CacheKey) -> bool) -> usize {
        if self.budget_bytes == 0 {
            return 0;
        }
        let mut inner = self.lock();
        let victims: Vec<usize> = inner
            .map
            .iter()
            .filter(|(k, _)| victim(k))
            .map(|(_, &slot)| slot)
            .collect();
        let n = victims.len();
        for slot in victims {
            inner.remove_slot(slot);
        }
        self.invalidations.fetch_add(n as u64, Ordering::Relaxed);
        n
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        let (entries, bytes) = {
            let inner = self.lock();
            (inner.map.len(), inner.bytes)
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            patches: self.patches.load(Ordering::Relaxed),
            entries,
            bytes,
            budget_bytes: self.budget_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(id: u64, ver: u64, mask: u32) -> CacheKey {
        CacheKey {
            dataset_id: id,
            version: ver,
            dim_mask: mask,
            max_mask: 0,
            kind: QueryKind::Skyline,
        }
    }

    fn val(v: &[u32]) -> CachedValue {
        CachedValue::ids_only(Arc::new(v.to_vec()))
    }

    fn counted(ids: &[u32], counts: &[u32]) -> CachedValue {
        CachedValue {
            ids: Arc::new(ids.to_vec()),
            counts: Some(Arc::new(counts.to_vec())),
        }
    }

    /// Budget fitting exactly `n` single-index results.
    fn budget_for(n: usize) -> usize {
        n * (ENTRY_OVERHEAD_BYTES + 4)
    }

    #[test]
    fn hit_and_miss() {
        let c = ResultCache::new(budget_for(4));
        assert!(c.get(&key(1, 1, 0b11)).is_none());
        c.insert(key(1, 1, 0b11), val(&[0, 2]));
        assert_eq!(*c.get(&key(1, 1, 0b11)).unwrap().ids, vec![0, 2]);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert_eq!(s.bytes, ENTRY_OVERHEAD_BYTES + 8);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn byte_budget_evicts_least_recent() {
        let c = ResultCache::new(budget_for(2));
        c.insert(key(1, 1, 1), val(&[1]));
        c.insert(key(1, 1, 2), val(&[2]));
        c.get(&key(1, 1, 1)); // refresh 1 → victim is 2
        c.insert(key(1, 1, 4), val(&[4]));
        assert!(c.get(&key(1, 1, 1)).is_some());
        assert!(c.get(&key(1, 1, 2)).is_none());
        assert!(c.get(&key(1, 1, 4)).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn one_large_result_evicts_many_small_ones() {
        // Two small entries fit; a result worth both of them evicts
        // both. Entry count is irrelevant, bytes decide.
        let c = ResultCache::new(budget_for(2));
        c.insert(key(1, 1, 1), val(&[1]));
        c.insert(key(1, 1, 2), val(&[2]));
        let big: Vec<u32> = (0..(ENTRY_OVERHEAD_BYTES / 4 + 2) as u32).collect();
        c.insert(key(1, 1, 4), val(&big));
        assert!(c.get(&key(1, 1, 4)).is_some());
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().evictions, 2);
        assert!(c.stats().bytes <= c.stats().budget_bytes);
    }

    #[test]
    fn oversized_result_is_not_cached() {
        let c = ResultCache::new(budget_for(1));
        c.insert(key(1, 1, 1), val(&[1]));
        let huge: Vec<u32> = (0..64).collect();
        c.insert(key(1, 1, 2), val(&huge));
        // The resident small entry survives; the oversized one was
        // dropped on the floor rather than flushing the cache.
        assert!(c.get(&key(1, 1, 1)).is_some());
        assert!(c.get(&key(1, 1, 2)).is_none());
    }

    #[test]
    fn uncounted_probe_serves_without_counting() {
        let c = ResultCache::new(budget_for(2));
        c.insert(key(1, 1, 1), val(&[7]));
        assert_eq!(*c.get_uncounted(&key(1, 1, 1)).unwrap().ids, vec![7]);
        assert!(c.get_uncounted(&key(1, 1, 9)).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
        // But it still refreshes recency: 1 survives the next insert.
        c.insert(key(1, 1, 2), val(&[2]));
        c.get_uncounted(&key(1, 1, 1));
        c.insert(key(1, 1, 4), val(&[4]));
        assert!(c.get_uncounted(&key(1, 1, 1)).is_some());
        assert!(c.get_uncounted(&key(1, 1, 2)).is_none());
    }

    #[test]
    fn versions_do_not_collide() {
        let c = ResultCache::new(budget_for(4));
        c.insert(key(1, 1, 1), val(&[1]));
        c.insert(key(1, 2, 1), val(&[2]));
        assert_eq!(*c.get(&key(1, 1, 1)).unwrap().ids, vec![1]);
        assert_eq!(*c.get(&key(1, 2, 1)).unwrap().ids, vec![2]);
    }

    #[test]
    fn purge_removes_only_that_dataset() {
        let c = ResultCache::new(budget_for(8));
        c.insert(key(1, 1, 1), val(&[1]));
        c.insert(key(1, 2, 2), val(&[2]));
        c.insert(key(9, 1, 1), val(&[9]));
        c.purge_dataset(1);
        assert!(c.get(&key(1, 1, 1)).is_none());
        assert!(c.get(&key(1, 2, 2)).is_none());
        assert!(c.get(&key(9, 1, 1)).is_some());
        assert_eq!(c.stats().invalidations, 2);
    }

    #[test]
    fn purge_below_spares_the_fresh_version() {
        let c = ResultCache::new(budget_for(8));
        c.insert(key(1, 1, 1), val(&[1]));
        c.insert(key(1, 2, 1), val(&[2])); // already computed against v2
        c.insert(key(9, 1, 1), val(&[9]));
        c.purge_dataset_below(1, 2);
        assert!(c.get(&key(1, 1, 1)).is_none());
        assert!(c.get(&key(1, 2, 1)).is_some());
        assert!(c.get(&key(9, 1, 1)).is_some());
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn take_version_removes_and_returns_for_patching() {
        let c = ResultCache::new(budget_for(8));
        c.insert(key(1, 3, 1), val(&[1]));
        c.insert(key(1, 3, 2), val(&[1, 2]));
        c.insert(key(1, 2, 1), val(&[0])); // older version stays
        c.insert(key(9, 3, 1), val(&[9])); // other dataset stays
        let mut taken = c.take_dataset_version(1, 3);
        taken.sort_by_key(|(k, _)| k.dim_mask);
        assert_eq!(taken.len(), 2);
        assert_eq!(*taken[0].1, vec![1]);
        assert_eq!(*taken[1].1, vec![1, 2]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().invalidations, 0);
        // Patched results come back at the new version.
        c.insert_patched(key(1, 4, 1), val(&[1, 7]));
        assert_eq!(c.stats().patches, 1);
        assert_eq!(*c.get(&key(1, 4, 1)).unwrap().ids, vec![1, 7]);
    }

    #[test]
    fn kinds_do_not_collide_and_counting_entries_are_not_patched() {
        let c = ResultCache::new(budget_for(8));
        let band = CacheKey {
            kind: QueryKind::Skyband { k: 3 },
            ..key(1, 3, 1)
        };
        c.insert(key(1, 3, 1), val(&[1]));
        c.insert(band, counted(&[1, 2], &[0, 2]));
        assert_eq!(*c.get(&key(1, 3, 1)).unwrap().ids, vec![1]);
        assert_eq!(*c.get(&band).unwrap().ids, vec![1, 2]);
        // Counts are charged against the budget too.
        assert_eq!(c.stats().bytes, 2 * ENTRY_OVERHEAD_BYTES + 4 + (2 + 2) * 4);
        // Patch-forward takes the skyline entry only; the skyband stays
        // behind at its dead version until the version purge.
        let taken = c.take_dataset_version(1, 3);
        assert_eq!(taken.len(), 1);
        assert!(taken[0].0.kind.is_skyline());
        assert!(c.get_uncounted(&band).is_some());
        assert_eq!(c.purge_dataset_below(1, 4), 1);
        assert!(c.get_uncounted(&band).is_none());
    }

    #[test]
    fn find_ancestor_serves_smaller_k_and_skyline() {
        let c = ResultCache::new(budget_for(8));
        let band = |k: u32| CacheKey {
            kind: QueryKind::Skyband { k },
            ..key(1, 2, 0b11)
        };
        c.insert(band(8), counted(&[0, 3, 5], &[0, 2, 7]));
        c.insert(band(5), counted(&[0, 3], &[0, 2]));
        // Skyband probe at k=3: the *smallest* sufficient ancestor
        // (k'=5) wins.
        let (k5, v5) = c
            .find_ancestor(&CacheKey {
                kind: QueryKind::Skyband { k: 3 },
                ..key(1, 2, 0b11)
            })
            .unwrap();
        assert_eq!(k5.kind, QueryKind::Skyband { k: 5 });
        assert_eq!(*v5.ids, vec![0, 3]);
        // A skyline probe is the k=1 filter of any skyband.
        let (ka, _) = c.find_ancestor(&key(1, 2, 0b11)).unwrap();
        assert_eq!(ka.kind, QueryKind::Skyband { k: 5 });
        // Larger k than any resident skyband: no ancestor.
        assert!(c
            .find_ancestor(&CacheKey {
                kind: QueryKind::Skyband { k: 9 },
                ..key(1, 2, 0b11)
            })
            .is_none());
        // Version, subspace, and preference must all match.
        assert!(c.find_ancestor(&key(1, 3, 0b11)).is_none());
        assert!(c.find_ancestor(&key(1, 2, 0b1)).is_none());
        assert!(c
            .find_ancestor(&CacheKey {
                max_mask: 1,
                ..key(1, 2, 0b11)
            })
            .is_none());
        // Top-k dominating probes truncate longer top-k' lists, and
        // never cross kinds.
        let topk = CacheKey {
            kind: QueryKind::TopKDominating { k: 10 },
            ..key(1, 2, 0b11)
        };
        c.insert(topk, counted(&[5, 1, 2], &[9, 4, 0]));
        let (kt, vt) = c
            .find_ancestor(&CacheKey {
                kind: QueryKind::TopKDominating { k: 2 },
                ..key(1, 2, 0b11)
            })
            .unwrap();
        assert_eq!(kt.kind, QueryKind::TopKDominating { k: 10 });
        assert_eq!(*vt.ids, vec![5, 1, 2]);
    }

    #[test]
    fn zero_budget_disables() {
        let c = ResultCache::new(0);
        c.insert(key(1, 1, 1), val(&[1]));
        assert!(c.get(&key(1, 1, 1)).is_none());
        assert_eq!(c.len(), 0);
        assert!(c.take_dataset_version(1, 1).is_empty());
    }

    #[test]
    fn slab_reuses_slots_and_bytes_balance_under_churn() {
        let c = ResultCache::new(budget_for(3));
        for i in 0..50u32 {
            c.insert(key(1, 1, i), val(&[i]));
        }
        assert_eq!(c.len(), 3);
        let inner = c.lock();
        assert!(inner.nodes.len() <= 4, "slab never grew past capacity");
        assert_eq!(inner.bytes, 3 * (ENTRY_OVERHEAD_BYTES + 4));
        drop(inner);
        for i in 47..50u32 {
            assert_eq!(*c.get(&key(1, 1, i)).unwrap().ids, vec![i]);
        }
    }

    #[test]
    fn zero_budget_drops_patches_without_counting_them() {
        let c = ResultCache::new(0);
        c.insert_patched(key(1, 2, 1), val(&[1, 2]));
        assert!(c.get_uncounted(&key(1, 2, 1)).is_none());
        assert_eq!(c.stats().patches, 0, "a dropped patch is not a patch");
        assert_eq!(c.len(), 0);
        // The whole patch-forward flow is a clean no-op at zero budget.
        assert!(c.take_dataset_version(1, 2).is_empty());
        assert_eq!(c.purge_dataset_below(1, 9), 0);
    }

    #[test]
    fn oversized_patched_result_is_dropped_not_counted() {
        let c = ResultCache::new(budget_for(1));
        let huge: Vec<u32> = (0..64).collect();
        c.insert_patched(key(1, 2, 1), val(&huge));
        assert_eq!(c.stats().patches, 0);
        // A fitting patch still counts.
        c.insert_patched(key(1, 2, 2), val(&[7]));
        assert_eq!(c.stats().patches, 1);
    }

    #[test]
    fn patch_chain_across_three_versions_tracks_the_newest() {
        // v1 → v2 → v3 → v4: each hop takes the prior version's entry
        // and re-inserts it patched, so only the newest version is
        // ever resident.
        let c = ResultCache::new(budget_for(8));
        c.insert(key(1, 1, 1), val(&[10]));
        for ver in 1..=3u64 {
            let taken = c.take_dataset_version(1, ver);
            assert_eq!(taken.len(), 1, "v{ver} entry present");
            let (k, v) = &taken[0];
            let mut sky = (**v).clone();
            sky.push(10 + ver as u32);
            c.insert_patched(
                CacheKey {
                    version: ver + 1,
                    ..*k
                },
                val(&sky),
            );
            // The old version is gone; only the patched one remains.
            assert!(c.get_uncounted(&key(1, ver, 1)).is_none());
            assert_eq!(*c.get_uncounted(&key(1, ver + 1, 1)).unwrap().ids, sky);
        }
        assert_eq!(c.stats().patches, 3);
        assert_eq!(*c.get(&key(1, 4, 1)).unwrap().ids, vec![10, 11, 12, 13]);
        assert_eq!(c.len(), 1, "the chain never duplicates entries");
    }

    #[test]
    fn eviction_pressure_racing_insert_patched_stays_consistent() {
        // Patching threads re-insert under a budget so small that every
        // insert evicts, while probe threads churn recency and a purger
        // invalidates versions — the invariants (bytes within budget,
        // counters balanced, no deadlock) must hold throughout.
        let c = Arc::new(ResultCache::new(budget_for(4)));
        let patched_total = 6 * 200;
        let mut handles = Vec::new();
        for t in 0..6u64 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let ver = i % 8;
                    c.insert_patched(key(1, ver, (t as u32 % 4) + 1), val(&[t as u32, i as u32]));
                    if i % 3 == 0 {
                        c.get_uncounted(&key(1, ver, 1));
                    }
                }
            }));
        }
        for t in 0..2u64 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    c.purge_dataset_below(1, (i + t) % 8);
                    c.get_uncounted(&key(1, i % 8, 2));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = c.stats();
        assert!(s.bytes <= s.budget_bytes, "{s:?}");
        assert_eq!(s.patches, patched_total, "every fitting patch counted");
        assert_eq!(
            s.entries as u64 + s.evictions + s.invalidations,
            s.insertions,
            "inserted entries are resident, evicted, or invalidated: {s:?}"
        );
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let c = Arc::new(ResultCache::new(budget_for(16)));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..500u32 {
                        let k = key(t % 2, 1, i % 32);
                        if let Some(v) = c.get(&k) {
                            assert_eq!(v.ids.first().copied(), Some(i % 32));
                        } else {
                            c.insert(k, val(&[i % 32]));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.len() <= 16);
        assert!(c.stats().bytes <= c.stats().budget_bytes);
    }
}
