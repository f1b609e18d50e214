//! Incremental skyline maintenance: delta kernels over a cached result.
//!
//! A materialized skyline can absorb point mutations far cheaper than a
//! recomputation (see the maintenance literature surveyed in
//! PAPERS.md):
//!
//! * **Insert.** A new point is tested against the cached skyline
//!   *only*: strict dominance is transitive, so a point dominated by
//!   anything is dominated by a skyline member. The point is either
//!   dominated (skyline unchanged) or joins, evicting the members it
//!   dominates — O(|SKY|·d) per point ([`insert_point`]).
//! * **Delete of a non-skyline point.** The skyline is unchanged; no
//!   dominance test runs at all ([`remove_points`] detects this from
//!   the index lists alone).
//! * **Delete of a skyline member `r`.** Only points in `r`'s
//!   *exclusive dominance region* — strictly dominated by `r` but by no
//!   surviving member — can surface. One pass over the live points
//!   collects them (most fail the first, cheap test), and a skyline of
//!   that small candidate set completes the repair.
//!
//! The kernels read rows through the [`RowSource`] trait so that the
//! query engine can patch cached results straight off its segmented
//! (base + append) storage without materializing a dataset, and they
//! take the subspace and preference mask explicitly so one stored
//! dataset serves every cached projection. All index lists are kept
//! sorted ascending — the invariant the engine's cache relies on.

use crate::dominance::simd::{flip_pref, ColumnRange, TileStore, TILE_LANES};
use crate::dominance::strictly_dominates_on_pref;
use skyline_data::Dataset;

/// Inserted-batch size from which [`insert_points`] gathers the cached
/// skyline into pref-folded [`TileStore`] tiles (two tiles' worth of
/// points): building the tiles costs one pass over the skyline, so the
/// batch must be long enough to amortize it before the tile scans pay
/// off. Below it the scalar per-point kernel wins.
pub const BATCH_TILE_MIN: usize = 2 * TILE_LANES;

/// Random access to the points a skyline's indices refer to.
///
/// Implemented by [`Dataset`] (index = row number) and by the query
/// engine's segmented dataset entries (index = stable row id).
pub trait RowSource {
    /// The coordinates of row `id`. `id` must be a valid, live row.
    fn point_of(&self, id: u32) -> &[f32];

    /// Bounds of each full-space column over the rows, when the source
    /// keeps them. The batched insert path codes its tiles against
    /// them; without them it codes range-free. Answers are exact
    /// either way, and for stale bounds too.
    fn column_range(&self) -> Option<ColumnRange> {
        None
    }
}

impl RowSource for Dataset {
    fn point_of(&self, id: u32) -> &[f32] {
        self.row(id as usize)
    }
}

/// What happened when a point was offered to a skyline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertOutcome {
    /// An existing member strictly dominates the new point; the skyline
    /// is unchanged.
    Dominated,
    /// The point joined the skyline, evicting the listed members
    /// (ascending; empty when nothing was dominated by it).
    Joined {
        /// Members removed because the new point dominates them.
        evicted: Vec<u32>,
    },
}

/// Offers the point `id` to a skyline maintained over `dims` under
/// `max_mask` preferences, updating `skyline` in place.
///
/// `skyline` must be sorted ascending and is kept so. The test runs
/// against the skyline only: if any member dominates `id` the skyline
/// cannot change (and no member can simultaneously be dominated by
/// `id` — that would make one member dominate another).
pub fn insert_point<R: RowSource + ?Sized>(
    rows: &R,
    skyline: &mut Vec<u32>,
    id: u32,
    dims: &[usize],
    max_mask: u32,
) -> InsertOutcome {
    let p = rows.point_of(id);
    for &s in skyline.iter() {
        if strictly_dominates_on_pref(rows.point_of(s), p, dims, max_mask) {
            return InsertOutcome::Dominated;
        }
    }
    let mut evicted = Vec::new();
    skyline.retain(|&s| {
        if strictly_dominates_on_pref(p, rows.point_of(s), dims, max_mask) {
            evicted.push(s);
            false
        } else {
            true
        }
    });
    let at = skyline.partition_point(|&s| s < id);
    skyline.insert(at, id);
    InsertOutcome::Joined { evicted }
}

/// Offers a batch of points to a skyline maintained over `dims` under
/// `max_mask`, updating `skyline` in place — semantically identical to
/// calling [`insert_point`] for each id of `inserted` in order.
///
/// Batches of [`BATCH_TILE_MIN`] or more points are routed through the
/// batched dominance kernels: the cached skyline is gathered **once**
/// into pref-folded [`TileStore`] tiles (projection and `Max` flips
/// folded into the stored rows before they are coded, against
/// [`RowSource::column_range`] when the source has one), and each new
/// point then runs one two-way tile [`offer`](TileStore::offer) — the
/// dominated test and the eviction scan in a single pass — instead of
/// two scalar scans. Survivors are appended to the tiles so dominance among the
/// batch's own points resolves exactly as the sequential kernel would.
pub fn insert_points<R: RowSource + ?Sized>(
    rows: &R,
    skyline: &mut Vec<u32>,
    inserted: &[u32],
    dims: &[usize],
    max_mask: u32,
) {
    if inserted.len() < BATCH_TILE_MIN {
        for &id in inserted {
            insert_point(rows, skyline, id, dims, max_mask);
        }
        return;
    }
    let d = dims.len();
    let n = skyline.len() + inserted.len();
    let mut store = match rows.column_range() {
        Some(full) => TileStore::with_range(&full.project(dims, max_mask), n),
        None => TileStore::with_capacity(d, n),
    };
    for &s in skyline.iter() {
        store.push_pref(rows.point_of(s), dims, max_mask);
    }
    // `members` mirrors the store's point order (swap_remove keeps the
    // two in lockstep), so positions always map back to stable ids.
    let mut members = std::mem::take(skyline);
    let mut q = vec![0.0f32; d];
    let mut dts = 0u64;
    for &id in inserted {
        let p = rows.point_of(id);
        for (slot, &c) in q.iter_mut().zip(dims) {
            *slot = flip_pref(p[c], max_mask & (1 << c) != 0);
        }
        let dominated = store.offer(&q, &mut dts, |i| {
            members.swap_remove(i);
        });
        if !dominated {
            store.push(&q);
            members.push(id);
        }
    }
    members.sort_unstable();
    *skyline = members;
}

/// Removes `removed` rows from a skyline over `dims`/`max_mask` and
/// repairs the result, returning the new skyline (ascending).
///
/// `skyline` is the cached result *before* the deletion; `live`
/// enumerates every row id alive *after* it (in any order, `removed`
/// excluded). Deletions of non-members return immediately; deletions
/// of members trigger one pass over `live` restricted to the removed
/// members' exclusive dominance region.
pub fn remove_points<R: RowSource + ?Sized>(
    rows: &R,
    live: impl IntoIterator<Item = u32>,
    skyline: &[u32],
    removed: &[u32],
    dims: &[usize],
    max_mask: u32,
) -> Vec<u32> {
    let mut removed_sorted = removed.to_vec();
    removed_sorted.sort_unstable();
    let mut remaining = Vec::with_capacity(skyline.len());
    let mut removed_sky = Vec::new();
    for &s in skyline {
        if removed_sorted.binary_search(&s).is_ok() {
            removed_sky.push(s);
        } else {
            remaining.push(s);
        }
    }
    // Deleting non-members never changes a skyline: every dominance
    // relation among survivors is intact.
    if removed_sky.is_empty() {
        return remaining;
    }

    // A survivor can join only if every skyline member that dominated
    // it was removed — in particular some removed member dominated it.
    // Scan once: the removed-member test prunes everything outside the
    // exclusive region before the (rarely reached) survivor test runs.
    let dominates =
        |a: u32, b: &[f32]| strictly_dominates_on_pref(rows.point_of(a), b, dims, max_mask);
    let mut candidates = Vec::new();
    for id in live {
        if remaining.binary_search(&id).is_ok() {
            continue;
        }
        let p = rows.point_of(id);
        if removed_sky.iter().any(|&r| dominates(r, p))
            && !remaining.iter().any(|&s| dominates(s, p))
        {
            candidates.push(id);
        }
    }
    // Candidates may dominate each other (they were all hidden behind
    // the removed members); keep their internal skyline. Survivors
    // cannot dominate them (filtered above) nor they the survivors
    // (survivors stay non-dominated under deletion).
    let mut joined: Vec<u32> = Vec::new();
    'outer: for (i, &c) in candidates.iter().enumerate() {
        let p = rows.point_of(c);
        for (j, &other) in candidates.iter().enumerate() {
            if i != j && dominates(other, p) {
                continue 'outer;
            }
        }
        joined.push(c);
    }
    remaining.extend(joined);
    remaining.sort_unstable();
    remaining
}

/// Applies one mutation batch — `removed` rows gone, `inserted` rows
/// new — to a cached skyline, returning the updated skyline.
///
/// `live` enumerates the rows alive after the batch **excluding**
/// `inserted` (i.e. the surviving pre-batch rows); the inserted rows
/// are then offered in order via [`insert_points`] (batched through the
/// tile kernels when the batch is large), so dominance among the
/// batch's own points resolves exactly as a recomputation would.
pub fn apply_delta<R: RowSource + ?Sized>(
    rows: &R,
    live: impl IntoIterator<Item = u32>,
    skyline: &[u32],
    removed: &[u32],
    inserted: &[u32],
    dims: &[usize],
    max_mask: u32,
) -> Vec<u32> {
    let mut sky = if removed.is_empty() {
        skyline.to_vec()
    } else {
        remove_points(rows, live, skyline, removed, dims, max_mask)
    };
    insert_points(rows, &mut sky, inserted, dims, max_mask);
    sky
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;

    fn ds(rows: &[Vec<f32>]) -> Dataset {
        Dataset::from_rows(rows).unwrap()
    }

    #[test]
    fn insert_dominated_point_changes_nothing() {
        let data = ds(&[vec![1.0, 1.0], vec![5.0, 5.0]]);
        let mut sky = vec![0];
        let out = insert_point(&data, &mut sky, 1, &[0, 1], 0);
        assert_eq!(out, InsertOutcome::Dominated);
        assert_eq!(sky, vec![0]);
    }

    #[test]
    fn insert_joins_and_evicts() {
        let data = ds(&[
            vec![1.0, 9.0],
            vec![9.0, 1.0],
            vec![5.0, 5.0],
            vec![0.5, 0.5], // dominates everything
        ]);
        let mut sky = vec![0, 1, 2];
        let out = insert_point(&data, &mut sky, 3, &[0, 1], 0);
        assert_eq!(
            out,
            InsertOutcome::Joined {
                evicted: vec![0, 1, 2]
            }
        );
        assert_eq!(sky, vec![3]);
    }

    #[test]
    fn insert_incomparable_point_joins_cleanly() {
        let data = ds(&[vec![1.0, 9.0], vec![9.0, 1.0], vec![4.0, 4.0]]);
        let mut sky = vec![0, 1];
        let out = insert_point(&data, &mut sky, 2, &[0, 1], 0);
        assert_eq!(out, InsertOutcome::Joined { evicted: vec![] });
        assert_eq!(sky, vec![0, 1, 2]);
    }

    #[test]
    fn insert_coincident_duplicate_joins() {
        // Coincident points never dominate each other (Definition 2):
        // a duplicate of a member joins without evicting it.
        let data = ds(&[vec![1.0, 2.0], vec![1.0, 2.0]]);
        let mut sky = vec![0];
        let out = insert_point(&data, &mut sky, 1, &[0, 1], 0);
        assert_eq!(out, InsertOutcome::Joined { evicted: vec![] });
        assert_eq!(sky, vec![0, 1]);
    }

    #[test]
    fn insert_respects_subspace_and_preference() {
        let data = ds(&[vec![1.0, 9.0], vec![2.0, 1.0]]);
        // On dim 0 alone, row 1 is dominated…
        let mut sky = vec![0];
        assert_eq!(
            insert_point(&data, &mut sky, 1, &[0], 0),
            InsertOutcome::Dominated
        );
        // …but maximising dim 0 flips it: row 1 evicts row 0.
        let mut sky = vec![0];
        assert_eq!(
            insert_point(&data, &mut sky, 1, &[0], 0b1),
            InsertOutcome::Joined { evicted: vec![0] }
        );
        assert_eq!(sky, vec![1]);
    }

    #[test]
    fn insert_points_matches_sequential_insert_point_across_the_gate() {
        // The batched tile path must be indistinguishable from the
        // scalar loop for every batch size straddling BATCH_TILE_MIN,
        // under subspaces and Max preferences, including batches whose
        // own points dominate each other and coincident duplicates.
        let mut state = 0xbadc0de_u64 ^ 0x9e3779b97f4a7c15;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        };
        for d in [2usize, 3, 4] {
            let dims: Vec<usize> = (0..d).collect();
            let sub: Vec<usize> = (0..d).step_by(2).collect();
            for max_mask in [0u32, 0b10 & ((1 << d) - 1)] {
                for batch in [
                    1usize,
                    BATCH_TILE_MIN - 1,
                    BATCH_TILE_MIN,
                    BATCH_TILE_MIN + 9,
                    40,
                ] {
                    let n0 = 30;
                    let mut rows: Vec<Vec<f32>> = (0..n0 + batch)
                        .map(|_| (0..d).map(|_| (rng() % 7) as f32).collect())
                        .collect();
                    // A coincident duplicate inside the batch.
                    if batch >= 2 {
                        rows[n0 + 1] = rows[n0].clone();
                    }
                    let data = Dataset::from_rows(&rows).unwrap();
                    for dims in [&dims[..], &sub[..]] {
                        // Seed skyline: sequential inserts of the base rows.
                        let mut seed: Vec<u32> = Vec::new();
                        for id in 0..n0 as u32 {
                            insert_point(&data, &mut seed, id, dims, max_mask);
                        }
                        let ids: Vec<u32> = (n0 as u32..(n0 + batch) as u32).collect();
                        let mut scalar = seed.clone();
                        for &id in &ids {
                            insert_point(&data, &mut scalar, id, dims, max_mask);
                        }
                        let mut batched = seed.clone();
                        insert_points(&data, &mut batched, &ids, dims, max_mask);
                        assert_eq!(
                            batched, scalar,
                            "d={d} mask={max_mask:#b} batch={batch} dims={dims:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn delete_of_non_member_is_free() {
        let data = ds(&[vec![1.0, 1.0], vec![5.0, 5.0], vec![2.0, 3.0]]);
        let sky = vec![0];
        let out = remove_points(&data, [0u32; 0], &sky, &[1], &[0, 1], 0);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn delete_of_member_promotes_its_exclusive_region() {
        let data = ds(&[
            vec![1.0, 1.0], // skyline; dominates everything below
            vec![2.0, 3.0], // exclusive region of 0
            vec![3.0, 2.0], // exclusive region of 0
            vec![4.0, 4.0], // dominated by 1 and 2 too — stays out
        ]);
        let sky = vec![0];
        let out = remove_points(&data, [1u32, 2, 3], &sky, &[0], &[0, 1], 0);
        assert_eq!(out, vec![1, 2]);
        // Matches a recomputation over the survivors.
        let survivors = ds(&[vec![2.0, 3.0], vec![3.0, 2.0], vec![4.0, 4.0]]);
        let expect: Vec<u32> = verify::naive_skyline(&survivors)
            .iter()
            .map(|&i| i + 1)
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn delete_shielded_by_coincident_twin_changes_nothing() {
        let data = ds(&[
            vec![1.0, 1.0], // member
            vec![1.0, 1.0], // coincident twin, also a member
            vec![2.0, 2.0], // dominated by both
        ]);
        let sky = vec![0, 1];
        let out = remove_points(&data, [1u32, 2], &sky, &[0], &[0, 1], 0);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn apply_delta_matches_recompute_on_random_batches() {
        // Randomized cross-check: grow/shrink a point set through many
        // batches; the maintained skyline must equal the naive skyline
        // of the materialized survivors at every step.
        let mut state = 0x5eed_cafe_u64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        };
        for d in [1usize, 2, 3] {
            let dims: Vec<usize> = (0..d).collect();
            for max_mask in [0u32, 0b1, 0b101 & ((1 << d) - 1)] {
                // All rows ever created, indexed by stable id.
                let mut rows: Vec<Vec<f32>> = Vec::new();
                let mut live: Vec<u32> = Vec::new();
                let mut sky: Vec<u32> = Vec::new();
                for _round in 0..24 {
                    let n_ins = (rng() % 4) as usize;
                    let n_del = ((rng() % 3) as usize).min(live.len());
                    let mut removed = Vec::new();
                    for _ in 0..n_del {
                        let victim = live[(rng() as usize) % live.len()];
                        if !removed.contains(&victim) {
                            removed.push(victim);
                        }
                    }
                    let mut inserted = Vec::new();
                    for _ in 0..n_ins {
                        let id = rows.len() as u32;
                        rows.push((0..d).map(|_| (rng() % 5) as f32).collect());
                        inserted.push(id);
                    }
                    live.retain(|id| !removed.contains(id));
                    let data = Dataset::from_rows(&rows)
                        .unwrap_or_else(|_| Dataset::from_flat(vec![], d).unwrap());
                    sky = apply_delta(
                        &data,
                        live.iter().copied(),
                        &sky,
                        &removed,
                        &inserted,
                        &dims,
                        max_mask,
                    );
                    live.extend(&inserted);

                    // Reference: naive skyline over the live rows.
                    let mut expect: Vec<u32> = Vec::new();
                    'outer: for &i in &live {
                        for &j in &live {
                            if i != j
                                && strictly_dominates_on_pref(
                                    &rows[j as usize],
                                    &rows[i as usize],
                                    &dims,
                                    max_mask,
                                )
                            {
                                continue 'outer;
                            }
                        }
                        expect.push(i);
                    }
                    expect.sort_unstable();
                    assert_eq!(sky, expect, "d={d} mask={max_mask:#b}");
                }
            }
        }
    }
}
