//! Explicit SIMD dominance kernels (paper §VII-A2, "8-degree data-level
//! parallelism").
//!
//! The paper's single biggest micro-optimisation is a hand-written
//! vectorized dominance test shared by every algorithm. This module is
//! that kernel layer, in two shapes:
//!
//! * **One-vs-one** kernels ([`strictly_dominates`],
//!   [`dominates_or_equal`], [`compare`]): explicit `core::arch`
//!   implementations of the scalar tests in [`super`](crate::dominance),
//!   processing 8 (AVX2) or 4 (SSE2 / NEON) coordinates per instruction
//!   with a per-chunk early exit.
//! * **Batched one-vs-many** kernels over a [`DtBlock`]: a transposed
//!   SoA tile of up to [`TILE_LANES`] points stored column-major in a
//!   32-byte-aligned buffer, so one candidate is tested against 8 window
//!   points per column iteration — one aligned load, one broadcast, and
//!   vector compares, reduced with a movemask. [`TileStore`] strings
//!   tiles together into the growable windows the scan loops need
//!   (append for SFS/Q-Flow, swap-remove for BNL).
//! * **Whole-range scans** behind [`TileStore::any_dominates`],
//!   [`any_dominates_range`](TileStore::any_dominates_range) and
//!   [`count_dominators_range`](TileStore::count_dominators_range): at
//!   AVX2 one call covers every whole tile of the range, broadcasts `q`
//!   once, and evaluates all `d` columns of each tile with no
//!   per-column exit — the only data-dependent branch is the hit (or
//!   the count reaching its cap). A per-column exit pays only when
//!   every lane fails early; on the anticorrelated inputs the
//!   algorithms are bound by, the last live lane of a tile fails at a
//!   nearly uniform column, so the exit mispredicts on almost every
//!   tile. The other levels scan the same range with
//!   [`DtBlock::dominators`], tile by tile. Both charge identical
//!   dominance-test counts.
//!
//! # Dispatch
//!
//! The instruction set is picked **once per process** by
//! [`active_level`]: AVX2 where the CPU supports it, SSE2 on any other
//! `x86_64`, NEON on `aarch64`, and the portable
//! [`strictly_dominates_lanes`](crate::dominance::strictly_dominates_lanes)
//! / scalar loops everywhere else. Setting the environment variable
//! **`SKYLINE_FORCE_SCALAR`** (to anything but `0` or the empty string)
//! before first use pins the process to the scalar level — the switch CI
//! uses to prove the vector and scalar paths compute identical skylines.
//! (Forced-scalar is a correctness lane: the portable tile kernels are
//! several times slower than the vector ones, which is the point of the
//! explicit layer.)
//!
//! Every kernel also exists in a `*_with(level, ..)` form taking an
//! explicit [`Level`], which *ignores* the environment override; the
//! equivalence test suite runs all [available](Level::available) levels
//! against the scalar reference in a single process.
//!
//! # Preferences
//!
//! Dominance under `Max` preferences negates the maximised columns.
//! Negating an IEEE-754 float is exactly a sign-bit flip, so
//! [`DtBlock::set_lane_pref`] folds the direction into the tile **once at
//! build time** with an XOR on the `f32` bits — scans then run the plain
//! minimising kernels with no per-test branching. The candidate side uses
//! [`flip_pref`] for the same transformation.

use std::sync::OnceLock;

use skyline_data::AlignedF32;

use super::DomRelation;

/// Points per [`DtBlock`] tile: the width of one AVX2 `f32` register,
/// the paper's "8-degree data-level parallelism".
pub const TILE_LANES: usize = 8;

/// An instruction-set level the dominance kernels can run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Portable Rust: the branch-free lane kernels plus scalar loops.
    Scalar,
    /// 128-bit SSE2 (baseline on every `x86_64`).
    Sse2,
    /// 256-bit AVX2.
    Avx2,
    /// 128-bit NEON (baseline on every `aarch64`).
    Neon,
}

impl Level {
    /// Short lowercase name, for logs and bench labels.
    pub fn name(self) -> &'static str {
        match self {
            Level::Scalar => "scalar",
            Level::Sse2 => "sse2",
            Level::Avx2 => "avx2",
            Level::Neon => "neon",
        }
    }

    /// Every level usable on this CPU, scalar first. Passing a level
    /// that is *not* in this list to a `*_with` kernel silently falls
    /// back to scalar.
    pub fn available() -> Vec<Level> {
        let mut out = vec![Level::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            out.push(Level::Sse2);
            if std::arch::is_x86_feature_detected!("avx2") {
                out.push(Level::Avx2);
            }
        }
        #[cfg(target_arch = "aarch64")]
        out.push(Level::Neon);
        out
    }
}

/// The best level this CPU supports, ignoring any environment override.
pub fn detected_level() -> Level {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Level::Avx2;
        }
        #[allow(unreachable_code)]
        Level::Sse2
    }
    #[cfg(target_arch = "aarch64")]
    {
        Level::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        Level::Scalar
    }
}

static ACTIVE: OnceLock<Level> = OnceLock::new();

/// The level every dispatching kernel runs at, decided once per process:
/// [`detected_level`] unless `SKYLINE_FORCE_SCALAR` is set (to anything
/// but `0`/empty) at first call, in which case [`Level::Scalar`].
pub fn active_level() -> Level {
    *ACTIVE.get_or_init(|| {
        let forced = std::env::var("SKYLINE_FORCE_SCALAR")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false);
        if forced {
            Level::Scalar
        } else {
            detected_level()
        }
    })
}

/// Applies the `Max`-preference sign flip to one coordinate: the bit
/// pattern of `-x` when `flip`, `x` otherwise — branch-free.
#[inline(always)]
pub fn flip_pref(x: f32, flip: bool) -> f32 {
    f32::from_bits(x.to_bits() ^ ((flip as u32) << 31))
}

// --------------------------------------------------------------------
// One-vs-one kernels
// --------------------------------------------------------------------

/// Strict dominance `p ≺ q` at the [`active_level`].
#[inline]
pub fn strictly_dominates(p: &[f32], q: &[f32]) -> bool {
    strictly_dominates_with(active_level(), p, q)
}

/// Strict dominance `p ≺ q` at an explicit level (ignores the
/// environment override; unavailable levels fall back to scalar).
#[inline]
pub fn strictly_dominates_with(level: Level, p: &[f32], q: &[f32]) -> bool {
    debug_assert_eq!(p.len(), q.len());
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the AVX2 arm is only reachable when the caller got the
        // level from `active_level`/`available` (CPU verified) or opted
        // into an explicit level on a CPU that has it.
        Level::Avx2 => unsafe { x86::sd_avx2(p, q) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86_64 baseline.
        Level::Sse2 => unsafe { x86::sd_sse2(p, q) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is part of the aarch64 baseline.
        Level::Neon => unsafe { neon::sd_neon(p, q) },
        _ => crate::dominance::strictly_dominates_lanes(p, q),
    }
}

/// Potential dominance `p ⪯ q` at the [`active_level`].
#[inline]
pub fn dominates_or_equal(p: &[f32], q: &[f32]) -> bool {
    dominates_or_equal_with(active_level(), p, q)
}

/// Potential dominance `p ⪯ q` at an explicit level.
#[inline]
pub fn dominates_or_equal_with(level: Level, p: &[f32], q: &[f32]) -> bool {
    debug_assert_eq!(p.len(), q.len());
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: see `strictly_dominates_with`.
        Level::Avx2 => unsafe { x86::de_avx2(p, q) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86_64 baseline.
        Level::Sse2 => unsafe { x86::de_sse2(p, q) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is part of the aarch64 baseline.
        Level::Neon => unsafe { neon::de_neon(p, q) },
        _ => p.iter().zip(q).all(|(a, b)| a <= b),
    }
}

/// Two-way comparison at the [`active_level`].
#[inline]
pub fn compare(p: &[f32], q: &[f32]) -> DomRelation {
    compare_with(active_level(), p, q)
}

/// Two-way comparison at an explicit level.
#[inline]
pub fn compare_with(level: Level, p: &[f32], q: &[f32]) -> DomRelation {
    debug_assert_eq!(p.len(), q.len());
    let (p_le, q_le) = match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: see `strictly_dominates_with`.
        Level::Avx2 => unsafe { x86::both_le_avx2(p, q) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86_64 baseline.
        Level::Sse2 => unsafe { x86::both_le_sse2(p, q) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is part of the aarch64 baseline.
        Level::Neon => unsafe { neon::both_le_neon(p, q) },
        _ => both_le_scalar(p, q),
    };
    match (p_le, q_le) {
        (true, true) => DomRelation::Equal,
        (true, false) => DomRelation::PDominatesQ,
        (false, true) => DomRelation::QDominatesP,
        (false, false) => DomRelation::Incomparable,
    }
}

/// `(∀i p[i] ≤ q[i], ∀i q[i] ≤ p[i])` — the reduction [`compare`]
/// classifies. Portable form with block-level early exit.
fn both_le_scalar(p: &[f32], q: &[f32]) -> (bool, bool) {
    let mut p_le = true;
    let mut q_le = true;
    for (a, b) in p.iter().zip(q) {
        p_le &= a <= b;
        q_le &= b <= a;
        if !p_le && !q_le {
            return (false, false);
        }
    }
    (p_le, q_le)
}

// --------------------------------------------------------------------
// Batched one-vs-many tiles
// --------------------------------------------------------------------

/// A transposed SoA tile of up to [`TILE_LANES`] points in `d`
/// dimensions: coordinate `j` of lane `l` lives at `cols[j * 8 + l]`,
/// each 8-wide column 32-byte aligned, so the batched kernels test one
/// candidate against all 8 lanes with a single aligned load and
/// broadcast per dimension.
///
/// Unused lanes are padded with `+∞`, which can never dominate a finite
/// candidate; the *dominated-by-candidate* direction masks pads out via
/// [`live`](Self::live).
#[derive(Debug, Clone)]
pub struct DtBlock {
    d: usize,
    live: usize,
    cols: AlignedF32,
}

impl DtBlock {
    /// An empty tile (all lanes padding) for `d`-dimensional points.
    pub fn new(d: usize) -> Self {
        debug_assert!(d >= 1);
        Self {
            d,
            live: 0,
            cols: AlignedF32::filled(d * TILE_LANES, f32::INFINITY),
        }
    }

    /// Dimensionality of the tile's points.
    #[inline]
    pub fn dims(&self) -> usize {
        self.d
    }

    /// Number of live (non-padding) lanes; live lanes are always the
    /// contiguous prefix `0..live`.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Coordinate `j` of lane `lane`.
    #[inline]
    pub fn coord(&self, lane: usize, j: usize) -> f32 {
        self.cols[j * TILE_LANES + lane]
    }

    /// Writes `row` into `lane`, marking it live.
    #[inline]
    pub fn set_lane(&mut self, lane: usize, row: &[f32]) {
        debug_assert!(lane < TILE_LANES);
        debug_assert_eq!(row.len(), self.d);
        for (j, &v) in row.iter().enumerate() {
            self.cols[j * TILE_LANES + lane] = v;
        }
        self.live = self.live.max(lane + 1);
    }

    /// Writes the subspace projection `row[dims[..]]` into `lane`,
    /// sign-flipping the columns whose **full-space** index is set in
    /// `max_mask` — the preference negation paid once at build time
    /// instead of per dominance test. Candidates tested against such a
    /// tile must be transformed the same way (see [`flip_pref`]).
    #[inline]
    pub fn set_lane_pref(&mut self, lane: usize, row: &[f32], dims: &[usize], max_mask: u32) {
        debug_assert!(lane < TILE_LANES);
        debug_assert_eq!(dims.len(), self.d);
        for (j, &c) in dims.iter().enumerate() {
            self.cols[j * TILE_LANES + lane] = flip_pref(row[c], max_mask & (1 << c) != 0);
        }
        self.live = self.live.max(lane + 1);
    }

    /// Resets `lane` to padding. Only the last live lane may be
    /// cleared (live lanes stay a contiguous prefix).
    #[inline]
    pub fn clear_lane(&mut self, lane: usize) {
        debug_assert_eq!(lane + 1, self.live, "only the last live lane clears");
        for j in 0..self.d {
            self.cols[j * TILE_LANES + lane] = f32::INFINITY;
        }
        self.live = lane;
    }

    /// Copies `src_lane` of `src` into `dst_lane` of `self`.
    #[inline]
    pub fn copy_lane_from(&mut self, dst_lane: usize, src: &DtBlock, src_lane: usize) {
        debug_assert_eq!(self.d, src.d);
        for j in 0..self.d {
            self.cols[j * TILE_LANES + dst_lane] = src.cols[j * TILE_LANES + src_lane];
        }
        self.live = self.live.max(dst_lane + 1);
    }

    /// Moves lane `src` into lane `dst` within this tile.
    #[inline]
    pub fn move_lane(&mut self, dst: usize, src: usize) {
        for j in 0..self.d {
            self.cols[j * TILE_LANES + dst] = self.cols[j * TILE_LANES + src];
        }
        self.live = self.live.max(dst + 1);
    }

    /// Bitmask of lanes whose point strictly dominates `q`, at the
    /// [`active_level`]. Padding lanes never set a bit.
    ///
    /// Unlike the whole-range scans of [`TileStore`], this single-tile
    /// kernel keeps its per-column exit (every level returns as soon as
    /// no lane can still dominate). It serves the first-tile probe of
    /// [`TileStore::any_dominates`] — the most likely pruners, where an
    /// early kill is common — and the masked head and tail tiles of the
    /// range scans. Dropping the exit here too measured no gain beyond
    /// run-to-run spread, on anticorrelated 200 000 × 6 or on the
    /// engine's cold queries.
    #[inline]
    pub fn dominators(&self, q: &[f32]) -> u32 {
        self.dominators_with(active_level(), q)
    }

    /// [`dominators`](Self::dominators) at an explicit level.
    #[inline]
    pub fn dominators_with(&self, level: Level, q: &[f32]) -> u32 {
        debug_assert_eq!(q.len(), self.d);
        match level {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: see `strictly_dominates_with`; `cols` is d×8 and
            // 32-byte aligned by construction.
            Level::Avx2 => unsafe { x86::tile_dominators_avx2(&self.cols, self.d, q) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: SSE2 is part of the x86_64 baseline.
            Level::Sse2 => unsafe { x86::tile_dominators_sse2(&self.cols, self.d, q) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is part of the aarch64 baseline.
            Level::Neon => unsafe { neon::tile_dominators_neon(&self.cols, self.d, q) },
            _ => tile_dominators_scalar(&self.cols, self.d, q),
        }
    }

    /// Does any live lane strictly dominate `q`?
    #[inline]
    pub fn any_dominates(&self, q: &[f32]) -> bool {
        self.dominators(q) != 0
    }

    /// Two-way tile comparison at the [`active_level`]:
    /// `(lanes strictly dominating q, lanes strictly dominated by q)`.
    /// The second mask is restricted to live lanes.
    #[inline]
    pub fn compare_masks(&self, q: &[f32]) -> (u32, u32) {
        self.compare_masks_with(active_level(), q)
    }

    /// [`compare_masks`](Self::compare_masks) at an explicit level.
    #[inline]
    pub fn compare_masks_with(&self, level: Level, q: &[f32]) -> (u32, u32) {
        debug_assert_eq!(q.len(), self.d);
        let live_mask = ((1u32 << self.live) - 1) * u32::from(self.live > 0);
        match level {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: see `dominators_with`.
            Level::Avx2 => unsafe { x86::tile_compare_avx2(&self.cols, self.d, q, live_mask) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: SSE2 is part of the x86_64 baseline.
            Level::Sse2 => unsafe { x86::tile_compare_sse2(&self.cols, self.d, q, live_mask) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is part of the aarch64 baseline.
            Level::Neon => unsafe { neon::tile_compare_neon(&self.cols, self.d, q, live_mask) },
            _ => tile_compare_scalar(&self.cols, self.d, self.live, q),
        }
    }
}

/// Index in `tiles` of the first tile holding a lane that strictly
/// dominates `q`. AVX2 runs one whole-range kernel (every column of
/// every tile, no per-column exit); the other levels test the tiles one
/// at a time with their single-tile kernel.
#[inline]
fn first_dominating_tile(level: Level, tiles: &[DtBlock], q: &[f32]) -> Option<usize> {
    assert_same_dims(tiles, q);
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the level is AVX2-capable (see `strictly_dominates_with`)
        // and every tile has `q.len()` columns (`assert_same_dims`).
        Level::Avx2 => unsafe { x86::first_dominating_tile_avx2(tiles, q) },
        _ => tiles.iter().position(|t| t.dominators_with(level, q) != 0),
    }
}

/// Strict dominators of `q` in `tiles`, counted tile by tile until the
/// count reaches `cap`: `(count, tiles inspected)`. The count may exceed
/// `cap` by what the last inspected tile added.
#[inline]
fn count_dominators_in_tiles(level: Level, tiles: &[DtBlock], q: &[f32], cap: u32) -> (u32, usize) {
    assert_same_dims(tiles, q);
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: see `first_dominating_tile`.
        Level::Avx2 => unsafe { x86::count_dominators_avx2(tiles, q, cap) },
        _ => {
            let mut count = 0u32;
            for (t, tile) in tiles.iter().enumerate() {
                count += tile.dominators_with(level, q).count_ones();
                if count >= cap {
                    return (count, t + 1);
                }
            }
            (count, tiles.len())
        }
    }
}

/// The whole-range kernels read `q.len()` columns of every tile. The
/// tiles of one [`TileStore`] share its dimensionality, so checking the
/// first tile checks them all.
#[inline]
fn assert_same_dims(tiles: &[DtBlock], q: &[f32]) {
    assert!(
        tiles.first().map_or(true, |t| t.d == q.len()),
        "candidate dimensionality differs from the store's"
    );
}

/// Portable fallback for [`DtBlock::dominators`]: column-major,
/// branch-free over the 8 fixed lanes (LLVM vectorises the inner mask
/// builders), early exit per column once every lane has failed.
/// Padding lanes (`+∞`) fail `le` on the first column, so no live mask
/// is needed.
fn tile_dominators_scalar(cols: &[f32], d: usize, q: &[f32]) -> u32 {
    let mut le = [true; TILE_LANES];
    let mut lt = [false; TILE_LANES];
    for (j, &qj) in q.iter().enumerate().take(d) {
        let col: &[f32; TILE_LANES] = cols[j * TILE_LANES..(j + 1) * TILE_LANES]
            .try_into()
            .expect("tile column");
        for l in 0..TILE_LANES {
            le[l] &= col[l] <= qj;
            lt[l] |= col[l] < qj;
        }
        // Early exit at a coarse cadence: array-compare per column
        // would cost more than it saves.
        if j % 4 == 3 && le == [false; TILE_LANES] {
            return 0;
        }
    }
    let mut dom = 0u32;
    for l in 0..TILE_LANES {
        dom |= u32::from(le[l] && lt[l]) << l;
    }
    dom
}

/// Portable fallback for [`DtBlock::compare_masks`], same shape as
/// [`tile_dominators_scalar`].
fn tile_compare_scalar(cols: &[f32], d: usize, live: usize, q: &[f32]) -> (u32, u32) {
    let live_mask = (1u32 << live) - 1;
    let (mut le, mut ge) = (0xFFu32, 0xFFu32);
    let (mut lt, mut gt) = (0u32, 0u32);
    for (j, &qj) in q.iter().enumerate().take(d) {
        let col: &[f32; TILE_LANES] = cols[j * TILE_LANES..(j + 1) * TILE_LANES]
            .try_into()
            .expect("tile column");
        let (mut le_j, mut lt_j, mut ge_j, mut gt_j) = (0u32, 0u32, 0u32, 0u32);
        for (l, &v) in col.iter().enumerate() {
            le_j |= u32::from(v <= qj) << l;
            lt_j |= u32::from(v < qj) << l;
            ge_j |= u32::from(v >= qj) << l;
            gt_j |= u32::from(v > qj) << l;
        }
        le &= le_j;
        ge &= ge_j;
        if le == 0 && ge & live_mask == 0 {
            return (0, 0);
        }
        lt |= lt_j;
        gt |= gt_j;
    }
    (le & lt, ge & gt & live_mask)
}

/// A growable window of points stored as [`DtBlock`] tiles, the shape
/// every batched scan loop consumes: full tiles carry 8 live lanes, the
/// last tile carries the tail. Point `i` is lane `i % 8` of tile
/// `i / 8`, so tile order equals insertion order — the scan order the
/// presorting algorithms rely on ("most likely pruners first").
#[derive(Debug, Clone)]
pub struct TileStore {
    d: usize,
    len: usize,
    tiles: Vec<DtBlock>,
}

impl TileStore {
    /// An empty store for `d`-dimensional points.
    pub fn new(d: usize) -> Self {
        Self {
            d,
            len: 0,
            tiles: Vec::new(),
        }
    }

    /// An empty store with room for `n` points pre-reserved.
    pub fn with_capacity(d: usize, n: usize) -> Self {
        Self {
            d,
            len: 0,
            tiles: Vec::with_capacity(n.div_ceil(TILE_LANES)),
        }
    }

    /// Dimensionality of the stored points.
    #[inline]
    pub fn dims(&self) -> usize {
        self.d
    }

    /// Number of stored points.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no points are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The tiles, in insertion order.
    #[inline]
    pub fn tiles(&self) -> &[DtBlock] {
        &self.tiles
    }

    /// Tile `t` (points `8t .. 8t + live`).
    #[inline]
    pub fn tile(&self, t: usize) -> &DtBlock {
        &self.tiles[t]
    }

    /// Coordinates of point `i` (gathered; for tests and debugging).
    pub fn point(&self, i: usize) -> Vec<f32> {
        let tile = &self.tiles[i / TILE_LANES];
        (0..self.d).map(|j| tile.coord(i % TILE_LANES, j)).collect()
    }

    /// Appends `row` as the new last point.
    pub fn push(&mut self, row: &[f32]) {
        let lane = self.len % TILE_LANES;
        if lane == 0 {
            self.tiles.push(DtBlock::new(self.d));
        }
        self.tiles
            .last_mut()
            .expect("just pushed")
            .set_lane(lane, row);
        self.len += 1;
    }

    /// Appends the pref-folded projection of `row` (see
    /// [`DtBlock::set_lane_pref`]).
    pub fn push_pref(&mut self, row: &[f32], dims: &[usize], max_mask: u32) {
        let lane = self.len % TILE_LANES;
        if lane == 0 {
            self.tiles.push(DtBlock::new(self.d));
        }
        self.tiles
            .last_mut()
            .expect("just pushed")
            .set_lane_pref(lane, row, dims, max_mask);
        self.len += 1;
    }

    /// Removes point `i` by moving the last point into its slot —
    /// `Vec::swap_remove` semantics, so parallel arrays stay in sync by
    /// mirroring the call.
    pub fn swap_remove(&mut self, i: usize) {
        debug_assert!(i < self.len);
        let last = self.len - 1;
        let (lt, ll) = (last / TILE_LANES, last % TILE_LANES);
        if i != last {
            let (it, il) = (i / TILE_LANES, i % TILE_LANES);
            if it == lt {
                self.tiles[it].move_lane(il, ll);
            } else {
                let (head, tail) = self.tiles.split_at_mut(lt);
                head[it].copy_lane_from(il, &tail[0], ll);
            }
        }
        self.tiles[lt].clear_lane(ll);
        if ll == 0 {
            self.tiles.pop();
        }
        self.len -= 1;
    }

    /// Does any stored point strictly dominate `q`? Scans tiles in
    /// insertion order: the first tile alone, then every other tile in
    /// one whole-range scan that stops at the first tile holding a
    /// dominator. Adds the live lanes inspected to `dts` (tile-granular
    /// DT accounting): the first tile, then whole tile pairs up to and
    /// including the pair that holds the first dominator.
    ///
    /// The dispatch level is read once per scan, not once per tile.
    #[inline]
    pub fn any_dominates(&self, q: &[f32], dts: &mut u64) -> bool {
        let level = active_level();
        // Probe the first tile alone: the presorting algorithms put the
        // most likely pruners first, so the common quick kill costs 8
        // lanes and no whole-range set-up.
        let Some(first) = self.tiles.first() else {
            return false;
        };
        *dts += first.live() as u64;
        if first.dominators_with(level, q) != 0 {
            return true;
        }
        self.tiles.len() > 1 && self.any_dominates_tiles(level, 1, self.tiles.len(), q, dts)
    }

    /// Whole-range scan of tiles `t0..t1`: does any of their lanes
    /// strictly dominate `q`? Charges `dts` by tile pairs counted from
    /// `t0`, through the pair holding the first dominator (all of them
    /// on a miss).
    #[inline]
    fn any_dominates_tiles(
        &self,
        level: Level,
        t0: usize,
        t1: usize,
        q: &[f32],
        dts: &mut u64,
    ) -> bool {
        let hit = first_dominating_tile(level, &self.tiles[t0..t1], q);
        let end = hit.map_or(t1, |h| (t0 + (h | 1) + 1).min(t1));
        *dts += (self.len.min(end * TILE_LANES) - t0 * TILE_LANES) as u64;
        hit.is_some()
    }

    /// Like [`any_dominates`](Self::any_dominates) but restricted to
    /// the first `k` points (prefix in insertion order) — the peer scan
    /// shape of Q-Flow Phase II.
    #[inline]
    pub fn any_dominates_first(&self, k: usize, q: &[f32], dts: &mut u64) -> bool {
        self.any_dominates_range(0, k, q, dts)
    }

    /// Does any point with index in `start..end` strictly dominate `q`?
    /// Handles unaligned boundaries with masked tile scans and the whole
    /// tiles between them with one whole-range scan — the
    /// same-partition peer run of Hybrid Phase II. Charges `dts` with
    /// the lanes of the masked head, then whole tile pairs through the
    /// pair holding the first dominator, then the masked tail.
    pub fn any_dominates_range(&self, start: usize, end: usize, q: &[f32], dts: &mut u64) -> bool {
        debug_assert!(start <= end && end <= self.len);
        if start >= end {
            return false;
        }
        let level = active_level();
        let mut i = start;
        // Masked head, when `start` is not tile-aligned.
        let head_lane = i % TILE_LANES;
        if head_lane != 0 {
            let t = i / TILE_LANES;
            let hi = end.min((t + 1) * TILE_LANES);
            let lanes_hi = hi - t * TILE_LANES;
            let mask = (((1u32 << lanes_hi) - 1) >> head_lane) << head_lane;
            *dts += (hi - i) as u64;
            if self.tiles[t].dominators_with(level, q) & mask != 0 {
                return true;
            }
            i = hi;
        }
        // Whole tiles, in one scan.
        let (t0, t1) = (i / TILE_LANES, end / TILE_LANES);
        if t0 < t1 {
            if self.any_dominates_tiles(level, t0, t1, q, dts) {
                return true;
            }
            i = t1 * TILE_LANES;
        }
        // Masked prefix of the final tile.
        if i < end {
            let rem = end - i;
            *dts += rem as u64;
            if self.tiles[i / TILE_LANES].dominators_with(level, q) & ((1 << rem) - 1) != 0 {
                return true;
            }
        }
        false
    }

    /// How many points with index in `start..end` strictly dominate
    /// `q`, capped at `cap` — the counting generalisation of
    /// [`any_dominates_range`](Self::any_dominates_range) that powers
    /// the k-skyband and top-k-dominating kernels. Returns as soon as
    /// the running count reaches `cap` (a k-skyband caller only needs
    /// to know "≥ k", never the exact larger total), so heavily
    /// dominated points stay cheap. Handles unaligned boundaries with
    /// the same masked tile scans and the whole tiles between them with
    /// one whole-range counting scan; padding lanes never set bits, so
    /// whole-tile counts need no mask. Charges `dts` tile by tile, up
    /// to the tile at which the count reaches `cap`.
    pub fn count_dominators_range(
        &self,
        start: usize,
        end: usize,
        q: &[f32],
        cap: u32,
        dts: &mut u64,
    ) -> u32 {
        debug_assert!(start <= end && end <= self.len);
        if start >= end || cap == 0 {
            return 0;
        }
        let level = active_level();
        let mut count = 0u32;
        let mut i = start;
        // Masked head, when `start` is not tile-aligned.
        let head_lane = i % TILE_LANES;
        if head_lane != 0 {
            let t = i / TILE_LANES;
            let hi = end.min((t + 1) * TILE_LANES);
            let lanes_hi = hi - t * TILE_LANES;
            let mask = (((1u32 << lanes_hi) - 1) >> head_lane) << head_lane;
            *dts += (hi - i) as u64;
            count += (self.tiles[t].dominators_with(level, q) & mask).count_ones();
            if count >= cap {
                return cap;
            }
            i = hi;
        }
        // Whole tiles, in one scan that stops at the tile reaching `cap`.
        let (t0, t1) = (i / TILE_LANES, end / TILE_LANES);
        if t0 < t1 {
            let (found, inspected) =
                count_dominators_in_tiles(level, &self.tiles[t0..t1], q, cap - count);
            *dts += (inspected * TILE_LANES) as u64;
            count += found;
            if count >= cap {
                return cap;
            }
            i = t1 * TILE_LANES;
        }
        // Masked prefix of the final tile.
        if i < end {
            let rem = end - i;
            *dts += rem as u64;
            count += (self.tiles[i / TILE_LANES].dominators_with(level, q) & ((1 << rem) - 1))
                .count_ones();
        }
        count.min(cap)
    }

    /// BNL's window update in one call: if any stored point strictly
    /// dominates `q`, returns `true` (the window is untouched — no
    /// stored point can simultaneously be dominated by `q`, since the
    /// window is mutually incomparable). Otherwise evicts every point
    /// `q` dominates via [`swap_remove`](Self::swap_remove), invoking
    /// `on_evict` with each removed position (strictly descending) so
    /// the caller can mirror the removals, and returns `false`.
    ///
    /// Coincident points are neither direction (strict dominance), so
    /// duplicates survive — the BNL semantics.
    pub fn offer(&mut self, q: &[f32], dts: &mut u64, mut on_evict: impl FnMut(usize)) -> bool {
        let level = active_level();
        let mut evict: Vec<usize> = Vec::new();
        for (ti, t) in self.tiles.iter().enumerate() {
            *dts += t.live() as u64;
            let (dom, sub) = t.compare_masks_with(level, q);
            if dom != 0 {
                return true;
            }
            let mut m = sub;
            while m != 0 {
                evict.push(ti * TILE_LANES + m.trailing_zeros() as usize);
                m &= m - 1;
            }
        }
        // Descending order keeps every yet-to-be-removed position valid
        // under swap_remove.
        for &pos in evict.iter().rev() {
            self.swap_remove(pos);
            on_evict(pos);
        }
        false
    }
}

// --------------------------------------------------------------------
// x86_64 kernels
// --------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! AVX2 / SSE2 implementations. All functions are `unsafe` because
    //! of `target_feature`; callers verify CPU support (AVX2) or rely on
    //! the x86_64 baseline (SSE2).
    #![allow(clippy::missing_safety_doc)]

    use std::arch::x86_64::*;

    use super::{DtBlock, TILE_LANES};

    // ---- one-vs-one -------------------------------------------------

    // All kernels test `LE` directly rather than inferring it from the
    // absence of `GT`: the two are equivalent only for ordered values,
    // and the scalar references treat unordered (NaN) comparisons as
    // "not ≤", so the vector levels must too.

    #[target_feature(enable = "avx2")]
    pub unsafe fn sd_avx2(p: &[f32], q: &[f32]) -> bool {
        let d = p.len();
        let mut lt = _mm256_setzero_ps();
        let mut j = 0;
        while j + 8 <= d {
            let pv = _mm256_loadu_ps(p.as_ptr().add(j));
            let qv = _mm256_loadu_ps(q.as_ptr().add(j));
            if _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LE_OQ>(pv, qv)) != 0xFF {
                return false;
            }
            lt = _mm256_or_ps(lt, _mm256_cmp_ps::<_CMP_LT_OQ>(pv, qv));
            j += 8;
        }
        let mut lt_tail = false;
        while j < d {
            if p[j] > q[j] {
                return false;
            }
            lt_tail |= p[j] < q[j];
            j += 1;
        }
        lt_tail || _mm256_movemask_ps(lt) != 0
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn de_avx2(p: &[f32], q: &[f32]) -> bool {
        let d = p.len();
        let mut j = 0;
        while j + 8 <= d {
            let pv = _mm256_loadu_ps(p.as_ptr().add(j));
            let qv = _mm256_loadu_ps(q.as_ptr().add(j));
            if _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LE_OQ>(pv, qv)) != 0xFF {
                return false;
            }
            j += 8;
        }
        p[j..].iter().zip(&q[j..]).all(|(a, b)| a <= b)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn both_le_avx2(p: &[f32], q: &[f32]) -> (bool, bool) {
        let d = p.len();
        let (mut p_le, mut q_le) = (true, true);
        let mut j = 0;
        while j + 8 <= d {
            let pv = _mm256_loadu_ps(p.as_ptr().add(j));
            let qv = _mm256_loadu_ps(q.as_ptr().add(j));
            p_le &= _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LE_OQ>(pv, qv)) == 0xFF;
            q_le &= _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LE_OQ>(qv, pv)) == 0xFF;
            if !p_le && !q_le {
                return (false, false);
            }
            j += 8;
        }
        for (a, b) in p[j..].iter().zip(&q[j..]) {
            p_le &= a <= b;
            q_le &= b <= a;
        }
        (p_le, q_le)
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn sd_sse2(p: &[f32], q: &[f32]) -> bool {
        let d = p.len();
        let mut lt = _mm_setzero_ps();
        let mut j = 0;
        while j + 4 <= d {
            let pv = _mm_loadu_ps(p.as_ptr().add(j));
            let qv = _mm_loadu_ps(q.as_ptr().add(j));
            if _mm_movemask_ps(_mm_cmple_ps(pv, qv)) != 0xF {
                return false;
            }
            lt = _mm_or_ps(lt, _mm_cmplt_ps(pv, qv));
            j += 4;
        }
        let mut lt_tail = false;
        while j < d {
            if p[j] > q[j] {
                return false;
            }
            lt_tail |= p[j] < q[j];
            j += 1;
        }
        lt_tail || _mm_movemask_ps(lt) != 0
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn de_sse2(p: &[f32], q: &[f32]) -> bool {
        let d = p.len();
        let mut j = 0;
        while j + 4 <= d {
            let pv = _mm_loadu_ps(p.as_ptr().add(j));
            let qv = _mm_loadu_ps(q.as_ptr().add(j));
            if _mm_movemask_ps(_mm_cmple_ps(pv, qv)) != 0xF {
                return false;
            }
            j += 4;
        }
        p[j..].iter().zip(&q[j..]).all(|(a, b)| a <= b)
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn both_le_sse2(p: &[f32], q: &[f32]) -> (bool, bool) {
        let d = p.len();
        let (mut p_le, mut q_le) = (true, true);
        let mut j = 0;
        while j + 4 <= d {
            let pv = _mm_loadu_ps(p.as_ptr().add(j));
            let qv = _mm_loadu_ps(q.as_ptr().add(j));
            p_le &= _mm_movemask_ps(_mm_cmple_ps(pv, qv)) == 0xF;
            q_le &= _mm_movemask_ps(_mm_cmple_ps(qv, pv)) == 0xF;
            if !p_le && !q_le {
                return (false, false);
            }
            j += 4;
        }
        for (a, b) in p[j..].iter().zip(&q[j..]) {
            p_le &= a <= b;
            q_le &= b <= a;
        }
        (p_le, q_le)
    }

    // ---- batched one-vs-many ---------------------------------------

    #[target_feature(enable = "avx2")]
    pub unsafe fn tile_dominators_avx2(cols: &[f32], d: usize, q: &[f32]) -> u32 {
        // Padding lanes hold +∞, whose `le` fails on the first column,
        // so no live mask is needed for this direction.
        let mut le = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
        let mut lt = _mm256_setzero_ps();
        for j in 0..d {
            let col = _mm256_load_ps(cols.as_ptr().add(j * TILE_LANES));
            let qv = _mm256_set1_ps(*q.get_unchecked(j));
            le = _mm256_and_ps(le, _mm256_cmp_ps::<_CMP_LE_OQ>(col, qv));
            if _mm256_movemask_ps(le) == 0 {
                return 0;
            }
            lt = _mm256_or_ps(lt, _mm256_cmp_ps::<_CMP_LT_OQ>(col, qv));
        }
        (_mm256_movemask_ps(le) & _mm256_movemask_ps(lt)) as u32
    }

    // ---- whole-range tile scans -------------------------------------
    //
    // One call scans a slice of tiles for one candidate, evaluating
    // every column of each tile with no per-column exit, so the only
    // data-dependent branch is the hit (or, counting, the cap). On
    // anticorrelated data the last live lane of a tile fails at a
    // nearly uniform column, so a per-column exit mispredicts on almost
    // every tile; evaluating all columns is cheaper. With that branch
    // gone consecutive tiles are independent work the core overlaps by
    // itself: fusing two or four tiles per iteration measured no faster,
    // on anticorrelated 200 000 × 6 or in `skybench ablation-dominance`.
    // For d ≤ 8 the dimensionality is a constant, the column loop
    // unrolls and the broadcasts of `q` stay in registers for the whole
    // scan. Wider tiles take the runtime-`d` path, which re-broadcasts
    // `q[j]` per tile as one load (16 registers cannot hold more
    // broadcasts anyway) and has no exit either: on the d = 16 ablation
    // row one check per 8 columns measured 1.33–1.45 ns per test
    // against 0.85–0.86 without.

    /// Runs `$scan::<D>($args)` with `D` = the dimensionality `$d` for
    /// 1 ≤ d ≤ 8, `D = 0` (the runtime-`d` path) above.
    macro_rules! by_dims {
        ($d:expr, $scan:ident($($arg:expr),*)) => {
            match $d {
                1 => $scan::<1>($($arg),*),
                2 => $scan::<2>($($arg),*),
                3 => $scan::<3>($($arg),*),
                4 => $scan::<4>($($arg),*),
                5 => $scan::<5>($($arg),*),
                6 => $scan::<6>($($arg),*),
                7 => $scan::<7>($($arg),*),
                8 => $scan::<8>($($arg),*),
                _ => $scan::<0>($($arg),*),
            }
        };
    }

    /// `q[j]` broadcast to all 8 lanes, for each of the `D` columns.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn broadcasts<const D: usize>(q: &[f32]) -> [__m256; D] {
        let mut qb = [_mm256_setzero_ps(); D];
        for (j, v) in qb.iter_mut().enumerate() {
            *v = _mm256_set1_ps(*q.get_unchecked(j));
        }
        qb
    }

    /// Bitmask of the lanes of `tile` that strictly dominate `q`, over
    /// every column. `D > 0` reads the register broadcasts `qb`; `D = 0`
    /// broadcasts `q[j]` per column.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn all_column_dominators<const D: usize>(
        tile: &DtBlock,
        q: &[f32],
        qb: &[__m256; D],
    ) -> i32 {
        let cols = tile.cols.as_ptr();
        let mut le = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
        let mut lt = _mm256_setzero_ps();
        let d = if D > 0 { D } else { q.len() };
        // `j` walks the broadcasts (or `q`) and the tile's columns.
        #[allow(clippy::needless_range_loop)]
        for j in 0..d {
            let qv = if D > 0 {
                qb[j]
            } else {
                _mm256_set1_ps(*q.get_unchecked(j))
            };
            let col = _mm256_load_ps(cols.add(j * TILE_LANES));
            le = _mm256_and_ps(le, _mm256_cmp_ps::<_CMP_LE_OQ>(col, qv));
            lt = _mm256_or_ps(lt, _mm256_cmp_ps::<_CMP_LT_OQ>(col, qv));
        }
        _mm256_movemask_ps(_mm256_and_ps(le, lt))
    }

    /// Index of the first tile in `tiles` with a lane that strictly
    /// dominates `q`.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2 and every tile has `q.len()` columns.
    #[target_feature(enable = "avx2")]
    pub unsafe fn first_dominating_tile_avx2(tiles: &[DtBlock], q: &[f32]) -> Option<usize> {
        by_dims!(q.len(), first_hit(tiles, q))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn first_hit<const D: usize>(tiles: &[DtBlock], q: &[f32]) -> Option<usize> {
        let qb = broadcasts::<D>(q);
        for (t, tile) in tiles.iter().enumerate() {
            if all_column_dominators(tile, q, &qb) != 0 {
                return Some(t);
            }
        }
        None
    }

    /// Strict dominators of `q` in `tiles`, tile by tile until the
    /// count reaches `cap`: `(count, tiles inspected)`.
    ///
    /// # Safety
    ///
    /// As for [`first_dominating_tile_avx2`].
    #[target_feature(enable = "avx2")]
    pub unsafe fn count_dominators_avx2(tiles: &[DtBlock], q: &[f32], cap: u32) -> (u32, usize) {
        by_dims!(q.len(), count_hits(tiles, q, cap))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn count_hits<const D: usize>(tiles: &[DtBlock], q: &[f32], cap: u32) -> (u32, usize) {
        let qb = broadcasts::<D>(q);
        let mut count = 0u32;
        for (t, tile) in tiles.iter().enumerate() {
            count += all_column_dominators(tile, q, &qb).count_ones();
            if count >= cap {
                return (count, t + 1);
            }
        }
        (count, tiles.len())
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn tile_compare_avx2(cols: &[f32], d: usize, q: &[f32], live: u32) -> (u32, u32) {
        let ones = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
        let (mut le, mut ge) = (ones, ones);
        let (mut lt, mut gt) = (_mm256_setzero_ps(), _mm256_setzero_ps());
        for j in 0..d {
            let col = _mm256_load_ps(cols.as_ptr().add(j * TILE_LANES));
            let qv = _mm256_set1_ps(*q.get_unchecked(j));
            le = _mm256_and_ps(le, _mm256_cmp_ps::<_CMP_LE_OQ>(col, qv));
            ge = _mm256_and_ps(ge, _mm256_cmp_ps::<_CMP_GE_OQ>(col, qv));
            if _mm256_movemask_ps(le) == 0 && _mm256_movemask_ps(ge) as u32 & live == 0 {
                return (0, 0);
            }
            lt = _mm256_or_ps(lt, _mm256_cmp_ps::<_CMP_LT_OQ>(col, qv));
            gt = _mm256_or_ps(gt, _mm256_cmp_ps::<_CMP_GT_OQ>(col, qv));
        }
        let dom = (_mm256_movemask_ps(le) & _mm256_movemask_ps(lt)) as u32;
        let sub = (_mm256_movemask_ps(ge) & _mm256_movemask_ps(gt)) as u32 & live;
        (dom, sub)
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn tile_dominators_sse2(cols: &[f32], d: usize, q: &[f32]) -> u32 {
        let ones = _mm_castsi128_ps(_mm_set1_epi32(-1));
        let (mut le_lo, mut le_hi) = (ones, ones);
        let (mut lt_lo, mut lt_hi) = (_mm_setzero_ps(), _mm_setzero_ps());
        for j in 0..d {
            let base = cols.as_ptr().add(j * TILE_LANES);
            let qv = _mm_set1_ps(*q.get_unchecked(j));
            let (lo, hi) = (_mm_load_ps(base), _mm_load_ps(base.add(4)));
            le_lo = _mm_and_ps(le_lo, _mm_cmple_ps(lo, qv));
            le_hi = _mm_and_ps(le_hi, _mm_cmple_ps(hi, qv));
            if _mm_movemask_ps(le_lo) == 0 && _mm_movemask_ps(le_hi) == 0 {
                return 0;
            }
            lt_lo = _mm_or_ps(lt_lo, _mm_cmplt_ps(lo, qv));
            lt_hi = _mm_or_ps(lt_hi, _mm_cmplt_ps(hi, qv));
        }
        let le = (_mm_movemask_ps(le_lo) | (_mm_movemask_ps(le_hi) << 4)) as u32;
        let lt = (_mm_movemask_ps(lt_lo) | (_mm_movemask_ps(lt_hi) << 4)) as u32;
        le & lt
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn tile_compare_sse2(cols: &[f32], d: usize, q: &[f32], live: u32) -> (u32, u32) {
        let ones = _mm_castsi128_ps(_mm_set1_epi32(-1));
        let (mut le_lo, mut le_hi, mut ge_lo, mut ge_hi) = (ones, ones, ones, ones);
        let zero = _mm_setzero_ps();
        let (mut lt_lo, mut lt_hi, mut gt_lo, mut gt_hi) = (zero, zero, zero, zero);
        for j in 0..d {
            let base = cols.as_ptr().add(j * TILE_LANES);
            let qv = _mm_set1_ps(*q.get_unchecked(j));
            let (lo, hi) = (_mm_load_ps(base), _mm_load_ps(base.add(4)));
            le_lo = _mm_and_ps(le_lo, _mm_cmple_ps(lo, qv));
            le_hi = _mm_and_ps(le_hi, _mm_cmple_ps(hi, qv));
            ge_lo = _mm_and_ps(ge_lo, _mm_cmpge_ps(lo, qv));
            ge_hi = _mm_and_ps(ge_hi, _mm_cmpge_ps(hi, qv));
            let le = _mm_movemask_ps(le_lo) | (_mm_movemask_ps(le_hi) << 4);
            let ge = _mm_movemask_ps(ge_lo) | (_mm_movemask_ps(ge_hi) << 4);
            if le == 0 && ge as u32 & live == 0 {
                return (0, 0);
            }
            lt_lo = _mm_or_ps(lt_lo, _mm_cmplt_ps(lo, qv));
            lt_hi = _mm_or_ps(lt_hi, _mm_cmplt_ps(hi, qv));
            gt_lo = _mm_or_ps(gt_lo, _mm_cmpgt_ps(lo, qv));
            gt_hi = _mm_or_ps(gt_hi, _mm_cmpgt_ps(hi, qv));
        }
        let le = (_mm_movemask_ps(le_lo) | (_mm_movemask_ps(le_hi) << 4)) as u32;
        let lt = (_mm_movemask_ps(lt_lo) | (_mm_movemask_ps(lt_hi) << 4)) as u32;
        let ge = (_mm_movemask_ps(ge_lo) | (_mm_movemask_ps(ge_hi) << 4)) as u32;
        let gt = (_mm_movemask_ps(gt_lo) | (_mm_movemask_ps(gt_hi) << 4)) as u32;
        (le & lt, ge & gt & live)
    }
}

// --------------------------------------------------------------------
// aarch64 kernels
// --------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    //! NEON implementations; NEON is baseline on `aarch64`.
    #![allow(clippy::missing_safety_doc)]

    use std::arch::aarch64::*;

    use super::TILE_LANES;

    /// One bit per lane from a NEON compare result (all-ones / zero per
    /// lane).
    #[inline(always)]
    unsafe fn mask4(m: uint32x4_t) -> u32 {
        let bits: [u32; 4] = [1, 2, 4, 8];
        vaddvq_u32(vandq_u32(m, vld1q_u32(bits.as_ptr())))
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn sd_neon(p: &[f32], q: &[f32]) -> bool {
        let d = p.len();
        let mut lt = vdupq_n_u32(0);
        let mut j = 0;
        while j + 4 <= d {
            let pv = vld1q_f32(p.as_ptr().add(j));
            let qv = vld1q_f32(q.as_ptr().add(j));
            if vminvq_u32(vcleq_f32(pv, qv)) == 0 {
                return false;
            }
            lt = vorrq_u32(lt, vcltq_f32(pv, qv));
            j += 4;
        }
        let mut lt_tail = false;
        while j < d {
            if p[j] > q[j] {
                return false;
            }
            lt_tail |= p[j] < q[j];
            j += 1;
        }
        lt_tail || vmaxvq_u32(lt) != 0
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn de_neon(p: &[f32], q: &[f32]) -> bool {
        let d = p.len();
        let mut j = 0;
        while j + 4 <= d {
            let pv = vld1q_f32(p.as_ptr().add(j));
            let qv = vld1q_f32(q.as_ptr().add(j));
            if vminvq_u32(vcleq_f32(pv, qv)) == 0 {
                return false;
            }
            j += 4;
        }
        p[j..].iter().zip(&q[j..]).all(|(a, b)| a <= b)
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn both_le_neon(p: &[f32], q: &[f32]) -> (bool, bool) {
        let d = p.len();
        let (mut p_le, mut q_le) = (true, true);
        let mut j = 0;
        while j + 4 <= d {
            let pv = vld1q_f32(p.as_ptr().add(j));
            let qv = vld1q_f32(q.as_ptr().add(j));
            p_le &= vminvq_u32(vcleq_f32(pv, qv)) != 0;
            q_le &= vminvq_u32(vcleq_f32(qv, pv)) != 0;
            if !p_le && !q_le {
                return (false, false);
            }
            j += 4;
        }
        for (a, b) in p[j..].iter().zip(&q[j..]) {
            p_le &= a <= b;
            q_le &= b <= a;
        }
        (p_le, q_le)
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn tile_dominators_neon(cols: &[f32], d: usize, q: &[f32]) -> u32 {
        let ones = vdupq_n_u32(u32::MAX);
        let (mut le_lo, mut le_hi) = (ones, ones);
        let (mut lt_lo, mut lt_hi) = (vdupq_n_u32(0), vdupq_n_u32(0));
        for j in 0..d {
            let base = cols.as_ptr().add(j * TILE_LANES);
            let qv = vdupq_n_f32(*q.get_unchecked(j));
            let (lo, hi) = (vld1q_f32(base), vld1q_f32(base.add(4)));
            le_lo = vandq_u32(le_lo, vcleq_f32(lo, qv));
            le_hi = vandq_u32(le_hi, vcleq_f32(hi, qv));
            if vmaxvq_u32(le_lo) == 0 && vmaxvq_u32(le_hi) == 0 {
                return 0;
            }
            lt_lo = vorrq_u32(lt_lo, vcltq_f32(lo, qv));
            lt_hi = vorrq_u32(lt_hi, vcltq_f32(hi, qv));
        }
        let le = mask4(le_lo) | (mask4(le_hi) << 4);
        let lt = mask4(lt_lo) | (mask4(lt_hi) << 4);
        le & lt
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn tile_compare_neon(cols: &[f32], d: usize, q: &[f32], live: u32) -> (u32, u32) {
        let ones = vdupq_n_u32(u32::MAX);
        let (mut le_lo, mut le_hi, mut ge_lo, mut ge_hi) = (ones, ones, ones, ones);
        let zero = vdupq_n_u32(0);
        let (mut lt_lo, mut lt_hi, mut gt_lo, mut gt_hi) = (zero, zero, zero, zero);
        for j in 0..d {
            let base = cols.as_ptr().add(j * TILE_LANES);
            let qv = vdupq_n_f32(*q.get_unchecked(j));
            let (lo, hi) = (vld1q_f32(base), vld1q_f32(base.add(4)));
            le_lo = vandq_u32(le_lo, vcleq_f32(lo, qv));
            le_hi = vandq_u32(le_hi, vcleq_f32(hi, qv));
            ge_lo = vandq_u32(ge_lo, vcgeq_f32(lo, qv));
            ge_hi = vandq_u32(ge_hi, vcgeq_f32(hi, qv));
            let le_dead = vmaxvq_u32(le_lo) == 0 && vmaxvq_u32(le_hi) == 0;
            let ge = mask4(ge_lo) | (mask4(ge_hi) << 4);
            if le_dead && ge & live == 0 {
                return (0, 0);
            }
            lt_lo = vorrq_u32(lt_lo, vcltq_f32(lo, qv));
            lt_hi = vorrq_u32(lt_hi, vcltq_f32(hi, qv));
            gt_lo = vorrq_u32(gt_lo, vcgtq_f32(lo, qv));
            gt_hi = vorrq_u32(gt_hi, vcgtq_f32(hi, qv));
        }
        let le = mask4(le_lo) | (mask4(le_hi) << 4);
        let lt = mask4(lt_lo) | (mask4(lt_hi) << 4);
        let ge = mask4(ge_lo) | (mask4(ge_hi) << 4);
        let gt = mask4(gt_lo) | (mask4(gt_hi) << 4);
        (le & lt, ge & gt & live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::strictly_dominates as sd_ref;

    fn levels() -> Vec<Level> {
        Level::available()
    }

    #[test]
    fn level_metadata() {
        assert_eq!(Level::Scalar.name(), "scalar");
        let avail = levels();
        assert_eq!(avail[0], Level::Scalar);
        assert!(avail.contains(&detected_level()));
        // The active level is one of the available ones whatever the
        // environment says.
        assert!(avail.contains(&active_level()));
    }

    #[test]
    fn flip_pref_is_ieee_negation() {
        for v in [0.0f32, -0.0, 1.5, -2.25, f32::MIN_POSITIVE, 1e30] {
            assert_eq!(flip_pref(v, true).to_bits(), (-v).to_bits());
            assert_eq!(flip_pref(v, false).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn one_vs_one_kernels_match_reference() {
        let alphabet = [0.0f32, -0.0, 1.0, 2.0, -1.0];
        let mut rng = 0xABCDu64;
        for d in [1usize, 3, 4, 7, 8, 9, 15, 16, 17, 24] {
            let mut p = vec![0.0f32; d];
            let mut q = vec![0.0f32; d];
            for _ in 0..1_500 {
                for v in p.iter_mut().chain(q.iter_mut()) {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                    *v = alphabet[(rng >> 33) as usize % alphabet.len()];
                }
                let want_sd = sd_ref(&p, &q);
                let want_de = p.iter().zip(&q).all(|(a, b)| a <= b);
                let want_cmp = crate::dominance::compare(&p, &q);
                for &lv in &levels() {
                    assert_eq!(strictly_dominates_with(lv, &p, &q), want_sd, "{lv:?} d={d}");
                    assert_eq!(dominates_or_equal_with(lv, &p, &q), want_de, "{lv:?} d={d}");
                    assert_eq!(compare_with(lv, &p, &q), want_cmp, "{lv:?} d={d}");
                }
            }
        }
    }

    #[test]
    fn tile_masks_match_per_lane_reference() {
        let mut rng = 0x5EEDu64;
        let mut next = move || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng >> 40) % 4) as f32
        };
        for d in [1usize, 2, 5, 8, 13] {
            for live in 1..=TILE_LANES {
                let rows: Vec<Vec<f32>> = (0..live)
                    .map(|_| (0..d).map(|_| next()).collect())
                    .collect();
                let mut tile = DtBlock::new(d);
                for (l, row) in rows.iter().enumerate() {
                    tile.set_lane(l, row);
                }
                for _ in 0..50 {
                    let q: Vec<f32> = (0..d).map(|_| next()).collect();
                    let mut want_dom = 0u32;
                    let mut want_sub = 0u32;
                    for (l, row) in rows.iter().enumerate() {
                        want_dom |= u32::from(sd_ref(row, &q)) << l;
                        want_sub |= u32::from(sd_ref(&q, row)) << l;
                    }
                    for &lv in &levels() {
                        assert_eq!(tile.dominators_with(lv, &q), want_dom, "{lv:?}");
                        assert_eq!(
                            tile.compare_masks_with(lv, &q),
                            (want_dom, want_sub),
                            "{lv:?} d={d} live={live}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn nan_is_not_le_at_any_level() {
        // NaN is rejected at the Dataset boundary, but the public
        // kernels must still agree across levels: an unordered
        // comparison is "not ≤", never inferred from the absence of
        // ">". (`strictly_dominates*` levels follow the lanes
        // reference, whose `le` accumulation also rejects NaN.)
        let nan = f32::NAN;
        let all_nan = [nan; 9];
        let ones = [1.0f32; 9];
        for &lv in &levels() {
            assert!(!dominates_or_equal_with(lv, &all_nan, &all_nan), "{lv:?}");
            assert!(!dominates_or_equal_with(lv, &all_nan, &ones), "{lv:?}");
            assert_eq!(
                compare_with(lv, &all_nan, &ones),
                DomRelation::Incomparable,
                "{lv:?}"
            );
            let mut p = ones;
            p[0] = 0.5;
            let mut q = ones;
            q[4] = nan;
            assert!(
                !strictly_dominates_with(lv, &p, &q),
                "{lv:?}: NaN column must block dominance as in the lanes reference"
            );
        }
    }

    #[test]
    fn padding_lanes_never_participate() {
        let mut tile = DtBlock::new(3);
        tile.set_lane(0, &[1.0, 1.0, 1.0]);
        // q is worse than lane 0 and "better" than the +∞ padding.
        let q = [2.0f32, 2.0, 2.0];
        for &lv in &levels() {
            assert_eq!(tile.dominators_with(lv, &q), 0b1, "{lv:?}");
            let (dom, sub) = tile.compare_masks_with(lv, &q);
            assert_eq!(
                (dom, sub),
                (0b1, 0),
                "{lv:?}: pads must not read as dominated"
            );
        }
    }

    #[test]
    fn pref_lanes_fold_direction_into_the_tile() {
        // Tile over subspace {0, 2} with dim 2 maximised.
        let rows = [[1.0f32, 9.0, 5.0], [2.0, 9.0, 1.0]];
        let dims = [0usize, 2];
        let max_mask = 0b100u32;
        let mut tile = DtBlock::new(2);
        for (l, row) in rows.iter().enumerate() {
            tile.set_lane_pref(l, row, &dims, max_mask);
        }
        // Candidate (1.5, 4.0): row 0 dominates it on {min 0, max 2}
        // (1 ≤ 1.5, 5 ≥ 4, one strict); row 1 does not (2 > 1.5 fails).
        let q_raw = [1.5f32, 0.0, 4.0];
        let q: Vec<f32> = dims
            .iter()
            .map(|&c| flip_pref(q_raw[c], max_mask & (1 << c) != 0))
            .collect();
        for &lv in &levels() {
            assert_eq!(tile.dominators_with(lv, &q), 0b1, "{lv:?}");
        }
        // Agreement with the scalar pref kernel on the raw rows.
        use crate::dominance::strictly_dominates_on_pref;
        assert!(strictly_dominates_on_pref(
            &rows[0], &q_raw, &dims, max_mask
        ));
        assert!(!strictly_dominates_on_pref(
            &rows[1], &q_raw, &dims, max_mask
        ));
    }

    #[test]
    fn store_push_scan_and_prefix() {
        let rows: Vec<Vec<f32>> = (0..21).map(|i| vec![i as f32, (21 - i) as f32]).collect();
        let mut store = TileStore::with_capacity(2, rows.len());
        for r in &rows {
            store.push(r);
        }
        assert_eq!(store.len(), 21);
        assert_eq!(store.tiles().len(), 3);
        assert_eq!(store.point(20), vec![20.0, 1.0]);
        let mut dts = 0u64;
        // (5, 17) is dominated by row 4 = (4, 17)? 4<5, 17<=17 → yes.
        assert!(store.any_dominates(&[5.0, 17.5], &mut dts));
        assert!(dts > 0);
        // Prefix scans: nothing in the first 3 rows dominates (2.5, 18.5)
        // except row 2 = (2, 19)? 2 < 2.5 but 19 > 18.5 → no.
        let mut dts = 0;
        assert!(!store.any_dominates_first(3, &[2.5, 18.5], &mut dts));
        assert_eq!(dts, 3, "prefix accounting is lane-exact");
        // Row 3 = (3, 18) does not dominate it either (3 > 2.5).
        assert!(!store.any_dominates_first(4, &[2.5, 18.5], &mut dts));
        // But (3.5, 18.5) is dominated by row 3 within the first 4.
        let mut dts = 0;
        assert!(store.any_dominates_first(4, &[3.5, 18.5], &mut dts));
    }

    #[test]
    fn count_dominators_range_matches_scalar_count() {
        // A descending anti-chain plus a dominated tail: row i is
        // (i, 21-i) for i < 21, then chained points that each pick up
        // dominators. 21 rows span three tiles so head/pair/tail paths
        // all run at unaligned boundaries.
        let rows: Vec<Vec<f32>> = (0..21).map(|i| vec![i as f32, (21 - i) as f32]).collect();
        let mut store = TileStore::with_capacity(2, rows.len());
        for r in &rows {
            store.push(r);
        }
        let scalar = |start: usize, end: usize, q: &[f32]| -> u32 {
            (start..end)
                .filter(|&i| super::strictly_dominates(&store.point(i), q))
                .count() as u32
        };
        for q in [
            &[10.5f32, 12.5][..],
            &[5.0, 30.0],
            &[30.0, 30.0],
            &[0.0, 0.0],
        ] {
            for (start, end) in [(0, 21), (3, 21), (0, 13), (5, 19), (9, 10), (7, 7)] {
                let want = scalar(start, end, q);
                let mut dts = 0u64;
                assert_eq!(
                    store.count_dominators_range(start, end, q, u32::MAX, &mut dts),
                    want,
                    "q={q:?} range {start}..{end}"
                );
                // Capping returns min(count, cap), for every cap.
                for cap in 0..=want + 1 {
                    let mut dts = 0u64;
                    assert_eq!(
                        store.count_dominators_range(start, end, q, cap, &mut dts),
                        want.min(cap),
                        "q={q:?} range {start}..{end} cap {cap}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "candidate dimensionality")]
    fn range_scans_reject_a_candidate_of_another_dimensionality() {
        // The whole-range kernels read `q.len()` columns per tile: a
        // longer candidate must stop the scan, not read past the tiles.
        let mut store = TileStore::new(2);
        for i in 0..24 {
            store.push(&[i as f32, 0.0]);
        }
        store.any_dominates_range(0, 24, &[0.0; 3], &mut 0);
    }

    #[test]
    fn store_swap_remove_mirrors_vec_semantics() {
        let rows: Vec<Vec<f32>> = (0..19).map(|i| vec![i as f32, i as f32 * 0.5]).collect();
        let mut store = TileStore::new(2);
        let mut model: Vec<Vec<f32>> = Vec::new();
        for r in &rows {
            store.push(r);
            model.push(r.clone());
        }
        for &i in &[0usize, 17, 3, 9, 0, 7, 5] {
            store.swap_remove(i);
            model.swap_remove(i);
            assert_eq!(store.len(), model.len());
            for (k, row) in model.iter().enumerate() {
                assert_eq!(&store.point(k), row, "after removing {i}");
            }
        }
        // Tile bookkeeping: last tile's live count matches.
        let tail = store.len() % TILE_LANES;
        if tail > 0 {
            assert_eq!(store.tiles().last().unwrap().live(), tail);
        }
    }

    #[test]
    fn offer_implements_bnl_window_semantics() {
        let mut store = TileStore::new(2);
        let mut ids: Vec<u32> = Vec::new();
        let mut dts = 0u64;
        // Model: classic BNL window over the same stream.
        let stream: Vec<Vec<f32>> = vec![
            vec![5.0, 5.0],
            vec![3.0, 7.0],
            vec![6.0, 6.0], // dominated by (5,5)
            vec![2.0, 2.0], // evicts (5,5) and (3,7)? (3,7): 2<3,2<7 yes
            vec![2.0, 2.0], // duplicate survives
            vec![1.0, 3.0],
        ];
        for (i, p) in stream.iter().enumerate() {
            let dominated = store.offer(p, &mut dts, |pos| {
                ids.swap_remove(pos);
            });
            if !dominated {
                store.push(p);
                ids.push(i as u32);
            }
        }
        let mut got = ids.clone();
        got.sort_unstable();
        assert_eq!(got, vec![3, 4, 5]);
        assert_eq!(store.len(), ids.len());
        // Ids and coordinates stayed in lockstep.
        for (k, &id) in ids.iter().enumerate() {
            assert_eq!(store.point(k), stream[id as usize]);
        }
    }
}
