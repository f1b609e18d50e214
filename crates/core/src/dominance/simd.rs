//! Explicit SIMD dominance kernels (paper §VII-A2, "8-degree data-level
//! parallelism").
//!
//! The paper's single biggest micro-optimisation is a hand-written
//! vectorized dominance test shared by every algorithm. An explicit
//! kernel pays off where one candidate meets many points, so this
//! module holds only the two batched one-vs-many shapes; one-vs-one
//! tests stay on the inlineable forms in [`super`](crate::dominance).
//!
//! * **One f32 tile**, [`DtBlock`]: a transposed SoA tile of up to
//!   [`TILE_LANES`] points, column-major in a 32-byte-aligned buffer,
//!   tested against one candidate with one aligned load, one broadcast
//!   and vector compares per column. The pre-filter's β-queues are
//!   held in these tiles.
//! * **Code tiles**, [`TileStore`]: the growable windows every scan loop
//!   consumes (append for SFS/Q-Flow/Hybrid, swap-remove for BNL and
//!   the maintenance kernels). A store is one 32-byte-aligned slab of
//!   [`CODE_LANES`]-point tiles, each holding `d` columns of 16-bit
//!   order-preserving codes, plus a row-major `f32` copy of the points.
//!   One AVX2 compare covers 16 points, twice the lanes of an `f32`
//!   compare, and a tile column is 32 bytes instead of 64.
//!
//! # Exact answers from codes
//!
//! A store codes column `j` as `c = clamp(⌊(v − lo_j)·65535/(hi_j −
//! lo_j)⌋)` against a [`ColumnRange`], or, without one, as the high 16
//! bits of the order-preserving key of `v` (with `−0.0` taken as
//! `+0.0`). Both maps are monotone: `v ≤ w ⇒ c(v) ≤ c(w)`. So a lane
//! whose code is greater than the candidate's in some column is greater
//! there, and cannot dominate it; a lane whose codes are smaller in
//! every column is smaller everywhere, and dominates it. Only a lane
//! that neither rule decides (no greater code, some equal one) is
//! re-checked, against its `f32` row. The answer is exact for any
//! range, even a wrong one: a range that is too narrow, too wide or
//! shifted only puts more values into shared buckets and sends more
//! lanes to the re-check. (Rows must not hold NaN, which the
//! `Dataset` boundary rejects.) A range the coder cannot use (`lo ==
//! hi`, `hi < lo`, or not finite) codes that column range-free.
//!
//! The AVX2 scan codes its candidate once, in vector registers, and
//! runs the whole scan — tile loop and re-checks — in one call. Coding
//! is a chain of dependent vector operations, so a scan from the start
//! of a store (d ≤ 8) first tests the first 8 points on their `f32`
//! rows, one vector compare per row: the presorting algorithms put the
//! most likely pruners there, and a quick kill then waits for no codes.
//!
//! # Dominance-test accounting
//!
//! DTs are charged per lane on *virtual 8-lane tiles* — lanes `8v ..
//! 8v + 8` of the store — as when each tile held 8 points:
//! [`TileStore::any_dominates`] charges the first virtual tile alone,
//! then pairs of them through the pair holding the first true
//! dominator; a range scan charges its masked head, whole virtual tiles
//! in pairs, then its masked tail; a count charges tile by tile up to
//! the virtual tile at which it reaches its cap. The charge is a
//! function of where the true dominators are, so it does not depend on
//! the codes, the range or the dispatch level.
//!
//! # Dispatch
//!
//! The instruction set is picked **once per process** by
//! [`active_level`]: AVX2 where the CPU supports it, SSE2 on any other
//! `x86_64`, NEON on `aarch64`, and portable Rust everywhere else. The
//! [`DtBlock`] kernel exists at all four levels. The code-tile kernels
//! exist at two: AVX2, and a portable form (branch-free over 16 lanes,
//! which LLVM vectorises) that every other level runs. So SSE2 and NEON
//! mean "the `DtBlock` kernel at that instruction set, portable code
//! everywhere else". Setting the environment variable
//! **`SKYLINE_FORCE_SCALAR`** (to anything but `0` or the empty string)
//! before first use pins the process to the portable level — the switch
//! CI uses to prove the vector and portable paths compute identical
//! skylines. (Forced-scalar is a correctness lane: the portable tile
//! kernels are several times slower than the vector ones, which is the
//! point of the explicit layer.)
//!
//! [`DtBlock::with_level`] and [`TileStore::with_level`] pin a tile or
//! a store to an explicit [`Level`] (falling back to portable for one
//! this CPU lacks); both *ignore* the environment override, so the
//! equivalence test suite runs all [available](Level::available) levels
//! against the scalar reference in a single process.
//!
//! # Preferences
//!
//! Dominance under `Max` preferences negates the maximised columns.
//! Negating an IEEE-754 float is exactly a sign-bit flip, so
//! [`TileStore::push_pref`] folds the direction into the stored row
//! **once at build time**, before it is coded — scans then run the
//! plain minimising kernels with no per-test branching. The candidate
//! side uses [`flip_pref`] for the same transformation, and a range
//! for folded rows comes from [`ColumnRange::project`].

use std::sync::OnceLock;

use skyline_data::AlignedF32;

use super::strictly_dominates as row_dominates;

/// Points per [`DtBlock`] tile — the width of one AVX2 `f32` register,
/// the paper's "8-degree data-level parallelism" — and per virtual tile
/// of [`TileStore`]'s dominance-test charge.
pub const TILE_LANES: usize = 8;

/// An instruction-set level the dominance kernels can run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Portable Rust: branch-free tile kernels that LLVM vectorises.
    Scalar,
    /// 128-bit SSE2 (baseline on every `x86_64`) for [`DtBlock`];
    /// code tiles run portable.
    Sse2,
    /// 256-bit AVX2.
    Avx2,
    /// 128-bit NEON (baseline on every `aarch64`) for [`DtBlock`];
    /// code tiles run portable.
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

    /// Every level usable on this CPU, scalar first.
    /// [`DtBlock::with_level`] and [`TileStore::with_level`] run the
    /// portable kernels for any other.
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
// One f32 tile
// --------------------------------------------------------------------

/// A transposed SoA tile of up to [`TILE_LANES`] points in `d`
/// dimensions: coordinate `j` of lane `l` lives at `cols[j * 8 + l]`,
/// each 8-wide column 32-byte aligned, so the batched kernels test one
/// candidate against all 8 lanes with a single aligned load and
/// broadcast per dimension.
///
/// Unused lanes are padded with `+∞`, which can never dominate a finite
/// candidate.
#[derive(Debug, Clone)]
pub struct DtBlock {
    d: usize,
    live: usize,
    level: Level,
    cols: AlignedF32,
}

impl DtBlock {
    /// An empty tile (all lanes padding) for `d`-dimensional points,
    /// scanned at the [`active_level`].
    pub fn new(d: usize) -> Self {
        debug_assert!(d >= 1);
        Self {
            d,
            live: 0,
            level: active_level(),
            cols: AlignedF32::filled(d * TILE_LANES, f32::INFINITY),
        }
    }

    /// Pins the tile's scans to `level` instead of the
    /// [`active_level`] (a level not [available](Level::available) on
    /// this CPU runs the portable kernel), so one process can check
    /// every level against the others.
    pub fn with_level(mut self, level: Level) -> Self {
        self.level = if Level::available().contains(&level) {
            level
        } else {
            Level::Scalar
        };
        self
    }

    /// Number of live (non-padding) lanes; live lanes are always the
    /// contiguous prefix `0..live`.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
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

    /// Bitmask of lanes whose point strictly dominates `q`, at the
    /// tile's level. Padding lanes never set a bit. Every level
    /// returns as soon as no lane can still dominate.
    #[inline]
    pub fn dominators(&self, q: &[f32]) -> u32 {
        debug_assert_eq!(q.len(), self.d);
        match self.level {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the level is AVX2 only where the CPU has it
            // (`active_level`, `with_level`); `cols` is d×8 and 32-byte
            // aligned by construction.
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

// --------------------------------------------------------------------
// Code tiles
// --------------------------------------------------------------------

/// Points per code tile of a [`TileStore`]: one 256-bit register of
/// 16-bit codes.
pub const CODE_LANES: usize = 16;

/// One column of a code tile: the codes of 16 points, biased by `0x8000`
/// so signed 16-bit compares order them, 32-byte aligned for one
/// aligned load. Padding lanes hold the largest code.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(32))]
struct CodeCol([i16; CODE_LANES]);

/// The code of a padding lane: no live code is greater, so a padding
/// lane never dominates on codes alone (scans mask it out before any
/// re-check).
const PAD_CODE: i16 = i16::MAX;

/// The biased 16-bit code of `v` in a column quantised from `lo` with
/// `scale` = 65535 / (hi − lo), or range-free when `scale` is 0: the
/// high half of the order-preserving key of `v`, `−0.0` taken as `+0.0`
/// (they compare equal, so they must share a code). Monotone in `v`
/// either way; `as u16` saturates, which is the clamp.
#[inline(always)]
fn code(v: f32, lo: f32, scale: f32) -> i16 {
    let c = if scale > 0.0 {
        ((v - lo) * scale) as u16
    } else {
        let bits = (v + 0.0).to_bits();
        let key = if bits >> 31 != 0 {
            !bits
        } else {
            bits | 0x8000_0000
        };
        (key >> 16) as u16
    };
    (c ^ 0x8000) as i16
}

/// Per-column bounds `[lo, hi]` that a [`TileStore`]'s codes quantise
/// against. Any range gives exact answers; a tight one leaves fewer
/// code ties to re-check.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnRange {
    lo: Vec<f32>,
    hi: Vec<f32>,
}

impl ColumnRange {
    /// The empty range over `d` columns (`lo = +∞`, `hi = −∞`), ready
    /// to [`include`](Self::include) rows.
    pub fn empty(d: usize) -> Self {
        Self {
            lo: vec![f32::INFINITY; d],
            hi: vec![f32::NEG_INFINITY; d],
        }
    }

    /// A range from explicit per-column bounds.
    pub fn new(lo: Vec<f32>, hi: Vec<f32>) -> Self {
        assert_eq!(lo.len(), hi.len(), "one bound pair per column");
        Self { lo, hi }
    }

    /// Number of columns.
    #[inline]
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// Lower bounds, one per column.
    pub fn lo(&self) -> &[f32] {
        &self.lo
    }

    /// Upper bounds, one per column.
    pub fn hi(&self) -> &[f32] {
        &self.hi
    }

    /// Widens the range to cover `row`.
    #[inline]
    pub fn include(&mut self, row: &[f32]) {
        debug_assert_eq!(row.len(), self.dims());
        // Compare-and-select rather than `f32::min`/`max`: one
        // instruction each, which keeps the passes that fold rows in
        // at memory speed.
        for ((lo, hi), &v) in self.lo.iter_mut().zip(&mut self.hi).zip(row) {
            *lo = if v < *lo { v } else { *lo };
            *hi = if v > *hi { v } else { *hi };
        }
    }

    /// Widens the range to cover `other`.
    pub fn union(&mut self, other: &ColumnRange) {
        self.include(&other.lo);
        self.include(&other.hi);
    }

    /// The range of the rows [`TileStore::push_pref`] stores: this
    /// (full-space) range projected onto `dims`, with the columns set
    /// in `max_mask` negated, so `[lo, hi]` becomes `[−hi, −lo]`.
    pub fn project(&self, dims: &[usize], max_mask: u32) -> ColumnRange {
        let (lo, hi) = dims
            .iter()
            .map(|&c| {
                if max_mask & (1 << c) != 0 {
                    (-self.hi[c], -self.lo[c])
                } else {
                    (self.lo[c], self.hi[c])
                }
            })
            .unzip();
        ColumnRange { lo, hi }
    }
}

/// Per-lane outcomes of comparing one code tile with a candidate's
/// codes, one bit per lane: some column greater / some column smaller /
/// every column greater / every column smaller.
#[derive(Debug, Clone, Copy)]
struct CodeMasks {
    gt_any: u32,
    lt_any: u32,
    gt_all: u32,
    lt_all: u32,
}

/// Lanes of tile `t` that hold points of `start..end`.
#[inline]
fn window(t: usize, start: usize, end: usize) -> u32 {
    let base = t * CODE_LANES;
    let lo = start.saturating_sub(base).min(CODE_LANES);
    let hi = end.saturating_sub(base).min(CODE_LANES);
    ((1u32 << hi) - 1) & !((1u32 << lo) - 1)
}

/// Lanes a range scan of `start..end` charges when its first true
/// dominator is `hit`: the masked head virtual tile alone, then whole
/// virtual tiles in pairs counted from the first whole one, through
/// the pair holding the hit (a lone last whole tile alone), then the
/// masked tail; all of `start..end` on a miss.
#[inline]
fn range_charge(start: usize, end: usize, hit: Option<usize>) -> usize {
    let Some(i) = hit else {
        return end - start;
    };
    let head_end = start.next_multiple_of(TILE_LANES);
    if i < head_end {
        return end.min(head_end) - start;
    }
    let (t0, t1, v) = (head_end / TILE_LANES, end / TILE_LANES, i / TILE_LANES);
    if v >= t1 {
        return end - start;
    }
    (t0 + ((v - t0) | 1) + 1).min(t1) * TILE_LANES - start
}

/// A growable window of points as one slab of 16-lane code tiles plus
/// a row-major `f32` copy of the points (see the [module
/// docs](self)). Point `i` is lane `i % 16` of tile `i / 16`, so tile
/// order equals insertion order — the scan order the presorting
/// algorithms rely on ("most likely pruners first").
#[derive(Debug, Clone)]
pub struct TileStore {
    d: usize,
    len: usize,
    level: Level,
    /// Per-column coder: `lo` and 65535 / (hi − lo), or a scale of 0
    /// for a range-free column.
    lo: Vec<f32>,
    scale: Vec<f32>,
    /// Tile `t`, column `j` at `t * d + j`.
    codes: Vec<CodeCol>,
    /// Point `i` at `i * d .. (i + 1) * d`.
    rows: Vec<f32>,
}

impl TileStore {
    /// An empty store for `d`-dimensional points, coded range-free.
    pub fn new(d: usize) -> Self {
        Self::with_capacity(d, 0)
    }

    /// An empty store with room for `n` points pre-reserved, coded
    /// range-free.
    pub fn with_capacity(d: usize, n: usize) -> Self {
        Self::build(d, n, vec![0.0; d], vec![0.0; d])
    }

    /// An empty store with room for `n` points, coding each column
    /// against `range` (one column per store dimension).
    pub fn with_range(range: &ColumnRange, n: usize) -> Self {
        let (lo, scale) = range
            .lo
            .iter()
            .zip(&range.hi)
            .map(|(&lo, &hi)| {
                let scale = 65535.0 / (hi - lo);
                if lo.is_finite() && scale.is_finite() && scale > 0.0 {
                    (lo, scale)
                } else {
                    (0.0, 0.0)
                }
            })
            .unzip();
        Self::build(range.dims(), n, lo, scale)
    }

    /// `lo` and `scale` are padded with zeros to a whole number of
    /// 8-lane vectors, which the AVX2 kernel loads whole.
    fn build(d: usize, n: usize, mut lo: Vec<f32>, mut scale: Vec<f32>) -> Self {
        lo.resize(d.next_multiple_of(8), 0.0);
        scale.resize(d.next_multiple_of(8), 0.0);
        Self {
            d,
            len: 0,
            level: active_level(),
            lo,
            scale,
            codes: Vec::with_capacity(n.div_ceil(CODE_LANES) * d),
            rows: Vec::with_capacity(n * d),
        }
    }

    /// Pins the store's scans to `level` instead of the
    /// [`active_level`] (a level not [available](Level::available) on
    /// this CPU runs the portable kernels), so one process can check
    /// every level against the others.
    pub fn with_level(mut self, level: Level) -> Self {
        self.level = if Level::available().contains(&level) {
            level
        } else {
            Level::Scalar
        };
        self
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

    /// Coordinates of point `i`, as stored (pref-folded by
    /// [`push_pref`](Self::push_pref)).
    #[inline]
    pub fn point(&self, i: usize) -> &[f32] {
        &self.rows[i * self.d..(i + 1) * self.d]
    }

    /// Appends `row` as the new last point.
    pub fn push(&mut self, row: &[f32]) {
        debug_assert_eq!(row.len(), self.d);
        self.rows.extend_from_slice(row);
        self.code_last();
    }

    /// Appends the subspace projection `row[dims[..]]`, sign-flipping
    /// the columns whose **full-space** index is set in `max_mask` —
    /// the preference negation paid once at build time instead of per
    /// dominance test. Candidates tested against such a store must be
    /// transformed the same way (see [`flip_pref`]).
    pub fn push_pref(&mut self, row: &[f32], dims: &[usize], max_mask: u32) {
        debug_assert_eq!(dims.len(), self.d);
        self.rows.extend(
            dims.iter()
                .map(|&c| flip_pref(row[c], max_mask & (1 << c) != 0)),
        );
        self.code_last();
    }

    /// Codes the row just appended to `rows` into lane `len % 16`.
    fn code_last(&mut self) {
        let d = self.d;
        let (t, lane) = (self.len / CODE_LANES, self.len % CODE_LANES);
        if lane == 0 {
            self.codes
                .resize(self.codes.len() + d, CodeCol([PAD_CODE; CODE_LANES]));
        }
        let row = &self.rows[self.len * d..];
        let coder = self.lo.iter().zip(&self.scale);
        for ((col, &v), (&lo, &scale)) in self.codes[t * d..].iter_mut().zip(row).zip(coder) {
            col.0[lane] = code(v, lo, scale);
        }
        self.len += 1;
    }

    /// Removes point `i` by moving the last point into its slot —
    /// `Vec::swap_remove` semantics, so parallel arrays stay in sync by
    /// mirroring the call.
    pub fn swap_remove(&mut self, i: usize) {
        debug_assert!(i < self.len);
        let d = self.d;
        let last = self.len - 1;
        let (lt, ll) = (last / CODE_LANES, last % CODE_LANES);
        if i != last {
            let (it, il) = (i / CODE_LANES, i % CODE_LANES);
            for j in 0..d {
                self.codes[it * d + j].0[il] = self.codes[lt * d + j].0[ll];
            }
            self.rows.copy_within(last * d..(last + 1) * d, i * d);
        }
        for col in &mut self.codes[lt * d..(lt + 1) * d] {
            col.0[ll] = PAD_CODE;
        }
        self.rows.truncate(last * d);
        if ll == 0 {
            self.codes.truncate(lt * d);
        }
        self.len = last;
    }

    /// Checks that candidate `q` has the store's dimensionality.
    #[inline]
    fn check_dims(&self, q: &[f32]) {
        assert_eq!(
            q.len(),
            self.d,
            "candidate dimensionality differs from the store's"
        );
    }

    /// Position of the first point of `start..end` that strictly
    /// dominates `q`.
    #[inline]
    fn first_dominator(&self, start: usize, end: usize, q: &[f32]) -> Option<usize> {
        self.check_dims(q);
        assert!(end <= self.len);
        match self.level {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the level is AVX2 only where the CPU has it
            // (`active_level`, `with_level`), `end` is in the store
            // (asserted above) and `q` holds `d` ≤ `MAX_DIMS` values.
            Level::Avx2 if self.d <= x86::MAX_DIMS => unsafe {
                x86::first_dominator_avx2(self, start, end, q)
            },
            _ => {
                let (mut stack, mut heap) = ([0i16; 32], Vec::new());
                let qc = codes_of(q, &self.lo, &self.scale, &mut stack, &mut heap);
                self.first_dominator_by(start, end, q, |t0, t1| {
                    first_candidate_portable(&self.codes, t0, t1, qc)
                })
            }
        }
    }

    /// The count of [`count_dominators_range`](Self::count_dominators_range)
    /// and the end of the lanes it charges: the virtual tile at which the
    /// count reaches `cap`, else `end`.
    fn count_until(&self, start: usize, end: usize, q: &[f32], cap: u32) -> (u32, usize) {
        self.check_dims(q);
        assert!(end <= self.len);
        match self.level {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `first_dominator`.
            Level::Avx2 if self.d <= x86::MAX_DIMS => unsafe {
                x86::count_until_avx2(self, start, end, q, cap)
            },
            _ => {
                let (mut stack, mut heap) = ([0i16; 32], Vec::new());
                let qc = codes_of(q, &self.lo, &self.scale, &mut stack, &mut heap);
                self.count_until_by(start, end, q, cap, |t0, t1| {
                    first_candidate_portable(&self.codes, t0, t1, qc)
                })
            }
        }
    }

    /// Every per-lane outcome of tile `t` against `qc`.
    #[inline]
    fn masks(&self, t: usize, qc: &[i16]) -> CodeMasks {
        let cols = &self.codes[t * self.d..(t + 1) * self.d];
        match self.level {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `first_dominator`; `cols` holds `d` columns.
            Level::Avx2 => unsafe { x86::code_masks_avx2(cols, qc) },
            _ => code_masks_portable(cols, qc),
        }
    }

    /// Exact mask of the lanes of tile `t` in `cand` for which
    /// `test(row)` holds, given that it holds for the lanes of `sure`:
    /// only the undecided lanes of `cand` read their `f32` row.
    #[inline]
    fn resolve(&self, t: usize, cand: u32, sure: u32, test: impl Fn(&[f32]) -> bool) -> u32 {
        let mut hit = cand & sure;
        let mut ties = cand & !sure;
        while ties != 0 {
            let l = ties.trailing_zeros() as usize;
            hit |= u32::from(test(self.point(t * CODE_LANES + l))) << l;
            ties &= ties - 1;
        }
        hit
    }

    /// [`first_dominator`](Self::first_dominator) over a level's hot
    /// kernel: `next(t0, t1)` is the first tile in `t0..t1` with a lane
    /// whose codes are greater than the candidate's in no column — a
    /// lane that may dominate — with the mask of those lanes and the
    /// mask of the lanes whose codes are smaller in every column, which
    /// do dominate. Only the undecided lanes before the first sure
    /// dominator of a tile are re-checked against their rows. Inlined
    /// into each kernel, so a scan codes its candidate once and makes no
    /// call per tile.
    #[inline(always)]
    fn first_dominator_by(
        &self,
        start: usize,
        end: usize,
        q: &[f32],
        mut next: impl FnMut(usize, usize) -> Option<(usize, u32, u32)>,
    ) -> Option<usize> {
        let (mut t, t_end) = (start / CODE_LANES, end.div_ceil(CODE_LANES));
        while let Some((c, cand, sure)) = next(t, t_end) {
            let cand = cand & window(c, start, end);
            let first_sure = (sure & cand).trailing_zeros();
            let mut ties = cand & !sure & ((1u64 << first_sure) - 1) as u32;
            while ties != 0 {
                let l = ties.trailing_zeros() as usize;
                if row_dominates(self.point(c * CODE_LANES + l), q) {
                    return Some(c * CODE_LANES + l);
                }
                ties &= ties - 1;
            }
            if first_sure < 32 {
                return Some(c * CODE_LANES + first_sure as usize);
            }
            t = c + 1;
        }
        None
    }

    /// Does any stored point strictly dominate `q`? Scans in insertion
    /// order and stops at the first tile holding a dominator. Adds the
    /// lanes charged to `dts`: the first virtual 8-lane tile alone,
    /// then pairs of them through the pair holding the first dominator.
    #[inline]
    pub fn any_dominates(&self, q: &[f32], dts: &mut u64) -> bool {
        let hit = self.first_dominator(0, self.len, q);
        let charged = hit.map_or(self.len, |i| {
            self.len.min(((i / TILE_LANES + 1) | 1) * TILE_LANES)
        });
        *dts += charged as u64;
        hit.is_some()
    }

    /// Like [`any_dominates`](Self::any_dominates) but restricted to
    /// the first `k` points (prefix in insertion order) — the peer scan
    /// shape of Q-Flow Phase II — and charged as a range scan.
    #[inline]
    pub fn any_dominates_first(&self, k: usize, q: &[f32], dts: &mut u64) -> bool {
        self.any_dominates_range(0, k, q, dts)
    }

    /// Does any point with index in `start..end` strictly dominate `q`?
    /// The same-partition peer run of Hybrid Phase II. Charges `dts`
    /// with the lanes of the masked head virtual tile, then whole
    /// virtual tiles in pairs through the pair holding the first
    /// dominator, then the masked tail.
    pub fn any_dominates_range(&self, start: usize, end: usize, q: &[f32], dts: &mut u64) -> bool {
        debug_assert!(start <= end && end <= self.len);
        if start >= end {
            return false;
        }
        let hit = self.first_dominator(start, end, q);
        *dts += range_charge(start, end, hit) as u64;
        hit.is_some()
    }

    /// How many points with index in `start..end` strictly dominate
    /// `q`, capped at `cap` — the counting generalisation of
    /// [`any_dominates_range`](Self::any_dominates_range) that powers
    /// the k-skyband and top-k-dominating kernels. Returns as soon as
    /// the running count reaches `cap` (a k-skyband caller only needs
    /// to know "≥ k", never the exact larger total), so heavily
    /// dominated points stay cheap. Charges `dts` virtual tile by
    /// virtual tile, masked at both ends, up to the one at which the
    /// count reaches `cap`.
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
        let (count, stop) = self.count_until(start, end, q, cap);
        *dts += (stop - start) as u64;
        count
    }

    /// [`count_until`](Self::count_until) over a level's hot kernel
    /// (see [`first_dominator_by`](Self::first_dominator_by)).
    #[inline(always)]
    fn count_until_by(
        &self,
        start: usize,
        end: usize,
        q: &[f32],
        cap: u32,
        mut next: impl FnMut(usize, usize) -> Option<(usize, u32, u32)>,
    ) -> (u32, usize) {
        let (mut t, t_end) = (start / CODE_LANES, end.div_ceil(CODE_LANES));
        let mut count = 0u32;
        while let Some((c, cand, sure)) = next(t, t_end) {
            let cand = cand & window(c, start, end);
            let dom = self.resolve(c, cand, sure, |row| row_dominates(row, q));
            for half in 0..2 {
                count += ((dom >> (half * TILE_LANES)) & 0xFF).count_ones();
                if count >= cap {
                    let v = 2 * c + half;
                    return (cap, end.min((v + 1) * TILE_LANES));
                }
            }
            t = c + 1;
        }
        (count, end)
    }

    /// BNL's window update in one call: if any stored point strictly
    /// dominates `q`, returns `true` (the window is untouched — no
    /// stored point can simultaneously be dominated by `q`, since the
    /// window is mutually incomparable). Otherwise evicts every point
    /// `q` dominates via [`swap_remove`](Self::swap_remove), invoking
    /// `on_evict` with each removed position (strictly descending) so
    /// the caller can mirror the removals, and returns `false`. Charges
    /// `dts` virtual tile by virtual tile through the one holding the
    /// first dominator (every point on a miss).
    ///
    /// Coincident points are neither direction (strict dominance), so
    /// duplicates survive — the BNL semantics.
    pub fn offer(&mut self, q: &[f32], dts: &mut u64, mut on_evict: impl FnMut(usize)) -> bool {
        let len = self.len;
        match self.offer_scan(q) {
            Err(hit) => {
                *dts += len.min((hit / TILE_LANES + 1) * TILE_LANES) as u64;
                true
            }
            Ok(evict) => {
                *dts += len as u64;
                // Descending order keeps every yet-to-be-removed
                // position valid under swap_remove.
                for &pos in evict.iter().rev() {
                    self.swap_remove(pos);
                    on_evict(pos);
                }
                false
            }
        }
    }

    /// The two-way scan of [`offer`](Self::offer): `Err` with the
    /// position of the first point dominating `q`, else `Ok` with the
    /// positions of the points `q` dominates, ascending.
    fn offer_scan(&self, q: &[f32]) -> Result<Vec<usize>, usize> {
        self.check_dims(q);
        let (mut stack, mut heap) = ([0i16; 32], Vec::new());
        let qc = codes_of(q, &self.lo, &self.scale, &mut stack, &mut heap);
        let mut evict = Vec::new();
        for t in 0..self.len.div_ceil(CODE_LANES) {
            let win = window(t, 0, self.len);
            let m = self.masks(t, qc);
            let dom = self.resolve(t, !m.gt_any & win, m.lt_all, |row| row_dominates(row, q));
            if dom != 0 {
                return Err(t * CODE_LANES + dom.trailing_zeros() as usize);
            }
            let mut sub = self.resolve(t, !m.lt_any & win, m.gt_all, |row| row_dominates(q, row));
            while sub != 0 {
                evict.push(t * CODE_LANES + sub.trailing_zeros() as usize);
                sub &= sub - 1;
            }
        }
        Ok(evict)
    }
}

/// Portable form of the hot code-tile scan (see
/// [`TileStore::first_dominator_by`]): branch-free over the 16 lanes of a
/// column, which LLVM turns into vector compares at the baseline
/// instruction set.
fn first_candidate_portable(
    codes: &[CodeCol],
    t0: usize,
    t1: usize,
    qc: &[i16],
) -> Option<(usize, u32, u32)> {
    let d = qc.len();
    for t in t0..t1 {
        let cols = &codes[t * d..(t + 1) * d];
        let mut gt = [0i16; CODE_LANES];
        for (col, &qv) in cols.iter().zip(qc) {
            for (g, &c) in gt.iter_mut().zip(&col.0) {
                *g |= i16::from(c > qv);
            }
        }
        let mut cand = 0u32;
        for (l, &g) in gt.iter().enumerate() {
            cand |= u32::from(g == 0) << l;
        }
        if cand != 0 {
            return Some((t, cand, code_masks_portable(cols, qc).lt_all));
        }
    }
    None
}

/// The codes of candidate `q` under the coder `lo`/`scale`, in `stack`
/// when it is long enough, else in `heap`.
fn codes_of<'a>(
    q: &[f32],
    lo: &[f32],
    scale: &[f32],
    stack: &'a mut [i16; 32],
    heap: &'a mut Vec<i16>,
) -> &'a [i16] {
    let qc = if q.len() <= stack.len() {
        &mut stack[..q.len()]
    } else {
        heap.resize(q.len(), 0);
        &mut heap[..]
    };
    for ((c, &v), (&lo, &scale)) in qc.iter_mut().zip(q).zip(lo.iter().zip(scale)) {
        *c = code(v, lo, scale);
    }
    qc
}

/// Portable form of [`TileStore::masks`].
fn code_masks_portable(cols: &[CodeCol], qc: &[i16]) -> CodeMasks {
    let all = (1u32 << CODE_LANES) - 1;
    let mut m = CodeMasks {
        gt_any: 0,
        lt_any: 0,
        gt_all: all,
        lt_all: all,
    };
    for (col, &qv) in cols.iter().zip(qc) {
        let (mut gt, mut lt) = (0u32, 0u32);
        for (l, &c) in col.0.iter().enumerate() {
            gt |= u32::from(c > qv) << l;
            lt |= u32::from(c < qv) << l;
        }
        m.gt_any |= gt;
        m.lt_any |= lt;
        m.gt_all &= gt;
        m.lt_all &= lt;
    }
    m
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

    use super::{CodeCol, CodeMasks, TileStore, TILE_LANES};

    // ---- one f32 tile ----------------------------------------------
    //
    // The kernels test `LE` directly rather than inferring it from the
    // absence of `GT`: the two are equivalent only for ordered values,
    // and the scalar references treat unordered (NaN) comparisons as
    // "not ≤", so the vector levels must too.

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

    // ---- code tiles -------------------------------------------------
    //
    // The hot scan evaluates every column of a tile with no per-column
    // exit, so the only data-dependent branch is "some lane may
    // dominate". On the anticorrelated inputs the algorithms are bound
    // by, the last live lane of a tile fails at a nearly uniform
    // column, so a per-column exit would mispredict on almost every
    // tile. For d ≤ 8 the dimensionality is a constant, the column loop
    // unrolls and the broadcasts of the candidate's codes stay in
    // registers for the whole scan; wider tiles broadcast per column.

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

    /// One bit per 16-bit lane from a byte movemask (whose two bits per
    /// lane are equal): the even bits, compacted.
    #[inline(always)]
    fn lane_bits(m: u32) -> u32 {
        let mut x = m & 0x5555_5555;
        x = (x | (x >> 1)) & 0x3333_3333;
        x = (x | (x >> 2)) & 0x0F0F_0F0F;
        x = (x | (x >> 4)) & 0x00FF_00FF;
        (x | (x >> 8)) & 0x0000_FFFF
    }

    /// [`lane_bits`] of a compare result.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn bits(v: __m256i) -> u32 {
        lane_bits(_mm256_movemask_epi8(v) as u32)
    }

    /// Widest store the AVX2 scan codes its candidate for; wider stores
    /// scan with the portable kernel.
    pub const MAX_DIMS: usize = 32;

    /// The codes of columns `j .. j + 8` of `q` (those that exist) under
    /// the coder `lo`/`scale` (see `super::code`), one per 32-bit lane
    /// with the code in both halves, so one lane permute broadcasts it
    /// to all 16 code lanes of a vector.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2, `j < q.len()`, and `lo` and `scale` hold
    /// at least `j + 8` values.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn code8(q: &[f32], lo: &[f32], scale: &[f32], j: usize) -> __m256i {
        let (zero, top) = (_mm256_setzero_ps(), _mm256_set1_ps(65535.0));
        let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let live = _mm256_cmpgt_epi32(_mm256_set1_epi32((q.len() - j) as i32), lanes);
        let v = _mm256_maskload_ps(q.as_ptr().add(j), live);
        let s = _mm256_loadu_ps(scale.as_ptr().add(j));
        let x = _mm256_mul_ps(_mm256_sub_ps(v, _mm256_loadu_ps(lo.as_ptr().add(j))), s);
        // Clamp the top as a float, the bottom as an integer: `min`
        // passes a NaN through (its second operand) and the conversion
        // turns it, like any negative value, into one below 0.
        let ranged = _mm256_max_epi32(
            _mm256_cvttps_epi32(_mm256_min_ps(top, x)),
            _mm256_setzero_si256(),
        );
        let bits = _mm256_castps_si256(_mm256_add_ps(v, zero));
        let sign = _mm256_or_si256(_mm256_srai_epi32(bits, 31), _mm256_set1_epi32(i32::MIN));
        let free = _mm256_srli_epi32(_mm256_xor_si256(bits, sign), 16);
        let use_range = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_GT_OQ>(s, zero));
        let c = _mm256_blendv_epi8(free, ranged, use_range);
        let c = _mm256_xor_si256(c, _mm256_set1_epi32(0x8000));
        _mm256_or_si256(c, _mm256_slli_epi32(c, 16))
    }

    /// Lane `k` of [`code8`]'s result in all 16 code lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn broadcast(c: __m256i, k: usize) -> __m256i {
        _mm256_permutevar8x32_epi32(c, _mm256_set1_epi32(k as i32))
    }

    /// Runs `scan` with the broadcast codes of `q`, one vector per
    /// column: in registers for `D` = d ≤ 8, in a stack array for
    /// `D = 0` (d > 8).
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2, `q.len() <= MAX_DIMS`, and `lo` and
    /// `scale` hold `q.len()` rounded up to a multiple of 8 values.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn with_broadcasts<const D: usize, R>(
        q: &[f32],
        lo: &[f32],
        scale: &[f32],
        scan: impl FnOnce(&[__m256i]) -> R,
    ) -> R {
        if D > 0 {
            let c = code8(q, lo, scale, 0);
            let mut qb = [_mm256_setzero_si256(); D];
            for (k, v) in qb.iter_mut().enumerate() {
                *v = broadcast(c, k);
            }
            return scan(&qb);
        }
        let mut qb = [_mm256_setzero_si256(); MAX_DIMS];
        for j in (0..q.len()).step_by(8) {
            let c = code8(q, lo, scale, j);
            for (k, v) in qb[j..q.len().min(j + 8)].iter_mut().enumerate() {
                *v = broadcast(c, k);
            }
        }
        scan(&qb[..q.len()])
    }

    /// `TileStore::first_dominator` at AVX2: the candidate is coded once
    /// and the whole scan, re-checks included, runs in this call.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2, `q.len() == store.d <= MAX_DIMS` and
    /// `end <= store.len`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn first_dominator_avx2(
        store: &TileStore,
        start: usize,
        end: usize,
        q: &[f32],
    ) -> Option<usize> {
        by_dims!(q.len(), first_dominator_d(store, start, end, q))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn first_dominator_d<const D: usize>(
        store: &TileStore,
        start: usize,
        end: usize,
        q: &[f32],
    ) -> Option<usize> {
        let mut from = start;
        if D > 0 && start == 0 {
            // The first virtual tile on its `f32` rows, one vector per
            // row: the presorting scans put the most likely pruners
            // first, and these tests need no codes, so a quick kill does
            // not wait for the coding of `q`.
            let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            let live = _mm256_cmpgt_epi32(_mm256_set1_epi32(D as i32), lanes);
            let qv = _mm256_maskload_ps(q.as_ptr(), live);
            from = end.min(TILE_LANES);
            for i in 0..from {
                // Lanes past `D` load 0.0 on both sides: `≤`, not `<`.
                let row = _mm256_maskload_ps(store.rows.as_ptr().add(i * D), live);
                let le = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LE_OQ>(row, qv));
                let lt = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(row, qv));
                if le == 0xFF && lt != 0 {
                    return Some(i);
                }
            }
            if from == end {
                return None;
            }
        }
        with_broadcasts::<D, _>(q, &store.lo, &store.scale, |qb| {
            store.first_dominator_by(from, end, q, |t0, t1| scan_tiles(&store.codes, t0, t1, qb))
        })
    }

    /// `TileStore::count_until` at AVX2, as [`first_dominator_avx2`].
    ///
    /// # Safety
    ///
    /// As for [`first_dominator_avx2`].
    #[target_feature(enable = "avx2")]
    pub unsafe fn count_until_avx2(
        store: &TileStore,
        start: usize,
        end: usize,
        q: &[f32],
        cap: u32,
    ) -> (u32, usize) {
        by_dims!(q.len(), count_until_d(store, start, end, q, cap))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn count_until_d<const D: usize>(
        store: &TileStore,
        start: usize,
        end: usize,
        q: &[f32],
        cap: u32,
    ) -> (u32, usize) {
        with_broadcasts::<D, _>(q, &store.lo, &store.scale, |qb| {
            store.count_until_by(start, end, q, cap, |t0, t1| {
                scan_tiles(&store.codes, t0, t1, qb)
            })
        })
    }

    /// The first tile in `t0..t1` whose codes exceed the broadcast codes
    /// `qb` (one per column) in no column for some lane, with the mask of
    /// such lanes and the mask of the lanes whose codes are below `qb` in
    /// every column: the hot loop of every scan.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn scan_tiles(
        codes: &[CodeCol],
        t0: usize,
        t1: usize,
        qb: &[__m256i],
    ) -> Option<(usize, u32, u32)> {
        let d = qb.len();
        let slab = codes.as_ptr() as *const __m256i;
        for t in t0..t1 {
            let tile = slab.add(t * d);
            let mut gt = _mm256_setzero_si256();
            for (j, &qv) in qb.iter().enumerate() {
                gt = _mm256_or_si256(gt, _mm256_cmpgt_epi16(_mm256_load_si256(tile.add(j)), qv));
            }
            let m = _mm256_movemask_epi8(gt) as u32;
            if m != u32::MAX {
                let mut lt = _mm256_set1_epi16(-1);
                for (j, &qv) in qb.iter().enumerate() {
                    lt = _mm256_and_si256(
                        lt,
                        _mm256_cmpgt_epi16(qv, _mm256_load_si256(tile.add(j))),
                    );
                }
                return Some((t, lane_bits(!m), bits(lt)));
            }
        }
        None
    }

    /// Every per-lane outcome of one tile (`cols`, one per code in
    /// `qc`) against `qc`.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn code_masks_avx2(cols: &[CodeCol], qc: &[i16]) -> CodeMasks {
        let ones = _mm256_set1_epi16(-1);
        let (mut gt_any, mut lt_any) = (_mm256_setzero_si256(), _mm256_setzero_si256());
        let (mut gt_all, mut lt_all) = (ones, ones);
        for (col, &c) in cols.iter().zip(qc) {
            let v = _mm256_load_si256(col as *const CodeCol as *const __m256i);
            let qv = _mm256_set1_epi16(c);
            let gt = _mm256_cmpgt_epi16(v, qv);
            let lt = _mm256_cmpgt_epi16(qv, v);
            gt_any = _mm256_or_si256(gt_any, gt);
            lt_any = _mm256_or_si256(lt_any, lt);
            gt_all = _mm256_and_si256(gt_all, gt);
            lt_all = _mm256_and_si256(lt_all, lt);
        }
        CodeMasks {
            gt_any: bits(gt_any),
            lt_any: bits(lt_any),
            gt_all: bits(gt_all),
            lt_all: bits(lt_all),
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::{compare, strictly_dominates as sd_ref, DomRelation};

    fn levels() -> Vec<Level> {
        Level::available()
    }

    /// A store over `rows` pinned to `level`, coded against `range`
    /// (range-free when `None`).
    fn store_of(
        rows: &[Vec<f32>],
        d: usize,
        range: Option<&ColumnRange>,
        level: Level,
    ) -> TileStore {
        let store = match range {
            Some(r) => TileStore::with_range(r, rows.len()),
            None => TileStore::with_capacity(d, rows.len()),
        };
        let mut store = store.with_level(level);
        for r in rows {
            store.push(r);
        }
        store
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
    fn codes_are_monotone_and_equal_values_share_one() {
        let mut values = vec![
            f32::NEG_INFINITY,
            -1e30,
            -1.0,
            -1.0e-45,
            -0.0,
            0.0,
            1.0e-45,
            f32::MIN_POSITIVE,
            0.25,
            0.5,
            0.5 + f32::EPSILON,
            1.0,
            1e30,
            f32::INFINITY,
        ];
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (lo, scale) in [(0.0, 0.0), (0.0, 65535.0), (-1.0, 1.0e-3), (0.4, 6.5e8)] {
            for w in values.windows(2) {
                assert!(
                    code(w[0], lo, scale) <= code(w[1], lo, scale),
                    "{} vs {} at ({lo}, {scale})",
                    w[0],
                    w[1]
                );
            }
            assert_eq!(code(-0.0, lo, scale), code(0.0, lo, scale));
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_candidate_codes_equal_the_stored_codes() {
        // The AVX2 scans code the candidate in vector registers; a code
        // that differed from `code`'s for the same value would break
        // exactness, so the two must agree bit for bit.
        if !Level::available().contains(&Level::Avx2) {
            return;
        }
        let values = [
            f32::NEG_INFINITY,
            -1e30,
            -1.0,
            -0.0,
            0.0,
            1.0e-45,
            0.25,
            0.5,
            1.0,
            7.5e4,
            1e30,
            f32::INFINITY,
        ];
        let coders = [
            (0.0f32, 0.0f32),
            (0.0, 65535.0),
            (-1.0, 1.0e-3),
            (0.4, 6.5e8),
        ];
        for (lo, scale) in coders {
            let (los, scales) = ([lo; 16], [scale; 16]);
            for q in values.windows(5) {
                // SAFETY: AVX2 is available (checked above); `q` has 5
                // values and the coder 16.
                let c = unsafe { x86::code8(q, &los, &scales, 0) };
                let mut lanes = [0u32; 8];
                // SAFETY: `lanes` holds one 256-bit vector.
                unsafe {
                    std::arch::x86_64::_mm256_storeu_si256(lanes.as_mut_ptr().cast(), c);
                }
                for (&v, &lane) in q.iter().zip(&lanes) {
                    assert_eq!(lane as i16, code(v, lo, scale), "{v} at ({lo}, {scale})");
                    assert_eq!((lane >> 16) as i16, code(v, lo, scale));
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
            for live in 1..=CODE_LANES + 3 {
                let rows: Vec<Vec<f32>> = (0..live)
                    .map(|_| (0..d).map(|_| next()).collect())
                    .collect();
                let mut tile = DtBlock::new(d);
                for (l, row) in rows.iter().take(TILE_LANES).enumerate() {
                    tile.set_lane(l, row);
                }
                let range = ColumnRange::new(vec![0.0; d], vec![3.0; d]);
                for _ in 0..50 {
                    let q: Vec<f32> = (0..d).map(|_| next()).collect();
                    let dom: Vec<bool> = rows.iter().map(|r| sd_ref(r, &q)).collect();
                    let sub: Vec<usize> = (0..live).filter(|&l| sd_ref(&q, &rows[l])).collect();
                    let want_tile = dom
                        .iter()
                        .take(TILE_LANES)
                        .enumerate()
                        .fold(0u32, |m, (l, &b)| m | u32::from(b) << l);
                    for &lv in &levels() {
                        assert_eq!(
                            tile.clone().with_level(lv).dominators(&q),
                            want_tile,
                            "{lv:?}"
                        );
                        for r in [None, Some(&range)] {
                            let store = store_of(&rows, d, r, lv);
                            for (l, &b) in dom.iter().enumerate() {
                                let got = store.count_dominators_range(l, l + 1, &q, 1, &mut 0);
                                assert_eq!(got, u32::from(b), "{lv:?} d={d} lane {l}");
                            }
                            // Offering q evicts exactly what it dominates
                            // (when nothing dominates it).
                            let mut window = store.clone();
                            let mut evicted = Vec::new();
                            let dominated = window.offer(&q, &mut 0, |pos| evicted.push(pos));
                            assert_eq!(dominated, dom.contains(&true), "{lv:?} d={d}");
                            if !dominated {
                                assert_eq!(window.len(), live - sub.len());
                                assert_eq!(evicted.len(), sub.len(), "{lv:?} d={d}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tile_pinned_to_a_missing_level_runs_portable() {
        // A level this CPU cannot have: the block must fall back to the
        // portable kernel rather than run foreign instructions.
        let missing = if cfg!(target_arch = "x86_64") {
            Level::Neon
        } else {
            Level::Avx2
        };
        assert!(!levels().contains(&missing));
        let rows = [[1.0f32, 2.0, 3.0], [3.0, 2.0, 1.0], [0.5, 0.5, 9.0]];
        let mut tile = DtBlock::new(3);
        for (l, row) in rows.iter().enumerate() {
            tile.set_lane(l, row);
        }
        let pinned = tile.clone().with_level(missing);
        let scalar = tile.with_level(Level::Scalar);
        for q in [
            [2.0f32, 2.0, 3.0],
            [3.0, 3.0, 3.0],
            [0.0, 0.0, 0.0],
            [1.0, 2.0, 3.0],
        ] {
            let want = rows
                .iter()
                .enumerate()
                .fold(0u32, |m, (l, r)| m | u32::from(sd_ref(r, &q)) << l);
            assert_eq!(pinned.dominators(&q), want, "{q:?}");
            assert_eq!(scalar.dominators(&q), want, "{q:?}");
        }
    }

    #[test]
    fn nan_is_not_le_at_any_level() {
        // NaN is rejected at the Dataset boundary, but the kernels must
        // still agree across levels: an unordered comparison is "not ≤",
        // never inferred from the absence of ">".
        let nan = f32::NAN;
        let all_nan = [nan; 9];
        let ones = [1.0f32; 9];
        let mut better = ones;
        better[0] = 0.5;
        let mut holed = ones;
        holed[4] = nan;
        let mut tile = DtBlock::new(9);
        tile.set_lane(0, &all_nan);
        tile.set_lane(1, &better);
        tile.set_lane(2, &holed);
        for &lv in &levels() {
            // A NaN lane never dominates, and a NaN column of the
            // candidate blocks every lane.
            let tile = tile.clone().with_level(lv);
            assert_eq!(tile.dominators(&ones), 0b010, "{lv:?}");
            assert_eq!(tile.dominators(&holed), 0, "{lv:?}");
        }
        // The one-vs-one comparison, on its lanes path (d ≥ 8, a NaN in
        // the 8-block and in the tail) and on its scalar loop (d < 8).
        assert_eq!(compare(&all_nan, &all_nan), DomRelation::Incomparable);
        assert_eq!(compare(&all_nan, &ones), DomRelation::Incomparable);
        assert_eq!(compare(&better, &holed), DomRelation::Incomparable);
        let mut tail_holed = ones;
        tail_holed[8] = nan;
        assert_eq!(compare(&better, &tail_holed), DomRelation::Incomparable);
        assert_eq!(compare(&[nan; 3], &[1.0; 3]), DomRelation::Incomparable);
        assert_eq!(
            compare(&[0.5, 1.0, nan], &[1.0; 3]),
            DomRelation::Incomparable
        );
    }

    #[test]
    fn padding_lanes_never_participate() {
        let mut tile = DtBlock::new(3);
        tile.set_lane(0, &[1.0, 1.0, 1.0]);
        // q is worse than lane 0 and "better" than the +∞ padding.
        let q = [2.0f32, 2.0, 2.0];
        // Coded against [0, 1], q clamps to the padding's code in every
        // column, so the padding lanes tie with it and must be masked
        // out before the re-check reads a row.
        let range = ColumnRange::new(vec![0.0; 3], vec![1.0; 3]);
        for &lv in &levels() {
            assert_eq!(tile.clone().with_level(lv).dominators(&q), 0b1, "{lv:?}");
            for r in [None, Some(&range)] {
                let mut store = store_of(&[vec![1.0, 1.0, 1.0]], 3, r, lv);
                assert_eq!(store.count_dominators_range(0, 1, &q, u32::MAX, &mut 0), 1);
                assert!(store.any_dominates(&q, &mut 0), "{lv:?}");
                assert!(!store.offer(&[1.0, 1.0, 1.0], &mut 0, |_| panic!("coincident")));
                assert!(
                    !store.offer(&[9.0, 9.0, 0.5], &mut 0, |_| panic!(
                        "pads must not read as dominated"
                    )),
                    "{lv:?}"
                );
                assert_eq!(store.len(), 1);
            }
        }
    }

    #[test]
    fn pref_lanes_fold_direction_into_the_tile() {
        // Store over subspace {0, 2} with dim 2 maximised.
        let rows = [[1.0f32, 9.0, 5.0], [2.0, 9.0, 1.0]];
        let dims = [0usize, 2];
        let max_mask = 0b100u32;
        let full = ColumnRange::new(vec![0.0, 0.0, 0.0], vec![2.0, 9.0, 5.0]);
        // Candidate (1.5, 4.0): row 0 dominates it on {min 0, max 2}
        // (1 ≤ 1.5, 5 ≥ 4, one strict); row 1 does not (2 > 1.5 fails).
        let q_raw = [1.5f32, 0.0, 4.0];
        let q: Vec<f32> = dims
            .iter()
            .map(|&c| flip_pref(q_raw[c], max_mask & (1 << c) != 0))
            .collect();
        for &lv in &levels() {
            for range in [None, Some(full.project(&dims, max_mask))] {
                let store = match &range {
                    Some(r) => TileStore::with_range(r, 2),
                    None => TileStore::new(2),
                };
                let mut store = store.with_level(lv);
                for row in &rows {
                    store.push_pref(row, &dims, max_mask);
                }
                assert_eq!(store.point(0), &[1.0, -5.0]);
                assert_eq!(
                    store.count_dominators_range(0, 1, &q, 1, &mut 0),
                    1,
                    "{lv:?}"
                );
                assert_eq!(
                    store.count_dominators_range(1, 2, &q, 1, &mut 0),
                    0,
                    "{lv:?}"
                );
            }
        }
        // Agreement with the scalar pref kernel on the raw rows.
        use crate::dominance::strictly_dominates_on_pref;
        assert!(strictly_dominates_on_pref(
            &rows[0], &q_raw, &dims, max_mask
        ));
        assert!(!strictly_dominates_on_pref(
            &rows[1], &q_raw, &dims, max_mask
        ));
        // The projected range negates and swaps the maximised bounds.
        let folded = full.project(&dims, max_mask);
        assert_eq!(
            (folded.lo(), folded.hi()),
            (&[0.0, -5.0][..], &[2.0, -0.0][..])
        );
    }

    #[test]
    fn store_push_scan_and_prefix() {
        let rows: Vec<Vec<f32>> = (0..21).map(|i| vec![i as f32, (21 - i) as f32]).collect();
        let mut store = TileStore::with_capacity(2, rows.len());
        for r in &rows {
            store.push(r);
        }
        assert_eq!(store.len(), 21);
        assert_eq!(store.point(20), &[20.0, 1.0]);
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
        // dominators. 21 rows span three virtual tiles so head/pair/tail
        // paths all run at unaligned boundaries.
        let rows: Vec<Vec<f32>> = (0..21).map(|i| vec![i as f32, (21 - i) as f32]).collect();
        let mut store = TileStore::with_capacity(2, rows.len());
        for r in &rows {
            store.push(r);
        }
        let scalar = |start: usize, end: usize, q: &[f32]| -> u32 {
            (start..end).filter(|&i| sd_ref(store.point(i), q)).count() as u32
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
        // The code kernels read `d` codes per tile: a longer candidate
        // must stop the scan, not read past the tiles.
        let mut store = TileStore::new(2);
        for i in 0..24 {
            store.push(&[i as f32, 0.0]);
        }
        store.any_dominates_range(0, 24, &[0.0; 3], &mut 0);
    }

    #[test]
    fn store_swap_remove_mirrors_vec_semantics() {
        let rows: Vec<Vec<f32>> = (0..35).map(|i| vec![i as f32, i as f32 * 0.5]).collect();
        let range = ColumnRange::new(vec![0.0, 0.0], vec![34.0, 17.0]);
        let mut store = TileStore::with_range(&range, rows.len());
        let mut model: Vec<Vec<f32>> = Vec::new();
        for r in &rows {
            store.push(r);
            model.push(r.clone());
        }
        for &i in &[0usize, 33, 17, 3, 9, 0, 7, 5, 20] {
            store.swap_remove(i);
            model.swap_remove(i);
            assert_eq!(store.len(), model.len());
            for (k, row) in model.iter().enumerate() {
                assert_eq!(store.point(k), row.as_slice(), "after removing {i}");
                // The codes moved with the row: each point is dominated
                // by exactly the stored points a row scan finds.
                let q = [row[0] + 0.25, row[1] + 0.25];
                let want = model.iter().filter(|p| sd_ref(p, &q)).count() as u32;
                let got = store.count_dominators_range(0, store.len(), &q, u32::MAX, &mut 0);
                assert_eq!(got, want, "after removing {i}, probe {k}");
            }
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
            assert_eq!(store.point(k), stream[id as usize].as_slice());
        }
    }
}
