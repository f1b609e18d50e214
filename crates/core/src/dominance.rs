//! Dominance-test kernels.
//!
//! A dominance test (DT) is the primary operation of every skyline
//! algorithm (paper §IV-A), so this module provides carefully shaped
//! kernels:
//!
//! * [`strictly_dominates`] — early-exit scalar test of Definition 2
//!   (`p ≺ q ⟺ ∀i p[i] ≤ q[i] ∧ ∃i p[i] < q[i]`);
//! * [`strictly_dominates_lanes`] — a branch-free 8-lane form of the
//!   same test that LLVM auto-vectorises, with one exit per 8-block;
//! * [`dt`] — the one-vs-one DT every algorithm calls: lanes from
//!   d = 8, scalar below;
//! * [`compare`] — both directions in one pass, in the same shape as
//!   [`dt`], for the window algorithms (SSkyline, BSkyTree's fallback)
//!   that need them simultaneously;
//! * [`simd`] — the hardware-acceleration layer: the paper's
//!   hand-written vectorized DT (§VII-A2, "8-degree data-level
//!   parallelism") where one candidate meets many points, behind
//!   one-time runtime CPU dispatch: the 16-lane, 16-bit code tiles of
//!   [`TileStore`](simd::TileStore) the window scans consume (with an
//!   exact `f32` re-check of code ties) and the `f32`
//!   [`DtBlock`](simd::DtBlock) of the pre-filter's queues.
//!
//! All algorithms route through [`dt`] (or through [`simd::TileStore`]
//! windows, which batch the same test), so every algorithm gets the same
//! optimised DT — exactly as the paper demands "for a fair comparison".
//! The one-vs-one kernels are plain Rust on purpose: they inline into
//! their callers, which a `#[target_feature]` kernel cannot, and LLVM's
//! codegen of the lanes form beats an explicit one-vs-one kernel behind
//! a dispatch call (see the `ABLATION_DOMINANCE` lines in the README).
//! Set `SKYLINE_FORCE_SCALAR=1` to pin the tile scans to the portable
//! kernels (see [`simd::active_level`]). `skybench ablation-dominance`
//! reproduces the scalar-versus-vectorised comparison.

pub mod simd;

/// Outcome of a two-way comparison; see [`compare`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomRelation {
    /// `p ≺ q`.
    PDominatesQ,
    /// `q ≺ p`.
    QDominatesP,
    /// Identical coordinates (`p ≡ q`): neither dominates (Definition 2).
    Equal,
    /// Neither may dominate the other.
    Incomparable,
}

/// Strict dominance `p ≺ q` with per-coordinate early exit. Fastest when
/// failures are discovered early — typical for unsorted window scans.
#[inline]
pub fn strictly_dominates(p: &[f32], q: &[f32]) -> bool {
    debug_assert_eq!(p.len(), q.len());
    let mut lt = false;
    for (a, b) in p.iter().zip(q) {
        if a > b {
            return false;
        }
        lt |= a < b;
    }
    lt
}

/// Strict dominance in branch-free 8-wide lanes. The inner loop over a
/// fixed-size block reduces with `&`/`|` only, which LLVM turns into
/// vector compares; the early exit happens between blocks.
#[inline]
pub fn strictly_dominates_lanes(p: &[f32], q: &[f32]) -> bool {
    debug_assert_eq!(p.len(), q.len());
    const LANES: usize = 8;
    let mut lt = false;
    let chunks = p.len() / LANES;
    for c in 0..chunks {
        let pa: &[f32; LANES] = p[c * LANES..(c + 1) * LANES].try_into().unwrap();
        let qa: &[f32; LANES] = q[c * LANES..(c + 1) * LANES].try_into().unwrap();
        let mut le = true;
        let mut lt8 = false;
        for k in 0..LANES {
            le &= pa[k] <= qa[k];
            lt8 |= pa[k] < qa[k];
        }
        if !le {
            return false;
        }
        lt |= lt8;
    }
    for k in chunks * LANES..p.len() {
        if p[k] > q[k] {
            return false;
        }
        lt |= p[k] < q[k];
    }
    lt
}

/// The one-vs-one DT used by every algorithm: lane kernel once a full
/// 8-block exists, scalar below that. Both inline into the caller; the
/// explicit vector kernels live where a scan amortises the call, in
/// [`simd::TileStore`] and [`simd::DtBlock`].
#[inline]
pub fn dt(p: &[f32], q: &[f32]) -> bool {
    if p.len() >= 8 {
        strictly_dominates_lanes(p, q)
    } else {
        strictly_dominates(p, q)
    }
}

/// Strict dominance `p ≺ q` restricted to the subspace spanned by
/// `dims` (each an index into the full-space rows), evaluated on the
/// full-space rows without materialising the projection.
#[inline]
pub fn strictly_dominates_on(p: &[f32], q: &[f32], dims: &[usize]) -> bool {
    debug_assert_eq!(p.len(), q.len());
    let mut lt = false;
    for &d in dims {
        if p[d] > q[d] {
            return false;
        }
        lt |= p[d] < q[d];
    }
    lt
}

/// Strict dominance `p ≺ q` restricted to the subspace `dims`, with
/// dimensions whose bit is set in `max_mask` preferring *larger*
/// values instead of smaller.
///
/// This is the membership test the maintenance kernels
/// ([`crate::maintain`]) run against cached skylines: those were
/// computed over negated columns for `Max` preferences, so patching
/// them from the *unnegated* stored rows needs the direction folded
/// into the comparison rather than into the data.
#[inline]
pub fn strictly_dominates_on_pref(p: &[f32], q: &[f32], dims: &[usize], max_mask: u32) -> bool {
    debug_assert_eq!(p.len(), q.len());
    let mut lt = false;
    for &d in dims {
        // Negating an IEEE-754 float is a sign-bit flip, so the
        // maximised-dimension direction folds into an XOR on the bits —
        // branch-free — instead of an operand swap the predictor pays
        // for. `simd::TileStore::push_pref` applies the same
        // `flip_pref` once at tile-build time.
        let flip = max_mask & (1 << d) != 0;
        let a = simd::flip_pref(p[d], flip);
        let b = simd::flip_pref(q[d], flip);
        if a > b {
            return false;
        }
        lt |= a < b;
    }
    lt
}

/// Single-pass two-way comparison, for algorithms that need both
/// directions. Shaped like [`dt`]: from d = 8 both `≤` masks accumulate
/// branch-free over each 8-block, with one exit per block; below that,
/// a scalar loop that exits per coordinate.
#[inline]
pub fn compare(p: &[f32], q: &[f32]) -> DomRelation {
    debug_assert_eq!(p.len(), q.len());
    // A separate lanes function keeps the short loop's codegen apart:
    // one body for both measured ~20 % slower at d = 4.
    if p.len() >= 8 {
        return compare_lanes(p, q);
    }
    let mut p_le = true;
    let mut q_le = true;
    for (a, b) in p.iter().zip(q) {
        p_le &= a <= b;
        q_le &= b <= a;
        if !p_le && !q_le {
            return DomRelation::Incomparable;
        }
    }
    relation(p_le, q_le)
}

/// [`compare`] from d = 8: the 8-blocks, then the tail, branch-free.
#[inline]
fn compare_lanes(p: &[f32], q: &[f32]) -> DomRelation {
    const LANES: usize = 8;
    let mut p_le = true;
    let mut q_le = true;
    let chunks = p.len() / LANES;
    for c in 0..chunks {
        let pa: &[f32; LANES] = p[c * LANES..(c + 1) * LANES].try_into().unwrap();
        let qa: &[f32; LANES] = q[c * LANES..(c + 1) * LANES].try_into().unwrap();
        for k in 0..LANES {
            p_le &= pa[k] <= qa[k];
            q_le &= qa[k] <= pa[k];
        }
        if !p_le && !q_le {
            return DomRelation::Incomparable;
        }
    }
    for (a, b) in p[chunks * LANES..].iter().zip(&q[chunks * LANES..]) {
        p_le &= a <= b;
        q_le &= b <= a;
    }
    relation(p_le, q_le)
}

/// Classifies `(p ⪯ q, q ⪯ p)`.
#[inline]
fn relation(p_le: bool, q_le: bool) -> DomRelation {
    match (p_le, q_le) {
        (true, true) => DomRelation::Equal,
        (true, false) => DomRelation::PDominatesQ,
        (false, true) => DomRelation::QDominatesP,
        (false, false) => DomRelation::Incomparable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation straight from Definitions 1–2.
    fn reference(p: &[f32], q: &[f32]) -> bool {
        p.iter().zip(q).all(|(a, b)| a <= b) && !p.iter().zip(q).all(|(a, b)| a == b)
    }

    #[test]
    fn basic_cases() {
        assert!(strictly_dominates(&[1.0, 2.0], &[2.0, 3.0]));
        assert!(strictly_dominates(&[1.0, 2.0], &[1.0, 3.0]));
        assert!(!strictly_dominates(&[1.0, 2.0], &[1.0, 2.0])); // coincident
        assert!(!strictly_dominates(&[1.0, 4.0], &[2.0, 3.0])); // incomparable
        assert!(!strictly_dominates(&[2.0, 3.0], &[1.0, 2.0]));
    }

    #[test]
    fn negative_and_zero_values() {
        assert!(strictly_dominates(&[-2.0, -1.0], &[-1.0, -1.0]));
        assert!(!strictly_dominates(&[0.0, 0.0], &[0.0, 0.0]));
        assert!(strictly_dominates(&[-0.0, 0.0], &[0.0, 1.0])); // -0 == 0
    }

    #[test]
    fn kernels_agree_exhaustively() {
        // Exhaustive over small coordinate alphabets and many dims,
        // including the lane kernels' remainder paths.
        let alphabet = [0.0f32, 1.0, 2.0];
        let le = |a: &[f32], b: &[f32]| a.iter().zip(b).all(|(x, y)| x <= y);
        for d in [1usize, 2, 3, 7, 8, 9, 15, 16, 17] {
            let mut p = vec![0.0f32; d];
            let mut q = vec![0.0f32; d];
            let mut rng = 0x12345u64;
            for _ in 0..2_000 {
                for v in p.iter_mut().chain(q.iter_mut()) {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                    *v = alphabet[(rng >> 33) as usize % alphabet.len()];
                }
                let want = reference(&p, &q);
                assert_eq!(strictly_dominates(&p, &q), want, "scalar d={d} {p:?} {q:?}");
                assert_eq!(
                    strictly_dominates_lanes(&p, &q),
                    want,
                    "lanes d={d} {p:?} {q:?}"
                );
                assert_eq!(dt(&p, &q), want, "dt d={d}");
                let want_cmp = match (le(&p, &q), le(&q, &p)) {
                    (true, true) => DomRelation::Equal,
                    (true, false) => DomRelation::PDominatesQ,
                    (false, true) => DomRelation::QDominatesP,
                    (false, false) => DomRelation::Incomparable,
                };
                assert_eq!(compare(&p, &q), want_cmp, "compare d={d} {p:?} {q:?}");
            }
        }
    }

    #[test]
    fn compare_matches_individual_tests() {
        let cases: &[(&[f32], &[f32])] = &[
            (&[1.0, 2.0], &[2.0, 3.0]),
            (&[2.0, 3.0], &[1.0, 2.0]),
            (&[1.0, 2.0], &[1.0, 2.0]),
            (&[1.0, 4.0], &[2.0, 3.0]),
        ];
        for (p, q) in cases {
            let rel = compare(p, q);
            match rel {
                DomRelation::PDominatesQ => assert!(strictly_dominates(p, q)),
                DomRelation::QDominatesP => assert!(strictly_dominates(q, p)),
                DomRelation::Equal => assert_eq!(p, q),
                DomRelation::Incomparable => {
                    assert!(!strictly_dominates(p, q) && !strictly_dominates(q, p));
                }
            }
        }
    }

    #[test]
    fn subspace_kernels_match_projection() {
        // Dominance on dims must equal full dominance of the projected
        // points, for every subset of dimensions.
        let p = [1.0f32, 5.0, 2.0];
        let q = [2.0f32, 4.0, 2.0];
        for dims in [
            &[0usize][..],
            &[1],
            &[2],
            &[0, 1],
            &[0, 2],
            &[1, 2],
            &[0, 1, 2],
            &[2, 0], // order must not matter
        ] {
            let proj = |v: &[f32]| dims.iter().map(|&d| v[d]).collect::<Vec<_>>();
            assert_eq!(
                strictly_dominates_on(&p, &q, dims),
                strictly_dominates(&proj(&p), &proj(&q)),
                "{dims:?}"
            );
        }
        // Coincident on a subspace ⇒ no strict dominance there.
        assert!(!strictly_dominates_on(&p, &q, &[2]));
    }

    #[test]
    fn pref_kernel_matches_negated_projection() {
        // Dominance under a max-mask must equal plain dominance after
        // negating the maximised columns, for every mask and subspace.
        let p = [1.0f32, 5.0, 2.0];
        let q = [2.0f32, 4.0, 2.0];
        let dim_sets: &[&[usize]] = &[&[0], &[1], &[2], &[0, 1], &[0, 2], &[1, 2], &[0, 1, 2]];
        for dims in dim_sets {
            for max_mask in 0u32..8 {
                let neg = |v: &[f32]| {
                    v.iter()
                        .enumerate()
                        .map(|(c, &x)| if max_mask & (1 << c) != 0 { -x } else { x })
                        .collect::<Vec<_>>()
                };
                assert_eq!(
                    strictly_dominates_on_pref(&p, &q, dims, max_mask),
                    strictly_dominates_on(&neg(&p), &neg(&q), dims),
                    "{dims:?} mask {max_mask:#b}"
                );
            }
        }
        // Zero mask degenerates to the plain subspace kernel.
        assert_eq!(
            strictly_dominates_on_pref(&p, &q, &[0, 1], 0),
            strictly_dominates_on(&p, &q, &[0, 1])
        );
    }

    #[test]
    fn dominance_is_irreflexive_and_antisymmetric() {
        let pts: &[&[f32]] = &[&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0], &[1.0, 1.0, 1.0]];
        for p in pts {
            assert!(!strictly_dominates(p, p));
            for q in pts {
                assert!(!(strictly_dominates(p, q) && strictly_dominates(q, p)));
            }
        }
    }
}
