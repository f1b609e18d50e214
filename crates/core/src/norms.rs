//! Monotone sort keys and order-preserving float encoding.
//!
//! The presorting algorithms rely on one fact (paper §V-A, footnote 2):
//! for a strictly-increasing-per-dimension aggregate `key`,
//! `p ≺ q ⇒ key(p) < key(q)`, so sorting by the key guarantees that no
//! point is dominated by a later one and that dominance needs testing in
//! only one direction.

use crate::config::SortKey;

/// Manhattan norm `L1(p) = Σᵢ p[i]`.
#[inline]
pub fn l1(p: &[f32]) -> f32 {
    p.iter().sum()
}

/// The classic SFS "entropy" `Σᵢ ln(1 + p[i])`, extended with softplus
/// (`ln(1 + eˣ)`) so it stays monotone for negative coordinates (our
/// datasets may be sign-flipped by max-preferences).
///
/// Softplus is `ln(1 + eˣ)` up to x = 20 and `x` above it, where
/// `ln(1 + e²⁰)` already rounds to 20.0; so `eˣ` never overflows (it is
/// +∞ above x ≈ 88.7, which would tie every such key). Each step is a
/// monotone rounded operation, so the rounded key never decreases as a
/// coordinate grows (a walk over every finite `f32` finds no step
/// down). The textbook stable form `max(x, 0) + ln_1p(e^(−|x|))` is not
/// monotone: it adds a falling term to a rising one, and after rounding
/// steps down one ulp at some 2.4 million neighbouring floats in
/// [0, 1], which puts a dominated row before its dominator.
#[inline]
pub fn entropy(p: &[f32]) -> f32 {
    p.iter()
        .map(|&x| if x > 20.0 { x } else { (1.0 + x.exp()).ln() })
        .sum()
}

/// Smallest coordinate (SaLSa's `minC` sort key).
#[inline]
pub fn min_coord(p: &[f32]) -> f32 {
    p.iter().copied().fold(f32::INFINITY, f32::min)
}

/// Largest coordinate (SaLSa's stop-point bookkeeping).
#[inline]
pub fn max_coord(p: &[f32]) -> f32 {
    p.iter().copied().fold(f32::NEG_INFINITY, f32::max)
}

/// Evaluates `key` on a row. `MinCoord` folds L1 in as a tiebreaker at
/// the bit level inside the sorted-workset builder, not here.
#[inline]
pub fn eval_sort_key(key: SortKey, p: &[f32]) -> f32 {
    match key {
        SortKey::L1 => l1(p),
        SortKey::Entropy => entropy(p),
        SortKey::MinCoord => min_coord(p),
    }
}

/// Maps a finite `f32` to a `u32` whose unsigned order equals the float
/// order (standard sign-flip trick). Lets the sort machinery work on
/// packed integer keys.
#[inline]
pub fn f32_order_bits(x: f32) -> u32 {
    debug_assert!(x.is_finite());
    let bits = x.to_bits();
    if bits & 0x8000_0000 != 0 {
        !bits
    } else {
        bits | 0x8000_0000
    }
}

/// The inverse of [`f32_order_bits`]: the float whose order bits are
/// `bits`, sign of zero included.
#[inline]
pub fn f32_from_order_bits(bits: u32) -> f32 {
    if bits & 0x8000_0000 != 0 {
        f32::from_bits(bits & 0x7fff_ffff)
    } else {
        f32::from_bits(!bits)
    }
}

/// Maps an `f64` to a `u64` whose unsigned order is
/// [`f64::total_cmp`]'s (the same sign flip, NaNs at the ends), so a
/// radix sort on it orders as a `total_cmp` sort does.
#[inline]
pub fn f64_order_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits & 1 << 63 != 0 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Packs a row's sort key and position into one `u64` so one integer
/// comparison orders a small unstable sort (the pre-filter's β-queue
/// union): high 32 bits order by key, low 32 bits break ties
/// deterministically by position.
#[inline]
pub fn packed_scalar_key(key_value: f32, position: u32) -> u64 {
    ((f32_order_bits(key_value) as u64) << 32) | position as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_and_min_max() {
        let p = [3.0f32, -1.0, 2.0];
        assert_eq!(l1(&p), 4.0);
        assert_eq!(min_coord(&p), -1.0);
        assert_eq!(max_coord(&p), 3.0);
    }

    #[test]
    fn keys_are_dominance_consistent() {
        // p ≺ q ⇒ key(p) < key(q) for every key.
        let pairs: &[(&[f32], &[f32])] = &[
            (&[1.0, 2.0], &[2.0, 3.0]),
            (&[0.0, 0.0], &[0.0, 1.0]),
            (&[-3.0, -2.0], &[-3.0, -1.0]),
        ];
        for (p, q) in pairs {
            assert!(crate::dominance::strictly_dominates(p, q));
            assert!(l1(p) < l1(q));
            assert!(entropy(p) < entropy(q));
            // minC is only non-strictly monotone; the tiebreak is L1.
            assert!(min_coord(p) <= min_coord(q));
        }
    }

    #[test]
    fn order_bits_preserve_order() {
        let mut values = vec![-1000.0f32, -1.5, -0.0, 0.0, 1e-9, 0.5, 1.0, 2.0, 12345.0];
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let bits: Vec<u32> = values.iter().map(|&v| f32_order_bits(v)).collect();
        for w in bits.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // Strictness everywhere except -0.0 vs 0.0, which compare equal as
        // floats and must not be strictly ordered consistently anyway.
        assert_eq!(f32_order_bits(-0.0), f32_order_bits(0.0).wrapping_sub(1));
    }

    #[test]
    fn order_bits_round_trip_and_follow_total_cmp() {
        let floats = [
            -f32::MAX,
            -1.5,
            -f32::from_bits(1),
            -0.0,
            0.0,
            f32::from_bits(1),
            f32::MIN_POSITIVE,
            0.5,
            f32::MAX,
        ];
        for &x in &floats {
            assert_eq!(
                f32_from_order_bits(f32_order_bits(x)).to_bits(),
                x.to_bits()
            );
        }
        let doubles = [
            f64::NEG_INFINITY,
            -1e300,
            -f64::from_bits(1),
            -0.0,
            0.0,
            f64::from_bits(1),
            1.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for a in doubles {
            for b in doubles {
                assert_eq!(f64_order_bits(a).cmp(&f64_order_bits(b)), a.total_cmp(&b));
            }
        }
    }

    #[test]
    fn packed_key_orders_by_key_then_position() {
        let a = packed_scalar_key(1.0, 5);
        let b = packed_scalar_key(1.0, 9);
        let c = packed_scalar_key(2.0, 0);
        assert!(a < b && b < c);
    }

    #[test]
    fn entropy_is_finite_and_monotone_at_extreme_coordinates() {
        let xs = [-1e5f32, -200.0, -88.0, 0.0, 88.0, 89.0, 1e5];
        let keys: Vec<f32> = xs.iter().map(|&x| entropy(&[x])).collect();
        for (x, k) in xs.iter().zip(&keys) {
            assert!(k.is_finite(), "entropy({x}) = {k}");
        }
        for (w, x) in keys.windows(2).zip(xs.windows(2)) {
            assert!(w[0] <= w[1], "entropy({}) > entropy({})", x[0], x[1]);
        }
        // Past the overflow point of eˣ the key still separates values.
        assert!(entropy(&[89.0]) < entropy(&[1e5]));

        // Neighbouring floats never swap keys: every bit pattern of the
        // generator's [0.25, 0.5) binade, every 1009th one over [0, 1]
        // against its successor, and runs across the seam at 20 and the
        // overflow point of eˣ.
        let up = |b: u32| {
            let (x0, x1) = (f32::from_bits(b), f32::from_bits(b + 1));
            assert!(
                entropy(&[x0]) <= entropy(&[x1]),
                "entropy({x0}) > entropy({x1})"
            );
        };
        (0.25f32.to_bits()..0.5f32.to_bits()).for_each(up);
        (0..1.0f32.to_bits()).step_by(1009).for_each(up);
        for seam in [20.0f32, 88.7] {
            (seam.to_bits() - (1 << 16)..seam.to_bits() + (1 << 16)).for_each(up);
        }
    }

    #[test]
    fn entropy_handles_negatives() {
        assert!(entropy(&[-5.0]) < entropy(&[-4.0]));
        assert!(entropy(&[-5.0]).is_finite());
    }
}
