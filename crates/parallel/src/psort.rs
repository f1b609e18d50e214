//! Stable parallel radix sort.
//!
//! The paper's initialization phase sorts the whole input (by L1 norm for
//! Q-Flow; by (level, mask, L1) for Hybrid) using OpenMP's parallel sort.
//! This module's equivalent is a least-significant-digit radix sort on an
//! integer key — the order bits of a float, or several fields packed into
//! a `u64` — and it is stable: items with equal keys keep their input
//! order, so a caller that builds its items in position order gets the
//! `(key, position)` order without putting the position in the key.
//!
//! Each pass orders the items by one 11-bit digit of the key. The input
//! is cut into one fixed chunk per lane; each chunk counts its digits (a
//! histogram), the histograms become every chunk's write offset per
//! bucket (bucket-major, then chunk order, which is what keeps the pass
//! stable), and each chunk scatters its items, in order, into the other
//! of two buffers. Digits cover only the bits that vary across the keys
//! (an OR over every key xor the first), and a run of constant bits is
//! skipped, so the order bits of L1 norms take three passes and a key
//! that never varies takes none.

use crate::par::SendPtr;
use crate::{par_chunks_mut, par_collect, ThreadPool};

/// Up to this many items std's stable `sort_by_key` runs instead: below
/// it the radix's fixed cost (a 2¹¹-bucket histogram cleared, summed
/// and checked per pass) outweighs its linear passes. Medians of three
/// runs on a 2-core x86-64 guest, `(u32, u32)` items keyed by 31-bit
/// float order bits (three passes), std's sort against the radix on one
/// lane: 1 024 items 16–17 against 17–27 µs, 2 048 items 32–37 against
/// 40–46 µs, 4 096 items 72–84 against 67–79 µs, 8 192 items 176–253
/// against 125–141 µs.
const STD_SORT_CUTOFF: usize = 1 << 12;

/// Below this many items the radix runs as one chunk on the caller's
/// lane, opening no pool region. Same machine and items, one chunk
/// against two lanes: 2¹⁵ items 0.48–0.55 against 0.67 ms, 2¹⁶ items
/// 0.92–1.21 against 0.97–1.04 ms, 3·2¹⁵ items 1.67–1.81 against
/// 1.30–1.43 ms, 2¹⁸ items 5.0–5.1 against 3.1–3.3 ms.
const PARALLEL_CUTOFF: usize = 1 << 16;

/// Bits per digit: 2¹¹ buckets of counts fit a core's L1 cache.
const DIGIT_BITS: u32 = 11;
const BUCKETS: usize = 1 << DIGIT_BITS;

/// Sorts `data` by the key extracted with `key`, in parallel on `pool`.
///
/// Stable: items whose keys are equal keep their relative order, as
/// with `slice::sort_by_key`, whose order this always returns. Keys are
/// `u32` or `u64` (any `K: Into<u64>`); a float sorts through its order
/// bits.
///
/// Up to 4 096 items this is std's stable sort; below 2¹⁶ the radix runs
/// on the caller's lane alone; above, one chunk per lane of `pool`. The
/// scratch buffer holds `data.len()` items.
///
/// # Panics
///
/// If `key` returns different keys for the same item within one call.
///
/// ```
/// use skyline_parallel::{par_sort_by_key, ThreadPool};
///
/// let pool = ThreadPool::new(2);
/// // (key, payload): equal keys keep their payloads in input order.
/// let mut v: Vec<(u32, u32)> = (0..100_000).map(|i| (i % 7, i)).collect();
/// par_sort_by_key(&pool, &mut v, |&(k, _)| k);
/// assert!(v.windows(2).all(|w| w[0] < w[1]));
/// ```
pub fn par_sort_by_key<T, K, F>(pool: &ThreadPool, data: &mut [T], key: F)
where
    T: Copy + Send + Sync,
    K: Into<u64> + Ord,
    F: Fn(&T) -> K + Sync,
{
    let n = data.len();
    if n <= STD_SORT_CUTOFF {
        data.sort_by_key(|a| key(a));
        return;
    }
    let key = |item: &T| -> u64 { key(item).into() };
    let chunk_len = if n < PARALLEL_CUTOFF {
        n
    } else {
        n.div_ceil(pool.threads())
    };
    let shifts = digit_shifts(varying_bits(pool, data, chunk_len, &key));
    if shifts.is_empty() {
        return;
    }

    let mut scratch: Vec<T> = Vec::with_capacity(n);
    let mut in_data = true;
    for &shift in &shifts {
        let (src, dst) = if in_data {
            (&*data, SendPtr(scratch.as_mut_ptr()))
        } else {
            (&scratch[..], SendPtr(data.as_mut_ptr()))
        };
        let mut hist = histograms(pool, src, chunk_len, shift, &key);
        let ends = bucket_offsets(&mut hist);
        let (ends, dst, key) = (&ends, &dst, &key);
        par_chunks_mut(pool, &mut hist, BUCKETS, |offset, next| {
            let c = offset / BUCKETS;
            let items = &src[c * chunk_len..((c + 1) * chunk_len).min(n)];
            let end = &ends[offset..offset + BUCKETS];
            for item in items {
                let b = digit(key(item), shift);
                let at = next[b];
                assert!(at < end[b], "sort key changed between reads");
                // SAFETY: `at` lies in this chunk's range of bucket `b`,
                // `bucket_offsets`' `next[b]..end[b]`; those ranges
                // partition `0..n` over all chunks and buckets, so lanes
                // never write the same slot, and `dst` is a buffer of
                // capacity `n` that no one reads during the region.
                unsafe { dst.0.add(at).write(*item) };
                next[b] = at + 1;
            }
            assert!(next == end, "sort key changed between reads");
        });
        if in_data {
            // SAFETY: the pass just wrote every slot `0..n` of `scratch`
            // (the asserts above saw each chunk fill its ranges, which
            // partition `0..n`), and `T: Copy` needs no drop.
            unsafe { scratch.set_len(n) };
        }
        in_data = !in_data;
    }
    if !in_data {
        let scratch = &scratch;
        par_chunks_mut(pool, data, chunk_len, |offset, out| {
            out.copy_from_slice(&scratch[offset..offset + out.len()]);
        });
    }
}

/// [`par_sort_by_key`] under the name the `perf` benchmark's
/// `parallel.psort.ms` probe imports; the sort is stable all the same.
///
/// ```
/// use skyline_parallel::{par_sort_unstable_by_key, ThreadPool};
///
/// let pool = ThreadPool::new(2);
/// let mut v: Vec<u32> = (0..100_000).rev().collect();
/// par_sort_unstable_by_key(&pool, &mut v, |&x| x);
/// assert!(v.windows(2).all(|w| w[0] <= w[1]));
/// ```
pub fn par_sort_unstable_by_key<T, K, F>(pool: &ThreadPool, data: &mut [T], key: F)
where
    T: Copy + Send + Sync,
    K: Into<u64> + Ord,
    F: Fn(&T) -> K + Sync,
{
    par_sort_by_key(pool, data, key);
}

#[inline]
fn digit(key: u64, shift: u32) -> usize {
    (key >> shift) as usize & (BUCKETS - 1)
}

/// The bits in which some key differs from the first.
fn varying_bits<T: Sync>(
    pool: &ThreadPool,
    data: &[T],
    chunk_len: usize,
    key: &(impl Fn(&T) -> u64 + Sync),
) -> u64 {
    let first = key(&data[0]);
    let parts = par_collect(pool, data.len(), chunk_len, |range, out| {
        out.push(data[range].iter().fold(0, |acc, t| acc | (key(t) ^ first)));
    });
    parts.into_iter().fold(0, |acc, bits| acc | bits)
}

/// The shift of each digit, lowest first: every digit starts at a
/// varying bit, and together they cover every varying bit.
fn digit_shifts(mut varying: u64) -> Vec<u32> {
    let mut shifts = Vec::new();
    let mut shift = 0;
    while varying != 0 {
        let skip = varying.trailing_zeros();
        shift += skip;
        shifts.push(shift);
        varying = (varying >> skip) >> DIGIT_BITS;
        shift += DIGIT_BITS;
    }
    shifts
}

/// Per chunk of `chunk_len` items, the bucket counts of the digit at
/// `shift`, chunk-major.
fn histograms<T: Sync>(
    pool: &ThreadPool,
    data: &[T],
    chunk_len: usize,
    shift: u32,
    key: &(impl Fn(&T) -> u64 + Sync),
) -> Vec<usize> {
    let n = data.len();
    let mut counts = vec![0usize; n.div_ceil(chunk_len) * BUCKETS];
    par_chunks_mut(pool, &mut counts, BUCKETS, |offset, hist| {
        let c = offset / BUCKETS;
        for item in &data[c * chunk_len..((c + 1) * chunk_len).min(n)] {
            hist[digit(key(item), shift)] += 1;
        }
    });
    counts
}

/// Turns one digit's counts (chunk-major, `BUCKETS` per chunk) into
/// each chunk's first write slot per bucket, in place, and returns the
/// slot after each one's last. A bucket's items go in chunk order, after
/// every smaller bucket's.
fn bucket_offsets(hist: &mut [usize]) -> Vec<usize> {
    let chunks = hist.len() / BUCKETS;
    let mut ends = vec![0usize; hist.len()];
    let mut at = 0usize;
    for b in 0..BUCKETS {
        for c in 0..chunks {
            let i = c * BUCKETS + b;
            let count = hist[i];
            hist[i] = at;
            at += count;
            ends[i] = at;
        }
    }
    ends
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn random_vec(n: usize, seed: u64) -> Vec<u64> {
        let mut s = seed | 1;
        (0..n).map(|_| xorshift(&mut s)).collect()
    }

    #[test]
    fn sorts_small_inputs() {
        let pool = ThreadPool::new(4);
        for n in [0usize, 1, 2, 3, 100, 1000] {
            let mut v = random_vec(n, 42);
            let mut expect = v.clone();
            expect.sort_unstable();
            par_sort_unstable_by_key(&pool, &mut v, |&x| x);
            assert_eq!(v, expect, "n = {n}");
        }
    }

    #[test]
    fn sorts_large_inputs() {
        let pool = ThreadPool::new(4);
        for n in [1 << 15, (1 << 16) + 17, 1 << 17] {
            let mut v = random_vec(n, 7);
            let mut expect = v.clone();
            expect.sort_unstable();
            par_sort_unstable_by_key(&pool, &mut v, |&x| x);
            assert_eq!(v, expect, "n = {n}");
        }
    }

    #[test]
    fn sorts_with_heavy_duplication() {
        let pool = ThreadPool::new(4);
        let mut v: Vec<u64> = random_vec(1 << 16, 3).into_iter().map(|x| x % 8).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        par_sort_unstable_by_key(&pool, &mut v, |&x| x);
        assert_eq!(v, expect);
    }

    #[test]
    fn sorts_by_extracted_key() {
        // Stable on the key alone: the input-order payload breaks ties.
        let pool = ThreadPool::new(2);
        let mut v: Vec<(u64, u64)> = random_vec(1 << 16, 11)
            .into_iter()
            .enumerate()
            .map(|(i, x)| (x % 1_000, i as u64))
            .collect();
        par_sort_by_key(&pool, &mut v, |&(k, _)| k);
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn single_thread_pool_matches_std() {
        let pool = ThreadPool::new(1);
        let mut v = random_vec(1 << 16, 99);
        let mut expect = v.clone();
        expect.sort_unstable();
        par_sort_unstable_by_key(&pool, &mut v, |&x| x);
        assert_eq!(v, expect);
    }

    #[test]
    fn already_sorted_and_reversed() {
        let pool = ThreadPool::new(4);
        let mut v: Vec<u64> = (0..(1 << 16)).collect();
        par_sort_unstable_by_key(&pool, &mut v, |&x| x);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
        let mut v: Vec<u64> = (0..(1 << 16)).rev().collect();
        par_sort_unstable_by_key(&pool, &mut v, |&x| x);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Every size the sort treats differently, and two past them.
    fn sizes() -> Vec<usize> {
        let mut sizes = vec![0, 1, 2, 1 << 15, (1 << 17) + 17];
        for cut in [STD_SORT_CUTOFF, PARALLEL_CUTOFF] {
            sizes.extend([cut - 1, cut, cut + 1]);
        }
        sizes
    }

    /// Sorts `(key, payload)` items with payloads in input order at
    /// T = 1, 2 and 4 and checks the order equals std's stable sort's.
    fn check_stable<K: Into<u64> + Ord + Copy + Send + Sync + std::fmt::Debug>(
        what: &str,
        keys: &[K],
    ) {
        let items: Vec<(K, u32)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as u32))
            .collect();
        let mut expect = items.clone();
        expect.sort_by_key(|&(k, _)| k);
        for t in [1, 2, 4] {
            let pool = ThreadPool::new(t);
            let mut got = items.clone();
            par_sort_by_key(&pool, &mut got, |&(k, _)| k);
            assert!(got == expect, "{what}: n = {}, T = {t}", keys.len());
        }
    }

    /// The standard sign-flip order bits of `f32`/`f64`.
    fn f32_bits(x: f32) -> u32 {
        let b = x.to_bits();
        if b >> 31 == 1 {
            !b
        } else {
            b | 1 << 31
        }
    }

    fn f64_bits(x: f64) -> u64 {
        let b = x.to_bits();
        if b >> 63 == 1 {
            !b
        } else {
            b | 1 << 63
        }
    }

    #[test]
    fn matches_std_stable_sort_on_random_keys() {
        for n in sizes() {
            let raw = random_vec(n, n as u64 + 5);
            let u64s: Vec<u64> = raw.clone();
            let u32s: Vec<u32> = raw.iter().map(|&x| (x >> 17) as u32).collect();
            // Few distinct keys: long runs whose payload order must hold.
            let dups: Vec<u32> = raw.iter().map(|&x| (x % 5) as u32).collect();
            check_stable("u64", &u64s);
            check_stable("u32", &u32s);
            check_stable("u32 duplicates", &dups);
        }
    }

    #[test]
    fn equal_keys_keep_payload_order() {
        for n in sizes() {
            check_stable("all equal u32", &vec![7u32; n]);
            check_stable("all equal u64", &vec![u64::MAX; n]);
        }
    }

    #[test]
    fn keys_differing_in_one_end_bit() {
        for n in sizes() {
            let raw = random_vec(n, 3);
            let top64: Vec<u64> = raw.iter().map(|&x| (x & 1 << 63) | 0x1234).collect();
            let bottom64: Vec<u64> = raw.iter().map(|&x| (x & 1) | 0xabc0 << 40).collect();
            let top32: Vec<u32> = raw.iter().map(|&x| (x as u32 & 1 << 31) | 9).collect();
            let bottom32: Vec<u32> = raw.iter().map(|&x| (x as u32 & 1) | 0x40).collect();
            check_stable("u64 top bit", &top64);
            check_stable("u64 bottom bit", &bottom64);
            check_stable("u32 top bit", &top32);
            check_stable("u32 bottom bit", &bottom32);
        }
    }

    #[test]
    fn float_order_bits_of_edge_values() {
        let f32s = [
            0.0f32,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            f32::MAX,
            f32::MIN,
            1e30,
            -1e30,
            1.0,
            -1.0,
        ];
        let f64s = [
            0.0f64,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            1e300,
            -1e300,
            1.0,
            -1.0,
        ];
        for n in sizes() {
            let raw = random_vec(n, 17);
            let k32: Vec<u32> = raw
                .iter()
                .map(|&x| f32_bits(f32s[x as usize % f32s.len()]))
                .collect();
            let k64: Vec<u64> = raw
                .iter()
                .map(|&x| f64_bits(f64s[x as usize % f64s.len()]))
                .collect();
            check_stable("f32 order bits", &k32);
            check_stable("f64 order bits", &k64);
        }
        // The order bits order the floats (−0 just below +0).
        let mut sorted: Vec<f64> = f64s.to_vec();
        sorted.sort_by(f64::total_cmp);
        assert!(sorted.windows(2).all(|w| f64_bits(w[0]) < f64_bits(w[1])));
        let mut sorted: Vec<f32> = f32s.to_vec();
        sorted.sort_by(f32::total_cmp);
        assert!(sorted.windows(2).all(|w| f32_bits(w[0]) < f32_bits(w[1])));
    }

    #[test]
    fn digits_cover_the_varying_bits_only() {
        assert!(digit_shifts(0).is_empty());
        assert_eq!(digit_shifts(1), vec![0]);
        assert_eq!(digit_shifts(1 << 63), vec![63]);
        assert_eq!(digit_shifts(0x7fff_ffff), vec![0, 11, 22]);
        // A constant gap between two varying fields is skipped.
        assert_eq!(digit_shifts(0xfff << 40 | 0xff), vec![0, 40, 51]);
    }
}
