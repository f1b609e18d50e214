//! Loop-scheduling utilities on top of [`ThreadPool`].

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::ThreadPool;

/// Dynamically scheduled parallel loop over `0..n` in chunks of `grain`
/// (the equivalent of `#pragma omp for schedule(dynamic, grain)`).
///
/// `body` receives half-open index ranges; every index in `0..n` is covered
/// exactly once. Chunks are claimed from a shared atomic counter, so the
/// loop is correct regardless of how many lanes actually participate (see
/// the contract on [`ThreadPool::run`]).
///
/// ```
/// use skyline_parallel::{parallel_for, ThreadPool};
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let pool = ThreadPool::new(2);
/// let sum = AtomicU64::new(0);
/// parallel_for(&pool, 1_000, 64, |range| {
///     let local: u64 = range.map(|i| i as u64).sum();
///     sum.fetch_add(local, Ordering::Relaxed);
/// });
/// assert_eq!(sum.load(Ordering::Relaxed), 999 * 1_000 / 2);
/// ```
pub fn parallel_for<F>(pool: &ThreadPool, n: usize, grain: usize, body: F)
where
    F: Fn(Range<usize>) + Sync,
{
    parallel_for_in_lane(pool, n, grain, |_lane, range| body(range));
}

/// Like [`parallel_for`], but also hands `body` the executing lane index,
/// for writing into per-thread scratch (e.g. dominance-test counters).
pub fn parallel_for_in_lane<F>(pool: &ThreadPool, n: usize, grain: usize, body: F)
where
    F: Fn(usize, Range<usize>) + Sync,
{
    if n == 0 {
        return;
    }
    let grain = grain.max(1);
    if n <= grain || pool.threads() == 1 {
        body(0, 0..n);
        return;
    }
    let next = AtomicUsize::new(0);
    pool.run(|lane| loop {
        let start = next.fetch_add(grain, Ordering::Relaxed);
        if start >= n {
            break;
        }
        let end = (start + grain).min(n);
        body(lane, start..end);
    });
}

/// Runs `body(lane)` once per participating lane.
///
/// Lane 0 always participates; under nested parallelism or a 1-thread pool
/// it may be the *only* participant, so callers must treat per-lane results
/// as "some subset of lanes contributed" (e.g. fold all non-empty per-lane
/// partial results rather than expecting exactly `threads()` of them).
/// Work whose result must not depend on the schedule belongs in fixed
/// chunks instead ([`par_collect`]).
pub fn for_each_lane<F>(pool: &ThreadPool, body: F)
where
    F: Fn(usize) + Sync,
{
    pool.run(body);
}

/// Wrapper making a raw pointer `Send + Sync` so parallel lanes can write
/// to disjoint parts of one buffer.
///
/// Safety argument: [`par_chunks_mut`] claims disjoint ranges from an
/// atomic counter, so no two lanes ever construct overlapping slices, and
/// the radix sort's scatter writes each slot from one chunk only; the
/// buffer's borrow outlives the region because `ThreadPool::run` joins
/// all lanes before returning.
pub(crate) struct SendPtr<T>(pub(crate) *mut T);

// SAFETY: the one field is a pointer that lanes write through only at
// disjoint positions (see above); `T: Send` lets those items be written
// from other threads.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: a shared `&SendPtr` only hands out the pointer, used as above.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Dynamically scheduled parallel loop over mutable chunks of `data`.
///
/// `body` receives `(chunk_start_offset, &mut chunk)` for disjoint chunks
/// of at most `grain` elements covering all of `data`.
///
/// ```
/// use skyline_parallel::{par_chunks_mut, ThreadPool};
///
/// let pool = ThreadPool::new(2);
/// let mut v = vec![0usize; 1_000];
/// par_chunks_mut(&pool, &mut v, 128, |offset, chunk| {
///     for (i, slot) in chunk.iter_mut().enumerate() {
///         *slot = offset + i;
///     }
/// });
/// assert!(v.iter().enumerate().all(|(i, &x)| i == x));
/// ```
pub fn par_chunks_mut<T, F>(pool: &ThreadPool, data: &mut [T], grain: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = data.len();
    if n == 0 {
        return;
    }
    let grain = grain.max(1);
    if n <= grain || pool.threads() == 1 {
        body(0, data);
        return;
    }
    let base = SendPtr(data.as_mut_ptr());
    let next = AtomicUsize::new(0);
    pool.run(|_lane| {
        let base = &base;
        loop {
            let start = next.fetch_add(grain, Ordering::Relaxed);
            if start >= n {
                break;
            }
            let len = grain.min(n - start);
            // SAFETY: `start..start + len` ranges from the shared counter
            // are pairwise disjoint and in-bounds; the underlying exclusive
            // borrow is held by the caller across the whole region.
            let chunk = unsafe { std::slice::from_raw_parts_mut(base.0.add(start), len) };
            body(start, chunk);
        }
    });
}

/// Parallel filter over `0..n` in fixed chunks of `grain`: `body`
/// appends what it keeps from its half-open range to that chunk's own
/// `Vec`, and the chunk outputs are concatenated in chunk order. The
/// result equals a serial loop's over `0..n`, whatever lanes claim
/// which chunks — the compaction primitive for survivor lists.
///
/// ```
/// use skyline_parallel::{par_collect, ThreadPool};
///
/// let pool = ThreadPool::new(2);
/// let odd = par_collect(&pool, 1_000, 64, |range, keep| {
///     keep.extend(range.filter(|i| i % 2 == 1));
/// });
/// assert_eq!(odd, (1..1_000).step_by(2).collect::<Vec<_>>());
/// ```
pub fn par_collect<T, F>(pool: &ThreadPool, n: usize, grain: usize, body: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>, &mut Vec<T>) + Sync,
{
    let grain = grain.max(1);
    let mut parts: Vec<Vec<T>> = (0..n.div_ceil(grain)).map(|_| Vec::new()).collect();
    par_chunks_mut(pool, &mut parts, 1, |first, chunk| {
        for (c, part) in chunk.iter_mut().enumerate() {
            let start = (first + c) * grain;
            body(start..(start + grain).min(n), part);
        }
    });
    if parts.len() == 1 {
        return parts.pop().expect("one part");
    }
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for part in parts {
        out.extend(part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU8;

    #[test]
    fn parallel_for_covers_every_index_exactly_once() {
        let pool = ThreadPool::new(4);
        let marks: Vec<AtomicU8> = (0..10_000).map(|_| AtomicU8::new(0)).collect();
        parallel_for(&pool, marks.len(), 37, |range| {
            for i in range {
                marks[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(marks.iter().all(|m| m.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_empty_and_tiny() {
        let pool = ThreadPool::new(4);
        parallel_for(&pool, 0, 16, |_| panic!("must not be called"));
        let hits = AtomicUsize::new(0);
        parallel_for(&pool, 3, 16, |r| {
            hits.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn grain_zero_is_clamped() {
        let pool = ThreadPool::new(2);
        let hits = AtomicUsize::new(0);
        parallel_for(&pool, 10, 0, |r| {
            hits.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn lane_indices_are_in_range() {
        let pool = ThreadPool::new(3);
        parallel_for_in_lane(&pool, 5_000, 11, |lane, _| {
            assert!(lane < 3);
        });
    }

    #[test]
    fn par_chunks_mut_writes_everything() {
        let pool = ThreadPool::new(4);
        let mut v = vec![0u64; 100_000];
        par_chunks_mut(&pool, &mut v, 1_024, |offset, chunk| {
            for (i, slot) in chunk.iter_mut().enumerate() {
                *slot = (offset + i) as u64 * 3;
            }
        });
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64 * 3));
    }

    #[test]
    fn par_chunks_mut_empty() {
        let pool = ThreadPool::new(2);
        let mut v: Vec<u32> = vec![];
        par_chunks_mut(&pool, &mut v, 8, |_, _| panic!("must not be called"));
    }

    #[test]
    fn par_collect_keeps_serial_order_at_every_thread_count() {
        let serial: Vec<usize> = (0..10_000).filter(|i| i % 7 < 3).collect();
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            for grain in [1, 37, 1_024, 20_000] {
                let got = par_collect(&pool, 10_000, grain, |range, keep| {
                    keep.extend(range.filter(|i| i % 7 < 3));
                });
                assert_eq!(got, serial, "t={threads} grain={grain}");
            }
        }
        let pool = ThreadPool::new(2);
        let none: Vec<u8> = par_collect(&pool, 0, 8, |_, _| panic!("must not be called"));
        assert!(none.is_empty());
    }

    #[test]
    fn for_each_lane_sees_distinct_lanes() {
        let pool = ThreadPool::new(4);
        let marks: Vec<AtomicU8> = (0..4).map(|_| AtomicU8::new(0)).collect();
        for_each_lane(&pool, |lane| {
            marks[lane].fetch_add(1, Ordering::Relaxed);
        });
        let total: u8 = marks.iter().map(|m| m.load(Ordering::Relaxed)).sum();
        assert_eq!(total, 4);
        assert!(marks.iter().all(|m| m.load(Ordering::Relaxed) <= 1));
    }
}
