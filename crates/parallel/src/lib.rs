//! A minimal fork/join runtime for the skyline algorithms.
//!
//! The paper implements its algorithms with OpenMP 3.0 (`#pragma omp
//! parallel for`). This crate is the Rust stand-in: a persistent pool of
//! worker threads that execute *parallel regions* — short-lived closures
//! dispatched to every worker and joined before the call returns — plus the
//! scheduling utilities the algorithms need:
//!
//! * [`ThreadPool::run`] — the raw parallel region (every lane runs the
//!   closure once, like `#pragma omp parallel`),
//! * [`parallel_for`] — dynamically scheduled chunked loops (like
//!   `#pragma omp for schedule(dynamic, grain)`),
//! * [`par_chunks_mut`] — the mutable-output variant,
//! * [`par_collect`] — a parallel filter whose output keeps index order,
//! * [`for_each_lane`] — per-thread scratch initialisation,
//! * [`par_sort_by_key`] — a stable parallel LSD radix sort on integer
//!   keys,
//! * [`LaneCounters`] — cache-padded per-thread metric counters.
//!
//! Design notes
//! ------------
//! The pool keeps workers blocked on a condvar between regions, so
//! dispatch costs are a couple of mutex operations rather than thread
//! spawns. This matters: Q-Flow with α = 2⁷ on a 1M-point input opens
//! ~16 000 parallel regions per run.
//!
//! The calling thread always participates as **lane 0**; a pool of `t`
//! threads therefore spawns `t − 1` workers, mirroring OpenMP. Closures
//! receive their lane index so that algorithms can keep per-thread scratch
//! (e.g. dominance-test counters) without synchronisation. Anything whose
//! *result* must not depend on the schedule — the pre-filter's β-queues,
//! survivor lists — is kept per fixed chunk of the input instead, never per
//! lane.

#![warn(missing_docs)]
#![deny(missing_debug_implementations)]

mod cache_padded;
mod metrics;
mod par;
mod pool;
mod psort;

pub use cache_padded::CachePadded;
pub use metrics::LaneCounters;
pub use par::{for_each_lane, par_chunks_mut, par_collect, parallel_for, parallel_for_in_lane};
pub use pool::ThreadPool;
pub use psort::{par_sort_by_key, par_sort_unstable_by_key};

/// Returns the machine's available hardware parallelism (≥ 1).
///
/// Used as the default thread count, exactly as the paper uses all 16
/// cores of its evaluation machine by default.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }
}
