//! Skyline computation for multi-core processors.
//!
//! This crate implements the algorithms of
//!
//! > Chester, Šidlauskas, Assent, Bøgh.
//! > *Scalable Parallelization of Skyline Computation for Multi-core
//! > Processors.* ICDE 2015.
//!
//! namely the paper's contributions — [**Q-Flow**](algo::qflow) (Algorithm
//! 1: block-synchronous parallel processing against a global, shared
//! skyline) and [**Hybrid**](algo::hybrid) (Algorithms 2–4: Q-Flow plus
//! point-based partitioning and the two-level `M(S)` structure) — together
//! with every comparison algorithm of its evaluation: sequential
//! [BNL](algo::bnl), [SFS](algo::sfs), [SaLSa](algo::salsa),
//! [SSkyline](algo::sskyline) and [BSkyTree](algo::bskytree), and parallel
//! [PSkyline](algo::pskyline), [PSFS](algo::psfs) and
//! [PBSkyTree](algo::pbskytree).
//!
//! The shared machinery lives in the support modules: dominance-test
//! kernels ([`dominance`]), monotone sort keys ([`norms`]), partition
//! masks and the compound-key bithack ([`masks`]), pivot selection
//! ([`pivot`]), the β-queue pre-filter ([`prefilter`]), instrumented
//! run statistics ([`stats`]), incremental skyline maintenance
//! kernels ([`maintain`]) that patch a materialized skyline under
//! point inserts and deletes instead of recomputing it, and the
//! counting kernels of the skyline query family ([`skyband`]):
//! k-skyband and top-k dominating.
//!
//! # Quick example
//!
//! ```
//! use skyline_core::{algo::Algorithm, SkylineConfig};
//! use skyline_data::Dataset;
//! use skyline_parallel::ThreadPool;
//!
//! let data = Dataset::from_rows(&[
//!     vec![1.0, 4.0], // skyline
//!     vec![2.0, 2.0], // skyline
//!     vec![3.0, 3.0], // dominated by (2,2)
//!     vec![4.0, 1.0], // skyline
//! ])
//! .unwrap();
//! let pool = ThreadPool::new(2);
//! let cfg = SkylineConfig::default();
//! let result = Algorithm::Hybrid.run(&data, &pool, &cfg);
//! assert_eq!(result.indices, vec![0, 1, 3]);
//! ```

#![warn(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod algo;
mod config;
pub mod dominance;
pub mod maintain;
pub mod masks;
pub mod norms;
pub mod pivot;
pub mod prefilter;
pub mod skyband;
mod sorted;
pub mod stats;
pub mod telemetry;
pub mod verify;

pub use config::{PivotStrategy, SkylineConfig, SortKey};
pub use stats::{RunStats, SkylineResult};
pub use telemetry::{AlgoPhase, SpanSink};
