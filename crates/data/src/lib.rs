//! Datasets and workload generators for skyline computation.
//!
//! This crate provides everything the experiments consume:
//!
//! * [`Dataset`] — validated, dense, row-major `f32` points;
//! * [`Rng`] — deterministic xoshiro256++ randomness with the Börzsönyi
//!   distribution helpers;
//! * [`generate`] — the three synthetic distributions of the standard
//!   skyline generator (correlated / independent / anticorrelated), plus a
//!   calibration blend;
//! * [`quantize`] — grid rounding to break the distinct-value condition;
//! * [`RealDataset`] — NBA / HOUSE / WEATHER loaders and stand-ins;
//! * [`AlignedF32`] — 32-byte-aligned `f32` buffers backing the SIMD
//!   dominance tiles in `skyline-core`;
//! * [`ShardedStore`] — the frozen [`Partitioner`] (random / grid /
//!   angular) that splits one dataset into K shards as a pure function
//!   of a row; no rows are stored per shard;
//! * [`persist`] — crash-safe persistence primitives: checksummed
//!   tile-aligned snapshots, a CRC-per-record write-ahead log, and the
//!   [`persist::WalIo`] seam with a deterministic fault injector.

#![warn(missing_docs)]
#![deny(missing_debug_implementations)]

mod aligned;
mod dataset;
mod generator;
pub mod persist;
mod realdata;
mod rng;
mod shard;

pub use aligned::AlignedF32;
pub use dataset::{DataError, Dataset, Preference};
pub use generator::{generate, quantize, Distribution};
pub use realdata::{load_csv, write_csv, RealDataset};
pub use rng::{splitmix64, Rng};
pub use shard::{make_partitioner, Partitioner, PartitionerKind, ShardedStore, MAX_SHARDS};
