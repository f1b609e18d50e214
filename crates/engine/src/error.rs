//! Engine error taxonomy.
//!
//! Three structured families, so front-ends can map outcomes without
//! string matching:
//!
//! * **Invalid requests** — the query or mutation itself is malformed
//!   ([`EngineError::UnknownDataset`], [`EngineError::EmptyDims`], …).
//!   Retrying the same request can never succeed.
//! * **Admission rejections** — [`EngineError::Rejected`] wraps a
//!   [`RejectReason`] saying *why* the session layer refused to queue
//!   the query: a full priority class, a tenant over quota, or an
//!   engine shutting down. Queue/quota rejections are retryable
//!   backpressure ([`EngineError::is_retryable`]); shutdown is final.
//! * **Ticket terminations** — an admitted query can still end without
//!   a result: [`EngineError::Cancelled`] (the client gave up first),
//!   [`EngineError::DeadlineExceeded`] (its deadline passed before the
//!   plan ran to completion), or [`EngineError::VersionUnavailable`]
//!   (it pinned a dataset version the catalog no longer serves).

use std::fmt;

/// Which per-tenant quota an admission rejection tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaKind {
    /// The tenant already has its maximum number of queued or running
    /// tickets ([`SessionOptions::max_in_flight`](crate::SessionOptions::max_in_flight)).
    InFlight,
    /// The tenant exhausted its submissions-per-second budget for the
    /// current window ([`SessionOptions::qps_cap`](crate::SessionOptions::qps_cap)).
    Rate,
}

/// Why the admission queue refused a submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The submission's priority class is at capacity. Classes have
    /// separate bounds, so a flood of low-priority work never blocks
    /// high-priority admission.
    QueueFull {
        /// Queued tickets in the class at the time of the rejection.
        queued: usize,
    },
    /// The tenant is over one of its quotas.
    QuotaExceeded {
        /// The rejected tenant.
        tenant: String,
        /// Which quota tripped.
        quota: QuotaKind,
    },
    /// The engine is shutting down (or already has); no new work is
    /// admitted.
    Shutdown,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull { queued } => {
                write!(f, "priority class full ({queued} tickets queued)")
            }
            RejectReason::QuotaExceeded { tenant, quota } => {
                let which = match quota {
                    QuotaKind::InFlight => "in-flight",
                    QuotaKind::Rate => "rate",
                };
                write!(f, "tenant '{tenant}' exceeded its {which} quota")
            }
            RejectReason::Shutdown => write!(f, "engine is shut down"),
        }
    }
}

/// Errors raised when executing queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The query names a dataset that is not (or no longer) registered.
    UnknownDataset(String),
    /// The query selected no dimensions.
    EmptyDims,
    /// A selected dimension index exceeds the dataset's dimensionality.
    DimOutOfRange {
        /// The offending dimension index.
        dim: usize,
        /// The dataset's dimensionality.
        dims: usize,
    },
    /// The same dimension was selected twice with conflicting
    /// preferences (once `Min`, once `Max`).
    ConflictingPreference {
        /// The dimension with contradictory preferences.
        dim: usize,
    },
    /// `preference` does not align one-to-one with the selected
    /// dimensions.
    PreferenceLength {
        /// Number of selected dimensions.
        expected: usize,
        /// Length of the supplied preference vector.
        got: usize,
    },
    /// An inserted row's length does not match the dataset's
    /// dimensionality.
    RowArity {
        /// Index of the offending row within the batch.
        row: usize,
        /// The dataset's dimensionality.
        expected: usize,
        /// Length of the supplied row.
        got: usize,
    },
    /// An inserted row contains a non-finite value (NaN or ±∞).
    NonFiniteValue {
        /// Index of the offending row within the batch.
        row: usize,
        /// Column of the offending value.
        col: usize,
    },
    /// A delete names a row id that is not live: out of range, already
    /// deleted, or repeated within the batch.
    UnknownRow {
        /// The offending row id.
        id: u32,
    },
    /// The admission queue refused the submission; no ticket was
    /// created.
    Rejected(RejectReason),
    /// The ticket was cancelled before its plan ran.
    Cancelled,
    /// The ticket's deadline passed before its plan ran to completion;
    /// expiry is checked at dequeue and again between plan phases, so
    /// an expired ticket never starts executing.
    DeadlineExceeded,
    /// The query pinned a dataset version the catalog no longer serves
    /// (a mutation or re-registration moved the dataset past it).
    VersionUnavailable {
        /// The version the query pinned.
        requested: u64,
        /// The version the catalog currently serves.
        current: u64,
    },
    /// The dispatch batch running this ticket panicked before the
    /// ticket produced a result. The engine survives (the dispatcher
    /// recovers and later tickets run normally), but this query's
    /// outcome is unknown.
    Internal,
    /// Recovery found unrepairable corruption (a checksum-failing
    /// interior WAL record or snapshot) in this dataset's durable
    /// files, so it is quarantined: queries and mutations against it
    /// fail with this error while every healthy dataset keeps
    /// serving. Re-registering the dataset replaces the corrupt files
    /// and lifts the quarantine.
    DatasetQuarantined(String),
    /// A durable engine could not persist a mutation (WAL append or
    /// snapshot write failed). The mutation was **not** applied: the
    /// in-memory state still matches the acknowledged history.
    Persist(String),
}

impl EngineError {
    /// True for backpressure rejections a client may retry later
    /// (a full queue or an exhausted quota). Invalid queries, shutdown
    /// rejections, and ticket terminations are final.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            EngineError::Rejected(RejectReason::QueueFull { .. })
                | EngineError::Rejected(RejectReason::QuotaExceeded { .. })
        )
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownDataset(name) => {
                write!(f, "dataset '{name}' is not registered")
            }
            EngineError::EmptyDims => write!(f, "query selects no dimensions"),
            EngineError::DimOutOfRange { dim, dims } => {
                write!(f, "dimension {dim} out of range (dataset has {dims})")
            }
            EngineError::ConflictingPreference { dim } => {
                write!(
                    f,
                    "dimension {dim} selected with both Min and Max preference"
                )
            }
            EngineError::PreferenceLength { expected, got } => {
                write!(
                    f,
                    "preference vector length {got} does not match the {expected} selected dimension(s)"
                )
            }
            EngineError::RowArity { row, expected, got } => {
                write!(
                    f,
                    "inserted row {row} has {got} value(s), dataset has {expected} dimension(s)"
                )
            }
            EngineError::NonFiniteValue { row, col } => {
                write!(
                    f,
                    "inserted row {row} has a non-finite value at column {col}"
                )
            }
            EngineError::UnknownRow { id } => {
                write!(f, "row id {id} is not live (unknown, deleted, or repeated)")
            }
            EngineError::Rejected(reason) => write!(f, "submission rejected: {reason}"),
            EngineError::Cancelled => write!(f, "ticket cancelled before execution"),
            EngineError::DeadlineExceeded => {
                write!(f, "deadline passed before the query completed")
            }
            EngineError::VersionUnavailable { requested, current } => {
                write!(
                    f,
                    "pinned dataset version {requested} is unavailable (current is {current})"
                )
            }
            EngineError::Internal => {
                write!(f, "internal error: the dispatch batch panicked mid-run")
            }
            EngineError::DatasetQuarantined(name) => {
                write!(
                    f,
                    "dataset '{name}' is quarantined (corrupt durable state); re-register to replace it"
                )
            }
            EngineError::Persist(why) => {
                write!(f, "durability failure, mutation not applied: {why}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_render() {
        assert!(EngineError::UnknownDataset("x".into())
            .to_string()
            .contains("'x'"));
        assert!(EngineError::DimOutOfRange { dim: 9, dims: 4 }
            .to_string()
            .contains('9'));
        assert!(EngineError::ConflictingPreference { dim: 2 }
            .to_string()
            .contains("Min and Max"));
        assert!(EngineError::RowArity {
            row: 1,
            expected: 4,
            got: 3
        }
        .to_string()
        .contains("3 value(s)"));
        assert!(EngineError::NonFiniteValue { row: 0, col: 2 }
            .to_string()
            .contains("column 2"));
        assert!(EngineError::UnknownRow { id: 11 }
            .to_string()
            .contains("11"));
        assert!(EngineError::Rejected(RejectReason::QueueFull { queued: 7 })
            .to_string()
            .contains("7 tickets"));
        assert!(EngineError::Rejected(RejectReason::QuotaExceeded {
            tenant: "acme".into(),
            quota: QuotaKind::Rate
        })
        .to_string()
        .contains("'acme'"));
        assert!(EngineError::Rejected(RejectReason::Shutdown)
            .to_string()
            .contains("shut down"));
        assert!(EngineError::VersionUnavailable {
            requested: 3,
            current: 5
        }
        .to_string()
        .contains("current is 5"));
        assert!(EngineError::DatasetQuarantined("hot".into())
            .to_string()
            .contains("quarantined"));
        assert!(EngineError::Persist("disk on fire".into())
            .to_string()
            .contains("not applied"));
    }

    #[test]
    fn retryability_follows_the_taxonomy() {
        assert!(EngineError::Rejected(RejectReason::QueueFull { queued: 1 }).is_retryable());
        assert!(EngineError::Rejected(RejectReason::QuotaExceeded {
            tenant: "t".into(),
            quota: QuotaKind::InFlight
        })
        .is_retryable());
        assert!(!EngineError::Rejected(RejectReason::Shutdown).is_retryable());
        assert!(!EngineError::Cancelled.is_retryable());
        assert!(!EngineError::DeadlineExceeded.is_retryable());
        assert!(!EngineError::UnknownDataset("x".into()).is_retryable());
        assert!(!EngineError::Internal.is_retryable());
        assert!(!EngineError::DatasetQuarantined("x".into()).is_retryable());
        assert!(!EngineError::Persist("enospc".into()).is_retryable());
    }
}
