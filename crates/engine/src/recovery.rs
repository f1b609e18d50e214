//! Durable engines: snapshots + write-ahead logging on the mutation
//! path, idempotent replay behind [`Engine::open_durable`], and
//! degraded-mode quarantine when recovery meets real corruption.
//!
//! ## Durability contract
//!
//! A durable engine acknowledges a mutation batch only after its WAL
//! record is durable ([`skyline_data::persist::WalIo::append`] carries
//! the fsync), and the record is written *inside* the per-dataset
//! writer critical section before any in-memory state changes — so
//! log order equals apply order, and a batch whose append fails is
//! neither applied nor acknowledged. Replay therefore reconstructs
//! exactly the acknowledged prefix of mutations. (The one classical
//! gray zone: a crash *between* a successful append and the caller
//! observing the ack replays a batch the client never saw confirmed —
//! standard WAL semantics, on the safe side of never losing an ack.)
//!
//! Registration commits by atomically publishing a fresh snapshot
//! stamped with a bumped **epoch**; WAL records carry the epoch, so
//! leftovers from a previous life of the name are skipped on replay.
//! Checkpoints rewrite the snapshot at the current WAL watermark and
//! reset the log, bounding replay work; records at or below the
//! snapshot's watermark are skipped, which is what makes double
//! replay idempotent.
//!
//! ## Recovery classification
//!
//! * torn WAL tail (incomplete or checksum-failing **final** record) —
//!   truncated and counted in `wal.torn_tail_truncations`; the record
//!   was never acknowledged;
//! * checksum failure **before** the end of a WAL, an undecodable
//!   record, or a corrupt snapshot — the dataset is **quarantined**
//!   (`recovery.quarantined`): the engine boots and serves every
//!   healthy dataset while queries and mutations against the sick one
//!   fail with [`EngineError::DatasetQuarantined`]; re-registering
//!   replaces the corrupt files and lifts the quarantine.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};

use skyline_data::persist::wal::codec::{self, ByteReader};
use skyline_data::persist::{
    self, append_record, read_snapshot, scan_wal, write_snapshot, Snapshot, SnapshotError, WalIo,
};
use skyline_data::{AlignedF32, Dataset, PartitionerKind};

use crate::catalog::DatasetEntry;
use crate::engine::Engine;
use crate::error::EngineError;

/// Knobs for a durable engine's maintenance behaviour.
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// WAL size (bytes) past which the engine checkpoints the dataset
    /// after a mutation: fresh snapshot at the current watermark, log
    /// reset. Bounds replay work after a crash.
    pub checkpoint_wal_bytes: u64,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        Self {
            checkpoint_wal_bytes: 4 << 20,
        }
    }
}

/// What [`Engine::open_durable`] found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Datasets recovered into the catalog (healthy ones only).
    pub datasets: usize,
    /// WAL mutation records replayed across all datasets.
    pub records_replayed: u64,
    /// Torn WAL tails truncated (incomplete final records from a
    /// crash mid-append; never acknowledged, safe to drop).
    pub torn_tail_truncations: u64,
    /// Datasets quarantined by corruption, as `(name, reason)` pairs,
    /// sorted by name.
    pub quarantined: Vec<(String, String)>,
}

const REC_MUTATION: u8 = 1;

/// A decoded WAL mutation record.
struct MutationRecord {
    epoch: u64,
    seq: u64,
    inserts: Vec<Vec<f32>>,
    deletes: Vec<u32>,
}

fn encode_mutation(epoch: u64, seq: u64, inserts: &[Vec<f32>], deletes: &[u32]) -> Vec<u8> {
    let dims = inserts.first().map(Vec::len).unwrap_or(0);
    let mut buf = Vec::with_capacity(33 + inserts.len() * dims * 4 + deletes.len() * 4);
    codec::put_u8(&mut buf, REC_MUTATION);
    codec::put_u64(&mut buf, epoch);
    codec::put_u64(&mut buf, seq);
    codec::put_u32(&mut buf, inserts.len() as u32);
    codec::put_u32(&mut buf, dims as u32);
    codec::put_u32(&mut buf, deletes.len() as u32);
    for row in inserts {
        for &v in row {
            codec::put_f32(&mut buf, v);
        }
    }
    for &id in deletes {
        codec::put_u32(&mut buf, id);
    }
    buf
}

fn decode_mutation(payload: &[u8]) -> Option<MutationRecord> {
    let mut r = ByteReader::new(payload);
    if r.u8()? != REC_MUTATION {
        return None;
    }
    let epoch = r.u64()?;
    let seq = r.u64()?;
    let n = r.u32()? as usize;
    let dims = r.u32()? as usize;
    let nd = r.u32()? as usize;
    // Length must account for every value exactly — reject before
    // allocating anything sized by untrusted counts.
    let need = n
        .checked_mul(dims)
        .and_then(|c| c.checked_mul(4))
        .and_then(|c| c.checked_add(nd.checked_mul(4)?))?;
    if need != r.remaining() {
        return None;
    }
    let mut inserts = Vec::with_capacity(n);
    for _ in 0..n {
        let mut row = Vec::with_capacity(dims);
        for _ in 0..dims {
            row.push(r.f32()?);
        }
        inserts.push(row);
    }
    let mut deletes = Vec::with_capacity(nd);
    for _ in 0..nd {
        deletes.push(r.u32()?);
    }
    Some(MutationRecord {
        epoch,
        seq,
        inserts,
        deletes,
    })
}

fn encode_partitioner(kind: PartitionerKind) -> u8 {
    match kind {
        PartitionerKind::Random => 0,
        PartitionerKind::Grid => 1,
        PartitionerKind::Angular => 2,
    }
}

fn decode_partitioner(code: u8) -> PartitionerKind {
    match code {
        1 => PartitionerKind::Grid,
        2 => PartitionerKind::Angular,
        _ => PartitionerKind::Random,
    }
}

fn persist_err(what: &str, e: std::io::Error) -> EngineError {
    EngineError::Persist(format!("{what}: {e}"))
}

/// Per-dataset durable bookkeeping, guarded by [`Durability::state`].
#[derive(Debug, Default, Clone)]
struct DatasetDurable {
    /// Registration epoch stamped into the snapshot and every record.
    epoch: u64,
    /// Last WAL sequence durably appended.
    seq: u64,
    /// Bytes in the WAL since the last checkpoint (auto-checkpoint
    /// trigger).
    wal_bytes: u64,
    /// Shard spec to stamp into checkpoints: `(k, partitioner code)`,
    /// `(0, 0)` when unsharded.
    shard_k: u32,
    partitioner: u8,
}

/// The engine's durability sidecar: owns the I/O handle, per-dataset
/// WAL bookkeeping, and the quarantine set. Attached to
/// [`EngineShared`](crate::engine) once recovery completes, so replay
/// itself runs through the ordinary (non-logging) mutation paths.
#[derive(Debug)]
pub(crate) struct Durability {
    io: Arc<dyn WalIo>,
    root: PathBuf,
    opts: DurabilityOptions,
    state: Mutex<HashMap<String, DatasetDurable>>,
    quarantine: RwLock<HashMap<String, String>>,
}

impl Durability {
    fn new(io: Arc<dyn WalIo>, root: PathBuf, opts: DurabilityOptions) -> Self {
        Self {
            io,
            root,
            opts,
            state: Mutex::new(HashMap::new()),
            quarantine: RwLock::new(HashMap::new()),
        }
    }

    fn dataset_dir(&self, name: &str) -> PathBuf {
        self.root
            .join("datasets")
            .join(persist::escape_dataset_name(name))
    }

    fn snapshot_path(&self, name: &str) -> PathBuf {
        self.dataset_dir(name).join("snapshot.sky")
    }

    fn wal_path(&self, name: &str) -> PathBuf {
        self.dataset_dir(name).join("wal.log")
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, HashMap<String, DatasetDurable>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Fails with [`EngineError::DatasetQuarantined`] when `name` is
    /// quarantined; the gate on every query and mutation path.
    pub(crate) fn check_available(&self, name: &str) -> Result<(), EngineError> {
        let q = self.quarantine.read().unwrap_or_else(|e| e.into_inner());
        if q.contains_key(name) {
            Err(EngineError::DatasetQuarantined(name.to_string()))
        } else {
            Ok(())
        }
    }

    fn set_quarantined(&self, name: &str, reason: String) {
        self.quarantine
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_string(), reason);
    }

    /// Current quarantine set as `(name, reason)`, sorted by name.
    pub(crate) fn quarantined(&self) -> Vec<(String, String)> {
        let q = self.quarantine.read().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<_> = q.iter().map(|(n, r)| (n.clone(), r.clone())).collect();
        out.sort();
        out
    }

    /// Commits a (re-)registration: bumps the epoch, atomically
    /// publishes a fresh snapshot of `data`, resets the WAL, and lifts
    /// any quarantine. Runs **before** the catalog swap — the snapshot
    /// is the registration's commit point.
    pub(crate) fn persist_register(
        &self,
        name: &str,
        data: &Dataset,
        shard: Option<(usize, PartitionerKind)>,
    ) -> Result<(), EngineError> {
        let dir = self.dataset_dir(name);
        self.io
            .create_dir_all(&dir)
            .map_err(|e| persist_err("create dataset dir", e))?;
        let (shard_k, partitioner) = match shard {
            Some((k, kind)) => (k as u32, encode_partitioner(kind)),
            None => (0, 0),
        };
        {
            let mut st = self.lock_state();
            let slot = st.entry(name.to_string()).or_default();
            let epoch = slot.epoch + 1;
            let n = data.len();
            let d = data.dims();
            let mut rows = AlignedF32::filled(n * d, 0.0);
            for (i, dst) in rows.as_mut_slice().chunks_mut(d.max(1)).enumerate() {
                dst.copy_from_slice(data.row(i));
            }
            let snap = Snapshot {
                dims: d,
                epoch,
                wal_seq: 0,
                shard_k,
                partitioner,
                rows,
                tombstones: Vec::new(),
            };
            write_snapshot(&*self.io, &self.snapshot_path(name), &snap)
                .map_err(|e| persist_err("write snapshot", e))?;
            self.io
                .remove_file(&self.wal_path(name))
                .map_err(|e| persist_err("reset wal", e))?;
            *slot = DatasetDurable {
                epoch,
                seq: 0,
                wal_bytes: 0,
                shard_k,
                partitioner,
            };
        }
        self.quarantine
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .remove(name);
        Ok(())
    }

    /// Appends one mutation record and fsyncs it. Runs inside the
    /// catalog's writer critical section (see
    /// [`Catalog::mutate`](crate::catalog::Catalog::mutate)), so the
    /// sequence numbers it assigns match the apply order exactly. On
    /// `Err` nothing was acknowledged and the sequence is not
    /// consumed.
    pub(crate) fn log_mutation(
        &self,
        name: &str,
        inserts: &[Vec<f32>],
        deletes: &[u32],
    ) -> Result<(), EngineError> {
        let mut st = self.lock_state();
        let slot = st.get_mut(name).ok_or_else(|| {
            EngineError::Persist(format!("dataset '{name}' has no durable registration"))
        })?;
        let seq = slot.seq + 1;
        let payload = encode_mutation(slot.epoch, seq, inserts, deletes);
        let len = append_record(&*self.io, &self.wal_path(name), &payload)
            .map_err(|e| persist_err("wal append", e))?;
        slot.seq = seq;
        slot.wal_bytes += len as u64;
        Ok(())
    }

    /// Whether the dataset's WAL has outgrown the checkpoint
    /// threshold.
    pub(crate) fn wants_checkpoint(&self, name: &str) -> bool {
        self.lock_state()
            .get(name)
            .is_some_and(|s| s.wal_bytes >= self.opts.checkpoint_wal_bytes)
    }

    /// Rewrites the snapshot at the current watermark and resets the
    /// WAL. Must run under the dataset's catalog writer lock so the
    /// entry and the watermark are a consistent pair.
    pub(crate) fn checkpoint(&self, name: &str, entry: &DatasetEntry) -> Result<(), EngineError> {
        let mut st = self.lock_state();
        let slot = st.get_mut(name).ok_or_else(|| {
            EngineError::Persist(format!("dataset '{name}' has no durable registration"))
        })?;
        let total = entry.total_rows();
        let d = entry.dims();
        let mut rows = AlignedF32::filled(total * d, 0.0);
        for (id, dst) in rows.as_mut_slice().chunks_mut(d.max(1)).enumerate() {
            dst.copy_from_slice(entry.point(id as u32));
        }
        let tombstones: Vec<u32> = (0..total as u32).filter(|&id| !entry.is_live(id)).collect();
        let snap = Snapshot {
            dims: d,
            epoch: slot.epoch,
            wal_seq: slot.seq,
            shard_k: slot.shard_k,
            partitioner: slot.partitioner,
            rows,
            tombstones,
        };
        write_snapshot(&*self.io, &self.snapshot_path(name), &snap)
            .map_err(|e| persist_err("write checkpoint snapshot", e))?;
        self.io
            .remove_file(&self.wal_path(name))
            .map_err(|e| persist_err("reset wal after checkpoint", e))?;
        slot.wal_bytes = 0;
        Ok(())
    }
}

/// Recovers durable state from `dir` into `engine`, then attaches the
/// durability sidecar so subsequent mutations are logged. The replay
/// itself drives the ordinary registration/mutation paths *before*
/// attachment, so nothing is re-logged and the planner's compaction
/// decisions replay deterministically (same `compact_fraction`, same
/// state ⇒ same renumbering).
pub(crate) fn open(
    engine: Engine,
    dir: &Path,
    io: Arc<dyn WalIo>,
    opts: DurabilityOptions,
) -> Result<(Engine, RecoveryReport), EngineError> {
    let root = dir.to_path_buf();
    io.create_dir_all(&root.join("datasets"))
        .map_err(|e| persist_err("create durable root", e))?;
    let durability = Durability::new(io, root, opts);
    let mut report = RecoveryReport::default();

    let datasets_dir = durability.root.join("datasets");
    let mut dirs = durability
        .io
        .list_dir(&datasets_dir)
        .map_err(|e| persist_err("list datasets", e))?;
    dirs.sort();
    for d in dirs {
        let Some(name) = d
            .file_name()
            .and_then(|s| s.to_str())
            .and_then(persist::unescape_dataset_name)
        else {
            continue;
        };
        recover_dataset(&engine, &durability, &name, &mut report);
    }

    report.quarantined.sort();

    let reg = engine.metrics_registry();
    reg.counter("wal.records_replayed", &[])
        .add(report.records_replayed);
    reg.counter("wal.torn_tail_truncations", &[])
        .add(report.torn_tail_truncations);
    reg.counter("recovery.quarantined", &[])
        .add(report.quarantined.len() as u64);

    engine
        .shared()
        .durability
        .set(Arc::new(durability))
        .expect("a freshly built engine has no durability attached");
    Ok((engine, report))
}

/// Recovers one dataset directory; corruption anywhere quarantines the
/// dataset (recording why) without touching the sick files, so the
/// engine still boots and an operator can inspect or re-register.
fn recover_dataset(engine: &Engine, dur: &Durability, name: &str, report: &mut RecoveryReport) {
    let quarantine = |reason: String, report: &mut RecoveryReport| {
        engine.evict(name);
        dur.set_quarantined(name, reason.clone());
        report.quarantined.push((name.to_string(), reason));
    };

    let snap_path = dur.snapshot_path(name);
    let wal_path = dur.wal_path(name);
    if !dur.io.exists(&snap_path) {
        // The snapshot is the registration's commit point: a dataset
        // directory without one is an unacknowledged registration.
        return;
    }
    let snap = match read_snapshot(&*dur.io, &snap_path) {
        Ok(s) => s,
        Err(e @ (SnapshotError::Corrupt(_) | SnapshotError::Io(_))) => {
            quarantine(e.to_string(), report);
            return;
        }
    };
    let scan = match scan_wal(&*dur.io, &wal_path) {
        Ok(s) => s,
        Err(e) => {
            quarantine(format!("wal unreadable: {e}"), report);
            return;
        }
    };
    if scan.corrupt {
        quarantine(
            "corrupt interior WAL record (acknowledged history unreachable)".into(),
            report,
        );
        return;
    }
    let mut muts = Vec::with_capacity(scan.records.len());
    for payload in &scan.records {
        match decode_mutation(payload) {
            Some(m) => muts.push(m),
            None => {
                quarantine("malformed WAL record".into(), report);
                return;
            }
        }
    }

    let data = match Dataset::from_flat(snap.rows.to_vec(), snap.dims) {
        Ok(d) => d,
        Err(e) => {
            quarantine(format!("snapshot rows invalid: {e:?}"), report);
            return;
        }
    };
    if snap.shard_k >= 2 {
        engine.register_sharded(
            name,
            data,
            snap.shard_k as usize,
            decode_partitioner(snap.partitioner),
        );
    } else {
        engine.register(name, data);
    }
    // Re-tombstone the snapshot's dead ids with compaction disabled,
    // so stable ids come back verbatim; replayed batches below then
    // reproduce the original compaction decisions on their own.
    if !snap.tombstones.is_empty() {
        if let Err(e) =
            engine
                .shared()
                .catalog
                .mutate(name, &[], &snap.tombstones, f32::INFINITY, None)
        {
            quarantine(format!("snapshot tombstones invalid: {e}"), report);
            return;
        }
    }

    let mut last_seq = snap.wal_seq;
    for m in &muts {
        // Stale epochs (records from a previous registration of the
        // name) and records already folded into the snapshot are
        // skipped — this is what makes double replay idempotent.
        if m.epoch != snap.epoch || m.seq <= snap.wal_seq {
            continue;
        }
        match engine.update_batch(name, &m.inserts, &m.deletes) {
            Ok(_) => {
                report.records_replayed += 1;
                last_seq = last_seq.max(m.seq);
            }
            Err(e) => {
                quarantine(format!("wal replay failed at seq {}: {e}", m.seq), report);
                return;
            }
        }
    }

    if scan.torn_tail {
        if dur.io.truncate(&wal_path, scan.valid_len).is_err() {
            quarantine("could not truncate torn WAL tail".into(), report);
            return;
        }
        report.torn_tail_truncations += 1;
    }

    dur.lock_state().insert(
        name.to_string(),
        DatasetDurable {
            epoch: snap.epoch,
            seq: last_seq,
            wal_bytes: scan.valid_len,
            shard_k: snap.shard_k,
            partitioner: snap.partitioner,
        },
    );
    report.datasets += 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutation_record_roundtrips() {
        let payload = encode_mutation(3, 42, &[vec![1.0, -2.5], vec![0.0, 9.75]], &[7, 11]);
        let m = decode_mutation(&payload).unwrap();
        assert_eq!((m.epoch, m.seq), (3, 42));
        assert_eq!(m.inserts, vec![vec![1.0, -2.5], vec![0.0, 9.75]]);
        assert_eq!(m.deletes, vec![7, 11]);
    }

    #[test]
    fn mutation_record_rejects_truncation_and_padding() {
        let payload = encode_mutation(1, 1, &[vec![1.0]], &[2]);
        assert!(decode_mutation(&payload[..payload.len() - 1]).is_none());
        let mut padded = payload.clone();
        padded.push(0);
        assert!(decode_mutation(&padded).is_none());
    }

    #[test]
    fn partitioner_codes_roundtrip() {
        for kind in [
            PartitionerKind::Random,
            PartitionerKind::Grid,
            PartitionerKind::Angular,
        ] {
            assert_eq!(decode_partitioner(encode_partitioner(kind)), kind);
        }
    }
}
