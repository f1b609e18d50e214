//! Deterministic integration tests for the durability subsystem:
//! WAL + snapshot roundtrips, idempotent double replay, torn-tail
//! truncation, checkpointing, an old planner-fit log ignored, corruption
//! quarantine with re-registration lifting it, and panic containment
//! on the mutation path.
//!
//! Every test runs on [`MemIo`] — a shared in-memory filesystem —
//! so "crash and restart" is just dropping one engine and opening
//! another over the same store; the two on-disk fault cases (torn
//! tail, interior bit flip) also run over [`StdIo`] files in a scratch
//! directory. Compaction is disabled
//! (`compact_fraction` above 1.0) wherever a test tracks stable ids
//! by hand; replay *through* compaction is covered by the recovery
//! property suite.

use std::path::Path;
use std::sync::Arc;

use skybench::persist::{append_record, FaultInjector, FaultPlan, MemIo, StdIo, WalIo};
use skybench::prelude::*;
use skybench::{verify, DurabilityOptions, EngineError, MetricValue, PlannerConfig};

const DIR: &str = "/durable";

fn cfg() -> EngineConfig {
    EngineConfig {
        threads: 2,
        compact_fraction: 2.0,
        ..EngineConfig::default()
    }
}

fn open_on(io: &Arc<dyn WalIo>, dir: &Path) -> (Engine, skybench::RecoveryReport) {
    Engine::open_durable_with_io(dir, cfg(), Arc::clone(io)).expect("open durable engine")
}

fn open(mem: &MemIo) -> (Engine, skybench::RecoveryReport) {
    open_on(&(Arc::new(mem.clone()) as Arc<dyn WalIo>), Path::new(DIR))
}

/// Runs `case` over the in-memory store and over real files in a
/// scratch directory.
fn on_mem_and_disk(tag: &str, case: fn(&Arc<dyn WalIo>, &Path)) {
    case(&(Arc::new(MemIo::new()) as Arc<dyn WalIo>), Path::new(DIR));
    let dir = std::env::temp_dir().join(format!("skyline-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    case(&(Arc::new(StdIo) as Arc<dyn WalIo>), &dir);
    std::fs::remove_dir_all(&dir).expect("remove the scratch directory");
}

fn rows(n: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            (0..d)
                .map(|_| (skybench::splitmix64(&mut s) % 997) as f32)
                .collect()
        })
        .collect()
}

/// Asserts the engine's live rows and skyline for `name` equal the
/// hand-tracked `(id, row)` model.
fn assert_state(engine: &Engine, name: &str, model: &[(u32, Vec<f32>)]) {
    let entry = engine.dataset(name).expect("dataset is present");
    let ids: Vec<u32> = model.iter().map(|(id, _)| *id).collect();
    assert_eq!(entry.live_ids().as_slice(), ids.as_slice());
    for (id, row) in model {
        assert_eq!(entry.point(*id), row.as_slice(), "row {id}");
    }
    let got = engine.execute(&SkylineQuery::new(name)).expect("query");
    let expect: Vec<u32> = verify::naive_skyline(&entry.snapshot())
        .iter()
        .map(|&k| ids[k as usize])
        .collect();
    assert_eq!(got.indices(), expect.as_slice());
}

fn counter(engine: &Engine, name: &str) -> u64 {
    engine
        .metrics()
        .samples
        .iter()
        .find_map(|s| match (&s.name, &s.value) {
            (n, MetricValue::Counter(v)) if n == name => Some(*v),
            _ => None,
        })
        .unwrap_or(0)
}

#[test]
fn durable_roundtrip_replays_acknowledged_mutations() {
    let mem = MemIo::new();
    let base = rows(6, 3, 1);
    let b1 = rows(2, 3, 2);
    let b2 = rows(1, 3, 3);
    let mut model: Vec<(u32, Vec<f32>)>;
    {
        let (engine, report) = open(&mem);
        assert!(engine.is_durable());
        assert_eq!(report.datasets, 0, "a fresh directory recovers nothing");
        engine.register("hotels", Dataset::from_rows(&base).unwrap());
        model = base
            .iter()
            .enumerate()
            .map(|(i, r)| (i as u32, r.clone()))
            .collect();
        engine.update_batch("hotels", &b1, &[1]).unwrap();
        model.retain(|(id, _)| *id != 1);
        model.push((6, b1[0].clone()));
        model.push((7, b1[1].clone()));
        engine.update_batch("hotels", &b2, &[0, 7]).unwrap();
        model.retain(|(id, _)| *id != 0 && *id != 7);
        model.push((8, b2[0].clone()));
        assert_state(&engine, "hotels", &model);
        engine.shutdown();
    }

    let (engine, report) = open(&mem);
    assert_eq!(report.datasets, 1);
    assert_eq!(report.records_replayed, 2);
    assert_eq!(report.torn_tail_truncations, 0);
    assert!(report.quarantined.is_empty());
    assert_eq!(counter(&engine, "wal.records_replayed"), 2);
    assert_state(&engine, "hotels", &model);

    // Mutations keep flowing after recovery, and a second restart
    // replays the combined history — double replay is idempotent.
    let b3 = rows(1, 3, 4);
    engine.update_batch("hotels", &b3, &[2]).unwrap();
    model.retain(|(id, _)| *id != 2);
    model.push((9, b3[0].clone()));
    engine.shutdown();
    drop(engine);

    let (engine, report) = open(&mem);
    assert_eq!(report.records_replayed, 3);
    assert_state(&engine, "hotels", &model);
}

#[test]
fn torn_wal_tail_is_truncated_not_fatal() {
    on_mem_and_disk("torn", torn_wal_tail);
}

fn torn_wal_tail(io: &Arc<dyn WalIo>, dir: &Path) {
    let base = rows(5, 2, 10);
    {
        let (engine, _) = open_on(io, dir);
        engine.register("t", Dataset::from_rows(&base).unwrap());
        engine.update_batch("t", &rows(2, 2, 11), &[]).unwrap();
        engine.shutdown();
    }
    // A crash mid-append leaves a frame header that promises more
    // bytes than the file holds.
    let wal = dir.join("datasets/t/wal.log");
    io.append(&wal, &[0x40, 0, 0, 0, 0xde, 0xad]).unwrap();
    let torn_len = io.read(&wal).unwrap().len();

    let (engine, report) = open_on(io, dir);
    assert_eq!(report.torn_tail_truncations, 1);
    assert_eq!(report.records_replayed, 1, "the intact record replays");
    assert!(
        report.quarantined.is_empty(),
        "torn tails are not corruption"
    );
    assert_eq!(counter(&engine, "wal.torn_tail_truncations"), 1);
    assert!(
        io.read(&wal).unwrap().len() < torn_len,
        "the tail is gone on disk"
    );
    engine.shutdown();
    drop(engine);

    // The truncation is durable: the next boot sees a clean log.
    let (_engine, report) = open_on(io, dir);
    assert_eq!(report.torn_tail_truncations, 0);
    assert_eq!(report.records_replayed, 1);
}

#[test]
fn checkpoint_resets_the_wal_and_bounds_replay() {
    let mem = MemIo::new();
    let base = rows(4, 2, 20);
    let b1 = rows(2, 2, 21);
    let wal = Path::new(DIR).join("datasets/c/wal.log");
    {
        let (engine, _) = open(&mem);
        engine.register("c", Dataset::from_rows(&base).unwrap());
        engine.update_batch("c", &b1, &[0]).unwrap();
        assert!(mem.len(&wal).unwrap_or(0) > 0);
        engine.checkpoint("c").unwrap();
        assert_eq!(mem.len(&wal), None, "checkpoint resets the log");
        engine.shutdown();
    }
    let (engine, report) = open(&mem);
    assert_eq!(report.datasets, 1);
    assert_eq!(
        report.records_replayed, 0,
        "everything lives in the snapshot now"
    );
    let mut model: Vec<(u32, Vec<f32>)> = base
        .iter()
        .enumerate()
        .skip(1)
        .map(|(i, r)| (i as u32, r.clone()))
        .collect();
    model.push((4, b1[0].clone()));
    model.push((5, b1[1].clone()));
    assert_state(&engine, "c", &model);
}

#[test]
fn tiny_checkpoint_threshold_auto_checkpoints_every_batch() {
    let mem = MemIo::new();
    let wal = Path::new(DIR).join("datasets/a/wal.log");
    {
        let (engine, _) = Engine::open_durable_with_options(
            DIR,
            cfg(),
            Arc::new(mem.clone()),
            DurabilityOptions {
                checkpoint_wal_bytes: 1,
            },
        )
        .unwrap();
        engine.register("a", Dataset::from_rows(&rows(3, 2, 30)).unwrap());
        for seed in 31..34 {
            engine.update_batch("a", &rows(1, 2, seed), &[]).unwrap();
            assert_eq!(mem.len(&wal), None, "every batch triggers a checkpoint");
        }
        engine.shutdown();
    }
    let (engine, report) = open(&mem);
    assert_eq!(report.records_replayed, 0);
    assert_eq!(engine.dataset("a").unwrap().live_ids().len(), 6);
}

/// Older versions kept a planner-fit log at the durable root. A
/// reopened engine ignores one: it keeps the `PlannerConfig` it was
/// opened with, and its answers are the oracle's.
#[test]
fn leftover_planner_fit_log_is_ignored() {
    let mem = MemIo::new();
    let data = Dataset::from_rows(&rows(600, 3, 50)).unwrap();
    {
        let (engine, _) = open(&mem);
        engine.register("a", data.clone());
        engine.shutdown();
    }
    // A valid record of the old format, little-endian: kind 2, then the
    // eight fields of the old planner config — three u64 thresholds, an
    // f32 density split and four more u64s — asking for BNL up to 2²⁰
    // rows.
    let mut fit = vec![2u8];
    for v in [1u64 << 20, 1 << 20, 2] {
        fit.extend_from_slice(&v.to_le_bytes());
    }
    fit.extend_from_slice(&0.5f32.to_le_bytes());
    for v in [1u64, 65, 65, 1] {
        fit.extend_from_slice(&v.to_le_bytes());
    }
    append_record(&mem, &Path::new(DIR).join("feedback.wal"), &fit).unwrap();

    let planner = PlannerConfig {
        small_n: 64,
        ..PlannerConfig::default()
    };
    let reopened = EngineConfig {
        planner: planner.clone(),
        delta_cap: 8,
        ..cfg()
    };
    let (engine, report) =
        Engine::open_durable_with_io(DIR, reopened, Arc::new(mem.clone())).unwrap();
    assert_eq!(report.datasets, 1);
    assert!(report.quarantined.is_empty());
    assert_eq!(*engine.planner_config(), planner);
    for (dims, max_mask) in [
        (vec![0usize, 1, 2], 0u32),
        (vec![0, 2], 0),
        (vec![1, 2], 0b10),
    ] {
        let prefs: Vec<Preference> = dims
            .iter()
            .map(|&c| match max_mask & (1 << c) {
                0 => Preference::Min,
                _ => Preference::Max,
            })
            .collect();
        let q = SkylineQuery::new("a").dims(dims.clone()).preference(prefs);
        let got = engine.execute(&q).unwrap();
        let expect = verify::naive_skyline_on_pref(&data, &dims, max_mask);
        assert_eq!(got.indices(), expect.as_slice(), "dims {dims:?}");
    }
}

#[test]
fn interior_corruption_quarantines_only_the_sick_dataset() {
    on_mem_and_disk("bitflip", interior_corruption);
}

fn interior_corruption(io: &Arc<dyn WalIo>, dir: &Path) {
    let healthy_rows = rows(5, 2, 40);
    {
        let (engine, _) = open_on(io, dir);
        engine.register("sick", Dataset::from_rows(&rows(5, 2, 41)).unwrap());
        engine.register("healthy", Dataset::from_rows(&healthy_rows).unwrap());
        for seed in 42..45 {
            engine.update_batch("sick", &rows(1, 2, seed), &[]).unwrap();
            engine
                .update_batch("healthy", &rows(1, 2, seed + 10), &[])
                .unwrap();
        }
        engine.shutdown();
    }
    // Flip a payload bit inside the *first* of three records: a
    // checksum failure before the end of the log is real corruption,
    // not a torn tail.
    let wal = dir.join("datasets/sick/wal.log");
    let mut bytes = io.read(&wal).unwrap();
    bytes[8] ^= 0x10;
    io.write_atomic(&wal, &bytes).unwrap();

    let (engine, report) = open_on(io, dir);
    assert_eq!(report.datasets, 1, "only the healthy dataset recovers");
    assert_eq!(report.quarantined.len(), 1);
    assert_eq!(report.quarantined[0].0, "sick");
    assert_eq!(counter(&engine, "recovery.quarantined"), 1);
    assert_eq!(engine.quarantined().len(), 1);

    // The sick dataset rejects everything with the dedicated error...
    assert!(matches!(
        engine.execute(&SkylineQuery::new("sick")),
        Err(EngineError::DatasetQuarantined(n)) if n == "sick"
    ));
    assert!(matches!(
        engine.update_batch("sick", &rows(1, 2, 50), &[]),
        Err(EngineError::DatasetQuarantined(_))
    ));
    // ...while the healthy one keeps serving reads and writes.
    engine.execute(&SkylineQuery::new("healthy")).unwrap();
    engine
        .update_batch("healthy", &rows(1, 2, 51), &[])
        .unwrap();

    // Re-registering replaces the corrupt files and lifts the
    // quarantine, durably.
    engine.register("sick", Dataset::from_rows(&rows(4, 2, 52)).unwrap());
    assert!(engine.quarantined().is_empty());
    engine.update_batch("sick", &rows(1, 2, 53), &[0]).unwrap();
    engine.shutdown();
    drop(engine);

    let (engine, report) = open_on(io, dir);
    assert!(report.quarantined.is_empty());
    assert_eq!(report.datasets, 2);
    engine.execute(&SkylineQuery::new("sick")).unwrap();
}

#[test]
fn corrupt_snapshot_quarantines_the_dataset() {
    let mem = MemIo::new();
    {
        let (engine, _) = open(&mem);
        engine.register("s", Dataset::from_rows(&rows(4, 2, 60)).unwrap());
        engine.shutdown();
    }
    let snap = Path::new(DIR).join("datasets/s/snapshot.sky");
    // Deep inside the payload, well past both header checksums.
    assert!(mem.corrupt(&snap, 70, 0x01));
    let (engine, report) = open(&mem);
    assert_eq!(report.datasets, 0);
    assert_eq!(report.quarantined.len(), 1);
    assert!(matches!(
        engine.execute(&SkylineQuery::new("s")),
        Err(EngineError::DatasetQuarantined(_))
    ));
}

#[test]
fn enospc_refuses_the_batch_without_applying_it() {
    let mem = MemIo::new();
    let base = rows(4, 2, 70);
    let model: Vec<(u32, Vec<f32>)> = base
        .iter()
        .enumerate()
        .map(|(i, r)| (i as u32, r.clone()))
        .collect();
    {
        let (engine, _) = open(&mem);
        engine.register("e", Dataset::from_rows(&base).unwrap());
        engine.shutdown();
    }
    // Writes 1..2 are the reopened engine's replay bookkeeping-free
    // path (none happen on open), so the very next append hits the
    // injected ENOSPC.
    let inj = Arc::new(FaultInjector::new(
        Arc::new(mem.clone()),
        FaultPlan {
            enospc_on_write: Some(1),
            ..FaultPlan::default()
        },
    ));
    let (engine, _) = Engine::open_durable_with_io(DIR, cfg(), inj).unwrap();
    let err = engine
        .update_batch("e", &rows(1, 2, 71), &[0])
        .expect_err("the append failed, so the batch must not apply");
    assert!(matches!(err, EngineError::Persist(_)), "got {err:?}");
    assert_state(&engine, "e", &model);
    // The next batch (write 2) goes through: ENOSPC was transient.
    engine.update_batch("e", &rows(1, 2, 72), &[]).unwrap();
    engine.shutdown();
    drop(engine);

    let (engine, report) = open(&mem);
    assert_eq!(report.records_replayed, 1, "only the acknowledged batch");
    let mut model = model;
    model.push((4, rows(1, 2, 72)[0].clone()));
    assert_state(&engine, "e", &model);
}

#[test]
fn panicking_mutation_reports_internal_and_leaves_the_dataset_mutable() {
    let mem = MemIo::new();
    {
        let (engine, _) = open(&mem);
        engine.register("p", Dataset::from_rows(&rows(4, 2, 80)).unwrap());
        engine.shutdown();
    }
    let inj = Arc::new(FaultInjector::new(
        Arc::new(mem.clone()),
        FaultPlan {
            panic_on_write: Some(1),
            ..FaultPlan::default()
        },
    ));
    let (engine, _) = Engine::open_durable_with_io(DIR, cfg(), inj).unwrap();
    // The injected panic fires inside the WAL append — mid-mutation,
    // under the dataset's writer lock.
    let err = engine
        .update_batch("p", &rows(1, 2, 81), &[])
        .expect_err("the panic must surface as an error, not unwind");
    assert!(matches!(err, EngineError::Internal), "got {err:?}");

    // The poisoned lock recovers: the dataset stays mutable and
    // queryable, and the durable history shows only acknowledged
    // batches.
    engine.update_batch("p", &rows(1, 2, 82), &[1]).unwrap();
    engine.execute(&SkylineQuery::new("p")).unwrap();
    engine.shutdown();
    drop(engine);

    let (engine, report) = open(&mem);
    assert_eq!(report.records_replayed, 1);
    let mut model: Vec<(u32, Vec<f32>)> = rows(4, 2, 80)
        .iter()
        .enumerate()
        .map(|(i, r)| (i as u32, r.clone()))
        .collect();
    model.retain(|(id, _)| *id != 1);
    model.push((4, rows(1, 2, 82)[0].clone()));
    assert_state(&engine, "p", &model);
}

#[test]
fn hostile_dataset_names_roundtrip_through_escaping() {
    let mem = MemIo::new();
    let names = ["web/logs", "..", "a b\tc", "日本語データ", "CON."];
    {
        let (engine, _) = open(&mem);
        for (i, name) in names.iter().enumerate() {
            engine.register(
                name,
                Dataset::from_rows(&rows(3, 2, 90 + i as u64)).unwrap(),
            );
            engine
                .update_batch(name, &rows(1, 2, 100 + i as u64), &[0])
                .unwrap();
        }
        engine.shutdown();
    }
    let (engine, report) = open(&mem);
    assert_eq!(report.datasets, names.len());
    assert_eq!(report.records_replayed, names.len() as u64);
    for name in names {
        let entry = engine.dataset(name).expect("recovered under its own name");
        assert_eq!(entry.live_ids().as_slice(), &[1, 2, 3]);
        engine.execute(&SkylineQuery::new(name)).unwrap();
    }
}

#[test]
fn sharded_registration_recovers_sharded() {
    let mem = MemIo::new();
    let pool = ThreadPool::new(2);
    let data = skybench::generate(Distribution::Anticorrelated, 2_000, 3, 7, &pool);
    let expect = verify::naive_skyline(&data);
    {
        let (engine, _) = open(&mem);
        engine.register_sharded("sh", data, 4, skybench::PartitionerKind::Grid);
        engine.shutdown();
    }
    let (engine, report) = open(&mem);
    assert_eq!(report.datasets, 1);
    let got = engine.execute(&SkylineQuery::new("sh")).unwrap();
    assert_eq!(got.indices(), expect.as_slice());
}
