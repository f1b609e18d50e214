//! Multi-thread session stress: mixed tenants with different priority
//! classes and quotas submit concurrently while a mutator thread
//! inserts and deletes rows. Cancellations, deadline expiries, and
//! quota rejections interleave with real execution.
//!
//! Invariants checked:
//! * every admitted ticket reaches exactly one terminal outcome (no
//!   hangs, no lost tickets — the admission counters balance);
//! * every successful result equals the naive skyline of the **pinned
//!   version's snapshot** — mutations landing after submission never
//!   tear a result;
//! * only the structured error taxonomy ever surfaces.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use skybench::{
    generate, verify, Distribution, Engine, EngineConfig, EngineError, Priority, SessionOptions,
    SkylineQuery, ThreadPool,
};

const SUBSPACES: [&[usize]; 5] = [&[0], &[1, 2], &[0, 2], &[0, 1], &[0, 1, 2]];

fn subspace_query(name: &str, i: usize) -> SkylineQuery {
    SkylineQuery::new(name).dims(SUBSPACES[i % SUBSPACES.len()].iter().copied())
}

#[test]
fn mixed_tenants_stress_with_interleaved_mutations() {
    let gen_pool = ThreadPool::new(4);
    let engine = Arc::new(Engine::with_config(EngineConfig {
        threads: 4,
        ..EngineConfig::default()
    }));
    engine.register(
        "a",
        generate(Distribution::Independent, 400, 3, 11, &gen_pool),
    );
    engine.register(
        "b",
        generate(Distribution::Anticorrelated, 500, 3, 12, &gen_pool),
    );

    let stop = Arc::new(AtomicBool::new(false));
    let mutator = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut step = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let name = if step % 2 == 0 { "a" } else { "b" };
                if step % 3 == 0 {
                    let entry = engine.dataset(name).expect("registered");
                    let live = entry.live_ids();
                    if let Some(&victim) = live.get((step as usize * 131) % live.len().max(1)) {
                        // Racing deletes may hit the same id; both
                        // orders are fine.
                        let _ = engine.delete(name, &[victim]);
                    }
                } else {
                    let v = (step % 97) as f32 / 97.0;
                    let row = vec![v, 1.0 - v, (step % 13) as f32 / 13.0];
                    engine.insert(name, &[row]).expect("insert is always valid");
                }
                step += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
        })
    };

    let mut handles = Vec::new();
    for t in 0..3usize {
        let engine = Arc::clone(&engine);
        handles.push(std::thread::spawn(move || {
            let options = match t {
                0 => SessionOptions::new("vip").priority(Priority::High),
                1 => SessionOptions::new("web").max_in_flight(64),
                _ => SessionOptions::new("bulk")
                    .priority(Priority::Low)
                    .qps_cap(500),
            };
            let session = engine.open_session(options);
            let (mut ok, mut cancelled, mut expired, mut rejected, mut pin_lost, mut verified) =
                (0u32, 0u32, 0u32, 0u32, 0u32, 0u32);
            for i in 0..120usize {
                let name = if (t + i) % 2 == 0 { "a" } else { "b" };
                // Pin to the snapshot read just before submission; a
                // mutation racing in between surfaces as a structured
                // VersionUnavailable, not a torn result.
                let entry = engine.dataset(name).expect("registered");
                let query = if i % 11 == 0 {
                    // An already-expired deadline: must terminate
                    // without executing. Nothing else asks dims [2],
                    // so it is never a cache hit (a hit is answered at
                    // submission, deadline or not).
                    SkylineQuery::new(name).dims([2]).deadline(Duration::ZERO)
                } else {
                    subspace_query(name, i)
                };
                let query = query.pin_version(entry.version());
                let ticket = match session.submit(&query) {
                    Ok(ticket) => ticket,
                    Err(EngineError::VersionUnavailable { .. }) => {
                        pin_lost += 1;
                        continue;
                    }
                    Err(e) if e.is_retryable() => {
                        rejected += 1;
                        continue;
                    }
                    Err(e) => panic!("unexpected submit error: {e}"),
                };
                if i % 7 == 0 {
                    ticket.cancel();
                }
                match ticket.wait() {
                    Ok(result) => {
                        ok += 1;
                        assert_eq!(
                            result.dataset_version,
                            entry.version(),
                            "ticket must observe its pinned version"
                        );
                        if i % 3 == 0 {
                            let dims = SUBSPACES[i % SUBSPACES.len()];
                            let snap = entry.snapshot();
                            let expect: Vec<u32> = verify::naive_skyline_on(&snap, dims)
                                .iter()
                                .map(|&k| entry.live_ids()[k as usize])
                                .collect();
                            assert_eq!(
                                result.indices(),
                                expect.as_slice(),
                                "tenant {t} query {i} on {name} v{}",
                                entry.version()
                            );
                            verified += 1;
                        }
                    }
                    Err(EngineError::Cancelled) => cancelled += 1,
                    Err(EngineError::DeadlineExceeded) => expired += 1,
                    Err(e) => panic!("unexpected terminal outcome: {e}"),
                }
            }
            (ok, cancelled, expired, rejected, pin_lost, verified)
        }));
    }

    let mut totals = (0u32, 0u32, 0u32, 0u32, 0u32, 0u32);
    for h in handles {
        let (ok, cancelled, expired, rejected, pin_lost, verified) = h.join().unwrap();
        totals.0 += ok;
        totals.1 += cancelled;
        totals.2 += expired;
        totals.3 += rejected;
        totals.4 += pin_lost;
        totals.5 += verified;
    }
    stop.store(true, Ordering::Relaxed);
    mutator.join().unwrap();

    // Every submission is accounted for, and real work actually ran.
    let (ok, cancelled, expired, rejected, pin_lost, verified) = totals;
    assert_eq!(
        (ok + cancelled + expired + rejected + pin_lost) as usize,
        3 * 120
    );
    assert!(ok > 0, "some queries must succeed");
    assert!(verified > 0, "snapshot verification must actually run");
    assert!(expired > 0, "zero deadlines must expire");

    engine.shutdown();
    let stats = engine.session_stats();
    assert_eq!(stats.queued, 0, "shutdown drains the queue");
    assert_eq!(stats.internal_errors, 0, "no dispatch batch panicked");
    assert_eq!(
        stats.submitted,
        stats.completed + stats.cancelled + stats.deadline_expired + stats.internal_errors,
        "every admitted ticket terminated exactly once: {stats:?}"
    );
    assert_eq!(
        u64::from(ok),
        stats.completed + stats.short_circuits,
        "successful waits = admitted completions + cache short-circuits: {stats:?}"
    );
}
