//! The open-loop load generator: a shared arrival schedule, lateness
//! accounting, and the rate ladder's pass rule.
//!
//! Arrivals are due at `t_k = k / rate` regardless of how the server
//! is doing. A worker claims the next `k`, waits for its due instant,
//! sends, and records three offsets: when the request was *due*, when
//! it was actually *sent* (the generator's lateness is the
//! difference) and when the response was *done*. Latency is timed from
//! the due instant, so the wait a stall imposes on later requests is
//! counted against it.
//!
//! Time comes from a [`Clock`], so the schedule and the accounting are
//! tested against a fake one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::stats::{median, ms, percentile, sorted};

pub trait Clock {
    /// Time since the phase began.
    fn now(&self) -> Duration;
    /// Blocks until [`now`](Self::now) is at least `t`.
    fn sleep_until(&self, t: Duration);
}

/// The real clock, counting from its creation.
#[derive(Debug)]
pub struct WallClock(Instant);

impl WallClock {
    pub fn start() -> Self {
        Self(Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, t: Duration) {
        if let Some(wait) = t.checked_sub(self.0.elapsed()) {
            std::thread::sleep(wait);
        }
    }
}

/// The arrival schedule of one open-loop phase, shared by its workers.
#[derive(Debug)]
pub struct Schedule {
    next: AtomicU64,
    rate: u64,
    length: Duration,
}

impl Schedule {
    pub fn new(rate: u64, length: Duration) -> Self {
        Self {
            next: AtomicU64::new(0),
            rate,
            length,
        }
    }

    /// Claims the next arrival: its index and due instant, or `None`
    /// once the schedule has run past the phase's length.
    pub fn claim(&self) -> Option<(u64, Duration)> {
        let k = self.next.fetch_add(1, Ordering::Relaxed);
        let due = Duration::from_secs_f64(k as f64 / self.rate as f64);
        (due < self.length).then_some((k, due))
    }
}

/// One request of an open-loop phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub k: u64,
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
    pub ok: bool,
}

impl Arrival {
    /// Response time as the user scheduled at `due` saw it.
    pub fn latency_ms(&self) -> f64 {
        ms(self.done - self.due)
    }

    /// How late the generator sent the request.
    pub fn lateness_ms(&self) -> f64 {
        ms(self.sent - self.due)
    }
}

/// One worker's loop: claim, wait for the due instant, send, record.
/// `send` gets the arrival's index and returns whether the response
/// was the correct one. A worker that has fallen a whole phase length
/// behind gives up (the rung has long failed on lateness by then), so
/// a phase takes at most twice its length.
pub fn open_loop_worker(
    clock: &impl Clock,
    schedule: &Schedule,
    mut send: impl FnMut(u64) -> bool,
) -> Vec<Arrival> {
    let mut arrivals = Vec::new();
    while let Some((k, due)) = schedule.claim() {
        if clock.now() > due + schedule.length {
            break;
        }
        clock.sleep_until(due);
        let sent = clock.now();
        let ok = send(k);
        arrivals.push(Arrival {
            k,
            due,
            sent,
            done: clock.now(),
            ok,
        });
    }
    arrivals
}

/// Lateness may drift by this much between the first and the last
/// quarter of a phase before the backlog counts as growing.
const LATENESS_DRIFT_MS: f64 = 1.0;

/// What one rung of the rate ladder measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    pub rate: u64,
    pub requests: usize,
    pub failed: usize,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub lateness_p99_ms: f64,
    pub achieved_qps: f64,
    /// Median lateness of the last quarter of arrivals minus that of
    /// the first quarter.
    pub lateness_drift_ms: f64,
}

impl Rung {
    /// Summarises a phase's arrivals (from all workers, any order).
    pub fn of(rate: u64, mut arrivals: Vec<Arrival>) -> Self {
        arrivals.sort_unstable_by_key(|a| a.k);
        let latency = sorted(arrivals.iter().map(Arrival::latency_ms).collect());
        let lateness: Vec<f64> = arrivals.iter().map(Arrival::lateness_ms).collect();
        let quarter = (arrivals.len() / 4).max(1).min(arrivals.len());
        let head = sorted(lateness[..quarter].to_vec());
        let tail = sorted(lateness[lateness.len() - quarter..].to_vec());
        let span = arrivals.iter().map(|a| a.done).max().unwrap_or_default();
        Self {
            rate,
            requests: arrivals.len(),
            failed: arrivals.iter().filter(|a| !a.ok).count(),
            p50_ms: median(&latency),
            p99_ms: percentile(&latency, 99.0),
            lateness_p99_ms: percentile(&sorted(lateness), 99.0),
            achieved_qps: arrivals.len() as f64 / span.as_secs_f64().max(1e-9),
            lateness_drift_ms: median(&tail) - median(&head),
        }
    }

    /// A rung passes when its p99 from the due instant meets the
    /// limit, nothing failed or was refused on it, and the generator's
    /// lateness is not growing (a growing backlog means the rate is
    /// above capacity however the percentiles read so far).
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.requests > 0
            && self.failed == 0
            && self.p99_ms <= limit_ms
            && self.lateness_drift_ms <= LATENESS_DRIFT_MS
    }
}

/// The highest passing rate of the ladder; 0 when none passes.
pub fn max_ok_rate(rungs: &[Rung], limit_ms: f64) -> u64 {
    rungs
        .iter()
        .filter(|r| r.passes(limit_ms))
        .map(|r| r.rate)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to: sleeping jumps to the
    /// target, sending costs a fixed service time.
    struct FakeClock(Cell<Duration>);

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }

        fn sleep_until(&self, t: Duration) {
            self.0.set(self.0.get().max(t));
        }
    }

    fn run(rate: u64, length_ms: u64, service: Duration) -> Vec<Arrival> {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let schedule = Schedule::new(rate, Duration::from_millis(length_ms));
        open_loop_worker(&clock, &schedule, |_| {
            clock.0.set(clock.0.get() + service);
            true
        })
    }

    #[test]
    fn schedule_is_k_over_rate_and_ends_with_the_phase() {
        let s = Schedule::new(1_000, Duration::from_millis(5));
        let due: Vec<_> = std::iter::from_fn(|| s.claim()).collect();
        assert_eq!(due.len(), 5);
        assert_eq!(due[3], (3, Duration::from_millis(3)));
        assert_eq!(s.claim(), None);
    }

    #[test]
    fn a_fast_server_is_never_late_and_latency_is_service_time() {
        let arrivals = run(1_000, 100, Duration::from_micros(400));
        assert_eq!(arrivals.len(), 100);
        assert!(arrivals.iter().all(|a| a.sent == a.due));
        let rung = Rung::of(1_000, arrivals);
        assert!((rung.p50_ms - 0.4).abs() < 1e-9 && (rung.p99_ms - 0.4).abs() < 1e-9);
        assert_eq!(rung.lateness_p99_ms, 0.0);
        assert_eq!(rung.lateness_drift_ms, 0.0);
        assert!(rung.passes(5.0));
        assert!((rung.achieved_qps - 100.0 / 0.0994).abs() < 1.0);
    }

    #[test]
    fn a_slow_server_builds_lateness_that_counts_against_latency() {
        // One worker, 2 ms of service against arrivals every 1 ms: the
        // k-th request is sent at 2k ms, k ms late, and answered at
        // 2k + 2 ms, so its latency from the due instant is k + 2 ms.
        let arrivals = run(1_000, 100, Duration::from_millis(2));
        assert_eq!(arrivals.len(), 100);
        let a = arrivals[40];
        assert_eq!(
            (a.k, a.due, a.sent),
            (40, Duration::from_millis(40), Duration::from_millis(80))
        );
        assert_eq!(a.lateness_ms(), 40.0);
        assert_eq!(a.latency_ms(), 42.0);
        let rung = Rung::of(1_000, arrivals);
        assert_eq!(rung.lateness_p99_ms, 98.0);
        assert_eq!(rung.p99_ms, 100.0);
        // First quarter: lateness 0..24 (median 12); last: 75..99 (87).
        assert_eq!(rung.lateness_drift_ms, 75.0);
        assert!(
            !rung.passes(1_000.0),
            "a growing backlog fails whatever the limit"
        );
        assert!((rung.achieved_qps - 500.0).abs() < 1.0);
    }

    fn rung(rate: u64, p99_ms: f64, failed: usize, drift: f64) -> Rung {
        Rung {
            rate,
            requests: 1_000,
            failed,
            p50_ms: 1.0,
            p99_ms,
            lateness_p99_ms: 0.1,
            achieved_qps: rate as f64,
            lateness_drift_ms: drift,
        }
    }

    #[test]
    fn the_highest_passing_rung_wins() {
        let ok = [
            rung(500, 1.0, 0, 0.0),
            rung(1_000, 4.9, 0, 0.2),
            rung(2_500, 80.0, 0, 40.0),
        ];
        assert_eq!(max_ok_rate(&ok, 5.0), 1_000);
        // A rung above a failing one still counts on its own merits.
        let gap = [rung(500, 9.0, 0, 0.0), rung(1_000, 4.0, 0, 0.0)];
        assert_eq!(max_ok_rate(&gap, 5.0), 1_000);
        // Refusals, a missed limit or a growing backlog each fail a rung.
        assert_eq!(max_ok_rate(&[rung(500, 1.0, 1, 0.0)], 5.0), 0);
        assert_eq!(max_ok_rate(&[rung(500, 5.1, 0, 0.0)], 5.0), 0);
        assert_eq!(max_ok_rate(&[rung(500, 1.0, 0, 1.5)], 5.0), 0);
        assert_eq!(max_ok_rate(&[], 5.0), 0);
    }
}
