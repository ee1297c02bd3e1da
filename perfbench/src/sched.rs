//! Open-loop request schedules.
//!
//! An open loop sends request `i` at its *due* time `start + i / rate`
//! whether or not earlier requests have finished; a client that is
//! behind sends at once. Latency is timed from the due time, so a stall
//! is charged to every request queued behind it, not only to the one
//! that stalled (coordinated omission; Gil Tene, "How NOT to Measure
//! Latency"). How late the generator itself ran is kept apart as `lag`.

use std::time::{Duration, Instant};

/// A monotonic nanosecond clock the schedule can wait on.
pub trait Clock {
    /// Nanoseconds since the clock's origin.
    fn now_ns(&self) -> u64;
    /// Returns no earlier than `t_ns`.
    fn wait_until(&mut self, t_ns: u64);
}

/// The real clock. Waits sleep until shortly before the due time and
/// spin the rest, so the wake-up jitter of `sleep` does not land in the
/// measured latencies.
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    origin: Instant,
}

/// Below this much remaining wait the clock spins instead of sleeping.
const SPIN_NS: u64 = 100_000;

impl WallClock {
    /// A clock whose zero is `origin`.
    pub fn new(origin: Instant) -> Self {
        Self { origin }
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn wait_until(&mut self, t_ns: u64) {
        let now = self.now_ns();
        if t_ns > now + SPIN_NS {
            std::thread::sleep(Duration::from_nanos(t_ns - now - SPIN_NS));
        }
        while self.now_ns() < t_ns {
            std::hint::spin_loop();
        }
    }
}

/// Request `i` is due at `start_ns + i * 1e9 / rate`.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoop {
    start_ns: u64,
    interval_ns: f64,
}

impl OpenLoop {
    /// A schedule of `rate` requests per second starting at `start_ns`.
    pub fn new(start_ns: u64, rate: f64) -> Self {
        assert!(rate > 0.0, "an open loop needs a positive rate");
        Self {
            start_ns,
            interval_ns: 1e9 / rate,
        }
    }

    /// When request `i` is due.
    pub fn due_ns(&self, i: u64) -> u64 {
        self.start_ns + (i as f64 * self.interval_ns) as u64
    }

    /// How many requests are due at or before `t_ns`.
    pub fn due_by(&self, t_ns: u64) -> u64 {
        if t_ns < self.start_ns {
            return 0;
        }
        ((t_ns - self.start_ns) as f64 / self.interval_ns).floor() as u64 + 1
    }
}

/// One request's timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Index in the schedule.
    pub index: u64,
    /// When it was due.
    pub due_ns: u64,
    /// When it was actually sent.
    pub sent_ns: u64,
    /// When its answer arrived.
    pub done_ns: u64,
    /// Requests due but unanswered when it was sent, itself included.
    pub backlog: u64,
    /// Whether the answer was correct.
    pub ok: bool,
}

impl Sample {
    /// Latency as users see it: from the due time to the answer.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns - self.due_ns
    }

    /// How late the generator sent it.
    pub fn lag_ns(&self) -> u64 {
        self.sent_ns - self.due_ns
    }

    /// Time from send to answer (what a closed loop would record).
    #[cfg(test)]
    pub fn service_ns(&self) -> u64 {
        self.done_ns - self.sent_ns
    }
}

/// Drives one connection through `sched` until the next due time
/// reaches `end_ns`. `op(i, clock)` performs request `i`; `check` then
/// judges its answer outside the timed interval. Requests on one
/// connection are sequential, so a slow answer delays the requests
/// behind it.
pub fn run<C: Clock, T>(
    clock: &mut C,
    sched: &OpenLoop,
    end_ns: u64,
    op: impl FnMut(u64, &mut C) -> T,
    check: impl FnMut(T) -> bool,
) -> Vec<Sample> {
    run_warm(clock, sched, end_ns, |_| {}, op, check)
}

/// How long before a request's due time [`run_warm`] warms up.
pub const WARM_LEAD_NS: u64 = 20_000;

/// [`run`], with `warm(i)` called [`WARM_LEAD_NS`] before request `i`
/// is due, untimed, whenever the generator is on time. A client that
/// idles milliseconds between requests otherwise starts each one with
/// cold caches, and how cold depends on what else the host ran in the
/// meantime rather than on the code under test.
pub fn run_warm<C: Clock, T>(
    clock: &mut C,
    sched: &OpenLoop,
    end_ns: u64,
    mut warm: impl FnMut(u64),
    mut op: impl FnMut(u64, &mut C) -> T,
    mut check: impl FnMut(T) -> bool,
) -> Vec<Sample> {
    let mut out = Vec::new();
    let mut i = 0u64;
    loop {
        let due_ns = sched.due_ns(i);
        if due_ns >= end_ns {
            return out;
        }
        let lead_ns = due_ns.saturating_sub(WARM_LEAD_NS);
        if clock.now_ns() < lead_ns {
            clock.wait_until(lead_ns);
            warm(i);
        }
        clock.wait_until(due_ns);
        let sent_ns = clock.now_ns();
        let backlog = sched.due_by(sent_ns).saturating_sub(i).max(1);
        let answer = op(i, clock);
        let done_ns = clock.now_ns();
        let ok = check(answer);
        out.push(Sample {
            index: i,
            due_ns,
            sent_ns,
            done_ns,
            backlog,
            ok,
        });
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock that only moves when told to: waits jump forward, and a
    /// simulated request advances it by its service time.
    struct ManualClock {
        now: u64,
    }

    impl Clock for ManualClock {
        fn now_ns(&self) -> u64 {
            self.now
        }

        fn wait_until(&mut self, t_ns: u64) {
            self.now = self.now.max(t_ns);
        }
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn due_times_follow_the_rate() {
        let s = OpenLoop::new(5, 1000.0);
        assert_eq!(s.due_ns(0), 5);
        assert_eq!(s.due_ns(3), 5 + 3 * MS);
        assert_eq!(s.due_by(4), 0);
        assert_eq!(s.due_by(5), 1);
        assert_eq!(s.due_by(5 + 3 * MS), 4);
    }

    #[test]
    fn an_idle_server_sees_no_lag_and_no_backlog() {
        let mut clock = ManualClock { now: 0 };
        let sched = OpenLoop::new(0, 1000.0);
        let samples = run(
            &mut clock,
            &sched,
            100 * MS,
            |_, c| c.now += MS / 10,
            |()| true,
        );
        assert_eq!(samples.len(), 100);
        assert!(samples.iter().all(|s| s.lag_ns() == 0 && s.backlog == 1));
        assert!(samples.iter().all(|s| s.latency_ns() == MS / 10));
    }

    #[test]
    fn warm_up_runs_untimed_and_only_when_on_time() {
        // 1 ms schedule; request 3 stalls 5 ms, so 4..=8 are sent late.
        let mut clock = ManualClock { now: 0 };
        let sched = OpenLoop::new(MS, 1000.0);
        let mut warmed = Vec::new();
        let samples = run_warm(
            &mut clock,
            &sched,
            21 * MS,
            |i| warmed.push(i),
            |i, c| c.now += if i == 3 { 5 * MS } else { MS / 10 },
            |()| true,
        );
        assert_eq!(samples.len(), 20);
        let late: Vec<u64> = samples
            .iter()
            .filter(|s| s.lag_ns() > 0)
            .map(|s| s.index)
            .collect();
        assert_eq!(late, vec![4, 5, 6, 7, 8]);
        let expected: Vec<u64> = (0..20).filter(|i| !late.contains(i)).collect();
        assert_eq!(warmed, expected);
        // Warming took no clock time from the requests.
        assert_eq!(samples[0].latency_ns(), MS / 10);
    }

    #[test]
    fn one_stall_inflates_the_requests_queued_behind_it() {
        // 1 ms schedule, 0.1 ms service, one 50 ms stall at request 10.
        let mut clock = ManualClock { now: 0 };
        let sched = OpenLoop::new(0, 1000.0);
        let samples = run(
            &mut clock,
            &sched,
            200 * MS,
            |i, c| c.now += if i == 10 { 50 * MS } else { MS / 10 },
            |()| true,
        );
        let slow = |v: u64| v > 10 * MS;
        // A closed loop, timing from send, sees a single slow request...
        assert_eq!(samples.iter().filter(|s| slow(s.service_ns())).count(), 1);
        // ...but ~40 requests were due while it stalled and waited too.
        let inflated = samples.iter().filter(|s| slow(s.latency_ns())).count();
        assert!(inflated >= 35, "only {inflated} requests carried the stall");
        // The wait shows as generator lag and as a backlog.
        assert!(samples[11].lag_ns() > 40 * MS);
        assert!(samples.iter().map(|s| s.backlog).max().unwrap_or(0) >= 40);
        // Once the queue drains the schedule is back on time.
        assert_eq!(samples.last().map(|s| s.lag_ns()), Some(0));
    }
}
