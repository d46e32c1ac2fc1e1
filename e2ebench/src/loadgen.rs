//! The open-loop load generator of the serving workload.
//!
//! Line `i` is due `i * interval` after the start, whatever happened to earlier lines: a
//! stalled call does not slow the schedule down, it only makes the lines behind it late.
//! Every latency is therefore measured from a line's *due* time, so the wait a stall
//! imposes on later lines is counted (no coordinated omission).  The generator's own
//! lateness — how far past its due time it started a line it was *not* backlogged on —
//! is reported separately.

use std::time::{Duration, Instant};

/// Time source and waiting strategy of the generator (a fake in tests).
pub trait Clock {
    /// Nanoseconds since an arbitrary fixed origin.
    fn now(&mut self) -> u64;
    /// Returns no earlier than `deadline` (same origin as [`now`](Self::now)).
    fn wait_until(&mut self, deadline: u64);
}

/// The wall clock: sleeps through long gaps and spins through the last stretch, since
/// a sleep overshoots by tens of microseconds and the schedule's gaps are ten.
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A clock whose origin is `origin`.
    pub fn new(origin: Instant) -> Self {
        WallClock { origin }
    }
}

/// Below this much remaining wait the wall clock spins instead of sleeping.
const SPIN_NS: u64 = 200_000;

impl Clock for WallClock {
    fn now(&mut self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn wait_until(&mut self, deadline: u64) {
        loop {
            let now = self.now();
            if now >= deadline {
                return;
            }
            let left = deadline - now;
            if left > SPIN_NS {
                std::thread::sleep(Duration::from_nanos(left - SPIN_NS / 2));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// Per-run generator statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoadStats {
    /// Calls made.
    pub calls: u64,
    /// Calls started after their due time because earlier calls ran long.
    pub backlogged: u64,
    /// The generator's own worst lateness in nanoseconds: over calls it was not
    /// backlogged on, how far past the due time the call started.
    pub late_max_ns: u64,
    /// Nanoseconds spent waiting for due times.
    pub wait_ns: u64,
}

/// Due time of call `index` of a schedule starting at `start`, one call per
/// `interval_ns`.
pub fn due(start: u64, interval_ns: f64, index: u64) -> u64 {
    start + (index as f64 * interval_ns) as u64
}

/// Drives `n` calls open-loop on the schedule of [`due`]: waits for each call's due
/// time when ahead of the schedule, never when behind it.  `call` receives the clock
/// and the call's due time.
pub fn drive<C: Clock>(
    clock: &mut C,
    start: u64,
    interval_ns: f64,
    n: u64,
    mut call: impl FnMut(&mut C, u64),
) -> LoadStats {
    let mut stats = LoadStats::default();
    for index in 0..n {
        let due = due(start, interval_ns, index);
        let now = clock.now();
        if now < due {
            clock.wait_until(due);
            let started = clock.now();
            stats.wait_ns += started - now;
            stats.late_max_ns = stats.late_max_ns.max(started - due);
        } else if now > due {
            stats.backlogged += 1;
        }
        call(clock, due);
        stats.calls += 1;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulated time: waiting jumps to the deadline, calls advance by their cost.
    struct FakeClock {
        t: u64,
    }

    impl Clock for FakeClock {
        fn now(&mut self) -> u64 {
            self.t
        }
        fn wait_until(&mut self, deadline: u64) {
            self.t = self.t.max(deadline);
        }
    }

    /// Latency of every call (completion minus due) when each call costs `cost` ns and
    /// call `stalled` additionally stalls for `stall` ns.
    fn latencies(n: u64, interval: u64, cost: u64, stalled: u64, stall: u64) -> Vec<u64> {
        let mut clock = FakeClock { t: 0 };
        let mut out = Vec::new();
        let stats = drive(&mut clock, 0, interval as f64, n, |clock, due| {
            let index = out.len() as u64;
            clock.t += cost + if index == stalled { stall } else { 0 };
            out.push(clock.t - due);
        });
        assert_eq!(stats.calls, n);
        assert_eq!(stats.late_max_ns, 0, "the fake clock wakes exactly on time");
        out
    }

    #[test]
    fn on_schedule_every_call_waits_only_for_itself() {
        let lat = latencies(50, 10_000, 1_000, u64::MAX, 0);
        assert!(lat.iter().all(|&l| l == 1_000));
    }

    #[test]
    fn one_stall_makes_later_calls_late_by_the_stall() {
        let (interval, cost, stall) = (10_000u64, 1_000u64, 1_000_000u64);
        let lat = latencies(400, interval, cost, 100, stall);
        // Before the stall: only the call's own cost.
        assert!(lat[..100].iter().all(|&l| l == cost));
        // The stalled call itself.
        assert_eq!(lat[100], cost + stall);
        // Call 101 was due one interval into the stall and starts when it ends: it is
        // late by the stall minus that interval, and each later call by one interval
        // less (minus the backlog work done since), until the backlog drains.
        assert_eq!(lat[101], stall + 2 * cost - interval);
        for i in 102..160 {
            assert_eq!(lat[i], lat[i - 1] - (interval - cost), "call {i}");
        }
        // Drained: the schedule resumes as if nothing happened.
        assert!(lat[300..].iter().all(|&l| l == cost));
        // Work the stall pushed back: the delay sums to ~stall^2 / (2 * interval).
        let extra: u64 = lat.iter().map(|&l| l - cost).sum();
        assert!(extra > stall * stall / (2 * interval) - stall);
    }

    #[test]
    fn backlogged_calls_do_not_wait() {
        let mut clock = FakeClock { t: 0 };
        // Every call costs twice the interval: from the second call on, always behind.
        let stats = drive(&mut clock, 0, 1_000.0, 10, |clock, _| clock.t += 2_000);
        assert_eq!(stats.backlogged, 9);
        assert_eq!(stats.wait_ns, 0);
        assert_eq!(clock.t, 20_000);
    }
}
