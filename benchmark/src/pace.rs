//! Open-loop pacing: requests are due on a fixed schedule whatever the
//! system does, and each is timed from when it was *due*, so a stall is
//! charged to every request it delayed and not only to the one in
//! flight.

use std::time::{Duration, Instant};

/// The time source, so the accounting can be tested on a fake one.
pub trait Clock {
    fn now_ns(&self) -> u64;
    /// Returns no earlier than `t_ns`.
    fn sleep_until(&self, t_ns: u64);
}

/// Wall time since construction.
#[derive(Debug, Clone, Copy)]
pub struct WallClock(Instant);

impl WallClock {
    pub fn start() -> WallClock {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn sleep_until(&self, t_ns: u64) {
        // Sleeping, not spinning: the box has two vCPUs and the server's
        // worker needs one of them.
        let now = self.now_ns();
        if t_ns > now {
            std::thread::sleep(Duration::from_nanos(t_ns - now));
        }
    }
}

/// A fixed-rate arrival schedule with absolute due times: a late send
/// never shifts the requests after it.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start_ns: u64,
    period_ns: f64,
}

impl Schedule {
    pub fn new(start_ns: u64, rate_per_s: f64) -> Schedule {
        Schedule {
            start_ns,
            period_ns: 1e9 / rate_per_s,
        }
    }

    /// When request `i` (from 0) is due.
    pub fn due_ns(&self, i: u64) -> u64 {
        self.start_ns + (i as f64 * self.period_ns).round() as u64
    }

    /// Waits until request `i` is due. Returns its due time and how late
    /// the generator was when it got to send.
    pub fn wait(&self, clock: &impl Clock, i: u64) -> (u64, u64) {
        let due = self.due_ns(i);
        clock.sleep_until(due);
        (due, clock.now_ns().saturating_sub(due))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to, and oversleeps by a fixed
    /// amount like a real timer does.
    struct FakeClock {
        now: Cell<u64>,
        oversleep: u64,
    }

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.now.get()
        }
        fn sleep_until(&self, t_ns: u64) {
            if t_ns > self.now.get() {
                self.now.set(t_ns + self.oversleep);
            }
        }
    }

    #[test]
    fn due_times_are_absolute() {
        let s = Schedule::new(1_000, 1_500.0);
        assert_eq!(s.due_ns(0), 1_000);
        assert_eq!(s.due_ns(3), 1_000 + 2_000_000);
        assert_eq!(s.due_ns(1_500), 1_000 + 1_000_000_000);
    }

    #[test]
    fn a_stall_is_charged_to_every_request_it_delays() {
        let clock = FakeClock {
            now: Cell::new(0),
            oversleep: 50,
        };
        let sched = Schedule::new(0, 1_000.0); // one per millisecond
        let service_ns = 100_000;
        let mut latencies = Vec::new();
        let mut lates = Vec::new();
        for i in 0..6u64 {
            let (due, late) = sched.wait(&clock, i);
            lates.push(late);
            // Request 2 hits a 2.5 ms stall inside a blocking submit.
            let stall = if i == 2 { 2_500_000 } else { 0 };
            clock.now.set(clock.now.get() + stall + service_ns);
            latencies.push(clock.now.get() - due);
        }
        // On time: the timer's oversleep plus the service.
        assert_eq!(latencies[1], 50 + service_ns);
        assert_eq!(lates[1], 50);
        // The stalled request itself.
        assert_eq!(latencies[2], 50 + 2_500_000 + service_ns);
        // Requests 3 and 4 were due at 3 ms and 4 ms but could only be
        // sent after the stall ended: no sleep, and the wait counts.
        assert_eq!(lates[3], (2_000_050 + 2_600_000) - 3_000_000);
        assert_eq!(latencies[3], lates[3] + service_ns);
        assert!(lates[4] > 0 && lates[4] < lates[3], "catching up");
        // Request 5 is due after the backlog cleared: back to normal.
        assert_eq!(lates[5], 50);
        assert_eq!(latencies[5], 50 + service_ns);
    }
}
