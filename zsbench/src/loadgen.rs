//! Load generation: a closed loop for capacity and an open loop for
//! latency at a fixed rate, both over an abstract [`Target`] so the
//! scheduler can be tested against a fake server.
//!
//! *Closed loop* — each generator keeps a fixed number of requests in
//! flight and sends the next one only when the oldest is answered, so a
//! slower system is offered less load: it measures capacity.
//!
//! *Open loop* — requests are due on a fixed schedule whatever the system
//! does.  Each one is timed from when it was **due**, not from when it was
//! sent, so a stall that delays later sends is charged to those requests
//! (no coordinated omission), and how late the generator ran is reported
//! beside the latencies.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What waiting for one request yields.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Reply {
    /// Operations the request carried (1, or the plans of a batch).
    pub ops: u64,
    /// Operations that failed: errors, rejections, wrong answers.
    pub failed: u64,
    /// Operations answered from the server's feature cache.
    pub cache_hits: u64,
    /// Operations executed by another shard than their home.
    pub stolen: u64,
    /// Server-side latency of the request, where the reply carries it.
    pub server_ns: Option<u64>,
}

impl Reply {
    /// A request none of whose `ops` operations was answered.
    pub fn all_failed(ops: u64) -> Self {
        Reply {
            ops,
            failed: ops,
            ..Reply::default()
        }
    }
}

/// An admitted request that can be waited for on another thread.
pub trait Pending: Send {
    /// Block until the request is answered (or has failed).
    fn wait(self) -> Reply;
}

/// One generator's handle on the system under load.  Request `seq` picks
/// its input deterministically, so the same sequence replays the same
/// stream.
pub trait Target {
    /// Ticket of an admitted request.
    type Pending: Pending;
    /// Operations one request carries.
    fn ops_per_request(&self) -> u64;
    /// Admit request `seq`, waiting for room if the system is full.
    fn send(&mut self, seq: u64) -> Result<Self::Pending, ()>;
    /// Admit request `seq` only if there is room now; a shed request is a
    /// failure, not a stall.
    fn try_send(&mut self, seq: u64) -> Result<Self::Pending, ()>;
}

/// Totals of one closed-loop window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClosedLoopReport {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Wall time from the first send to the last answer.
    pub elapsed: Duration,
}

impl ClosedLoopReport {
    /// Successful operations per second of the window.
    pub fn throughput_ops_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Keep `in_flight` requests outstanding for `duration`, then drain.
pub fn closed_loop_one<T: Target>(
    target: &mut T,
    in_flight: usize,
    duration: Duration,
    first_seq: u64,
) -> ClosedLoopReport {
    let ops = target.ops_per_request();
    let mut report = ClosedLoopReport::default();
    let mut window: VecDeque<T::Pending> = VecDeque::with_capacity(in_flight);
    let mut seq = first_seq;
    let started = Instant::now();
    let settle = |pending: T::Pending, report: &mut ClosedLoopReport| {
        report.failed += pending.wait().failed;
    };
    while started.elapsed() < duration {
        while window.len() < in_flight {
            report.attempted += ops;
            match target.send(seq) {
                Ok(pending) => window.push_back(pending),
                Err(()) => report.failed += ops,
            }
            seq += 1;
        }
        if let Some(oldest) = window.pop_front() {
            settle(oldest, &mut report);
        }
    }
    for pending in window {
        settle(pending, &mut report);
    }
    report.elapsed = started.elapsed();
    report
}

/// Run one closed loop per target on its own thread and add them up.
pub fn closed_loop<T: Target + Send>(
    targets: &mut [T],
    in_flight: usize,
    duration: Duration,
) -> ClosedLoopReport {
    let reports: Vec<ClosedLoopReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = targets
            .iter_mut()
            .enumerate()
            .map(|(g, target)| {
                // Generators replay disjoint slices of the stream.
                let first_seq = (g as u64) << 40;
                scope.spawn(move || closed_loop_one(target, in_flight, duration, first_seq))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop generator panicked"))
            .collect()
    });
    let mut total = ClosedLoopReport::default();
    for r in reports {
        total.attempted += r.attempted;
        total.failed += r.failed;
        total.elapsed = total.elapsed.max(r.elapsed);
    }
    total
}

/// Everything one open-loop window observed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpenLoopReport {
    /// Requests that were due in the window (all are sent, however late).
    pub requests: u64,
    /// Operations attempted (`requests × ops_per_request`).
    pub attempted: u64,
    /// Operations failed (shed at admission, errors, wrong answers).
    pub failed: u64,
    /// Latency of every answered request, ns, from its **due** time.
    pub latency_ns: Vec<f64>,
    /// How late each request was sent, ns after its due time.
    pub lag_ns: Vec<f64>,
    /// Requests admitted but not yet answered when the window closed.
    pub backlog_end: u64,
    /// Length of the schedule.
    pub duration: Duration,
    /// Sums of the replies' diagnostic fields.
    pub cache_hits: u64,
    /// See [`Reply::stolen`].
    pub stolen: u64,
    /// Server-side latencies, ns, where replies carry them.
    pub server_ns: Vec<f64>,
}

impl OpenLoopReport {
    /// Operations per second the schedule offered.
    pub fn offered_ops_s(&self) -> f64 {
        self.attempted as f64 / self.duration.as_secs_f64().max(1e-9)
    }

    /// Fold another generator's (or window's) observations into this one.
    pub fn merge(&mut self, other: OpenLoopReport) {
        self.requests += other.requests;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latency_ns.extend(other.latency_ns);
        self.lag_ns.extend(other.lag_ns);
        self.backlog_end += other.backlog_end;
        self.duration = self.duration.max(other.duration);
        self.cache_hits += other.cache_hits;
        self.stolen += other.stolen;
        self.server_ns.extend(other.server_ns);
    }
}

/// Wait for `deadline`, yielding so that on a small box the collector and
/// the system under load can use the core between sends, and return the
/// time it was reached.  (Sleeping instead lets the cores idle, and every
/// thread hop of a request then pays a wake-up: the wire p50 rose from
/// 0.2 ms to 0.3 ms.)
fn wait_until(deadline: Instant) -> Instant {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return now;
        }
        std::thread::yield_now();
    }
}

/// Send `rate_per_s` requests per second for `duration` on a fixed
/// schedule starting at `start`; a collector thread waits for the
/// answers in send order and times each from its due time.
pub fn open_loop_one<T: Target>(
    target: &mut T,
    rate_per_s: f64,
    duration: Duration,
    start: Instant,
    first_seq: u64,
) -> OpenLoopReport {
    let ops = target.ops_per_request();
    let period_ns = 1e9 / rate_per_s;
    let total = (duration.as_secs_f64() * rate_per_s).floor() as u64;
    let answered = AtomicU64::new(0);
    let mut report = OpenLoopReport {
        duration,
        lag_ns: Vec::with_capacity(total as usize),
        ..OpenLoopReport::default()
    };

    let collected: OpenLoopReport = std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(Instant, T::Pending)>();
        let answered = &answered;
        let collector = scope.spawn(move || {
            let mut seen = OpenLoopReport::default();
            for (due, pending) in rx {
                let reply = pending.wait();
                seen.latency_ns.push(due.elapsed().as_nanos() as f64);
                answered.fetch_add(1, Ordering::Relaxed);
                seen.failed += reply.failed;
                seen.cache_hits += reply.cache_hits;
                seen.stolen += reply.stolen;
                if let Some(ns) = reply.server_ns {
                    seen.server_ns.push(ns as f64);
                }
            }
            seen
        });

        let mut admitted = 0u64;
        for k in 0..total {
            let due = start + Duration::from_nanos((k as f64 * period_ns) as u64);
            let now = wait_until(due);
            report.lag_ns.push((now - due).as_nanos() as f64);
            report.requests += 1;
            report.attempted += ops;
            match target.try_send(first_seq + k) {
                Ok(pending) => {
                    admitted += 1;
                    tx.send((due, pending))
                        .expect("collector outlives the generator");
                }
                Err(()) => report.failed += ops,
            }
        }
        // The window closes with the schedule; what is still in flight
        // now is backlog the system has not kept up with.
        wait_until(start + duration);
        report.backlog_end = admitted - answered.load(Ordering::Relaxed);
        drop(tx);
        collector.join().expect("open-loop collector panicked")
    });

    report.failed += collected.failed;
    report.latency_ns = collected.latency_ns;
    report.cache_hits = collected.cache_hits;
    report.stolen = collected.stolen;
    report.server_ns = collected.server_ns;
    report
}

/// Split `rate_per_s` evenly over the targets, one generator thread (and
/// its collector) each, schedules interleaved.
pub fn open_loop<T: Target + Send>(
    targets: &mut [T],
    rate_per_s: f64,
    duration: Duration,
) -> OpenLoopReport {
    let generators = targets.len() as f64;
    let start = Instant::now() + Duration::from_millis(2);
    let reports: Vec<OpenLoopReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = targets
            .iter_mut()
            .enumerate()
            .map(|(g, target)| {
                let offset = Duration::from_secs_f64(g as f64 / rate_per_s);
                let first_seq = (g as u64) << 40;
                scope.spawn(move || {
                    open_loop_one(
                        target,
                        rate_per_s / generators,
                        duration,
                        start + offset,
                        first_seq,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop generator panicked"))
            .collect()
    });
    let mut total = OpenLoopReport::default();
    for r in reports {
        total.merge(r);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentile;

    /// A fake server: answers at once, except that admitting request
    /// `stall_at` blocks the caller for `stall`.
    struct Fake {
        stall_at: u64,
        stall: Duration,
        shed_every: u64,
    }

    struct Done;

    impl Pending for Done {
        fn wait(self) -> Reply {
            Reply {
                ops: 1,
                ..Reply::default()
            }
        }
    }

    impl Target for Fake {
        type Pending = Done;

        fn ops_per_request(&self) -> u64 {
            1
        }

        fn send(&mut self, seq: u64) -> Result<Done, ()> {
            self.try_send(seq)
        }

        fn try_send(&mut self, seq: u64) -> Result<Done, ()> {
            if seq == self.stall_at {
                std::thread::sleep(self.stall);
            }
            if self.shed_every > 0 && seq % self.shed_every == self.shed_every - 1 {
                return Err(());
            }
            Ok(Done)
        }
    }

    #[test]
    fn open_loop_times_from_due_so_a_stall_is_charged_to_the_requests_behind_it() {
        let stall = Duration::from_millis(50);
        let mut fake = Fake {
            stall_at: 100,
            stall,
            shed_every: 0,
        };
        // 1000 req/s for 0.4 s: the stall at request 100 covers the due
        // times of requests 100..150.
        let report = open_loop_one(
            &mut fake,
            1_000.0,
            Duration::from_millis(400),
            Instant::now(),
            0,
        );
        assert_eq!(report.requests, 400);
        assert_eq!(report.latency_ns.len(), 400);
        assert_eq!(report.failed, 0);

        // Timed from send, every latency would be ~0.  Timed from due,
        // request 101 (due 1 ms into the stall) waited ~49 ms, and the
        // requests due during the stall waited 25 ms on average.
        let stalled = &report.latency_ns[101..150];
        assert!(stalled[0] >= 45e6, "request 101 waited {} ns", stalled[0]);
        let mean = stalled.iter().sum::<f64>() / stalled.len() as f64;
        assert!(mean >= 20e6, "mean wait of stalled requests {mean} ns");
        // Before the stall nothing waited anywhere near that long.
        assert!(percentile(&report.latency_ns[..100], 50.0) < 10e6);

        let lag_max_ms = report.lag_ns.iter().copied().fold(0.0, f64::max) / 1e6;
        assert!(
            (45.0..200.0).contains(&lag_max_ms),
            "lag_max_ms {lag_max_ms} must report the 50 ms stall"
        );
        assert_eq!(report.backlog_end, 0);
        assert!((report.offered_ops_s() - 1_000.0).abs() < 1.0);
    }

    #[test]
    fn shed_requests_count_as_failed_in_both_loops() {
        let mut fake = Fake {
            stall_at: u64::MAX,
            stall: Duration::ZERO,
            shed_every: 10,
        };
        let open = open_loop_one(
            &mut fake,
            2_000.0,
            Duration::from_millis(100),
            Instant::now(),
            0,
        );
        assert_eq!(open.attempted, 200);
        assert_eq!(open.failed, 20);
        assert_eq!(open.latency_ns.len(), 180);

        let closed = closed_loop_one(&mut fake, 8, Duration::from_millis(20), 0);
        assert!(closed.attempted >= 10);
        assert_eq!(closed.failed, closed.attempted / 10);
        assert!(closed.throughput_ops_s() > 0.0);
    }

    #[test]
    fn generators_split_the_rate() {
        let mut fakes = vec![
            Fake {
                stall_at: u64::MAX,
                stall: Duration::ZERO,
                shed_every: 0,
            },
            Fake {
                stall_at: u64::MAX,
                stall: Duration::ZERO,
                shed_every: 0,
            },
        ];
        let report = open_loop(&mut fakes, 1_000.0, Duration::from_millis(100));
        assert_eq!(report.requests, 100);
        let closed = closed_loop(&mut fakes, 4, Duration::from_millis(10));
        assert_eq!(closed.failed, 0);
    }
}
