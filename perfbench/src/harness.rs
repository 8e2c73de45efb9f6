//! The closed-loop runner: each client issues its next op only after the
//! previous one returned, for a fixed wall-clock duration.

use crate::stats::{median, percentile};
use std::time::{Duration, Instant};

/// Windows the timed phase is split into; throughput is the median window
/// rate, so one descheduled stretch moves one window, not the figure.
pub const WINDOWS: usize = 10;

/// One client of a closed loop.
pub trait Client: Send {
    /// Runs op number `i` of this client. Only this call is timed.
    fn op(&mut self, i: u64);

    /// Called after each op with its client-side timestamps, outside the
    /// op's latency: result checks, trace bookkeeping and preparing the
    /// next input happen here.
    fn after(&mut self, _i: u64, _start: Instant, _end: Instant) {}
}

/// What one timed phase measured.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Ops completed.
    pub ops: u64,
    /// Ops completed per window.
    pub window_ops: Vec<u64>,
    /// Window length in seconds.
    pub window_s: f64,
    /// Per-op latency samples in nanoseconds, ascending.
    pub latencies_ns: Vec<f64>,
}

impl Phase {
    /// Median over windows of completed ops per second.
    pub fn throughput_ops_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .window_ops
            .iter()
            .map(|&n| n as f64 / self.window_s)
            .collect();
        median(&rates)
    }

    /// Latency percentile in microseconds (`None` below the sample rule).
    pub fn latency_us(&self, p: f64) -> Option<f64> {
        percentile(&self.latencies_ns, p).map(|ns| ns / 1e3)
    }
}

/// Runs `clients` concurrently (one thread each) for `seconds`, recording
/// the latency of every `stride`-th op of each client. Returns the phase
/// measurements and the clients, which hold the per-op results.
pub fn closed_loop<C: Client>(clients: Vec<C>, seconds: f64, stride: u64) -> (Phase, Vec<C>) {
    let stride = stride.max(1);
    let window = Duration::from_secs_f64(seconds / WINDOWS as f64);
    let start = Instant::now();
    let deadline = start + window * WINDOWS as u32;
    let results: Vec<(C, Vec<u64>, Vec<f64>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                scope.spawn(move || {
                    let mut windows = vec![0u64; WINDOWS];
                    let mut samples = Vec::new();
                    let mut i = 0u64;
                    loop {
                        let t0 = Instant::now();
                        if t0 >= deadline {
                            break;
                        }
                        client.op(i);
                        let t1 = Instant::now();
                        if i.is_multiple_of(stride) {
                            samples.push(t1.duration_since(t0).as_nanos() as f64);
                        }
                        let w = (t1.duration_since(start).as_nanos() / window.as_nanos()) as usize;
                        if let Some(slot) = windows.get_mut(w) {
                            *slot += 1;
                        }
                        client.after(i, t0, t1);
                        i += 1;
                    }
                    (client, windows, samples, i)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark client panicked"))
            .collect()
    });
    let mut phase = Phase {
        window_ops: vec![0; WINDOWS],
        window_s: window.as_secs_f64(),
        ..Phase::default()
    };
    let mut clients = Vec::with_capacity(results.len());
    for (client, windows, samples, ops) in results {
        for (total, n) in phase.window_ops.iter_mut().zip(windows) {
            *total += n;
        }
        phase.latencies_ns.extend(samples);
        phase.ops += ops;
        clients.push(client);
    }
    phase.latencies_ns.sort_by(f64::total_cmp);
    (phase, clients)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sleeper {
        ops: u64,
        after: u64,
    }

    impl Client for Sleeper {
        fn op(&mut self, _i: u64) {
            std::thread::sleep(Duration::from_micros(200));
            self.ops += 1;
        }
        fn after(&mut self, _i: u64, start: Instant, end: Instant) {
            assert!(end > start);
            self.after += 1;
        }
    }

    #[test]
    fn loop_counts_every_op_and_samples_by_stride() {
        let clients = vec![Sleeper { ops: 0, after: 0 }, Sleeper { ops: 0, after: 0 }];
        let (phase, clients) = closed_loop(clients, 0.2, 2);
        let ops: u64 = clients.iter().map(|c| c.ops).sum();
        assert_eq!(ops, phase.ops);
        assert!(clients.iter().all(|c| c.after == c.ops));
        let per_client: Vec<u64> = clients.iter().map(|c| c.ops.div_ceil(2)).collect();
        assert_eq!(
            phase.latencies_ns.len() as u64,
            per_client.iter().sum::<u64>()
        );
        assert!(phase.window_ops.iter().sum::<u64>() <= phase.ops);
        assert!(phase.throughput_ops_s() > 0.0);
        assert!(phase.latencies_ns.windows(2).all(|w| w[0] <= w[1]));
    }
}
