//! Per-request latency accounting and server-level aggregates.

use crate::plan::CacheStats;
use crate::sched::TenantSnapshot;
use eyeriss_telemetry::HistogramSnapshot;
use std::time::Duration;

/// Where one request's latency went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Submission to batch dispatch (queueing + batch formation wait).
    pub queue: Duration,
    /// Plan-search time charged to this request's batch (zero on full
    /// plan-cache hits).
    pub compile: Duration,
    /// Cluster execution time of the batch (shared by its members).
    pub execute: Duration,
}

impl LatencyBreakdown {
    /// End-to-end latency.
    pub fn total(&self) -> Duration {
        self.queue + self.compile + self.execute
    }
}

/// One completed request, as recorded by the worker that executed it.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// Request id (submission order).
    pub id: u64,
    /// Size of the batch this request rode in.
    pub batch_size: usize,
    /// Latency breakdown.
    pub latency: LatencyBreakdown,
    /// Simulated cluster cycles of the batch (all stages).
    pub sim_cycles: u64,
}

/// Nearest-rank percentile of `samples` (`q` in `[0, 1]`), `ZERO` when
/// empty. Sorts a copy; fine for end-of-run reporting.
pub fn percentile(samples: &[Duration], q: f64) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted_percentile(&sorted, q)
}

/// Nearest-rank percentile of an already-sorted slice (`ZERO` when
/// empty) — the shared kernel of [`percentile`] and
/// [`ServerStats::latency_summary`], so multi-quantile aggregation
/// sorts exactly once.
fn sorted_percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Mean / p50 / p99 of end-to-end latency, computed from **one** totals
/// vector and **one** sort — ask for this instead of calling
/// [`ServerStats::p50`], [`ServerStats::p99`] and
/// [`ServerStats::mean_latency`] separately (each of those builds and
/// sorts its own copy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Requests aggregated.
    pub count: usize,
    /// Mean end-to-end latency.
    pub mean: Duration,
    /// Median end-to-end latency.
    pub p50: Duration,
    /// 99th-percentile end-to-end latency.
    pub p99: Duration,
}

/// Everything a server measured over its lifetime, returned by
/// [`crate::Server::shutdown`].
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// One record per completed request.
    pub records: Vec<RequestRecord>,
    /// Wall-clock time from server start to shutdown.
    pub elapsed: Duration,
    /// Plan-cache hit/miss counters.
    pub cache: CacheStats,
}

impl ServerStats {
    /// Completed request count.
    pub fn completed(&self) -> usize {
        self.records.len()
    }

    /// Completed requests per second of server lifetime.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.completed() as f64 / secs
        }
    }

    fn totals(&self) -> Vec<Duration> {
        self.records.iter().map(|r| r.latency.total()).collect()
    }

    /// Mean, p50 and p99 end-to-end latency from a single totals build
    /// and sort. `records` is public and may have been filtered by the
    /// caller, so nothing is cached — one call aggregates the records
    /// as they are now.
    pub fn latency_summary(&self) -> LatencySummary {
        let mut totals = self.totals();
        totals.sort_unstable();
        let count = totals.len();
        if count == 0 {
            return LatencySummary::default();
        }
        LatencySummary {
            count,
            mean: totals.iter().sum::<Duration>() / count as u32,
            p50: sorted_percentile(&totals, 0.50),
            p99: sorted_percentile(&totals, 0.99),
        }
    }

    /// Median end-to-end latency (one statistic; for several, use
    /// [`ServerStats::latency_summary`]).
    pub fn p50(&self) -> Duration {
        self.latency_summary().p50
    }

    /// 99th-percentile end-to-end latency (one statistic; for several,
    /// use [`ServerStats::latency_summary`]).
    pub fn p99(&self) -> Duration {
        self.latency_summary().p99
    }

    /// Mean end-to-end latency (one statistic; for several, use
    /// [`ServerStats::latency_summary`]).
    pub fn mean_latency(&self) -> Duration {
        self.latency_summary().mean
    }

    /// Mean time spent queued (batch-formation wait included).
    pub fn mean_queue(&self) -> Duration {
        if self.records.is_empty() {
            return Duration::ZERO;
        }
        self.records
            .iter()
            .map(|r| r.latency.queue)
            .sum::<Duration>()
            / self.records.len() as u32
    }

    /// Largest batch any request rode in.
    pub fn max_batch(&self) -> usize {
        self.records.iter().map(|r| r.batch_size).max().unwrap_or(0)
    }

    /// Mean batch size over completed requests.
    pub fn mean_batch(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.batch_size).sum::<usize>() as f64 / self.records.len() as f64
    }
}

/// A live, point-in-time view of a running [`crate::Server`] from
/// [`crate::Server::snapshot`] — available **while the server runs**,
/// unlike [`ServerStats`], which exists only after
/// [`crate::Server::shutdown`].
///
/// Latency statistics come from the server's streaming log-bucketed
/// histograms, so [`ServerSnapshot::p50`] / [`ServerSnapshot::p99`] are
/// estimates within [`eyeriss_telemetry::RELATIVE_ERROR`] of the exact
/// nearest-rank percentiles over the same requests (values below
/// [`eyeriss_telemetry::EXACT_BELOW`] nanoseconds are exact).
#[derive(Debug, Clone, Default)]
pub struct ServerSnapshot {
    /// Wall-clock time since the server started.
    pub elapsed: Duration,
    /// Requests completed so far.
    pub completed: u64,
    /// Requests rejected at admission or evicted from a full queue.
    pub shed: u64,
    /// Requests currently waiting in the ready queue (or in a `submit`
    /// waiting for room, or picked up by the batcher but not yet
    /// dispatched).
    pub queue_depth: i64,
    /// Batches currently executing on workers.
    pub inflight_batches: i64,
    /// Workers the server was configured with.
    pub workers: usize,
    /// Workers currently alive (configured minus retired; a worker
    /// retires when every array in its cluster is quarantined).
    pub live_workers: i64,
    /// Workers restarted by the supervisor after a panic.
    pub worker_restarts: u64,
    /// Requests re-queued after a detected transient fault (each retry
    /// of an n-request batch counts n).
    pub retries: u64,
    /// Admitted requests that failed in execution — worker death or an
    /// exhausted retry budget. Their clients got a typed
    /// [`ServeError`](crate::ServeError), never a hang.
    pub failed: u64,
    /// Arrays quarantined across the worker pool after persistent
    /// faults.
    pub quarantined_arrays: u64,
    /// Faults the configured [`FaultPlan`](crate::FaultPlan) has
    /// injected so far (zero unless fault injection is enabled).
    pub faults_injected: u64,
    /// Injected compute corruptions the ABFT checksums caught.
    pub faults_detected: u64,
    /// Plan-cache hit/miss counters.
    pub cache: CacheStats,
    /// Streaming queue-stage latency (nanoseconds per request).
    pub queue_ns: HistogramSnapshot,
    /// Streaming compile-stage latency (nanoseconds per request).
    pub compile_ns: HistogramSnapshot,
    /// Streaming execute-stage latency (nanoseconds per request).
    pub execute_ns: HistogramSnapshot,
    /// Streaming end-to-end latency (nanoseconds per request).
    pub total_ns: HistogramSnapshot,
    /// Batch sizes of completed requests.
    pub batch_size: HistogramSnapshot,
    /// Absolute plan-prediction error per request, in simulated cycles
    /// (`|measured − analytic_delay|`; populated only while telemetry
    /// is enabled — attribution is skipped otherwise).
    pub delay_residual: HistogramSnapshot,
    /// Per-tenant counters, in tenant-id order, starting with the
    /// always-present `"default"` tenant.
    pub tenants: Vec<TenantSnapshot>,
}

impl ServerSnapshot {
    fn quantile(&self, q: f64) -> Duration {
        Duration::from_nanos(self.total_ns.quantile(q).unwrap_or(0))
    }

    /// Streaming estimate of the median end-to-end latency so far.
    pub fn p50(&self) -> Duration {
        self.quantile(0.50)
    }

    /// Streaming estimate of the 99th-percentile end-to-end latency so
    /// far.
    pub fn p99(&self) -> Duration {
        self.quantile(0.99)
    }

    /// Mean end-to-end latency so far.
    pub fn mean_latency(&self) -> Duration {
        Duration::from_nanos(self.total_ns.mean() as u64)
    }

    /// Completed requests per second of server lifetime so far.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }

    /// Mean batch size over completed requests so far.
    pub fn mean_batch(&self) -> f64 {
        self.batch_size.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn record(id: u64, queue_ms: u64, batch: usize) -> RequestRecord {
        RequestRecord {
            id,
            batch_size: batch,
            latency: LatencyBreakdown {
                queue: ms(queue_ms),
                compile: ms(1),
                execute: ms(2),
            },
            sim_cycles: 100,
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let samples: Vec<Duration> = (1..=100).map(ms).collect();
        assert_eq!(percentile(&samples, 0.50), ms(50));
        assert_eq!(percentile(&samples, 0.99), ms(99));
        assert_eq!(percentile(&samples, 1.0), ms(100));
        assert_eq!(percentile(&samples, 0.0), ms(1));
        assert_eq!(percentile(&[], 0.5), Duration::ZERO);
        assert_eq!(percentile(&[ms(7)], 0.99), ms(7));
    }

    #[test]
    fn breakdown_totals_add_up() {
        let r = record(0, 10, 4);
        assert_eq!(r.latency.total(), ms(13));
    }

    #[test]
    fn stats_aggregate_records() {
        let stats = ServerStats {
            records: vec![record(0, 0, 1), record(1, 10, 2), record(2, 20, 2)],
            elapsed: Duration::from_secs(2),
            cache: CacheStats { hits: 3, misses: 1 },
        };
        assert_eq!(stats.completed(), 3);
        assert_eq!(stats.throughput_rps(), 1.5);
        assert_eq!(stats.p50(), ms(13));
        let summary = stats.latency_summary();
        assert_eq!(
            (summary.count, summary.mean, summary.p50, summary.p99),
            (3, stats.mean_latency(), stats.p50(), stats.p99())
        );
        assert_eq!(stats.max_batch(), 2);
        assert!((stats.mean_batch() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(stats.mean_queue(), ms(10));
        assert!(stats.p99() >= stats.p50());
        assert_eq!(stats.cache.hit_rate(), 0.75);
    }

    #[test]
    fn empty_stats_are_defined() {
        let stats = ServerStats {
            records: Vec::new(),
            elapsed: Duration::ZERO,
            cache: CacheStats::default(),
        };
        assert_eq!(stats.completed(), 0);
        assert_eq!(stats.throughput_rps(), 0.0);
        assert_eq!(stats.p50(), Duration::ZERO);
        assert_eq!(stats.mean_latency(), Duration::ZERO);
        assert_eq!(stats.mean_batch(), 0.0);
        assert_eq!(stats.latency_summary(), LatencySummary::default());
        let snap = ServerSnapshot::default();
        assert_eq!(snap.p50(), Duration::ZERO);
        assert_eq!(snap.throughput_rps(), 0.0);
        assert_eq!(snap.mean_batch(), 0.0);
    }
}
