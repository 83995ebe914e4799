//! Per-request latency breakdowns and the server's snapshot of them.

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

/// A point-in-time view of a [`crate::Server`]: live from
/// [`crate::Server::snapshot`] while it runs, final from
/// [`crate::Server::shutdown`] once it has drained.
///
/// Latency statistics come from the server's streaming log-bucketed
/// histograms, its only record of completed requests, so
/// [`ServerSnapshot::p50`] / [`ServerSnapshot::p99`] are estimates
/// within [`eyeriss_telemetry::RELATIVE_ERROR`] of the exact
/// nearest-rank percentiles over the same requests (values below
/// [`eyeriss_telemetry::EXACT_BELOW`] nanoseconds are exact), while
/// counts, sums and means are exact. A server given a disabled
/// telemetry instance records nothing and reports zeros.
#[derive(Debug, Clone, Default)]
pub struct ServerSnapshot {
    /// Wall-clock time since the server started.
    pub elapsed: Duration,
    /// Requests completed so far.
    pub completed: u64,
    /// Requests rejected at admission or evicted from a full queue.
    pub shed: u64,
    /// Requests currently waiting in the ready queue: in a batch still
    /// forming, in a retried batch handed back, or in a `submit`
    /// waiting for room.
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

    /// Mean time spent queued so far (batch-formation wait included).
    pub fn mean_queue(&self) -> Duration {
        Duration::from_nanos(self.queue_ns.mean() as u64)
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

    #[test]
    fn breakdown_totals_add_up() {
        let ms = Duration::from_millis;
        let latency = LatencyBreakdown {
            queue: ms(10),
            compile: ms(1),
            execute: ms(2),
        };
        assert_eq!(latency.total(), ms(13));
    }

    #[test]
    fn empty_snapshot_is_defined() {
        let snap = ServerSnapshot::default();
        assert_eq!(snap.p50(), Duration::ZERO);
        assert_eq!(snap.mean_latency(), Duration::ZERO);
        assert_eq!(snap.mean_queue(), Duration::ZERO);
        assert_eq!(snap.throughput_rps(), 0.0);
        assert_eq!(snap.mean_batch(), 0.0);
    }
}
