//! Recovery policy for the supervised serving runtime.
//!
//! The runtime's failure model distinguishes three layers:
//!
//! * **transient array faults** (one ABFT checksum mismatch, one
//!   crash) — the batch is re-queued and retried with bounded backoff,
//!   producing bit-exact output on a clean pass;
//! * **persistent array faults** (consecutive strikes reaching
//!   [`RecoveryPolicy::quarantine_after`]) — the array is quarantined,
//!   its worker's cluster re-plans onto the healthy subset, and the
//!   degraded capacity is reflected in admission estimates;
//! * **worker death** (panic) — the supervisor restarts the worker; the
//!   in-flight batch's requests fail with a typed
//!   [`WorkerLost`](crate::ServeError::WorkerLost) rather than a hung
//!   client.

use std::time::Duration;

/// Retry, backoff and quarantine policy for the serving runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Retries per batch before its requests fail with the worker's
    /// error. The total attempt budget is `1 + max_retries`.
    pub max_retries: u32,
    /// Base backoff slept before re-queuing a failed batch; attempt `k`
    /// (1-based) sleeps `k × backoff`, capped at 20 × `backoff`.
    pub backoff: Duration,
    /// Consecutive strikes (detected faults without an intervening
    /// clean run) after which an array is quarantined.
    pub quarantine_after: u32,
}

impl RecoveryPolicy {
    /// Serving defaults: three retries, 1 ms base backoff, quarantine
    /// on the second consecutive strike.
    pub fn new() -> Self {
        RecoveryPolicy {
            max_retries: 3,
            backoff: Duration::from_millis(1),
            quarantine_after: 2,
        }
    }

    /// The backoff before re-queueing attempt `attempt` (1-based).
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        self.backoff.saturating_mul(attempt.clamp(1, 20))
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchPolicy;
    use crate::sched::ReadyQueue;

    fn queue(capacity: usize) -> ReadyQueue<u64> {
        ReadyQueue::new(capacity, 1.0, 0)
    }

    fn batch_of(q: &ReadyQueue<u64>) -> Option<Vec<u64>> {
        q.next_batch(&BatchPolicy::unbatched(), || 0)
            .map(|d| d.batch)
    }

    // A retried batch goes back through `ReadyQueue::requeue`: it must
    // come back first, whole (even under a one-item batch policy), and
    // ahead of entries queued before it.
    #[test]
    fn fifo_order_with_requeue_at_front() {
        let q = queue(8);
        q.push(1, 0, 1.0, 1, None, 0).unwrap();
        q.push(2, 0, 1.0, 1, None, 0).unwrap();
        q.requeue(vec![0, 3]);
        assert_eq!(batch_of(&q), Some(vec![0, 3]), "first and whole");
        assert_eq!(batch_of(&q), Some(vec![1]));
        assert_eq!(batch_of(&q), Some(vec![2]));
    }

    // A worker hands a failed batch back while the queue is full; the
    // hand-off ignores capacity. A blocked call fails after 10 s (a hang
    // guard, not a timing check).
    #[test]
    fn requeue_never_blocks_at_capacity() {
        let q = std::sync::Arc::new(queue(1));
        q.push(1, 0, 1.0, 1, None, 0).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let q2 = std::sync::Arc::clone(&q);
        std::thread::spawn(move || {
            q2.requeue(vec![0]);
            tx.send(())
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("requeue blocked on a full queue");
        assert_eq!(batch_of(&q), Some(vec![0]));
        assert_eq!(batch_of(&q), Some(vec![1]));
    }

    #[test]
    fn backoff_scales_and_caps() {
        let p = RecoveryPolicy::new();
        assert_eq!(p.backoff_for(1), p.backoff);
        assert_eq!(p.backoff_for(3), p.backoff * 3);
        assert_eq!(p.backoff_for(1000), p.backoff * 20, "capped");
    }
}
