//! Dynamic batching: coalescing queued requests into one cluster
//! execution.
//!
//! Batching amortizes per-layer configuration and filter traffic across
//! requests — the same effect the paper reports for OSC/WS ("energy
//! consumption improves significantly with batch sizes larger than 1",
//! Section VII-B) — at the cost of queueing latency. The
//! [`BatchPolicy`] bounds both sides: a batch closes when it reaches
//! `max_batch` requests or when `max_wait` has elapsed since its first
//! request was enqueued, whichever comes first. The runtime's workers
//! form batches under it with
//! [`ReadyQueue::next_batch`](crate::sched::ReadyQueue::next_batch), one
//! at a time, so `max_wait` is spent only while a worker stands idle.

use std::time::Duration;

/// Bounds on how long and how wide a forming batch may grow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum requests coalesced into one execution.
    pub max_batch: usize,
    /// Maximum time the first request of a batch waits for company.
    pub max_wait: Duration,
}

impl BatchPolicy {
    /// A policy that never waits: every request executes alone
    /// (batch size 1).
    pub fn unbatched() -> Self {
        BatchPolicy {
            max_batch: 1,
            max_wait: Duration::ZERO,
        }
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 8,
            max_wait: Duration::from_millis(2),
        }
    }
}

/// What a policy means for batch formation, checked against the
/// queue's `next_batch`, which every worker calls.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::ReadyQueue;
    use std::time::Instant;

    /// The first `rounds` batches `policy` forms from a single-tenant
    /// queue holding `items` (closed up front when `close`); `None` is
    /// the shutdown signal.
    fn batches(
        items: &[u32],
        close: bool,
        policy: BatchPolicy,
        rounds: usize,
    ) -> Vec<Option<Vec<u32>>> {
        let q = ReadyQueue::new(64, 1.0, 0);
        for &item in items {
            q.push(item, 0, 1.0, 1, None, 0).unwrap();
        }
        if close {
            q.close();
        }
        (0..rounds)
            .map(|_| q.next_batch(&policy, || 0).map(|d| d.batch))
            .collect()
    }

    fn policy(max_batch: usize, max_wait_ms: u64) -> BatchPolicy {
        BatchPolicy {
            max_batch,
            max_wait: Duration::from_millis(max_wait_ms),
        }
    }

    #[test]
    fn fills_up_to_max_batch_from_queued_items() {
        let got = batches(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9], false, policy(4, 50), 2);
        assert_eq!(got, [Some(vec![0, 1, 2, 3]), Some(vec![4, 5, 6, 7])]);
    }

    #[test]
    fn unbatched_policy_takes_one_item() {
        let got = batches(&[1, 2], false, BatchPolicy::unbatched(), 2);
        assert_eq!(got, [Some(vec![1]), Some(vec![2])]);
    }

    #[test]
    fn zero_wait_takes_only_already_queued_items() {
        // Both items are queued before collection begins, so a zero-wait
        // policy still drains them without blocking.
        assert_eq!(batches(&[1, 2], false, policy(8, 0), 1), [Some(vec![1, 2])]);
    }

    #[test]
    fn disconnect_before_any_item_signals_shutdown() {
        assert_eq!(batches(&[], true, BatchPolicy::default(), 1), [None]);
    }

    #[test]
    fn disconnect_mid_batch_returns_partial_batch() {
        assert_eq!(batches(&[7], true, policy(4, 50), 2), [Some(vec![7]), None]);
    }

    #[test]
    fn deadline_closes_a_partial_batch() {
        let start = Instant::now();
        assert_eq!(batches(&[1], false, policy(4, 10), 1), [Some(vec![1])]);
        let waited = start.elapsed();
        assert!(
            waited < Duration::from_secs(5),
            "max_wait must bound the wait"
        );
    }
}
