//! The ready queue: earliest-deadline-first with priority tiers and
//! aging, arbitrated across tenants by deficit round robin.
//!
//! Dispatch order composes three policies, strongest first:
//!
//! 1. **Priority tiers.** The globally lowest *effective* tier goes
//!    first. An entry's effective tier starts at its submitted tier and
//!    drops one level per configured aging interval spent waiting, so
//!    low-priority work is delayed under contention but never starved.
//! 2. **Deficit round robin across tenants.** Among tenants holding
//!    work at the winning tier, a classic DRR pass picks the lane:
//!    each top-up round credits `quantum × weight`, each dispatch costs
//!    one credit, so backlogged tenants' throughput shares converge to
//!    their weight ratio.
//! 3. **EDF within the lane.** The chosen tenant dispatches its
//!    earliest-deadline entry (deadline-free entries sort last, FIFO by
//!    submission among themselves).
//!
//! A full queue sheds by rank, not arrival: an incoming entry that
//! outranks (strictly lower effective tier than) the worst queued entry
//! evicts it; otherwise [`ReadyQueue::push`] rejects the incoming entry
//! and [`ReadyQueue::push_wait`] waits for room (backpressure). Entries
//! whose deadline passes while queued are drained as `expired` at
//! dispatch — they cost a queue slot while waiting but never reach an
//! array.
//!
//! Workers form their own batches with [`ReadyQueue::next_batch`], one
//! at a time, and hand back a batch they could not finish with
//! [`ReadyQueue::requeue`], which never blocks.
//!
//! All mutation takes an explicit `now_ns` stamp (the telemetry epoch
//! timeline), so ordering, aging and expiry are deterministic in tests;
//! only the blocking [`ReadyQueue::next_batch`] waits on the wall clock,
//! and only for its [`BatchPolicy::max_wait`] window, which it measures
//! from the first entry's enqueue stamp on the caller's `now()`.

use crate::batch::BatchPolicy;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// One queued entry.
#[derive(Debug)]
struct Entry<T> {
    item: T,
    tier: u8,
    deadline_ns: Option<u64>,
    enqueued_ns: u64,
    seq: u64,
}

impl<T> Entry<T> {
    /// An entry stamped `now_ns`; its `seq` is assigned on enqueue.
    fn new(item: T, tier: u8, deadline_ns: Option<u64>, now_ns: u64) -> Entry<T> {
        Entry {
            item,
            tier,
            deadline_ns,
            enqueued_ns: now_ns,
            seq: 0,
        }
    }

    /// Effective tier after aging: one level of promotion per
    /// `aging_ns` spent waiting (aging_ns = 0 disables promotion).
    fn eff_tier(&self, now_ns: u64, aging_ns: u64) -> u8 {
        if aging_ns == 0 {
            return self.tier;
        }
        let waited = now_ns.saturating_sub(self.enqueued_ns);
        let promoted = (waited / aging_ns).min(u64::from(self.tier));
        self.tier - promoted as u8
    }

    /// Dispatch key within a lane: lower sorts first.
    fn key(&self, now_ns: u64, aging_ns: u64) -> (u8, u64, u64) {
        (
            self.eff_tier(now_ns, aging_ns),
            self.deadline_ns.unwrap_or(u64::MAX),
            self.seq,
        )
    }
}

/// One tenant's lane: its pending entries and DRR credit.
#[derive(Debug)]
struct Lane<T> {
    entries: Vec<Entry<T>>,
    weight: f64,
    deficit: f64,
}

// Derived `Default` would demand `T: Default`; lanes never hold a
// default item, so implement it by hand.
impl<T> Default for Lane<T> {
    fn default() -> Self {
        Lane {
            entries: Vec::new(),
            weight: 1.0,
            deficit: 0.0,
        }
    }
}

#[derive(Debug)]
struct Inner<T> {
    lanes: Vec<Lane<T>>,
    len: usize,
    seq: u64,
    cursor: usize,
    closed: bool,
    /// Producers parked in [`ReadyQueue::push_wait`]; pops signal
    /// `space` only when there is one.
    waiting: usize,
    /// Whole batches handed back by [`ReadyQueue::requeue`], next out.
    requeued: VecDeque<Vec<T>>,
    /// Turns to form a batch handed out to [`ReadyQueue::next_batch`]
    /// calls, and the turn now forming.
    tickets: u64,
    serving: u64,
}

/// Outcome of a successful [`ReadyQueue::push`].
#[derive(Debug, PartialEq)]
pub enum Pushed<T> {
    /// Queued; no one was displaced.
    Queued,
    /// Queued by evicting this lower-ranked victim (shed it).
    Displaced(T),
}

/// Why a [`ReadyQueue::push`] failed; the item comes back.
#[derive(Debug, PartialEq)]
pub enum PushError<T> {
    /// Queue full and the entry outranked nothing.
    Full(T),
    /// Queue closed for shutdown.
    Closed(T),
}

/// One dispatched entry's provenance, alongside the item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Popped {
    /// Lane (tenant index) the entry came from.
    pub lane: usize,
    /// Whether the entry's deadline had already passed at dispatch.
    pub expired: bool,
}

/// A batch drained by [`ReadyQueue::next_batch`]: dispatchable entries
/// plus the ones whose deadline expired in queue.
#[derive(Debug)]
pub struct Drained<T> {
    /// Entries to execute, in dispatch order.
    pub batch: Vec<T>,
    /// Entries shed at dispatch: their deadline passed while queued.
    pub expired: Vec<T>,
}

/// The multi-tenant ready queue (see the module docs for the dispatch
/// discipline). Its lock recovers from poisoning: every update leaves
/// the lanes and counters consistent before anything that can panic.
#[derive(Debug)]
pub struct ReadyQueue<T> {
    inner: Mutex<Inner<T>>,
    /// Signalled when an entry or a requeued batch arrives, or the queue
    /// closes (wakes the [`ReadyQueue::next_batch`] call forming one).
    available: Condvar,
    /// Signalled when a batch is formed (wakes the `next_batch` calls
    /// waiting their turn).
    turn: Condvar,
    /// Signalled when entries leave or the queue closes (wakes
    /// [`ReadyQueue::push_wait`]).
    space: Condvar,
    capacity: usize,
    quantum: f64,
    aging_ns: u64,
}

impl<T> ReadyQueue<T> {
    /// A queue bounding `capacity` entries, crediting `quantum ×
    /// weight` per DRR round, promoting one tier per `aging_ns` waited
    /// (0 disables aging).
    pub fn new(capacity: usize, quantum: f64, aging_ns: u64) -> ReadyQueue<T> {
        ReadyQueue {
            inner: Mutex::new(Inner {
                lanes: Vec::new(),
                len: 0,
                seq: 0,
                cursor: 0,
                closed: false,
                waiting: 0,
                requeued: VecDeque::new(),
                tickets: 0,
                serving: 0,
            }),
            available: Condvar::new(),
            turn: Condvar::new(),
            space: Condvar::new(),
            capacity: capacity.max(1),
            quantum: quantum.max(1e-6),
            aging_ns,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queued entries right now.
    pub fn len(&self) -> usize {
        self.lock().len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues `item` on tenant lane `lane` (its registry index) at
    /// submitted tier `tier`, refreshing the lane's DRR `weight`. On a
    /// full queue the entry evicts the worst queued entry if it
    /// strictly outranks it (lower effective tier), else bounces.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] or [`PushError::Closed`], returning the item.
    pub fn push(
        &self,
        item: T,
        lane: usize,
        weight: f64,
        tier: u8,
        deadline_ns: Option<u64>,
        now_ns: u64,
    ) -> Result<Pushed<T>, PushError<T>> {
        let entry = Entry::new(item, tier, deadline_ns, now_ns);
        self.enqueue(entry, lane, weight, false)
    }

    /// [`ReadyQueue::push`], except that where `push` would bounce with
    /// [`PushError::Full`] this blocks until a pop makes room —
    /// backpressure.
    ///
    /// # Errors
    ///
    /// [`PushError::Closed`], returning the item, when the queue is or
    /// becomes closed while waiting.
    pub fn push_wait(
        &self,
        item: T,
        lane: usize,
        weight: f64,
        tier: u8,
        deadline_ns: Option<u64>,
        now_ns: u64,
    ) -> Result<Pushed<T>, PushError<T>> {
        let entry = Entry::new(item, tier, deadline_ns, now_ns);
        self.enqueue(entry, lane, weight, true)
    }

    fn enqueue(
        &self,
        mut entry: Entry<T>,
        lane: usize,
        weight: f64,
        wait: bool,
    ) -> Result<Pushed<T>, PushError<T>> {
        let mut inner = self.lock();
        let displaced = loop {
            if inner.closed {
                return Err(PushError::Closed(entry.item));
            }
            if inner.len < self.capacity {
                break None;
            }
            match self.worst_locked(&inner, entry.enqueued_ns) {
                Some((victim_lane, pos, victim_tier)) if entry.tier < victim_tier => {
                    let victim = inner.lanes[victim_lane].entries.swap_remove(pos);
                    inner.len -= 1;
                    break Some(victim.item);
                }
                _ if wait => {
                    inner.waiting += 1;
                    inner = self
                        .space
                        .wait(inner)
                        .unwrap_or_else(PoisonError::into_inner);
                    inner.waiting -= 1;
                }
                _ => return Err(PushError::Full(entry.item)),
            }
        };
        if inner.lanes.len() <= lane {
            inner.lanes.resize_with(lane + 1, Lane::default);
        }
        inner.lanes[lane].weight = weight.max(1e-3);
        entry.seq = inner.seq;
        inner.seq += 1;
        inner.lanes[lane].entries.push(entry);
        inner.len += 1;
        self.available.notify_one();
        Ok(match displaced {
            Some(victim) => Pushed::Displaced(victim),
            None => Pushed::Queued,
        })
    }

    /// The worst-ranked queued entry: highest effective tier, then
    /// latest deadline, then newest. Returns `(lane, position, tier)`.
    fn worst_locked(&self, inner: &Inner<T>, now_ns: u64) -> Option<(usize, usize, u8)> {
        inner
            .lanes
            .iter()
            .enumerate()
            .flat_map(|(l, lane)| {
                lane.entries
                    .iter()
                    .enumerate()
                    .map(move |(p, e)| (l, p, e.key(now_ns, self.aging_ns)))
            })
            .max_by_key(|&(_, _, key)| key)
            .map(|(l, p, key)| (l, p, key.0))
    }

    /// Dispatches one entry per the tier → DRR → EDF discipline.
    /// Non-blocking; `None` when empty.
    pub fn pop(&self, now_ns: u64) -> Option<(T, Popped)> {
        let mut inner = self.lock();
        let popped = self.pop_locked(&mut inner, now_ns);
        if popped.is_some() && inner.waiting > 0 {
            self.space.notify_one();
        }
        popped.map(|(entry, info)| (entry.item, info))
    }

    fn pop_locked(&self, inner: &mut Inner<T>, now_ns: u64) -> Option<(Entry<T>, Popped)> {
        if inner.len == 0 {
            return None;
        }
        // The winning tier: globally lowest effective tier on offer.
        let best_tier = inner
            .lanes
            .iter()
            .flat_map(|l| l.entries.iter())
            .map(|e| e.eff_tier(now_ns, self.aging_ns))
            .min()
            .expect("len > 0");
        // DRR among the lanes competing at that tier. Each failed full
        // scan credits every competing lane, so the loop terminates:
        // some deficit reaches 1.0 within ⌈1/(quantum·min weight)⌉
        // rounds.
        loop {
            let n = inner.lanes.len();
            let mut competing = false;
            for off in 0..n {
                let idx = (inner.cursor + off) % n;
                let lane = &inner.lanes[idx];
                if !lane
                    .entries
                    .iter()
                    .any(|e| e.eff_tier(now_ns, self.aging_ns) == best_tier)
                {
                    continue;
                }
                competing = true;
                if lane.deficit < 1.0 {
                    continue;
                }
                let lane = &mut inner.lanes[idx];
                lane.deficit -= 1.0;
                let pos = lane
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.key(now_ns, self.aging_ns))
                    .map(|(p, _)| p)
                    .expect("competing lane is non-empty");
                let entry = lane.entries.swap_remove(pos);
                if lane.entries.is_empty() {
                    // Classic DRR: an emptied lane forfeits its credit,
                    // so idle tenants cannot hoard bandwidth.
                    lane.deficit = 0.0;
                }
                inner.len -= 1;
                // Stay on this lane while its credit lasts.
                inner.cursor = idx;
                let expired = entry.deadline_ns.is_some_and(|d| d <= now_ns);
                return Some((entry, Popped { lane: idx, expired }));
            }
            debug_assert!(competing, "best_tier came from a queued entry");
            // Top-up round for every lane competing at the winning
            // tier; rotate the cursor so equal credits alternate lanes.
            for lane in inner.lanes.iter_mut() {
                if lane
                    .entries
                    .iter()
                    .any(|e| e.eff_tier(now_ns, self.aging_ns) == best_tier)
                {
                    lane.deficit += self.quantum * lane.weight;
                }
            }
            inner.cursor = (inner.cursor + 1) % n.max(1);
        }
    }

    /// Blocks for the next batch under `policy`, stamping pops with
    /// `now()` (epoch nanoseconds). A requeued batch comes out first,
    /// whole. Otherwise the call waits its turn (one batch forms at a
    /// time, turns in call order), then for the first entry, and drains
    /// until the batch is full, the queue closes, or `max_wait` has
    /// passed since that entry was enqueued. Entries that expired in
    /// queue are split out and do not count toward the batch. Returns
    /// `None` once closed *and* empty.
    pub fn next_batch(&self, policy: &BatchPolicy, now: impl Fn() -> u64) -> Option<Drained<T>> {
        let max_batch = policy.max_batch.max(1);
        let max_wait_ns = policy.max_wait.as_nanos().min(u64::MAX as u128) as u64;
        let mut batch = Vec::new();
        let mut expired = Vec::new();
        let mut inner = self.lock();
        if let Some(batch) = inner.requeued.pop_front() {
            return Some(Drained { batch, expired });
        }
        // Callers form batches one at a time, in arrival order, so an
        // idle caller is not overtaken by one back from a batch.
        let ticket = inner.tickets;
        inner.tickets += 1;
        while inner.serving != ticket {
            inner = self
                .turn
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
        // The first entry's enqueue stamp plus `max_wait`.
        let mut window_end = None;
        let drained = loop {
            if window_end.is_none() {
                if let Some(batch) = inner.requeued.pop_front() {
                    break Some(Drained { batch, expired });
                }
            }
            let taken = batch.len() + expired.len();
            while batch.len() < max_batch {
                match self.pop_locked(&mut inner, now()) {
                    Some((entry, info)) => {
                        window_end.get_or_insert(entry.enqueued_ns.saturating_add(max_wait_ns));
                        if info.expired {
                            expired.push(entry.item);
                        } else {
                            batch.push(entry.item);
                        }
                    }
                    None => break,
                }
            }
            if inner.waiting > 0 && batch.len() + expired.len() > taken {
                // Room now, not when the batch closes: a producer
                // blocked on a full queue may be the batch's company.
                self.space.notify_all();
            }
            let Some(window_end) = window_end else {
                if inner.closed {
                    break None;
                }
                inner = self
                    .available
                    .wait(inner)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            let remaining = window_end.saturating_sub(now());
            if batch.len() >= max_batch || inner.closed || remaining == 0 {
                break Some(Drained { batch, expired });
            }
            let (guard, timeout) = self
                .available
                .wait_timeout(inner, Duration::from_nanos(remaining))
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
            if timeout.timed_out() && inner.len == 0 {
                break Some(Drained { batch, expired });
            }
        };
        inner.serving += 1;
        drop(inner);
        self.turn.notify_all();
        drained
    }

    /// [`ReadyQueue::next_batch`] calls in progress: forming a batch or
    /// waiting their turn.
    pub(crate) fn callers(&self) -> usize {
        let inner = self.lock();
        (inner.tickets - inner.serving) as usize
    }

    /// Puts `batch` back at the front of the queue, whole: the next
    /// [`ReadyQueue::next_batch`] hands it out before any new batch
    /// forms. Never blocks and ignores capacity, and a closed queue
    /// accepts it too — a requeued batch was admitted once, and the
    /// queue drains it before reporting shutdown.
    pub fn requeue(&self, batch: Vec<T>) {
        self.lock().requeued.push_front(batch);
        self.available.notify_one();
    }

    /// Closes the queue: further pushes fail (blocked ones included),
    /// blocked consumers drain what is queued and then observe
    /// shutdown. Idempotent.
    pub fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
        self.space.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread::JoinHandle;
    use std::time::Duration;

    fn queue(capacity: usize) -> ReadyQueue<u64> {
        ReadyQueue::new(capacity, 1.0, 0)
    }

    #[test]
    fn single_lane_pops_in_edf_order() {
        let q = queue(16);
        for (item, deadline) in [(1u64, 500), (2, 100), (3, 900), (4, 300)] {
            q.push(item, 0, 1.0, 1, Some(deadline), 0).unwrap();
        }
        // No-deadline entries sort after every deadline, FIFO among
        // themselves.
        q.push(5, 0, 1.0, 1, None, 0).unwrap();
        q.push(6, 0, 1.0, 1, None, 0).unwrap();
        let order: Vec<u64> = std::iter::from_fn(|| q.pop(10).map(|(i, _)| i)).collect();
        assert_eq!(order, vec![2, 4, 1, 3, 5, 6]);
        assert!(q.is_empty());
    }

    #[test]
    fn priority_tiers_outrank_deadlines() {
        let q = queue(16);
        q.push(1, 0, 1.0, 2, Some(10), 0).unwrap(); // low tier, urgent
        q.push(2, 0, 1.0, 0, Some(900), 0).unwrap(); // high tier, relaxed
        q.push(3, 0, 1.0, 1, Some(500), 0).unwrap();
        let order: Vec<u64> = std::iter::from_fn(|| q.pop(5).map(|(i, _)| i)).collect();
        assert_eq!(order, vec![2, 3, 1], "tier first, EDF within tier");
    }

    #[test]
    fn drr_shares_follow_weights() {
        let q = queue(256);
        // Lane 0 weight 3, lane 1 weight 1, same tier, no deadlines.
        for i in 0..60u64 {
            q.push(i, 0, 3.0, 1, None, 0).unwrap();
            q.push(1000 + i, 1, 1.0, 1, None, 0).unwrap();
        }
        let mut counts = [0usize; 2];
        for _ in 0..40 {
            let (_, info) = q.pop(0).unwrap();
            counts[info.lane] += 1;
        }
        assert_eq!(counts[0] + counts[1], 40);
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!(
            (ratio - 3.0).abs() <= 0.45,
            "3:1 weights → {counts:?} (ratio {ratio})"
        );
    }

    #[test]
    fn aging_promotes_waiting_low_tier_work() {
        let aging_ns = 100;
        let q = ReadyQueue::<u64>::new(64, 1.0, aging_ns);
        q.push(7, 0, 1.0, 2, None, 0).unwrap(); // low tier at t=0
        q.push(8, 0, 1.0, 0, None, 0).unwrap(); // high tier
                                                // At t=10 the high-tier entry still wins.
        assert_eq!(q.pop(10).unwrap().0, 8);
        q.push(9, 0, 1.0, 0, None, 250).unwrap();
        // At t=250 the old low-tier entry has aged 2 levels → tier 0,
        // and its seq is older than the fresh high-tier entry.
        assert_eq!(q.pop(250).unwrap().0, 7, "aged entry dispatches first");
        assert_eq!(q.pop(250).unwrap().0, 9);
    }

    #[test]
    fn full_queue_sheds_by_rank() {
        let q = queue(2);
        q.push(1, 0, 1.0, 2, None, 0).unwrap();
        q.push(2, 0, 1.0, 1, None, 0).unwrap();
        // Equal-tier entry bounces: it outranks nothing.
        assert_eq!(q.push(3, 0, 1.0, 2, None, 0), Err(PushError::Full(3)));
        // Higher-priority entry evicts the worst (tier 2) entry.
        assert_eq!(q.push(4, 0, 1.0, 0, None, 0), Ok(Pushed::Displaced(1)));
        assert_eq!(q.len(), 2);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop(0).map(|(i, _)| i)).collect();
        assert_eq!(order, vec![4, 2]);
    }

    #[test]
    fn expired_entries_surface_at_dispatch() {
        let q = queue(16);
        q.push(1, 0, 1.0, 1, Some(50), 0).unwrap();
        q.push(2, 0, 1.0, 1, Some(500), 0).unwrap();
        let policy = BatchPolicy {
            max_batch: 4,
            max_wait: Duration::ZERO,
        };
        let drained = q.next_batch(&policy, || 100).unwrap();
        assert_eq!(drained.expired, vec![1], "deadline 50 expired at t=100");
        assert_eq!(drained.batch, vec![2]);
    }

    #[test]
    fn next_batch_blocks_then_drains_and_close_shuts_down() {
        let q = std::sync::Arc::new(queue(16));
        let policy = BatchPolicy {
            max_batch: 4,
            max_wait: Duration::from_millis(50),
        };
        let consumer = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(d) = q.next_batch(&policy, || 0) {
                    seen.extend(d.batch);
                }
                seen
            })
        };
        for i in 0..6u64 {
            q.push(i, 0, 1.0, 1, None, 0).unwrap();
        }
        q.close();
        assert_eq!(q.push(9, 0, 1.0, 1, None, 0), Err(PushError::Closed(9)));
        let mut seen = consumer.join().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..6).collect::<Vec<_>>(), "close drains the queue");
    }

    /// Runs `f` on a helper thread and returns its result; a call that
    /// blocks for 10 s fails the test (a hang guard, not a timing check).
    fn within_10s<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(Duration::from_secs(10))
            .expect("the call blocked")
    }

    fn batch_of(q: &ReadyQueue<u64>) -> Option<Vec<u64>> {
        q.next_batch(&BatchPolicy::unbatched(), || 0)
            .map(|d| d.batch)
    }

    #[test]
    fn requeue_after_close_is_drained_before_shutdown() {
        let q = queue(16);
        q.push(1, 0, 1.0, 1, None, 0).unwrap();
        q.close();
        q.requeue(vec![0]);
        assert_eq!(batch_of(&q), Some(vec![0]));
        assert_eq!(batch_of(&q), Some(vec![1]));
        assert_eq!(batch_of(&q), None);
        assert_eq!(batch_of(&q), None, "stays closed");
    }

    #[test]
    fn max_wait_runs_from_the_first_entrys_enqueue_stamp() {
        let q = queue(16);
        q.push(7, 0, 1.0, 1, None, 0).unwrap();
        let max_wait = Duration::from_secs(30);
        let policy = BatchPolicy {
            max_batch: 4,
            max_wait,
        };
        // 30 s past the entry's stamp: its window has already closed.
        let now = max_wait.as_nanos() as u64;
        let drained = within_10s(move || q.next_batch(&policy, || now).map(|d| d.batch));
        assert_eq!(drained, Some(vec![7]));
    }

    /// Spawns `push_wait(item)` and returns once it is parked on the
    /// full queue (no sleep: the queue counts its waiting producers).
    fn blocked_push(
        q: &Arc<ReadyQueue<u64>>,
        item: u64,
    ) -> JoinHandle<Result<Pushed<u64>, PushError<u64>>> {
        let producer = {
            let q = Arc::clone(q);
            std::thread::spawn(move || q.push_wait(item, 0, 1.0, 1, None, 0))
        };
        while q.lock().waiting == 0 {
            std::thread::yield_now();
        }
        producer
    }

    #[test]
    fn full_queue_backpressure_blocks_push_wait_until_a_pop_or_close() {
        let q = Arc::new(queue(2));
        q.push(1, 0, 1.0, 1, None, 0).unwrap();
        q.push(2, 0, 1.0, 1, None, 0).unwrap();
        // The non-blocking push of an equal-tier entry still bounces.
        assert_eq!(q.push(3, 0, 1.0, 1, None, 0), Err(PushError::Full(3)));

        let producer = blocked_push(&q, 3);
        assert!(!producer.is_finished(), "a full queue holds the push");
        assert_eq!(q.pop(0).map(|(i, _)| i), Some(1));
        assert_eq!(
            producer.join().unwrap(),
            Ok(Pushed::Queued),
            "one pop frees it"
        );
        assert_eq!(q.len(), 2);

        let producer = blocked_push(&q, 4);
        q.close();
        assert_eq!(producer.join().unwrap(), Err(PushError::Closed(4)));
        let drained: Vec<u64> = std::iter::from_fn(|| q.pop(0).map(|(i, _)| i)).collect();
        assert_eq!(drained, vec![2, 3], "close keeps what was queued");
    }
}
