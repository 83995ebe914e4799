//! Minimal data-parallelism for the Eyeriss workspace.
//!
//! The cluster executor wants a rayon-style `par_iter().map().collect()`,
//! but this workspace builds offline with no external crates, so this
//! module provides the one primitive it needs: an order-preserving
//! parallel map built on [`std::thread::scope`]. Work is split into one
//! contiguous chunk per worker — simulating per-array sub-problems is
//! uniform enough that static chunking is within noise of work stealing.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Number of worker threads a parallel call will use (the machine's
/// available parallelism, at least 1).
pub fn num_threads() -> usize {
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `items` in parallel, preserving order.
///
/// Spawns at most [`num_threads`] scoped threads, each owning one
/// contiguous chunk. Falls back to a plain sequential map for a single
/// item or a single hardware thread. Panics in `f` propagate to the
/// caller (the scope joins all workers first).
///
/// # Example
///
/// ```
/// let squares = eyeriss_par::par_map(vec![1u64, 2, 3, 4], |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = num_threads().min(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Split into `workers` contiguous chunks whose sizes differ by <= 1.
    let len = items.len();
    let base = len / workers;
    let extra = len % workers;
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(workers);
    let mut rest = items;
    for w in 0..workers {
        let take = base + usize::from(w < extra);
        let tail = rest.split_off(take);
        chunks.push(std::mem::replace(&mut rest, tail));
    }
    debug_assert!(rest.is_empty());

    let f = &f;
    thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| scope.spawn(move || chunk.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        let mut out = Vec::with_capacity(len);
        for handle in handles {
            out.extend(handle.join().expect("parallel worker panicked"));
        }
        out
    })
}

/// How many chunks each worker gets on average in the slice-borrowing
/// map. Oversubscribing chunks (more chunks than workers, handed out
/// dynamically) keeps every thread busy when per-item costs are skewed —
/// e.g. cluster sub-problems whose tile counts differ.
const CHUNKS_PER_WORKER: usize = 4;

/// Maps `f` over a borrowed slice in parallel, preserving order, with
/// per-worker state: `init` runs once on each worker thread and the
/// resulting state is threaded through every item that worker processes.
///
/// Unlike [`par_map`], items stay where they are: workers receive `&T`,
/// so the caller can map over data it only borrows (a compiled plan's
/// sub-problems). Work is handed out as several times more chunks than
/// workers (`CHUNKS_PER_WORKER`), claimed dynamically, so skewed per-item
/// costs do not leave threads idle behind one unlucky static chunk.
///
/// The state is the hook for persistent execution contexts — e.g. one
/// simulator (with its scratch arena) per worker, reused across every
/// sub-problem that worker claims, instead of a fresh allocation per
/// item. Falls back to a sequential map (single state) for tiny inputs
/// or single-threaded machines. Panics in `init` or `f` propagate to the
/// caller.
///
/// # Example
///
/// ```
/// let data = vec![3u64, 1, 4, 1, 5];
/// let out = eyeriss_par::par_map_slice_with(
///     &data,
///     Vec::new,                 // per-worker scratch buffer
///     |scratch: &mut Vec<u64>, &x| {
///         scratch.clear();
///         scratch.extend(0..x);
///         scratch.iter().sum::<u64>()
///     },
/// );
/// assert_eq!(out, vec![3, 0, 6, 0, 10]);
/// ```
pub fn par_map_slice_with<T, S, R, I, F>(items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let workers = num_threads().min(items.len());
    if workers <= 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }

    // More chunks than workers, claimed off a shared counter: a worker
    // that drew cheap items moves on to the next chunk instead of idling.
    let chunks = (workers * CHUNKS_PER_WORKER).min(items.len());
    let chunk_len = items.len().div_ceil(chunks);
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::with_capacity(chunks));

    {
        let (next, done, init, f) = (&next, &done, &init, &f);
        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(move || {
                    let mut state = init();
                    loop {
                        let chunk = next.fetch_add(1, Ordering::Relaxed);
                        let start = chunk * chunk_len;
                        if start >= items.len() {
                            break;
                        }
                        let part: Vec<R> = items[start..(start + chunk_len).min(items.len())]
                            .iter()
                            .map(|item| f(&mut state, item))
                            .collect();
                        done.lock().expect("worker panicked").push((chunk, part));
                    }
                });
            }
        });
    }

    let mut parts = done.into_inner().expect("worker panicked");
    parts.sort_unstable_by_key(|(chunk, _)| *chunk);
    let mut out = Vec::with_capacity(items.len());
    for (_, part) in parts {
        out.extend(part);
    }
    debug_assert_eq!(out.len(), items.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stateless map over a borrowed slice.
    fn slice_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        par_map_slice_with(items, || (), |(), item| f(item))
    }

    #[test]
    fn preserves_order() {
        let n = 10_000usize;
        let out = par_map((0..n).collect(), |x| x * 2);
        assert_eq!(out, (0..n).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = par_map((0..997usize).collect(), |x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 997);
        assert_eq!(counter.load(Ordering::Relaxed), 997);
    }

    #[test]
    fn handles_degenerate_sizes() {
        assert_eq!(par_map(Vec::<u8>::new(), |x| x), Vec::<u8>::new());
        assert_eq!(par_map(vec![7u8], |x| x + 1), vec![8]);
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        let _ = par_map((0..1000u32).collect(), |x| {
            assert!(x != 500, "boom");
            x
        });
    }

    #[test]
    fn slice_map_preserves_order_without_moving() {
        let items: Vec<usize> = (0..10_007).collect();
        let out = slice_map(&items, |&x| x * 3);
        assert_eq!(out, items.iter().map(|&x| x * 3).collect::<Vec<_>>());
        assert_eq!(items.len(), 10_007, "slice still owned by caller");
    }

    #[test]
    fn slice_map_visits_every_item_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..997).collect();
        let out = slice_map(&items, |&x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out, items);
        assert_eq!(counter.load(Ordering::Relaxed), 997);
    }

    #[test]
    fn slice_map_handles_degenerate_sizes() {
        assert_eq!(slice_map(&[] as &[u8], |&x| x), Vec::<u8>::new());
        assert_eq!(slice_map(&[7u8], |&x| x + 1), vec![8]);
    }

    #[test]
    fn stateful_map_reuses_worker_state() {
        // Each worker's state counts how many items it processed; states
        // are created at most once per worker, so the number of distinct
        // states is bounded by the thread count.
        let states = AtomicUsize::new(0);
        let items: Vec<usize> = (0..4096).collect();
        let out = par_map_slice_with(
            &items,
            || {
                states.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |seen, &x| {
                *seen += 1;
                x + 1
            },
        );
        assert_eq!(out, (1..=4096).collect::<Vec<_>>());
        assert!(states.load(Ordering::Relaxed) <= num_threads().max(1));
    }

    #[test]
    #[should_panic]
    fn slice_worker_panics_propagate() {
        let items: Vec<u32> = (0..1000).collect();
        let _ = slice_map(&items, |&x| {
            assert!(x != 500, "boom");
            x
        });
    }
}
