//! A long-lived server holds bounded memory: once its rings are full,
//! serving more requests leaves the live heap where it was, however
//! many requests that is.

use eyeriss_nn::network::{Network, NetworkBuilder};
use eyeriss_nn::synth;
use eyeriss_serve::{ServeConfig, Server};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes allocated and not yet freed, by every thread.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, counting live bytes. `alloc_zeroed` and
/// `realloc` keep their provided bodies, which go through these two.
struct Counting;

// SAFETY: both calls are forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the wrapper only counts sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed through as they are.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            // Relaxed: the counter publishes no other data.
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// One small CONV stage: a request costs little simulation, so the
/// test spends its time in the serving pipeline.
fn tiny_net() -> Network {
    NetworkBuilder::new(2, 7)
        .conv("C1", 4, 3, 1)
        .expect("valid stage")
        .build(3)
}

/// Serves `n` requests in bursts of a full default batch, waiting on
/// each burst and dropping its responses.
fn serve(server: &Server, net: &Network, n: usize) {
    let shape = net.stages()[0].shape;
    let input = synth::ifmap(&shape, 1, 5);
    let burst = ServeConfig::new().policy.max_batch;
    for start in (0..n).step_by(burst) {
        let handles: Vec<_> = (start..n.min(start + burst))
            .map(|_| server.submit(input.clone()).unwrap())
            .collect();
        for handle in handles {
            drop(handle.wait().unwrap());
        }
    }
}

#[test]
fn live_heap_stops_growing_once_the_rings_are_full() {
    const N: usize = 200;
    /// Growth allowed between the quiescent points, whatever `N` is:
    /// the transient buffers a worker may still hold for its last batch.
    const SLACK: isize = 64 << 10;
    let net = tiny_net();
    let server = Server::start(net.clone(), ServeConfig::new());
    server.prewarm().unwrap();
    // Warm up until the span ring (4 096 records) is full.
    let mut warmup = 0;
    while server.telemetry().snapshot().spans.len() < 4096 {
        serve(&server, &net, 64);
        warmup += 64;
    }
    // The 10 N requests outnumber everything served before them, so a
    // record kept per request would have to grow past any capacity it
    // had reserved.
    assert!(warmup + N <= 10 * N, "warm-up of {warmup} outgrew N");
    serve(&server, &net, N);
    let after_n = LIVE.load(Ordering::Relaxed);
    serve(&server, &net, 10 * N);
    let after_11n = LIVE.load(Ordering::Relaxed);
    let growth = after_11n - after_n;
    assert!(
        growth < SLACK,
        "{} more requests grew the live heap by {growth} B (from {after_n} B)",
        10 * N
    );
    assert_eq!(server.shutdown().completed, (warmup + 11 * N) as u64);
}
