//! Allocation budget of a warm layer run: once a chip has run a layer,
//! running it again allocates exactly once — the returned psums — on
//! every datapath and every layer kind, through both entry points: the
//! searching `run_conv` and the planned `run_conv_planned` that a
//! cluster executes precompiled plans with.

use eyeriss_arch::AcceleratorConfig;
use eyeriss_nn::{synth, LayerShape};
use eyeriss_sim::passes::RsMapping;
use eyeriss_sim::Accelerator;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (including reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's allocations.
struct Counting;

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with its arguments
// unchanged; the count is a const-initialised thread-local `Cell`, which
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_warm_run_conv_allocates_only_its_psums() {
    let config = AcceleratorConfig::eyeriss_chip();
    let layers = [
        ("conv", LayerShape::conv(6, 4, 15, 3, 2).unwrap()),
        ("depthwise", LayerShape::depthwise(8, 13, 3, 1).unwrap()),
        ("fc", LayerShape::fully_connected(10, 16, 4).unwrap()),
    ];
    let chip = || Accelerator::new(config);
    for (kind, shape) in layers {
        let n = 2;
        let input = synth::sparse_ifmap(&shape, n, 1, 0.5);
        let weights = synth::filters(&shape, 2);
        let bias = synth::biases(&shape, 3);
        // Compiled before any measured run, as a cluster compiles its
        // plans before executing them.
        let mapping = RsMapping::plan(&shape, n, &config).unwrap();
        for planned in [false, true] {
            let modes = [
                ("plain", chip()),
                ("gated", chip().zero_gating(true)),
                ("csc", chip().csc(true)),
                ("rlc", chip().rlc(true)),
            ];
            for (mode, mut acc) in modes {
                let mut run = || {
                    if planned {
                        acc.run_conv_planned(mapping, &shape, n, &input, &weights, &bias)
                    } else {
                        acc.run_conv(&shape, n, &input, &weights, &bias)
                    }
                    .unwrap()
                };
                // The cold run grows the chip's buffers (and searches
                // the mapping, unless it is planned).
                let cold = run();
                let before = ALLOCATIONS.with(Cell::get);
                let warm = run();
                let allocations = ALLOCATIONS.with(Cell::get) - before;
                assert_eq!(allocations, 1, "{kind}/{mode}, planned: {planned}");
                assert_eq!(warm.psums, cold.psums, "{kind}/{mode}, planned: {planned}");
            }
        }
    }
}
