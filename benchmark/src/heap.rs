//! Live heap bytes and their high-water mark, counted by a wrapper
//! around the system allocator.
//!
//! `VmHWM` is what the operating system saw, but on glibc it depends on
//! which thread's arena served a large block and on the allocator's
//! moving mmap threshold: `paper_figs` reads 40, 73 or 107 MB from run
//! to run of the same binary. The bytes the program asked for are
//! steady, and they are what a code change controls. `VmHWM` stays in
//! the per-layer ledger as `host.peak_rss_mb`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

pub struct Counting;

fn grew(by: usize) {
    // Relaxed: the counters publish no other data.
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the wrapper only counts sizes and never
// touches the memory or the layouts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed through as they are.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout, which
        // means from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`; `new_size` is the caller's to get right.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// The most heap the process has held at once, MB.
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_peak_follows_a_large_block_and_stays_after_it_is_freed() {
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        let with_block = peak_mb();
        assert!(with_block >= 64.0, "peak {with_block} MB with 64 MB live");
        drop(block);
        assert!(peak_mb() >= with_block);
        assert!(LIVE.load(Ordering::Relaxed) < PEAK.load(Ordering::Relaxed));
    }
}
