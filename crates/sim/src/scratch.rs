//! The buffers a layer run needs, owned by the chip and recycled across
//! layers and runs, so the steady-state execute path performs no heap
//! allocation beyond the returned output tensor.

/// The buffers an [`Accelerator`](crate::Accelerator) reuses across its
/// runs: the layer kernel's psum strip, the band buffer of its AVX2 copy
/// and the RLC code words. It holds no PE pool — a run counts PE
/// accesses in closed form and computes values straight from the
/// tensors — and no counters. Its contents after a run are meaningless:
/// every run overwrites what it reads, so reuse never changes an output
/// bit or a statistic (`tests/scratch_bitexact.rs` holds a reused chip to
/// fresh ones), it only removes allocations.
#[derive(Debug, Clone, Default)]
pub(crate) struct SimScratch {
    /// The psum strip of one (image, ofmap row): one row of partial sums
    /// per filter of the group, filter-major (`M x E`, with `E` rounded
    /// up to a multiple of 8 in the AVX2 pair-MAC loop), so one ifmap
    /// row slides under every filter before the next row is read.
    pub(crate) row_acc: Vec<i32>,
    /// The band buffer of the layer kernel's stride-1 pair-MAC loop. It
    /// is used only where the kernel runs its AVX2 copy (the host has
    /// AVX2, checked once per layer with `is_x86_feature_detected!`) on
    /// a stride-1 layer with `R` = 3 or 5, or a 1x1 layer of two or more
    /// channels; every other layer slides and leaves it untouched.
    /// 16-bit operand pairs, one row per ifmap row of the band (`C x R`
    /// rows, kept as a ring across a plane's bands) or, for `R` = 1,
    /// per channel pair (`C / 2` rows), each `E + R - 1` pairs with `E`
    /// rounded up to a multiple of 8. That is under `4 C R (E + R + 7)`
    /// bytes: 3.4 KB for a 16-channel 3x3 layer at `E` = 13. One
    /// (image, ofmap row) band at a time, never a whole layer.
    pub(crate) pairs: Vec<[i16; 2]>,
    /// RLC code-word buffer for compression-ratio accounting.
    pub(crate) rlc_words: Vec<u64>,
}
