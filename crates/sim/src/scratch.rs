//! The reusable simulation arena: every buffer a layer run needs, owned
//! once and recycled across layers and runs.
//!
//! The Eyeriss argument is that data movement, not compute, dominates
//! cost; the simulator's own hot path used to prove the point by
//! accident — allocating fresh `Vec`s for psum strips and RLC code words
//! on every pass. [`SimScratch`] hoists all of that into one arena so the
//! steady-state execute path performs no heap allocation beyond the
//! returned output tensor.

/// Reusable buffers for [`Accelerator`](crate::Accelerator) runs: the
/// layer kernel's psum strip, the band buffer of its AVX2 copy and the
/// RLC code words. It holds no PE
/// pool — a run counts PE accesses in closed form and computes values
/// straight from the tensors — and no counters.
///
/// # Reuse rules
///
/// * A scratch is **transient state, not configuration**: its contents
///   after a run are meaningless, and every run overwrites what it reads.
/// * One scratch may be reused across **any** sequence of runs — other
///   layers, other batch sizes, other accelerator configurations, other
///   `Accelerator` instances. Reuse never changes a single output bit
///   or statistic; it only removes allocations. (Proven by the
///   scratch-reuse proptests in `tests/scratch_bitexact.rs`.)
/// * A scratch is **not** shareable between concurrent runs: it is
///   `&mut` for the duration of one layer. Give each worker thread its
///   own (see `eyeriss_par::par_map_slice_with`).
///
/// [`Accelerator::run_conv`](crate::Accelerator::run_conv) keeps a
/// private scratch internally, so plain callers already reuse buffers
/// across layers; pass an explicit scratch via
/// [`Accelerator::run_conv_with`](crate::Accelerator::run_conv_with)
/// only when pooling contexts across accelerators (e.g. a cluster
/// worker).
///
/// # Example
///
/// ```
/// use eyeriss_sim::{Accelerator, SimScratch};
/// use eyeriss_arch::AcceleratorConfig;
/// use eyeriss_nn::{synth, LayerShape};
///
/// let shape = LayerShape::conv(4, 3, 11, 3, 2)?;
/// let input = synth::ifmap(&shape, 1, 1);
/// let weights = synth::filters(&shape, 2);
/// let bias = synth::biases(&shape, 3);
///
/// let mut scratch = SimScratch::new();
/// let mut chip = Accelerator::new(AcceleratorConfig::eyeriss_chip());
/// let a = chip.run_conv_with(&mut scratch, &shape, 1, &input, &weights, &bias)?;
/// let b = chip.run_conv_with(&mut scratch, &shape, 1, &input, &weights, &bias)?;
/// assert_eq!(a.psums, b.psums); // reuse is invisible in the results
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimScratch {
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

impl SimScratch {
    /// Creates an empty scratch. Buffers grow on first use and are kept
    /// thereafter.
    pub fn new() -> Self {
        SimScratch::default()
    }
}
