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
/// layer kernel's psum strip and the RLC code words. It holds no PE
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
    /// per filter of the group, filter-major (`M x E`), so one ifmap row
    /// slides under every filter before the next row is read.
    pub(crate) row_acc: Vec<i32>,
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
