//! The reusable simulation arena: every buffer the execution engine
//! needs, owned once and recycled across passes, layers and runs.
//!
//! The Eyeriss argument is that data movement, not compute, dominates
//! cost; the simulator's own hot path used to prove the point by
//! accident — allocating fresh `Vec`s for PE scratchpads, psum strips
//! and RLC code words on every pass. [`SimScratch`] hoists all of that
//! into one arena so the steady-state execute path performs no heap
//! allocation beyond the returned output tensor.

use crate::gbuf::GlobalBuffer;
use crate::noc::{MulticastBus, PsumChain};
use crate::pe::Pe;

/// Reusable buffers for [`Accelerator`](crate::Accelerator) runs.
///
/// # Reuse rules
///
/// * A scratch is **transient state, not configuration**: its contents
///   after a run are meaningless, and every run re-arms it (PE pool
///   resized and reset, buffer/NoC counters zeroed) before executing.
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
    /// The PE pool: one entry per physical PE, spad allocations kept
    /// across runs.
    pub(crate) pes: Vec<Pe>,
    /// The psum strip of one PE set: one ofmap row of partial sums per
    /// filter the set interleaves, filter-major (`filters x E`), so one
    /// ifmap row slides under every filter of the set before the next
    /// row is fetched.
    pub(crate) row_acc: Vec<i32>,
    /// RLC code-word buffer for compression-ratio accounting.
    pub(crate) rlc_words: Vec<u64>,
    /// CSC value buffer for one encoded ifmap row (sparse execution).
    pub(crate) csc_values: Vec<eyeriss_nn::Fix16>,
    /// CSC index buffer paired with `csc_values`.
    pub(crate) csc_indices: Vec<u16>,
    /// Global-buffer occupancy/traffic counters.
    pub(crate) glb: GlobalBuffer,
    /// Filter multicast bus counters.
    pub(crate) filter_bus: MulticastBus,
    /// Ifmap multicast bus counters.
    pub(crate) ifmap_bus: MulticastBus,
    /// Psum chain counters.
    pub(crate) chain: PsumChain,
}

impl SimScratch {
    /// Creates an empty scratch. Buffers grow on first use and are kept
    /// thereafter.
    pub fn new() -> Self {
        SimScratch::default()
    }

    /// Re-arms the scratch for one layer run: the PE pool is resized to
    /// `pes` engines of the given spad capacities (allocations kept),
    /// every counter is zeroed and the global buffer adopts
    /// `buffer_words` capacity.
    pub(crate) fn prepare(
        &mut self,
        pes: usize,
        filter_capacity: usize,
        psum_capacity: usize,
        zero_gating: bool,
        buffer_words: usize,
    ) {
        self.pes
            .resize_with(pes, || Pe::new(filter_capacity, psum_capacity));
        for pe in &mut self.pes {
            pe.reset_run(filter_capacity, psum_capacity, zero_gating);
        }
        self.glb.reset(buffer_words);
        self.filter_bus.reset();
        self.ifmap_bus.reset();
        self.chain.reset();
    }
}
