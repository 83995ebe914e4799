//! Functional simulator of the Eyeriss chip (Fig. 4, Section V-E).
//!
//! Executes the row-stationary dataflow on a modeled spatial array with
//! real 16-bit fixed-point data, producing **bit-exact** ofmaps against the
//! golden reference in `eyeriss-nn` while counting every data movement
//! across the DRAM / global buffer / array / RF hierarchy. This plays the
//! role of the fabricated chip in the paper: an independent implementation
//! of the dataflow whose measured access ratios verify the analytical
//! model (Section VII-A's "verified by our Eyeriss chip measurement
//! results").
//!
//! Components:
//!
//! * [`pe`] — a processing engine with filter/ifmap/psum scratchpads,
//!   1-D convolution primitives (Fig. 5) and zero-gating (Section V-E).
//! * [`noc`] — the three NoCs: horizontal filter multicast, diagonal ifmap
//!   multicast and the vertical psum accumulation chain (Fig. 6).
//! * [`gbuf`] — the capacity-checked global buffer with per-type regions.
//! * [`rlc`] — the run-length compression codec used on DRAM transfers.
//! * [`csc`] — the compressed-sparse-column codec and storage accounting
//!   behind opt-in sparse PE execution (the Eyeriss v2 format).
//! * [`mesh`] — the hierarchical-mesh NoC model (Eyeriss v2): router
//!   clusters with unicast/multicast/broadcast delivery modes.
//! * [`passes`] — the two-phase mapping: logical PE sets folded into
//!   processing passes (Section V-B), derived from the same mapping
//!   optimizer the analysis framework uses.
//! * [`chip`] — the accelerator: CONV/FC layers as a pass walk that counts
//!   every access in closed form plus a layer kernel that computes the
//!   psums, and POOL layers.
//! * [`fault`] — deterministic, seeded fault injection (bit flips, stalls,
//!   crashes) for chaos testing the cluster and serving layers.
//! * [`scratch`] — the reusable simulation arena: the psum strip and RLC
//!   buffers recycled across layers and runs so the steady-state execute
//!   path is allocation-free.
//! * [`stats`] — measured access counts, cycles and sparsity statistics.
//!
//! # Example
//!
//! ```
//! use eyeriss_sim::chip::Accelerator;
//! use eyeriss_arch::AcceleratorConfig;
//! use eyeriss_nn::{synth, reference, LayerShape};
//!
//! let shape = LayerShape::conv(4, 3, 9, 3, 1)?;
//! let input = synth::ifmap(&shape, 2, 1);
//! let weights = synth::filters(&shape, 2);
//! let bias = synth::biases(&shape, 3);
//!
//! let mut acc = Accelerator::new(AcceleratorConfig::eyeriss_chip());
//! let run = acc.run_conv(&shape, 2, &input, &weights, &bias)?;
//! let golden = reference::conv_accumulate(&shape, 2, &input, &weights, &bias);
//! assert_eq!(run.psums, golden); // bit-exact
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod chip;
pub mod csc;
pub mod dram;
pub mod error;
pub mod fault;
pub mod gbuf;
pub mod mesh;
pub mod noc;
pub mod passes;
pub mod pe;
pub mod rlc;
pub mod runner;
pub mod scratch;
pub mod stats;

pub use chip::Accelerator;
pub use error::SimError;
pub use fault::{FaultInjector, FaultKind, FaultPlan, FaultSpec, FaultWindow};
pub use scratch::SimScratch;
pub use stats::SimStats;
