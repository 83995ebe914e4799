//! Hardware substrate for the Eyeriss (ISCA 2016) reproduction.
//!
//! Models the spatial-architecture accelerator of Section II: an array of
//! processing engines (PEs) with local register files (RFs), a shared global
//! buffer, and off-chip DRAM, plus the normalized energy and area cost
//! models the paper's analysis framework is built on:
//!
//! * [`energy`] — the four-level data-movement hierarchy and the normalized
//!   access energy costs of Table IV (DRAM 200x, buffer 6x, array 2x, RF 1x,
//!   relative to one MAC).
//! * [`cost`] — the [`CostModel`] value over that hierarchy (five energy
//!   costs and five bandwidths) and the one pricing path: energy *and*
//!   bandwidth-derived latency, the canonical [`TableIv`] model, the
//!   unified [`CostReport`] vocabulary and the [`CostModelRegistry`].
//! * [`area`] — the area-per-byte curve of Fig. 7a and the Eq. (2) baseline
//!   storage-area budget used to give every dataflow the same silicon.
//! * [`access`] — access-count containers that both the analytical dataflow
//!   models and the functional simulator produce, so the two can be
//!   cross-checked.
//! * [`config`] — accelerator configurations (PE grid, RF size, buffer
//!   size), including the fabricated chip of Fig. 4 and the 256/512/1024-PE
//!   setups of Section VII.
//!
//! # Example
//!
//! ```
//! use eyeriss_arch::energy::{EnergyModel, Level};
//!
//! let m = EnergyModel::table_iv();
//! assert_eq!(m.cost(Level::Dram), 200.0);
//! assert_eq!(m.cost(Level::Rf), 1.0);
//! ```

pub mod access;
pub mod area;
pub mod config;
pub mod cost;
pub mod energy;
pub mod wire;

pub use access::{AccessCounts, DataType, LayerAccessProfile};
pub use config::{AcceleratorConfig, GridDims};
pub use cost::{
    CostDescriptor, CostFingerprint, CostModel, CostModelError, CostModelId, CostModelRegistry,
    CostReport, TableIv,
};
pub use energy::{EnergyModel, Level};
