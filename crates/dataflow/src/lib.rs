//! CNN dataflow taxonomy and mapping spaces for the Eyeriss reproduction.
//!
//! Implements Section IV (the taxonomy of existing dataflows), Section V
//! (the row-stationary dataflow) and the per-dataflow simulation models of
//! Section VI-A. Each dataflow is a parameterized *mapping space*: given a
//! layer shape, a batch size and an accelerator configuration it streams
//! candidate mappings into a [`CandidateSink`], each with exact aggregate
//! access counts per data type across the four-level hierarchy. The
//! optimizer of Section VI-C (in [`search`]) folds them into the most
//! energy-efficient candidate, skipping groups whose lower bound cannot
//! win.
//!
//! | Dataflow | Data handling (Table III) | Module |
//! |----------|---------------------------|--------|
//! | RS   | all reuse types at RF; conv reuse + psum accumulation in array | [`rs`] |
//! | WS   | weights stationary in RF; psums to array/buffer | [`ws`] |
//! | OSA  | SOC-MOP: psum stationary; conv reuse in array | [`os_a`] |
//! | OSB  | MOC-MOP: psum stationary; conv + ifmap reuse in array | [`os_b`] |
//! | OSC  | MOC-SOP: psum stationary; ifmap reuse in array | [`os_c`] |
//! | NLR  | no RF; ifmap reuse + psum accumulation in array | [`nlr`] |
//!
//! Each mapping space implements the open [`Dataflow`] trait and is
//! looked up through the [`DataflowRegistry`]; the optimizer in
//! [`search`] is generic over `&dyn Dataflow`, so spaces registered
//! beyond the paper's six are searched without any optimizer changes.
//!
//! # Example
//!
//! ```
//! use eyeriss_dataflow::{registry, search, DataflowKind};
//! use eyeriss_dataflow::search::Objective;
//! use eyeriss_arch::TableIv;
//! use eyeriss_nn::{LayerProblem, LayerShape};
//!
//! let rs = registry::builtin(DataflowKind::RowStationary);
//! let problem = LayerProblem::new(LayerShape::conv(96, 3, 227, 11, 4)?, 16); // CONV1
//! let best = search::optimize(rs, &problem, &rs.comparison_hardware(256),
//!                             &TableIv, Objective::Energy).unwrap();
//! assert!(best.active_pes > 0 && best.active_pes <= 256);
//! # Ok::<(), eyeriss_nn::ShapeError>(())
//! ```
//!
//! The optimizer prices candidates through the open
//! [`CostModel`](eyeriss_arch::CostModel) trait the same way it maps
//! through `&dyn Dataflow`: pass any model from a
//! [`CostModelRegistry`](eyeriss_arch::CostModelRegistry) in place of
//! [`TableIv`](eyeriss_arch::TableIv) above.

pub mod candidate;
pub mod dataflow;
pub mod error;
pub mod flex;
mod grouped;
pub mod id;
pub mod kind;
pub mod model;
pub mod nlr;
pub mod os_a;
pub mod os_b;
pub mod os_c;
pub mod registry;
pub mod rs;
pub mod search;
pub mod split;
pub mod wire;
pub mod ws;

pub use candidate::{MappingCandidate, MappingParams, ParamsMismatch};
pub use dataflow::{CandidateSink, Dataflow};
pub use error::DataflowError;
pub use id::DataflowId;
pub use kind::DataflowKind;
pub use registry::DataflowRegistry;
pub use split::ReuseSplit;
