//! # eyeriss — a Rust reproduction of the Eyeriss spatial architecture
//!
//! This crate is the facade over a from-scratch reproduction of
//! *Eyeriss: A Spatial Architecture for Energy-Efficient Dataflow for
//! Convolutional Neural Networks* (Chen, Emer, Sze — ISCA 2016):
//!
//! * [`nn`] — CNN substrate: Table I/II shapes, Q8.8 tensors, golden
//!   CONV/FC/POOL references, and the shared [`LayerProblem`]/[`Workload`]
//!   vocabulary.
//! * [`arch`] — the Table IV energy hierarchy, Fig. 7a area model and
//!   accelerator configurations.
//! * [`dataflow`] — the open [`Dataflow`] trait, the six builtin mapping
//!   spaces (RS, WS, OSA, OSB, OSC, NLR), the [`DataflowRegistry`] and
//!   the Section VI-C optimizer (generic over any registered space).
//! * [`analysis`] — experiment runners regenerating every evaluation
//!   figure (7, 10–15).
//! * [`sim`] — a functional chip simulator executing the row-stationary
//!   dataflow bit-exactly against the golden reference.
//! * [`cluster`] — multi-array partitioning and parallel scheduling
//!   (beyond the paper).
//! * [`serve`] — the inference-serving runtime: plan compilation into a
//!   content-keyed cache (persistable to disk), dynamic batching and a
//!   multi-array scheduler (beyond the paper).
//! * [`telemetry`] — live counters/gauges/histograms, spans and the
//!   snapshot + Chrome-trace exporters every layer records into.
//!
//! The public API is the [`Engine`] façade: one typed builder, three
//! execution tiers (`simulate` / `run` / `serve`) and a shared,
//! persistable plan cache.
//!
//! # Quickstart
//!
//! ```
//! use eyeriss::{Engine, Objective};
//! use eyeriss::prelude::*;
//!
//! // One engine = one deployment: hardware, cluster width, objective,
//! // mapping space (any registered `Dataflow`; row stationary default).
//! let engine = Engine::builder()
//!     .hardware(AcceleratorConfig::eyeriss_chip())
//!     .arrays(2)
//!     .objective(Objective::EnergyDelayProduct)
//!     .build()?;
//!
//! // Search tier: optimal mapping + compiled cluster plan, cached.
//! let conv = LayerProblem::new(LayerShape::conv(8, 4, 13, 3, 2)?, 2);
//! let best = engine.best_mapping(&conv)?;
//! assert!(best.active_pes > 0);
//! let plan = engine.plan(&conv)?;
//!
//! // Execution tiers are bit-exact against the golden reference.
//! let input = synth::ifmap(&conv.shape, 2, 1);
//! let weights = synth::filters(&conv.shape, 2);
//! let bias = synth::biases(&conv.shape, 3);
//! let golden = reference::conv_accumulate(&conv.shape, 2, &input, &weights, &bias);
//! assert_eq!(engine.simulate(&conv, &input, &weights, &bias)?.psums, golden);
//! assert_eq!(engine.run(&conv, &input, &weights, &bias)?.psums, golden);
//! assert_eq!(plan.arrays, 2);
//! # Ok::<(), eyeriss::EngineError>(())
//! ```
//!
//! Compare the six dataflows on AlexNet CONV3 under the paper's
//! fixed-area comparison:
//!
//! ```
//! use eyeriss::prelude::*;
//! use eyeriss::Objective;
//! use eyeriss::dataflow::search;
//!
//! let problem = LayerProblem::new(LayerShape::conv(384, 256, 15, 3, 1)?, 16);
//! let em = TableIv; // the canonical CostModel; any CostModel works
//! let reg = DataflowRegistry::builtin();
//! let mut results = Vec::new();
//! for df in reg.iter() {
//!     let hw = df.comparison_hardware(256);
//!     if let Some(best) = search::optimize(df.as_ref(), &problem, &hw, &em, Objective::Energy) {
//!         results.push((df.id(), em.energy_of(&best.profile)));
//!     }
//! }
//! let rs = results[0].1;
//! assert!(results.iter().skip(1).all(|&(_, e)| e > rs), "RS wins");
//! # Ok::<(), eyeriss::nn::ShapeError>(())
//! ```

pub use eyeriss_analysis as analysis;
pub use eyeriss_arch as arch;
pub use eyeriss_cluster as cluster;
pub use eyeriss_dataflow as dataflow;
pub use eyeriss_nn as nn;
pub use eyeriss_serve as serve;
pub use eyeriss_sim as sim;
pub use eyeriss_telemetry as telemetry;
pub use eyeriss_wire as wire;

pub mod engine;
pub mod error;

pub use engine::{Engine, EngineBuilder, ServeOptions};
pub use error::{BuildError, EngineError};

// The façade's shared vocabulary, re-exported at the crate root.
pub use eyeriss_dataflow::search::Objective;
pub use eyeriss_dataflow::{CandidateSink, Dataflow, DataflowId, DataflowKind, DataflowRegistry};
pub use eyeriss_nn::{LayerProblem, Workload};

/// One-stop imports for the common workflows.
pub mod prelude {
    pub use crate::engine::{Engine, EngineBuilder, ServeOptions};
    pub use crate::error::{BuildError, EngineError};
    pub use eyeriss_analysis::{run_conv_layers, run_fc_layers, run_layers, DataflowRun};
    pub use eyeriss_arch::cost::{
        CostDescriptor, CostModel, CostModelError, CostModelId, CostModelRegistry, CostReport,
        TableIv,
    };
    pub use eyeriss_arch::energy::{EnergyModel, Level};
    pub use eyeriss_arch::{AcceleratorConfig, DataType, GridDims};
    pub use eyeriss_cluster::{plan_layer, Cluster, ClusterRun, Partition, SharedDram};
    pub use eyeriss_dataflow::registry;
    pub use eyeriss_dataflow::search::{optimize, Objective};
    pub use eyeriss_dataflow::{
        CandidateSink, Dataflow, DataflowId, DataflowKind, DataflowRegistry, MappingCandidate,
    };
    pub use eyeriss_nn::{
        alexnet, mobilenet, reference, synth, Fix16, LayerProblem, LayerShape, Tensor4, Workload,
    };
    pub use eyeriss_serve::{BatchPolicy, PlanCache, PlanCompiler, ServeConfig, Server};
    pub use eyeriss_sim::{Accelerator, SimStats};
    pub use eyeriss_telemetry::{Telemetry, TelemetrySnapshot};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let engine = Engine::builder().build().unwrap();
        let problem = LayerProblem::new(LayerShape::conv(4, 3, 9, 3, 1).unwrap(), 1);
        let best = engine.best_mapping(&problem).unwrap();
        assert!(best.profile.alu_ops > 0.0);
    }

    #[test]
    fn canonical_cost_model_agrees_with_the_energy_table() {
        // A searched winner's Table IV report cells are its counts times
        // the raw Table IV energy table, and sum to `energy_of`.
        let shape = LayerShape::conv(4, 3, 9, 3, 1).unwrap();
        let rs = registry::builtin(DataflowKind::RowStationary);
        let hw = rs.comparison_hardware(256);
        let best = optimize(
            rs,
            &LayerProblem::new(shape, 1),
            &hw,
            &TableIv,
            Objective::Energy,
        )
        .unwrap();
        let em = EnergyModel::table_iv();
        let report = TableIv.report(&best.profile, best.active_pes);
        for ty in DataType::ALL {
            for level in Level::ALL {
                assert_eq!(
                    report.energy_cell(ty, level).to_bits(),
                    (best.profile.of(ty).at_level(level) * em.cost(level)).to_bits()
                );
            }
        }
        assert_eq!(
            report.total_energy.to_bits(),
            TableIv.energy_of(&best.profile).to_bits()
        );
    }
}
