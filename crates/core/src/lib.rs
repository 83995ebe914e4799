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
//! let em = TableIv; // the canonical CostModel; any registered model works
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

/// # Migration guide: the pre-`Engine` API → the builder-first API
///
/// The version-0.1 `#[deprecated]` shims were **removed** this release
/// (one release after deprecation, as promised). Migrate as follows:
///
/// | Old entry point | New API |
/// |---|---|
/// | `search::best_mapping(kind, &shape, n, &hw, &em)` | `engine.best_mapping(&LayerProblem::new(shape, n))`, or `search::optimize(registry::builtin(kind), &problem, &hw, &cost, objective)` |
/// | `search::best_mapping_with(kind, …, objective)` | same as above — the objective is part of the engine/builder |
/// | `search::best_mappings_with(kind, &[(shape, n)], …)` | `search::optimize_all(df, &[LayerProblem], …)` |
/// | `search::comparison_hardware(kind, pes)` | `registry::builtin(kind).comparison_hardware(pes)` (any `Dataflow` has it) |
/// | `model::model_for(kind)` | `registry::builtin(kind)` or `DataflowRegistry::builtin().get(id)` |
/// | `Cluster::run_conv(partition, &shape, n, …)` | `engine.run(&problem, …)`, or `Cluster::execute_partition(partition, &problem, …)` |
/// | `Cluster::run_planned(&plan, &shape, n, …)` | `engine.run(&problem, …)` (plans cached), or `Cluster::execute(&plan, &problem, …)` |
///
/// ## `EnergyModel` → `CostModel` (this release)
///
/// Cost accounting opened up exactly like the dataflow layer did: the
/// closed `EnergyModel` struct threaded as `&EnergyModel` through every
/// search/plan/stats call is replaced by the open
/// [`CostModel`](eyeriss_arch::CostModel) trait, its canonical
/// [`TableIv`](eyeriss_arch::TableIv) implementation, and a
/// [`CostModelRegistry`](eyeriss_arch::CostModelRegistry):
///
/// | Old | New |
/// |---|---|
/// | `search::optimize(df, &p, &hw, &EnergyModel::table_iv(), obj)` | `search::optimize(df, &p, &hw, &TableIv, obj)` — or any `&dyn CostModel` |
/// | `EnergyModel::new(d, b, a, r, alu)` (panicked) | returns `Result<_, CostModelError>`; wrap in `StaticCostModel::new("id", em)` to search/plan under it |
/// | `Engine::builder().energy_model(em)` | `.cost_model(Arc::new(StaticCostModel::new("id", em)))`, `.register_cost_model(..)` + `.cost_model_id(id)` |
/// | `engine.energy_model()` | `engine.cost_model()` (an `Arc<dyn CostModel>`) and `engine.cost_registry()` |
/// | `PlanCompiler::with_energy_model(em)` | `PlanCompiler::with_cost_model(Arc<dyn CostModel>)` |
/// | `SimStats::energy(&em)` / `ClusterStats::energy(&em)` | same names over `&dyn CostModel`, plus unified `cost_report(..) -> CostReport` |
/// | `profile.energy_at_level(&em, l)` / `energy_of_type(&em, t)` | `CostReport::energy_at(l)` / `energy_of(t)` from `cost.report(&profile, pes)` |
/// | `plan_layer(df, &p, arrays, &hw, &em, ..)` | identical shape, `&dyn CostModel` in place of `&EnergyModel` |
/// | `analysis::experiments::sensitivity::scenarios()` | `scenario_registry()` — perturbed models are registered `CostModel`s |
///
/// [`CostReport`](eyeriss_arch::CostReport) is the unified result
/// vocabulary (per-level × per-data-type energy plus an analytic delay
/// derived from per-level bandwidth); Table IV totals are bit-identical
/// to the old `EnergyModel` path. On disk, every plan-cache key and
/// cluster plan now records a *cost-model descriptor* (label + exact
/// numeric fingerprint; see
/// [`eyeriss_arch::wire::COST_DESCRIPTOR_VERSION`]),
/// which bumped the persisted schemas: plan-cache files to
/// `CACHE_VERSION = 2` and compiled plans to `COMPILED_VERSION = 2`
/// (cluster plans to `PLAN_VERSION = 2`). Version-1 files predate open
/// cost models and are rejected with a typed error — recompile them by
/// warming a fresh cache. Loading resolves descriptors against the
/// engine's cost registry; plans priced under distinct fingerprints
/// never cross-hit the cache, even when they share a label.
///
/// Two older semantic changes to be aware of:
///
/// 1. **Batch size lives in [`LayerProblem`].** Every search/plan/run
///    call takes one `problem` value instead of a `(shape, n)` pair, so
///    caches and persisted plans agree on problem identity.
/// 2. **Dataflows are open.** `DataflowKind` still names the paper's
///    six, but everything dispatches through the [`Dataflow`] trait;
///    `MappingParams::kind()` now returns `Option<DataflowKind>`
///    (`None` for registered extensions) and `params.dataflow()` is the
///    total function. `ParamsMismatch` carries [`DataflowId`]s.
pub mod migration {}

/// One-stop imports for the common workflows.
pub mod prelude {
    pub use crate::engine::{Engine, EngineBuilder, ServeOptions};
    pub use crate::error::{BuildError, EngineError};
    pub use eyeriss_analysis::{run_conv_layers, run_fc_layers, run_layers, DataflowRun};
    pub use eyeriss_arch::cost::{
        CostDescriptor, CostModel, CostModelError, CostModelId, CostModelRegistry, CostReport,
        StaticCostModel, TableIv,
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
        // The TableIv trait object prices searches bit-identically to
        // re-scoring the winner under the raw Table IV energy table.
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
        assert_eq!(
            TableIv.energy_of(&best.profile).to_bits(),
            best.profile
                .total_energy(&EnergyModel::table_iv())
                .to_bits()
        );
    }
}
