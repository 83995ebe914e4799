//! Typed errors of the [`crate::Engine`] façade.
//!
//! One enum covers every tier a façade call can fail in, with `From`
//! conversions from each of those layers' own error types, so `?`
//! composes across the whole stack and callers can still match on
//! *which* layer refused. Search and pricing refusals surface as
//! [`BuildError`]s or [`EngineError::NoMapping`].

use eyeriss_cluster::ClusterError;
use eyeriss_dataflow::DataflowId;
use eyeriss_nn::ShapeError;
use eyeriss_serve::ServeError;
use eyeriss_sim::SimError;
use std::fmt;

/// Why an [`crate::Engine`] could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// `arrays(0)` — a cluster needs at least one array.
    ZeroArrays,
    /// `workers == 0` in serving options.
    ZeroWorkers,
    /// The selected dataflow id is not in the engine's registry.
    UnknownDataflow(String),
    /// Two registered dataflows share an id.
    DuplicateDataflow(DataflowId),
    /// The selected cost-model id is not in the engine's registry.
    UnknownCostModel(String),
    /// Two registered cost models share an id.
    DuplicateCostModel(eyeriss_arch::CostModelId),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::ZeroArrays => write!(f, "engine needs at least one array"),
            BuildError::ZeroWorkers => write!(f, "serving needs at least one worker"),
            BuildError::UnknownDataflow(label) => {
                write!(f, "dataflow {label:?} is not registered with this engine")
            }
            BuildError::DuplicateDataflow(id) => {
                write!(f, "dataflow {id} registered twice")
            }
            BuildError::UnknownCostModel(label) => {
                write!(f, "cost model {label:?} is not registered with this engine")
            }
            BuildError::DuplicateCostModel(id) => {
                write!(f, "cost model {id} registered twice")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Why an engine operation failed.
#[derive(Debug, Clone)]
pub enum EngineError {
    /// The engine could not be configured.
    Build(BuildError),
    /// A layer shape failed validation.
    Shape(ShapeError),
    /// The selected dataflow has no feasible mapping for a problem.
    NoMapping {
        /// The dataflow that was searched.
        dataflow: DataflowId,
        /// The problem, rendered.
        detail: String,
    },
    /// The single-array simulator failed.
    Sim(SimError),
    /// The cluster executor failed.
    Cluster(ClusterError),
    /// The serving layer failed (plan compilation, queueing, persistence).
    Serve(ServeError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Build(e) => write!(f, "engine build failed: {e}"),
            EngineError::Shape(e) => write!(f, "invalid layer shape: {e}"),
            EngineError::NoMapping { dataflow, detail } => {
                write!(f, "{dataflow} has no feasible mapping for {detail}")
            }
            EngineError::Sim(e) => write!(f, "simulation failed: {e}"),
            EngineError::Cluster(e) => write!(f, "cluster execution failed: {e}"),
            EngineError::Serve(e) => write!(f, "serving failed: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<BuildError> for EngineError {
    fn from(e: BuildError) -> Self {
        EngineError::Build(e)
    }
}

impl From<ShapeError> for EngineError {
    fn from(e: ShapeError) -> Self {
        EngineError::Shape(e)
    }
}

impl From<SimError> for EngineError {
    fn from(e: SimError) -> Self {
        EngineError::Sim(e)
    }
}

impl From<ClusterError> for EngineError {
    fn from(e: ClusterError) -> Self {
        EngineError::Cluster(e)
    }
}

impl From<ServeError> for EngineError {
    fn from(e: ServeError) -> Self {
        EngineError::Serve(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eyeriss_serve::AdmissionError;

    #[test]
    fn displays_every_variant() {
        assert!(EngineError::from(BuildError::ZeroArrays)
            .to_string()
            .contains("at least one array"));
        assert!(
            EngineError::Build(BuildError::UnknownDataflow("TOY".into()))
                .to_string()
                .contains("TOY")
        );
        assert!(EngineError::NoMapping {
            dataflow: DataflowId::new("WS"),
            detail: "CONV1 at batch 64".into(),
        }
        .to_string()
        .contains("WS"));
        assert!(EngineError::Serve(AdmissionError::QueueFull.into())
            .to_string()
            .contains("full"));
        assert!(
            EngineError::Build(BuildError::UnknownCostModel("lp-28nm".into()))
                .to_string()
                .contains("lp-28nm")
        );
    }

    #[test]
    fn is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<EngineError>();
        check::<BuildError>();
    }
}
