//! Error type for the serving runtime.

use crate::sched::AdmissionError;
use eyeriss_cluster::ClusterError;
use eyeriss_dataflow::DataflowError;
use eyeriss_sim::SimError;
use eyeriss_wire::WireError;
use std::fmt;

/// Why a request could not be compiled, scheduled, executed or persisted.
#[derive(Debug, Clone)]
pub enum ServeError {
    /// No feasible `(partition, mapping)` exists for a layer on the
    /// configured cluster, so no plan can be compiled.
    NoPlan(String),
    /// A request's input tensor does not match the served network.
    Input(String),
    /// The server is shutting down (or already gone) and the request
    /// cannot be accepted or completed.
    ShutDown,
    /// The worker executing this request died (panic or unrecoverable
    /// fault) before responding, and its retry budget — if any — was
    /// exhausted. The tenant's request is accounted as failed, not
    /// leaked; a supervisor restarts the worker for subsequent traffic.
    WorkerLost,
    /// The scheduling layer rejected the request: infeasible or expired
    /// deadline, rate limit, overload shed, eviction, a full queue, or
    /// an unknown tenant.
    Admission(AdmissionError),
    /// The cluster executor failed on a batch.
    Cluster(ClusterError),
    /// A single-array simulation failed.
    Sim(SimError),
    /// The dataflow layer rejected a plan or params (mismatch, unknown
    /// dataflow).
    Dataflow(DataflowError),
    /// Reading or writing a persisted plan cache failed at the
    /// filesystem level (the path and OS error, rendered).
    Io(String),
    /// A persisted plan cache failed to parse or decode.
    Wire(WireError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::NoPlan(m) => write!(f, "no feasible plan: {m}"),
            ServeError::Input(m) => write!(f, "bad request input: {m}"),
            ServeError::ShutDown => write!(f, "server is shut down"),
            ServeError::WorkerLost => {
                write!(
                    f,
                    "worker lost mid-flight; request failed before a response"
                )
            }
            ServeError::Admission(e) => write!(f, "admission rejected the request: {e}"),
            ServeError::Cluster(e) => write!(f, "cluster execution failed: {e}"),
            ServeError::Sim(e) => write!(f, "array simulation failed: {e}"),
            ServeError::Dataflow(e) => write!(f, "dataflow rejected the plan: {e}"),
            ServeError::Io(m) => write!(f, "plan-cache I/O failed: {m}"),
            ServeError::Wire(e) => write!(f, "plan-cache decode failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<AdmissionError> for ServeError {
    fn from(e: AdmissionError) -> Self {
        ServeError::Admission(e)
    }
}

impl From<ClusterError> for ServeError {
    fn from(e: ClusterError) -> Self {
        ServeError::Cluster(e)
    }
}

impl From<SimError> for ServeError {
    fn from(e: SimError) -> Self {
        ServeError::Sim(e)
    }
}

impl From<DataflowError> for ServeError {
    fn from(e: DataflowError) -> Self {
        ServeError::Dataflow(e)
    }
}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> Self {
        ServeError::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_every_variant() {
        assert!(ServeError::NoPlan("x".into()).to_string().contains("x"));
        assert!(ServeError::ShutDown.to_string().contains("shut down"));
        assert!(ServeError::WorkerLost.to_string().contains("worker lost"));
        assert!(ServeError::from(ClusterError::Crashed { array: 2 })
            .to_string()
            .contains("array 2"));
        assert!(ServeError::from(AdmissionError::DeadlinePassed)
            .to_string()
            .contains("deadline"));
    }

    #[test]
    fn is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<ServeError>();
    }
}
