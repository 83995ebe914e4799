//! `eyeriss-serve` — an inference-serving runtime over the Eyeriss
//! reproduction.
//!
//! The paper optimizes per-layer dataflow mappings offline and runs them
//! on one fixed 168-PE array; sustained serving throughput instead comes
//! from *amortizing* configuration cost and keeping every array busy
//! across requests (the direction Eyeriss v2 and the ROADMAP north star
//! point at). This crate turns the workspace's mapping search
//! (`eyeriss-dataflow`), bit-exact simulator (`eyeriss-sim`) and
//! multi-array partitioning (`eyeriss-cluster`) into a service:
//!
//! * [`plan`] — the **plan compiler**: runs the `(partition, mapping)`
//!   co-optimization once per distinct layer problem and stores the
//!   immutable [`ClusterPlan`](eyeriss_cluster::ClusterPlan) in a
//!   content-keyed [`PlanCache`], so repeated shapes (VGG's stacked 3×3
//!   layers) and repeated requests never re-search.
//! * [`batch`] — the **batching policy** ([`BatchPolicy`]): how wide a
//!   batch of queued requests may grow and how long its first request
//!   waits for company before it executes as one cluster run.
//! * [`runtime`] — the **serving pipeline**: admission into a bounded
//!   ready queue (a full queue makes [`Server::submit`] wait) and a
//!   supervised pool of workers, each forming batches from that queue
//!   and executing them on a private multi-array
//!   [`Cluster`](eyeriss_cluster::Cluster) from cached plans, with
//!   per-request queue/compile/execute latency accounting.
//! * [`persist`] — **plan-cache persistence**: compiled plans saved to
//!   disk under a versioned schema and reloaded bit-exactly by a cold
//!   process, so serving resumes with zero mapping searches.
//! * [`metrics`] — per-request latency breakdowns and the
//!   [`ServerSnapshot`]: counters and streaming latency histograms,
//!   live while the server runs and final from [`Server::shutdown`].
//! * [`attrib`] — per-request **energy/delay attribution**: each traced
//!   request carries the executed plan's
//!   [`CostReport`](eyeriss_arch::cost::CostReport) plus the residual
//!   between simulated and predicted cycles, feeding the
//!   `serve.delay_residual` histogram and the
//!   [`SloMonitor`] flight ring.
//! * [`sched`] — **SLO-aware multi-tenant scheduling**: a tenant
//!   registry (weights, priorities, rate limits), an admission
//!   controller that rejects infeasible deadlines up front and sheds
//!   lowest-tier work while the SLO monitor burns, and a
//!   deadline/priority ready queue arbitrated by deficit round robin.
//!   Every server runs it: tenants come from [`SchedConfig`] on
//!   [`ServeConfig::sched`], and a plain submit lands on the
//!   always-present default tenant with no deadline, in FIFO order.
//! * [`recover`] — **fault tolerance**: workers run batches under
//!   `catch_unwind` with a supervisor restarting the dead; ABFT
//!   checksum mismatches and injected crashes retry with bounded
//!   backoff ([`RecoveryPolicy`]) through the ready queue's
//!   [`requeue`](sched::ReadyQueue::requeue); persistently faulty
//!   arrays are quarantined and the worker re-plans onto the healthy
//!   subset. Deterministic fault injection opts in via
//!   [`ServeConfig::faults`] with a [`FaultPlan`]; ABFT verification
//!   via [`ServeConfig::abft`]. Both default off and cost nothing when
//!   disabled.
//!
//! # Example
//!
//! ```
//! use eyeriss_serve::{BatchPolicy, ServeConfig, Server};
//! use eyeriss_nn::network::NetworkBuilder;
//! use eyeriss_nn::synth;
//! use std::time::Duration;
//!
//! let net = NetworkBuilder::new(3, 19)
//!     .conv("C1", 8, 3, 2)?
//!     .fully_connected("FC", 10)?
//!     .build(7);
//! let shape = net.stages()[0].shape;
//! let golden = net.clone();
//!
//! let mut cfg = ServeConfig::new();
//! cfg.policy = BatchPolicy { max_batch: 4, max_wait: Duration::from_millis(5) };
//! let server = Server::start(net, cfg);
//!
//! let input = synth::ifmap(&shape, 1, 42);
//! let response = server.submit(input.clone())?.wait()?;
//! assert_eq!(response.output, golden.forward(1, &input)); // bit-exact
//!
//! let last = server.shutdown();
//! assert_eq!(last.completed, 1);
//! assert_eq!(last.total_ns.sum(), response.latency.total().as_nanos() as u64);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod attrib;
pub mod batch;
pub mod error;
pub mod metrics;
pub mod persist;
pub mod plan;
pub mod recover;
pub mod runtime;
pub mod sched;

pub use attrib::Attribution;
pub use batch::BatchPolicy;
pub use error::ServeError;
pub use eyeriss_sim::fault::{FaultInjector, FaultKind, FaultPlan, FaultSpec, FaultWindow};
pub use eyeriss_telemetry::{FlightDump, FlightRecord, SloMonitor, SloSignal, SloSpec};
pub use metrics::{LatencyBreakdown, ServerSnapshot};
pub use plan::{CacheStats, CompiledPlan, Footprint, PlanCache, PlanCompiler, PlanKey, StagePlan};
pub use recover::RecoveryPolicy;
pub use runtime::{RequestHandle, Response, ServeConfig, Server, SubmitOptions};
pub use sched::{
    AdmissionError, Priority, RateLimit, SchedConfig, TenantId, TenantSnapshot, TenantSpec,
};
