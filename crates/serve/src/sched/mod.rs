//! `serve::sched` — SLO-aware multi-tenant admission control and
//! deadline scheduling.
//!
//! The scheduling layer between submission and execution. Every
//! [`Server`](crate::Server) routes every request through
//!
//! * a [`tenant::TenantRegistry`] — per-tenant weight, priority tier
//!   and token-bucket rate limit, carried on
//!   [`SubmitOptions`](crate::SubmitOptions);
//! * an [`admission::AdmissionController`] — completion time estimated
//!   from the plan's analytic delay (calibrated to wall time by an
//!   EWMA the workers feed) plus the live queue backlog; requests that
//!   cannot make their deadline are rejected **now** with a typed
//!   [`admission::AdmissionError`], and lowest-tier work is shed while
//!   the [`SloMonitor`](eyeriss_telemetry::SloMonitor) burn signal is
//!   live;
//! * a [`queue::ReadyQueue`] — earliest-deadline-first with priority
//!   tiers and aging, arbitrated across tenants by deficit round robin
//!   so backlogged tenants' throughput shares converge to their
//!   configured weights.
//!
//! Configure it with [`SchedConfig`] on
//! [`ServeConfig::sched`](crate::ServeConfig) (or
//! `ServeOptions::sched` through the engine). Without one a server runs
//! [`SchedConfig::default`]: a plain submit lands on the always-present
//! `"default"` tenant with no deadline, so requests dispatch in FIFO
//! order, and a full queue makes [`Server::submit`](crate::Server::submit)
//! wait for room.

pub mod admission;
pub mod queue;
pub mod tenant;

pub use admission::{AdmissionController, AdmissionError, AdmitRequest, Backlog, ServiceEstimator};
pub use queue::{Drained, Popped, PushError, Pushed, ReadyQueue};
pub use tenant::{
    Priority, RateLimit, TenantId, TenantRegistry, TenantSnapshot, TenantSpec, TokenBucket,
};

use std::time::Duration;

/// Configuration of the scheduling layer
/// ([`ServeConfig::sched`](crate::ServeConfig); `None` there means
/// [`SchedConfig::default`]). The ready queue holds
/// [`ServeConfig::queue_capacity`](crate::ServeConfig) entries.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Tenants to register at startup, ids assigned in order starting
    /// at 1 (the default tenant is always id 0). More can join later
    /// via [`Server::register_tenant`](crate::Server::register_tenant).
    pub tenants: Vec<TenantSpec>,
    /// DRR quantum: credit granted per round is `quantum × weight`.
    pub quantum: f64,
    /// Aging interval: queued work is promoted one priority tier per
    /// `aging` waited ([`Duration::ZERO`] disables promotion).
    pub aging: Duration,
}

impl SchedConfig {
    /// Defaults: no extra tenants, quantum 1, 50 ms aging.
    pub fn new() -> SchedConfig {
        SchedConfig {
            tenants: Vec::new(),
            quantum: 1.0,
            aging: Duration::from_millis(50),
        }
    }

    /// Adds a tenant to register at startup.
    pub fn tenant(mut self, spec: TenantSpec) -> SchedConfig {
        self.tenants.push(spec);
        self
    }
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig::new()
    }
}
