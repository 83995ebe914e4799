//! Per-request energy/delay attribution.
//!
//! The paper's central artifact is an attribution — energy split per
//! storage level and per datatype (§VI) — which [`CostReport`] already
//! computes per plan, offline. This module carries that attribution
//! through the serving path: every completed request (telemetry
//! enabled) gets an [`Attribution`] tying its wall-clock latency
//! breakdown to the plan's analytic energy and delay, plus the
//! *residual* between the cycles the simulator actually spent and the
//! cycles the plan predicted — the prediction error an admission
//! controller must trust before scheduling against `analytic_delay`.

use crate::metrics::LatencyBreakdown;
use eyeriss_arch::cost::CostReport;
use eyeriss_telemetry::FlightRecord;

/// Where one request's nanoseconds and nanojoules went.
///
/// Energy and delay figures are **batch-level**: [`Attribution::report`]
/// is bit-exact against the executed
/// [`CompiledPlan::cost_report`](crate::CompiledPlan::cost_report) and
/// [`Attribution::analytic_delay`] against its
/// [`analytic_delay`](crate::CompiledPlan::analytic_delay), because the
/// whole batch rode one plan. [`Attribution::per_request`] derives this
/// request's even energy share.
///
/// The residual is kept in the **cycle** domain (simulated cycles minus
/// the plan's predicted delay in MAC-time units) rather than wall
/// nanoseconds: both operands live on the model's clock, so the error
/// is host-machine independent. Wall time is still available through
/// [`Attribution::latency`].
#[derive(Debug, Clone, Copy)]
pub struct Attribution {
    /// The request id.
    pub id: u64,
    /// Trace id linking this record to its span tree (0 = untraced).
    pub trace: u64,
    /// Requests that shared the batch (≥ 1).
    pub batch_size: usize,
    /// Wall-clock queue/compile/execute breakdown.
    pub latency: LatencyBreakdown,
    /// The executed plan's full energy+delay report for the batch —
    /// per-level × per-datatype, bit-exact against the plan.
    pub report: CostReport,
    /// The plan's predicted delay for the batch, in cycles (MAC-time
    /// units), weighted stages only.
    pub analytic_delay: f64,
    /// Cycles the simulator measured across the batch's weighted
    /// stages.
    pub measured_cycles: u64,
    /// Submission time, ns since the server's telemetry epoch.
    pub submitted_ns: u64,
    /// Completion time, ns since the server's telemetry epoch.
    pub completed_ns: u64,
}

impl Attribution {
    /// This request's even share of the batch energy: the batch report
    /// with every energy term divided by [`Attribution::batch_size`]
    /// (delays untouched — the batch's latency is shared, not split).
    pub fn per_request(&self) -> CostReport {
        self.report.scaled(1.0 / self.batch_size as f64)
    }

    /// Prediction error in cycles: measured minus predicted (positive
    /// = the plan was optimistic). Histogrammed server-wide as
    /// `serve.delay_residual`.
    pub fn residual_cycles(&self) -> f64 {
        self.measured_cycles as f64 - self.analytic_delay
    }

    /// The flat summary fed to the
    /// [`SloMonitor`](eyeriss_telemetry::SloMonitor) flight ring.
    pub fn flight_record(&self) -> FlightRecord {
        FlightRecord {
            id: self.id,
            trace: self.trace,
            start_ns: self.submitted_ns,
            end_ns: self.completed_ns,
            latency_ns: self.latency.total().as_nanos().min(u64::MAX as u128) as u64,
            batch: self.batch_size as u64,
            energy: self.report.total_energy,
            analytic_delay: self.analytic_delay,
            residual: self.residual_cycles(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eyeriss_arch::cost::TableIv;
    use eyeriss_arch::{DataType, Level};
    use std::time::Duration;

    fn sample() -> Attribution {
        let mut report = CostReport::zero(TableIv.descriptor());
        report.alu_energy = 100.0;
        report.total_energy = 100.0;
        Attribution {
            id: 3,
            trace: 11,
            batch_size: 4,
            latency: LatencyBreakdown {
                queue: Duration::from_micros(10),
                compile: Duration::from_micros(2),
                execute: Duration::from_micros(30),
            },
            report,
            analytic_delay: 900.0,
            measured_cycles: 1000,
            submitted_ns: 500,
            completed_ns: 42_500,
        }
    }

    #[test]
    fn per_request_is_the_even_energy_share() {
        let att = sample();
        let share = att.per_request();
        assert_eq!(share.total_energy, 25.0);
        assert_eq!(share.delay, att.report.delay, "delay is not split");
        for level in Level::ALL {
            assert_eq!(share.energy_at(level), att.report.energy_at(level) / 4.0);
        }
        for ty in DataType::ALL {
            assert_eq!(share.energy_of(ty), att.report.energy_of(ty) / 4.0);
        }
    }

    #[test]
    fn residual_and_flight_record_agree() {
        let att = sample();
        assert_eq!(att.residual_cycles(), 100.0);
        let rec = att.flight_record();
        assert_eq!(rec.id, 3);
        assert_eq!(rec.trace, 11);
        assert_eq!(rec.batch, 4);
        assert_eq!(rec.latency_ns, 42_000);
        assert_eq!((rec.start_ns, rec.end_ns), (500, 42_500));
        assert_eq!(rec.energy, 100.0);
        assert_eq!(rec.residual, 100.0);
    }
}
