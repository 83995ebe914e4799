//! Result containers and derived metrics for dataflow comparisons.
//!
//! Mapping parameters are interrogated through the typed
//! [`LayerRun::params_of`] accessor — a [`ParamsMismatch`] error, never
//! a `panic!`, when a run carries another dataflow's knobs.

use eyeriss_arch::access::{DataType, LayerAccessProfile};
use eyeriss_arch::cost::{CostModel, CostReport};
use eyeriss_arch::energy::Level;
use eyeriss_dataflow::candidate::MappingParams;
use eyeriss_dataflow::{DataflowKind, ParamsMismatch};

/// The optimized mapping of one layer.
#[derive(Debug, Clone)]
pub struct LayerRun {
    /// Layer name ("CONV1", ..., "FC3").
    pub name: String,
    /// MAC operations at the evaluated batch size.
    pub macs: f64,
    /// Exact aggregate access profile under the optimal mapping.
    pub profile: LayerAccessProfile,
    /// PEs doing useful work under that mapping.
    pub active_pes: usize,
    /// The winning mapping parameters.
    pub params: MappingParams,
}

impl LayerRun {
    /// Normalized energy of this layer (MAC units), including ALU.
    pub fn energy(&self, cost: &CostModel) -> f64 {
        cost.energy_of(&self.profile)
    }

    /// Prices this layer into the unified [`CostReport`] vocabulary.
    pub fn report(&self, cost: &CostModel) -> CostReport {
        cost.report(&self.profile, self.active_pes)
    }

    /// Delay proxy of this layer: MACs / active PEs (Section VII-B).
    pub fn delay(&self) -> f64 {
        self.macs / self.active_pes as f64
    }

    /// The winning params interrogated as `kind`'s variant — the typed
    /// replacement for destructuring one variant with a `panic!`/
    /// `unreachable!` fallback.
    ///
    /// # Errors
    ///
    /// [`ParamsMismatch`] when this run was optimized under a different
    /// dataflow.
    pub fn params_of(&self, kind: DataflowKind) -> Result<&MappingParams, ParamsMismatch> {
        self.params.expect_kind(kind)
    }
}

/// One dataflow mapped over a set of layers (e.g. all CONV layers of
/// AlexNet) at one (PE count, batch size) operating point.
#[derive(Clone)]
pub struct DataflowRun {
    /// Which dataflow.
    pub kind: DataflowKind,
    /// PE count of the comparison setup.
    pub num_pes: usize,
    /// Batch size.
    pub batch: usize,
    /// Per-layer optimized results, in network order.
    pub layers: Vec<LayerRun>,
    /// The cost model the mappings were optimized (and are priced) under.
    pub cost: CostModel,
}

impl std::fmt::Debug for DataflowRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataflowRun")
            .field("kind", &self.kind)
            .field("num_pes", &self.num_pes)
            .field("batch", &self.batch)
            .field("layers", &self.layers)
            .field("cost", &self.cost.id())
            .finish()
    }
}

impl DataflowRun {
    /// Prices the whole run into one accumulated [`CostReport`].
    pub fn report(&self) -> CostReport {
        let mut total = CostReport::zero(self.cost.descriptor());
        for l in &self.layers {
            total.accumulate(&l.report(&self.cost));
        }
        total
    }

    /// Total MACs across layers.
    pub fn total_ops(&self) -> f64 {
        self.layers.iter().map(|l| l.macs).sum()
    }

    /// Total normalized energy across layers (including ALU).
    pub fn total_energy(&self) -> f64 {
        self.layers.iter().map(|l| l.energy(&self.cost)).sum()
    }

    /// Normalized energy per operation (the y-axis of Fig. 12/14b).
    pub fn energy_per_op(&self) -> f64 {
        self.total_energy() / self.total_ops()
    }

    /// Average DRAM accesses per operation (the y-axis of Fig. 11/14a).
    pub fn dram_accesses_per_op(&self) -> f64 {
        let acc: f64 = self.layers.iter().map(|l| l.profile.dram_accesses()).sum();
        acc / self.total_ops()
    }

    /// DRAM reads per operation.
    pub fn dram_reads_per_op(&self) -> f64 {
        let acc: f64 = self.layers.iter().map(|l| l.profile.dram_reads()).sum();
        acc / self.total_ops()
    }

    /// DRAM writes per operation (identical across dataflows: only final
    /// ofmaps are written back — Section VII-B).
    pub fn dram_writes_per_op(&self) -> f64 {
        let acc: f64 = self.layers.iter().map(|l| l.profile.dram_writes()).sum();
        acc / self.total_ops()
    }

    /// Total delay proxy across layers.
    pub fn total_delay(&self) -> f64 {
        self.layers.iter().map(|l| l.delay()).sum()
    }

    /// Delay per operation: the reciprocal of the op-weighted active PE
    /// count.
    pub fn delay_per_op(&self) -> f64 {
        self.total_delay() / self.total_ops()
    }

    /// Energy-delay product per op² — ratios of this quantity reproduce the
    /// normalized EDP bars of Fig. 13/14d.
    pub fn edp_per_op(&self) -> f64 {
        self.energy_per_op() * self.delay_per_op()
    }

    /// Energy per op contributed by one hierarchy level (Fig. 12 stacks).
    pub fn energy_per_op_at(&self, level: Level) -> f64 {
        let e: f64 = self
            .layers
            .iter()
            .map(|l| self.cost.energy_at_level(&l.profile, level))
            .sum();
        e / self.total_ops()
    }

    /// Energy per op contributed by one data type (Fig. 12d/14c stacks).
    pub fn energy_per_op_of(&self, ty: DataType) -> f64 {
        let e: f64 = self
            .layers
            .iter()
            .map(|l| self.cost.energy_of_type(&l.profile, ty))
            .sum();
        e / self.total_ops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eyeriss_arch::access::AccessCounts;
    use eyeriss_arch::cost::TableIv;

    fn dummy_run() -> DataflowRun {
        let mut p1 = LayerAccessProfile::new();
        p1.alu_ops = 100.0;
        p1.ifmap = AccessCounts {
            dram_reads: 10.0,
            rf_reads: 100.0,
            ..AccessCounts::default()
        };
        let mut p2 = LayerAccessProfile::new();
        p2.alu_ops = 300.0;
        p2.psum.dram_writes = 30.0;
        DataflowRun {
            kind: DataflowKind::RowStationary,
            num_pes: 256,
            batch: 1,
            cost: TableIv,
            layers: vec![
                LayerRun {
                    name: "L1".into(),
                    macs: 100.0,
                    profile: p1,
                    active_pes: 100,
                    params: MappingParams::OutputStationaryC { o_m: 1, n_par: 1 },
                },
                LayerRun {
                    name: "L2".into(),
                    macs: 300.0,
                    profile: p2,
                    active_pes: 50,
                    params: MappingParams::OutputStationaryC { o_m: 1, n_par: 1 },
                },
            ],
        }
    }

    #[test]
    fn totals_aggregate_layers() {
        let r = dummy_run();
        assert_eq!(r.total_ops(), 400.0);
        // L1: 100 ALU + 10*200 + 100*1 = 2200; L2: 300 + 30*200 = 6300.
        assert_eq!(r.total_energy(), 2200.0 + 6300.0);
        assert_eq!(r.dram_accesses_per_op(), 40.0 / 400.0);
        assert_eq!(r.dram_writes_per_op(), 30.0 / 400.0);
    }

    #[test]
    fn delay_weights_by_layer() {
        let r = dummy_run();
        assert_eq!(r.total_delay(), 1.0 + 6.0);
        assert_eq!(r.delay_per_op(), 7.0 / 400.0);
        assert!((r.edp_per_op() - r.energy_per_op() * r.delay_per_op()).abs() < 1e-12);
    }

    #[test]
    fn params_accessor_is_typed() {
        let r = dummy_run();
        assert!(r.layers[0]
            .params_of(DataflowKind::OutputStationaryC)
            .is_ok());
        let err = r.layers[0]
            .params_of(DataflowKind::RowStationary)
            .unwrap_err();
        assert_eq!(err.actual, DataflowKind::OutputStationaryC.id());
    }

    #[test]
    fn level_breakdown_sums_to_total() {
        let r = dummy_run();
        let sum: f64 = Level::ALL
            .iter()
            .map(|&l| r.energy_per_op_at(l))
            .sum::<f64>()
            * r.total_ops();
        assert!((sum - r.total_energy()).abs() < 1e-9);
    }
}
