//! Access-count containers shared by the analytical models and the
//! simulator.
//!
//! The paper's analysis methodology (Section VI-C) quantifies energy by
//! "counting the number of accesses to each level of the previously defined
//! hierarchy, and weighting the accesses at each level with a cost from
//! Table IV". These types hold those counts, per data type;
//! [`crate::cost::CostModel`] weights them.
//!
//! Counts are `f64` because optimal mappings may charge fractional average
//! counts (halo-exact strip refetch factors); all integer-derived counts
//! are exact.

use crate::energy::Level;
use std::ops::{Add, AddAssign};

/// The three data types moved through the hierarchy (Section VI-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Input feature map pixels (activations).
    Ifmap,
    /// Filter weights.
    Filter,
    /// Partial sums (accumulated into ofmap pixels).
    Psum,
}

impl DataType {
    /// All data types, in the order the paper's figures stack them.
    pub const ALL: [DataType; 3] = [DataType::Ifmap, DataType::Filter, DataType::Psum];

    /// Short label used in report tables.
    pub fn label(self) -> &'static str {
        match self {
            DataType::Ifmap => "Ifmaps",
            DataType::Filter => "Weights",
            DataType::Psum => "Psums",
        }
    }
}

/// Access counts for one data type across the four-level hierarchy.
///
/// `array_hops` counts inter-PE/NoC word deliveries (each charged the
/// array-level cost); the other levels distinguish reads and writes since
/// psum accumulation pays both (the factor of 2 in Eq. (4)).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AccessCounts {
    /// Words read from DRAM.
    pub dram_reads: f64,
    /// Words written to DRAM.
    pub dram_writes: f64,
    /// Words read from the global buffer.
    pub buffer_reads: f64,
    /// Words written to the global buffer.
    pub buffer_writes: f64,
    /// Inter-PE word deliveries over the array NoC.
    pub array_hops: f64,
    /// Words read from PE register files.
    pub rf_reads: f64,
    /// Words written to PE register files.
    pub rf_writes: f64,
}

impl AccessCounts {
    /// A zeroed counter.
    pub fn new() -> Self {
        AccessCounts::default()
    }

    /// Total accesses at one hierarchy level (reads + writes).
    pub fn at_level(&self, level: Level) -> f64 {
        match level {
            Level::Dram => self.dram_reads + self.dram_writes,
            Level::Buffer => self.buffer_reads + self.buffer_writes,
            Level::Array => self.array_hops,
            Level::Rf => self.rf_reads + self.rf_writes,
            Level::Alu => 0.0,
        }
    }

    /// Scales every count by `factor` (e.g. replicating a per-group
    /// profile across the `G` groups of a grouped convolution).
    pub fn scale(&mut self, factor: f64) {
        self.dram_reads *= factor;
        self.dram_writes *= factor;
        self.buffer_reads *= factor;
        self.buffer_writes *= factor;
        self.array_hops *= factor;
        self.rf_reads *= factor;
        self.rf_writes *= factor;
    }

    /// True if every count is finite and non-negative.
    pub fn is_valid(&self) -> bool {
        [
            self.dram_reads,
            self.dram_writes,
            self.buffer_reads,
            self.buffer_writes,
            self.array_hops,
            self.rf_reads,
            self.rf_writes,
        ]
        .iter()
        .all(|v| v.is_finite() && *v >= 0.0)
    }
}

impl Add for AccessCounts {
    type Output = AccessCounts;
    fn add(mut self, rhs: AccessCounts) -> AccessCounts {
        self += rhs;
        self
    }
}

impl AddAssign for AccessCounts {
    fn add_assign(&mut self, rhs: AccessCounts) {
        self.dram_reads += rhs.dram_reads;
        self.dram_writes += rhs.dram_writes;
        self.buffer_reads += rhs.buffer_reads;
        self.buffer_writes += rhs.buffer_writes;
        self.array_hops += rhs.array_hops;
        self.rf_reads += rhs.rf_reads;
        self.rf_writes += rhs.rf_writes;
    }
}

/// Complete access profile of one layer under one mapping: per-data-type
/// hierarchy counts plus the ALU operation count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerAccessProfile {
    /// Ifmap pixel movement.
    pub ifmap: AccessCounts,
    /// Filter weight movement.
    pub filter: AccessCounts,
    /// Partial-sum movement and accumulation traffic.
    pub psum: AccessCounts,
    /// MAC operations executed.
    pub alu_ops: f64,
}

impl LayerAccessProfile {
    /// A zeroed profile.
    pub fn new() -> Self {
        LayerAccessProfile::default()
    }

    /// Counts for one data type.
    pub fn of(&self, ty: DataType) -> &AccessCounts {
        match ty {
            DataType::Ifmap => &self.ifmap,
            DataType::Filter => &self.filter,
            DataType::Psum => &self.psum,
        }
    }

    /// Mutable counts for one data type.
    pub fn of_mut(&mut self, ty: DataType) -> &mut AccessCounts {
        match ty {
            DataType::Ifmap => &mut self.ifmap,
            DataType::Filter => &mut self.filter,
            DataType::Psum => &mut self.psum,
        }
    }

    /// Total DRAM accesses (reads + writes) across data types.
    pub fn dram_accesses(&self) -> f64 {
        DataType::ALL
            .iter()
            .map(|&t| self.of(t).at_level(Level::Dram))
            .sum()
    }

    /// DRAM reads across data types.
    pub fn dram_reads(&self) -> f64 {
        DataType::ALL.iter().map(|&t| self.of(t).dram_reads).sum()
    }

    /// DRAM writes across data types.
    pub fn dram_writes(&self) -> f64 {
        DataType::ALL.iter().map(|&t| self.of(t).dram_writes).sum()
    }

    /// Scales every count by `factor` — the whole-layer profile of a
    /// grouped convolution is its per-group profile times `G`.
    pub fn scale(&mut self, factor: f64) {
        self.ifmap.scale(factor);
        self.filter.scale(factor);
        self.psum.scale(factor);
        self.alu_ops *= factor;
    }

    /// Element-wise accumulation (summing layers into a network total).
    pub fn accumulate(&mut self, other: &LayerAccessProfile) {
        self.ifmap += other.ifmap;
        self.filter += other.filter;
        self.psum += other.psum;
        self.alu_ops += other.alu_ops;
    }

    /// True if every embedded count is finite and non-negative.
    pub fn is_valid(&self) -> bool {
        self.ifmap.is_valid()
            && self.filter.is_valid()
            && self.psum.is_valid()
            && self.alu_ops.is_finite()
            && self.alu_ops >= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::TableIv;

    fn sample() -> AccessCounts {
        AccessCounts {
            dram_reads: 10.0,
            dram_writes: 2.0,
            buffer_reads: 100.0,
            buffer_writes: 20.0,
            array_hops: 300.0,
            rf_reads: 1000.0,
            rf_writes: 500.0,
        }
    }

    #[test]
    fn energy_weights_levels() {
        let mut p = LayerAccessProfile::new();
        p.filter = sample();
        let expect = 12.0 * 200.0 + 120.0 * 6.0 + 300.0 * 2.0 + 1500.0 * 1.0;
        assert_eq!(TableIv.energy_of(&p), expect);
        assert_eq!(
            TableIv.report(&p, 1).total_energy.to_bits(),
            TableIv.energy_of(&p).to_bits()
        );
    }

    #[test]
    fn add_is_elementwise() {
        let c = sample() + sample();
        assert_eq!(c.dram_reads, 20.0);
        assert_eq!(c.rf_writes, 1000.0);
    }

    #[test]
    fn profile_total_includes_alu() {
        let mut p = LayerAccessProfile::new();
        p.alu_ops = 50.0;
        p.filter = sample();
        let filter = TableIv.energy_of_type(&p, DataType::Filter);
        assert_eq!(TableIv.energy_of(&p), filter + 50.0);
        let report = TableIv.report(&p, 1);
        assert_eq!(report.alu_energy.to_bits(), 50.0f64.to_bits());
        assert_eq!(
            report.total_energy.to_bits(),
            TableIv.energy_of(&p).to_bits()
        );
    }

    #[test]
    fn per_level_sums_to_data_energy() {
        let mut p = LayerAccessProfile::new();
        p.ifmap = sample();
        p.psum = sample();
        let report = TableIv.report(&p, 1);
        for level in Level::ALL {
            assert_eq!(
                report.energy_at(level).to_bits(),
                TableIv.energy_at_level(&p, level).to_bits(),
                "{level}"
            );
        }
        let by_level: f64 = [Level::Dram, Level::Buffer, Level::Array, Level::Rf]
            .iter()
            .map(|&l| TableIv.energy_at_level(&p, l))
            .sum();
        assert!((by_level - report.data_energy()).abs() < 1e-9);
    }

    #[test]
    fn per_type_sums_to_data_energy() {
        let mut p = LayerAccessProfile::new();
        p.ifmap = sample();
        p.filter = sample();
        let report = TableIv.report(&p, 1);
        for ty in DataType::ALL {
            assert_eq!(
                report.energy_of(ty).to_bits(),
                TableIv.energy_of_type(&p, ty).to_bits(),
                "{}",
                ty.label()
            );
        }
        let by_type: f64 = DataType::ALL
            .iter()
            .map(|&t| TableIv.energy_of_type(&p, t))
            .sum();
        assert!((by_type - report.data_energy()).abs() < 1e-9);
    }

    #[test]
    fn scale_multiplies_every_count() {
        let mut p = LayerAccessProfile::new();
        p.ifmap = sample();
        p.alu_ops = 10.0;
        p.scale(3.0);
        assert_eq!(p.ifmap.dram_reads, 30.0);
        assert_eq!(p.ifmap.rf_writes, 1500.0);
        assert_eq!(p.alu_ops, 30.0);
    }

    #[test]
    fn validity_checks_negative() {
        let mut c = sample();
        assert!(c.is_valid());
        c.array_hops = -1.0;
        assert!(!c.is_valid());
    }

    #[test]
    fn dram_reads_and_writes_split() {
        let mut p = LayerAccessProfile::new();
        p.psum.dram_writes = 5.0;
        p.ifmap.dram_reads = 7.0;
        assert_eq!(p.dram_reads(), 7.0);
        assert_eq!(p.dram_writes(), 5.0);
        assert_eq!(p.dram_accesses(), 12.0);
    }
}
