//! Measured statistics from a simulated layer run.

use eyeriss_arch::access::{DataType, LayerAccessProfile};
use eyeriss_arch::cost::{CostModel, CostReport};
use eyeriss_arch::energy::Level;

/// Everything the simulator measures while executing one layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Word-level access counts per hierarchy level and data type,
    /// directly comparable with the analytical model's profiles.
    pub profile: LayerAccessProfile,
    /// Compute cycles (busiest PE per pass, 1 MAC/cycle, summed over
    /// passes). Zero-gated MACs still occupy their cycle — the chip gates
    /// energy, not time.
    pub cycles: u64,
    /// Stall cycles where double-buffered DRAM transfers exceeded the
    /// overlapping compute (Section VI-B's latency-hiding claim).
    pub stall_cycles: u64,
    /// MACs executed.
    pub macs: u64,
    /// MACs skipped by zero-gating.
    pub skipped_macs: u64,
    /// Raw DRAM traffic in 16-bit words (reads + writes).
    pub dram_raw_words: u64,
    /// DRAM traffic after run-length compression, if RLC was enabled.
    pub dram_compressed_words: Option<u64>,
    /// Hierarchical-mesh hop split, if the run executed over a
    /// [`HierarchicalMesh`](crate::mesh::HierarchicalMesh).
    pub mesh: Option<crate::mesh::MeshStats>,
    /// CSC storage accounting (ifmap + filter), if sparse execution was
    /// enabled.
    pub csc: Option<crate::csc::CscStats>,
}

impl SimStats {
    /// Accumulates another run's statistics into this one. Used when a
    /// layer executes as several sequential sub-runs (e.g. one engine per
    /// filter group): cycles, traffic and optional mesh/CSC accounting all
    /// add; the RLC word count stays `None` unless some sub-run measured
    /// one.
    pub fn merge(&mut self, other: &SimStats) {
        self.profile.accumulate(&other.profile);
        self.cycles += other.cycles;
        self.stall_cycles += other.stall_cycles;
        self.macs += other.macs;
        self.skipped_macs += other.skipped_macs;
        self.dram_raw_words += other.dram_raw_words;
        if let Some(c) = other.dram_compressed_words {
            *self.dram_compressed_words.get_or_insert(0) += c;
        }
        if let Some(m) = &other.mesh {
            self.mesh.get_or_insert_with(Default::default).merge(m);
        }
        if let Some(c) = &other.csc {
            self.csc.get_or_insert_with(Default::default).merge(c);
        }
    }

    /// Average PE utilization: useful MACs per (cycle x PE).
    pub fn utilization(&self, num_pes: usize) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        (self.macs + self.skipped_macs) as f64 / (self.cycles as f64 * num_pes as f64)
    }

    /// Normalized data-movement + compute energy under `cost`.
    pub fn energy(&self, cost: &CostModel) -> f64 {
        cost.energy_of(&self.profile)
    }

    /// Prices the measured run into the unified [`CostReport`]
    /// vocabulary. The delay baseline is the *measured* wall clock
    /// ([`SimStats::total_cycles`]), floored by the model's per-level
    /// bandwidths.
    pub fn cost_report(&self, cost: &CostModel) -> CostReport {
        cost.report_with_delay(&self.profile, self.total_cycles() as f64)
    }

    /// Prices the run like [`SimStats::cost_report`], but with DRAM
    /// traffic scaled to the compressed word count (RLC and/or CSC), so
    /// sparse runs' reports charge the storage format the chip actually
    /// moves. All DRAM counts scale by the overall measured ratio —
    /// `dram_compressed_words` is a single total, so the per-type split
    /// is proportional. Identical to `cost_report` when nothing was
    /// compressed.
    pub fn compressed_cost_report(&self, cost: &CostModel) -> CostReport {
        cost.report_with_delay(&self.compressed_profile(), self.total_cycles() as f64)
    }

    /// The access profile with DRAM counts scaled to the compressed
    /// word total. Identity when nothing was compressed.
    pub fn compressed_profile(&self) -> LayerAccessProfile {
        let mut profile = self.profile;
        let Some(compressed) = self.dram_compressed_words else {
            return profile;
        };
        if self.dram_raw_words == 0 {
            return profile;
        }
        let scale = compressed as f64 / self.dram_raw_words as f64;
        for ty in DataType::ALL {
            let counts = profile.of_mut(ty);
            counts.dram_reads *= scale;
            counts.dram_writes *= scale;
        }
        profile
    }

    /// Ratio of RF energy to on-chip-rest (buffer + array) energy — the
    /// quantity the paper verifies against the chip (~4:1 in CONV layers,
    /// Section VII-A).
    pub fn rf_to_onchip_rest_ratio(&self, cost: &CostModel) -> f64 {
        let report = self.cost_report(cost);
        let rf = report.energy_at(Level::Rf);
        let rest = report.energy_at(Level::Buffer) + report.energy_at(Level::Array);
        rf / rest
    }

    /// Total wall-clock cycles including DRAM stalls.
    pub fn total_cycles(&self) -> u64 {
        self.cycles + self.stall_cycles
    }

    /// Fraction of time lost to DRAM stalls (0 when latency hiding works,
    /// as Section VI-B expects).
    pub fn stall_fraction(&self) -> f64 {
        if self.total_cycles() == 0 {
            0.0
        } else {
            self.stall_cycles as f64 / self.total_cycles() as f64
        }
    }

    /// Fraction of MACs eliminated by zero-gating.
    pub fn gating_fraction(&self) -> f64 {
        let total = self.macs + self.skipped_macs;
        if total == 0 {
            0.0
        } else {
            self.skipped_macs as f64 / total as f64
        }
    }

    /// DRAM traffic reduction from RLC (raw / compressed), 1.0 if RLC off.
    pub fn compression_ratio(&self) -> f64 {
        match self.dram_compressed_words {
            Some(c) if c > 0 => self.dram_raw_words as f64 / c as f64,
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_and_gating() {
        let s = SimStats {
            macs: 75,
            skipped_macs: 25,
            cycles: 10,
            ..SimStats::default()
        };
        assert_eq!(s.utilization(10), 1.0);
        assert_eq!(s.gating_fraction(), 0.25);
    }

    #[test]
    fn compression_defaults_to_one() {
        let mut s = SimStats {
            dram_raw_words: 1000,
            ..SimStats::default()
        };
        assert_eq!(s.compression_ratio(), 1.0);
        s.dram_compressed_words = Some(250);
        assert_eq!(s.compression_ratio(), 4.0);
    }

    #[test]
    fn zero_cycles_is_zero_utilization() {
        assert_eq!(SimStats::default().utilization(16), 0.0);
        assert_eq!(SimStats::default().stall_fraction(), 0.0);
    }

    #[test]
    fn stall_fraction_combines_cycles() {
        let s = SimStats {
            cycles: 75,
            stall_cycles: 25,
            ..SimStats::default()
        };
        assert_eq!(s.total_cycles(), 100);
        assert_eq!(s.stall_fraction(), 0.25);
    }
}
