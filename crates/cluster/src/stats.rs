//! Aggregated statistics for a cluster-level layer run.

use eyeriss_arch::access::LayerAccessProfile;
use eyeriss_arch::cost::{CostModel, CostReport};
use eyeriss_sim::SimStats;

/// Merges `other` into `acc` (summing every counter; used to fold the
/// tiles an array ran sequentially, and to total the cluster).
pub fn merge_stats(acc: &mut SimStats, other: &SimStats) {
    acc.profile.accumulate(&other.profile);
    acc.cycles += other.cycles;
    acc.stall_cycles += other.stall_cycles;
    acc.macs += other.macs;
    acc.skipped_macs += other.skipped_macs;
    acc.dram_raw_words += other.dram_raw_words;
    // A side without RLC contributes its raw traffic to the compressed
    // total; note `acc.dram_raw_words` was already updated above.
    acc.dram_compressed_words = match (acc.dram_compressed_words, other.dram_compressed_words) {
        (None, None) => None,
        (a, b) => Some(
            a.unwrap_or(acc.dram_raw_words - other.dram_raw_words)
                + b.unwrap_or(other.dram_raw_words),
        ),
    };
}

/// Everything measured while executing one layer across the cluster.
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    /// Per-array measured statistics, in array order (each the sum over
    /// the tiles that array executed sequentially).
    pub per_array: Vec<SimStats>,
    /// Stall cycles charged by the shared-DRAM contention model on top
    /// of the critical-path array.
    pub contention_stalls: u64,
}

impl ClusterStats {
    /// Total access profile across arrays.
    pub fn total_profile(&self) -> LayerAccessProfile {
        let mut p = LayerAccessProfile::new();
        for s in &self.per_array {
            p.accumulate(&s.profile);
        }
        p
    }

    /// Total MACs executed across arrays.
    pub fn macs(&self) -> u64 {
        self.per_array.iter().map(|s| s.macs).sum()
    }

    /// Total raw DRAM traffic across arrays, in words.
    pub fn dram_words(&self) -> u64 {
        self.per_array.iter().map(|s| s.dram_raw_words).sum()
    }

    /// Critical-path array cycles: the slowest array's total (arrays run
    /// in parallel). This is also the compute baseline the contention
    /// model charges stalls against.
    pub fn critical_cycles(&self) -> u64 {
        self.per_array
            .iter()
            .map(SimStats::total_cycles)
            .max()
            .unwrap_or(0)
    }

    /// Cluster makespan: [`ClusterStats::critical_cycles`] plus
    /// shared-DRAM contention stalls.
    pub fn cluster_cycles(&self) -> u64 {
        self.critical_cycles() + self.contention_stalls
    }

    /// Total normalized energy across arrays (energy is additive; it does
    /// not parallelize away).
    pub fn energy(&self, cost: &CostModel) -> f64 {
        self.per_array.iter().map(|s| s.energy(cost)).sum()
    }

    /// Prices the whole cluster run into the unified [`CostReport`]
    /// vocabulary: energies add across arrays, per-level transfer floors
    /// are the per-array maximum (arrays move their own words in
    /// parallel), and the measured cluster makespan
    /// ([`ClusterStats::cluster_cycles`]) is the delay baseline.
    pub fn cost_report(&self, cost: &CostModel) -> CostReport {
        let profiles: Vec<&LayerAccessProfile> =
            self.per_array.iter().map(|s| &s.profile).collect();
        cost.report_parallel(&profiles, self.cluster_cycles() as f64)
    }

    /// Like [`ClusterStats::cost_report`], but each array's DRAM
    /// traffic is scaled to its compressed word count first
    /// ([`SimStats::compressed_profile`]) — sparse/RLC runs priced at
    /// the storage format the chip actually moves. Identical to
    /// `cost_report` when no array compressed anything.
    pub fn compressed_cost_report(&self, cost: &CostModel) -> CostReport {
        let profiles: Vec<LayerAccessProfile> = self
            .per_array
            .iter()
            .map(SimStats::compressed_profile)
            .collect();
        let refs: Vec<&LayerAccessProfile> = profiles.iter().collect();
        cost.report_parallel(&refs, self.cluster_cycles() as f64)
    }

    /// Work imbalance: critical-path cycles over mean per-array cycles
    /// (1.0 = perfectly balanced; only counts busy arrays).
    pub fn imbalance(&self) -> f64 {
        let busy: Vec<u64> = self
            .per_array
            .iter()
            .map(SimStats::total_cycles)
            .filter(|&c| c > 0)
            .collect();
        if busy.is_empty() {
            return 1.0;
        }
        let max = *busy.iter().max().expect("non-empty") as f64;
        let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(cycles: u64, macs: u64) -> SimStats {
        let mut s = SimStats {
            cycles,
            macs,
            dram_raw_words: 10,
            ..SimStats::default()
        };
        s.profile.alu_ops = macs as f64;
        s
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = stats(10, 100);
        merge_stats(&mut a, &stats(5, 50));
        assert_eq!(a.cycles, 15);
        assert_eq!(a.macs, 150);
        assert_eq!(a.dram_raw_words, 20);
        assert_eq!(a.profile.alu_ops, 150.0);
    }

    #[test]
    fn cluster_cycles_take_critical_path() {
        let cs = ClusterStats {
            per_array: vec![stats(10, 1), stats(30, 1), stats(20, 1)],
            contention_stalls: 5,
        };
        assert_eq!(cs.cluster_cycles(), 35);
        assert_eq!(cs.macs(), 3);
        assert!((cs.imbalance() - 30.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn empty_cluster_is_degenerate_but_defined() {
        let cs = ClusterStats::default();
        assert_eq!(cs.cluster_cycles(), 0);
        assert_eq!(cs.imbalance(), 1.0);
    }
}
