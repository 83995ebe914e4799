//! Shared-DRAM bandwidth contention across arrays.
//!
//! A multi-array cluster does not get one private DRAM channel per array:
//! the arrays share membership of one memory system. The model here is
//! the cluster-level analogue of the simulator's per-chip DRAM model and
//! its double-buffering argument: every array's DRAM traffic must stream
//! through one shared channel, overlapped with the cluster's compute.
//! Only the excess — total transfer cycles beyond the slowest array's
//! compute — stalls the cluster.

/// A shared, bandwidth-limited cluster DRAM channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharedDram {
    words_per_cycle: f64,
}

impl SharedDram {
    /// Creates a shared channel delivering `words_per_cycle` 16-bit words
    /// per cluster cycle.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is not positive.
    pub fn new(words_per_cycle: f64) -> Self {
        assert!(
            words_per_cycle > 0.0 && words_per_cycle.is_finite(),
            "bandwidth must be positive"
        );
        SharedDram { words_per_cycle }
    }

    /// The fabricated chip's interface (4 words/cycle), shared by the
    /// whole cluster — the pessimistic default that makes bandwidth
    /// scaling visible in sweeps.
    pub fn eyeriss_chip() -> Self {
        SharedDram::new(4.0)
    }

    /// A channel scaled to `arrays` (each array gets chip-class
    /// bandwidth; contention only from imbalance).
    pub fn scaled(arrays: usize) -> Self {
        SharedDram::new(4.0 * arrays.max(1) as f64)
    }

    /// Channel bandwidth in words per cluster cycle.
    pub fn words_per_cycle(&self) -> f64 {
        self.words_per_cycle
    }

    /// Cycles to stream `words` through the shared channel (rounded up).
    pub fn transfer_cycles(&self, words: u64) -> u64 {
        (words as f64 / self.words_per_cycle).ceil() as u64
    }

    /// Stall cycles the cluster pays when `total_words` of aggregate DRAM
    /// traffic overlap `compute_cycles` of (critical-path) array compute.
    pub fn contention_stall(&self, total_words: u64, compute_cycles: u64) -> u64 {
        self.transfer_cycles(total_words)
            .saturating_sub(compute_cycles)
    }

    /// Analytic form of [`SharedDram::contention_stall`] for the planner's
    /// fractional access counts.
    pub fn transfer_delay(&self, words: f64) -> f64 {
        words / self.words_per_cycle
    }
}

impl Default for SharedDram {
    fn default() -> Self {
        SharedDram::eyeriss_chip()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_is_excess_over_compute() {
        let d = SharedDram::new(2.0);
        assert_eq!(d.contention_stall(100, 10), 40);
        assert_eq!(d.contention_stall(100, 1000), 0);
    }

    #[test]
    fn scaled_grows_with_arrays() {
        assert_eq!(SharedDram::scaled(4).words_per_cycle(), 16.0);
        assert_eq!(SharedDram::scaled(0).words_per_cycle(), 4.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_bandwidth() {
        let _ = SharedDram::new(0.0);
    }
}
