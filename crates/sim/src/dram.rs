//! Off-chip DRAM bandwidth model.
//!
//! Section VI-B argues that "prefetching, double buffering, caching and
//! pipelining ... are quite effective at hiding latency. Therefore, data
//! movement is not expected to impact overall throughput significantly."
//! This model lets the simulator *check* that claim instead of assuming
//! it: each processing pass overlaps its DRAM transfers with the previous
//! pass's compute (double buffering), and only the excess — transfer
//! cycles beyond compute cycles — stalls the array.

/// A bandwidth-limited DRAM channel: a pass's transfers take
/// `ceil(words / words_per_cycle)` cycles, partial beats rounding up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DramModel {
    words_per_cycle: f64,
}

impl DramModel {
    /// Creates a channel delivering `words_per_cycle` 16-bit words per
    /// accelerator cycle.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is not positive.
    pub(crate) fn new(words_per_cycle: f64) -> Self {
        assert!(
            words_per_cycle > 0.0 && words_per_cycle.is_finite(),
            "bandwidth must be positive"
        );
        DramModel { words_per_cycle }
    }

    /// The fabricated chip's ballpark: a 64-bit DDR interface at the
    /// 200 MHz core clock (4 words/cycle).
    pub(crate) fn eyeriss_chip() -> Self {
        DramModel::new(4.0)
    }

    /// Cycles to move `words` (rounded up).
    pub(crate) fn transfer_cycles(&self, words: u64) -> u64 {
        (words as f64 / self.words_per_cycle).ceil() as u64
    }

    /// Stall cycles of a pass whose transfers are double-buffered against
    /// `compute_cycles` of array work: only the excess stalls.
    pub(crate) fn stall_cycles(&self, words: u64, compute_cycles: u64) -> u64 {
        self.transfer_cycles(words).saturating_sub(compute_cycles)
    }
}

impl Default for DramModel {
    fn default() -> Self {
        DramModel::eyeriss_chip()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfers_round_up() {
        let d = DramModel::new(3.0);
        assert_eq!(d.transfer_cycles(0), 0);
        assert_eq!(d.transfer_cycles(1), 1);
        assert_eq!(d.transfer_cycles(3), 1);
        assert_eq!(d.transfer_cycles(10), 4);
    }

    #[test]
    fn double_buffering_hides_transfers_under_compute() {
        let d = DramModel::new(2.0);
        assert_eq!(d.stall_cycles(100, 1000), 0);
        assert_eq!(d.stall_cycles(100, 10), 40);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_rejected() {
        let _ = DramModel::new(0.0);
    }
}
