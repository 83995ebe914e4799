//! Accelerator configurations: PE grid, RF capacity and buffer capacity.
//!
//! Two families matter for the reproduction:
//!
//! * the fabricated Eyeriss chip (Fig. 4): a 12x14 array of 168 PEs, 0.5 kB
//!   RF per PE and a 108 kB global buffer at 16-bit precision;
//! * the Section VII comparison setups: 256/512/1024 PEs with the Eq. (2)
//!   baseline storage area, from which each dataflow derives its own
//!   RF/buffer split.

use crate::area;

/// Bytes per data word (16-bit fixed point throughout the paper).
pub const WORD_BYTES: usize = 2;

/// Physical PE array dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridDims {
    /// Number of PE rows.
    pub rows: usize,
    /// Number of PE columns.
    pub cols: usize,
}

impl GridDims {
    /// Creates a grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be non-zero");
        GridDims { rows, cols }
    }

    /// Total PE count.
    pub fn count(&self) -> usize {
        self.rows * self.cols
    }

    /// A near-square grid for a given PE count, preferring more columns
    /// (ofmap-row parallelism) when not square. Used for the 256/512/1024
    /// sweeps where the paper only states PE counts.
    pub fn near_square(num_pes: usize) -> Self {
        assert!(num_pes > 0, "PE count must be non-zero");
        let mut rows = (num_pes as f64).sqrt() as usize;
        while rows > 1 && !num_pes.is_multiple_of(rows) {
            rows -= 1;
        }
        GridDims::new(rows, num_pes / rows)
    }
}

/// A complete accelerator configuration.
///
/// # Example
///
/// ```
/// use eyeriss_arch::AcceleratorConfig;
///
/// let chip = AcceleratorConfig::eyeriss_chip();
/// assert_eq!(chip.grid.count(), 168);
/// assert_eq!(chip.rf_words_per_pe(), 256); // 0.5 kB / 2 B
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorConfig {
    /// Physical PE array dimensions.
    pub grid: GridDims,
    /// Register file capacity per PE, in bytes.
    pub rf_bytes_per_pe: f64,
    /// Global buffer capacity, in bytes.
    pub buffer_bytes: f64,
}

impl AcceleratorConfig {
    /// The fabricated Eyeriss chip of Fig. 4: 168 PEs (12x14), 0.5 kB RF,
    /// 108 kB buffer.
    pub fn eyeriss_chip() -> Self {
        AcceleratorConfig {
            grid: GridDims::new(12, 14),
            rf_bytes_per_pe: 512.0,
            buffer_bytes: 108.0 * 1024.0,
        }
    }

    /// The Section VII-A RS setup: `num_pes` PEs with 512 B RF and
    /// `num_pes x 512 B` global buffer (e.g. 256 PEs -> 128 kB).
    pub fn paper_baseline(num_pes: usize) -> Self {
        AcceleratorConfig {
            grid: GridDims::near_square(num_pes),
            rf_bytes_per_pe: area::BASELINE_RF_BYTES,
            buffer_bytes: num_pes as f64 * area::BASELINE_RF_BYTES,
        }
    }

    /// Derives the configuration a dataflow gets under the fixed-area
    /// comparison: `rf_bytes_per_pe` is the dataflow's RF requirement and
    /// the buffer absorbs the remaining Eq. (2) baseline area (Fig. 7b).
    pub fn under_baseline_area(num_pes: usize, rf_bytes_per_pe: f64) -> Self {
        AcceleratorConfig {
            grid: GridDims::near_square(num_pes),
            rf_bytes_per_pe,
            buffer_bytes: area::buffer_bytes_under_baseline(num_pes, rf_bytes_per_pe),
        }
    }

    /// RF capacity per PE in 16-bit words.
    pub fn rf_words_per_pe(&self) -> usize {
        (self.rf_bytes_per_pe / WORD_BYTES as f64) as usize
    }

    /// Global buffer capacity in 16-bit words.
    pub fn buffer_words(&self) -> usize {
        (self.buffer_bytes / WORD_BYTES as f64) as usize
    }

    /// Total PE count.
    pub fn num_pes(&self) -> usize {
        self.grid.count()
    }

    /// Total on-chip storage (all RFs + buffer) in bytes.
    pub fn total_storage_bytes(&self) -> f64 {
        self.num_pes() as f64 * self.rf_bytes_per_pe + self.buffer_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chip_matches_fig4() {
        let chip = AcceleratorConfig::eyeriss_chip();
        assert_eq!(chip.grid, GridDims::new(12, 14));
        assert_eq!(chip.buffer_words(), 54 * 1024);
    }

    #[test]
    fn paper_baseline_256() {
        let c = AcceleratorConfig::paper_baseline(256);
        assert_eq!(c.num_pes(), 256);
        assert_eq!(c.buffer_bytes, 128.0 * 1024.0);
        assert_eq!(c.rf_words_per_pe(), 256);
    }

    #[test]
    fn near_square_divides_evenly() {
        for n in [168usize, 256, 512, 1024, 96] {
            let g = GridDims::near_square(n);
            assert_eq!(g.count(), n);
            assert!(g.rows <= g.cols);
        }
    }

    #[test]
    fn near_square_prime_degrades_to_row() {
        let g = GridDims::near_square(13);
        assert_eq!((g.rows, g.cols), (1, 13));
    }

    #[test]
    fn under_baseline_nlr_gets_bigger_buffer() {
        let rs = AcceleratorConfig::under_baseline_area(256, 512.0);
        let nlr = AcceleratorConfig::under_baseline_area(256, 0.0);
        assert!(nlr.buffer_bytes > 2.0 * rs.buffer_bytes);
        // But less *total* storage spread than 110 kB (Fig. 7b).
        let spread = (nlr.total_storage_bytes() - rs.total_storage_bytes()).abs();
        assert!(spread < 110.0 * 1024.0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_grid_panics() {
        let _ = GridDims::new(0, 4);
    }
}
